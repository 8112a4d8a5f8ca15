"""Child processes: the environment they run in, and reaping with rusage."""

from __future__ import annotations

import os
import resource
import subprocess
from pathlib import Path
from typing import Any


def child_env(root: Path) -> dict[str, str]:
    """Environment that imports qstatic from the checkout's ``src`` and keeps
    numpy's native libraries to one thread, so each workload has one caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], **popen_kwargs: Any) -> tuple[int, resource.struct_rusage]:
    """Run ``argv`` to completion; return its exit code and resource usage.

    The child is reaped with ``os.wait4`` so its own peak RSS is read; if the
    wait is interrupted the child is killed and waited for.
    """
    proc = subprocess.Popen(argv, **popen_kwargs)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage
