"""One workload process: set up, then run the timed or the traced phase.

Started by ``run.py``, never by hand. ``--t0`` is the monotonic clock reading
taken just before this process was spawned, so set-up time covers interpreter
start, imports, input generation and warm-up. The result goes to ``--result``
as JSON; nothing is printed on stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy
import qstatic

import workloads
from child import child_env, run_child
from tracer import LABELS, Tracer

ROOT = Path(__file__).resolve().parent.parent
MAX_FAILURES_KEPT = 20
STARTUP_PROBES = 5
#: Passes a run needs before its fastest pass alone gives the timings.
FASTEST_PASS_MIN = 10


def latency_figures(latencies, tail_fraction: float) -> tuple[float, float, float]:
    """Throughput (ops per second of op time), median latency, and the
    latency at ``tail_fraction`` of the sorted samples."""
    ordered = sorted(latencies)
    tail_index = max(round(tail_fraction * len(ordered)) - 1, 0)
    return len(ordered) / sum(ordered), statistics.median(ordered), ordered[tail_index]


class Timings:
    """The end-to-end timing figures of a run made of whole passes.

    The tail is the latency with ten samples beyond it in one pass. With
    many short passes the figures are those of the fastest pass: the host's
    speed drifts by up to 1.7x over windows of seconds (CPU time stays equal
    to wall time), and a slow window only ever adds time. A run of a few long
    passes spans several such windows in each pass, so its passes are pooled.
    """

    def __init__(self, pass_size: int) -> None:
        self.pass_size = pass_size
        self.tail_fraction = (pass_size - 10) / pass_size
        self.per_pass: list[tuple[float, float, float]] = []
        self.pooled = array("d")  # latencies of the first few passes only

    def add(self, latencies: array) -> None:
        self.per_pass.append(latency_figures(latencies, self.tail_fraction))
        if len(self.per_pass) < FASTEST_PASS_MIN:
            self.pooled.extend(latencies)

    def result(self) -> dict:
        n = len(self.per_pass)
        if n >= FASTEST_PASS_MIN:
            ops_per_s = max(f[0] for f in self.per_pass)
            p50_s = min(f[1] for f in self.per_pass)
            tail_s = min(f[2] for f in self.per_pass)
            rule = f"fastest of {n} passes"
        else:
            ops_per_s, p50_s, tail_s = latency_figures(self.pooled, self.tail_fraction)
            rule = f"{n} passes pooled"
        return {
            "ops_per_s": ops_per_s,
            "op_p50_ms": p50_s * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "tail_percentile": 100.0 * self.tail_fraction,
            "pass_size": self.pass_size,
            "rule": rule,
        }


class Attempts:
    """Runs operations, times each, checks each, and counts failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def one(self, run, i: int, latencies: array) -> None:
        clock = time.perf_counter
        start = clock()
        try:
            out = run(i)
            error = None
        except Exception as exc:  # a raising op is a failed op, never retried
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        if error is None:
            try:
                error = self.workload.check(i, out)
            except Exception as exc:  # malformed output the checker could not parse
                error = f"checker rejected output: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append({"op": i, "input": self.workload.describe(i), "error": error})

    def one_pass(self, run, tracer=None) -> array:
        latencies = array("d")
        for i in range(self.workload.pass_size):
            if tracer is not None:
                tracer.op = i
            self.one(run, i, latencies)
        return latencies


def timed_phase(workload, seconds: float) -> dict:
    """Whole passes over the op stream until ``seconds`` have gone by."""
    attempts = Attempts(workload)
    deadline = time.perf_counter() + seconds
    timings = Timings(workload.pass_size)
    op = 0
    while True:
        latencies = array("d")
        for _ in range(workload.pass_size):
            attempts.one(workload.run, op, latencies)
            op += 1
        timings.add(latencies)
        if time.perf_counter() >= deadline:
            break
    result = {
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "failures": attempts.failures,
        "timings": timings.result(),
    }
    peak = getattr(workload, "peak_rss_kb", None)
    if peak is not None:
        result["child_peak_rss_kb"] = peak
    return result


def startup_ms(env: dict) -> float:
    """Median wall time of a subprocess that only imports qstatic.cli."""
    samples = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        code, _ = run_child(
            [sys.executable, "-c", "import qstatic.cli"],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
        )
        samples.append((time.perf_counter() - start) * 1e3)
        if code != 0:
            raise RuntimeError("importing qstatic.cli failed in a subprocess")
    return statistics.median(samples)


def traced_phase(workload, seconds: float, spans_path: Path) -> dict:
    """Pair an untraced and a traced pass over the first pass of ops, until
    ``seconds`` have gone by; pairs alternate which of the two runs first.

    Counts come from the first traced pass and must repeat exactly in every
    later one; self times are medians over traced passes. Spans of the first
    traced pass are written to ``spans_path``.
    """
    run = getattr(workload, "run_inline", workload.run)
    attempts = Attempts(workload)
    tracer = Tracer()
    plain_rates, traced_rates, self_ms = [], [], {label: [] for label in LABELS}
    counts = rounds = None
    repeat_errors = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        if k % 2 == 1:
            plain = attempts.one_pass(run)
        tracer.reset()
        tracer.record = k == 0
        tracer.install()
        try:
            traced = attempts.one_pass(run, tracer)
        finally:
            tracer.uninstall()
        if k % 2 == 0:
            plain = attempts.one_pass(run)
        plain_rates.append(len(plain) / sum(plain))
        traced_rates.append(len(traced) / sum(traced))
        for label in LABELS:
            self_ms[label].append(tracer.self_s[label] * 1e3)
        if counts is None:
            counts, rounds = dict(tracer.calls), tracer.rounds
        elif (dict(tracer.calls), tracer.rounds) != (counts, rounds):
            changed = sorted(n for n in LABELS if tracer.calls[n] != counts[n])
            repeat_errors.append(f"traced pass {k}: call counts changed for {changed}")
        k += 1
        if time.perf_counter() >= deadline:
            break

    with open(spans_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["span", "parent", "name", "start_s", "end_s", "op"])
        writer.writerows(tracer.spans)

    metrics = {}
    for label in LABELS:
        metrics[f"{label}.calls"] = (counts[label], "count")
        metrics[f"{label}.self_ms"] = (statistics.median(self_ms[label]), "ms")
    metrics["montecarlo.simulate.rounds"] = (rounds, "count")
    metrics["cli.startup_ms"] = (startup_ms(child_env(ROOT)), "ms")
    metrics["quantum_core.DensityMatrix.calls_per_op"] = (
        counts["quantum_core.DensityMatrix"] / workload.pass_size,
        "1/op",
    )
    metrics["trace_overhead_frac"] = (
        1.0 - statistics.median(traced_rates) / statistics.median(plain_rates),
        "ratio",
    )
    return {
        "attempted": attempts.attempted,
        "failed": attempts.failed + len(repeat_errors),
        "failures": attempts.failures + [{"error": e} for e in repeat_errors],
        "traced_passes": k,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_recorded": len(tracer.spans),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def env_stamp() -> dict:
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qstatic": qstatic.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    source = Path(qstatic.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"bench: qstatic imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / "bench" / "out" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    setup_s = time.monotonic() - args.t0

    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            spans = workdir / "spans.csv"
            result.update(traced_phase(workload, args.seconds, spans))
        else:
            result.update(timed_phase(workload, args.seconds))
        result["inputs"] = workload.inputs()
        result["env"] = env_stamp()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
