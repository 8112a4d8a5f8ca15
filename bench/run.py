"""Run one seeded qstatic workload and print its metrics.

    python3 bench/run.py --workload grid_routes --seed 1 --seconds 20 --trace 0

Run from the root of a qstatic checkout. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a separate traced run. Earlier lines repeat
every metric by name and unit, with the seed, input sizes, error rate,
failing inputs and an environment stamp. The full result is also written to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import child_env, run_child

WORKLOADS = ("grid_routes", "equilibrium_draws", "cli_session")
#: Set-ups per run; setup_s is their median.
SETUPS = 5


class BenchError(Exception):
    pass


def spawn_worker(root: Path, bench: Path, args: argparse.Namespace, setup_only: bool) -> tuple[dict, int]:
    """Run one worker process; return its result and its peak RSS in KiB."""
    result_path = bench / "out" / f"{args.workload}-seed{args.seed}-worker.json"
    result_path.unlink(missing_ok=True)
    argv = [
        sys.executable,
        str(bench / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--result={result_path}",
    ]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    code, usage = run_child(
        argv + [f"--t0={t0!r}"],
        cwd=root,
        env=child_env(root),
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr,
    )
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return json.loads(result_path.read_text()), usage.ru_maxrss


def end_to_end(result: dict, setups: list[float], worker_rss_kb: int) -> dict:
    timing = result["timings"]
    peak_kb = result.get("child_peak_rss_kb", worker_rss_kb)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (timing["ops_per_s"], "1/s"),
        "op_p50_ms": (timing["op_p50_ms"], "ms"),
        "op_tail_ms": (timing["op_tail_ms"], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    if not (root / "src" / "qstatic" / "__init__.py").is_file():
        print("bench: src/qstatic not found; run from the root of a qstatic checkout", file=sys.stderr)
        return 2
    # Byte-compile once so every set-up measures imports, not compilation.
    if not (compileall.compile_dir(root / "src", quiet=1) and compileall.compile_dir(bench, quiet=1)):
        print("bench: src does not compile", file=sys.stderr)
        return 2
    (bench / "out").mkdir(exist_ok=True)

    try:
        setups = [spawn_worker(root, bench, args, True)[0]["setup_s"] for _ in range(SETUPS - 1)]
        result, worker_rss_kb = spawn_worker(root, bench, args, False)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    else:
        metrics = end_to_end(result, setups, worker_rss_kb)

    out_file = bench / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    shown = {k: v for k, v in result["inputs"].items() if k not in ("corpus", "script")}
    print("inputs " + json.dumps(shown) + f" (in full in {out_file.relative_to(root)})")
    print("env " + json.dumps(result["env"]))
    print(f"setups {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups) + " s")
    if not args.trace:
        timing = result["timings"]
        print(
            f"timings from {timing['rule']} of {timing['pass_size']} ops; op_tail_ms is "
            f"p{timing['tail_percentile']:.4g}, the latency with 10 of a pass's "
            f"{timing['pass_size']} samples beyond it"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {failed / attempted!r} ratio ({failed} of {attempted} ops failed)")
    for failure in result["failures"]:
        print("failed " + json.dumps(failure))

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, setups_s=setups)
    record["summary"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["error_rate"] = failed / attempted
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
