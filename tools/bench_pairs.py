"""Run the benchmark in two checkouts in alternating pairs and judge every
end-to-end metric against its bound.

Usage, from the root of a checkout:

    python tools/bench_pairs.py --before OLD_CHECKOUT --after NEW_CHECKOUT \
        --out BENCH_<n>.json [--pairs 10] [--seed 1] [--workload NAME ...]

The workloads, the benchmark command, its run length and each end-to-end
metric's direction and bound come from ``BENCHMARK.json`` in the current
directory. ``--workload``, which may be repeated, runs only the workloads it
names, in that file's order; by default every workload runs. For every
workload, pair i runs the command with
``--seed SEED+i --seconds RUN_SECONDS --trace 0`` once in each checkout, one
after the other; the parent (``--before``) goes first in even pairs and the
change (``--after``) in odd ones. Runs never overlap.

For each workload and metric the tool prints each side's median and
quartiles, how many pairs the change won (strictly better than the parent
run of the same pair), and a verdict:

- ``unresolved``: the parent's IQR over its median exceeds the bound, so its
  own spread hides a move of that size;
- ``worse``: the median moved the wrong way by more than the bound;
- ``better``: the median moved the right way by more than the parent's IQR,
  and the change won at least nine pairs in ten;
- ``within bound``: anything else.

It also prints each side's failed and attempted ops. ``--out`` receives every
run's metrics, the figures above and an environment stamp: this host, each
checkout's commit as ``git -C CHECKOUT rev-parse HEAD`` reads it (null
unless the checkout is the top of a git work tree; a ``git worktree``
checkout works), and the stamp
that the benchmark printed in each checkout.
The exit code is 1 when a run fails or a verdict is ``worse``, and 0
otherwise. The standard library is all it needs besides the two checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("before", "after")


def run_once(command: list[str], checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run: its result line, plus the environment stamp it printed."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    result["env"] = env[0] if env else None
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else float("inf")}


def judge(before: list[float], after: list[float], better: str, bound: float) -> dict:
    """Both sides' spread, the change's wins and the verdict for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    old, new = spread(before), spread(after)
    gain = sign * (new["median"] - old["median"]) / old["median"] if old["median"] else 0.0
    wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
    if old["iqr_over_median"] > bound:
        verdict = "unresolved"
    elif gain < -bound:
        verdict = "worse"
    elif gain > old["iqr_over_median"] and 10 * wins >= 9 * len(before):
        verdict = "better"
    else:
        verdict = "within bound"
    return {"before": old, "after": new, "gain": gain, "wins": wins, "pairs": len(before),
            "bound": bound, "verdict": verdict}


def commit_of(checkout: Path) -> str | None:
    """The commit checked out in ``checkout``, or None when ``checkout`` is
    not the top of a git checkout (an archive copy inside another checkout
    must not take that checkout's commit)."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        return None
    return lines[1]


def host_stamp() -> dict:
    cpu = ""
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").open()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def describe(name: str, j: dict) -> str:
    old, new = j["before"], j["after"]
    return (
        f"  {name:12s} {old['median']:.5g} [{old['q1']:.5g}, {old['q3']:.5g}] -> "
        f"{new['median']:.5g} [{new['q1']:.5g}, {new['q3']:.5g}]  {j['gain']:+.1%}  "
        f"{j['wins']}/{j['pairs']}  {j['verdict']} "
        f"(parent IQR/median {old['iqr_over_median']:.3f}, bound {j['bound']})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="parent checkout")
    parser.add_argument("--after", type=Path, required=True, help="changed checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload, at least 2")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable; default: every workload)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        # The quartiles of the verdict need two runs on each side.
        parser.error(f"--pairs must be at least 2, got {args.pairs}")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(workloads))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json lists "
                     f"{', '.join(workloads)}")
    if args.workload:
        workloads = [name for name in workloads if name in args.workload]
    seconds = spec["run_seconds"]
    checkouts = {"before": args.before.resolve(), "after": args.after.resolve()}
    record = {"command": spec["command"], "pairs": args.pairs, "seconds": seconds,
              "seeds": [args.seed + i for i in range(args.pairs)], "host": host_stamp(),
              "commits": {side: commit_of(path) for side, path in checkouts.items()},
              "checkouts": {}, "workloads": {}}
    worse = False
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                try:
                    pair[side] = run_once(spec["command"], checkouts[side], workload, seed,
                                          seconds)
                except RuntimeError as exc:
                    print(f"bench_pairs: {exc}", file=sys.stderr)
                    return 1
                record["checkouts"].setdefault(side, pair[side].pop("env"))
            runs.append(pair)
            rates = "  ".join(f"{side} {pair[side]['metrics']['ops_per_s']['value']:.4g} ops/s"
                              for side in SIDES)
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: {rates}", flush=True)
        judged = {}
        print(f"\n{workload}: median [q1, q3] parent -> change, gain, wins, verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before, after = ([r[side]["metrics"][name]["value"] for r in runs] for side in SIDES)
            judged[name] = judge(before, after, metric["better"], metric["bound"])
            worse |= judged[name]["verdict"] == "worse"
            print(describe(name, judged[name]))
        failed = {side: (sum(run[side]["failed"] for run in runs),
                         sum(run[side]["attempted"] for run in runs)) for side in SIDES}
        print("  failed ops:", ", ".join(f"{side} {f} of {a}" for side, (f, a) in failed.items()))
        print()
        record["workloads"][workload] = {"metrics": judged, "failed": failed, "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
