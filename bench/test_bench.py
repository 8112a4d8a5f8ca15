"""Self-tests of the benchmark: its checkers, its traced counts and its output.

    python3 -m pytest -q bench/test_bench.py

Not part of the repository's test suite (pytest's testpaths is ``tests``);
these run the benchmark itself and take about a minute.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import LABELS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


# -- checkers: a perturbed payoff, state or output counts as a failure --------


def test_grid_routes_checker(tmp_path):
    wl = workloads.GridRoutes(5, tmp_path)
    i = 3 * wl.side + 7
    classical, vector, density = wl.run(i)
    assert wl.check(i, (classical, vector, density)) is None
    bumped = (classical[0] + 1e-9, classical[1])
    assert wl.check(i, (bumped, vector, density)) is not None
    wl.psi = workloads.qc.StateVector.basis("OT")  # wrong initial state
    assert wl.check(i, wl.run(i)) is not None


@pytest.mark.parametrize("i", [0, 1, 2])  # family, pure and Ginibre draws
def test_equilibrium_draws_checker(tmp_path, i):
    wl = workloads.EquilibriumDraws(5, tmp_path)
    closed, surfaces, points, ranking, verdict = wl.run(i)
    assert wl.check(i, (closed, surfaces, points, ranking, verdict)) is None

    moved = tuple(dataclasses.replace(p, payoff_a=p.payoff_a + 1e-6) for p in points)
    ranked = workloads.eq.rank_equilibria(moved)
    assert wl.check(i, (closed, surfaces, moved, ranked, verdict)) is not None

    kind, game, state, diagonal = wl.draws[i]
    other = wl.draws[i + len(workloads.KIND_CYCLE)]  # same kind, another state
    wl.draws[i] = (kind, game, other[2], other[3])
    perturbed_out = wl.run(i)
    wl.draws[i] = (kind, game, state, diagonal)
    assert wl.check(i, perturbed_out) is not None
    if closed is not None:
        shifted = closed[:2] + (dataclasses.replace(closed[2], p_star=closed[2].p_star + 1e-6),)
        assert wl.check(i, (shifted, surfaces, points, ranking, verdict)) is not None


def find(wl, command: str, fmt: str, config: str | None = None, option: str | None = None) -> int:
    for i, inv in enumerate(wl.script):
        if (
            (inv.command, inv.format) == (command, fmt)
            and config in (None, inv.config)
            and (option is None or option in inv.argv)
        ):
            return i
    raise LookupError((command, fmt, config, option))


def recheck(wl, i: int, text: str, code: int = 0) -> str | None:
    wl.first_output.clear()
    return wl.check(i, (code, text.encode(), b""))


def test_cli_session_checker(tmp_path):
    wl = workloads.CliSession(5, tmp_path)

    i = find(wl, "classical", "json", config="family")
    code, out, _ = wl.run_inline(i)
    assert wl.check(i, (code, out, b"")) is None
    assert wl.check(i, (0, out + b" ", b"")) is not None  # differs from the earlier run
    assert recheck(wl, i, out.decode(), code=1) is not None
    doc = json.loads(out)
    doc["mixed_equilibria"][2]["p"] += 1e-3
    assert recheck(wl, i, json.dumps(doc)) is not None
    doc["schema"] = "one"
    assert recheck(wl, i, json.dumps(doc)) is not None

    i = find(wl, "quantum", "csv", config="amplitudes")
    _, out, _ = wl.run_inline(i)
    assert recheck(wl, i, out.decode()) is None
    assert recheck(wl, i, out.decode().rstrip("\n") + ",extra\n") is not None

    i = find(wl, "simulate", "csv", option=str(workloads.SIM_SMALL))
    _, out, _ = wl.run_inline(i)
    assert recheck(wl, i, out.decode()) is None
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    rows[0]["mean_payoff_a"] = repr(float(rows[0]["mean_payoff_a"]) + 5 * float(rows[0]["std_error_a"]))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert recheck(wl, i, buffer.getvalue()) is not None

    i = find(wl, "sweep", "json", option="p")
    _, out, _ = wl.run_inline(i)
    assert recheck(wl, i, out.decode()) is None
    doc = json.loads(out)
    doc["rows"].pop()
    assert recheck(wl, i, json.dumps(doc)) is not None


# -- the benchmark end to end ----------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_and_names(workload):
    first, second = (last_json(run_bench(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for label in LABELS:
        assert first["metrics"][f"{label}.calls"] == second["metrics"][f"{label}.calls"], label
    rounds = "montecarlo.simulate.rounds"
    assert first["metrics"][rounds] == second["metrics"][rounds]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(first["metrics"])
    assert all(NAME.fullmatch(name) for name in names)


def test_plain_run_reports_every_end_to_end_metric():
    proc = run_bench("grid_routes", trace=0)
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert f"{metric['name']} " in proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "error_rate 0.0 ratio (0 of" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("grid_routes", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
