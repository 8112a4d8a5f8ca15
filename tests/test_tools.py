"""The PR gates in ``tools/``: the mutation list matches the code it mutates,
the CLI corpus sorts each kind of move into its own class, and the pairs
tool's verdicts and commit stamps follow their documented rules."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import load_tool

ROOT = Path(__file__).resolve().parents[1]

mutants = load_tool("mutants")
cli_corpus = load_tool("cli_corpus")
bench_pairs = load_tool("bench_pairs")


class TestMutantList:
    @pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
    def test_original_text_occurs_exactly_once(self, mutant):
        # A stale mutant would replace nothing, or more than its one site.
        assert (ROOT / mutant.file).read_text().count(mutant.original) == 1

    def test_names_are_distinct_and_every_mutant_names_a_test(self):
        names = [m.name for m in mutants.MUTANTS]
        assert len(set(names)) == len(names)
        for m in mutants.MUTANTS:
            assert m.tests and all(t.startswith("tests/") for t in m.tests), m.name
            assert m.original != m.replacement, m.name


def _result(payload, stdout="text\n", exit=0, stderr=""):
    return {"exit": exit, "stdout": stdout, "stderr": stderr, "payload": payload}


def _quantum(payoffs: list[tuple[float, float, float, float]], order: list[int]) -> dict:
    """A quantum payload of corner rows (p, q, payoff_a, payoff_b) ranked in
    this order, with the gaps the order implies."""
    rows = [
        {"kind": "corner", "p": p, "q": q, "payoff_a": a, "payoff_b": b}
        for p, q, a, b in payoffs
    ]
    return cli_corpus._with_ranking({"command": "quantum", "equilibria": rows}, order)


_CLASSICAL = {
    "command": "classical",
    "equilibria": [{"p": 0.25, "payoff_a": 1000.0, "payoff_a_exact": "1000"}],
}


def _with_row(**changes) -> dict:
    return {**_CLASSICAL, "equilibria": [{**_CLASSICAL["equilibria"][0], **changes}]}


class TestCorpusClasses:
    def test_view_when_only_the_text_moved(self):
        before, after = _result(_CLASSICAL), _result(_with_row(), stdout="other text\n")
        assert cli_corpus.classify(before, after, 1000.0) == ("view", 0.0, "")

    @pytest.mark.parametrize("exact", [None, "999", "2001/2"])
    def test_exact_when_only_an_exact_field_moved(self, exact):
        before, after = _result(_CLASSICAL), _result(_with_row(payoff_a_exact=exact))
        assert cli_corpus.classify(before, after, 1000.0)[0] == "exact"

    def test_exact_when_a_float_moved_below_the_printed_digits(self):
        after = _result(_with_row(payoff_a=math.nextafter(1000.0, 2000.0)))
        assert cli_corpus.classify(_result(_CLASSICAL), after, 1000.0)[0] == "exact"

    def test_mirror_when_mirror_corners_trade_places(self):
        corners = [(1.0, 1.0, 2.0, 1.0), (0.0, 0.0, 1.0, 2.0), (1.0, 0.0, 0.5, 0.5)]
        before = _result(_quantum(corners, [0, 1, 2]))
        after = _result(_quantum(corners, [1, 0, 2]))
        assert cli_corpus.classify(before, after, 2.0) == ("mirror", 0.0, "")

    def test_round_off_when_a_printed_float_moves_within_the_bound(self):
        # 1e-8 shows at 12 digits, and is 1e-14 of a game whose largest level is 1e6.
        after = _result(_with_row(payoff_a=1000.0 + 1e-8))
        kind, gap, _ = cli_corpus.classify(_result(_CLASSICAL), after, 1e6)
        assert kind == "round-off" and 0 < gap <= cli_corpus.ROUNDOFF_BOUND

    def test_accepted_when_a_refused_input_now_runs_to_finite_numbers(self):
        before = _result(None, stdout="", exit=2, stderr="error: refused\n")
        assert cli_corpus.classify(before, _result(_CLASSICAL), 1.0)[0] == "accepted"

    @pytest.mark.parametrize(
        "before, after",
        [
            # A float beyond the round-off bound.
            (_result(_CLASSICAL), _result(_with_row(payoff_a=1000.001))),
            # A unit-scale coordinate beyond it, whatever the payoff scale.
            (_result(_CLASSICAL), _result(_with_row(p=0.25 + 1e-9))),
            # A string that is not an exact column.
            (_result(_CLASSICAL), _result({**_CLASSICAL, "command": "quantum"})),
            # Exit 0 to exit 2, and a changed error line.
            (_result(_CLASSICAL), _result(None, stdout="", exit=2, stderr="error: x\n")),
            (_result(None, "", 2, "error: x\n"), _result(None, "", 2, "error: y\n")),
            # Exit 2 to exit 0 with a non-finite number.
            (_result(None, "", 2, "error: x\n"), _result(_with_row(payoff_a=math.inf))),
            # Mirror corners traded with a payoff that also moved.
            (
                _result(_quantum([(1.0, 1.0, 2.0, 1.0), (0.0, 0.0, 1.0, 2.0)], [0, 1])),
                _result(_quantum([(1.0, 1.0, 2.0, 1.0), (0.0, 0.0, 1.5, 2.0)], [1, 0])),
            ),
        ],
    )
    def test_other_for_everything_else(self, before, after):
        assert cli_corpus.classify(before, after, 1000.0)[0] == "other"


_TIGHT = [100.0 + 0.1 * i for i in range(10)]


class TestPairsVerdict:
    def test_unresolved_when_the_parents_spread_exceeds_the_bound(self):
        before = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]
        judged = bench_pairs.judge(before, [2 * x for x in before], "higher", 0.25)
        assert judged["before"]["iqr_over_median"] > 0.25
        assert judged["verdict"] == "unresolved"

    @pytest.mark.parametrize("better, factor", [("higher", 0.7), ("lower", 1.3)])
    def test_worse_past_the_bound(self, better, factor):
        judged = bench_pairs.judge(_TIGHT, [factor * x for x in _TIGHT], better, 0.25)
        assert judged["gain"] < -0.25 and judged["verdict"] == "worse"

    @pytest.mark.parametrize("better, factor", [("higher", 0.8), ("lower", 1.2)])
    def test_within_bound_up_to_the_bound(self, better, factor):
        judged = bench_pairs.judge(_TIGHT, [factor * x for x in _TIGHT], better, 0.25)
        assert judged["wins"] == 0 and judged["verdict"] == "within bound"

    @pytest.mark.parametrize("ties, verdict", [(0, "better"), (1, "better"), (2, "within bound")])
    @pytest.mark.parametrize("better, factor", [("higher", 1.1), ("lower", 0.9)])
    def test_better_needs_nine_wins_in_ten(self, better, factor, ties, verdict):
        after = [factor * x for x in _TIGHT]
        after[:ties] = _TIGHT[:ties]  # a tie counts for neither side
        judged = bench_pairs.judge(_TIGHT, after, better, 0.25)
        assert judged["wins"] == 10 - ties
        assert judged["gain"] > judged["before"]["iqr_over_median"]
        assert judged["verdict"] == verdict

    def test_better_needs_a_gain_beyond_the_parents_spread(self):
        # Ten wins of 1 %, against a parent whose IQR is 9 % of its median.
        before = [90.0 + 2 * i for i in range(10)]
        judged = bench_pairs.judge(before, [1.01 * x for x in before], "higher", 0.25)
        assert judged["wins"] == 10
        assert judged["gain"] < judged["before"]["iqr_over_median"]
        assert judged["verdict"] == "within bound"


def _git(*args: str, cwd: Path) -> str:
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    proc = subprocess.run(["git", *identity, *args], cwd=cwd, check=True,
                          capture_output=True, text=True)
    return proc.stdout.strip()


class TestPairsCommitStamp:
    def test_reads_a_clone_and_a_worktree_and_nothing_else(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "sub").mkdir(parents=True)
        (repo / "sub" / "file").write_text("x\n")
        _git("init", "-q", cwd=repo)
        _git("add", "-A", cwd=repo)
        _git("commit", "-q", "-m", "one", cwd=repo)
        head = _git("rev-parse", "HEAD", cwd=repo)
        _git("worktree", "add", "-q", "--detach", str(tmp_path / "tree"), cwd=repo)
        assert bench_pairs.commit_of(repo) == head
        # In a worktree .git is a file that points back to the repository.
        assert (tmp_path / "tree" / ".git").is_file()
        assert bench_pairs.commit_of(tmp_path / "tree") == head
        # A directory inside a checkout is not that checkout.
        assert bench_pairs.commit_of(repo / "sub") is None
        (tmp_path / "copy").mkdir()
        assert bench_pairs.commit_of(tmp_path / "copy") is None


#: A stand-in for the benchmark command: one result line naming its workload.
_FAKE_BENCH = """\
import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
print(json.dumps({"workload": workload, "metrics": {"ops_per_s": {"value": 1.0}},
                  "failed": 0, "attempted": 1}))
"""


class TestPairsWorkloadFilter:
    @pytest.fixture
    def spec_dir(self, tmp_path, monkeypatch):
        (tmp_path / "fake.py").write_text(_FAKE_BENCH)
        spec = {
            "command": [sys.executable, str(tmp_path / "fake.py")],
            "run_seconds": 1,
            "workloads": [{"name": name} for name in ("first", "second", "third")],
            "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}],
        }
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def _run(self, spec_dir, *extra):
        out = spec_dir / "out.json"
        code = bench_pairs.main(["--before", str(spec_dir), "--after", str(spec_dir),
                                 "--out", str(out), "--pairs", "2", *extra])
        record = json.loads(out.read_text())
        runs = {name: [pair[side]["workload"] for pair in w["runs"] for side in bench_pairs.SIDES]
                for name, w in record["workloads"].items()}
        return code, runs

    def test_every_workload_runs_by_default(self, spec_dir):
        code, runs = self._run(spec_dir)
        assert code == 0
        assert runs == {name: [name] * 4 for name in ("first", "second", "third")}

    def test_named_workloads_run_in_the_files_order(self, spec_dir):
        code, runs = self._run(spec_dir, "--workload", "third", "--workload", "first")
        assert code == 0
        assert list(runs) == ["first", "third"]
        assert runs == {"first": ["first"] * 4, "third": ["third"] * 4}

    def test_an_unknown_workload_is_refused(self, spec_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(["--before", ".", "--after", ".", "--out", "out.json",
                              "--workload", "fourth"])
        assert exit_info.value.code == 2
        assert "unknown workload fourth; BENCHMARK.json lists first, second, third" in (
            capsys.readouterr().err
        )
        assert not (spec_dir / "out.json").exists()

    @pytest.mark.parametrize("pairs", ["1", "0", "-3"])
    def test_fewer_than_two_pairs_are_refused_before_any_run(self, spec_dir, capsys, pairs):
        # The stand-in benchmark leaves a mark in its checkout when it starts.
        (spec_dir / "fake.py").write_text("open('started', 'w').close()\n" + _FAKE_BENCH)
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(["--before", ".", "--after", ".", "--out", "out.json",
                              "--pairs", pairs])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"--pairs must be at least 2, got {pairs}" in captured.err
        assert captured.out == ""
        assert not (spec_dir / "started").exists()
        assert not (spec_dir / "out.json").exists()
