import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import qstatic.cli as cli
from qstatic.cli import load_config, main
from qstatic.errors import InternalConsistencyError
from qstatic.report_schema import REPORT_SCHEMA

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def bos_config(tmp_path):
    path = tmp_path / "bos.json"
    path.write_text(
        json.dumps(
            {
                "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
                "initial_state": "bell",
            }
        )
    )
    return str(path)


def write_config(tmp_path, doc, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    return doc


def run_csv(capsys, argv):
    code = main(argv + ["--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    return [line.split(",") for line in out.strip().splitlines()]


class TestConfigLoading:
    def test_missing_file_exits_2(self, capsys):
        assert main(["classical", "--config", "/nonexistent.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_anchored_to_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "payoffs": {\n')
        assert main(["classical", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3" in err

    def test_degenerate_payoffs_exit_2_names_constraint(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"payoffs": {"alpha": 2, "beta": 2, "gamma": 1}}
        )
        assert main(["classical", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "alpha > beta > gamma" in err
        assert "payoffs" in err

    def test_both_payoff_forms_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1, "payoff_a": [[1]]}},
        )
        assert main(["classical", "--config", path]) == 2

    def test_unknown_preset_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": "XX"},
        )
        assert main(["quantum", "--config", path]) == 2

    def test_amplitudes_too_far_from_normalized(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
                "initial_state": [[0.7072, 0], [0, 0], [0, 0], [0.707, 0]],
            },
        )
        assert main(["quantum", "--config", path]) == 2
        assert "normalized" in capsys.readouterr().err

    def test_slightly_denormalized_amplitudes_accepted(self, tmp_path):
        r = 1 / np.sqrt(2) + 1e-10
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
                "initial_state": [[r, 0], [0, 0], [0, 0], [r, 0]],
            },
        )
        cfg = load_config(path)
        assert np.sum(np.abs(cfg.state.amplitudes) ** 2) == pytest.approx(
            1.0, abs=1e-12
        )
        assert cfg.family is not None
        assert cfg.family.a2 == pytest.approx(0.5, abs=1e-9)

    def test_family_form(self, tmp_path):
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": {"a2": 0.8}},
        )
        cfg = load_config(path)
        assert cfg.family.a2 == 0.8

    @pytest.mark.parametrize("command", ["classical", "quantum"])
    def test_nan_amplitude_names_its_field(self, tmp_path, capsys, command):
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
                "initial_state": [[float("nan"), 0], [0, 0], [0, 0], [0, 0]],
            },
        )
        assert main([command, "--config", path]) == 2
        assert "initial_state[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [float("inf"), 10**400])
    def test_non_finite_payoff_names_its_field(self, tmp_path, capsys, alpha):
        path = write_config(tmp_path, {"payoffs": {"alpha": alpha, "beta": 2, "gamma": 1}})
        assert main(["classical", "--config", path]) == 2
        assert "payoffs.alpha: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classical", "quantum", "simulate", "sweep"])
    @pytest.mark.parametrize(
        "payoffs",
        [
            {"alpha": 9.76e299, "beta": 7.00e299, "gamma": -6.64e299},
            {"alpha": 1e308, "beta": -1e308, "gamma": -1.7e308},
        ],
    )
    def test_overflowing_payoff_scale_names_payoffs(
        self, tmp_path, capsys, payoffs, command
    ):
        path = write_config(tmp_path, {"payoffs": payoffs, "initial_state": "bell"})
        assert main([command, "--config", path, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert f"{path}: payoffs: payoff scale too large" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "payoff_a, field",
        [
            ([[1, 2], [3]], "payoffs.payoff_a"),
            ([[1, True], [3, 4]], "payoffs.payoff_a[0][1]"),
            ([[1, 2], ["3", 4]], "payoffs.payoff_a[1][0]"),
        ],
    )
    def test_bimatrix_entries_validated_per_entry(
        self, tmp_path, capsys, payoff_a, field
    ):
        path = write_config(
            tmp_path,
            {"payoffs": {"payoff_a": payoff_a, "payoff_b": [[1, 2], [3, 4]]}},
        )
        assert main(["classical", "--config", path]) == 2
        assert f"{field}:" in capsys.readouterr().err

    def test_bad_labels_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
                "labels": {"a": ["O", "O"]},
            },
        )
        assert main(["classical", "--config", path]) == 2


class TestClassicalCommand:
    def test_json_report(self, capsys, bos_config):
        doc = run_json(capsys, ["classical", "--config", bos_config])
        assert doc["schema"] == 1
        assert doc["elimination"]["steps"] == []
        pure = {(row["label_a"], row["label_b"]) for row in doc["pure_equilibria"]}
        assert pure == {("O", "O"), ("T", "T")}
        mixed = doc["mixed_equilibria"]
        assert [row["kind"] for row in mixed] == ["corner", "corner", "interior"]
        assert mixed[2]["p"] == pytest.approx(2 / 3, abs=1e-12)
        assert mixed[2]["q"] == pytest.approx(1 / 3, abs=1e-12)
        assert mixed[2]["payoff_a"] == pytest.approx(5 / 3, abs=1e-11)
        assert mixed[2]["p_exact"] == "2/3"
        assert mixed[2]["payoff_a_exact"] == "5/3"

    def test_table_shows_fractions(self, capsys, bos_config):
        assert main(["classical", "--config", bos_config]) == 0
        out = capsys.readouterr().out
        assert "2/3" in out and "5/3" in out

    def test_dominant_strategy_bimatrix_has_elimination_trace(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "payoffs": {
                    "payoff_a": [[3, 0], [5, 1]],
                    "payoff_b": [[3, 5], [0, 1]],
                }
            },
        )
        doc = run_json(capsys, ["classical", "--config", path])
        assert len(doc["elimination"]["steps"]) == 2
        assert doc["elimination"]["survivors_a"] == [1]
        assert doc["elimination"]["survivors_b"] == [1]

    def test_bimatrix_mixed_equilibria_via_enumeration(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "payoffs": {
                    "payoff_a": [[1, -1], [-1, 1]],
                    "payoff_b": [[-1, 1], [1, -1]],
                }
            },
        )
        doc = run_json(capsys, ["classical", "--config", path])
        assert doc["pure_equilibria"] == []
        assert len(doc["mixed_equilibria"]) == 1
        row = doc["mixed_equilibria"][0]
        assert (row["p"], row["q"]) == (0.5, 0.5)
        assert any("enumeration" in notice for notice in doc["notices"])

    def test_large_common_offset_keeps_mixed_equilibria(self, tmp_path, capsys):
        big = 10**13
        path = write_config(
            tmp_path,
            {
                "payoffs": {
                    "payoff_a": [[big + 3, big], [big, big + 2]],
                    "payoff_b": [[big + 2, big], [big, big + 3]],
                }
            },
        )
        doc = run_json(capsys, ["classical", "--config", path])
        assert [(e["row"], e["col"]) for e in doc["pure_equilibria"]] == [(0, 0), (1, 1)]
        assert [(r["kind"], r["p"], r["q"]) for r in doc["mixed_equilibria"]] == [
            ("corner", 1.0, 1.0),
            ("corner", 0.0, 0.0),
            ("interior", 0.6, 0.4),
        ]

    def test_larger_bimatrix_skips_mixed_enumeration(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "payoffs": {
                    "payoff_a": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "payoff_b": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                }
            },
        )
        doc = run_json(capsys, ["classical", "--config", path])
        assert doc["mixed_equilibria"] == []
        assert len(doc["pure_equilibria"]) == 3


class TestQuantumCommand:
    def test_bell_reports_unique_solution(self, capsys, bos_config):
        doc = run_json(capsys, ["quantum", "--config", bos_config])
        unique = doc["unique_solution"]
        assert unique["merged"] is True
        assert unique["payoff_a"] == 2.5
        assert unique["payoff_b"] == 2.5
        amps = np.array([complex(re, im) for re, im in unique["final_state"]])
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert abs(np.vdot(bell, amps)) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_a2_08_reports_conflict(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": {"a2": 0.8}},
        )
        doc = run_json(capsys, ["quantum", "--config", path])
        assert len(doc["equilibria"]) == 3
        unique = doc["unique_solution"]
        assert unique["merged"] is False
        assert unique["preferred_by_a"] == {"p": 1.0, "q": 1.0}
        assert unique["preferred_by_b"] == {"p": 0.0, "q": 0.0}
        ranked_last = doc["ranking"]["order"][-1]
        assert doc["equilibria"][ranked_last]["kind"] == "interior"

    def test_factorizable_payoffs_match_classical(self, capsys, bos_config):
        classical = run_json(capsys, ["classical", "--config", bos_config])
        quantum = run_json(
            capsys, ["quantum", "--config", bos_config, "--mode", "factorizable"]
        )
        for c_row, q_row in zip(
            classical["mixed_equilibria"], quantum["equilibria"]
        ):
            for key in ("p", "q", "payoff_a", "payoff_b"):
                assert abs(c_row[key] - q_row[key]) <= 1e-12
        assert quantum["unique_solution"] is None
        states = [row["final_state"] for row in quantum["equilibria"]]
        assert states[0][0] == [1.0, 0.0]
        assert states[1][3] == [1.0, 0.0]

    def test_state_outside_family_uses_generic_enumeration(self, tmp_path, capsys):
        r = 1 / np.sqrt(2)
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
                "initial_state": [[r, 0], [r, 0], [0, 0], [0, 0]],
            },
        )
        doc = run_json(capsys, ["quantum", "--config", path])
        assert any("generic" in notice for notice in doc["notices"])
        assert doc["unique_solution"] is None
        assert len(doc["equilibria"]) == 1
        row = doc["equilibria"][0]
        assert row["kind"] == "degenerate-family"
        assert (row["p"], row["q"]) == (1.0, 0.5)
        assert row["payoff_a"] == pytest.approx(2.0, abs=1e-9)
        assert row["payoff_b"] == pytest.approx(1.5, abs=1e-9)

    def test_ot_preset_mirrors_equilibria(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": "OT"},
        )
        doc = run_json(capsys, ["quantum", "--config", path])
        coords = {(row["p"], row["q"]) for row in doc["equilibria"]}
        assert (1.0, 0.0) in coords and (0.0, 1.0) in coords

    def test_tied_corners_without_merge_report_indifference(self, tmp_path, capsys):
        # Corner payoffs tie exactly in floating point, but the final
        # densities differ, so the corners do not merge.
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 3, "beta": 2.9999999999999996, "gamma": 1},
                "initial_state": {"a2": 0.3},
            },
        )
        doc = run_json(capsys, ["quantum", "--config", path])
        unique = doc["unique_solution"]
        assert unique["merged"] is False
        assert unique["preferred_by_a"] is None and unique["preferred_by_b"] is None
        assert len(run_csv(capsys, ["quantum", "--config", path])) == 4
        assert main(["quantum", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "no unique solution: A is indifferent, B is indifferent;" in out

    def test_bimatrix_payoffs_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"payoffs": {"payoff_a": [[1, 0], [0, 1]], "payoff_b": [[1, 0], [0, 1]]}},
        )
        assert main(["quantum", "--config", path]) == 2
        assert "alpha, beta, gamma" in capsys.readouterr().err


class TestSimulateCommand:
    def test_deterministic_distribution_exact(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": "OO"},
        )
        doc = run_json(
            capsys,
            [
                "simulate", "--config", path,
                "--rounds", "10", "--seed", "1", "--p", "1", "--q", "1",
            ],
        )
        assert doc["counts"] == {"OO": 10, "OT": 0, "TO": 0, "TT": 0}
        assert doc["empirical"]["mean_payoff_a"] == 3.0
        assert doc["empirical"]["mean_payoff_b"] == 2.0
        assert doc["analytic"] == {"payoff_a": 3.0, "payoff_b": 2.0}

    def test_same_seed_bitwise_identical_output(self, capsys, bos_config):
        argv = [
            "simulate", "--config", bos_config,
            "--rounds", "5000", "--seed", "42", "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bell_at_half_mixing_matches_analytic(self, capsys, bos_config):
        doc = run_json(
            capsys,
            [
                "simulate", "--config", bos_config,
                "--rounds", "100000", "--seed", "7", "--p", "0.5", "--q", "0.5",
            ],
        )
        assert doc["analytic"]["payoff_a"] == 1.75
        gap = abs(doc["empirical"]["mean_payoff_a"] - 1.75)
        assert gap <= 4 * doc["empirical"]["std_error_a"]

    def test_invalid_rounds_exit_2(self, capsys, bos_config):
        assert main(["simulate", "--config", bos_config, "--rounds", "0"]) == 2

    def test_invalid_probability_exit_2(self, capsys, bos_config):
        assert main(["simulate", "--config", bos_config, "--p", "1.5"]) == 2


class TestSweepCommand:
    def test_a2_sweep_balanced_row(self, capsys, bos_config):
        doc = run_json(capsys, ["sweep", "--config", bos_config, "--steps", "11"])
        assert doc["parameter"] == "a2"
        assert len(doc["rows"]) == 11
        middle = doc["rows"][5]
        assert middle["a2"] == 0.5
        assert middle["corner_11_payoff_a"] == 2.5
        assert middle["corner_11_payoff_b"] == 2.5
        assert middle["corner_00_payoff_a"] == 2.5

    def test_a2_sweep_endpoints(self, capsys, bos_config):
        doc = run_json(capsys, ["sweep", "--config", bos_config, "--steps", "11"])
        first, last = doc["rows"][0], doc["rows"][-1]
        assert (first["corner_11_payoff_a"], first["corner_11_payoff_b"]) == (2.0, 3.0)
        assert (last["corner_11_payoff_a"], last["corner_11_payoff_b"]) == (3.0, 2.0)

    def test_corner_payoffs_monotone_in_a2(self, capsys, bos_config):
        doc = run_json(capsys, ["sweep", "--config", bos_config, "--steps", "21"])
        values = [row["corner_11_payoff_a"] for row in doc["rows"]]
        assert all(earlier < later for earlier, later in zip(values, values[1:]))

    def test_two_steps_two_rows(self, capsys, bos_config):
        rows = run_csv(capsys, ["sweep", "--config", bos_config, "--steps", "2"])
        assert len(rows) == 3  # header + 2 data rows

    def test_p_sweep_tabulates_payoff_slice(self, capsys, bos_config):
        doc = run_json(
            capsys,
            ["sweep", "--config", bos_config, "--param", "p", "--steps", "5", "--q", "1"],
        )
        assert doc["fixed"] == {"q": 1.0}
        assert [row["p"] for row in doc["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_steps_below_two_exit_2(self, capsys, bos_config):
        assert main(["sweep", "--config", bos_config, "--steps", "1"]) == 2

    def test_unknown_parameter_rejected_by_parser(self, bos_config):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", bos_config, "--param", "zz"])
        assert excinfo.value.code == 2


class TestOutputFormats:
    def test_csv_constant_column_count(self, capsys, bos_config):
        for argv in (
            ["classical", "--config", bos_config],
            ["quantum", "--config", bos_config],
            ["simulate", "--config", bos_config, "--rounds", "10", "--seed", "1"],
            ["sweep", "--config", bos_config, "--steps", "4"],
        ):
            rows = run_csv(capsys, argv)
            widths = {len(row) for row in rows}
            assert len(widths) == 1

    def test_all_commands_emit_schema_valid_json(self, capsys, bos_config):
        for argv in (
            ["classical", "--config", bos_config],
            ["quantum", "--config", bos_config],
            ["quantum", "--config", bos_config, "--mode", "factorizable"],
            ["simulate", "--config", bos_config, "--rounds", "10", "--seed", "1"],
            ["sweep", "--config", bos_config, "--steps", "3"],
            ["sweep", "--config", bos_config, "--param", "q", "--steps", "3"],
        ):
            run_json(capsys, argv)

    def test_json_numbers_rounded_to_twelve_significant_digits(
        self, capsys, bos_config
    ):
        code = main(["classical", "--config", bos_config, "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.666666666667" in out


class TestExitCodes:
    def test_success_is_zero(self, bos_config, capsys):
        assert main(["classical", "--config", bos_config]) == 0
        capsys.readouterr()

    def test_validation_failure_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"payoffs": {"alpha": 1, "beta": 2, "gamma": 3}})
        assert main(["classical", "--config", path]) == 2
        capsys.readouterr()

    def test_internal_consistency_failure_is_one(
        self, bos_config, capsys, monkeypatch
    ):
        def forged_failure(*args, **kwargs):
            raise InternalConsistencyError("forged imaginary residue")

        monkeypatch.setattr(cli, "trace_payoffs", forged_failure)
        assert main(["simulate", "--config", bos_config, "--rounds", "10"]) == 1
        assert "internal error" in capsys.readouterr().err


def test_cli_outputs_match_golden(capsys, monkeypatch):
    """Byte-exact stdout and exit code of every case in cli_golden.json,
    written by tests/data/make_cli_golden.py."""
    golden = json.loads((DATA / "cli_golden.json").read_text())
    monkeypatch.chdir(DATA)
    for case in golden:
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], case["stdout"]), " ".join(case["argv"])
