import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstatic
import qstatic.cli as cli
from qstatic.cli import load_config, main
from qstatic.errors import InternalConsistencyError
from qstatic.quantum_core import (
    DensityMatrix,
    MixingChoice,
    mixed_final_density,
    payoff_operators,
    trace_payoffs,
)
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

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        doc = '{"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "é": 1}'
        path.write_bytes(doc.encode("latin-1"))
        assert main(["classical", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read config") and err.count("\n") == 1

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["classical", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: invalid JSON: nested too deeply\n"

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_amplitude_norm_is_one_error_line(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
                "initial_state": [[1e300, 0], [0, 0], [0, 0], [0, 0]],
            },
        )
        assert main(["quantum", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "initial_state: amplitudes must be normalized" in err

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

    @pytest.mark.filterwarnings("error")
    def test_std_error_finite_at_large_payoff_scale(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 1.2e154, "beta": 0.5e154, "gamma": -0.1e154},
                "initial_state": "bell",
            },
        )
        empirical = run_json(capsys, ["simulate", "--config", path])["empirical"]
        for player in "ab":
            assert 0.0 < empirical[f"std_error_{player}"] < 1e154

    def test_invalid_rounds_exit_2(self, capsys, bos_config):
        assert main(["simulate", "--config", bos_config, "--rounds", "0"]) == 2

    @pytest.mark.parametrize("rounds", [2**63, 10**20])
    def test_rounds_beyond_int64_exit_2(self, capsys, bos_config, rounds):
        assert main(["simulate", "--config", bos_config, "--rounds", str(rounds)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "rounds" in err

    def test_ten_billion_rounds_count_exactly(self, capsys, bos_config):
        argv = ["simulate", "--config", bos_config, "--rounds", str(10**10)]
        assert sum(run_json(capsys, argv)["counts"].values()) == 10**10

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

    @pytest.mark.parametrize("steps", [2, 3, 7, 101, 4001])
    def test_grid_is_linspace_bit_for_bit(self, bos_config, steps):
        args = cli.build_parser().parse_args(
            ["sweep", "--config", bos_config, "--steps", str(steps)]
        )
        rows = cli.cmd_sweep(load_config(bos_config), args)["rows"]
        assert [row["a2"] for row in rows] == np.linspace(0.0, 1.0, steps).tolist()

    def test_p_sweep_tabulates_payoff_slice(self, capsys, bos_config):
        doc = run_json(
            capsys,
            ["sweep", "--config", bos_config, "--param", "p", "--steps", "5", "--q", "1"],
        )
        assert doc["fixed"] == {"q": 1.0}
        assert [row["p"] for row in doc["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize(
        "options, name",
        [
            (["--param", "p", "--q", "1.5"], "q"),
            (["--param", "p", "--q", "-0.5"], "q"),
            (["--param", "q", "--p", "nan"], "p"),
        ],
    )
    def test_bad_fixed_mix_exit_2_naming_it(self, capsys, bos_config, options, name):
        assert main(["sweep", "--config", bos_config, "--steps", "3", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name} must lie in [0, 1]" in captured.err

    @pytest.mark.parametrize("param", ["p", "q"])
    def test_payoff_sweep_builds_no_density(self, capsys, bos_config, monkeypatch, param):
        built = []
        check = DensityMatrix.__post_init__
        monkeypatch.setattr(DensityMatrix, "__post_init__", lambda rho: built.append(check(rho)))
        argv = ["sweep", "--config", bos_config, "--param", param, "--steps", "2001"]
        assert main(argv) == 0
        capsys.readouterr()
        assert built == []

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

        monkeypatch.setattr(cli, "payoff_surfaces", forged_failure)
        assert main(["simulate", "--config", bos_config, "--rounds", "10"]) == 1
        assert "internal error" in capsys.readouterr().err


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this qstatic."""
    env = dict(os.environ, PYTHONPATH=str(Path(qstatic.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )


_RUN_MAIN = """
import contextlib, io, json, sys
from qstatic.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({
    "codes": codes,
    "numpy": "numpy" in sys.modules,
    "quantum_core": "qstatic.quantum_core" in sys.modules,
}))
"""


class TestNumpyFreeImportPath:
    """classical, quantum and sweep run on the standard library; simulate
    loads numpy for its generator only, and the density oracle loads it."""

    CONFIGS = {
        "family": {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": {"a2": 0.3}},
        "bell": {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": "bell"},
        "amplitudes": {
            "payoffs": {"alpha": 5, "beta": 4, "gamma": -2},
            "initial_state": [[0.5, 0.5], [0.0, 0.5], [0.5, 0.0], [0.0, 0.0]],
        },
        "amplitudes_in_family": {
            "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
            "initial_state": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.8]],
        },
        "bimatrix2": {"payoffs": {"payoff_a": [[3, 0], [5, 1]], "payoff_b": [[3, 5], [0, 1]]}},
        "bimatrix3": {
            "payoffs": {
                "payoff_a": [[4, 1, 0], [2, 3, 1], [0, 0, 5]],
                "payoff_b": [[1, 2, 0], [3, 0, 2], [0, 1, 4]],
            }
        },
    }
    COMMANDS = (
        ["classical"],
        ["quantum", "--mode", "entangled"],
        ["quantum", "--mode", "factorizable"],
        ["sweep", "--param", "a2"],
        ["sweep", "--param", "p", "--q", "0.3"],
        ["sweep", "--param", "q", "--p", "0.8"],
    )

    def test_classical_quantum_and_sweep_load_no_numpy(self, tmp_path):
        argvs, expected = [], []
        for name, doc in self.CONFIGS.items():
            path = write_config(tmp_path, doc, f"{name}.json")
            for command in self.COMMANDS:
                for fmt in ("table", "json", "csv"):
                    argvs.append([*command, "--config", path, "--format", fmt])
                    # The quantum and sweep commands need the parametric payoffs.
                    explicit = "payoff_a" in doc["payoffs"]
                    expected.append(2 if explicit and command[0] != "classical" else 0)
        result = json.loads(run_python(_RUN_MAIN, json.dumps(argvs)).stdout)
        assert result["codes"] == expected
        assert result["numpy"] is False

    def test_simulate_runs_and_loads_numpy(self, tmp_path):
        path = write_config(tmp_path, self.CONFIGS["amplitudes"])
        argv = ["simulate", "--config", path, "--rounds", "100", "--seed", "4"]
        result = json.loads(run_python(_RUN_MAIN, json.dumps([argv])).stdout)
        assert result == {"codes": [0], "numpy": True, "quantum_core": False}

    def test_import_qstatic_loads_no_numpy(self):
        code = (
            "import sys, qstatic\n"
            "print('numpy' in sys.modules)\n"
            "print(qstatic.DensityMatrix.__module__, 'numpy' in sys.modules)"
        )
        assert run_python(code).stdout.split() == ["False", "qstatic.quantum_core", "True"]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    phases=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
    k=st.integers(-6, 6),
)
def test_amplitude_phases_leave_quantum_equilibria_unchanged(tmp_path_factory, seed, phases, k):
    """Only squared moduli enter a payoff: multiplying each amplitude of a
    state outside the family by its own phase keeps every equilibrium."""
    rng = np.random.default_rng(seed)
    levels = (np.sort(rng.uniform(0.1, 10.0, 3))[::-1] * 10.0**k).tolist()
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)

    def equilibria(state):
        path = tmp_path_factory.mktemp("phase") / "game.json"
        doc = {
            "payoffs": dict(zip(("alpha", "beta", "gamma"), levels)),
            "initial_state": [[a.real, a.imag] for a in state.tolist()],
        }
        path.write_text(json.dumps(doc))
        args = cli.build_parser().parse_args(["quantum", "--config", str(path)])
        report = cli.cmd_quantum(load_config(str(path)), args)
        assert report["unique_solution"] is None  # outside the family
        return report["equilibria"]

    base = equilibria(amps)
    moved = equilibria(amps * np.exp(1j * np.array(phases)))
    assert [row["kind"] for row in moved] == [row["kind"] for row in base]
    scale = max(map(abs, levels))
    for got, want in zip(moved, base):
        assert abs(got["p"] - want["p"]) <= 1e-12
        assert abs(got["q"] - want["q"]) <= 1e-12
        assert abs(got["payoff_a"] - want["payoff_a"]) <= 1e-12 * scale
        assert abs(got["payoff_b"] - want["payoff_b"]) <= 1e-12 * scale


# A complex state outside the family; its density diagonal keeps an imaginary
# round-off residue of about 1e-17.
_COMPLEX_STATE = np.array([0.5 + 0.1j, 0.3 - 0.2j, 0.4 + 0.3j, 0.5 - 0.3j])
_COMPLEX_STATE /= np.linalg.norm(_COMPLEX_STATE)


@pytest.mark.parametrize("scale", [1.0, 1e9, 1e13])
def test_sweep_and_simulate_read_the_surface_at_any_scale(tmp_path, scale):
    """Sweep rows and the simulate analytic payoff agree with the density
    trace at their (p, q); the imaginary residue is judged against the
    payoff scale, so large payoffs do not read as an internal error."""
    path = write_config(
        tmp_path,
        {
            "payoffs": {"alpha": 3 * scale, "beta": 2 * scale, "gamma": 1 * scale},
            "initial_state": [[a.real, a.imag] for a in _COMPLEX_STATE],
        },
    )
    cfg = load_config(path)
    pa, pb = payoff_operators(cfg.params)
    rho_in = cfg.state.density_matrix()

    def check(p, q, pay_a, pay_b):
        oracle = trace_payoffs(pa, pb, mixed_final_density(rho_in, MixingChoice(p, q)))
        assert abs(pay_a - oracle[0]) <= 1e-12 * scale
        assert abs(pay_b - oracle[1]) <= 1e-12 * scale

    parser = cli.build_parser()
    for options in (["--param", "p", "--q", "0.3"], ["--param", "q", "--p", "0.8"]):
        args = parser.parse_args(["sweep", "--config", path, "--steps", "7", *options])
        for row in cli.cmd_sweep(cfg, args)["rows"]:
            check(row["p"], row["q"], row["payoff_a"], row["payoff_b"])
    args = parser.parse_args(["simulate", "--config", path, "--p", "0.3", "--q", "0.6"])
    analytic = cli.cmd_simulate(cfg, args)["analytic"]
    check(0.3, 0.6, analytic["payoff_a"], analytic["payoff_b"])


def _sometimes(broken, valid):
    """Draws from ``valid``, and one time in eight from ``broken``."""
    return st.integers(0, 7).flatmap(lambda k: broken if k == 7 else valid)


_ODD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400])
_JUNK = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "3", "bell", "XX"]), _ODD_NUMBERS,
    st.lists(st.integers(-2, 2), max_size=3), st.fixed_dictionaries({"x": st.just(1)}),
)
_NUMBER = _sometimes(st.one_of(_ODD_NUMBERS, _JUNK), st.floats(-5, 5))
_LEVELS = st.builds(
    lambda levels, scale: {
        key: level * scale
        for key, level in zip(("alpha", "beta", "gamma"), sorted(levels, reverse=True))
    },
    st.lists(st.integers(-9, 9), min_size=3, max_size=3, unique=True),
    st.sampled_from([1, 0.37, 1e-300, 1e-13, 1e6, 1e9, 1e13, 1e150, 1.2e154, 1e300]),
)


@st.composite
def _tables(draw, entries=st.floats(-5, 5)):
    shape = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    table = st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                     min_size=shape[0], max_size=shape[0])
    return {"payoff_a": draw(table), "payoff_b": draw(table)}


_RAGGED = st.lists(st.lists(_NUMBER, max_size=3), max_size=3)
_PAYOFFS = _sometimes(
    st.one_of(
        st.fixed_dictionaries({key: _NUMBER for key in ("alpha", "beta", "gamma")}),
        st.fixed_dictionaries({"payoff_a": _RAGGED, "payoff_b": _RAGGED}),
        _tables(_NUMBER), _JUNK,
    ),
    _sometimes(_tables(), _LEVELS),
)


@st.composite
def _amplitudes(draw, factor=st.just(1.0)):
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=8, max_size=8)))
    amps = parts[::2] + 1j * parts[1::2]
    norm = np.linalg.norm(amps)
    amps = amps / norm if norm > 1e-3 else np.array([1.0, 0, 0, 0])
    return [[float(a.real), float(a.imag)] for a in amps * draw(factor)]


_STATE = _sometimes(
    st.one_of(
        st.just("XX"), st.fixed_dictionaries({"a2": _NUMBER}), _JUNK,
        _amplitudes(st.sampled_from([1.1, 1e300])), st.lists(st.lists(_NUMBER), max_size=5),
    ),
    st.one_of(
        st.sampled_from(["OO", "OT", "TO", "TT", "bell"]),
        st.fixed_dictionaries({"a2": st.floats(0, 1)}),
        _amplitudes(), _amplitudes(),
    ),
)
_LABELS = _sometimes(
    st.one_of(_JUNK, st.fixed_dictionaries({"a": st.lists(st.sampled_from(["O", ""]))})),
    st.fixed_dictionaries({}, optional={"a": st.just(["O", "T"]), "b": st.just(["x", "y"])}),
)
_DOCUMENT = _sometimes(
    st.one_of(
        _JUNK,
        st.fixed_dictionaries({"initial_state": _STATE}),
        st.fixed_dictionaries({"payoffs": _PAYOFFS, "extra": _JUNK}),
    ),
    st.fixed_dictionaries(
        {"payoffs": _PAYOFFS, "initial_state": _STATE}, optional={"labels": _LABELS}
    ),
)
_MIX = _sometimes(st.sampled_from(["-0.5", "1.5", "nan", "inf"]), st.floats(0, 1).map(repr))


@st.composite
def _options(draw, command):
    options = ["--format", draw(st.sampled_from(["table", "json", "csv"]))]
    if command == "quantum":
        options += ["--mode", draw(st.sampled_from(["factorizable", "entangled"]))]
    if command == "simulate":
        rounds = st.one_of(st.integers(1, 40), st.integers(2**63 - 1, 2**70))
        options += ["--rounds", str(draw(_sometimes(st.integers(-1, 0), rounds)))]
        seed = _sometimes(st.sampled_from([-1, 2**64]), st.integers(0, 2**64 - 1))
        options += ["--seed", str(draw(seed))]
    if command == "sweep":
        options += ["--param", draw(st.sampled_from(["a2", "p", "q"]))]
        options += ["--steps", str(draw(_sometimes(st.integers(-1, 1), st.integers(2, 5))))]
    if command in ("simulate", "sweep"):
        options += ["--p", draw(_MIX), "--q", draw(_MIX)]
    return options


@pytest.mark.parametrize("command", ["classical", "quantum", "simulate", "sweep"])
@settings(derandomize=True, max_examples=75, deadline=None)
@given(data=st.data(), doc=_DOCUMENT)
def test_any_config_document_exits_0_or_2(tmp_path_factory, command, data, doc):
    """Well-formed or broken config documents, under every command and
    format: exit 0 with clean stderr, or exit 2 with one error line; never
    a traceback, exit 1, warning, or non-finite number in the output."""
    path = tmp_path_factory.mktemp("fuzz") / "game.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(path), *data.draw(_options(command))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not re.search(r"Infinity|NaN|\b(inf|nan)\b", out), out


def test_cli_outputs_match_golden(capsys, monkeypatch):
    """Byte-exact stdout and exit code of every case in cli_golden.json,
    written by tests/data/make_cli_golden.py."""
    golden = json.loads((DATA / "cli_golden.json").read_text())
    monkeypatch.chdir(DATA)
    for case in golden:
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], case["stdout"]), " ".join(case["argv"])
