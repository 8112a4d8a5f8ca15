import contextlib
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import load_tool

import qstatic
import qstatic.cli as cli
from qstatic.cli import load_config, main
from qstatic.equilibria import (
    EntangledFamilyState,
    EquilibriumKind,
    NashPoint,
    entangled_equilibria,
)
from qstatic.errors import InternalConsistencyError
from qstatic.game_core import GamePayoffs, MixProbabilities, bos_bimatrix
from qstatic.outcomes import StateVector
from qstatic.quantum_core import (
    DensityMatrix,
    mixed_final_density,
    payoff_operators,
    trace_payoffs,
)
from qstatic.report_schema import REPORT_SCHEMA

DATA = Path(__file__).resolve().parent / "data"
#: Checks the schema once, where ``jsonschema.validate`` checks it on every call.
REPORT_VALIDATOR = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


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


#: Every command, with each mode and sweep parameter.
EVERY_COMMAND = (
    ["classical"],
    ["quantum", "--mode", "entangled"],
    ["quantum", "--mode", "factorizable"],
    ["simulate"],
    ["sweep", "--param", "a2", "--steps", "5"],
    ["sweep", "--param", "p", "--steps", "5"],
    ["sweep", "--param", "q", "--steps", "5"],
)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main`` in process, warnings raised as errors: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def finite_report(out: str, fmt: str) -> bool:
    """True when the output holds no non-finite number; a json report must
    also validate against the schema."""
    if fmt != "json":
        return not re.search(r"Infinity|NaN|\b(inf|nan)\b", out)
    doc = json.loads(out)
    REPORT_VALIDATOR.validate(doc)
    values = [doc]
    for value in values:
        if isinstance(value, float) and not math.isfinite(value):
            return False
        values.extend(value.values() if isinstance(value, dict) else
                      value if isinstance(value, list) else ())
    return True


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


def family_facts(capsys, path):
    """``initial_state.family_a2`` of the quantum report on ``path``, and
    whether it carries the unique-solution verdict."""
    doc = run_json(capsys, ["quantum", "--config", path])
    return doc["initial_state"]["family_a2"], doc["unique_solution"] is not None


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

    @pytest.mark.parametrize("text, key", [
        ('{"payoffs": {"alpha": 9, "beta": 2, "gamma": 1, "alpha": 7}}', "alpha"),
        ('{"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "payoffs": {"alpha": 3}}', "payoffs"),
        ('{"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "labels": {"a": ["x", "y"], "a": ["x", "y"]}}',
         "a"),
        ('{"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": {"a2": 0.5, "a2": 0.5}}',
         "a2"),
    ])
    def test_repeated_key_rejected_by_name(self, tmp_path, capsys, text, key):
        path = tmp_path / "game.json"
        path.write_text(text)
        assert main(["classical", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: key {key!r} appears twice in one JSON object\n"
        )

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

    def test_slightly_denormalized_amplitudes_accepted(self, tmp_path, capsys):
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
        family_a2, verdict = family_facts(capsys, path)
        assert family_a2 == pytest.approx(0.5, abs=1e-9)
        assert verdict

    @pytest.mark.parametrize(
        "command", [["classical"], ["quantum"], ["sweep"], ["simulate", "--rounds", "100"]]
    )
    def test_in_family_amplitudes_whose_square_rounds_above_one(
        self, tmp_path, capsys, command
    ):
        """|OO> times a phase, within the norm tolerance, whose |a0|^2 comes
        out as 1.0000000000000004 after normalizing."""
        amps = [[-0.855676238748895, -0.5175115210703468], [0, 0], [0, 0], [0, 0]]
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": amps},
        )
        assert family_facts(capsys, path) == (1.0, True)
        assert main([command[0], "--config", path, *command[1:]]) == 0
        capsys.readouterr()

    def test_every_bell_construction_is_one_state(self, tmp_path):
        """The preset, the family object at a2 = 1/2, the library's Bell state
        and the family member at 1/2 have the same amplitudes, bit for bit."""
        bos = {"alpha": 3, "beta": 2, "gamma": 1}
        states = [
            load_config(write_config(tmp_path, {"payoffs": bos, "initial_state": state}, name))
            .state
            for state, name in (("bell", "preset.json"), ({"a2": 0.5}, "family.json"))
        ]
        states += [StateVector.bell(), EntangledFamilyState(0.5).state_vector()]
        amplitudes = {tuple((a.real.hex(), a.imag.hex()) for a in s.amplitudes) for s in states}
        assert len(amplitudes) == 1

    def test_family_form(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": {"a2": 0.8}},
        )
        assert family_facts(capsys, path) == (0.8, True)

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
            {"alpha": 1.7e308, "beta": 0.0, "gamma": -1e308},
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
        "payoffs",
        [
            {"alpha": 1e200, "beta": 5e199, "gamma": 0},
            {"alpha": 9.76e299, "beta": 7.00e299, "gamma": -6.64e299},
        ],
    )
    def test_levels_whose_products_overflow_run_every_command(self, tmp_path, payoffs):
        # A finite range is the one payoff-scale rule; only the closed-form
        # oracles multiply levels, and no command calls them.
        path = write_config(tmp_path, {"payoffs": payoffs, "initial_state": "bell"})
        for command in EVERY_COMMAND:
            for fmt in ("table", "json", "csv"):
                argv = [command[0], "--config", path, "--format", fmt, *command[1:]]
                code, out, err = run_main(argv)
                assert code == 0 and err == "" and finite_report(out, fmt), (argv, err)

    def test_bimatrix_whose_range_overflows_names_payoffs(self, tmp_path, capsys):
        payoffs = {"payoff_a": [[1e308, -1e308], [0, 0]], "payoff_b": [[0, 0], [0, 0]]}
        path = write_config(tmp_path, {"payoffs": payoffs})
        assert main(["classical", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: payoffs: payoff scale too large")
        assert captured.err.count("\n") == 1 and captured.out == ""

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

    def test_large_common_offset_keeps_three_exact_equilibria(self, tmp_path, capsys):
        # The corners are measured from the smallest payoff, so at a common
        # offset of 1e15 the payoff differences 1 and 2 still decide: for the
        # table, for the basis state |OO> and for a2 = 0.3, whose corners round.
        big = 10**15
        payoffs = {"alpha": big + 2, "beta": big + 1, "gamma": big}
        cases = (
            ("classical", "OO", "mixed_equilibria", ("2/3", "1/3")),
            ("quantum", "OO", "equilibria", ("2/3", "1/3")),
            ("quantum", {"a2": 0.3}, "equilibria", ("13/30", "17/30")),
        )
        for command, state, key, interior in cases:
            path = write_config(tmp_path, {"payoffs": payoffs, "initial_state": state})
            rows = run_json(capsys, [command, "--config", path])[key]
            assert [row["kind"] for row in rows] == ["corner", "corner", "interior"]
            assert [(row["p_exact"], row["q_exact"]) for row in rows] == [
                ("1", "1"), ("0", "0"), interior
            ]
            assert rows[2]["p"] == pytest.approx(float(Fraction(interior[0])), abs=1e-12)
            assert rows[2]["q"] == pytest.approx(float(Fraction(interior[1])), abs=1e-12)

    def test_wide_span_keeps_three_exact_equilibria(self, tmp_path, capsys):
        # beta - gamma = 1 against alpha - gamma = 4e16: each slope's round-off
        # allowance is measured on its own corners, so the small slopes are
        # not read as flat and the float run finds the exact run's points.
        path = write_config(tmp_path, {"payoffs": {"alpha": 4 * 10**16, "beta": 1, "gamma": 0}})
        rows = run_json(capsys, ["classical", "--config", path])["mixed_equilibria"]
        assert [row["kind"] for row in rows] == ["corner", "corner", "interior"]
        interior = ("40000000000000000/40000000000000001", "1/40000000000000001")
        assert [(row["p_exact"], row["q_exact"]) for row in rows] == [
            ("1", "1"), ("0", "0"), interior
        ]

    def test_entries_from_two_to_the_53_read_as_their_shortest_decimal(self, tmp_path, capsys):
        # Every float from 2^53 up is an integer; the exact columns read it
        # as the decimal it prints as, 15 * 10^307, not as its own binary value.
        path = write_config(tmp_path, {"payoffs": {
            "payoff_a": [[1.5e308, 0], [0, 1e308]], "payoff_b": [[1e308, 0], [0, 1.5e308]]
        }})
        rows = run_json(capsys, ["classical", "--config", path])["mixed_equilibria"]
        assert [(row["kind"], row["p_exact"], row["q_exact"]) for row in rows] == [
            ("corner", "1", "1"), ("corner", "0", "0"), ("interior", "3/5", "2/5")
        ]
        big, small, interior = str(15 * 10**307), str(10**308), str(6 * 10**307)
        assert [(row["payoff_a_exact"], row["payoff_b_exact"]) for row in rows] == [
            (big, small), (small, big), (interior, interior)
        ]
        # Below 2^53 an integer entry still reads as itself.
        assert cli._fraction(2.0**53 - 1) == 2**53 - 1
        assert cli._fraction(2.0**60) == 1152921504606847000

    def test_exact_columns_null_when_the_exact_run_finds_other_kinds(self):
        # The exact run finds two corners and an interior point; a float run
        # that found other kinds gets no exact columns, so no row is paired
        # with another point's fractions.
        game = (cli.CLASSICAL_PROBABILITIES, *GamePayoffs(3.0, 2.0, 1.0).outcome_payoffs)
        corner = NashPoint(1.0, 1.0, 3.0, 2.0, EquilibriumKind.CORNER)
        family = NashPoint(0.5, 1.0, 2.0, 1.5, EquilibriumKind.DEGENERATE_FAMILY)
        assert cli._exact_equilibria([corner, corner, family], *game) is None
        assert cli._exact_equilibria([corner, corner], *game) is None
        interior = NashPoint(2 / 3, 1 / 3, 5 / 3, 5 / 3, EquilibriumKind.INTERIOR)
        exact = cli._exact_equilibria([corner, corner, interior], *game)
        assert (exact[2].p_star, exact[2].q_star) == (Fraction(2, 3), Fraction(1, 3))

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
        # A levels config runs the same enumerator, so neither form has a notice.
        assert doc["notices"] == []

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

    def test_levels_whose_products_overflow_match_their_bimatrix_bit_for_bit(self, tmp_path):
        levels = write_config(
            tmp_path, {"payoffs": {"alpha": 1e200, "beta": 5e199, "gamma": 0}}, "levels.json"
        )
        table = {"payoff_a": [[1e200, 0], [0, 5e199]], "payoff_b": [[5e199, 0], [0, 1e200]]}
        bimatrix = write_config(tmp_path, {"payoffs": table}, "bimatrix.json")
        args = cli.build_parser().parse_args(["classical", "--config", levels])
        rows = [cli.cmd_classical(load_config(path), args)["mixed_equilibria"]
                for path in (levels, bimatrix)]
        assert len(rows[0]) == 3 and repr(rows[0]) == repr(rows[1])

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

    def test_factorizable_payoffs_match_classical(self, tmp_path, capsys):
        # Independent tactics from |OO> are the classical game, whatever the
        # configured state: the rows, exact columns included, are the same,
        # also where a common level dwarfs the differences that decide.
        offsets = [(10**k + 8, 10**k + 3, 10**k) for k in (3, 9, 12, 15)]
        for levels in [(3, 2, 1), (4, 0, -5), (3.5, 2.25, -1), (3e-6, 2e-6, 1e-6), *offsets]:
            payoffs = dict(zip(("alpha", "beta", "gamma"), levels))
            path = write_config(tmp_path, {"payoffs": payoffs, "initial_state": "bell"})
            classical = run_json(capsys, ["classical", "--config", path])
            quantum = run_json(capsys, ["quantum", "--config", path, "--mode", "factorizable"])
            rows = [
                {key: value for key, value in row.items() if key != "final_state"}
                for row in quantum["equilibria"]
            ]
            assert rows == classical["mixed_equilibria"], levels
            assert quantum["unique_solution"] is None
            states = [row["final_state"] for row in quantum["equilibria"]]
            assert states[0][0] == [1.0, 0.0]
            assert states[1][3] == [1.0, 0.0]

    def test_factorizable_corner_final_states_are_oo_and_tt(self, tmp_path, capsys):
        # The corner states come from the points' own (p, q), yet print exactly
        # as basis states, with no negative zero.
        for levels in [(3, 2, 1), (4, 0, -5), (10**15 + 8, 10**15 + 3, 10**15)]:
            payoffs = dict(zip(("alpha", "beta", "gamma"), levels))
            path = write_config(tmp_path, {"payoffs": payoffs})
            argv = ["quantum", "--config", path, "--mode", "factorizable"]
            assert main(argv + ["--format", "json"]) == 0
            out = capsys.readouterr().out
            assert "-0.0" not in out
            states = [row["final_state"] for row in json.loads(out)["equilibria"]]
            zero = [0.0, 0.0]
            assert states[0] == [[1.0, 0.0], zero, zero, zero]
            assert states[1] == [zero, zero, zero, [1.0, 0.0]]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "(1, 1): 1|OO>\n" in out and "(0, 0): 1|TT>\n" in out

    def test_factorizable_final_states_have_the_product_probabilities(self, tmp_path):
        # Each final state is the product of the tactics at the point's own
        # (p, q), read from the payload at full precision.
        args = cli.build_parser().parse_args(
            ["quantum", "--config", "unused", "--mode", "factorizable"]
        )
        interiors = []
        for levels in [(3, 2, 1), (3.5, 2.25, -1), (10**12 + 8, 10**12 + 3, 10**12)]:
            payoffs = dict(zip(("alpha", "beta", "gamma"), levels))
            cfg = load_config(write_config(tmp_path, {"payoffs": payoffs}))
            rows = cli.cmd_quantum(cfg, args)["equilibria"]
            for row in rows:
                p, q = row["p"], row["q"]
                want = [p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)]
                got = [re * re + im * im for re, im in row["final_state"]]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            interiors.append(rows[2]["final_state"])
        # At 3, 2, 1 the interior is (2/3, 1/3).
        got = [re * re + im * im for re, im in interiors[0]]
        np.testing.assert_allclose(got, [2 / 9, 4 / 9, 1 / 9, 2 / 9], rtol=0, atol=1e-15)

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

    def test_unique_solution_reads_the_configured_phase(self, tmp_path, capsys):
        # (|OO> + i|TT>)/sqrt(2) has the balanced moduli, but its corner final
        # densities differ, so the corners do not merge; phase pi merges and
        # reports its own state.
        r = 0.7071067811865476
        path = write_config(
            tmp_path,
            {
                "payoffs": {"alpha": 3, "beta": 2, "gamma": 1},
                "initial_state": [[r, 0], [0, 0], [0, 0], [0, r]],
            },
        )
        assert run_json(capsys, ["quantum", "--config", path])["unique_solution"]["merged"] is False
        assert main(["quantum", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "no unique solution: A is indifferent, B is indifferent;" in out
        amplitudes = [[r, 0], [0, 0], [0, 0], [-r, 0]]
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": amplitudes},
        )
        doc = run_json(capsys, ["quantum", "--config", path])
        assert doc["unique_solution"]["merged"] is True
        assert doc["unique_solution"]["final_state"] == doc["initial_state"]["amplitudes"]
        assert main(["quantum", "--config", path]) == 0
        assert "shared final state: 0.707107|OO> + -0.707107|TT>" in capsys.readouterr().out

    def test_one_zero_rule_for_the_family_and_the_exact_columns(self, capsys):
        """A middle amplitude of 1e-11 is not zero: no family, no verdict and
        no exact columns, which would describe 0.6|OO> + 0.8|TT>. At 1e-13
        it is zero, and the report keeps all three."""
        def report(name):
            return run_json(capsys, ["quantum", "--config", str(DATA / "golden" / name)])

        def exact_columns(doc):
            return [row[f"{key}_exact"] for row in doc["equilibria"] for key in cli.EQ_FIELDS]

        outside = report("middle_1e-11.json")
        assert outside["initial_state"]["family_a2"] is None
        assert outside["unique_solution"] is None
        assert exact_columns(outside) == [None] * 12
        inside = report("middle_1e-13.json")
        assert inside["initial_state"]["family_a2"] == 0.36
        assert inside["unique_solution"]["merged"] is False
        assert exact_columns(inside)[:4] == ["1", "1", "59/25", "66/25"]
        assert None not in exact_columns(inside)

    @pytest.mark.parametrize(
        "middle", [[5.590850307780778e-13, -8.291103233948277e-13], [1e-12, 0.0], [0.0, 1.1e-12]]
    )
    def test_the_table_shows_a_middle_amplitude_exactly_outside_the_family(
        self, tmp_path, capsys, middle
    ):
        # Moduli near 1e-12; at the first, |a| rounds to at most 1e-12 while
        # re^2 + im^2 rounds above 1e-24, so the two must be one test.
        amplitudes = [[0.6, 0.0], middle, [0.0, 0.0], [0.8, 0.0]]
        path = write_config(
            tmp_path, {"payoffs": {"alpha": 3, "beta": 2, "gamma": 1}, "initial_state": amplitudes}
        )
        family_a2, _ = family_facts(capsys, path)
        assert main(["quantum", "--config", path]) == 0
        assert ("|OT>" in capsys.readouterr().out) == (family_a2 is None)

    def test_prisoners_dilemma_lists_its_equilibria_without_a_verdict(self, capsys):
        # At the balanced superposition neither keep/flip corner is an
        # equilibrium, so the two cannot merge into one solution.
        path = str(DATA / "golden" / "prisoners_dilemma.json")
        doc = run_json(capsys, ["quantum", "--config", path])
        rows = [(r["kind"], r["p_exact"], r["q_exact"], r["payoff_a_exact"], r["payoff_b_exact"])
                for r in doc["equilibria"]]
        assert rows == [
            ("corner", "1", "0", "5/2", "5/2"),
            ("corner", "0", "1", "5/2", "5/2"),
            ("interior", "1/2", "1/2", "9/4", "9/4"),
        ]
        assert doc["initial_state"]["family_a2"] == pytest.approx(0.5)
        assert doc["unique_solution"] is None
        assert doc["notices"] == [
            "no unique-solution verdict: (1,1) and (0,0) are not both equilibria"
        ]
        assert main(["quantum", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "unique solution: not applicable to this game\n" in out
        assert "  O: (3,3)  (0,5)\n  T: (5,0)  (1,1)\n" in out


class TestPayoffForms:
    """Every command reads the configured game's 2x2 table; the levels are a
    shorthand for the coordination game's table."""

    PRISONERS = {"payoff_a": [[3, 0], [5, 1]], "payoff_b": [[3, 5], [0, 1]]}
    THREE = {"payoff_a": [[4, 1, 0], [2, 3, 1], [0, 0, 5]],
             "payoff_b": [[1, 2, 0], [3, 0, 2], [0, 1, 4]]}

    @pytest.mark.parametrize("command", [c for c in EVERY_COMMAND if "a2" not in c], ids=" ".join)
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_a_2x2_bimatrix_runs_every_command_but_the_a2_sweep(self, tmp_path, command, fmt):
        doc = {"payoffs": self.PRISONERS, "initial_state": [[0.6, 0], [0, 0.48], [0, 0.64], [0, 0]],
               "labels": {"a": ["C", "D"], "b": ["C", "D"]}}
        path = write_config(tmp_path, doc)
        code, out, err = run_main([*command, "--config", path, "--format", fmt])
        assert (code, err) == (0, "") and finite_report(out, fmt)

    @pytest.mark.parametrize("command", EVERY_COMMAND[1:], ids=" ".join)
    def test_a_3x3_bimatrix_exits_2_at_payoffs(self, tmp_path, command):
        path = write_config(tmp_path, {"payoffs": self.THREE})
        code, out, err = run_main([*command, "--config", path])
        want = ("sweep --param a2 needs the {alpha, beta, gamma} form" if "a2" in command
                else "quantum play needs a 2x2 game, got shape (3, 3)")
        assert (code, out, err) == (2, "", f"error: {path}: payoffs: {want}\n")

    def test_a_bimatrix_a2_sweep_exits_2_naming_the_option(self, tmp_path):
        # The a2 sweep's columns name the coordination game's corners.
        path = write_config(tmp_path, {"payoffs": self.PRISONERS, "initial_state": "bell"})
        code, out, err = run_main(["sweep", "--config", path, "--param", "a2"])
        want = "sweep --param a2 needs the {alpha, beta, gamma} form"
        assert (code, out, err) == (2, "", f"error: {path}: payoffs: {want}\n")

    def test_outcome_order_reaches_simulate_and_sweep(self, tmp_path, capsys):
        # From |OO>, keeping the row and flipping the column lands on OT: the
        # payoffs of cell (0, 1), (0, 5), and not those of TO, (5, 0).
        path = write_config(tmp_path, {"payoffs": self.PRISONERS})
        options = ["--p", "1", "--q", "0", "--rounds", "3"]
        doc = run_json(capsys, ["simulate", "--config", path, *options])
        assert doc["counts"] == {"OO": 0, "OT": 3, "TO": 0, "TT": 0}
        assert doc["analytic"] == {"payoff_a": 0.0, "payoff_b": 5.0}
        assert doc["empirical"]["mean_payoff_a"] == 0.0
        rows = run_json(capsys, ["sweep", "--config", path, "--param", "q", "--p", "1"])["rows"]
        assert (rows[0]["payoff_a"], rows[0]["payoff_b"]) == (0.0, 5.0)


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

    def test_largest_round_count_at_the_top_of_the_float_range(self, tmp_path, capsys):
        # 2^63 - 1 rounds times 1.7e308 is far past a float; the sums are
        # taken in a power-of-two unit of the largest counted level.
        path = write_config(
            tmp_path,
            {"payoffs": {"alpha": 1.7e308, "beta": 1e308, "gamma": 0}, "initial_state": "bell"},
        )
        argv = ["simulate", "--config", path, "--rounds", str(2**63 - 1)]
        empirical = run_json(capsys, argv)["empirical"]
        for player in "ab":
            assert 0.0 < empirical[f"mean_payoff_{player}"] < 1.7e308
            assert 0.0 < empirical[f"std_error_{player}"] < 1e308

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

    @pytest.mark.parametrize(
        "found",
        [
            lambda keep, flip, interior: (flip, keep, interior),
            lambda keep, flip, interior: (keep, flip),
            lambda keep, flip, interior: (keep, flip, interior, interior),
            lambda keep, flip, interior: (keep, keep, interior),
            lambda keep, flip, interior: (keep, flip, flip),
            lambda keep, flip, interior: (
                keep, flip, dataclasses.replace(interior, kind=EquilibriumKind.DEGENERATE_FAMILY)
            ),
        ],
    )
    def test_a2_sweep_never_mislabels_a_row(self, capsys, bos_config, monkeypatch, found):
        # Rows are labelled by position: other points than the corners (1,1)
        # and (0,0) and one interior point, in that order, are an internal error.
        enumerate_nash = cli.enumerate_bilinear_nash
        forged = []

        def forge(*surfaces):
            forged.append(found(*enumerate_nash(*surfaces)))
            return forged[-1]

        monkeypatch.setattr(cli, "enumerate_bilinear_nash", forge)
        assert main(["sweep", "--config", bos_config, "--steps", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        listed = [(n.kind.value, n.p_star, n.q_star) for n in forged[0]]
        assert captured.err == f"internal error: a2 = 0.0: not the family's points: {listed}\n"

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

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--param", "p", "--q", "nan"], "sweep: q must lie in [0, 1], got nan"),
            (["--param", "q", "--p", "1.5"], "sweep: p must lie in [0, 1], got 1.5"),
        ],
    )
    def test_bad_fixed_mix_is_rejected_before_the_grid(
        self, capsys, bos_config, monkeypatch, options, message
    ):
        # One prefixed error line, as simulate gives, and no grid is built.
        monkeypatch.setattr(cli, "_unit_grid", lambda steps: pytest.fail("grid built"))
        assert main(["sweep", "--config", bos_config, "--steps", "3", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("param", ["p", "q"])
    def test_payoff_sweep_builds_no_density(self, capsys, bos_config, monkeypatch, param):
        built = []
        check = DensityMatrix.__post_init__
        monkeypatch.setattr(
            DensityMatrix, "__post_init__", lambda rho, *args: built.append(check(rho, *args))
        )
        argv = ["sweep", "--config", bos_config, "--param", param, "--steps", "2001"]
        assert main(argv) == 0
        capsys.readouterr()
        assert built == []

    def test_steps_below_two_exit_2(self, capsys, bos_config):
        assert main(["sweep", "--config", bos_config, "--steps", "1"]) == 2

    @pytest.mark.parametrize("steps", [cli.SWEEP_MAX_STEPS + 1, 200_000_000])
    def test_steps_above_the_maximum_exit_2_before_the_grid(
        self, capsys, bos_config, monkeypatch, steps
    ):
        monkeypatch.setattr(cli, "_unit_grid", lambda steps: pytest.fail("grid built"))
        assert main(["sweep", "--config", bos_config, "--steps", str(steps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: sweep: steps must be from 2 to {cli.SWEEP_MAX_STEPS}, got {steps}\n"
        )

    def test_maximum_steps_accepted_and_in_help(self, capsys, bos_config):
        argv = ["sweep", "--config", bos_config, "--param", "p"]
        rows = run_csv(capsys, [*argv, "--steps", str(cli.SWEEP_MAX_STEPS)])
        assert len(rows) == 1 + cli.SWEEP_MAX_STEPS
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert f"2 to {cli.SWEEP_MAX_STEPS}" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "re_im, text",
        [
            # An imaginary part below half a unit in the real part's sixth digit.
            ((0.707107, 1e-12), "0.707107|TO>"),
            ((2e-6, 1e-12), "2e-06|TO>"),
            # One as large as the real part, or the modulus: both parts print.
            ((6.16724e-13, 8e-13), "(6.16724e-13+8e-13i)|TO>"),
            ((1e-13, -1e-12), "(1e-13-1e-12i)|TO>"),
            ((1e-7, 1e-12), "(1e-07+1e-12i)|TO>"),
            # Above ZERO_AMPLITUDE the imaginary part always prints.
            ((0.6, 1e-11), "(0.6+1e-11i)|TO>"),
            # A negative real part keeps the "+ -x" form.
            ((-2e-6, 0.0), "-2e-06|TO>"),
        ],
    )
    def test_state_line_prints_each_part_that_shows(self, re_im, text):
        pairs = [[0.0, 0.0], [0.0, 0.0], list(re_im), [0.0, 0.0]]
        assert cli._state_table_line(pairs) == text
        assert cli._state_table_line([[0.6, 0.0]] + pairs[1:]) == f"0.6|OO> + {text}"


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
    "montecarlo": "qstatic.montecarlo" in sys.modules,
}))
"""


class TestNumpyFreeImportPath:
    """Every command runs on the standard library; only the density oracle
    loads numpy."""

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

    def every_run(self, tmp_path) -> tuple[list[list[str]], list[int]]:
        """Every command and format on every config, and each run's exit code."""
        argvs, expected = [], []
        for name, doc in self.CONFIGS.items():
            path = write_config(tmp_path, doc, f"{name}.json")
            for command in self.COMMANDS:
                for fmt in ("table", "json", "csv"):
                    argvs.append([*command, "--config", path, "--format", fmt])
                    # A 2x2 bimatrix runs every command but the a2 sweep; a 3x3 one
                    # runs only classical.
                    refused = name == "bimatrix3" or name == "bimatrix2" and "a2" in command
                    expected.append(2 if refused and command[0] != "classical" else 0)
        return argvs, expected

    def test_classical_quantum_and_sweep_load_no_numpy(self, tmp_path):
        argvs, expected = self.every_run(tmp_path)
        result = json.loads(run_python(_RUN_MAIN, json.dumps(argvs)).stdout)
        assert result["codes"] == expected
        assert result["numpy"] is False
        assert result["montecarlo"] is False

    def test_simulate_loads_neither_numpy_nor_quantum_core(self, tmp_path):
        path = write_config(tmp_path, self.CONFIGS["amplitudes"])
        argvs = [
            ["simulate", "--config", path, "--rounds", rounds, "--seed", "4", "--format", fmt]
            for rounds in ("5", "100", "10000000")
            for fmt in ("table", "json", "csv")
        ]
        result = json.loads(run_python(_RUN_MAIN, json.dumps(argvs)).stdout)
        assert result == {
            "codes": [0] * 9,
            "numpy": False,
            "quantum_core": False,
            "montecarlo": True,
        }

    def test_every_command_runs_with_numpy_import_blocked(self, tmp_path):
        code = (
            "import contextlib, io, json, runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    sys.argv = ['qstatic', *argv]\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            runpy.run_module('qstatic', run_name='__main__', alter_sys=True)\n"
            "        except SystemExit as exc:\n"
            "            codes.append(exc.code)\n"
            "print(json.dumps(codes))\n"
        )
        commands = [*self.COMMANDS, ["simulate", "--rounds", "1000", "--p", "0.3"]]
        argvs = [
            [*command, "--config", write_config(tmp_path, doc, f"{name}.json"), "--format", fmt]
            for name, doc in self.CONFIGS.items()
            if "alpha" in doc["payoffs"]
            for command in commands
            for fmt in ("table", "json", "csv")
        ]
        assert json.loads(run_python(code, json.dumps(argvs)).stdout) == [0] * len(argvs)

    def test_nash_point_is_the_only_dataclass_after_every_command(self, tmp_path):
        argvs, expected = self.every_run(tmp_path)
        path = write_config(tmp_path, self.CONFIGS["amplitudes"], "simulated.json")
        for fmt in ("table", "json", "csv"):
            argvs.append(["simulate", "--config", path, "--rounds", "1000", "--format", fmt])
            expected.append(0)
        code = _RUN_MAIN.replace(
            '    "montecarlo": "qstatic.montecarlo" in sys.modules,\n',
            '    "dataclasses": sorted({\n'
            '        f"{value.__module__}.{value.__qualname__}"\n'
            '        for name, module in list(sys.modules.items()) if name.startswith("qstatic")\n'
            '        for value in vars(module).values()\n'
            '        if isinstance(value, type) and hasattr(value, "__dataclass_fields__")\n'
            '    }),\n',
        )
        result = json.loads(run_python(code, json.dumps(argvs)).stdout)
        assert result["codes"] == expected
        assert result["dataclasses"] == ["qstatic.equilibria.NashPoint"]

    def test_import_cli_loads_no_csv(self):
        code = "import sys, qstatic.cli\nprint('csv' in sys.modules)"
        assert run_python(code).stdout.split() == ["False"]

    def test_import_qstatic_loads_no_numpy(self):
        code = (
            "import sys, qstatic\n"
            "print('numpy' in sys.modules, 'qstatic.montecarlo' in sys.modules)\n"
            "print(qstatic.simulate.__module__, 'qstatic.montecarlo' in sys.modules)\n"
            "print(qstatic.DensityMatrix.__module__, 'numpy' in sys.modules)"
        )
        assert run_python(code).stdout.split() == [
            "False",
            "False",
            "qstatic.montecarlo",
            "True",
            "qstatic.quantum_core",
            "True",
        ]


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
        oracle = trace_payoffs(pa, pb, mixed_final_density(rho_in, MixProbabilities(p, q)))
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


# Three payoff forms: levels at scales 1e-6 to 1e12, a common offset 10^3 to
# 10^15 over differences up to 8, and slopes 4e14 to 4e17 against 1 to 5.
_SWEEP_LEVELS = st.one_of(
    st.builds(
        lambda hundredths, k: [h / 100 * 10.0**k for h in sorted(hundredths, reverse=True)],
        st.lists(st.integers(-1000, 1000), min_size=3, max_size=3, unique=True),
        st.integers(-6, 12),
    ),
    st.builds(
        lambda diffs, k: [10**k + d for d in sorted(diffs, reverse=True)],
        st.lists(st.integers(0, 8), min_size=3, max_size=3, unique=True),
        st.integers(3, 15),
    ),
    st.builds(lambda d, k: [4 * 10**k, d, 0], st.integers(1, 5), st.integers(14, 17)),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(levels=_SWEEP_LEVELS, steps=st.integers(2, 21))
def test_a2_sweep_rows_match_the_exact_family_equilibria(tmp_path_factory, levels, steps):
    """Every a2 sweep row lies within 1e-15 of the payoff scale (of 1 for
    coordinates) of the family's closed forms run on Fraction inputs."""
    path = tmp_path_factory.mktemp("sweep") / "game.json"
    path.write_text(json.dumps({"payoffs": dict(zip(("alpha", "beta", "gamma"), levels))}))
    cfg = load_config(str(path))
    args = cli.build_parser().parse_args(["sweep", "--config", str(path), "--steps", str(steps)])
    params = cfg.params
    exact = GamePayoffs(*map(Fraction, (params.alpha, params.beta, params.gamma)))
    scale = max(map(abs, levels))
    for row in cli.cmd_sweep(cfg, args)["rows"]:
        keep, flip, interior = entangled_equilibria(exact, EntangledFamilyState(Fraction(row["a2"])))
        want = {
            "corner_11_payoff_a": keep.payoff_a,
            "corner_11_payoff_b": keep.payoff_b,
            "corner_00_payoff_a": flip.payoff_a,
            "corner_00_payoff_b": flip.payoff_b,
            "interior_payoff": interior.payoff_a,
        }
        for key, value in want.items():
            assert abs(Fraction(row[key]) - value) <= 1e-15 * scale, (key, row)
        assert abs(Fraction(row["interior_p"]) - interior.p_star) <= 1e-15, row
        assert abs(Fraction(row["interior_q"]) - interior.q_star) <= 1e-15, row


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    levels=st.lists(st.integers(-10**15, 10**15), min_size=3, max_size=3, unique=True),
    a2=st.integers(1, 1000).flatmap(lambda n: st.integers(0, n).map(lambda k: k / n)),
)
def test_one_game_in_any_input_form_prints_the_same_exact_columns(
    tmp_path_factory, levels, a2
):
    """Integer levels and their bimatrix, and a rational a2 and its amplitudes,
    print the same exact columns; each float column lies within 1e-12 of the
    payoff scale (of 1 for coordinates) of its exact value."""
    alpha, beta, gamma = sorted(levels, reverse=True)
    scale = max(map(abs, levels))
    bimatrix = {
        "payoff_a": [[alpha, gamma], [gamma, beta]],
        "payoff_b": [[beta, gamma], [gamma, alpha]],
    }
    amplitudes = [[math.sqrt(a2), 0], [0, 0], [0, 0], [math.sqrt(1 - a2), 0]]

    def exact_columns(command, payoffs, state="OO"):
        path = tmp_path_factory.mktemp("forms") / "game.json"
        path.write_text(json.dumps({"payoffs": payoffs, "initial_state": state}))
        args = cli.build_parser().parse_args([command, "--config", str(path)])
        report = cli._COMMANDS[command](load_config(str(path)), args)
        rows = report["mixed_equilibria" if command == "classical" else "equilibria"]
        columns = []
        for row in rows:
            for key in cli.EQ_FIELDS:
                exact = Fraction(row[f"{key}_exact"])
                unit = 1 if key in ("p", "q") else scale
                assert abs(row[key] - float(exact)) <= 1e-12 * unit, (key, row)
                columns.append(exact)
        return columns

    levels_form = {"alpha": alpha, "beta": beta, "gamma": gamma}
    assert exact_columns("classical", levels_form) == exact_columns("classical", bimatrix)
    assert exact_columns("quantum", levels_form, {"a2": a2}) == exact_columns(
        "quantum", levels_form, amplitudes
    )


_corpus = load_tool("cli_corpus")


def _corpus_levels(rng: random.Random) -> dict:
    """Levels from a stratum of the CLI corpus tool: scaled, integer or offset
    levels, slopes that span 14 to 18 decades, or levels near either end of
    the float range."""
    stratum = rng.choice(("main", "main", "wide", "extreme"))
    if stratum == "main":
        return _corpus._levels(rng)[0]
    if stratum == "wide":
        return _corpus._wide_levels(rng)[0]
    while True:
        payoffs, _, form = _corpus._extreme(rng)
        if form == "levels-extreme":
            return payoffs


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_levels_and_their_bimatrix_give_one_payload(tmp_path_factory, seed):
    """A levels config and the config of its table ``bos_bimatrix(params)``,
    in any state form of the corpus (near-family states one time in four),
    give the same payload, bit for bit, on classical, quantum in both modes,
    simulate and the p and q sweeps; only the ``game`` echo differs."""
    rng = random.Random(seed)
    levels = _corpus_levels(rng)
    state = _corpus._near_family(rng)[0] if rng.random() < 0.25 else _corpus._state(rng)
    directory = tmp_path_factory.mktemp("forms")
    levels_path = write_config(directory, {"payoffs": levels, "initial_state": state}, "l.json")
    game = bos_bimatrix(load_config(levels_path).params)
    table = {"payoff_a": [list(r) for r in game.payoff_a],
             "payoff_b": [list(r) for r in game.payoff_b]}
    table_path = write_config(directory, {"payoffs": table, "initial_state": state}, "t.json")
    mix = [repr(round(rng.random(), 3)) for _ in range(2)]
    steps = str(rng.randint(2, 41))
    commands = (
        ["classical"],
        ["quantum", "--mode", "entangled"],
        ["quantum", "--mode", "factorizable"],
        ["simulate", "--rounds", str(rng.randint(1, 10**5)), "--seed", str(rng.randint(0, 999)),
         "--p", mix[0], "--q", mix[1]],
        ["sweep", "--param", "p", "--steps", steps, "--q", mix[1]],
        ["sweep", "--param", "q", "--steps", steps, "--p", mix[0]],
    )
    parser = cli.build_parser()
    for command in commands:
        payloads = []
        for path in (levels_path, table_path):
            args = parser.parse_args([command[0], "--config", path, *command[1:]])
            payload = cli._COMMANDS[command[0]](load_config(path), args)
            assert payload.pop("game")
            payloads.append(json.dumps(payload))
        assert payloads[0] == payloads[1], command


def _sometimes(broken, valid):
    """Draws from ``valid``, and one time in eight from ``broken``."""
    return st.integers(0, 7).flatmap(lambda k: broken if k == 7 else valid)


#: A number that overflows a float when the CLI parses it. The test writes
#: this string into the document as a bare literal, which json.dumps cannot.
_OVERFLOW_LITERAL = "1.8e308"
_ODD_NUMBERS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, _OVERFLOW_LITERAL]
)
#: Zeros of both signs and subnormal numbers: valid wherever a number is.
_EDGE_NUMBERS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320])
_FLOAT = st.one_of(st.floats(-5, 5), _EDGE_NUMBERS)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "3", "bell", "XX"]), _ODD_NUMBERS,
    st.lists(st.integers(-2, 2), max_size=3), st.fixed_dictionaries({"x": st.just(1)}),
)
_NUMBER = _sometimes(st.one_of(_ODD_NUMBERS, _JUNK), _FLOAT)
_LEVELS = st.builds(
    lambda levels, scale, zero: {
        key: level * scale or zero
        for key, level in zip(("alpha", "beta", "gamma"), sorted(levels, reverse=True))
    },
    st.lists(st.integers(-9, 9), min_size=3, max_size=3, unique=True),
    st.sampled_from([1, 0.37, 5e-324, 1e-300, 1e-13, 1e6, 1e9, 1e13, 1e150, 1.2e154, 1e300]),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def _tables(draw, entries=_FLOAT):
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
def _amplitudes(draw, factor=st.just(1.0), part=st.floats(-1, 1)):
    parts = np.array(draw(st.lists(part, min_size=8, max_size=8)))
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
        st.fixed_dictionaries({"a2": st.floats(0, 1) | st.sampled_from([-0.0, 5e-324])}),
        _amplitudes(), _amplitudes(part=st.floats(-1, 1) | _EDGE_NUMBERS),
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
#: Raw bytes around the JSON text: a UTF-8 BOM before it, or a byte that is
#: not UTF-8 inside its first string.
_RAW_BYTES = _sometimes(
    st.sampled_from([lambda text: b"\xef\xbb\xbf" + text,
                     lambda text: text.replace(b'"', b'"\xff', 1) if b'"' in text else b'"\xff"']),
    st.just(lambda text: text),
)
#: Where an error line may point: a config field (or the whole document) in
#: its file, or a command's option.
_CONFIG_FIELD = r"(payoffs|initial_state|labels)(\.\w+)?(\[\d+\])*: "
_WHOLE_CONFIG = r"cannot read config|invalid JSON|top level must|unknown config keys"
_OPTION = r"(simulate|sweep): (rounds|seed|p|q|steps) "


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
    """Well-formed or broken config documents, some with raw bytes, zeros of
    either sign, subnormal numbers or a literal past the float range, under
    every command and format: exit 0 with clean stderr and, in json, a
    schema-valid report; or exit 2 with one error line that names the config
    path and field, or the option. Never a traceback, exit 1, warning, or
    non-finite number in the output."""
    path = tmp_path_factory.mktemp("fuzz") / "game.json"
    text = json.dumps(doc).replace(f'"{_OVERFLOW_LITERAL}"', _OVERFLOW_LITERAL)
    path.write_bytes(data.draw(_RAW_BYTES)(text.encode()))
    options = data.draw(_options(command))
    argv = [command, "--config", str(path), *options]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
        if options[1] == "json":
            REPORT_VALIDATOR.validate(json.loads(out))
    else:
        assert out == "" and err.count("\n") == 1
        where = rf"error: ({re.escape(str(path))}(:\d+:\d+)?: ({_CONFIG_FIELD}|{_WHOLE_CONFIG})|{_OPTION})"
        assert re.match(where, err), err
    assert not re.search(r"Infinity|NaN|\b(inf|nan)\b", out), out


_LEVELS_321 = '{"alpha": 3, "beta": 2, "gamma": 1}'


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"payoffs": {"alpha": 1.8e308, "beta": 2, "gamma": 1}, "initial_state": "bell"}',
         "payoffs.alpha: expected a finite number, got inf"),
        (f'{{"payoffs": {_LEVELS_321}, "initial_state": [[1.8e308, 0], [0, 0], [0, 0], [0, 0]]}}',
         "initial_state[0][0]: expected a finite number, got inf"),
        ('{"payoffs": {"alpha": 5e-324, "beta": 0, "gamma": -0.0}, "initial_state": "bell"}',
         "payoffs: payoff parameters must satisfy alpha > beta > gamma, "
         "got alpha=5e-324, beta=0.0, gamma=-0.0"),
        (f'{{"payoffs": {_LEVELS_321}, "initial_state": '
         '[[-0.0, 5e-324], [1.0, -0.0], [-0.0, 0.0], [5e-324, -0.0]]}', None),
        (f'{{"payoffs": {_LEVELS_321}, "initial_state": {{"a2": -0.0}}}}', None),
    ],
)
@pytest.mark.parametrize("command", EVERY_COMMAND, ids=" ".join)
def test_edge_numbers_in_config_fields(tmp_path, command, text, error):
    """A literal past the float range is refused at its field, two zeros of
    opposite sign do not order the levels, and zeros of either sign and
    subnormal numbers in a state are valid."""
    path = tmp_path / "game.json"
    path.write_text(text)
    code, out, err = run_main([*command, "--config", str(path), "--format", "json"])
    if error is None:
        assert (code, err) == (0, "") and finite_report(out, "json")
    else:
        assert (code, out, err) == (2, "", f"error: {path}: {error}\n")


# Signed magnitudes from 5e-324 to 1.7e308, log-uniform: a mantissa in [1, 2)
# times 2^k for k from -1074 to 1023.
_MAGNITUDE = st.builds(
    lambda m, k, sign: sign * min(math.ldexp(m, k), 1.7e308),
    st.floats(1, 2, exclude_max=True), st.integers(-1074, 1023), st.sampled_from([1, -1]),
)
_CORNERS = st.lists(_MAGNITUDE, min_size=4, max_size=4)
_ANY_LEVELS = st.lists(_MAGNITUDE, min_size=3, max_size=3, unique=True).map(
    lambda levels: dict(zip(("alpha", "beta", "gamma"), sorted(levels, reverse=True)))
)
_ANY_BIMATRIX = st.builds(
    lambda a, b: {"payoff_a": [a[:2], a[2:]], "payoff_b": [b[:2], b[2:]]}, _CORNERS, _CORNERS
)
# Levels run every command, a bimatrix all but the a2 sweep: levels three times in four.
_ANY_SCALE = st.integers(0, 3).flatmap(lambda k: _ANY_BIMATRIX if k == 3 else _ANY_LEVELS)
_ANY_STATE = (
    st.sampled_from(["OO", "OT", "TO", "TT", "bell"]),
    st.fixed_dictionaries({"a2": st.floats(0, 1)}),
    _amplitudes(),
)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    payoffs=_ANY_SCALE,
    state=st.integers(0, 2).flatmap(lambda k: _ANY_STATE[k]),
    rounds=st.sampled_from([1, 10000, 2**63 - 1]),
)
def test_every_command_at_any_payoff_scale_exits_0_or_2(
    tmp_path_factory, payoffs, state, rounds
):
    """Levels and 2x2 bimatrices at any scale, under every command and
    format: exit 2 with one error line, or exit 0 with only finite numbers
    and, in json, a report that validates against the schema."""
    path = tmp_path_factory.mktemp("scale") / "game.json"
    path.write_text(json.dumps({"payoffs": payoffs, "initial_state": state}))
    for command in EVERY_COMMAND:
        options = ["--rounds", str(rounds)] if command[0] == "simulate" else []
        for fmt in ("table", "json", "csv"):
            argv = [command[0], "--config", str(path), "--format", fmt, *command[1:], *options]
            code, out, err = run_main(argv)
            assert code in (0, 2), (argv, err)
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            else:
                assert err == "" and finite_report(out, fmt), (argv, out)


def test_cli_outputs_match_golden(capsys, monkeypatch):
    """Byte-exact stdout and exit code of every case in cli_golden.json,
    written by tests/data/make_cli_golden.py."""
    golden = json.loads((DATA / "cli_golden.json").read_text())
    monkeypatch.chdir(DATA)
    for case in golden:
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], case["stdout"]), " ".join(case["argv"])
