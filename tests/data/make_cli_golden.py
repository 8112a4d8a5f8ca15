"""Write the CLI golden corpus: config files under golden/ and cli_golden.json.

Run from the repository root with ``PYTHONPATH=src python
tests/data/make_cli_golden.py``. Each case is one in-process ``main()`` run;
the file records its argv (config paths relative to tests/data), exit code
and stdout. Regenerate only when an output change is intended, and say why
in the change that does it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

from qstatic.cli import main

DATA = Path(__file__).resolve().parent
BOS = {"alpha": 3, "beta": 2, "gamma": 1}

CONFIGS = {
    "bell": {
        "payoffs": BOS,
        "initial_state": "bell",
        "labels": {"a": ["O", "T"], "b": ["O", "T"]},
    },
    "oo_default": {"payoffs": BOS},
    "ot": {"payoffs": BOS, "initial_state": "OT"},
    "to": {"payoffs": BOS, "initial_state": "TO"},
    "tt": {"payoffs": BOS, "initial_state": "TT"},
    "family_08": {"payoffs": BOS, "initial_state": {"a2": 0.8}},
    "family_inexact": {"payoffs": BOS, "initial_state": {"a2": 0.123456789012}},
    "non_integer": {
        "payoffs": {"alpha": 3.5, "beta": 2.25, "gamma": -1},
        "initial_state": {"a2": 0.3},
    },
    "large_scale": {
        "payoffs": {"alpha": 3e6, "beta": 2e6, "gamma": 1e6},
        "initial_state": {"a2": 0.25},
    },
    "complex_in_family": {
        "payoffs": BOS,
        "initial_state": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.8]],
    },
    "complex_out_of_family": {
        "payoffs": {"alpha": 5, "beta": 4, "gamma": -2},
        "initial_state": [[0.5, 0.5], [0.0, 0.5], [0.5, 0.0], [0.0, 0.0]],
    },
    # Outside the family, with a ranking that reorders the equilibria.
    "ranking_reorders": {
        "payoffs": BOS,
        "initial_state": [[math.sqrt(w), 0.0] for w in (0.41, 0.16, 0.1, 0.33)],
    },
    # Zero and negative levels, and a family state with an exact a2 = 1/3.
    "zero_negative": {
        "payoffs": {"alpha": 4, "beta": 0, "gamma": -5},
        "initial_state": {"a2": 1 / 3},
    },
    # Levels 10^15 + {8, 3, 0}: the differences that decide the equilibria
    # are small against the common level.
    "large_offset": {
        "payoffs": {"alpha": 10**15 + 8, "beta": 10**15 + 3, "gamma": 10**15}
    },
    # Payoff differences 4e16 and 1: slopes that span sixteen decades.
    "wide_span": {"payoffs": {"alpha": 40000000000000000, "beta": 1, "gamma": 0}},
    "bimatrix_2x2": {
        "payoffs": {"payoff_a": [[3, 0], [5, 1]], "payoff_b": [[3, 5], [0, 1]]},
        "labels": {"a": ["C", "D"], "b": ["C", "D"]},
    },
    "pennies_2x2": {
        "payoffs": {"payoff_a": [[1.5, -1], [-1, 1]], "payoff_b": [[-1, 1], [1, -1]]}
    },
    "bimatrix_3x3": {
        "payoffs": {
            "payoff_a": [[4, 1, 0], [2, 3, 1], [0, 0, 5]],
            "payoff_b": [[1, 2, 0], [3, 0, 2], [0, 1, 4]],
        },
        "labels": {"a": ["U", "M", "D"], "b": ["L", "C", "R"]},
    },
    # Outcome probabilities 9/25, 0, 16/25, 0: rational, outside the family.
    "outside_rational": {
        "payoffs": BOS,
        "initial_state": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0], [0.0, 0.0]],
    },
    # A middle amplitude just inside and just outside the family's 1e-12.
    "middle_1e-13": {
        "payoffs": BOS,
        "initial_state": [[0.6, 0.0], [1e-13, 0.0], [0.0, 0.0], [0.8, 0.0]],
    },
    "middle_1e-11": {
        "payoffs": BOS,
        "initial_state": [[0.6, 0.0], [1e-11, 0.0], [0.0, 0.0], [0.8, 0.0]],
    },
    # A coefficient of modulus 1e-12 whose imaginary part is as large as its
    # real part: the table's state line must not print the real part alone.
    "small_complex": {
        "payoffs": BOS,
        "initial_state": [
            [0.7071067811865476, 0.0], [0.0, 0.0], [6.16724e-13, 8e-13], [0.7071067811865475, 0.0]
        ],
    },
    # The Prisoner's Dilemma at the balanced superposition: a 2x2 game whose
    # keep/flip corners (1,1) and (0,0) are not equilibria.
    "prisoners_dilemma": {
        "payoffs": {"payoff_a": [[3, 0], [5, 1]], "payoff_b": [[3, 5], [0, 1]]},
        "initial_state": "bell",
    },
    "dominated_3x3": {
        "payoffs": {
            "payoff_a": [[3, 2, 1], [1, 1, 0], [2, 3, 2]],
            "payoff_b": [[2, 1, 0], [1, 2, 0], [3, 2, 1]],
        }
    },
    # A key given twice: json would keep the last alpha, 7; the config is refused.
    "duplicate_key": '{"payoffs": {"alpha": 9, "beta": 2, "gamma": 1, "alpha": 7}}\n',
}

FORMATS = ("table", "json", "csv")
SIMULATE = ["--rounds", "1000", "--seed", "3", "--p", "0.3", "--q", "0.9"]
SWEEP_A2 = ["--steps", "11"]
SWEEP_A2_SHORT = ["--steps", "5"]
SWEEP_P = ["--param", "p", "--steps", "5", "--q", "0.2"]
SWEEP_Q = ["--param", "q", "--steps", "5", "--p", "0.7"]

# (command and options, config, formats)
RUNS = [
    (["classical"], "bell", FORMATS),
    (["classical"], "non_integer", FORMATS),
    (["classical"], "bimatrix_2x2", FORMATS),
    (["classical"], "pennies_2x2", ("table", "csv")),
    (["classical"], "bimatrix_3x3", FORMATS),
    (["classical"], "dominated_3x3", ("table",)),
    (["quantum"], "bell", FORMATS),
    (["quantum", "--mode", "entangled"], "family_08", FORMATS),
    (["quantum"], "family_inexact", ("table", "json")),
    (["quantum"], "non_integer", ("table", "csv")),
    (["quantum"], "large_scale", ("table", "json")),
    (["quantum"], "complex_in_family", ("table", "json")),
    (["quantum"], "complex_out_of_family", FORMATS),
    (["quantum"], "ranking_reorders", ("table", "json")),
    (["quantum"], "oo_default", ("table", "csv")),
    (["quantum"], "ot", ("table",)),
    (["quantum"], "to", ("json",)),
    (["quantum"], "tt", ("table",)),
    (["quantum", "--mode", "factorizable"], "bell", FORMATS),
    (["quantum", "--mode", "factorizable"], "non_integer", ("table",)),
    (["simulate", *SIMULATE], "bell", FORMATS),
    (["simulate", *SIMULATE], "complex_out_of_family", ("table", "json")),
    (["sweep", *SWEEP_A2], "bell", FORMATS),
    (["sweep", *SWEEP_A2], "non_integer", ("table",)),
    (["sweep", *SWEEP_P], "bell", FORMATS),
    (["sweep", *SWEEP_P], "complex_out_of_family", ("table",)),
    (["sweep", *SWEEP_Q], "family_08", ("csv",)),
    # At |OO> the corner (1,1) is no equilibrium of this game: no verdict.
    (["quantum"], "bimatrix_2x2", ("json",)),
    (["classical"], "zero_negative", FORMATS),
    (["quantum", "--mode", "factorizable"], "zero_negative", FORMATS),
    (["quantum"], "zero_negative", FORMATS),
    (["classical"], "large_offset", FORMATS),
    (["quantum", "--mode", "factorizable"], "large_offset", FORMATS),
    (["sweep", *SWEEP_A2_SHORT], "large_offset", ("csv", "json")),
    (["classical"], "wide_span", ("json",)),
    (["sweep", *SWEEP_A2_SHORT], "wide_span", ("csv",)),
    # The fixed p or q of a sweep is outside input: out of [0, 1] or NaN is exit 2.
    (["sweep", "--param", "p", "--steps", "5", "--q", "1.5"], "bell", ("csv",)),
    (["sweep", "--param", "q", "--steps", "3", "--p", "nan"], "bell", ("json",)),
    # One simulate case per binomial branch: n p below 10 and far above it.
    (["simulate", "--rounds", "5", *SIMULATE[2:]], "bell", ("json",)),
    (["simulate", "--rounds", "10000000", *SIMULATE[2:]], "complex_out_of_family", ("json",)),
    (["quantum"], "outside_rational", ("json", "csv")),
    (["quantum"], "middle_1e-13", ("json",)),
    (["quantum"], "middle_1e-11", ("json",)),
    (["quantum"], "small_complex", ("table",)),
    (["quantum"], "prisoners_dilemma", FORMATS),
    (["quantum", "--mode", "factorizable"], "prisoners_dilemma", ("table", "json")),
    (["simulate", *SIMULATE], "prisoners_dilemma", ("table", "json")),
    (["sweep", *SWEEP_P], "prisoners_dilemma", ("table", "csv")),
    (["classical"], "duplicate_key", ("json",)),
]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def build() -> list[dict]:
    cases = []
    for command, config, formats in RUNS:
        for fmt in formats:
            argv = [command[0], "--config", f"golden/{config}.json", *command[1:]]
            cases.append(run(argv + ["--format", fmt]))
    return cases


if __name__ == "__main__":
    (DATA / "golden").mkdir(exist_ok=True)
    for name, doc in CONFIGS.items():
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n"
        (DATA / "golden" / f"{name}.json").write_text(text)
    os.chdir(DATA)
    (DATA / "cli_golden.json").write_text(json.dumps(build(), indent=1) + "\n")
