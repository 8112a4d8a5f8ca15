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
    "dominated_3x3": {
        "payoffs": {
            "payoff_a": [[3, 2, 1], [1, 1, 0], [2, 3, 2]],
            "payoff_b": [[2, 1, 0], [1, 2, 0], [3, 2, 1]],
        }
    },
}

FORMATS = ("table", "json", "csv")
SIMULATE = ["--rounds", "1000", "--seed", "3", "--p", "0.3", "--q", "0.9"]
SWEEP_A2 = ["--steps", "11"]
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
    (["quantum"], "bimatrix_2x2", ("json",)),  # exit 2: needs {alpha, beta, gamma}
    (["classical"], "zero_negative", FORMATS),
    (["quantum", "--mode", "factorizable"], "zero_negative", FORMATS),
    (["quantum"], "zero_negative", FORMATS),
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
        (DATA / "golden" / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
    os.chdir(DATA)
    (DATA / "cli_golden.json").write_text(json.dumps(build(), indent=1) + "\n")
