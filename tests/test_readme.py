"""The README's examples run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import qstatic
from qstatic.report_schema import REPORT_SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _fenced(language: str) -> list[str]:
    """Every fenced block of the README in ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)


PYTHON_BLOCKS = _fenced("python")
#: The config file example, which the CLI examples read as ``game.json``.
CONFIG_BLOCKS = _fenced("json")
#: The arguments of each ``qstatic`` line of the README's shell blocks.
CLI_LINES = [
    shlex.split(line)[1:]
    for block in _fenced("sh")
    for line in block.splitlines()
    if line.startswith("qstatic ")
]


def test_the_readme_has_a_python_example():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_each_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_the_readme_has_one_config_and_cli_examples_of_every_command():
    assert len(CONFIG_BLOCKS) == 1
    assert {args[0] for args in CLI_LINES} == {"classical", "quantum", "simulate", "sweep"}


@pytest.mark.parametrize("args", CLI_LINES, ids=lambda args: " ".join(args[:1] + args[3:]))
def test_each_cli_line_runs_on_the_readme_config(args, tmp_path):
    (tmp_path / "game.json").write_text(CONFIG_BLOCKS[0], encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(qstatic.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qstatic", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout and not done.stderr
    if "--format" in args and args[args.index("--format") + 1] == "json":
        jsonschema.validate(json.loads(done.stdout), REPORT_SCHEMA)
