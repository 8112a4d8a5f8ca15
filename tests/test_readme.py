"""The README's examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
#: Every fenced ``python`` block of the README, in order.
PYTHON_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE
)


def test_the_readme_has_a_python_example():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_each_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
