"""Mutation check of the checks on the oracle routes: each mutant must make
one of its tests fail.

Usage, from the root of a git checkout:

    python tools/mutants.py

``MUTANTS`` is a fixed list. Each entry names one exact text in one file of
the package, its replacement, and the tests that must notice. The tool
exports the committed tree at ``HEAD`` with ``git archive`` into a
temporary directory, runs every listed test once unmutated, and then, for
each mutant, exports a fresh copy, applies the replacement and runs that
mutant's tests with ``pytest -x -q``. A mutant is killed when pytest reports
a failing test (exit code 1) and survives when every test passes; each line
gives the time its tests took.

The exit code is 1 when a mutant survives, when an original text does not
occur exactly once in its file, when the unmutated tests fail, or when
pytest ends any other way (a collection or usage error kills nothing). The
standard library, git and the test suite's own requirements are all it
needs; uncommitted changes are not seen.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    original: str
    replacement: str
    tests: tuple[str, ...]


_QUANTUM = "src/qstatic/quantum_core.py"
_DENSITY_TESTS = ("tests/test_quantum_core.py::TestDensityMatrix",)

#: The ten comparisons of ``DensityMatrix``'s Hermitian test.
_HERMITIAN_TEST = """\
        if not (
            abs(v00 - v00.conjugate()) <= tol
            and abs(v01 - v10.conjugate()) <= tol
            and abs(v02 - v20.conjugate()) <= tol
            and abs(v03 - v30.conjugate()) <= tol
            and abs(v11 - v11.conjugate()) <= tol
            and abs(v12 - v21.conjugate()) <= tol
            and abs(v13 - v31.conjugate()) <= tol
            and abs(v22 - v22.conjugate()) <= tol
            and abs(v23 - v32.conjugate()) <= tol
            and abs(v33 - v33.conjugate()) <= tol
        ):
"""

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "Hermitian test written as gap > tol, which lets NaN through",
        _QUANTUM,
        _HERMITIAN_TEST,
        _HERMITIAN_TEST.replace("if not (", "if (")
        .replace("<= tol", "> tol")
        .replace("and abs", "or abs"),
        _DENSITY_TESTS,
    ),
    Mutant(
        "Hermitian test drops the diagonal pair (2, 2)",
        _QUANTUM,
        "            and abs(v22 - v22.conjugate()) <= tol\n",
        "",
        _DENSITY_TESTS,
    ),
    Mutant(
        "Hermitian test pairs (1, 2) with itself, not its mirror (2, 1)",
        _QUANTUM,
        "abs(v12 - v21.conjugate())",
        "abs(v12 - v12.conjugate())",
        _DENSITY_TESTS,
    ),
    Mutant(
        "off-diagonal test always false",
        _QUANTUM,
        "        if v01 or v02 or v03 or v10 or v12 or v13 or v20 or v21 or v23 or v30 or v31 or v32:\n",
        "        if False:\n",
        _DENSITY_TESTS,
    ),
    Mutant(
        "StateVector norm check removed",
        "src/qstatic/outcomes.py",
        "        if not abs(norm_sq - 1.0) <= STATE_NORM_TOL:\n",
        "        if False:\n",
        ("tests/test_quantum_core.py::TestStateVector",),
    ),
    Mutant(
        "expected_payoffs swaps the mixing weights of cells (1, 0) and (0, 1)",
        "src/qstatic/game_core.py",
        "    w11, w10, w01, w00 = p * q,",
        "    w11, w01, w10, w00 = p * q,",
        ("tests/test_game_core.py::TestExpectedPayoffs",),
    ),
    Mutant(
        "MixProbabilities drops q from its joint bounds test",
        "src/qstatic/game_core.py",
        "        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):\n",
        "        if not 0.0 <= self.p <= 1.0:\n",
        ("tests/test_game_core.py::TestExpectedPayoffs",),
    ),
    Mutant(
        "LocalUnitary norm drops the imaginary part of b",
        _QUANTUM,
        " + b.real * b.real + b.imag * b.imag\n",
        " + b.real * b.real\n",
        ("tests/test_quantum_core.py::TestLocalUnitaries",),
    ),
    Mutant(
        "PayoffOperator finiteness check removed",
        _QUANTUM,
        "        if not all(map(math.isfinite, values)):\n",
        "        if False:\n",
        ("tests/test_quantum_core.py::TestPayoffOperators",),
    ),
    Mutant(
        "trace_payoffs residue check skipped",
        _QUANTUM,
        '    _check_imaginary_residue(max(abs(value_a.imag), abs(value_b.imag)), "trace", pa, pb)\n',
        "",
        ("tests/test_quantum_core.py::TestTracePayoffs",),
    ),
    Mutant(
        "trace_payoffs pairs the row payoffs of TO and TT with the wrong outcomes",
        _QUANTUM,
        "value_a = (x0 * d0 + x1 * d1) + (x2 * d2 + x3 * d3)",
        "value_a = (x0 * d0 + x1 * d1) + (x2 * d3 + x3 * d2)",
        ("tests/test_quantum_core.py::TestTracePayoffs",),
    ),
    Mutant(
        "bilinear_payoff_coefficients reads the row payoffs for both players",
        _QUANTUM,
        "payoffs_a, payoffs_b = pa._values, pb._values",
        "payoffs_a, payoffs_b = pa._values, pa._values",
        ("tests/test_quantum_core.py::TestBilinearCoefficients",),
    ),
)


def export(archive: bytes, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_tests(root: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code and its first failing test (or its last line)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, (failed or lines or [""])[0 if failed else -1]


def main() -> int:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", "HEAD", "src", "tests", "pyproject.toml"],
        check=True,
        capture_output=True,
    ).stdout
    start = time.monotonic()
    faults = 0
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        base = Path(tmp) / "base"
        export(archive, base)
        for mutant in MUTANTS:
            count = (base / mutant.file).read_text().count(mutant.original)
            if count != 1:
                print(f"stale    {mutant.name}: original text found {count} times in {mutant.file}")
                faults += 1
        if faults:
            return 1
        every_test = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        code, detail = run_tests(base, every_test)
        if code != 0:
            print(f"baseline tests do not pass (pytest exit {code}): {detail}")
            return 1
        for i, mutant in enumerate(MUTANTS):
            root = Path(tmp) / f"mutant{i}"
            export(archive, root)
            path = root / mutant.file
            path.write_text(path.read_text().replace(mutant.original, mutant.replacement))
            began = time.monotonic()
            code, detail = run_tests(root, mutant.tests)
            took = f"({time.monotonic() - began:.1f} s)"
            if code == 1:
                print(f"killed   {mutant.name} {took}\n         by {detail}")
            elif code == 0:
                print(f"SURVIVED {mutant.name} {took}")
                faults += 1
            else:
                print(f"error    {mutant.name} {took}: pytest exit {code}: {detail}")
                faults += 1
    print(
        f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed "
        f"in {time.monotonic() - start:.0f} s"
    )
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
