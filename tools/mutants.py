"""Mutation check of the test suite: each mutant of the oracle routes' checks,
the mixing map, the payoff surfaces, the enumerator and its ranking, the
payoff-scale rules, the sampler and the CLI's reading of the configured state
and game must make one of its tests fail.

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
_EQUILIBRIA = "src/qstatic/equilibria.py"
_MONTECARLO = "src/qstatic/montecarlo.py"
_CLI = "src/qstatic/cli.py"
_OUTCOMES = "src/qstatic/outcomes.py"
_GAME_CORE = "src/qstatic/game_core.py"
_PAYOFF_FORM_TESTS = "tests/test_cli.py::TestPayoffForms"
_CHECKS_TESTS = "tests/test_checks.py::TestAcceptTestsMatchTheCheckSequences"
_SAMPLER_TESTS = ("tests/test_montecarlo.py::TestBinomialSampler",)
_DENSITY_TESTS = ("tests/test_quantum_core.py::TestDensityMatrix",)
_CERTIFICATE_TESTS = ("tests/test_quantum_core.py::TestPositivityCertificate",)
_FROZEN_VALUE_TESTS = "tests/test_game_core.py::TestFrozenValue"
_SLOT_TESTS = "tests/test_game_core.py::TestFieldOrder::test_each_slot_reads_back_its_argument"

#: The ten comparisons of ``DensityMatrix``'s Hermitian test.
_HERMITIAN_TEST = """\
            hermitian = (
                abs(v00 - v00.conjugate()) <= tol
                and abs(v11 - v11.conjugate()) <= tol
                and abs(v22 - v22.conjugate()) <= tol
                and abs(v33 - v33.conjugate()) <= tol
                and (
                    not off_diagonal
                    or abs(v01 - v10.conjugate()) <= tol
                    and abs(v02 - v20.conjugate()) <= tol
                    and abs(v03 - v30.conjugate()) <= tol
                    and abs(v12 - v21.conjugate()) <= tol
                    and abs(v13 - v31.conjugate()) <= tol
                    and abs(v23 - v32.conjugate()) <= tol
                )
            )
"""

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "Hermitian test written as gap > tol, which lets NaN through",
        _QUANTUM,
        _HERMITIAN_TEST,
        _HERMITIAN_TEST.replace("hermitian = (", "hermitian = not (")
        .replace("<= tol", "> tol")
        .replace("and abs", "or abs"),
        _DENSITY_TESTS,
    ),
    Mutant(
        "Hermitian test drops the diagonal pair (2, 2)",
        _QUANTUM,
        "                and abs(v22 - v22.conjugate()) <= tol\n",
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
        "an overflowing Hermitian gap lets its OverflowError escape",
        _QUANTUM,
        "        except OverflowError:\n",
        "        except ZeroDivisionError:\n",
        ("tests/test_quantum_core.py::TestDensityMatrix::"
         "test_overflowing_conjugate_gap_rejected_without_a_warning",),
    ),
    Mutant(
        "off-diagonal test always false",
        _QUANTUM,
        "        if off_diagonal:\n",
        "        if False:\n",
        _DENSITY_TESTS,
    ),
    Mutant(
        "the Hermitian pair terms skipped even when an entry off the diagonal is nonzero",
        _QUANTUM,
        "                    not off_diagonal\n",
        "                    True\n",
        _DENSITY_TESTS,
    ),
    Mutant(
        "the density array built on first read left writable",
        _QUANTUM,
        "        m.setflags(write=False)\n",
        "",
        ("tests/test_quantum_core.py::TestNumpyOnlyWhereAnArrayIsRead::"
         "test_arrays_built_on_read_are_read_only_and_kept",),
    ),
    Mutant(
        "the positivity certificate without its margin above the floor",
        _QUANTUM,
        "    shift = EIGENVALUE_FLOOR + _CERTIFICATE_MARGIN\n",
        "    shift = EIGENVALUE_FLOOR\n",
        _CERTIFICATE_TESTS,
    ),
    Mutant(
        "a failed positivity certificate rejects at once, without eigvalsh",
        _QUANTUM,
        "                smallest = float(np.linalg.eigvalsh(np.array(rows, dtype=complex))[0])\n",
        "                smallest = -math.inf\n",
        _CERTIFICATE_TESTS,
    ),
    Mutant(
        "a Schur complement of the certificate drops its term a30 conj(a10) / d",
        _QUANTUM,
        "    b31 = a31 - l3 * a10.conjugate()\n",
        "    b31 = a31\n",
        _CERTIFICATE_TESTS,
    ),
    Mutant(
        "StateVector norm check removed",
        _OUTCOMES,
        "        if not abs(norm_sq - 1.0) <= STATE_NORM_TOL:\n",
        "        if False:\n",
        ("tests/test_quantum_core.py::TestStateVector",),
    ),
    Mutant(
        "expected_payoffs swaps the mixing weights of cells (1, 0) and (0, 1)",
        _GAME_CORE,
        "    w11, w10, w01, w00 = p * q,",
        "    w11, w01, w10, w00 = p * q,",
        ("tests/test_game_core.py::TestExpectedPayoffs",),
    ),
    Mutant(
        "MixProbabilities drops q from its joint bounds test",
        _GAME_CORE,
        "        if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):\n",
        "        if not 0.0 <= p <= 1.0:\n",
        ("tests/test_game_core.py::TestExpectedPayoffs",),
    ),
    Mutant(
        "GamePayoffs' accept test without the finite range alpha - gamma",
        _GAME_CORE,
        "            and alpha > beta > gamma and isfinite(alpha - gamma)\n",
        "            and alpha > beta > gamma\n",
        (
            "tests/test_game_core.py::TestBosBimatrix::test_levels_need_only_a_finite_range",
            f"{_CHECKS_TESTS}::test_game_payoffs",
        ),
    ),
    Mutant(
        "BilinearPayoff's finiteness test without base",
        _GAME_CORE,
        "            and isfinite(base)\n",
        "",
        (f"{_CHECKS_TESTS}::test_bilinear_payoff",),
    ),
    Mutant(
        "the enumerator's exact test without its isinstance tests, so int corners run exact",
        _EQUILIBRIA,
        "    exact = type(x00) is not float and isinstance(x00, Fraction) and isinstance(y00, Fraction)\n",
        "    exact = type(x00) is not float\n",
        ("tests/test_equilibria.py::TestEnumerator::"
         "test_int_corners_give_floats_and_fraction_corners_fractions",),
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
        "        if not (isfinite(v0) and isfinite(v1) and isfinite(v2) and isfinite(v3)):\n",
        "        if False:\n",
        ("tests/test_quantum_core.py::TestPayoffOperators",),
    ),
    Mutant(
        "trace_payoffs residue check skipped",
        _QUANTUM,
        '        if residue > IMAG_PART_TOL:\n            _check_imaginary_residue(residue, "trace", pa, pb)\n',
        "",
        ("tests/test_quantum_core.py::TestTracePayoffs",),
    ),
    Mutant(
        "the trace residue skipped although the last imaginary part is nonzero",
        _QUANTUM,
        "    if i0 or i1 or i2 or i3:\n",
        "    if i0 or i1 or i2:\n",
        ("tests/test_quantum_core.py::TestTracePayoffs::test_flags_a_residue_at_each_diagonal_position",),
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
    Mutant(
        "trace_payoffs reads the kept diagonal out of order",
        _QUANTUM,
        "    d0, d1, d2, d3 = rho._real\n",
        "    d0, d2, d1, d3 = rho._real\n",
        ("tests/test_quantum_core.py::TestTracePayoffs",),
    ),
    Mutant(
        "flipped swaps the row and column bits",
        _OUTCOMES,
        "    s = 2 * int(row_flips) + int(col_flips)\n",
        "    s = int(row_flips) + 2 * int(col_flips)\n",
        ("tests/test_quantum_core.py::TestMixedFinalDensity",),
    ),
    Mutant(
        "corner_means lists the corners (1,0) and (0,1) in each other's place",
        _OUTCOMES,
        "        (x0 * d1 + x1 * d0) + (x2 * d3 + x3 * d2),\n"
        "        (x0 * d2 + x1 * d3) + (x2 * d0 + x3 * d1),\n",
        "        (x0 * d2 + x1 * d3) + (x2 * d0 + x3 * d1),\n"
        "        (x0 * d1 + x1 * d0) + (x2 * d3 + x3 * d2),\n",
        ("tests/test_quantum_core.py::TestCornerMeans",),
    ),
    Mutant(
        "an edge slope read against its surface's four corners, not its own two",
        _EQUILIBRIA,
        "    flat_a1, flat_a0 = abs(a1) <= r * (a11 + a01), abs(a0) <= r * (a10 + a00)\n",
        "    flat_a1, flat_a0 = abs(a1) <= tol_a, abs(a0) <= tol_a\n",
        ("tests/test_equilibria.py::TestEnumerator",),
    ),
    Mutant(
        "both surfaces take the row player's power of two",
        _EQUILIBRIA,
        "        shift_a, shift_b = _shift(tol_a, a11, a10, a01, a00), _shift(tol_b, b11, b10, b01, b00)\n",
        "        shift_a = shift_b = _shift(tol_a, a11, a10, a01, a00)\n",
        ("tests/test_equilibria.py::TestEnumerator",),
    ),
    Mutant(
        "MERGE_TOL loosened tenfold",
        _EQUILIBRIA,
        "MERGE_TOL = 1e-12\n",
        "MERGE_TOL = 1e-11\n",
        ("tests/test_equilibria.py::TestUniqueSolution",),
    ),
    Mutant(
        "the closed-form oracles' product rule removed",
        _EQUILIBRIA,
        "    if not all(map(math.isfinite, products)):\n",
        "    if False:\n",
        ("tests/test_equilibria.py::TestEntangledClosedForms",),
    ),
    Mutant(
        "NashPoint drops q_star from its joint bounds test",
        _EQUILIBRIA,
        "        if not 0.0 <= p_star <= 1.0 or not 0.0 <= q_star <= 1.0:\n",
        "        if not 0.0 <= p_star <= 1.0:\n",
        ("tests/test_quantum_core.py::TestOnePassConstruction",),
    ),
    Mutant(
        "the enumerator lists the q = 0 edge family at q = 1",
        _EQUILIBRIA,
        "        found.append((half, zero, _FAMILY))\n",
        "        found.append((half, one, _FAMILY))\n",
        ("tests/test_equilibria.py::TestEnumerator::test_indifferent_player_merges_an_edge",),
    ),
    Mutant(
        "rank_equilibria's inner index starts at i, which gives each point a gap to itself",
        _EQUILIBRIA,
        "        for j in range(i + 1, n)\n",
        "        for j in range(i, n)\n",
        ("tests/test_equilibria.py::TestRanking",),
    ),
    Mutant(
        "ranking by the payoff sum, which overflows, after the smaller payoff",
        _EQUILIBRIA,
        "    return (a, b, n.p_star, n.q_star) if a <= b else (b, a, n.p_star, n.q_star)\n",
        "    return (min(a, b), a + b, n.p_star, n.q_star)\n",
        ("tests/test_equilibria.py::TestRanking",),
    ),
    Mutant(
        "the payoff range check shared by GamePayoffs and Bimatrix removed",
        _GAME_CORE,
        "    if not math.isfinite(max(payoffs) - min(payoffs)):\n",
        "    if False:\n",
        (
            "tests/test_game_core.py::TestBimatrixValidation",
            "tests/test_game_core.py::TestBosBimatrix",
        ),
    ),
    Mutant(
        "simulate's statistics summed in plain payoffs, not in a power-of-two unit",
        _MONTECARLO,
        "        e = math.frexp(max(abs(v) for c, v in zip(counts, payoffs) if c))[1]\n",
        "        e = 0\n",
        ("tests/test_montecarlo.py::TestPayoffScale",),
    ),
    Mutant(
        "BTRS acceptance reads CPython's lgamma-difference pmf",
        _MONTECARLO,
        "        _stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)\n"
        "        - _deviance(k, n * p) - _deviance(n - k, n * (1.0 - p))\n"
        "        + 0.5 * math.log(n / (2 * math.pi * k * (n - k)))\n",
        "        math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)\n"
        "        + k * math.log(p) + (n - k) * math.log1p(-p)\n",
        ("tests/test_montecarlo.py::TestBinomialSampler::"
         "test_largest_trial_count_follows_the_normal_limit",),
    ),
    Mutant(
        "log(1 - p) as the geometric rate",
        _MONTECARLO,
        "        rate = math.log1p(-p)\n",
        "        rate = math.log(1 - p)\n",
        _SAMPLER_TESTS,
    ),
    Mutant(
        "the mirror above p = 1/2 drops its n -",
        _MONTECARLO,
        "        return n - _binomial(rng, n, 1.0 - p)\n",
        "        return _binomial(rng, n, 1.0 - p)\n",
        _SAMPLER_TESTS,
    ),
    Mutant(
        "an outcome of probability 0 gets a count",
        _MONTECARLO,
        "    if p <= 0.0:\n        return 0\n",
        "    if p <= 0.0:\n        return min(n, 1)\n",
        ("tests/test_montecarlo.py::test_impossible_outcomes_get_no_counts",),
    ),
    Mutant(
        "payoff_surfaces measures the corners from 0, not from the smallest payoff",
        _OUTCOMES,
        "    base_a, base_b = min(payoffs_a), min(payoffs_b)\n",
        "    base_a = base_b = 0\n",
        ("tests/test_game_core.py::TestBilinearPayoff",),
    ),
    Mutant(
        "BilinearPayoff.value drops its base",
        _GAME_CORE,
        "        return self.base + (\n",
        "        return (\n",
        ("tests/test_game_core.py::TestBilinearPayoff",),
    ),
    Mutant(
        "no round-off allowance on the enumerator's slopes",
        _EQUILIBRIA,
        "_ROUNDOFF = 8 * sys.float_info.epsilon\n",
        "_ROUNDOFF = 0.0\n",
        ("tests/test_equilibria.py::TestEnumerator",),
    ),
    Mutant(
        "the merge test reads the amplitudes' moduli, not their phases",
        _EQUILIBRIA,
        "    a0, a1, a2, a3 = vector.amplitudes\n",
        "    a0, a1, a2, a3 = [abs(a) for a in vector.amplitudes]\n",
        ("tests/test_equilibria.py::TestUniqueSolution",),
    ),
    Mutant(
        "montecarlo imported at the top of cli",
        _CLI,
        "from .report_schema import SCHEMA_VERSION\n",
        "from . import montecarlo  # noqa: F401\nfrom .report_schema import SCHEMA_VERSION\n",
        ("tests/test_cli.py::TestNumpyFreeImportPath",),
    ),
    Mutant(
        "_tactic_state keeps the sign of a zero product",
        _CLI,
        "    return StateVector([r * c + 0.0 for r in row for c in col])\n",
        "    return StateVector([r * c for r in row for c in col])\n",
        ("tests/test_cli.py::TestQuantumCommand",),
    ),
    Mutant(
        "_tactic_state gives the row player q and the column player p",
        _CLI,
        "    row = (math.sqrt(p), -math.sqrt(1 - p))\n"
        "    col = (math.sqrt(q), -math.sqrt(1 - q))\n",
        "    row = (math.sqrt(q), -math.sqrt(1 - q))\n"
        "    col = (math.sqrt(p), -math.sqrt(1 - p))\n",
        ("tests/test_cli.py::TestQuantumCommand",),
    ),
    Mutant(
        "the a2 sweep's kinds check removed",
        _CLI,
        "            if not (\n                len(points) == 3\n",
        "            if False and (\n                len(points) == 3\n",
        ("tests/test_cli.py::TestSweepCommand",),
    ),
    Mutant(
        "StateVector.bell() back to 1/sqrt(2), one ulp from the bell preset",
        _OUTCOMES,
        "        return cls.oo_tt(math.sqrt(0.5), math.sqrt(0.5))\n",
        "        return cls.oo_tt(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))\n",
        ("tests/test_cli.py::TestConfigLoading",),
    ),
    Mutant(
        "the exact columns read any probability up to 4 eps as 0",
        _CLI,
        "    exact = [_fraction(x, PROBABILITY_ROUNDOFF) or None if x > ZERO_AMPLITUDE**2 else Fraction(0)\n"
        "             for x in probabilities]\n",
        "    exact = [_fraction(x, PROBABILITY_ROUNDOFF) for x in probabilities]\n",
        ("tests/test_cli.py::TestQuantumCommand",),
    ),
    Mutant(
        "the table's state line tests |a| against 1e-12, not the family test's re^2 + im^2",
        _CLI,
        "        if re * re + im * im > ZERO_AMPLITUDE**2:\n",
        "        if abs(complex(re, im)) > ZERO_AMPLITUDE:\n",
        ("tests/test_cli.py::TestQuantumCommand",),
    ),
    Mutant(
        "simulate clamps the mean to (-1, 1) units, not to the counted payoffs",
        _MONTECARLO,
        "        mean = min(max(mean, min(v for _, v in units)), max(v for _, v in units))\n",
        "        mean = min(max(mean, 2**-53 - 1), 1 - 2**-53)\n",
        ("tests/test_montecarlo.py::TestDeterministicCases",),
    ),
    Mutant(
        "the outcome payoffs read the tables column by column, OT and TO swapped",
        _GAME_CORE,
        "        return a0 + a1, b0 + b1\n",
        "        return (a0[0], a1[0], a0[1], a1[1]), (b0[0], b1[0], b0[1], b1[1])\n",
        (
            "tests/test_game_core.py::TestOutcomePayoffs",
            f"{_PAYOFF_FORM_TESTS}::test_outcome_order_reaches_simulate_and_sweep",
        ),
    ),
    Mutant(
        "SimulationConfig takes payoffs without its 2x2 Bimatrix check",
        _MONTECARLO,
        "        if not (isinstance(payoffs, Bimatrix) and payoffs.is_2x2):\n",
        "        if False:\n",
        ("tests/test_montecarlo.py::TestValidation",),
    ),
    Mutant(
        "the quantum verdict given without both keep/flip corners among the equilibria",
        _CLI,
        '    elif {(1, 1), (0, 0)} <= {(n.p_star, n.q_star) for n in points if n.kind.value == "corner"}:\n',
        "    elif True:\n",
        ("tests/test_cli.py::TestQuantumCommand::"
         "test_prisoners_dilemma_lists_its_equilibria_without_a_verdict",),
    ),
    Mutant(
        "the a2 sweep runs a bimatrix, not only the levels",
        _CLI,
        '    if args.param == "a2" and cfg.params is None:\n',
        "    if False:\n",
        (f"{_PAYOFF_FORM_TESTS}::test_a_bimatrix_a2_sweep_exits_2_naming_the_option",),
    ),
    Mutant(
        "the exact columns read an entry from 2^53 up as its binary value",
        _CLI,
        "    near = Fraction(repr(x)) if abs(x) >= 2**53 else",
        "    near = Fraction(x) if abs(x) >= 2**53 else",
        ("tests/test_cli.py::TestClassicalCommand::"
         "test_entries_from_two_to_the_53_read_as_their_shortest_decimal",),
    ),
    Mutant(
        "a frozen value's __setattr__ writes the field",
        _GAME_CORE,
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        (_FROZEN_VALUE_TESTS,),
    ),
    Mutant(
        "a frozen value's __eq__ skips the last field",
        _GAME_CORE,
        "        return _field_values(self) == _field_values(other)\n",
        "        return _field_values(self)[:-1] == _field_values(other)[:-1]\n",
        (_FROZEN_VALUE_TESTS,),
    ),
    Mutant(
        "BilinearPayoff's at_10 and at_01 setters swapped",
        _GAME_CORE,
        "_set_at_11, _set_at_10, _set_at_01, _set_at_00, _set_base = slot_setters(BilinearPayoff)\n",
        "_set_at_11, _set_at_01, _set_at_10, _set_at_00, _set_base = slot_setters(BilinearPayoff)\n",
        (f"{_SLOT_TESTS}[BilinearPayoff]",),
    ),
    Mutant(
        "NashPoint's payoff_a and payoff_b setters swapped",
        _EQUILIBRIA,
        "_set_p_star, _set_q_star, _set_payoff_a, _set_payoff_b, _set_kind = slot_setters(NashPoint)\n",
        "_set_p_star, _set_q_star, _set_payoff_b, _set_payoff_a, _set_kind = slot_setters(NashPoint)\n",
        (f"{_SLOT_TESTS}[NashPoint]",),
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
        ["git", "archive", "--format=tar", "HEAD", "src", "tests", "tools", "pyproject.toml"],
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
