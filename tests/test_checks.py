"""Each validated value type accepts a valid value with one test and names the
fault only when that test fails. These properties hold each constructor to
the check sequence it stands for, kept here as written before the accept
tests: the same values accepted, with the same fields, and every other
value refused with the same exception type and message."""

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qstatic.errors import ConstraintViolation
from qstatic.game_core import BilinearPayoff, GamePayoffs
from qstatic.outcomes import STATE_NORM_TOL, StateVector
from qstatic.quantum_core import DensityMatrix, PayoffOperator

from helpers import reference_density_check

# ---------------------------------------------------------------------------
# the check sequences, one function per type; each returns the accepted fields


def game_payoffs_checks(alpha, beta, gamma):
    payoffs = [alpha, beta, gamma]
    if not all(map(math.isfinite, payoffs)):
        raise ConstraintViolation(f"the levels alpha, beta, gamma must be finite, got {payoffs}")
    if not math.isfinite(max(payoffs) - min(payoffs)):
        raise ConstraintViolation(
            "payoff scale too large: the range of the levels alpha, beta, gamma overflows "
            f"a float, got {min(payoffs)} to {max(payoffs)}"
        )
    if not (alpha > beta > gamma):
        raise ConstraintViolation(
            "payoff parameters must satisfy alpha > beta > gamma, got "
            f"alpha={alpha}, beta={beta}, gamma={gamma}"
        )
    return alpha, beta, gamma


def bilinear_payoff_checks(at_11, at_10, at_01, at_00, base=0):
    vals = (at_11, at_10, at_01, at_00, base)
    if not all(map(math.isfinite, vals)):
        raise ConstraintViolation(f"corner payoffs must be finite, got {vals}")
    return vals


def payoff_operator_checks(diagonal):
    d = np.array(diagonal, dtype=float)
    if d.shape != (4,):
        raise ConstraintViolation(
            f"a payoff operator needs 4 diagonal entries, got shape {d.shape}"
        )
    values = tuple(d.tolist())
    if not all(map(math.isfinite, values)):
        raise ConstraintViolation("payoff operator entries must be finite")
    return d.tolist(), values


def density_matrix_checks(entries):
    """The checks on numpy's conversion of the entries; the accepted fields
    are the matrix and its diagonal's real and imaginary parts."""
    with np.errstate(invalid="ignore"):
        m = reference_density_check(entries)
    diagonal = m.diagonal()
    return m.tobytes(), tuple(diagonal.real.tolist()), tuple(diagonal.imag.tolist())


def state_vector_checks(amplitudes):
    amps = tuple(map(complex, amplitudes))
    if len(amps) != 4:
        raise ConstraintViolation(f"a joint state needs exactly 4 amplitudes, got {len(amps)}")
    probabilities = tuple([a.real * a.real + a.imag * a.imag for a in amps])
    norm_sq = sum(probabilities)
    if not abs(norm_sq - 1.0) <= STATE_NORM_TOL:
        raise ConstraintViolation(
            f"state vector is not normalized: sum of squared moduli = {norm_sq!r}"
        )
    return amps, probabilities


def verdict(build, *args):
    """("accepted", repr of the fields) or the exception's type and message;
    repr tells -0.0 from 0.0."""
    try:
        fields = build(*args)
    except Exception as exc:  # the type is part of the verdict
        return type(exc), str(exc)
    return "accepted", repr(fields)


# ---------------------------------------------------------------------------
# draws

BIG = sys.float_info.max
SPECIAL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
    BIG, -BIG, 1.7e308, -1.7e308, 1.0, -1.0,
]
#: Beyond float range: every conversion to float overflows.
huge_ints = st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))
huge_fractions = st.builds(Fraction, huge_ints, st.integers(1, 7))
numbers = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(),
    st.integers(-(2**60), 2**60),
    huge_ints,
    st.fractions(),
    huge_fractions,
)
ordered_numbers = numbers.filter(lambda x: x == x)


@st.composite
def levels(draw):
    """Any three levels; three ordered ones; three ordered finite floats whose
    range overflows; or three beyond float range a few apart."""
    form = draw(st.sampled_from(["any", "ordered", "wide", "close"]))
    if form == "any":
        return draw(st.tuples(numbers, numbers, numbers))
    if form == "wide":
        return draw(st.tuples(st.floats(1e308, BIG), st.floats(-1e308, 1e308), st.floats(-BIG, -1e308)))
    if form == "ordered":
        return tuple(sorted(draw(st.lists(ordered_numbers, min_size=3, max_size=3)), reverse=True))
    top = draw(huge_ints | huge_fractions)
    return top, top - draw(st.integers(1, 3)), top - 4


@st.composite
def entries(draw, sizes):
    """Any numbers, or finite floats with one NaN or infinity at a drawn place."""
    size = draw(st.sampled_from(sizes))
    if draw(st.booleans()):
        return draw(st.lists(numbers, min_size=size, max_size=size))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size,
                           max_size=size))
    values[draw(st.integers(0, size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return values


def _normalized(values):
    norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in values))
    return [a / norm for a in values] if 0 < norm < math.inf else values


components = st.floats(-1, 1) | st.sampled_from(SPECIAL) | st.integers(-1, 1) | st.fractions(-1, 1)
amplitude = st.builds(complex, components, components)


@st.composite
def amplitude_lists(draw):
    """Amplitudes, 3 to 5 of them: raw, normalized, or normalized and then
    moved near the norm tolerance."""
    amps = draw(st.lists(amplitude, min_size=3, max_size=5))
    form = draw(st.sampled_from(["raw", "normalized", "nudged"]))
    if form != "raw":
        amps = _normalized(amps)
    if form == "nudged":
        amps[0] += draw(st.sampled_from([1e-13, -1e-13, 1e-12, 4e-13, 1e-11, math.nan]))
    return amps


#: Entries numpy's conversion reads its own way: bools, strings numeric and
#: not, Fractions, ints, complex numbers and values that are not finite.
converted = st.one_of(
    st.sampled_from([True, False, 0, 1, "0", "0.25", " 0.5", "1+0j", "nan", "-inf",
                     Fraction(1, 4), math.nan, math.inf, -math.inf, -0.0, 0.25j]),
    st.sampled_from(["abc", "0x1p-2", "1_0"]),
    st.floats(-1, 1),
    st.complex_numbers(max_magnitude=1),
)


def _spelled(draw, x):
    """The real number x as a complex, a float, a Fraction, a string, or an
    int or a bool where it is one."""
    forms = [complex(x), float(x), Fraction(x), str(float(x))]
    if x == int(x):
        forms += [int(x), bool(x)] if x in (0, 1) else [int(x)]
    return draw(st.sampled_from(forms))


#: Unit-trace diagonals; a pair of modulus 0.125 at (0, 1) and (1, 0) leaves
#: each of them positive but the third, which it gives a negative eigenvalue.
_DIAGONALS = [(0.25, 0.25, 0.25, 0.25), (0.5, 0.5, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0),
              (0.125, 0.375, 0.25, 0.25)]


@st.composite
def density_inputs(draw):
    """A valid density, diagonal or with one Hermitian pair, every entry
    spelled as one of the types numpy converts, up to two entries replaced,
    and the whole held as 4 row tuples or lists, 16 values, or a wrong
    number of rows or columns. In half the draws every entry is complex."""
    d = draw(st.sampled_from(_DIAGONALS))
    rows = [[d[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    if draw(st.booleans()):
        rows[0][1], rows[1][0] = draw(st.sampled_from([(0.125, 0.125), (0.125j, -0.125j)]))
    exact = draw(st.booleans())
    rows = [[complex(x) if exact or type(x) is complex else _spelled(draw, x) for x in row]
            for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, 3))][draw(st.integers(0, 3))] = draw(
            st.complex_numbers(allow_nan=True, allow_infinity=True) if exact else converted
        )
    form = draw(st.sampled_from(["tuples"] * 4 + ["lists", "tuple of lists", "flat", "3 rows",
                                                  "5 columns", "ragged"]))
    if form == "lists":
        return rows
    if form == "tuple of lists":
        return tuple(rows)
    if form == "flat":
        return tuple(x for row in rows for x in row)
    if form == "3 rows":
        return tuple(map(tuple, rows[:3]))
    if form == "5 columns":
        return tuple(tuple(row) + (0j,) for row in rows)
    if form == "ragged":
        return tuple(tuple(row[:3]) if i == 2 else tuple(row) for i, row in enumerate(rows))
    return tuple(map(tuple, rows))


@st.composite
def payoff_inputs(draw):
    """Four floats as a tuple, half the time; otherwise 3 to 5 converted
    entries or numbers as a tuple, a list or a column."""
    if draw(st.booleans()):
        return draw(st.tuples(*[st.floats() | st.sampled_from(SPECIAL)] * 4))
    values = draw(st.lists(converted | numbers, min_size=3, max_size=5))
    form = draw(st.sampled_from(["tuple", "list", "column"]))
    if form == "column":
        return tuple((x,) for x in values)
    return tuple(values) if form == "tuple" else values


# ---------------------------------------------------------------------------


class TestAcceptTestsMatchTheCheckSequences:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(args=levels())
    def test_game_payoffs(self, args):
        def build(*a):
            v = GamePayoffs(*a)
            return v.alpha, v.beta, v.gamma

        assert verdict(build, *args) == verdict(game_payoffs_checks, *args)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(args=entries([4, 5]))
    def test_bilinear_payoff(self, args):
        def build(*a):
            v = BilinearPayoff(*a)
            return v.at_11, v.at_10, v.at_01, v.at_00, v.base

        assert verdict(build, *args) == verdict(bilinear_payoff_checks, *args)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(diagonal=entries([3, 4, 5]))
    def test_payoff_operator(self, diagonal):
        def build(d):
            v = PayoffOperator(d)
            return v.diagonal.tolist(), v._values

        assert verdict(build, diagonal) == verdict(payoff_operator_checks, diagonal)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(diagonal=payoff_inputs())
    def test_payoff_operator_reads_as_numpy_converts(self, diagonal):
        def build(d):
            v = PayoffOperator(d)
            return v.diagonal.tolist(), v._values

        assert verdict(build, diagonal) == verdict(payoff_operator_checks, diagonal)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(entries=density_inputs())
    def test_density_matrix_reads_as_numpy_converts(self, entries):
        def build(e):
            v = DensityMatrix(e)
            return v.entries.tobytes(), v._real, v._imag

        assert verdict(build, entries) == verdict(density_matrix_checks, entries)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(amplitudes=amplitude_lists())
    def test_state_vector(self, amplitudes):
        def build(a):
            v = StateVector(a)
            return v.amplitudes, v.probabilities

        assert verdict(build, amplitudes) == verdict(state_vector_checks, amplitudes)

    def test_draws_reach_every_verdict(self):
        # The properties above only mean something if their draws reach each
        # way a check can end; count them on the same seeded examples.
        seen = set()

        def note(outcome):
            seen.add(outcome[0] if outcome[0] == "accepted" else outcome[1])

        @settings(derandomize=True, max_examples=300, deadline=None)
        @given(args=levels())
        def levels_seen(args):
            note(verdict(game_payoffs_checks, *args))

        @settings(derandomize=True, max_examples=300, deadline=None)
        @given(amplitudes=amplitude_lists())
        def states_seen(amplitudes):
            note(verdict(state_vector_checks, amplitudes))

        @settings(derandomize=True, max_examples=500, deadline=None)
        @given(entries=density_inputs())
        def densities_seen(entries):
            outcome = verdict(density_matrix_checks, entries)
            note(outcome)
            seen.add(f"density {outcome[0]}")

        @settings(derandomize=True, max_examples=500, deadline=None)
        @given(diagonal=payoff_inputs())
        def payoffs_seen(diagonal):
            outcome = verdict(payoff_operator_checks, diagonal)
            note(outcome)
            seen.add(f"payoff operator {outcome[0]}")

        levels_seen()
        states_seen()
        densities_seen()
        payoffs_seen()
        for start in [
            "accepted",
            "the levels alpha, beta, gamma must be finite",
            "payoff scale too large",
            "payoff parameters must satisfy alpha > beta > gamma",
            "int too large to convert to float",
            "integer division result too large for a float",
            "a joint state needs exactly 4 amplitudes",
            "state vector is not normalized",
            "density accepted",
            "payoff operator accepted",
            "a joint density matrix must be 4x4, got shape (16,)",
            "a joint density matrix must be 4x4, got shape (3, 4)",
            "setting an array element with a sequence",
            "complex() arg is a malformed string",
            "density matrix is not Hermitian",
            "density matrix trace deviates from 1",
            "a payoff operator needs 4 diagonal entries",
            "payoff operator entries must be finite",
            "could not convert string to float",
        ]:
            assert any(text.startswith(start) for text in seen), start
