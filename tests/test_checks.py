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
from qstatic.quantum_core import PayoffOperator

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

        levels_seen()
        states_seen()
        for start in [
            "accepted",
            "the levels alpha, beta, gamma must be finite",
            "payoff scale too large",
            "payoff parameters must satisfy alpha > beta > gamma",
            "int too large to convert to float",
            "integer division result too large for a float",
            "a joint state needs exactly 4 amplitudes",
            "state vector is not normalized",
        ]:
            assert any(text.startswith(start) for text in seen), start
