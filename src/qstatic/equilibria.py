"""Nash equilibrium computation for 2x2 mixing problems.

The production path is an exact best-response enumerator for arbitrary
bilinear payoff surfaces, in floats or Fractions, with equilibrium ranking
and the merged-corner unique-solution test at maximal entanglement. The
classical game, and with it play by independent local tactics, is the
|OO> member of the |OO>/|TT> superposition family; the family's closed
forms are the enumerator's oracles.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import ConstraintViolation
from .game_core import BilinearPayoff, FrozenValue, GamePayoffs, check_unit_interval, slot_setters
from .outcomes import StateVector, payoff_surfaces

if TYPE_CHECKING:
    from .quantum_core import DensityMatrix

__all__ = [
    "SLOPE_TOL",
    "MERGE_TOL",
    "EquilibriumKind",
    "NashPoint",
    "EntangledFamilyState",
    "PairwiseGap",
    "EquilibriumRanking",
    "UniqueSolutionReport",
    "classical_mixed_equilibria",
    "entangled_equilibria",
    "enumerate_bilinear_nash",
    "rank_equilibria",
    "state_unique_solution",
    "unique_solution",
]

#: Two candidate equilibria closer than this in both coordinates coincide,
#: and so do a candidate this close outside the square and its nearest point.
SLOPE_TOL = 1e-12
#: Corner equilibria merge when their unit-trace final densities agree
#: entrywise this tightly; equal densities give equal payoffs at any scale.
MERGE_TOL = 1e-12
# A float slope counts as zero below this fraction of the sum of the corners
# it subtracts: each corner carries round-off of a few ulps of its own size.
_ROUNDOFF = 8 * sys.float_info.epsilon
# Corner sums from 2^-900 to 2^1020 keep every slope, allowance, product and
# payoff of a float enumeration finite and normal. A surface whose sum lies
# outside that range has its corners scaled by the power of two that puts its
# largest just below 2^_SCALED_EXPONENT, and its payoffs are scaled back:
# exact in binary. Each player's tests read only that player's surface, so
# each surface takes its own power.
_LEAST_ALLOWANCE, _MOST_ALLOWANCE = _ROUNDOFF * 2.0**-900, _ROUNDOFF * 2.0**1020
_SCALED_EXPONENT = 1017


class EquilibriumKind(enum.Enum):
    CORNER = "corner"
    INTERIOR = "interior"
    DEGENERATE_FAMILY = "degenerate-family"


#: The kinds as module names: on CPython 3.11 a global reads in under a
#: tenth of the time of an enum member read from its class.
_CORNER, _INTERIOR, _FAMILY = (
    EquilibriumKind.CORNER, EquilibriumKind.INTERIOR, EquilibriumKind.DEGENERATE_FAMILY
)


# The one dataclass of the package: the benchmark's tests call
# ``dataclasses.replace`` on it. It can become a ``FrozenValue`` once they
# build their points with ``NashPoint(...)`` (ROADMAP.md item 18).
@dataclass(frozen=True, slots=True, init=False)
class NashPoint:
    """A mixing profile no player can improve on unilaterally.

    For a degenerate family (an indifference edge or the full square),
    (p_star, q_star) is a representative point of the family.
    """

    p_star: float
    q_star: float
    payoff_a: float
    payoff_b: float
    kind: EquilibriumKind

    def __init__(
        self, p_star: float, q_star: float, payoff_a: float, payoff_b: float, kind: EquilibriumKind
    ) -> None:
        self.__post_init__(p_star, q_star, payoff_a, payoff_b, kind)

    def __post_init__(
        self, p_star: float, q_star: float, payoff_a: float, payoff_b: float, kind: EquilibriumKind
    ) -> None:
        if not 0.0 <= p_star <= 1.0 or not 0.0 <= q_star <= 1.0:
            raise ConstraintViolation(
                f"equilibrium coordinates must lie in [0, 1], got ({p_star}, {q_star})"
            )
        _set_p_star(self, p_star)
        _set_q_star(self, q_star)
        _set_payoff_a(self, payoff_a)
        _set_payoff_b(self, payoff_b)
        _set_kind(self, kind)

    @property
    def min_payoff(self) -> float:
        return min(self.payoff_a, self.payoff_b)


_set_p_star, _set_q_star, _set_payoff_a, _set_payoff_b, _set_kind = slot_setters(NashPoint)


class EntangledFamilyState(FrozenValue):
    """The |OO>/|TT> superposition family, parametrized by the squared
    modulus a2 of the |OO> amplitude. Phases never affect payoffs, so only
    moduli are stored; the canonical representative has real amplitudes,
    built on its first read and kept."""

    _fields = ("a2",)
    __slots__ = ("a2", "_vector")

    def __init__(self, a2: float) -> None:
        self.__post_init__(a2)

    def __post_init__(self, a2: float) -> None:
        check_unit_interval("a2", a2)
        _set_a2(self, a2)

    def __getattr__(self, name: str) -> StateVector:
        # Called only for a slot not yet written: the vector on its first read.
        if name != "_vector":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vector = StateVector.oo_tt(math.sqrt(self.a2), math.sqrt(self.b2))
        _set_vector(self, vector)
        return vector

    @property
    def b2(self) -> float:
        return 1 - self.a2

    def state_vector(self) -> StateVector:
        return self._vector

    def density_matrix(self) -> DensityMatrix:
        return self._vector.density_matrix()


_set_a2, _set_vector = slot_setters(EntangledFamilyState)


def classical_mixed_equilibria(
    params: GamePayoffs,
) -> tuple[NashPoint, NashPoint, NashPoint]:
    """The three mixed equilibria of the coordination game: the family's
    |OO> member (a2 = 1), where the quantum scheme gives back the classical
    game.

    Two pure corners, (1,1) and (0,0), and the interior profile at which
    each player's slope vanishes: p* = (alpha-gamma)/spread,
    q* = (beta-gamma)/spread, where both players earn
    (alpha*beta - gamma^2)/spread. The interior payoff always ranks
    strictly between gamma and beta. The integer a2 keeps Fraction inputs
    exact.
    """
    return entangled_equilibria(params, EntangledFamilyState(1))


def entangled_equilibria(
    params: GamePayoffs, state: EntangledFamilyState
) -> tuple[NashPoint, NashPoint, NashPoint]:
    """The three equilibria when the initial joint state is
    sqrt(a2)|OO> + sqrt(1-a2)|TT> and each player mixes keep/flip.

    The (1,1) corner pays (alpha*a2 + beta*b2, beta*a2 + alpha*b2); the
    (0,0) corner swaps the two. The interior point sits at
    p* = ((alpha-gamma) a2 + (beta-gamma) b2)/spread and its mirror image
    in q, where both players earn the same amount,
    (alpha*beta + (alpha-beta)^2 a2 b2 - gamma^2)/spread, which is strictly
    below both corner payoffs for both players; spread = alpha + beta - 2*gamma.
    It is an oracle only: tests and bench/workloads.py check the enumerator
    against it. It refuses a scale whose products of levels overflow a float.
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    # The closed-form oracles multiply levels together; a scale at which
    # that overflows a float is rejected here rather than printed as inf or nan.
    # (alpha-gamma)^2 bounds every squared difference and the spread;
    # gamma^2 and alpha*beta + (alpha-beta)^2 bound the interior payoff's
    # numerator for every a2.
    a, b, g = float(alpha), float(beta), float(gamma)
    products = ((a - g) * (a - g), g * g, a * b + (a - b) * (a - b))
    if not all(map(math.isfinite, products)):
        raise ConstraintViolation(
            "payoff scale too large: products of the levels overflow a float, "
            f"got alpha={alpha}, beta={beta}, gamma={gamma}"
        )
    a2, b2 = state.a2, state.b2
    spread = alpha + beta - 2 * gamma
    keep_a = alpha * a2 + beta * b2
    keep_b = beta * a2 + alpha * b2
    p_star = ((alpha - gamma) * a2 + (beta - gamma) * b2) / spread
    q_star = ((alpha - gamma) * b2 + (beta - gamma) * a2) / spread
    shared = (alpha * beta + (alpha - beta) ** 2 * a2 * b2 - gamma * gamma) / spread
    return (
        NashPoint(1.0, 1.0, keep_a, keep_b, _CORNER),
        NashPoint(0.0, 0.0, keep_b, keep_a, _CORNER),
        NashPoint(p_star, q_star, shared, shared, _INTERIOR),
    )


def enumerate_bilinear_nash(
    bp_a: BilinearPayoff, bp_b: BilinearPayoff
) -> tuple[NashPoint, ...]:
    """Exact equilibrium enumeration for a pair of bilinear payoff surfaces.

    Checks the four corners and, when both surfaces have a genuinely
    bilinear term, the unique mutual-indifference candidate
    (p*, q*) = (-q_b/pq_b, -p_a/pq_a) in the coefficients below.
    When a player's slope vanishes identically along an edge and both of
    that edge's corners qualify, the edge is a continuum of equilibria and
    is reported once, by its midpoint, as a degenerate family; if both
    players are indifferent everywhere the whole square is reported once.

    Slopes and coefficients are differences of corners, so they carry the
    corners' float round-off: a slope counts as zero within 8 ulps of the
    sum of the corners it subtracts (an edge's two, or its surface's four),
    measured from their base, so no slope is lost to another's large
    corners. Rescaling one player's payoffs by a positive factor scales
    that player's corners and tolerances alike, and a payoff level held in
    the bases enters neither, so neither changes the equilibria. The same
    round-off can move a candidate on an edge just off the square; within
    SLOPE_TOL it is taken at the nearest point of the square.

    Fraction surfaces are enumerated exactly, with zero slope tolerances and
    Fraction coordinates; float surfaces get float coordinates.
    """
    x11, x10, x01, x00 = bp_a.at_11, bp_a.at_10, bp_a.at_01, bp_a.at_00
    y11, y10, y01, y00 = bp_b.at_11, bp_b.at_10, bp_b.at_01, bp_b.at_00
    # A float is never a Fraction; the type test is cheaper than the ABC's.
    exact = type(x00) is not float and isinstance(x00, Fraction) and isinstance(y00, Fraction)
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    half = one / 2
    # The row player's slope in p along the edge q = 1 or 0, and the column
    # player's slope in q along the edge p = 1 or 0: slope_p(one), slope_p(zero),
    # slope_q(one) and slope_q(zero) written out, where 1 - one is zero and
    # 1 - zero is one in either number type.
    a1 = zero * (x10 - x00) + one * (x11 - x01)
    a0 = one * (x10 - x00) + zero * (x11 - x01)
    b1 = zero * (y01 - y00) + one * (y11 - y10)
    b0 = one * (y01 - y00) + zero * (y11 - y10)
    # The coefficients of pq * p * q + p_ * p + q_ * q + const; pq is the
    # change of a slope from one edge to the other, p_a and q_b are a0 and b0.
    pq_a, pq_b = a1 - a0, b1 - b0
    r = 0 if exact else _ROUNDOFF
    a11, a10, a01, a00 = abs(x11), abs(x10), abs(x01), abs(x00)
    b11, b10, b01, b00 = abs(y11), abs(y10), abs(y01), abs(y00)
    tol_a, tol_b = r * (a11 + a10 + a01 + a00), r * (b11 + b10 + b01 + b00)
    if not (_LEAST_ALLOWANCE <= tol_a <= _MOST_ALLOWANCE and
            _LEAST_ALLOWANCE <= tol_b <= _MOST_ALLOWANCE) and not exact:
        shift_a, shift_b = _shift(tol_a, a11, a10, a01, a00), _shift(tol_b, b11, b10, b01, b00)
        if shift_a or shift_b:
            return _rescaled(bp_a, bp_b, shift_a, shift_b)
    flat_a1, flat_a0 = abs(a1) <= r * (a11 + a01), abs(a0) <= r * (a10 + a00)
    flat_b1, flat_b0 = abs(b1) <= r * (b11 + b10), abs(b0) <= r * (b01 + b00)
    bilinear_a, bilinear_b = abs(pq_a) > tol_a, abs(pq_b) > tol_b
    if not (bilinear_a or bilinear_b) and flat_a0 and flat_b0:
        payoffs = bp_a.value(half, half), bp_b.value(half, half)
        return (NashPoint(half, half, *payoffs, _FAMILY),)

    # Payoff is affine in the player's own coordinate: a coordinate is a best
    # response iff the slope is (near) zero, or it sits at the end the slope
    # pushes toward. Each corner (p, q) needs both players' best responses.
    up_a1, up_a0, up_b1, up_b0 = a1 > 0, a0 > 0, b1 > 0, b0 > 0
    ok_11 = (flat_a1 or up_a1) and (flat_b1 or up_b1)
    ok_10 = (flat_a0 or up_a0) and (flat_b1 or not up_b1)
    ok_01 = (flat_a1 or not up_a1) and (flat_b0 or up_b0)
    ok_00 = (flat_a0 or not up_a0) and (flat_b0 or not up_b0)
    # An edge along which one player is indifferent, with both its corners
    # equilibria, is one degenerate family, reported at its midpoint in place
    # of its corners: q = 1, q = 0, p = 1, p = 0.
    edge_q1 = flat_a1 and ok_01 and ok_11
    edge_q0 = flat_a0 and ok_00 and ok_10
    edge_p1 = flat_b1 and ok_10 and ok_11
    edge_p0 = flat_b0 and ok_00 and ok_01
    found = []
    if edge_q1:
        found.append((half, one, _FAMILY))
    if edge_q0:
        found.append((half, zero, _FAMILY))
    if edge_p1:
        found.append((one, half, _FAMILY))
    if edge_p0:
        found.append((zero, half, _FAMILY))
    if ok_11 and not (edge_q1 or edge_p1):
        found.append((one, one, _CORNER))
    if ok_10 and not (edge_q0 or edge_p1):
        found.append((one, zero, _CORNER))
    if ok_01 and not (edge_q1 or edge_p0):
        found.append((zero, one, _CORNER))
    if ok_00 and not (edge_q0 or edge_p0):
        found.append((zero, zero, _CORNER))

    if bilinear_a and bilinear_b:
        q_star = -a0 / pq_a
        p_star = -b0 / pq_b
        inside = 0 <= p_star <= 1 and 0 <= q_star <= 1
        lo, hi = -SLOPE_TOL, 1 + SLOPE_TOL
        if not inside and lo <= p_star <= hi and lo <= q_star <= hi:
            # Round-off can push a candidate on an edge off the square; within
            # SLOPE_TOL it coincides with the nearest point of the square.
            p_star, q_star = min(max(p_star, zero), one), min(max(q_star, zero), one)
            inside = True
        if inside and not any(
            abs(p_star - p) <= SLOPE_TOL and abs(q_star - q) <= SLOPE_TOL for p, q, _ in found
        ):
            slope_a, slope_b = bp_a.slope_p(q_star), bp_b.slope_q(p_star)
            if (abs(slope_a) <= tol_a or p_star == (one if slope_a > 0 else zero)) and (
                abs(slope_b) <= tol_b or q_star == (one if slope_b > 0 else zero)
            ):
                found.append((p_star, q_star, _INTERIOR))

    return tuple(
        [NashPoint(p, q, bp_a.value(p, q), bp_b.value(p, q), kind) for p, q, kind in found]
    )


def _shift(allowance: float, *corners: float) -> int:
    """The power of two that brings a surface's allowance into the safe
    range; 0 inside it, and for a surface whose corners are all zero."""
    largest = max(corners)
    if _LEAST_ALLOWANCE <= allowance <= _MOST_ALLOWANCE or not largest:
        return 0
    return _SCALED_EXPONENT - math.frexp(largest)[1]


def _rescaled(
    bp_a: BilinearPayoff, bp_b: BilinearPayoff, shift_a: int, shift_b: int
) -> tuple[NashPoint, ...]:
    """``enumerate_bilinear_nash`` on each surface's corners times its own
    power of two, with each payoff's corner part scaled back onto its base."""
    # A base of -0.0 adds nothing to a payoff, not even to the sign of a zero.
    scaled = [
        BilinearPayoff(*[math.ldexp(x, shift) for x in (b.at_11, b.at_10, b.at_01, b.at_00)], -0.0)
        for b, shift in ((bp_a, shift_a), (bp_b, shift_b))
    ]
    return tuple(
        NashPoint(
            n.p_star,
            n.q_star,
            bp_a.base + math.ldexp(n.payoff_a, -shift_a),
            bp_b.base + math.ldexp(n.payoff_b, -shift_b),
            n.kind,
        )
        for n in enumerate_bilinear_nash(*scaled)
    )


class PairwiseGap(FrozenValue):
    """Payoff differences between two ranked equilibria (better minus worse,
    by rank position)."""

    _fields = __slots__ = ("better", "worse", "delta_a", "delta_b")

    def __init__(self, better: int, worse: int, delta_a: float, delta_b: float) -> None:
        _set_better(self, better)
        _set_worse(self, worse)
        _set_delta_a(self, delta_a)
        _set_delta_b(self, delta_b)


_set_better, _set_worse, _set_delta_a, _set_delta_b = slot_setters(PairwiseGap)


class EquilibriumRanking(FrozenValue):
    """Equilibria best-first, and the gap of every pair of them."""

    _fields = __slots__ = ("ordered", "gaps")

    def __init__(self, ordered: tuple[NashPoint, ...], gaps: tuple[PairwiseGap, ...]) -> None:
        _set_ordered(self, ordered)
        _set_gaps(self, gaps)


_set_ordered, _set_gaps = slot_setters(EquilibriumRanking)


def rank_equilibria(points: Iterable[NashPoint]) -> EquilibriumRanking:
    """Sort equilibria best-first and annotate all pairwise payoff gaps.

    Primary key is the smaller of the two players' payoffs, then the larger,
    both descending: where the smaller ties, the larger orders as the payoff
    sum does, and it cannot overflow. Exact ties (the maximally entangled
    corners) fall back to coordinates descending, so (1,1) precedes (0,0).
    """
    pts = list(points)
    if not pts:
        raise ConstraintViolation("cannot rank an empty set of equilibria")
    # list.sort is stable in reverse too: exact key ties keep their input order.
    pts.sort(key=_rank_key, reverse=True)
    n = len(pts)
    gaps = [
        PairwiseGap(i, j, pts[i].payoff_a - pts[j].payoff_a, pts[i].payoff_b - pts[j].payoff_b)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return EquilibriumRanking(tuple(pts), tuple(gaps))


def _rank_key(n: NashPoint) -> tuple[float, float, float, float]:
    a, b = n.payoff_a, n.payoff_b
    return (a, b, n.p_star, n.q_star) if a <= b else (b, a, n.p_star, n.q_star)


class UniqueSolutionReport(FrozenValue):
    """Whether the two corner equilibria collapse into one joint solution.

    They merge when the two corner final densities are the same matrix,
    within MERGE_TOL; equal densities give both players identical payoffs
    at both corners, whatever the payoff scale. Then ``final_state`` is the
    shared strategy, which equals the initial superposition. Otherwise each
    player prefers a different corner and the preference fields say which.
    """

    _fields = __slots__ = (
        "merged", "corner_keep", "corner_flip", "payoff_difference_a", "payoff_difference_b",
        "solution_payoffs", "final_state",
    )

    def __init__(
        self,
        merged: bool,
        corner_keep: NashPoint,
        corner_flip: NashPoint,
        payoff_difference_a: float,
        payoff_difference_b: float,
        solution_payoffs: tuple[float, float] | None,
        final_state: StateVector | None,
    ) -> None:
        _set_merged(self, merged)
        _set_corner_keep(self, corner_keep)
        _set_corner_flip(self, corner_flip)
        _set_payoff_difference_a(self, payoff_difference_a)
        _set_payoff_difference_b(self, payoff_difference_b)
        _set_solution_payoffs(self, solution_payoffs)
        _set_final_state(self, final_state)

    @property
    def preferred_by_a(self) -> NashPoint | None:
        if self.merged or self.payoff_difference_a == 0.0:
            return None
        return self.corner_keep if self.payoff_difference_a > 0.0 else self.corner_flip

    @property
    def preferred_by_b(self) -> NashPoint | None:
        if self.merged or self.payoff_difference_b == 0.0:
            return None
        return self.corner_keep if self.payoff_difference_b > 0.0 else self.corner_flip


(
    _set_merged, _set_corner_keep, _set_corner_flip, _set_payoff_difference_a,
    _set_payoff_difference_b, _set_solution_payoffs, _set_final_state,
) = slot_setters(UniqueSolutionReport)


def unique_solution(
    params: GamePayoffs, state: EntangledFamilyState
) -> UniqueSolutionReport:
    """Test whether the superposition family admits a single joint solution.

    The corner payoff differences are (alpha-beta)(a2-b2) for the row
    player and its negative for the column player, so merging happens
    exactly at the balanced superposition, where the shared payoff is
    (alpha+beta)/2 and the shared final state is the initial state itself.
    This tests the family's real representative; the amplitudes' phases
    decide the merge of any other state with these moduli.
    """
    vector = state.state_vector()
    return state_unique_solution(
        payoff_surfaces(vector.probabilities, *params.outcome_payoffs), vector
    )


def state_unique_solution(
    surfaces: tuple[BilinearPayoff, BilinearPayoff], vector: StateVector
) -> UniqueSolutionReport:
    """The unique-solution test for the initial state ``vector``, whose payoff
    surfaces are ``surfaces``: the corner payoffs are their corners, the
    values the enumerator reads, and the merge reads the state's own
    amplitudes, phases included."""
    bp_a, bp_b = surfaces
    keep_a, keep_b = bp_a.base + bp_a.at_11, bp_b.base + bp_b.at_11
    flip_a, flip_b = bp_a.base + bp_a.at_00, bp_b.base + bp_b.at_00
    corner_keep = NashPoint(1.0, 1.0, keep_a, keep_b, _CORNER)
    corner_flip = NashPoint(0.0, 0.0, flip_a, flip_b, _CORNER)
    # Keeping at (1, 1) leaves the initial density a_m conj(a_n); flipping
    # both halves at (0, 0) moves basis index k to k ^ 3, and with it entry
    # (m, n) to (m ^ 3, n ^ 3). Entry (m ^ 3, n ^ 3) has the negated gap of
    # (m, n), so rows 0 and 1 hold every gap.
    a0, a1, a2, a3 = vector.amplitudes
    c0, c1, c2, c3 = a0.conjugate(), a1.conjugate(), a2.conjugate(), a3.conjugate()
    density_gap = max(
        abs(a0 * c0 - a3 * c3), abs(a0 * c1 - a3 * c2), abs(a0 * c2 - a3 * c1), abs(a0 * c3 - a3 * c0),
        abs(a1 * c0 - a2 * c3), abs(a1 * c1 - a2 * c2), abs(a1 * c2 - a2 * c1), abs(a1 * c3 - a2 * c0),
    )
    merged = density_gap <= MERGE_TOL
    return UniqueSolutionReport(
        merged, corner_keep, corner_flip, keep_a - flip_a, keep_b - flip_b,
        (keep_a, keep_b) if merged else None, vector if merged else None,
    )
