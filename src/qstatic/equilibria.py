"""Nash equilibrium computation for 2x2 mixing problems.

Closed forms for the |OO>/|TT> superposition family, whose |OO> member is
the classical game, and for independent local tactics, plus an exact
best-response enumerator for arbitrary bilinear payoff surfaces, equilibrium
ranking, and the merged-corner unique-solution test at maximal entanglement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConstraintViolation
from .game_core import BilinearPayoff, GamePayoffs, _check_unit_interval
from .quantum_core import DensityMatrix, MixingChoice, StateVector, mixed_final_density

__all__ = [
    "SLOPE_TOL",
    "MERGE_TOL",
    "EquilibriumKind",
    "NashPoint",
    "EntangledFamilyState",
    "FactorizableEquilibrium",
    "PairwiseGap",
    "EquilibriumRanking",
    "UniqueSolutionReport",
    "classical_mixed_equilibria",
    "factorizable_equilibria",
    "entangled_equilibria",
    "enumerate_bilinear_nash",
    "rank_equilibria",
    "unique_solution",
]

#: A best-response slope is treated as exactly zero below this fraction of
#: the largest payoff coefficient; two candidate points within this
#: distance coincide.
SLOPE_TOL = 1e-12
#: Corner equilibria merge only when payoffs and final densities agree this tightly.
MERGE_TOL = 1e-12
# Round-off a difference of corner payoffs can carry, relative to their size.
_ROUNDOFF = 32 * np.finfo(float).eps


class EquilibriumKind(enum.Enum):
    CORNER = "corner"
    INTERIOR = "interior"
    DEGENERATE_FAMILY = "degenerate-family"


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_star <= 1.0 or not 0.0 <= self.q_star <= 1.0:
            raise ConstraintViolation(
                f"equilibrium coordinates must lie in [0, 1], got "
                f"({self.p_star}, {self.q_star})"
            )

    @property
    def min_payoff(self) -> float:
        return min(self.payoff_a, self.payoff_b)

    @property
    def payoff_sum(self) -> float:
        return self.payoff_a + self.payoff_b


@dataclass(frozen=True)
class EntangledFamilyState:
    """The |OO>/|TT> superposition family, parametrized by the squared
    modulus a2 of the |OO> amplitude. Phases never affect payoffs, so only
    moduli are stored; the canonical representative has real amplitudes."""

    a2: float

    def __post_init__(self) -> None:
        _check_unit_interval("a2", self.a2)

    @property
    def b2(self) -> float:
        return 1 - self.a2

    def state_vector(self) -> StateVector:
        return StateVector.oo_tt(np.sqrt(self.a2), np.sqrt(self.b2))

    def density_matrix(self) -> DensityMatrix:
        return self.state_vector().density_matrix()


@dataclass(frozen=True)
class FactorizableEquilibrium:
    """An equilibrium in independent-tactic coordinates plus the joint state
    the two tactics produce. ``point.p_star``/``q_star`` hold the squared
    moduli of the two players' first tactic coefficients."""

    point: NashPoint
    final_state: StateVector


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


def factorizable_equilibria(
    params: GamePayoffs,
) -> tuple[FactorizableEquilibrium, ...]:
    """Equilibria of the independent-tactic game, numerically identical to
    the classical mixed ones with (|a|^2, |c|^2) in place of (p, q).

    The corners produce the joint basis states |OO> and |TT>; the interior
    point produces a product state whose per-player probabilities are the
    classical interior mixing probabilities.
    """
    corner_oo, corner_tt, interior = classical_mixed_equilibria(params)
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    root = np.sqrt(params.spread)
    row_vec = np.array([np.sqrt(alpha - gamma), -np.sqrt(beta - gamma)]) / root
    col_vec = np.array([np.sqrt(beta - gamma), -np.sqrt(alpha - gamma)]) / root
    product_state = StateVector(np.kron(row_vec, col_vec))
    return (
        FactorizableEquilibrium(corner_oo, StateVector.basis("OO")),
        FactorizableEquilibrium(corner_tt, StateVector.basis("TT")),
        FactorizableEquilibrium(interior, product_state),
    )


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
    below both corner payoffs for both players.
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    a2, b2 = state.a2, state.b2
    spread = params.spread
    keep_a = alpha * a2 + beta * b2
    keep_b = beta * a2 + alpha * b2
    p_star = ((alpha - gamma) * a2 + (beta - gamma) * b2) / spread
    q_star = ((alpha - gamma) * b2 + (beta - gamma) * a2) / spread
    shared = (alpha * beta + (alpha - beta) ** 2 * a2 * b2 - gamma * gamma) / spread
    return (
        NashPoint(1.0, 1.0, keep_a, keep_b, EquilibriumKind.CORNER),
        NashPoint(0.0, 0.0, keep_b, keep_a, EquilibriumKind.CORNER),
        NashPoint(p_star, q_star, shared, shared, EquilibriumKind.INTERIOR),
    )


def enumerate_bilinear_nash(
    bp_a: BilinearPayoff, bp_b: BilinearPayoff
) -> tuple[NashPoint, ...]:
    """Exact equilibrium enumeration for a pair of bilinear payoff surfaces.

    Checks the four corners and, when both surfaces have a genuinely
    bilinear term, the unique mutual-indifference candidate
    (p*, q*) = (-bp_b.q_coeff/bp_b.pq_coeff, -bp_a.p_coeff/bp_a.pq_coeff).
    When a player's slope vanishes identically along an edge and both of
    that edge's corners qualify, the edge is a continuum of equilibria and
    is reported once, by its midpoint, as a degenerate family; if both
    players are indifferent everywhere the whole square is reported once.

    A slope counts as zero within SLOPE_TOL of the largest pq, p or q
    coefficient of either surface, so neither rescaling both players'
    payoffs by one positive factor nor shifting them by one offset changes
    anything. The coefficients are differences of corner payoffs and carry
    their float round-off, so when every coefficient is within 32 ulps of
    the largest constant term, both surfaces are read as flat.
    """
    coefficient_scale = max(
        abs(c) for bp in (bp_a, bp_b) for c in (bp.pq_coeff, bp.p_coeff, bp.q_coeff)
    )
    tol = SLOPE_TOL * coefficient_scale

    def flat(slope: float) -> bool:
        return abs(slope) <= tol

    def holds(coordinate: float, slope: float) -> bool:
        # Payoff is affine in the player's own coordinate: it is a best
        # response iff the slope is (near) zero, or the coordinate sits at
        # the end the slope pushes toward.
        return flat(slope) or coordinate == (1.0 if slope > 0.0 else 0.0)

    def point(p: float, q: float, kind: EquilibriumKind) -> NashPoint:
        return NashPoint(p, q, bp_a.value(p, q), bp_b.value(p, q), kind)

    roundoff = _ROUNDOFF * max(abs(bp_a.const), abs(bp_b.const))
    fully_indifferent_a = flat(bp_a.pq_coeff) and flat(bp_a.p_coeff)
    fully_indifferent_b = flat(bp_b.pq_coeff) and flat(bp_b.q_coeff)
    if coefficient_scale <= roundoff or (fully_indifferent_a and fully_indifferent_b):
        return (point(0.5, 0.5, EquilibriumKind.DEGENERATE_FAMILY),)

    corners = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    passes = {
        (p, q): holds(p, bp_a.slope_p(q)) and holds(q, bp_b.slope_q(p))
        for p, q in corners
    }

    # Edges along which one player is indifferent, with their two corners.
    edges = (
        (((0.0, 1.0), (1.0, 1.0)), flat(bp_a.slope_p(1.0))),
        (((0.0, 0.0), (1.0, 0.0)), flat(bp_a.slope_p(0.0))),
        (((1.0, 0.0), (1.0, 1.0)), flat(bp_b.slope_q(1.0))),
        (((0.0, 0.0), (0.0, 1.0)), flat(bp_b.slope_q(0.0))),
    )
    found: list[NashPoint] = []
    merged: set[tuple[float, float]] = set()
    for (c1, c2), indifferent in edges:
        if indifferent and passes[c1] and passes[c2]:
            mid_p = (c1[0] + c2[0]) / 2.0
            mid_q = (c1[1] + c2[1]) / 2.0
            found.append(point(mid_p, mid_q, EquilibriumKind.DEGENERATE_FAMILY))
            merged.update((c1, c2))

    for corner in corners:
        if passes[corner] and corner not in merged:
            found.append(point(*corner, EquilibriumKind.CORNER))

    if not flat(bp_a.pq_coeff) and not flat(bp_b.pq_coeff):
        q_star = -bp_a.p_coeff / bp_a.pq_coeff
        p_star = -bp_b.q_coeff / bp_b.pq_coeff
        inside = 0.0 <= p_star <= 1.0 and 0.0 <= q_star <= 1.0
        if inside and not any(
            abs(p_star - f.p_star) <= SLOPE_TOL and abs(q_star - f.q_star) <= SLOPE_TOL
            for f in found
        ):
            if holds(p_star, bp_a.slope_p(q_star)) and holds(
                q_star, bp_b.slope_q(p_star)
            ):
                found.append(point(p_star, q_star, EquilibriumKind.INTERIOR))

    return tuple(found)


@dataclass(frozen=True)
class PairwiseGap:
    """Payoff differences between two ranked equilibria (better minus worse,
    by rank position)."""

    better: int
    worse: int
    delta_a: float
    delta_b: float


@dataclass(frozen=True)
class EquilibriumRanking:
    ordered: tuple[NashPoint, ...]
    gaps: tuple[PairwiseGap, ...]


def rank_equilibria(points: Iterable[NashPoint]) -> EquilibriumRanking:
    """Sort equilibria best-first and annotate all pairwise payoff gaps.

    Primary key is the smaller of the two players' payoffs, then the payoff
    sum, both descending. Exact ties (the maximally entangled corners) fall
    back to coordinates descending, so (1,1) precedes (0,0).
    """
    pts = list(points)
    if not pts:
        raise ConstraintViolation("cannot rank an empty set of equilibria")
    ordered = tuple(
        sorted(
            pts,
            key=lambda n: (n.min_payoff, n.payoff_sum, n.p_star, n.q_star),
            reverse=True,
        )
    )
    gaps = tuple(
        PairwiseGap(
            better=i,
            worse=j,
            delta_a=ordered[i].payoff_a - ordered[j].payoff_a,
            delta_b=ordered[i].payoff_b - ordered[j].payoff_b,
        )
        for i in range(len(ordered))
        for j in range(i + 1, len(ordered))
    )
    return EquilibriumRanking(ordered, gaps)


@dataclass(frozen=True)
class UniqueSolutionReport:
    """Whether the two corner equilibria collapse into one joint solution.

    They merge only when both players earn identical payoffs at both
    corners and the two corner final densities are the same matrix; then
    ``final_state`` is the shared strategy, which equals the initial
    superposition. Otherwise each player prefers a different corner and
    the preference fields say which.
    """

    merged: bool
    corner_keep: NashPoint
    corner_flip: NashPoint
    payoff_difference_a: float
    payoff_difference_b: float
    solution_payoffs: tuple[float, float] | None
    final_state: StateVector | None

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


def unique_solution(
    params: GamePayoffs, state: EntangledFamilyState
) -> UniqueSolutionReport:
    """Test whether the superposition family admits a single joint solution.

    The corner payoff differences are (alpha-beta)(a2-b2) for the row
    player and its negative for the column player, so merging happens
    exactly at the balanced superposition, where the shared payoff is
    (alpha+beta)/2 and the shared final state is the initial state itself.
    """
    corner_keep, corner_flip, _ = entangled_equilibria(params, state)
    rho_keep = state.density_matrix()  # keeping at (1, 1) changes nothing
    rho_flip = mixed_final_density(rho_keep, MixingChoice(0.0, 0.0))
    density_gap = float(np.max(np.abs(rho_keep.entries - rho_flip.entries)))
    diff_a = corner_keep.payoff_a - corner_flip.payoff_a
    diff_b = corner_keep.payoff_b - corner_flip.payoff_b
    merged = (
        density_gap <= MERGE_TOL
        and abs(diff_a) <= MERGE_TOL
        and abs(diff_b) <= MERGE_TOL
    )
    return UniqueSolutionReport(
        merged=merged,
        corner_keep=corner_keep,
        corner_flip=corner_flip,
        payoff_difference_a=diff_a,
        payoff_difference_b=diff_b,
        solution_payoffs=(corner_keep.payoff_a, corner_keep.payoff_b) if merged else None,
        final_state=state.state_vector() if merged else None,
    )
