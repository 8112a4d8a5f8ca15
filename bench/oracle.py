"""Reference formulas the checkers compare qstatic's outputs against.

Written from the game's definition, not from qstatic's code: only the
diagonal of a joint state enters a payoff, and keeping or flipping a
player's half permutes that diagonal.
"""

from __future__ import annotations

import math
from typing import Sequence

# Diagonal index order after (row keeps|flips, column keeps|flips), for the
# joint basis (OO, OT, TO, TT).
_KEEP_KEEP = (0, 1, 2, 3)
_KEEP_FLIP = (1, 0, 3, 2)
_FLIP_KEEP = (2, 3, 0, 1)
_FLIP_FLIP = (3, 2, 1, 0)


class Surface:
    """One player's expected payoff over the keep probabilities (p, q),
    pinned by its four corner values."""

    def __init__(self, weights: Sequence[float], diagonal: Sequence[float]) -> None:
        def corner(order: tuple[int, ...]) -> float:
            return math.fsum(w * diagonal[k] for w, k in zip(weights, order))

        self.at_11 = corner(_KEEP_KEEP)
        self.at_10 = corner(_KEEP_FLIP)
        self.at_01 = corner(_FLIP_KEEP)
        self.at_00 = corner(_FLIP_FLIP)

    def value(self, p: float, q: float) -> float:
        return (
            p * q * self.at_11
            + p * (1.0 - q) * self.at_10
            + (1.0 - p) * q * self.at_01
            + (1.0 - p) * (1.0 - q) * self.at_00
        )


def surfaces(
    alpha: float, beta: float, gamma: float, diagonal: Sequence[float]
) -> tuple[Surface, Surface]:
    """Payoff surfaces of both players for an initial state's diagonal."""
    return (
        Surface((alpha, gamma, gamma, beta), diagonal),
        Surface((beta, gamma, gamma, alpha), diagonal),
    )


def bimatrix_surfaces(payoff_a, payoff_b) -> tuple[Surface, Surface]:
    """Surfaces of an explicit 2x2 game with p = P(row 0), q = P(column 0)."""
    # A pure profile (i, j) is the basis state with diagonal weight 1 at 2i+j.
    return (
        Surface([payoff_a[i][j] for i in (0, 1) for j in (0, 1)], (1.0, 0.0, 0.0, 0.0)),
        Surface([payoff_b[i][j] for i in (0, 1) for j in (0, 1)], (1.0, 0.0, 0.0, 0.0)),
    )


def certificate_gap(sa: Surface, sb: Surface, p: float, q: float) -> float:
    """Largest gain either player gets by moving to an end of their own axis.

    Payoffs are affine in a player's own coordinate, so zero gain at both
    endpoints means (p, q) is a Nash point.
    """
    own_a = sa.value(p, q)
    own_b = sb.value(p, q)
    return max(
        sa.value(0.0, q) - own_a,
        sa.value(1.0, q) - own_a,
        sb.value(p, 0.0) - own_b,
        sb.value(p, 1.0) - own_b,
    )


def family_equilibria(
    alpha: float, beta: float, gamma: float, a2: float
) -> list[tuple[float, float, float, float]]:
    """(p, q, payoff_a, payoff_b) of the three equilibria for the state
    sqrt(a2)|OO> + sqrt(1-a2)|TT>: the keep corner, the flip corner and the
    interior point where both players are indifferent."""
    sa, sb = surfaces(alpha, beta, gamma, (a2, 0.0, 0.0, 1.0 - a2))
    # Indifference: slope of A in p vanishes at q*, slope of B in q at p*.
    q_star = (sa.at_00 - sa.at_10) / (sa.at_11 - sa.at_10 - sa.at_01 + sa.at_00)
    p_star = (sb.at_00 - sb.at_01) / (sb.at_11 - sb.at_10 - sb.at_01 + sb.at_00)
    return [
        (1.0, 1.0, sa.at_11, sb.at_11),
        (0.0, 0.0, sa.at_00, sb.at_00),
        (p_star, q_star, sa.value(p_star, q_star), sb.value(p_star, q_star)),
    ]


def classical_interior(alpha: float, beta: float, gamma: float) -> tuple[float, float, float]:
    """(p*, q*, shared payoff) of the classical game's interior equilibrium."""
    spread = alpha + beta - 2.0 * gamma
    return (alpha - gamma) / spread, (beta - gamma) / spread, (alpha * beta - gamma**2) / spread


def close(x: float, y: float, rel: float, scale: float = 1.0) -> bool:
    return abs(x - y) <= rel * max(scale, abs(x), abs(y))
