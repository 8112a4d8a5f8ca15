"""Classical normal-form machinery for two-player static games.

Bimatrix representation, iterated elimination of strictly dominated
strategies, pure Nash equilibria, and expected payoffs under independent
mixing. Dominance and equilibrium comparisons are exact: no tolerance is
injected on the classical side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ConstraintViolation

__all__ = [
    "Bimatrix",
    "GamePayoffs",
    "MixProbabilities",
    "BilinearPayoff",
    "EliminationStep",
    "EliminationResult",
    "bos_bimatrix",
    "eliminate_strictly_dominated",
    "pure_nash",
    "expected_payoffs",
]


@dataclass(frozen=True, eq=False)
class Bimatrix:
    """Payoff tables of a finite two-player game.

    ``payoff_a[i][j]`` is the row player's payoff when the row player picks
    strategy ``i`` and the column player picks ``j``; ``payoff_b`` likewise.
    Both tables share one shape and all entries are finite, and so is the
    range of each table: payoffs are measured from a table's smallest entry.
    Tables are copied into tuples of float rows at construction.
    """

    payoff_a: tuple[tuple[float, ...], ...]
    payoff_b: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        a, b = _float_table(self.payoff_a), _float_table(self.payoff_b)
        shape_a, shape_b = _table_shape(a), _table_shape(b)
        if len(shape_a) != 2 or shape_a != shape_b:
            raise ConstraintViolation(
                f"payoff tables must be 2-d arrays of equal shape, "
                f"got {shape_a} and {shape_b}"
            )
        if min(shape_a) < 1:
            raise ConstraintViolation("each player needs at least one strategy")
        if not all(math.isfinite(x) for table in (a, b) for row in table for x in row):
            raise ConstraintViolation("payoff entries must be finite")
        for name, table in (("payoff_a", a), ("payoff_b", b)):
            entries = [x for row in table for x in row]
            if not math.isfinite(max(entries) - min(entries)):
                raise ConstraintViolation(
                    f"payoff scale too large: the range of {name} overflows a float, "
                    f"got {min(entries)} to {max(entries)}"
                )
        object.__setattr__(self, "payoff_a", a)
        object.__setattr__(self, "payoff_b", b)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.payoff_a), len(self.payoff_a[0])

    @property
    def is_2x2(self) -> bool:
        return self.shape == (2, 2)


def _float_table(table: Iterable[Iterable[float]]) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in table)


def _table_shape(rows: tuple[tuple[float, ...], ...]) -> tuple[int, ...]:
    """(rows, columns); (rows,) when the table is empty or ragged."""
    widths = {len(row) for row in rows}
    return (len(rows), *widths) if len(widths) == 1 else (len(rows),)


@dataclass(frozen=True)
class GamePayoffs:
    """The three payoff levels of the asymmetric coordination game.

    ``alpha`` is what a player earns at their preferred joint outcome,
    ``beta`` at the opponent's preferred one, ``gamma`` on miscoordination.
    The strict ordering alpha > beta > gamma is required.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        vals = (self.alpha, self.beta, self.gamma)
        if not all(math.isfinite(v) for v in vals):
            raise ConstraintViolation(f"payoff parameters must be finite, got {vals}")
        if not (self.alpha > self.beta > self.gamma):
            raise ConstraintViolation(
                "payoff parameters must satisfy alpha > beta > gamma, got "
                f"alpha={self.alpha}, beta={self.beta}, gamma={self.gamma}"
            )
        # The closed-form oracles multiply levels together; a scale at which
        # that overflows a float is rejected here rather than printed as inf or nan.
        # (alpha-gamma)^2 bounds every squared difference and the spread;
        # gamma^2 and alpha*beta + (alpha-beta)^2 bound the interior payoff's
        # numerator for every a2.
        a, b, g = float(self.alpha), float(self.beta), float(self.gamma)
        products = ((a - g) * (a - g), g * g, a * b + (a - b) * (a - b))
        if not all(math.isfinite(x) for x in products):
            raise ConstraintViolation(
                "payoff scale too large: products of the levels overflow a float, "
                f"got alpha={self.alpha}, beta={self.beta}, gamma={self.gamma}"
            )

    @property
    def spread(self) -> float:
        """alpha + beta - 2*gamma, the denominator of every closed form."""
        return self.alpha + self.beta - 2 * self.gamma


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConstraintViolation(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class MixProbabilities:
    """Independent mixing probabilities: p for the row player's strategy 0,
    q for the column player's strategy 0. In the quantum scheme the same pair
    is each player's probability of keeping their half of the joint state
    (``quantum_core.MixingChoice``)."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            _check_unit_interval("p", self.p)
            _check_unit_interval("q", self.q)


@dataclass(frozen=True)
class BilinearPayoff:
    """One player's expected payoff as a bilinear surface over the unit square.

    It is held by its values at the four corners, which fix a bilinear
    surface exactly: the shape of any 2x2 expected payoff in the two mixing
    probabilities, classical or quantum. The payoff at corner (p, q) is
    base + at_pq, so a common payoff level held in ``base`` adds no round-off
    to the corner differences that decide the equilibria. ``value``
    interpolates, so each corner comes back bit for bit.
    """

    at_11: float
    at_10: float
    at_01: float
    at_00: float
    base: float = 0

    def __post_init__(self) -> None:
        vals = (self.at_11, self.at_10, self.at_01, self.at_00, self.base)
        if not all(map(math.isfinite, vals)):
            raise ConstraintViolation(f"corner payoffs must be finite, got {vals}")

    def value(self, p: float, q: float) -> float:
        r = 1 - q
        return self.base + (
            (1 - p) * (r * self.at_00 + q * self.at_01) + p * (r * self.at_10 + q * self.at_11)
        )

    def slope_p(self, q: float) -> float:
        """Derivative in p, constant in p because the surface is bilinear."""
        return (1 - q) * (self.at_10 - self.at_00) + q * (self.at_11 - self.at_01)

    def slope_q(self, p: float) -> float:
        return (1 - p) * (self.at_01 - self.at_00) + p * (self.at_11 - self.at_10)


def _bos_table(params: GamePayoffs) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Both players' payoffs at the joint outcomes (OO, OT, TO, TT).

    Row player earns alpha at (O,O) and beta at (T,T); the column player
    the reverse; both earn gamma off the diagonal.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    return (a, g, g, b), (b, g, g, a)


def bos_bimatrix(params: GamePayoffs) -> Bimatrix:
    """Bimatrix of the coordination game with strategy 0 = O and 1 = T."""
    row, col = _bos_table(params)
    return Bimatrix((row[:2], row[2:]), (col[:2], col[2:]))


@dataclass(frozen=True)
class EliminationStep:
    """One removal: `player` 0 (row) or 1 (column) dropped strategy `removed`
    because `dominated_by` was strictly better against every survivor."""

    player: int
    removed: int
    dominated_by: int


@dataclass(frozen=True)
class EliminationResult:
    survivors_a: tuple[int, ...]
    survivors_b: tuple[int, ...]
    steps: tuple[EliminationStep, ...]


def eliminate_strictly_dominated(game: Bimatrix) -> EliminationResult:
    """Iterated elimination of strictly dominated strategies.

    A strategy is removed when some other surviving strategy of the same
    player yields strictly more against every surviving opponent strategy.
    Weak dominance (ties anywhere) never removes. Scanning order is row
    player first, strategies ascending, restarting after each removal; the
    surviving set is order-independent under strict dominance and the steps
    record the order actually used.
    """
    rows = list(range(game.shape[0]))
    cols = list(range(game.shape[1]))
    steps: list[EliminationStep] = []

    def find_dominated(player: int) -> tuple[int, int] | None:
        own = rows if player == 0 else cols
        if len(own) == 1:
            return None
        table = game.payoff_a if player == 0 else game.payoff_b
        for cand in own:
            for other in own:
                if other == cand:
                    continue
                if player == 0:
                    worse = all(table[cand][j] < table[other][j] for j in cols)
                else:
                    worse = all(table[i][cand] < table[i][other] for i in rows)
                if worse:
                    return cand, other
        return None

    while True:
        for player in (0, 1):
            hit = find_dominated(player)
            if hit is not None:
                removed, dominator = hit
                (rows if player == 0 else cols).remove(removed)
                steps.append(EliminationStep(player, removed, dominator))
                break
        else:
            return EliminationResult(tuple(rows), tuple(cols), tuple(steps))


def pure_nash(game: Bimatrix) -> tuple[tuple[int, int], ...]:
    """All pure-strategy equilibria (i, j), in row-major order.

    A cell qualifies when neither player can strictly gain by a unilateral
    deviation; ties count, comparisons are exact.
    """
    a, b = game.payoff_a, game.payoff_b
    best_a = [max(column) for column in zip(*a)]
    best_b = [max(row) for row in b]
    rows, cols = game.shape
    return tuple(
        (i, j)
        for i in range(rows)
        for j in range(cols)
        if a[i][j] == best_a[j] and b[i][j] == best_b[i]
    )


def expected_payoffs(game: Bimatrix, mix: MixProbabilities) -> tuple[float, float]:
    """Probability-weighted payoffs of a 2x2 game under independent mixing.

    At pure corners the weights are exactly (1, 0, 0, 0)-like, so the result
    equals the corresponding bimatrix entry with no rounding.
    """
    # Both tables share one rectangular shape, so the first shows it.
    if len(game.payoff_a) != 2 or len(game.payoff_a[0]) != 2:
        raise ConstraintViolation(
            f"expected payoffs are defined for 2x2 games, got shape {game.shape}"
        )
    p, q = mix.p, mix.q
    (a11, a10), (a01, a00) = game.payoff_a
    (b11, b10), (b01, b00) = game.payoff_b
    w11, w10, w01, w00 = p * q, p * (1.0 - q), (1.0 - p) * q, (1.0 - p) * (1.0 - q)
    return (
        w11 * a11 + w10 * a10 + w01 * a01 + w00 * a00,
        w11 * b11 + w10 * b10 + w01 * b01 + w00 * b00,
    )
