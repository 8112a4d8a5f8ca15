"""Joint states and their outcome probabilities over (|OO>, |OT>, |TO>, |TT>).

Payoffs are measured in the joint basis, so only the four outcome
probabilities |a_k|^2 of the initial state ever enter a payoff, and keeping
or flipping a player's half only permutes them. This module computes the
production payoff surfaces from those probabilities in plain Python; the
numpy-backed density-matrix routes in ``qstatic.quantum_core`` are their
oracle. The first tensor slot belongs to the row player.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from .errors import ConstraintViolation
from .game_core import BilinearPayoff, MixProbabilities

if TYPE_CHECKING:
    from .quantum_core import DensityMatrix

__all__ = ["BASIS_LABELS", "STATE_NORM_TOL", "StateVector", "MixingChoice", "payoff_surfaces"]

#: Writes a field of a frozen value from its ``__post_init__``.
_set = object.__setattr__

#: Canonical ordering of the joint basis; row player's symbol first.
BASIS_LABELS = ("OO", "OT", "TO", "TT")

# The validators test ``not gap <= TOL`` rather than ``gap > TOL`` so that a
# NaN anywhere in the input fails the check instead of slipping past it.
STATE_NORM_TOL = 1e-12

#: Each player keeps their part of the state with the given probability
#: (p for the row player, q for the column player) and flips it otherwise:
#: the classical mixing probabilities, read as keep probabilities.
MixingChoice = MixProbabilities


def _flipped(values: Sequence[Any], row_flips: bool, col_flips: bool) -> tuple:
    """Values over the joint basis after the chosen players flip their halves.

    A flip swaps one player's symbol: basis index k = 2 r + c becomes k ^ s,
    with s = 2 for a row flip, 1 for a column flip and 3 for both. This is
    the only definition of "flip": the outcome probabilities here and the
    density conjugation in ``quantum_core`` both permute through it, and
    ``_corner_means`` writes out its four permutations.
    """
    s = 2 * int(row_flips) + int(col_flips)
    return tuple(values[k ^ s] for k in range(4))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class StateVector:
    """Normalized joint strategy state: 4 complex amplitudes over BASIS_LABELS."""

    amplitudes: tuple[complex, complex, complex, complex]
    #: Outcome probabilities |a_k|^2 in the joint basis, as the norm check sums them.
    probabilities: tuple[float, float, float, float] = field(init=False, repr=False)

    def __init__(self, amplitudes: Sequence[complex]) -> None:
        self.__post_init__(amplitudes)

    def __post_init__(self, amplitudes: Sequence[complex]) -> None:
        amps = tuple(map(complex, amplitudes))
        if len(amps) != 4:
            raise ConstraintViolation(
                f"a joint state needs exactly 4 amplitudes, got {len(amps)}"
            )
        a0, a1, a2, a3 = amps
        probabilities = (
            a0.real * a0.real + a0.imag * a0.imag,
            a1.real * a1.real + a1.imag * a1.imag,
            a2.real * a2.real + a2.imag * a2.imag,
            a3.real * a3.real + a3.imag * a3.imag,
        )
        norm_sq = sum(probabilities)
        if not abs(norm_sq - 1.0) <= STATE_NORM_TOL:
            raise ConstraintViolation(
                f"state vector is not normalized: sum of squared moduli = {norm_sq!r}"
            )
        _set(self, "amplitudes", amps)
        _set(self, "probabilities", probabilities)

    @classmethod
    def basis(cls, which: int | str) -> StateVector:
        """Basis state by index 0..3 or by label such as "TO"."""
        index = BASIS_LABELS.index(which) if isinstance(which, str) else which
        if not 0 <= index <= 3:
            raise ConstraintViolation(f"basis index must be 0..3, got {which!r}")
        return cls([1.0 if k == index else 0.0 for k in range(4)])

    @classmethod
    def oo_tt(cls, a: complex, b: complex) -> StateVector:
        """Superposition a|OO> + b|TT> (must be normalized)."""
        return cls((a, 0.0, 0.0, b))

    @classmethod
    def bell(cls) -> StateVector:
        """The maximally entangled state (|OO> + |TT>) / sqrt(2): the family at a2 = 1/2."""
        return cls.oo_tt(math.sqrt(0.5), math.sqrt(0.5))

    def density_matrix(self) -> DensityMatrix:
        """The projector |psi><psi| as a ``DensityMatrix``: entry (m, n) is
        a_m conj(a_n), formed in Python, so the diagonal's real parts are
        ``probabilities`` bit for bit and its imaginary parts are 0."""
        # Imported here so that numpy stays off the import path of this module;
        # the absolute form finds the loaded module faster than a from-import.
        import qstatic.quantum_core as qc

        a0, a1, a2, a3 = self.amplitudes
        c0, c1, c2, c3 = a0.conjugate(), a1.conjugate(), a2.conjugate(), a3.conjugate()
        return qc.DensityMatrix((
            (a0 * c0, a0 * c1, a0 * c2, a0 * c3),
            (a1 * c0, a1 * c1, a1 * c2, a1 * c3),
            (a2 * c0, a2 * c1, a2 * c2, a2 * c3),
            (a3 * c0, a3 * c1, a3 * c2, a3 * c3),
        ))


def _corner_means(payoffs: Sequence[float], probabilities: Sequence[float]) -> list[float]:
    """Mean payoffs at the corners (1,1), (1,0), (0,1) and (0,0) of the keep
    probabilities. Nobody flips at the first; the column player, the row
    player and both flip at the others. That is ``_flipped`` with s = 0, 1,
    2, 3, so payoff k meets probability k ^ s; the four dot products are
    written out in that order. Pairwise sums give a mirrored payoff vector
    (outcome k ^ 3) equal bits at the mirror corner."""
    x0, x1, x2, x3 = payoffs
    d0, d1, d2, d3 = probabilities
    return [
        (x0 * d0 + x1 * d1) + (x2 * d2 + x3 * d3),
        (x0 * d1 + x1 * d0) + (x2 * d3 + x3 * d2),
        (x0 * d2 + x1 * d3) + (x2 * d0 + x3 * d1),
        (x0 * d3 + x1 * d2) + (x2 * d1 + x3 * d0),
    ]


def payoff_surfaces(
    probabilities: Sequence[float],
    payoffs_a: Sequence[float],
    payoffs_b: Sequence[float],
) -> tuple[BilinearPayoff, BilinearPayoff]:
    """Both players' payoffs as bilinear surfaces over the keep probabilities
    (p, q), for an initial state with these outcome probabilities.

    ``payoffs_a`` and ``payoffs_b`` are each player's payoffs at the outcomes
    (OO, OT, TO, TT). The mixing map makes each payoff bilinear in (p, q),
    and the surface is pinned by its four corner payoffs, each a dot product
    with the permuted probabilities, measured from the player's smallest
    payoff: a sum of terms that are never negative, whose differences carry
    no round-off of a common payoff level. The arithmetic is plain, so
    ``Fraction`` inputs give exact surfaces.
    """
    base_a, base_b = min(payoffs_a), min(payoffs_b)
    x0, x1, x2, x3 = payoffs_a
    surface_a = BilinearPayoff(
        *_corner_means((x0 - base_a, x1 - base_a, x2 - base_a, x3 - base_a), probabilities), base_a
    )
    x0, x1, x2, x3 = payoffs_b
    return surface_a, BilinearPayoff(
        *_corner_means((x0 - base_b, x1 - base_b, x2 - base_b, x3 - base_b), probabilities), base_b
    )
