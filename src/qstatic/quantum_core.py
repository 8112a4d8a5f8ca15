"""Quantum strategy space over the joint basis (|OO>, |OT>, |TO>, |TT>).

Numpy-backed 4x4 density matrices for the two players' joint choice, local
SU(2) manipulation, the identity/flip mixing map on densities, diagonal
payoff observables, and trace payoffs: the independent routes the
acceptance criteria check the production payoffs of ``qstatic.outcomes``
against. The joint state vector and the payoff surfaces come from
``outcomes`` and are importable from here too. The first tensor slot belongs
to the row player. Payoff evaluation is phase-insensitive throughout: only
squared moduli (the density diagonal) ever enter a payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, InternalConsistencyError
from .game_core import BilinearPayoff, GamePayoffs, _bos_table
from .outcomes import (
    BASIS_LABELS,
    STATE_NORM_TOL,
    MixingChoice,
    StateVector,
    _corner_means,
    _flipped,
    payoff_surfaces,
)

__all__ = [
    "BASIS_LABELS",
    "STATE_NORM_TOL",
    "HERMITIAN_TOL",
    "TRACE_TOL",
    "EIGENVALUE_FLOOR",
    "IMAG_PART_TOL",
    "StateVector",
    "DensityMatrix",
    "LocalUnitary",
    "PayoffOperator",
    "MixingChoice",
    "apply_local_unitaries",
    "projection_probabilities",
    "mixed_final_density",
    "payoff_operators",
    "payoff_surfaces",
    "trace_payoffs",
    "bilinear_payoff_coefficients",
]

# The validators test ``not gap <= TOL`` rather than ``gap > TOL`` so that a
# NaN anywhere in the input fails the check instead of slipping past it.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
#: Eigenvalues may dip slightly negative from repeated conjugation round-off.
EIGENVALUE_FLOOR = -1e-10
#: A payoff whose imaginary part exceeds this times the payoff scale is a bug.
IMAG_PART_TOL = 1e-9


def _flip_index(row_flips: bool, col_flips: bool) -> np.ndarray:
    """Flat index map of conjugation by (flip^row ⊗ flip^col) on a 4x4 matrix.

    A flip swaps one player's symbol in both the ket and the bra index
    (``outcomes._flipped``), so entry (m, n) of the conjugated matrix is entry
    (m ^ s, n ^ s) of the original: gathering the flattened matrix with this
    map is the conjugation, exactly.
    """
    k = np.array(_flipped(range(4), row_flips, col_flips))
    return (4 * k[:, None] + k[None, :]).ravel()


#: Flat index maps of the four keep/flip conjugations, one row per weight of
#: ``mixed_final_density``: keep/keep, keep/flip, flip/keep, flip/flip.
_MIX_INDEX = np.stack(
    [_flip_index(row, col) for row in (False, True) for col in (False, True)]
)
#: Flat positions of each entry (i, j) on or above the diagonal and of its
#: mirror (j, i); then the flat positions off the diagonal.
_UPPER_PAIRS = tuple((4 * i + j, 4 * j + i) for i in range(4) for j in range(i, 4))
_OFF_DIAGONAL = tuple(k for k in range(16) if k % 5)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, positive-semidefinite joint strategy state."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ConstraintViolation(
                f"a joint density matrix must be 4x4, got shape {m.shape}"
            )
        # Sixteen Python complex numbers test faster than small numpy arrays.
        v = m.ravel().tolist()
        # |m[i, j] - conj(m[j, i])| for j >= i covers every entry of m - m^H.
        if not all(abs(v[i] - v[j].conjugate()) <= HERMITIAN_TOL for i, j in _UPPER_PAIRS):
            hermitian_gap = float(np.abs(m - m.conj().T).max())
            raise ConstraintViolation(
                f"density matrix is not Hermitian (max asymmetry {hermitian_gap:.3e})"
            )
        # The trace, summed pairwise in the order numpy's add.reduce uses.
        d0, d1, d2, d3 = v[0], v[5], v[10], v[15]
        trace_gap = abs((d0 + d1) + (d2 + d3) - 1.0)
        if not trace_gap <= TRACE_TOL:
            raise ConstraintViolation(
                f"density matrix trace deviates from 1 by {trace_gap:.3e}"
            )
        if any(v[k] for k in _OFF_DIAGONAL):
            smallest = float(np.linalg.eigvalsh(m)[0])
        else:
            # A diagonal matrix's eigenvalues are its diagonal; eigvalsh reads
            # only the real parts and returns this same value.
            smallest = min(d0.real, d1.real, d2.real, d3.real)
        if not smallest >= EIGENVALUE_FLOOR:
            raise ConstraintViolation(
                f"density matrix has a negative eigenvalue ({smallest:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def diagonal_probabilities(self) -> np.ndarray:
        """Real diagonal; these are the joint measurement probabilities."""
        return np.real(np.diagonal(self.entries)).copy()

    def fidelity(self, psi: StateVector) -> float:
        """Overlap <psi| rho |psi>, real for a valid density matrix."""
        amps = np.array(psi.amplitudes)
        return float(np.real(amps.conj() @ self.entries @ amps))


@dataclass(frozen=True)
class LocalUnitary:
    """Single-player SU(2) tactic [[a, b], [-conj(b), conj(a)]]."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        a = complex(self.a)
        b = complex(self.b)
        norm = abs(a) ** 2 + abs(b) ** 2
        if not abs(norm - 1.0) <= STATE_NORM_TOL:
            raise ConstraintViolation(
                f"|a|^2 + |b|^2 must be 1 for a local tactic, got {norm!r}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def identity(cls) -> LocalUnitary:
        return cls(1.0, 0.0)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]], dtype=complex
        )


@dataclass(frozen=True, eq=False)
class PayoffOperator:
    """Observable diagonal in the canonical basis; entries are payoffs."""

    diagonal: np.ndarray

    def __post_init__(self) -> None:
        # One copy, so the caller's array can change without changing this one.
        d = np.array(self.diagonal, dtype=float)
        if d.shape != (4,):
            raise ConstraintViolation(
                f"a payoff operator needs 4 diagonal entries, got shape {d.shape}"
            )
        # Four Python floats test faster than numpy's isfinite on a small array.
        if not all(map(math.isfinite, d.tolist())):
            raise ConstraintViolation("payoff operator entries must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "diagonal", d)
        # trace_payoffs dots the diagonal with a complex one; numpy would cast
        # the real diagonal to this same complex copy on every call.
        d_complex = d.astype(complex)
        d_complex.setflags(write=False)
        object.__setattr__(self, "_complex_diagonal", d_complex)


def apply_local_unitaries(
    ua: LocalUnitary, ub: LocalUnitary, psi_in: StateVector
) -> StateVector:
    """Joint action (ua ⊗ ub) |psi_in>; the norm is preserved.

    Acting on |OO> gives amplitudes (a c, -a conj(d), -conj(b) c,
    conj(b) conj(d)) where (a, b) parametrize ua and (c, d) parametrize ub.
    """
    # On the 2x2 reshaped amplitudes M[row, col] the joint action is
    # Ua M Ub^T (a plain transpose), written out entry by entry.
    a, b, c, d = ua.a, ua.b, ub.a, ub.b
    a_, b_, c_, d_ = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    m00, m01, m10, m11 = psi_in.amplitudes
    # Column player: Ub = [[c, d], [-conj(d), conj(c)]] on the second slot.
    n00 = c * m00 + d * m01
    n01 = c_ * m01 - d_ * m00
    n10 = c * m10 + d * m11
    n11 = c_ * m11 - d_ * m10
    # Row player: Ua = [[a, b], [-conj(b), conj(a)]] on the first slot.
    return StateVector(
        [a * n00 + b * n10, a * n01 + b * n11, a_ * n10 - b_ * n00, a_ * n11 - b_ * n01]
    )


def projection_probabilities(psi: StateVector) -> np.ndarray:
    """Squared moduli of the projections onto the canonical basis."""
    return np.abs(psi.amplitudes) ** 2


def mixed_final_density(rho_in: DensityMatrix, mix: MixingChoice) -> DensityMatrix:
    """Both players independently keep or flip their half of the joint state.

    Returns the convex combination of the four conjugations of ``rho_in``
    by (keep/flip ⊗ keep/flip), weighted by p q, p (1-q), (1-p) q and
    (1-p)(1-q). All density-matrix invariants are preserved and re-checked
    on the output.

    One gather stacks the four conjugations of the flattened input, and one
    product with the weight vector sums them.
    """
    p, q = mix.p, mix.q
    weights = np.array(
        [p * q, p * (1.0 - q), (1.0 - p) * q, (1.0 - p) * (1.0 - q)], dtype=complex
    )
    out = weights.dot(rho_in.entries.ravel()[_MIX_INDEX])
    return DensityMatrix(out.reshape(4, 4))


def payoff_operators(params: GamePayoffs) -> tuple[PayoffOperator, PayoffOperator]:
    """Diagonal payoff observables for the two players.

    Row player: (alpha, gamma, gamma, beta); column player: (beta, gamma,
    gamma, alpha), in the canonical basis order.
    """
    row, col = _bos_table(params)
    return PayoffOperator(row), PayoffOperator(col)


def _check_imaginary_residue(
    residue: float, what: str, pa: PayoffOperator, pb: PayoffOperator
) -> None:
    """An imaginary residue beyond IMAG_PART_TOL times the payoff scale
    (largest |payoff entry|, at least 1) is an internal inconsistency, named
    by ``what``; a valid density's diagonal is real within HERMITIAN_TOL / 2.
    """
    # The scale is taken only past the absolute bound, off the common path.
    if residue > IMAG_PART_TOL and residue > IMAG_PART_TOL * max(
        1.0, *np.abs(pa.diagonal), *np.abs(pb.diagonal)
    ):
        raise InternalConsistencyError(
            f"{what} payoff has imaginary residue {residue:.3e}"
        )


def trace_payoffs(
    pa: PayoffOperator, pb: PayoffOperator, rho: DensityMatrix
) -> tuple[float, float]:
    """Mean values tr(P rho) for both diagonal payoff operators; only the
    diagonal of rho contributes."""
    diag = rho.entries.diagonal()
    # ndarray.dot runs the same dot loop as ``@`` without the gufunc set-up.
    value_a = complex(pa._complex_diagonal.dot(diag))
    value_b = complex(pb._complex_diagonal.dot(diag))
    _check_imaginary_residue(max(abs(value_a.imag), abs(value_b.imag)), "trace", pa, pb)
    return value_a.real, value_b.real


def bilinear_payoff_coefficients(
    rho_in: DensityMatrix, pa: PayoffOperator, pb: PayoffOperator
) -> tuple[BilinearPayoff, BilinearPayoff]:
    """``outcomes.payoff_surfaces`` for a density matrix and two payoff
    operators: only the density's diagonal enters.

    The diagonal's imaginary part must leave every corner payoff real within
    IMAG_PART_TOL of the payoff scale.
    """
    diagonal = rho_in.entries.diagonal().tolist()
    payoffs_a, payoffs_b = pa.diagonal.tolist(), pb.diagonal.tolist()
    imaginary = [d.imag for d in diagonal]
    # With every imaginary part exactly zero every residue is exactly zero.
    if any(imaginary):
        residues = _corner_means(payoffs_a, imaginary) + _corner_means(payoffs_b, imaginary)
        _check_imaginary_residue(max(map(abs, residues)), "corner", pa, pb)
    return payoff_surfaces([d.real for d in diagonal], payoffs_a, payoffs_b)
