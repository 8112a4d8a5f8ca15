"""Quantum strategy space over the joint basis (|OO>, |OT>, |TO>, |TT>).

State vectors and 4x4 density matrices for the two players' joint choice,
local SU(2) manipulation, the identity/flip mixing map, diagonal payoff
observables, and trace payoffs. The first tensor slot belongs to the row
player. Payoff evaluation is phase-insensitive throughout: only squared
moduli (the density diagonal) ever enter a payoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, InternalConsistencyError
from .game_core import BilinearPayoff, GamePayoffs, MixProbabilities, _bos_table

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
    "trace_payoffs",
    "bilinear_payoff_coefficients",
]

#: Canonical ordering of the joint basis; row player's symbol first.
BASIS_LABELS = ("OO", "OT", "TO", "TT")

# The validators test ``not gap <= TOL`` rather than ``gap > TOL`` so that a
# NaN anywhere in the input fails the check instead of slipping past it.
STATE_NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
#: Eigenvalues may dip slightly negative from repeated conjugation round-off.
EIGENVALUE_FLOOR = -1e-10
#: A payoff whose imaginary part exceeds this times the payoff scale is a bug.
IMAG_PART_TOL = 1e-9


def _flip_index(row_flips: bool, col_flips: bool) -> np.ndarray:
    """Flat index map of conjugation by (flip^row ⊗ flip^col) on a 4x4 matrix.

    A flip swaps one player's symbol in both the ket and the bra index: basis
    index k = 2 r + c becomes k ^ s, with s = 2 for a row flip, 1 for a
    column flip and 3 for both. Entry (m, n) of the conjugated matrix is entry
    (m ^ s, n ^ s) of the original, so gathering the flattened matrix with
    this map is the conjugation, exactly.
    """
    k = np.arange(4) ^ (2 * int(row_flips) + int(col_flips))
    return (4 * k[:, None] + k[None, :]).ravel()


# The only definition of "flip" on joint densities: the mixing map and its
# corner surface both gather through these maps.
_FLIP_ROW = _flip_index(True, False)
_FLIP_COL = _flip_index(False, True)
# Flat index map of the transpose: entry (i, j) gathers entry (j, i).
_TRANSPOSE = np.arange(16).reshape(4, 4).T.ravel()


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized joint strategy state: 4 complex amplitudes over BASIS_LABELS."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ConstraintViolation(
                f"a joint state needs exactly 4 amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= STATE_NORM_TOL:
            raise ConstraintViolation(
                f"state vector is not normalized: sum of squared moduli = {norm_sq!r}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, which: int | str) -> StateVector:
        """Basis state by index 0..3 or by label such as "TO"."""
        index = BASIS_LABELS.index(which) if isinstance(which, str) else which
        if not 0 <= index <= 3:
            raise ConstraintViolation(f"basis index must be 0..3, got {which!r}")
        amps = np.zeros(4, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def oo_tt(cls, a: complex, b: complex) -> StateVector:
        """Superposition a|OO> + b|TT> (must be normalized)."""
        return cls(np.array([a, 0.0, 0.0, b], dtype=complex))

    @classmethod
    def bell(cls) -> StateVector:
        """The maximally entangled state (|OO> + |TT>) / sqrt(2)."""
        return cls.oo_tt(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))

    def density_matrix(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


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
        # m - m^H on the flat view; the gather keeps both operands contiguous.
        flat = m.ravel()
        hermitian_gap = float(np.abs(flat - flat[_TRANSPOSE].conj()).max())
        if not hermitian_gap <= HERMITIAN_TOL:
            raise ConstraintViolation(
                f"density matrix is not Hermitian (max asymmetry {hermitian_gap:.3e})"
            )
        # The trace, summed pairwise in the order numpy's add.reduce uses.
        d0, d1, d2, d3 = flat[::5].tolist()
        trace_gap = abs((d0 + d1) + (d2 + d3) - 1.0)
        if not trace_gap <= TRACE_TOL:
            raise ConstraintViolation(
                f"density matrix trace deviates from 1 by {trace_gap:.3e}"
            )
        smallest = float(np.linalg.eigvalsh(m)[0])
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
        amps = psi.amplitudes
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
        d = np.asarray(self.diagonal, dtype=float)
        if d.shape != (4,):
            raise ConstraintViolation(
                f"a payoff operator needs 4 diagonal entries, got shape {d.shape}"
            )
        if not np.isfinite(d).all():
            raise ConstraintViolation("payoff operator entries must be finite")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "diagonal", d)
        # _payoff_means dots the diagonal with a complex one; numpy would cast
        # the real diagonal to this same complex copy on every call.
        d_complex = d.astype(complex)
        d_complex.setflags(write=False)
        object.__setattr__(self, "_complex_diagonal", d_complex)


#: Each player keeps their part of the state with the given probability
#: (p for the row player, q for the column player) and flips it otherwise:
#: the classical mixing probabilities, read as keep probabilities.
MixingChoice = MixProbabilities


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
    m00, m01, m10, m11 = psi_in.amplitudes.tolist()
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

    The map factorizes over the players, so it is applied one player at a
    time: the row player's keep/flip mix first, then the column player's.
    """
    r = rho_in.entries.ravel()
    # numpy multiplies a complex array by a real weight after promoting the
    # weight to complex; passing it complex gives the same bits, sooner.
    keep_p, flip_p = complex(mix.p), complex(1.0 - mix.p)
    keep_q, flip_q = complex(mix.q), complex(1.0 - mix.q)
    row = keep_p * r + flip_p * r[_FLIP_ROW]
    out = keep_q * row + flip_q * row[_FLIP_COL]
    return DensityMatrix(out.reshape(4, 4))


def payoff_operators(params: GamePayoffs) -> tuple[PayoffOperator, PayoffOperator]:
    """Diagonal payoff observables for the two players.

    Row player: (alpha, gamma, gamma, beta); column player: (beta, gamma,
    gamma, alpha), in the canonical basis order.
    """
    row, col = _bos_table(params)
    return PayoffOperator(row), PayoffOperator(col)


def _payoff_means(
    pa: PayoffOperator, pb: PayoffOperator, diag: np.ndarray, what: str
) -> tuple[float, float]:
    """Both players' mean payoffs over a density diagonal.

    An imaginary residue beyond IMAG_PART_TOL times the payoff scale (largest
    |payoff entry|, at least 1) is an internal inconsistency, named by ``what``;
    a valid density's diagonal is real within HERMITIAN_TOL / 2.
    """
    # ndarray.dot runs the same dot loop as ``@`` without the gufunc set-up.
    value_a = complex(pa._complex_diagonal.dot(diag))
    value_b = complex(pb._complex_diagonal.dot(diag))
    residue = max(abs(value_a.imag), abs(value_b.imag))
    # The scale is taken only past the absolute bound, off the common path.
    if residue > IMAG_PART_TOL and residue > IMAG_PART_TOL * max(
        1.0, *np.abs(pa.diagonal), *np.abs(pb.diagonal)
    ):
        raise InternalConsistencyError(
            f"{what} payoff has imaginary residue {residue:.3e}"
        )
    return value_a.real, value_b.real


def trace_payoffs(
    pa: PayoffOperator, pb: PayoffOperator, rho: DensityMatrix
) -> tuple[float, float]:
    """Mean values tr(P rho) for both diagonal payoff operators; only the
    diagonal of rho contributes."""
    return _payoff_means(pa, pb, rho.entries.diagonal(), "trace")


def bilinear_payoff_coefficients(
    rho_in: DensityMatrix, pa: PayoffOperator, pb: PayoffOperator
) -> tuple[BilinearPayoff, BilinearPayoff]:
    """Coefficients of both players' payoffs as functions of the keep
    probabilities (p, q).

    The mixing map makes each payoff bilinear in (p, q); the surface is
    pinned by the four corner payoffs, obtained by conjugating ``rho_in``
    with each keep/flip combination. Evaluating the returned forms at any
    corner reproduces the corresponding corner payoff exactly.
    """
    r = rho_in.entries.ravel()
    row_flipped = r[_FLIP_ROW]
    # conjugated[::5] holds entries (k, k) of the flattened 4x4.
    (t11_a, t11_b), (t10_a, t10_b), (t01_a, t01_b), (t00_a, t00_b) = (
        _payoff_means(pa, pb, conjugated[::5], "corner")
        for conjugated in (r, r[_FLIP_COL], row_flipped, row_flipped[_FLIP_COL])
    )
    return (
        BilinearPayoff.from_corner_values(t11_a, t10_a, t01_a, t00_a),
        BilinearPayoff.from_corner_values(t11_b, t10_b, t01_b, t00_b),
    )
