"""Quantum strategy space over the joint basis (|OO>, |OT>, |TO>, |TT>).

4x4 density matrices for the two players' joint choice (numpy arrays built
when read), local SU(2) manipulation, the identity/flip mixing map on
densities, diagonal payoff observables, and trace payoffs: the independent
routes the acceptance criteria check the production payoffs of
``qstatic.outcomes`` against; the joint state vector and the payoff surfaces
are defined there. The first tensor slot belongs to the row player. Payoff
evaluation is phase-insensitive throughout: only squared moduli (the density
diagonal) ever enter a payoff.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstraintViolation, InternalConsistencyError
from .game_core import BilinearPayoff, FrozenValue, GamePayoffs, MixProbabilities, slot_setters
from .outcomes import STATE_NORM_TOL, StateVector, corner_means, flipped, payoff_surfaces

__all__ = [
    "HERMITIAN_TOL",
    "TRACE_TOL",
    "EIGENVALUE_FLOOR",
    "IMAG_PART_TOL",
    "DensityMatrix",
    "LocalUnitary",
    "PayoffOperator",
    "apply_local_unitaries",
    "projection_probabilities",
    "mixed_final_density",
    "payoff_operators",
    "trace_payoffs",
    "bilinear_payoff_coefficients",
]

#: Another name for ``MixProbabilities``, kept only because the benchmark
#: calls ``qc.MixingChoice`` in ``bench/workloads.py`` and ``bench/tracer.py``
#: reports it as ``quantum_core.MixingChoice``. Not exported.
MixingChoice = MixProbabilities

# The validators test ``not gap <= TOL`` rather than ``gap > TOL`` so that a
# NaN anywhere in the input fails the check instead of slipping past it.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
#: Eigenvalues may dip slightly negative from repeated conjugation round-off.
EIGENVALUE_FLOOR = -1e-10
#: How far above the floor a positivity certificate must place the spectrum;
#: far wider than the certificate's own round-off, about 1e-15.
_CERTIFICATE_MARGIN = 1e-12
#: A payoff whose imaginary part exceeds this times the payoff scale is a bug.
IMAG_PART_TOL = 1e-9


def _flip_index(row_flips: bool, col_flips: bool) -> np.ndarray:
    """Flat index map of conjugation by (flip^row ⊗ flip^col) on a 4x4 matrix.

    A flip swaps one player's symbol in both the ket and the bra index
    (``outcomes.flipped``), so entry (m, n) of the conjugated matrix is entry
    (m ^ s, n ^ s) of the original: gathering the flattened matrix with this
    map is the conjugation, exactly.
    """
    k = np.array(flipped(range(4), row_flips, col_flips))
    return (4 * k[:, None] + k[None, :]).ravel()


#: Flat index maps of the four keep/flip conjugations, one row per weight of
#: ``mixed_final_density``: keep/keep, keep/flip, flip/keep, flip/flip.
_MIX_INDEX = np.stack(
    [_flip_index(row, col) for row in (False, True) for col in (False, True)]
)


def _certified_above_floor(
    a00: complex, a10: complex, a11: complex, a20: complex, a21: complex,
    a22: complex, a30: complex, a31: complex, a32: complex, a33: complex,
) -> bool:
    """Whether an LDL^H factorization of A - (EIGENVALUE_FLOOR +
    _CERTIFICATE_MARGIN) I has four positive pivots, for the Hermitian A
    with this lower triangle; only the real parts of its diagonal count.

    Positive pivots prove A's smallest eigenvalue at least the floor plus the
    margin, up to the factorization's backward error. A unit-trace A that
    factors has entries of at most about 1, so that error is about 1e-15,
    far inside the margin, and eigvalsh would then read A at or above the
    floor too. False only means not certified: a pivot at or below 0, or
    NaN from an overflow.
    """
    shift = EIGENVALUE_FLOOR + _CERTIFICATE_MARGIN
    d = a00.real - shift
    if not d > 0:
        return False
    # Schur complement of the first pivot: b_ij = a_ij - a_i0 conj(a_j0) / d.
    r = 1.0 / d
    l1, l2, l3 = a10 * r, a20 * r, a30 * r
    b11 = a11.real - shift - (l1.real * a10.real + l1.imag * a10.imag)
    b21 = a21 - l2 * a10.conjugate()
    b31 = a31 - l3 * a10.conjugate()
    b22 = a22.real - shift - (l2.real * a20.real + l2.imag * a20.imag)
    b32 = a32 - l3 * a20.conjugate()
    b33 = a33.real - shift - (l3.real * a30.real + l3.imag * a30.imag)
    if not b11 > 0:
        return False
    # Schur complement of the second pivot.
    r = 1.0 / b11
    l2, l3 = b21 * r, b31 * r
    c22 = b22 - (l2.real * b21.real + l2.imag * b21.imag)
    c32 = b32 - l3 * b21.conjugate()
    c33 = b33 - (l3.real * b31.real + l3.imag * b31.imag)
    if not c22 > 0:
        return False
    l3 = c32 * (1.0 / c22)
    return c33 - (l3.real * c32.real + l3.imag * c32.imag) > 0


class DensityMatrix(FrozenValue):
    """4x4 Hermitian, unit-trace, positive-semidefinite joint strategy state.

    The checks read the entries as Python numbers. The matrix is kept as
    given in ``_rows`` (4 row tuples of ``complex``, or a private array), and
    the diagonal's real and imaginary parts, the only entries that enter a
    payoff, as the float tuples ``_real`` and ``_imag``; ``entries``, a
    read-only array, is built on its first read and kept. Two densities are
    equal only if they are the same object.
    """

    _fields = ("entries",)
    __slots__ = ("entries", "_rows", "_real", "_imag")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, entries: np.ndarray) -> None:
        self.__post_init__(entries)

    def __post_init__(self, entries: np.ndarray) -> None:
        rows = entries
        # Numpy's conversion gives 4 row tuples of complex numbers back value
        # for value, so they are read as they are; anything else goes through
        # it, which also words a wrong shape.
        exact = (
            type(rows) is tuple and len(rows) == 4
            and type(rows[0]) is type(rows[1]) is type(rows[2]) is type(rows[3]) is tuple
            and len(rows[0]) == len(rows[1]) == len(rows[2]) == len(rows[3]) == 4
        )
        if exact:
            ((v00, v01, v02, v03), (v10, v11, v12, v13),
             (v20, v21, v22, v23), (v30, v31, v32, v33)) = rows
            exact = (
                type(v00) is type(v01) is type(v02) is type(v03) is type(v10) is type(v11)
                is type(v12) is type(v13) is type(v20) is type(v21) is type(v22) is type(v23)
                is type(v30) is type(v31) is type(v32) is type(v33) is complex
            )
        if not exact:
            rows = np.array(entries, dtype=complex)
            if rows.shape != (4, 4):
                raise ConstraintViolation(
                    f"a joint density matrix must be 4x4, got shape {rows.shape}"
                )
            (v00, v01, v02, v03, v10, v11, v12, v13,
             v20, v21, v22, v23, v30, v31, v32, v33) = rows.ravel().tolist()
        # |m[i, j] - conj(m[j, i])| for j >= i covers every entry of m - m^H.
        # The diagonal goes first; the pair terms are all 0 where every entry
        # off the diagonal is 0, and NaN is true, so it still reaches them.
        off_diagonal = v01 or v02 or v03 or v10 or v12 or v13 or v20 or v21 or v23 or v30 or v31 or v32
        tol = HERMITIAN_TOL
        try:
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
        except OverflowError:
            # abs() raises for a finite gap whose modulus passes the float range.
            hermitian = False
        if not hermitian:
            m = np.array(rows, dtype=complex)
            # A non-finite conjugate pair makes the gap NaN, and a finite one
            # may overflow to inf: say so, not warn.
            with np.errstate(invalid="ignore", over="ignore"):
                hermitian_gap = float(np.abs(m - m.conj().T).max())
            raise ConstraintViolation(
                f"density matrix is not Hermitian (max asymmetry {hermitian_gap:.3e})"
            )
        # The trace, summed pairwise in the order numpy's add.reduce uses.
        trace_gap = abs((v00 + v11) + (v22 + v33) - 1.0)
        if not trace_gap <= TRACE_TOL:
            raise ConstraintViolation(
                f"density matrix trace deviates from 1 by {trace_gap:.3e}"
            )
        if off_diagonal:
            # The lower triangle is the half eigvalsh reads. Positive pivots put
            # every eigenvalue above the floor, so the floor stands in for the
            # smallest; LAPACK decides the rest.
            if _certified_above_floor(v00, v10, v11, v20, v21, v22, v30, v31, v32, v33):
                smallest = EIGENVALUE_FLOOR
            else:
                smallest = float(np.linalg.eigvalsh(np.array(rows, dtype=complex))[0])
        else:
            # A diagonal matrix's eigenvalues are its diagonal; eigvalsh reads
            # only the real parts and returns this same value.
            smallest = min(v00.real, v11.real, v22.real, v33.real)
        if not smallest >= EIGENVALUE_FLOOR:
            raise ConstraintViolation(
                f"density matrix has a negative eigenvalue ({smallest:.3e})"
            )
        _set_rows(self, rows)
        _set_real(self, (v00.real, v11.real, v22.real, v33.real))
        _set_imag(self, (v00.imag, v11.imag, v22.imag, v33.imag))

    def __getattr__(self, name: str) -> np.ndarray:
        # Called only for a slot not yet written: ``entries`` on its first read.
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = np.array(self._rows, dtype=complex)
        m.setflags(write=False)
        _set_entries(self, m)
        return m

    def diagonal_probabilities(self) -> np.ndarray:
        """Real diagonal; these are the joint measurement probabilities."""
        return np.array(self._real)

    def fidelity(self, psi: StateVector) -> float:
        """Overlap <psi| rho |psi>, real for a valid density matrix."""
        amps = np.array(psi.amplitudes)
        return float(np.real(amps.conj() @ self.entries @ amps))


_set_entries, _set_rows, _set_real, _set_imag = slot_setters(DensityMatrix)


class LocalUnitary(FrozenValue):
    """Single-player SU(2) tactic [[a, b], [-conj(b), conj(a)]]."""

    _fields = __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex) -> None:
        self.__post_init__(a, b)

    def __post_init__(self, a: complex, b: complex) -> None:
        a, b = complex(a), complex(b)
        norm = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
        if not abs(norm - 1.0) <= STATE_NORM_TOL:
            raise ConstraintViolation(
                f"|a|^2 + |b|^2 must be 1 for a local tactic, got {norm!r}"
            )
        _set_a(self, a)
        _set_b(self, b)

    @classmethod
    def identity(cls) -> LocalUnitary:
        return cls(1.0, 0.0)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]], dtype=complex
        )


_set_a, _set_b = slot_setters(LocalUnitary)


class PayoffOperator(FrozenValue):
    """Observable diagonal in the canonical basis; entries are payoffs.

    The checked payoffs are kept as the float tuple ``_values``;
    ``diagonal``, a read-only array, is built on its first read and kept.
    Two operators are equal only if they are the same object.
    """

    _fields = ("diagonal",)
    __slots__ = ("diagonal", "_values")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, diagonal: np.ndarray) -> None:
        self.__post_init__(diagonal)

    def __post_init__(self, diagonal: np.ndarray) -> None:
        values = diagonal
        # Numpy's conversion gives a 4-tuple of floats back value for value,
        # so it is read as it is; anything else goes through that conversion.
        if not (
            type(values) is tuple and len(values) == 4
            and type(values[0]) is type(values[1]) is type(values[2]) is type(values[3]) is float
        ):
            d = np.array(diagonal, dtype=float)
            if d.shape != (4,):
                raise ConstraintViolation(
                    f"a payoff operator needs 4 diagonal entries, got shape {d.shape}"
                )
            values = tuple(d.tolist())
        # Python floats test faster than numpy's isfinite; the payoff routes read them too.
        v0, v1, v2, v3 = values
        isfinite = math.isfinite
        if not (isfinite(v0) and isfinite(v1) and isfinite(v2) and isfinite(v3)):
            raise ConstraintViolation("payoff operator entries must be finite")
        _set_values(self, values)

    def __getattr__(self, name: str) -> np.ndarray:
        # Called only for a slot not yet written: ``diagonal`` on its first read.
        if name != "diagonal":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d = np.array(self._values, dtype=float)
        d.setflags(write=False)
        _set_diagonal(self, d)
        return d


_set_diagonal, _set_values = slot_setters(PayoffOperator)


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
    return np.array(psi.probabilities)


def mixed_final_density(rho_in: DensityMatrix, mix: MixProbabilities) -> DensityMatrix:
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
    row, col = params.outcome_payoffs
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
        1.0, *map(abs, pa._values), *map(abs, pb._values)
    ):
        raise InternalConsistencyError(
            f"{what} payoff has imaginary residue {residue:.3e}"
        )


def trace_payoffs(
    pa: PayoffOperator, pb: PayoffOperator, rho: DensityMatrix
) -> tuple[float, float]:
    """Mean values tr(P rho) for both diagonal payoff operators; only the
    diagonal of rho contributes."""
    # Four Python floats sum faster than a numpy dot on them. A payoff times
    # a diagonal entry has the real part payoff * entry.real (up to the sign
    # of a zero), so the imaginary parts enter only the residue.
    d0, d1, d2, d3 = rho._real
    x0, x1, x2, x3 = pa._values
    y0, y1, y2, y3 = pb._values
    value_a = (x0 * d0 + x1 * d1) + (x2 * d2 + x3 * d3)
    value_b = (y0 * d0 + y1 * d1) + (y2 * d2 + y3 * d3)
    i0, i1, i2, i3 = rho._imag
    if i0 or i1 or i2 or i3:
        residue = max(
            abs((x0 * i0 + x1 * i1) + (x2 * i2 + x3 * i3)),
            abs((y0 * i0 + y1 * i1) + (y2 * i2 + y3 * i3)),
        )
        # The residue check's own first test, so a valid density makes no call.
        if residue > IMAG_PART_TOL:
            _check_imaginary_residue(residue, "trace", pa, pb)
    return value_a, value_b


def bilinear_payoff_coefficients(
    rho_in: DensityMatrix, pa: PayoffOperator, pb: PayoffOperator
) -> tuple[BilinearPayoff, BilinearPayoff]:
    """``outcomes.payoff_surfaces`` for a density matrix and two payoff
    operators: only the density's diagonal enters.

    The diagonal's imaginary part must leave every corner payoff real within
    IMAG_PART_TOL of the payoff scale.
    """
    payoffs_a, payoffs_b = pa._values, pb._values
    imaginary = rho_in._imag
    # With every imaginary part exactly zero every residue is exactly zero.
    if any(imaginary):
        residues = corner_means(payoffs_a, imaginary) + corner_means(payoffs_b, imaginary)
        _check_imaginary_residue(max(map(abs, residues)), "corner", pa, pb)
    return payoff_surfaces(rho_in._real, payoffs_a, payoffs_b)
