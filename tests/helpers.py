"""Shared generators and independent oracles used across the test modules."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from qstatic.errors import ConstraintViolation
from qstatic.game_core import BilinearPayoff
from qstatic.outcomes import _corner_means, payoff_surfaces
from qstatic.quantum_core import (
    EIGENVALUE_FLOOR,
    HERMITIAN_TOL,
    TRACE_TOL,
    DensityMatrix,
    LocalUnitary,
    PayoffOperator,
    _check_imaginary_residue,
)


def load_tool(name: str):
    """The module ``tools/<name>.py``; ``tools`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def coefficients(bp: BilinearPayoff) -> tuple:
    """(pq, p, q, const) with value(p, q) = pq p q + p p + q q + const."""
    return (
        bp.at_11 - bp.at_10 - bp.at_01 + bp.at_00,
        bp.at_10 - bp.at_00,
        bp.at_01 - bp.at_00,
        bp.base + bp.at_00,
    )


def random_density(rng: np.random.Generator) -> DensityMatrix:
    """Random valid density matrix from a complex Ginibre draw."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.real(np.trace(m)))


def forged_density(entries) -> DensityMatrix:
    """A ``DensityMatrix`` that skips validation, to exercise the defensive
    checks downstream: its entries and the diagonal parts it keeps."""
    rho = object.__new__(DensityMatrix)
    m = np.array(entries, dtype=complex)
    diagonal = m.diagonal().tolist()
    object.__setattr__(rho, "_rows", m)
    object.__setattr__(rho, "_real", tuple(d.real for d in diagonal))
    object.__setattr__(rho, "_imag", tuple(d.imag for d in diagonal))
    return rho


def random_su2(rng: np.random.Generator) -> LocalUnitary:
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return LocalUnitary(complex(v[0], v[1]), complex(v[2], v[3]))


def brute_force_survivors(
    payoff_a: np.ndarray, payoff_b: np.ndarray
) -> tuple[set[int], set[int]]:
    """Fixed point of strict-dominance removal, written independently of the
    library: each pass removes every currently dominated strategy at once."""
    rows = set(range(payoff_a.shape[0]))
    cols = set(range(payoff_a.shape[1]))
    while True:
        dead_rows = {
            i
            for i in rows
            if any(
                all(payoff_a[i, j] < payoff_a[k, j] for j in cols)
                for k in rows
                if k != i
            )
        }
        dead_cols = {
            j
            for j in cols
            if any(
                all(payoff_b[i, j] < payoff_b[i, k] for i in rows)
                for k in cols
                if k != j
            )
        }
        if not dead_rows and not dead_cols:
            return rows, cols
        rows -= dead_rows
        cols -= dead_cols


def brute_force_pure_nash(
    payoff_a: np.ndarray, payoff_b: np.ndarray
) -> set[tuple[int, int]]:
    """Deviation-by-deviation scan of every profile."""
    n_rows, n_cols = payoff_a.shape
    out = set()
    for i in range(n_rows):
        for j in range(n_cols):
            if any(payoff_a[k, j] > payoff_a[i, j] for k in range(n_rows)):
                continue
            if any(payoff_b[i, k] > payoff_b[i, j] for k in range(n_cols)):
                continue
            out.add((i, j))
    return out


def best_response_defect_grid(
    bp_a: BilinearPayoff, bp_b: BilinearPayoff, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-response defect of every point of an n x n grid over [0,1]^2.

    The defect is how much a player could gain by jumping to their best pure
    response; payoffs are affine in each player's own coordinate, so the best
    response is always at an endpoint. Zero defect means Nash.
    """
    axis = np.linspace(0.0, 1.0, n)
    p, q = np.meshgrid(axis, axis, indexing="ij")

    def value(bp: BilinearPayoff, pp: np.ndarray, qq: np.ndarray) -> np.ndarray:
        pq, p_coeff, q_coeff, const = coefficients(bp)
        return pq * pp * qq + p_coeff * pp + q_coeff * qq + const

    defect_a = (
        np.maximum(value(bp_a, np.zeros_like(p), q), value(bp_a, np.ones_like(p), q))
        - value(bp_a, p, q)
    )
    defect_b = (
        np.maximum(value(bp_b, p, np.zeros_like(q)), value(bp_b, p, np.ones_like(q)))
        - value(bp_b, p, q)
    )
    return p, q, np.maximum(defect_a, defect_b)


def endpoint_certificate_holds(
    bp_a: BilinearPayoff, bp_b: BilinearPayoff, p: float, q: float, tol: float = 1e-12
) -> bool:
    """No player may gain more than tol at either endpoint of their own axis."""
    own_a = bp_a.value(p, q)
    own_b = bp_b.value(p, q)
    return (
        own_a >= bp_a.value(0.0, q) - tol
        and own_a >= bp_a.value(1.0, q) - tol
        and own_b >= bp_b.value(p, 0.0) - tol
        and own_b >= bp_b.value(p, 1.0) - tol
    )


# Reference copies of earlier implementations of the oracle routes' checks
# and payoffs, written pair by pair and through numpy; the production code
# must accept, reject and compute as they do.

_UPPER_PAIRS = tuple((4 * i + j, 4 * j + i) for i in range(4) for j in range(i, 4))
_OFF_DIAGONAL = tuple(k for k in range(16) if k % 5)


def reference_density_check(entries) -> np.ndarray:
    """``DensityMatrix`` validation through index tables: returns the checked
    complex matrix or raises ``ConstraintViolation`` with the same message.
    A non-finite conjugate pair warns in numpy on the rejection path."""
    m = np.array(entries, dtype=complex)
    if m.shape != (4, 4):
        raise ConstraintViolation(
            f"a joint density matrix must be 4x4, got shape {m.shape}"
        )
    v = m.ravel().tolist()
    if not all(abs(v[i] - v[j].conjugate()) <= HERMITIAN_TOL for i, j in _UPPER_PAIRS):
        hermitian_gap = float(np.abs(m - m.conj().T).max())
        raise ConstraintViolation(
            f"density matrix is not Hermitian (max asymmetry {hermitian_gap:.3e})"
        )
    d0, d1, d2, d3 = v[0], v[5], v[10], v[15]
    trace_gap = abs((d0 + d1) + (d2 + d3) - 1.0)
    if not trace_gap <= TRACE_TOL:
        raise ConstraintViolation(
            f"density matrix trace deviates from 1 by {trace_gap:.3e}"
        )
    if any(v[k] for k in _OFF_DIAGONAL):
        smallest = float(np.linalg.eigvalsh(m)[0])
    else:
        smallest = min(d0.real, d1.real, d2.real, d3.real)
    if not smallest >= EIGENVALUE_FLOOR:
        raise ConstraintViolation(
            f"density matrix has a negative eigenvalue ({smallest:.3e})"
        )
    return m


def reference_trace_payoffs(
    pa: PayoffOperator, pb: PayoffOperator, rho: DensityMatrix
) -> tuple[float, float]:
    """tr(P rho) as numpy's dot of the complex-cast payoff diagonal with the
    density's diagonal."""
    diag = rho.entries.diagonal()
    value_a = complex(pa.diagonal.astype(complex).dot(diag))
    value_b = complex(pb.diagonal.astype(complex).dot(diag))
    return value_a.real, value_b.real


def reference_bilinear_payoff_coefficients(
    rho_in: DensityMatrix, pa: PayoffOperator, pb: PayoffOperator
) -> tuple[BilinearPayoff, BilinearPayoff]:
    """Payoff surfaces with the payoffs read off the operators' arrays."""
    diagonal = rho_in.entries.diagonal().tolist()
    payoffs_a, payoffs_b = pa.diagonal.tolist(), pb.diagonal.tolist()
    imaginary = [d.imag for d in diagonal]
    if any(imaginary):
        residues = _corner_means(payoffs_a, imaginary) + _corner_means(payoffs_b, imaginary)
        _check_imaginary_residue(max(map(abs, residues)), "corner", pa, pb)
    return payoff_surfaces([d.real for d in diagonal], payoffs_a, payoffs_b)
