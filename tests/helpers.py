"""Shared generators and independent oracles used across the test modules."""

from __future__ import annotations

import numpy as np

from qstatic.game_core import BilinearPayoff
from qstatic.quantum_core import DensityMatrix, LocalUnitary


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
