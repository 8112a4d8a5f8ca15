from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_density, random_su2
from qstatic.errors import ConstraintViolation, InternalConsistencyError
from qstatic.game_core import GamePayoffs, MixProbabilities, bos_bimatrix, expected_payoffs
from qstatic.quantum_core import (
    BASIS_LABELS,
    DensityMatrix,
    LocalUnitary,
    MixingChoice,
    PayoffOperator,
    StateVector,
    apply_local_unitaries,
    bilinear_payoff_coefficients,
    mixed_final_density,
    payoff_operators,
    payoff_surfaces,
    projection_probabilities,
    trace_payoffs,
)

BOS = GamePayoffs(3, 2, 1)

# Dense keep/flip conjugation operators: the definition of the mixing map,
# kept here as an oracle independent of the library's index maps.
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
_EYE2 = np.eye(2)
_KEEP_KEEP = np.eye(4)
_KEEP_FLIP = np.kron(_EYE2, _FLIP)
_FLIP_KEEP = np.kron(_FLIP, _EYE2)
_FLIP_FLIP = np.kron(_FLIP, _FLIP)


def mixing_map_oracle(rho: np.ndarray, p: float, q: float) -> np.ndarray:
    """Weighted sum of the four conjugations by (keep/flip ⊗ keep/flip)."""
    weighted = (
        (p * q, _KEEP_KEEP),
        (p * (1 - q), _KEEP_FLIP),
        ((1 - p) * q, _FLIP_KEEP),
        ((1 - p) * (1 - q), _FLIP_FLIP),
    )
    return sum(w * (op @ rho @ op.conj().T) for w, op in weighted)


def random_state(rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return StateVector(amps / np.linalg.norm(amps))


class TestStateVector:
    def test_basis_states(self):
        for k, label in enumerate(BASIS_LABELS):
            state = StateVector.basis(label)
            assert state.amplitudes[k] == 1
            assert np.count_nonzero(state.amplitudes) == 1

    def test_rejects_denormalized(self):
        with pytest.raises(ConstraintViolation):
            StateVector(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ConstraintViolation):
            StateVector(np.array([1.0, 0.0]))

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ConstraintViolation):
            StateVector(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_amplitudes_frozen(self):
        state = StateVector.bell()
        with pytest.raises(TypeError):
            state.amplitudes[0] = 0.0

    def test_projector_is_valid_density(self):
        rho = StateVector.bell().density_matrix()
        assert rho.fidelity(StateVector.bell()) == pytest.approx(1.0, abs=1e-12)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ConstraintViolation):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ConstraintViolation):
            DensityMatrix(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ConstraintViolation):
            DensityMatrix(m)

    def test_rejects_nan_entry(self):
        with pytest.raises(ConstraintViolation):
            DensityMatrix(np.diag([np.nan, 1.0, 0.0, 0.0]))

    def test_diagonal_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(rng)
            assert rho.diagonal_probabilities().sum() == pytest.approx(1.0, abs=1e-12)


class TestLocalUnitaries:
    def test_identity_fixes_basis_state(self):
        state = apply_local_unitaries(
            LocalUnitary.identity(), LocalUnitary.identity(), StateVector.basis("OO")
        )
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_double_flip_moves_oo_to_tt(self):
        swap = LocalUnitary(0.0, 1.0)
        state = apply_local_unitaries(swap, swap, StateVector.basis("OO"))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_onesided_rotation_amplitudes(self):
        # Frozen from a direct 4x4 matrix-vector multiply by hand.
        r = 1 / np.sqrt(2)
        rotate = LocalUnitary(r, r)
        state = apply_local_unitaries(
            rotate, LocalUnitary.identity(), StateVector.basis("OO")
        )
        np.testing.assert_allclose(state.amplitudes, [r, 0, -r, 0], atol=1e-15)

    def test_rejects_denormalized_tactic(self):
        with pytest.raises(ConstraintViolation):
            LocalUnitary(1.0, 0.5)

    def test_rejects_nan_tactic(self):
        with pytest.raises(ConstraintViolation):
            LocalUnitary(np.nan, 0.0)

    def test_matches_kron_definition_for_complex_tactics(self):
        # Complex b and d on both sides and non-basis states: a transposed,
        # conjugated or swapped factor changes the amplitudes, not the norm.
        rng = np.random.default_rng(29)
        for _ in range(500):
            ua, ub, psi = random_su2(rng), random_su2(rng), random_state(rng)
            assert ua.b.imag != 0 and ub.b.imag != 0
            want = np.kron(ua.matrix, ub.matrix) @ psi.amplitudes
            got = apply_local_unitaries(ua, ub, psi).amplitudes
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_norm_preserved_for_random_tactics(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            state = apply_local_unitaries(
                random_su2(rng), random_su2(rng), StateVector.bell()
            )
            assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(
                1.0, abs=1e-12
            )

    @given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
    def test_matrix_is_special_unitary(self, theta, phase):
        u = LocalUnitary(
            np.cos(theta) * np.exp(1j * phase), np.sin(theta)
        ).matrix
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


class TestProjectionProbabilities:
    def test_basis_state(self):
        np.testing.assert_array_equal(
            projection_probabilities(StateVector.basis("OO")), [1, 0, 0, 0]
        )

    def test_balanced_superposition(self):
        np.testing.assert_allclose(
            projection_probabilities(StateVector.bell()), [0.5, 0, 0, 0.5], atol=1e-15
        )

    def test_interior_product_state(self):
        # Product of per-player weights (2/3, 1/3) and (1/3, 2/3).
        root = np.sqrt(3.0)
        row = np.array([np.sqrt(2.0), -1.0]) / root
        col = np.array([1.0, -np.sqrt(2.0)]) / root
        probs = projection_probabilities(StateVector(np.kron(row, col)))
        np.testing.assert_allclose(probs, [2 / 9, 4 / 9, 1 / 9, 2 / 9], atol=1e-12)


class TestMixedFinalDensity:
    def test_pure_oo_input_gives_product_diagonal(self):
        rho = StateVector.basis("OO").density_matrix()
        out = mixed_final_density(rho, MixingChoice(0.3, 0.8))
        expected = np.diag([0.3 * 0.8, 0.3 * 0.2, 0.7 * 0.8, 0.7 * 0.2])
        np.testing.assert_allclose(out.entries, expected, atol=1e-15)

    def test_keep_keep_is_identity(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng)
        out = mixed_final_density(rho, MixingChoice(1.0, 1.0))
        np.testing.assert_array_equal(out.entries, rho.entries)

    def test_balanced_superposition_survives_double_flip(self):
        rho = StateVector.bell().density_matrix()
        out = mixed_final_density(rho, MixingChoice(0.0, 0.0))
        # Independent oracle: conjugation by the joint flip permutes index
        # k -> 3 - k, so entry (m, n) moves to (3 - m, 3 - n).
        oracle = rho.entries[::-1, ::-1]
        np.testing.assert_allclose(oracle, rho.entries, atol=1e-15)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-15)

    def test_matches_conjugation_definition(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            rho = random_density(rng)
            p, q = rng.uniform(size=2)
            want = mixing_map_oracle(rho.entries, p, q)
            # The draw must tell the players apart, or a p/q slip would pass.
            assert np.max(np.abs(want - mixing_map_oracle(rho.entries, q, p))) > 1e-6
            got = mixed_final_density(rho, MixingChoice(p, q)).entries
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_invariants_preserved_for_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            rho = random_density(rng)
            mix = MixingChoice(*rng.uniform(size=2))
            out = mixed_final_density(rho, mix).entries
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_rejects_mixing_outside_unit_square(self):
        with pytest.raises(ConstraintViolation):
            MixingChoice(-0.2, 0.5)


class TestPayoffOperators:
    def test_row_player_diagonal(self):
        pa, _ = payoff_operators(BOS)
        np.testing.assert_array_equal(pa.diagonal, [3, 1, 1, 2])

    def test_column_player_diagonal(self):
        _, pb = payoff_operators(BOS)
        np.testing.assert_array_equal(pb.diagonal, [2, 1, 1, 3])

    def test_sum_of_diagonals(self):
        pa, pb = payoff_operators(GamePayoffs(7, 4, 2))
        np.testing.assert_array_equal(pa.diagonal + pb.diagonal, [11, 4, 4, 11])

    def test_rejects_nonfinite_diagonal(self):
        with pytest.raises(ConstraintViolation):
            PayoffOperator(np.array([1.0, np.inf, 0.0, 0.0]))


class TestTracePayoffs:
    def test_pure_oo(self):
        pa, pb = payoff_operators(BOS)
        rho = StateVector.basis("OO").density_matrix()
        assert trace_payoffs(pa, pb, rho) == pytest.approx((3.0, 2.0))

    def test_maximally_mixed(self):
        pa, pb = payoff_operators(BOS)
        rho = DensityMatrix(np.eye(4) / 4)
        assert trace_payoffs(pa, pb, rho) == pytest.approx((7 / 4, 7 / 4))

    def test_interior_product_density(self):
        pa, pb = payoff_operators(BOS)
        rho = DensityMatrix(np.diag([2 / 9, 4 / 9, 1 / 9, 2 / 9]).astype(complex))
        pay = trace_payoffs(pa, pb, rho)
        assert pay[0] == pytest.approx(5 / 3, abs=1e-12)
        assert pay[1] == pytest.approx(5 / 3, abs=1e-12)

    def test_flags_imaginary_residue(self):
        # Forge an invalid matrix to exercise the defensive check.
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "entries", np.diag([1j, 0, 0, 1 - 1j]))
        pa, pb = payoff_operators(BOS)
        with pytest.raises(InternalConsistencyError):
            trace_payoffs(pa, pb, rho)

    def test_flags_imaginary_residue_at_large_payoff_scale(self):
        # The residue is judged against the payoff scale; a forged one that
        # grows with the payoffs still fires.
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "entries", np.diag([1e-6j, 0, 0, 1 - 1e-6j]))
        pa, pb = payoff_operators(GamePayoffs(3e9, 2e9, 1e9))
        with pytest.raises(InternalConsistencyError):
            trace_payoffs(pa, pb, rho)


class TestClassicalEquivalence:
    def test_all_three_payoff_routes_agree_on_a_grid(self):
        game = bos_bimatrix(BOS)
        pa, pb = payoff_operators(BOS)
        rho_in = StateVector.basis("OO").density_matrix()
        for p in np.linspace(0, 1, 21):
            for q in np.linspace(0, 1, 21):
                classical = expected_payoffs(game, MixProbabilities(p, q))
                ua = LocalUnitary(np.sqrt(p), np.sqrt(1 - p))
                ub = LocalUnitary(np.sqrt(q), np.sqrt(1 - q))
                probs = projection_probabilities(
                    apply_local_unitaries(ua, ub, StateVector.basis("OO"))
                )
                vector_route = (float(probs @ pa.diagonal), float(probs @ pb.diagonal))
                density_route = trace_payoffs(
                    pa, pb, mixed_final_density(rho_in, MixingChoice(p, q))
                )
                for route in (vector_route, density_route):
                    assert route[0] == pytest.approx(classical[0], abs=1e-12)
                    assert route[1] == pytest.approx(classical[1], abs=1e-12)


class TestPhaseInvariance:
    def test_phases_on_superposition_amplitudes_change_nothing(self):
        rng = np.random.default_rng(17)
        pa, pb = payoff_operators(BOS)
        for _ in range(100):
            a2 = rng.uniform()
            mix = MixingChoice(*rng.uniform(size=2))
            base = StateVector.oo_tt(np.sqrt(a2), np.sqrt(1 - a2))
            phased = StateVector.oo_tt(
                np.sqrt(a2) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                np.sqrt(1 - a2) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            )
            pay_base = trace_payoffs(
                pa, pb, mixed_final_density(base.density_matrix(), mix)
            )
            pay_phased = trace_payoffs(
                pa, pb, mixed_final_density(phased.density_matrix(), mix)
            )
            assert pay_phased[0] == pytest.approx(pay_base[0], abs=1e-12)
            assert pay_phased[1] == pytest.approx(pay_base[1], abs=1e-12)


class TestBilinearCoefficients:
    def test_superposition_family_coefficients(self):
        pa, pb = payoff_operators(BOS)
        rho = StateVector.oo_tt(np.sqrt(0.8), np.sqrt(0.2)).density_matrix()
        bp_a, bp_b = bilinear_payoff_coefficients(rho, pa, pb)
        # Row player: slope term alpha+beta-2*gamma; linear terms
        # gamma - alpha*|b|^2 - beta*|a|^2; constant alpha*|b|^2 + beta*|a|^2.
        assert bp_a.pq_coeff == pytest.approx(3.0, abs=1e-12)
        assert bp_a.p_coeff == pytest.approx(-1.2, abs=1e-12)
        assert bp_a.q_coeff == pytest.approx(-1.2, abs=1e-12)
        assert bp_a.const == pytest.approx(2.2, abs=1e-12)
        assert bp_b.pq_coeff == pytest.approx(3.0, abs=1e-12)
        assert bp_b.p_coeff == pytest.approx(-1.8, abs=1e-12)
        assert bp_b.q_coeff == pytest.approx(-1.8, abs=1e-12)
        assert bp_b.const == pytest.approx(2.8, abs=1e-12)

    def test_pure_oo_reduces_to_classical_coefficients(self):
        pa, pb = payoff_operators(BOS)
        rho = StateVector.basis("OO").density_matrix()
        bp_a, _ = bilinear_payoff_coefficients(rho, pa, pb)
        assert bp_a.pq_coeff == pytest.approx(3.0, abs=1e-12)
        assert bp_a.p_coeff == pytest.approx(-1.0, abs=1e-12)
        assert bp_a.q_coeff == pytest.approx(-1.0, abs=1e-12)
        assert bp_a.const == pytest.approx(2.0, abs=1e-12)

    def test_outcome_probabilities_give_exact_surfaces_on_fractions(self):
        # The superposition-family case above, a2 = 4/5, in exact arithmetic.
        probabilities = (Fraction(4, 5), 0, 0, Fraction(1, 5))
        bp_a, bp_b = payoff_surfaces(probabilities, (3, 1, 1, 2), (2, 1, 1, 3))
        assert (bp_a.pq_coeff, bp_a.p_coeff, bp_a.q_coeff, bp_a.const) == (
            3, Fraction(-6, 5), Fraction(-6, 5), Fraction(11, 5)
        )
        assert (bp_b.pq_coeff, bp_b.p_coeff, bp_b.q_coeff, bp_b.const) == (
            3, Fraction(-9, 5), Fraction(-9, 5), Fraction(14, 5)
        )

    def test_flags_imaginary_residue(self):
        # The adapter reads the density's diagonal and keeps the residue check.
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "entries", np.diag([1j, 0, 0, 1 - 1j]))
        with pytest.raises(InternalConsistencyError, match="corner payoff"):
            bilinear_payoff_coefficients(rho, *payoff_operators(BOS))

    def test_corner_evaluations_return_corner_payoffs(self):
        rng = np.random.default_rng(19)
        pa, pb = payoff_operators(BOS)
        for _ in range(50):
            rho = random_density(rng)
            bp_a, bp_b = bilinear_payoff_coefficients(rho, pa, pb)
            for p, q in ((1, 1), (1, 0), (0, 1), (0, 0)):
                want = trace_payoffs(
                    pa, pb, mixed_final_density(rho, MixingChoice(p, q))
                )
                assert bp_a.value(p, q) == pytest.approx(want[0], abs=1e-12)
                assert bp_b.value(p, q) == pytest.approx(want[1], abs=1e-12)

    def test_surface_matches_mixing_map_everywhere(self):
        rng = np.random.default_rng(23)
        pa, pb = payoff_operators(BOS)
        for _ in range(50):
            rho = random_density(rng)
            bp_a, bp_b = bilinear_payoff_coefficients(rho, pa, pb)
            p, q = rng.uniform(size=2)
            want = trace_payoffs(pa, pb, mixed_final_density(rho, MixingChoice(p, q)))
            assert bp_a.value(p, q) == pytest.approx(want[0], abs=1e-12)
            assert bp_b.value(p, q) == pytest.approx(want[1], abs=1e-12)
