import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    coefficients,
    forged_density,
    random_density,
    random_su2,
    reference_bilinear_payoff_coefficients,
    reference_density_check,
    reference_trace_payoffs,
)
import qstatic.quantum_core as qc
from qstatic.equilibria import (
    EntangledFamilyState,
    EquilibriumKind,
    NashPoint,
    enumerate_bilinear_nash,
    rank_equilibria,
    unique_solution,
)
from qstatic.errors import ConstraintViolation, InternalConsistencyError
from qstatic.outcomes import _corner_means, _flipped
from qstatic.game_core import (
    BilinearPayoff,
    GamePayoffs,
    MixProbabilities,
    bos_bimatrix,
    expected_payoffs,
)
from qstatic.quantum_core import (
    BASIS_LABELS,
    EIGENVALUE_FLOOR,
    HERMITIAN_TOL,
    TRACE_TOL,
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

# Seeded property runs, so tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

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

    @PROPERTY
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    def test_probabilities_are_the_squared_moduli_bit_for_bit(self, parts):
        amps = [complex(parts[k], parts[k + 1]) for k in range(0, 8, 2)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        assume(norm > 0.1)
        psi = StateVector([a / norm for a in amps])
        want = [a.real * a.real + a.imag * a.imag for a in psi.amplitudes]
        assert type(psi.probabilities) is tuple
        assert [x.hex() for x in psi.probabilities] == [x.hex() for x in want]
        probs = projection_probabilities(psi)
        assert [x.hex() for x in probs.tolist()] == [x.hex() for x in want]

    def test_projector_diagonal_is_the_probabilities_bit_for_bit(self):
        # Payoffs read only the diagonal, so it must be the state's own
        # outcome probabilities, with no imaginary residue to check.
        rng = np.random.default_rng(1)
        states = [random_state(rng) for _ in range(1333)]
        moved_real = moved_imag = 0
        for psi in states:
            diagonal = psi.density_matrix().entries.diagonal()
            real = [x.hex() for x in diagonal.real.tolist()]
            moved_real += real != [x.hex() for x in psi.probabilities]
            moved_imag += bool(diagonal.imag.any())
        assert (moved_real, moved_imag) == (0, 0)

    def test_projector_entries_are_the_outer_product(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            psi = random_state(rng)
            amps = np.array(psi.amplitudes)
            got = psi.density_matrix().entries
            np.testing.assert_allclose(got, np.outer(amps, amps.conj()), rtol=0, atol=4e-16)


#: Diagonal entries on either side of the eigenvalue floor.
_JUST_ABOVE_FLOOR = float(np.nextafter(EIGENVALUE_FLOOR, 0.0))
_JUST_BELOW_FLOOR = float(np.nextafter(EIGENVALUE_FLOOR, -1.0))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ConstraintViolation, match=r"not Hermitian \(max asymmetry 1\.0+e-01"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ConstraintViolation, match="trace deviates from 1 by 1.000e"):
            DensityMatrix(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ConstraintViolation, match=r"negative eigenvalue \(-1\.000e-01\)"):
            DensityMatrix(m)

    def test_rejects_nan_entry(self):
        with pytest.raises(ConstraintViolation, match="not Hermitian"):
            DensityMatrix(np.diag([np.nan, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_conjugate_pair(self, value):
        # value - conj(value) is NaN, which no gap test may let through.
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = value
        with pytest.raises(ConstraintViolation, match="not Hermitian"):
            DensityMatrix(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_conjugate_pair_rejected_without_a_warning(self, value):
        # Under warnings-as-errors a numpy warning on the rejection path
        # would replace the ConstraintViolation.
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolation, match="not Hermitian"):
                DensityMatrix(m)

    @pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(4)])
    def test_rejects_an_asymmetry_at_every_position(self, i, j):
        # Off the diagonal one entry without its mirror; on it an imaginary
        # part, which the Hermitian test reports before the trace test.
        m = np.eye(4, dtype=complex) / 4
        if i == j:
            m[i, i] += 0.05j
        else:
            m[i, j] = 0.1
        with pytest.raises(ConstraintViolation, match=r"not Hermitian \(max asymmetry 1\.0+e-01"):
            DensityMatrix(m)

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (2, 3), (3, 1)])
    def test_asymmetry_accepted_at_the_tolerance_and_rejected_past_it(self, i, j):
        m = np.eye(4, dtype=complex) / 4
        m[i, j] = HERMITIAN_TOL
        DensityMatrix(m)
        m[i, j] = np.nextafter(HERMITIAN_TOL, 1.0)
        with pytest.raises(ConstraintViolation, match="not Hermitian"):
            DensityMatrix(m)

    def test_rejects_imaginary_diagonal_entry(self):
        m = np.eye(4, dtype=complex) / 4
        m[2, 2] += 1e-9j
        with pytest.raises(ConstraintViolation, match=r"not Hermitian \(max asymmetry 2\.0+e-09"):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue_behind_off_diagonal_pair(self):
        # The diagonal is non-negative; the (2, 3) block has eigenvalues ±0.1.
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[2, 3] = m[3, 2] = 0.1
        with pytest.raises(ConstraintViolation, match=r"negative eigenvalue \(-1\.000e-01\)"):
            DensityMatrix(m)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        entries=st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                st.floats(-1e-9, 1e-9),
                st.sampled_from([_JUST_ABOVE_FLOOR, _JUST_BELOW_FLOOR, 0.0, -0.0]),
            ),
            min_size=3,
            max_size=3,
        ),
        imaginary=st.lists(st.floats(-1e-13, 1e-13), min_size=3, max_size=3),
        order=st.permutations(range(4)),
    )
    @example(
        entries=[_JUST_ABOVE_FLOOR, 0.5, 0.25], imaginary=[0.0] * 3, order=[0, 1, 2, 3]
    )
    @example(
        entries=[_JUST_BELOW_FLOOR, 0.5, 0.25], imaginary=[0.0] * 3, order=[3, 2, 1, 0]
    )
    def test_diagonal_density_accepted_exactly_above_the_floor(
        self, entries, imaginary, order
    ):
        """A diagonal density is accepted exactly when eigvalsh's smallest
        eigenvalue reaches the floor, and a rejection prints that value."""
        # The last entry completes the trace; the imaginary residue sums to 0.
        diagonal = [*entries, 1.0 - math.fsum(entries)]
        residue = [*imaginary, -math.fsum(imaginary)]
        m = np.diag([complex(diagonal[k], residue[k]) for k in order])
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest >= EIGENVALUE_FLOOR:
            np.testing.assert_array_equal(DensityMatrix(m).entries, m)
        else:
            with pytest.raises(ConstraintViolation) as info:
                DensityMatrix(m)
            assert str(info.value) == f"density matrix has a negative eigenvalue ({smallest:.3e})"

    def test_diagonal_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(rng)
            assert rho.diagonal_probabilities().sum() == pytest.approx(1.0, abs=1e-12)


#: Asymmetries and trace deviations on both sides of the tolerances.
_STRADDLE = (0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 2.0)
_NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def perturbed_densities(draw):
    """A valid density, diagonal or not, then up to two perturbations: an
    asymmetry or a trace deviation near its tolerance, a non-finite real or
    imaginary part, or weight moved between diagonal entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = random_density(rng).entries.copy()
    else:
        m = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        kind = draw(st.sampled_from(["asymmetry", "trace", "non_finite", "move"]))
        if kind in ("asymmetry", "trace"):
            tol = HERMITIAN_TOL if kind == "asymmetry" else TRACE_TOL
            size = tol * draw(st.sampled_from(_STRADDLE) | st.floats(0.5, 2.0))
            direction = draw(st.sampled_from([1, -1, 1j, -1j]))
            if kind == "trace":
                m[i, i] += size * direction.real
            elif i == j:
                # m[i, i] - conj(m[i, i]) is twice the imaginary part.
                m[i, i] += 0.5j * size * (direction.real + direction.imag)
            else:
                m[i, j] = np.conj(m[j, i]) + size * direction
        elif kind == "non_finite":
            value = draw(st.sampled_from(_NON_FINITE))
            z = m[i, j]
            m[i, j] = complex(value, z.imag) if draw(st.booleans()) else complex(z.real, value)
        else:
            amount = draw(st.floats(0.0, 1.0))
            m[i, i] -= amount
            m[j, j] += amount
    return m


def _verdict(check, m) -> str | None:
    """The rejection message of ``check(m)``, or None when it accepts."""
    try:
        check(m)
    except ConstraintViolation as exc:
        return str(exc)
    return None


class TestDensityValidatorMatchesReference:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(m=perturbed_densities())
    def test_accepts_and_rejects_as_the_reference(self, m):
        with np.errstate(invalid="ignore"):
            want = _verdict(reference_density_check, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _verdict(DensityMatrix, m)
        assert got == want

    def test_draws_cover_each_outcome(self):
        # The property above only means something if its draws reach every
        # verdict; count them on the same seeded examples.
        seen = set()

        @settings(derandomize=True, max_examples=600, deadline=None)
        @given(m=perturbed_densities())
        def collect(m):
            with np.errstate(invalid="ignore"):
                verdict = _verdict(reference_density_check, m) or "accepted"
            seen.add(verdict.partition(" (")[0].partition(" by ")[0])
            seen.add("non-diagonal" if np.any(m[~np.eye(4, dtype=bool)]) else "diagonal")

        collect()
        assert seen >= {
            "accepted",
            "density matrix is not Hermitian",
            "density matrix trace deviates from 1",
            "density matrix has a negative eigenvalue",
            "diagonal",
            "non-diagonal",
        }


def _straddling_density(rng: np.random.Generator) -> np.ndarray:
    """U diag(lambda) U^H for a Haar-random unitary U and unit-trace lambda
    whose smallest value is EIGENVALUE_FLOOR +- 10^u, u uniform on [-18, -9]."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, r = np.linalg.qr(g)
    u = u * (r.diagonal() / abs(r.diagonal()))
    smallest = EIGENVALUE_FLOOR + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-18, -9)
    rest = rng.dirichlet(np.ones(3)) * (1.0 - smallest)
    return (u * np.array([smallest, *rest])) @ u.conj().T


class TestPositivityCertificate:
    """A non-diagonal density is accepted by an LDL^H certificate with a
    margin above the floor; eigvalsh decides only where the certificate
    fails, so every verdict and message is eigvalsh's."""

    def test_densities_straddling_the_floor_match_the_reference(self, monkeypatch):
        # 2,000 seeded draws, most of them within the margin of the floor.
        fallbacks = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m):
            fallbacks.append(m)
            return eigvalsh(m)

        rng = np.random.default_rng(20)
        draws = [_straddling_density(rng) for _ in range(2000)]
        want = [_verdict(reference_density_check, m) for m in draws]
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        got = []
        outcomes = set()
        for m, verdict in zip(draws, want):
            fallbacks.clear()
            got.append(_verdict(DensityMatrix, m))
            outcomes.add((verdict is None, bool(fallbacks)))
        mismatches = [(g, w) for g, w in zip(got, want) if g != w]
        assert not mismatches, f"{len(mismatches)} of 2000 differ: {mismatches[:3]}"
        # Certified, accepted by eigvalsh past a failed certificate, rejected.
        assert outcomes == {(True, False), (True, True), (False, True)}

    def test_valid_densities_are_accepted_without_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(21)
        entries = [
            EntangledFamilyState(a2).density_matrix().entries
            for a2 in (0.5, 0.36, 1e-9, 1.0 - 1e-9, *rng.uniform(size=20))
        ]
        entries += [random_state(rng).density_matrix().entries for _ in range(50)]
        entries += [random_density(rng).entries for _ in range(50)]
        mixed = [
            mixed_final_density(DensityMatrix(m), MixingChoice(*rng.uniform(size=2))).entries
            for m in entries
        ]

        def refused(m):
            raise AssertionError("eigvalsh called on a valid density")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        for m in entries + mixed:
            np.testing.assert_array_equal(DensityMatrix(m).entries, m)

    def test_density_below_the_floor_prints_eigvalsh_value(self, monkeypatch):
        printed = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(m):
            values = eigvalsh(m)
            printed.append(float(values[0]))
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        rng = np.random.default_rng(22)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u = np.linalg.qr(g)[0]
            m = (u * np.array([-3e-10, 0.2, 0.3, 0.5 + 3e-10])) @ u.conj().T
            printed.clear()
            with pytest.raises(ConstraintViolation) as info:
                DensityMatrix(m)
            assert len(printed) == 1
            assert str(info.value) == f"density matrix has a negative eigenvalue ({printed[0]:.3e})"


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

    @pytest.mark.parametrize(
        "a, b", [(1e200, 0.0), (0.6, 1e200j), (1e155, 1e155), (complex(1.5e308, 1.5e308), 0.0)]
    )
    def test_rejects_overflowing_tactic(self, a, b):
        # Squared moduli past the float range read as inf, not OverflowError;
        # abs() of the last a raises OverflowError itself.
        with pytest.raises(ConstraintViolation, match=r"must be 1 for a local tactic, got inf$"):
            LocalUnitary(a, b)

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

    def test_corners_gather_the_conjugated_density_exactly(self):
        rho = random_density(np.random.default_rng(17))
        for p, q in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
            # At a corner each player either keeps (p or q = 1) or flips.
            k = list(_flipped(range(4), p == 0.0, q == 0.0))
            out = mixed_final_density(rho, MixingChoice(p, q)).entries
            np.testing.assert_array_equal(out, rho.entries[np.ix_(k, k)])

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


#: Each value type built on the grid and equilibrium paths: its class, the
#: arguments of one value, a change that fails its checks, and the repr of
#: that value (None for a density, whose repr is its array's).
_ONE_PASS_VALUES = [
    (LocalUnitary, (0.6, 0.8), {"a": 2.0}, "LocalUnitary(a=(0.6+0j), b=(0.8+0j))"),
    (
        StateVector,
        ((0.6, 0, 0, 0.8j),),
        {"amplitudes": (1, 1, 0, 0)},
        "StateVector(amplitudes=((0.6+0j), 0j, 0j, 0.8j))",
    ),
    (MixProbabilities, (0.25, 0.5), {"q": 1.5}, "MixProbabilities(p=0.25, q=0.5)"),
    (DensityMatrix, (np.diag([0.5, 0.5, 0.0, 0.0]),), {"entries": np.eye(4)}, None),
    (
        PayoffOperator,
        ([3.0, 1.0, 1.0, 2.0],),
        {"diagonal": [3.0, math.nan, 1.0, 2.0]},
        "PayoffOperator(diagonal=array([3., 1., 1., 2.]))",
    ),
    (
        NashPoint,
        (0.25, 1.0, 2.5, -0.0, EquilibriumKind.INTERIOR),
        {"q_star": 1.5},
        "NashPoint(p_star=0.25, q_star=1.0, payoff_a=2.5, payoff_b=-0.0, "
        "kind=<EquilibriumKind.INTERIOR: 'interior'>)",
    ),
    (
        BilinearPayoff,
        (3.0, 1, 0.5, 0.0),
        {"at_01": math.inf},
        "BilinearPayoff(at_11=3.0, at_10=1, at_01=0.5, at_00=0.0, base=0)",
    ),
    (
        BilinearPayoff,
        (3.0, 1, 0.5, 0.0, -2.5),
        {"base": math.nan},
        "BilinearPayoff(at_11=3.0, at_10=1, at_01=0.5, at_00=0.0, base=-2.5)",
    ),
    (GamePayoffs, (3, 2.5, 1), {"beta": 3}, "GamePayoffs(alpha=3, beta=2.5, gamma=1)"),
    (EntangledFamilyState, (0.3,), {"a2": math.nan}, "EntangledFamilyState(a2=0.3)"),
]


class TestOnePassConstruction:
    """The value types built at every grid point and every equilibrium solve
    check and write their fields in one ``__post_init__`` call, and keep what
    the generated dataclass methods gave them."""

    @pytest.mark.parametrize("cls, args, invalid, text", _ONE_PASS_VALUES)
    def test_post_init_runs_once_per_value(self, monkeypatch, cls, args, invalid, text):
        calls = []
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, *a: calls.append(check(self, *a)))
        value = cls(*args)
        assert calls == [None]
        dataclasses.replace(value)
        assert calls == [None, None]

    @pytest.mark.parametrize("cls, args, invalid, text", _ONE_PASS_VALUES)
    def test_fields_stay_frozen(self, cls, args, invalid, text):
        value = cls(*args)
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, field.name)
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("cls, args, invalid, text", _ONE_PASS_VALUES)
    def test_eq_hash_and_repr_are_the_dataclass_methods(self, cls, args, invalid, text):
        value, twin = cls(*args), cls(*args)
        if cls not in (StateVector, DensityMatrix, PayoffOperator):
            assert value == twin and hash(value) == hash(twin)
            compared = [getattr(value, f.name) for f in dataclasses.fields(value) if f.compare]
            assert hash(value) == hash(tuple(compared))
        else:
            # Array-backed and state types compare by identity, as before.
            assert value != twin and value == value
            assert hash(value) == object.__hash__(value)
        if text is not None:
            assert repr(value) == text
        else:
            assert repr(value) == f"DensityMatrix(entries={value.entries!r})"

    @pytest.mark.parametrize("cls, args, invalid, text", _ONE_PASS_VALUES)
    def test_replace_builds_a_checked_value(self, cls, args, invalid, text):
        value = cls(*args)
        copy = dataclasses.replace(value)
        assert type(copy) is cls and copy is not value
        assert repr(copy) == repr(value)
        with pytest.raises(ConstraintViolation):
            dataclasses.replace(value, **invalid)
        for kept in (f.name for f in dataclasses.fields(cls) if not f.init):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(value, **{kept: None})

    def test_replaced_density_keeps_its_own_diagonal(self):
        rho = random_density(np.random.default_rng(5))
        swapped = dataclasses.replace(rho, entries=rho.entries[::-1, ::-1])
        assert swapped._real == rho._real[::-1]
        assert swapped._imag == rho._imag[::-1]

    def test_densities_mixed_in_alternation_match_a_fresh_gather(self):
        # Mixing two densities in turn must give, bit for bit, what a fresh
        # copy of each gives on its first mixing.
        rng = np.random.default_rng(29)
        first, second = random_density(rng), random_density(rng)
        for p, q in rng.uniform(size=(20, 2)):
            for rho in (first, second, first):
                got = mixed_final_density(rho, MixingChoice(p, q)).entries
                fresh = mixed_final_density(DensityMatrix(rho.entries), MixingChoice(p, q)).entries
                assert got.tobytes() == fresh.tobytes()

    def test_kept_diagonal_is_the_entries_diagonal(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            rho = random_density(rng)
            diagonal = rho.entries.diagonal().tolist()
            assert rho._real == tuple(d.real for d in diagonal)
            assert rho._imag == tuple(d.imag for d in diagonal)
            want = np.real(np.diagonal(rho.entries)).copy()
            got = rho.diagonal_probabilities()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


#: The numpy functions that build an array from Python values.
_ARRAY_CONSTRUCTORS = (
    "array", "asarray", "asanyarray", "ascontiguousarray", "empty", "zeros", "ones",
    "full", "eye", "diag", "outer", "stack", "fromiter", "frombuffer",
)


class TestNumpyOnlyWhereAnArrayIsRead:
    """The equilibrium path holds Python values; ``DensityMatrix.entries`` and
    ``PayoffOperator.diagonal`` are built when read."""

    def test_equilibrium_path_builds_no_array(self, monkeypatch):
        rng = np.random.default_rng(7)
        states = [random_state(rng) for _ in range(20)]
        states += [EntangledFamilyState(a2) for a2 in (0.5, 0.3, 1, 0.0, *rng.uniform(size=10).tolist())]
        games = [GamePayoffs(3.0, 2.0, 1.0)]
        games += [GamePayoffs(*sorted(rng.uniform(0.1, 10.0, size=3).tolist(), reverse=True)) for _ in range(5)]

        def refused(*args, **kwargs):
            raise AssertionError("a numpy array was built on the equilibrium path")

        for name in _ARRAY_CONSTRUCTORS:
            monkeypatch.setattr(qc.np, name, refused)
        for params in games:
            pa, pb = payoff_operators(params)
            for state in states:
                rho = state.density_matrix()
                trace_payoffs(pa, pb, rho)
                points = enumerate_bilinear_nash(*bilinear_payoff_coefficients(rho, pa, pb))
                assert rank_equilibria(points).ordered
                if isinstance(state, EntangledFamilyState):
                    unique_solution(params, state)

    def test_arrays_built_on_read_are_read_only_and_kept(self):
        rng = np.random.default_rng(8)
        densities = [
            random_state(rng).density_matrix(),
            EntangledFamilyState(0.3).density_matrix(),
            random_density(rng),
            DensityMatrix(np.eye(4) / 4),
        ]
        for rho in densities:
            entries = rho.entries
            assert rho.entries is entries
            assert not entries.flags.writeable
            with pytest.raises(ValueError):
                entries[0, 0] = 0.0
            assert entries.tobytes() == np.array(rho._rows, dtype=complex).tobytes()
            diagonal = entries.diagonal()
            assert [x.hex() for x in diagonal.real.tolist()] == [x.hex() for x in rho._real]
            assert [x.hex() for x in diagonal.imag.tolist()] == [x.hex() for x in rho._imag]
        for op in (*payoff_operators(GamePayoffs(3.0, 2.0, 1.0)), PayoffOperator([1, 2, 3, -0.0])):
            diagonal = op.diagonal
            assert op.diagonal is diagonal
            assert not diagonal.flags.writeable
            assert [x.hex() for x in diagonal.tolist()] == [x.hex() for x in op._values]

    def test_family_state_builds_its_vector_once(self, monkeypatch):
        calls = []
        check = StateVector.__post_init__
        monkeypatch.setattr(StateVector, "__post_init__", lambda self, *a: calls.append(check(self, *a)))
        family = EntangledFamilyState(0.5)
        family.density_matrix()
        report = unique_solution(BOS, family)
        assert len(calls) == 1
        assert report.final_state is family.state_vector() is family.state_vector()


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

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_nan_and_negative_infinity(self, bad):
        with pytest.raises(ConstraintViolation, match="^payoff operator entries must be finite$"):
            PayoffOperator([1.0, 2.0, bad, 0.0])

    @pytest.mark.parametrize("shape", [(3,), (4, 1)])
    def test_rejects_other_shapes(self, shape):
        want = f"^a payoff operator needs 4 diagonal entries, got shape {re.escape(str(shape))}$"
        with pytest.raises(ConstraintViolation, match=want):
            PayoffOperator(np.ones(shape))

    def test_arrays_are_read_only_copies(self):
        source = np.array([3.0, 1.0, 1.0, 2.0])
        op = PayoffOperator(source)
        source[0] = 99.0
        np.testing.assert_array_equal(op.diagonal, [3.0, 1.0, 1.0, 2.0])
        assert op._values == (3.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            op.diagonal[0] = 0.0
        with pytest.raises(TypeError):
            op._values[0] = 0.0

    def test_kept_values_are_the_diagonal_floats(self):
        op = PayoffOperator((3, -1.5, 0.1, -0.0))
        assert op.diagonal.dtype == float
        assert type(op._values) is tuple
        assert all(type(x) is float for x in op._values)
        assert [x.hex() for x in op._values] == [x.hex() for x in op.diagonal.tolist()]


# (row_flips, col_flips) at the corners (1,1), (1,0), (0,1), (0,0) of the keep
# probabilities: a player flips where their keep probability is 0.
_CORNER_FLIP_CHOICES = tuple((p == 0, q == 0) for p, q in ((1, 1), (1, 0), (0, 1), (0, 0)))


def _pairwise_flipped_dots(payoffs, probabilities):
    """Each corner's payoff dot the ``_flipped`` probabilities, summed pairwise."""
    x = payoffs
    out = []
    for row_flips, col_flips in _CORNER_FLIP_CHOICES:
        d = _flipped(probabilities, row_flips, col_flips)
        out.append((x[0] * d[0] + x[1] * d[1]) + (x[2] * d[2] + x[3] * d[3]))
    return out


class TestCornerMeans:
    # _corner_means writes the four corner permutations out by hand; these
    # hold its indices to the one flip rule.

    @PROPERTY
    @given(
        payoffs=st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
        probabilities=st.lists(st.floats(0, 1), min_size=4, max_size=4),
    )
    def test_equals_flipped_dot_products_bit_for_bit(self, payoffs, probabilities):
        got = _corner_means(payoffs, probabilities)
        assert [x.hex() for x in got] == [
            x.hex() for x in _pairwise_flipped_dots(payoffs, probabilities)
        ]

    @PROPERTY
    @given(
        payoffs=st.lists(st.fractions(max_denominator=1000), min_size=4, max_size=4),
        probabilities=st.lists(st.fractions(0, 1, max_denominator=1000), min_size=4, max_size=4),
    )
    def test_equals_flipped_dot_products_exactly(self, payoffs, probabilities):
        got = _corner_means(payoffs, probabilities)
        assert got == _pairwise_flipped_dots(payoffs, probabilities)
        assert all(type(x) is Fraction for x in got)

    def test_distinct_weights_tell_every_corner_apart(self):
        # Powers of ten as payoffs read each probability's position off the
        # digits, so a wrong index in any corner shows.
        probabilities = (1, 2, 3, 4)
        assert _corner_means((1000, 100, 10, 1), probabilities) == [1234, 2143, 3412, 4321]


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
        rho = forged_density(np.diag([1j, 0, 0, 1 - 1j]))
        pa, pb = payoff_operators(BOS)
        with pytest.raises(InternalConsistencyError):
            trace_payoffs(pa, pb, rho)

    @pytest.mark.parametrize("k", range(4))
    def test_flags_a_residue_at_each_diagonal_position(self, k):
        # An imaginary part on any one diagonal entry alone still fires.
        rho = forged_density(np.diag([0.25 + (1e-6j if i == k else 0.0) for i in range(4)]))
        with pytest.raises(InternalConsistencyError, match="^trace payoff"):
            trace_payoffs(*payoff_operators(BOS), rho)

    def test_within_four_ulp_of_the_complex_dot(self):
        # Pairwise Python sums against numpy's complex dot, on densities and
        # payoffs at many scales.
        rng = np.random.default_rng(37)
        for _ in range(3000):
            rho = random_density(rng)
            if rng.uniform() < 0.5:
                rho = mixed_final_density(rho, MixingChoice(*rng.uniform(size=2)))
            pa, pb = (PayoffOperator(rng.normal(size=4) * 10.0 ** rng.uniform(-3, 9)) for _ in "ab")
            got = trace_payoffs(pa, pb, rho)
            want = reference_trace_payoffs(pa, pb, rho)
            for op, g, w in zip((pa, pb), got, want):
                scale = max(map(abs, op.diagonal.tolist()))
                assert abs(g - w) <= 4 * math.ulp(scale)

    def test_flags_imaginary_residue_at_large_payoff_scale(self):
        # The residue is judged against the payoff scale; a forged one that
        # grows with the payoffs still fires.
        rho = forged_density(np.diag([1e-6j, 0, 0, 1 - 1e-6j]))
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
        assert coefficients(bp_a) == pytest.approx((3.0, -1.2, -1.2, 2.2), abs=1e-12)
        assert coefficients(bp_b) == pytest.approx((3.0, -1.8, -1.8, 2.8), abs=1e-12)

    def test_pure_oo_reduces_to_classical_coefficients(self):
        pa, pb = payoff_operators(BOS)
        rho = StateVector.basis("OO").density_matrix()
        bp_a, _ = bilinear_payoff_coefficients(rho, pa, pb)
        assert coefficients(bp_a) == pytest.approx((3.0, -1.0, -1.0, 2.0), abs=1e-12)

    def test_outcome_probabilities_give_exact_surfaces_on_fractions(self):
        # The superposition-family case above, a2 = 4/5, in exact arithmetic.
        probabilities = (Fraction(4, 5), 0, 0, Fraction(1, 5))
        bp_a, bp_b = payoff_surfaces(probabilities, (3, 1, 1, 2), (2, 1, 1, 3))
        assert coefficients(bp_a) == (3, Fraction(-6, 5), Fraction(-6, 5), Fraction(11, 5))
        assert coefficients(bp_b) == (3, Fraction(-9, 5), Fraction(-9, 5), Fraction(14, 5))

    def test_flags_imaginary_residue(self):
        # The adapter reads the density's diagonal and keeps the residue check.
        rho = forged_density(np.diag([1j, 0, 0, 1 - 1j]))
        with pytest.raises(InternalConsistencyError, match="corner payoff"):
            bilinear_payoff_coefficients(rho, *payoff_operators(BOS))

    def test_repr_identical_to_reading_the_payoff_arrays(self):
        rng = np.random.default_rng(41)
        for _ in range(3000):
            rho = random_density(rng)
            pa, pb = (PayoffOperator(rng.normal(size=4) * 10.0 ** rng.uniform(-3, 9)) for _ in "ab")
            got = bilinear_payoff_coefficients(rho, pa, pb)
            assert repr(got) == repr(reference_bilinear_payoff_coefficients(rho, pa, pb))

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
