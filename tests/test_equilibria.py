import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import best_response_defect_grid, endpoint_certificate_holds, random_density
from qstatic.equilibria import (
    EntangledFamilyState,
    EquilibriumKind,
    NashPoint,
    classical_mixed_equilibria,
    entangled_equilibria,
    enumerate_bilinear_nash,
    factorizable_equilibria,
    rank_equilibria,
    unique_solution,
)
from qstatic.errors import ConstraintViolation
from qstatic.game_core import BilinearPayoff, GamePayoffs
from qstatic.quantum_core import (
    StateVector,
    bilinear_payoff_coefficients,
    payoff_operators,
    projection_probabilities,
)

BOS = GamePayoffs(3, 2, 1)

# Seeded property runs, so tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def scaled_levels(draw) -> GamePayoffs:
    """alpha > beta > gamma at scale 10^k, k in [-6, 6], with both gaps at
    least a hundredth of the scale, so round-off stays far below 1e-12."""
    scale = 10.0 ** draw(st.integers(-6, 6))
    gamma = draw(st.floats(-10, 10))
    beta = gamma + draw(st.floats(0.01, 10))
    alpha = beta + draw(st.floats(0.01, 10))
    return GamePayoffs(alpha * scale, beta * scale, gamma * scale)


def family_coefficients(params: GamePayoffs, a2: float):
    pa, pb = payoff_operators(params)
    rho = EntangledFamilyState(a2).density_matrix()
    return bilinear_payoff_coefficients(rho, pa, pb)


class TestClassicalClosedForms:
    def test_canonical_parameters(self):
        keep, flip, interior = classical_mixed_equilibria(BOS)
        assert (keep.p_star, keep.q_star) == (1.0, 1.0)
        assert (keep.payoff_a, keep.payoff_b) == (3.0, 2.0)
        assert (flip.p_star, flip.q_star) == (0.0, 0.0)
        assert (flip.payoff_a, flip.payoff_b) == (2.0, 3.0)
        assert interior.p_star == pytest.approx(2 / 3, abs=1e-12)
        assert interior.q_star == pytest.approx(1 / 3, abs=1e-12)
        assert interior.payoff_a == pytest.approx(5 / 3, abs=1e-12)
        assert interior.payoff_b == pytest.approx(5 / 3, abs=1e-12)
        assert interior.kind is EquilibriumKind.INTERIOR

    def test_second_parameter_set(self):
        _, _, interior = classical_mixed_equilibria(GamePayoffs(5, 3, 1))
        assert interior.p_star == pytest.approx(2 / 3, abs=1e-12)
        assert interior.q_star == pytest.approx(1 / 3, abs=1e-12)
        assert interior.payoff_a == pytest.approx(7 / 3, abs=1e-12)

    def test_interior_payoff_ranks_between_gamma_and_beta(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a, b, g = np.sort(rng.uniform(0.0, 10.0, size=3))[::-1]
            params = GamePayoffs(a, b, g)
            _, _, interior = classical_mixed_equilibria(params)
            assert g < interior.payoff_a < b < a

    def test_rejects_bad_ordering(self):
        with pytest.raises(ConstraintViolation):
            classical_mixed_equilibria(GamePayoffs(3, 3, 1))


class TestFactorizableClosedForms:
    def test_same_numbers_as_classical(self):
        classical = classical_mixed_equilibria(BOS)
        quantum = factorizable_equilibria(BOS)
        for c, f in zip(classical, quantum):
            assert f.point == c

    def test_corner_final_states(self):
        keep, flip, _ = factorizable_equilibria(BOS)
        np.testing.assert_array_equal(keep.final_state.amplitudes, [1, 0, 0, 0])
        np.testing.assert_array_equal(flip.final_state.amplitudes, [0, 0, 0, 1])

    def test_interior_final_state_probabilities(self):
        _, _, interior = factorizable_equilibria(BOS)
        np.testing.assert_allclose(
            projection_probabilities(interior.final_state),
            [2 / 9, 4 / 9, 1 / 9, 2 / 9],
            atol=1e-12,
        )


class TestEntangledClosedForms:
    def test_a2_08_points_and_payoffs(self):
        keep, flip, interior = entangled_equilibria(BOS, EntangledFamilyState(0.8))
        assert (keep.payoff_a, keep.payoff_b) == (
            pytest.approx(2.8, abs=1e-12),
            pytest.approx(2.2, abs=1e-12),
        )
        assert (flip.payoff_a, flip.payoff_b) == (
            pytest.approx(2.2, abs=1e-12),
            pytest.approx(2.8, abs=1e-12),
        )
        assert interior.p_star == pytest.approx(0.6, abs=1e-12)
        assert interior.q_star == pytest.approx(0.4, abs=1e-12)
        assert interior.payoff_a == pytest.approx(1.72, abs=1e-12)
        assert interior.payoff_b == pytest.approx(1.72, abs=1e-12)

    def test_collapses_to_classical_at_extremes(self):
        for a2 in (0.0, 1.0):
            keep, flip, interior = entangled_equilibria(BOS, EntangledFamilyState(a2))
            expected_keep = (3.0, 2.0) if a2 == 1.0 else (2.0, 3.0)
            assert (keep.payoff_a, keep.payoff_b) == expected_keep
            assert (flip.payoff_a, flip.payoff_b) == expected_keep[::-1]
            classical_interior = classical_mixed_equilibria(BOS)[2]
            if a2 == 1.0:
                assert interior.p_star == classical_interior.p_star
                assert interior.q_star == classical_interior.q_star
            assert interior.payoff_a == pytest.approx(
                classical_interior.payoff_a, abs=1e-12
            )

    def test_interior_point_is_strictly_inside(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b, g = np.sort(rng.uniform(0.0, 10.0, size=3))[::-1]
            a2 = rng.uniform()
            _, _, interior = entangled_equilibria(
                GamePayoffs(a, b, g), EntangledFamilyState(a2)
            )
            assert 0.0 < interior.p_star < 1.0
            assert 0.0 < interior.q_star < 1.0

    def test_interior_payoff_below_both_corners_for_both_players(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            a, b, g = np.sort(rng.uniform(0.0, 10.0, size=3))[::-1]
            a2 = rng.uniform()
            keep, flip, interior = entangled_equilibria(
                GamePayoffs(a, b, g), EntangledFamilyState(a2)
            )
            assert interior.payoff_a < keep.payoff_a
            assert interior.payoff_b < keep.payoff_b
            assert interior.payoff_a < flip.payoff_a
            assert interior.payoff_b < flip.payoff_b

    def test_symmetry_of_payoff_surfaces_at_balanced_superposition(self):
        bp_a, bp_b = family_coefficients(BOS, 0.5)
        for p in np.linspace(0, 1, 11):
            for q in np.linspace(0, 1, 11):
                assert bp_a.value(p, q) == pytest.approx(bp_b.value(q, p), abs=1e-12)

    def test_rejects_a2_outside_unit_interval(self):
        with pytest.raises(ConstraintViolation):
            EntangledFamilyState(1.2)

    @PROPERTY
    @given(params=scaled_levels(), a2=st.floats(0, 1))
    def test_swapping_a2_and_b2_mirrors_the_equilibria(self, params, a2):
        # Relabelling |OO> <-> |TT> swaps the players' roles: corner payoffs
        # trade places and the interior point reflects p <-> q.
        keep, flip, interior = entangled_equilibria(params, EntangledFamilyState(a2))
        m_keep, m_flip, m_interior = entangled_equilibria(
            params, EntangledFamilyState(1 - a2)
        )
        tol = 1e-12 * max(abs(params.alpha), abs(params.beta), abs(params.gamma))
        for mirrored, point in ((m_keep, keep), (m_flip, flip)):
            assert (mirrored.p_star, mirrored.q_star) == (point.p_star, point.q_star)
            assert abs(mirrored.payoff_a - point.payoff_b) <= tol
            assert abs(mirrored.payoff_b - point.payoff_a) <= tol
        assert abs(m_interior.p_star - interior.q_star) <= 1e-12
        assert abs(m_interior.q_star - interior.p_star) <= 1e-12
        assert abs(m_interior.payoff_a - interior.payoff_b) <= tol
        assert abs(m_interior.payoff_b - interior.payoff_a) <= tol

    @PROPERTY
    @given(
        levels=st.lists(
            st.floats(-1e308, 1e308) | st.floats(-1e160, 1e160),
            min_size=3, max_size=3, unique=True,
        ),
        a2=st.floats(0, 1),
    )
    def test_every_accepted_scale_gives_finite_closed_forms(self, levels, a2):
        try:
            params = GamePayoffs(*sorted(levels, reverse=True))
        except ConstraintViolation:
            return
        for point in entangled_equilibria(params, EntangledFamilyState(a2)):
            assert math.isfinite(point.payoff_a) and math.isfinite(point.payoff_b)


class TestEnumerator:
    def test_classical_coordination_game(self):
        points = enumerate_bilinear_nash(
            BilinearPayoff.from_corner_values(3, 1, 1, 2),
            BilinearPayoff.from_corner_values(2, 1, 1, 3),
        )
        coords = {(round(n.p_star, 12), round(n.q_star, 12)) for n in points}
        assert coords == {(1.0, 1.0), (0.0, 0.0), (round(2 / 3, 12), round(1 / 3, 12))}

    def test_agrees_with_grid_defect_oracle(self):
        bp_a = BilinearPayoff.from_corner_values(3, 1, 1, 2)
        bp_b = BilinearPayoff.from_corner_values(2, 1, 1, 3)
        points = enumerate_bilinear_nash(bp_a, bp_b)
        p, q, defect = best_response_defect_grid(bp_a, bp_b, n=1001)
        near_nash = defect <= 2.5e-3
        grid_pts = np.stack([p[near_nash], q[near_nash]], axis=1)
        assert len(grid_pts) > 0
        enum_pts = np.array([[n.p_star, n.q_star] for n in points])
        # Every low-defect grid point clusters around an enumerated point...
        dists = np.min(
            np.linalg.norm(grid_pts[:, None, :] - enum_pts[None, :, :], axis=2), axis=1
        )
        assert dists.max() < 0.05
        # ...and every enumerated point is witnessed by the grid.
        for point in enum_pts:
            gap = np.min(np.linalg.norm(grid_pts - point, axis=1))
            assert gap < 2e-3

    def test_balanced_superposition_points(self):
        points = enumerate_bilinear_nash(*family_coefficients(BOS, 0.5))
        coords = sorted((n.p_star, n.q_star) for n in points)
        np.testing.assert_allclose(
            coords, [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)], atol=1e-12
        )

    def test_all_zero_coefficients_degenerate_square(self):
        zero = BilinearPayoff(0.0, 0.0, 0.0, 0.0)
        points = enumerate_bilinear_nash(zero, zero)
        assert len(points) == 1
        only = points[0]
        assert only.kind is EquilibriumKind.DEGENERATE_FAMILY
        assert (only.p_star, only.q_star) == (0.5, 0.5)

    def test_indifferent_player_merges_an_edge(self):
        # Row player fully indifferent; column player strictly wants q = 1,
        # so the whole top edge is an equilibrium continuum.
        bp_a = BilinearPayoff(0.0, 0.0, 1.0, 0.0)
        bp_b = BilinearPayoff(0.0, 0.0, 1.0, 0.0)
        points = enumerate_bilinear_nash(bp_a, bp_b)
        assert len(points) == 1
        only = points[0]
        assert only.kind is EquilibriumKind.DEGENERATE_FAMILY
        assert (only.p_star, only.q_star) == (0.5, 1.0)

    def test_pure_cycling_game_has_single_interior_point(self):
        bp_a = BilinearPayoff.from_corner_values(1, -1, -1, 1)
        bp_b = BilinearPayoff.from_corner_values(-1, 1, 1, -1)
        points = enumerate_bilinear_nash(bp_a, bp_b)
        assert len(points) == 1
        assert points[0].kind is EquilibriumKind.INTERIOR
        assert (points[0].p_star, points[0].q_star) == (0.5, 0.5)

    def test_oracle_equivalence_on_random_family_draws(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            a, b, g = np.sort(rng.uniform(0.1, 10.0, size=3))[::-1]
            params = GamePayoffs(a, b, g)
            a2 = rng.uniform()
            closed = entangled_equilibria(params, EntangledFamilyState(a2))
            enumerated = enumerate_bilinear_nash(*family_coefficients(params, a2))
            assert len(enumerated) == 3
            for target in closed:
                gaps = [
                    max(
                        abs(target.p_star - found.p_star),
                        abs(target.q_star - found.q_star),
                        abs(target.payoff_a - found.payoff_a),
                        abs(target.payoff_b - found.payoff_b),
                    )
                    for found in enumerated
                ]
                assert min(gaps) <= 1e-9

    def test_every_returned_point_passes_endpoint_certificate(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            bp_a = BilinearPayoff(*rng.uniform(-3, 3, size=4))
            bp_b = BilinearPayoff(*rng.uniform(-3, 3, size=4))
            for point in enumerate_bilinear_nash(bp_a, bp_b):
                if point.kind is EquilibriumKind.DEGENERATE_FAMILY:
                    continue
                assert endpoint_certificate_holds(
                    bp_a, bp_b, point.p_star, point.q_star
                )

    @pytest.mark.parametrize("k", [-13, 0, 13])
    def test_equilibria_do_not_depend_on_payoff_scale(self, k):
        scale = 10.0**k
        params = GamePayoffs(3 * scale, 2 * scale, 1 * scale)
        points = enumerate_bilinear_nash(*family_coefficients(params, 0.8))
        assert [n.kind for n in points] == [
            EquilibriumKind.CORNER, EquilibriumKind.CORNER, EquilibriumKind.INTERIOR
        ]
        coords = [(n.p_star, n.q_star) for n in points]
        np.testing.assert_allclose(coords, [(1, 1), (0, 0), (0.6, 0.4)], atol=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e13])
    def test_common_payoff_offset_keeps_the_equilibria(self, offset):
        # Coefficients (5, -2, -2) and (5, -3, -3) at every offset: only the
        # constant terms grow, so the slopes must not read as flat.
        bp_a = BilinearPayoff.from_payoff_matrix(np.array([[3.0, 0.0], [0.0, 2.0]]) + offset)
        bp_b = BilinearPayoff.from_payoff_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]) + offset)
        points = enumerate_bilinear_nash(bp_a, bp_b)
        assert [(n.kind, n.p_star, n.q_star) for n in points] == [
            (EquilibriumKind.CORNER, 1.0, 1.0),
            (EquilibriumKind.CORNER, 0.0, 0.0),
            (EquilibriumKind.INTERIOR, 0.6, 0.4),
        ]

    @PROPERTY
    @given(
        phases=st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4),
        k=st.integers(-6, 6),
    )
    def test_uniform_modulus_state_leaves_both_players_indifferent(self, phases, k):
        # Every keep/flip combination of a state with four equal moduli gives
        # the same outcome probabilities, so both surfaces are flat and their
        # coefficients are round-off of the corner payoffs.
        scale = 10.0**k
        params = GamePayoffs(3 * scale, 2 * scale, 1 * scale)
        rho = StateVector(0.5 * np.exp(1j * np.array(phases))).density_matrix()
        surfaces = bilinear_payoff_coefficients(rho, *payoff_operators(params))
        points = enumerate_bilinear_nash(*surfaces)
        assert [(n.kind, n.p_star, n.q_star) for n in points] == [
            (EquilibriumKind.DEGENERATE_FAMILY, 0.5, 0.5)
        ]

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-13, 13),
        m=st.integers(0, 10),
        mixed=st.booleans(),
    )
    def test_positive_affine_rescaling_keeps_the_equilibria(self, seed, k, m, mixed):
        # Both surfaces of a random pure state or random (Ginibre) density
        # matrix, mapped to c*x + d with c = 10^k and a shift d of up to
        # 10^(m+1) times c, up to 1e11 times the payoff differences.
        rng = np.random.default_rng(seed)
        if mixed:
            rho = random_density(rng)
        else:
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            rho = StateVector(amps / np.linalg.norm(amps)).density_matrix()
        pa, pb = payoff_operators(GamePayoffs(*np.sort(rng.uniform(0.1, 10.0, 3))[::-1]))
        surfaces = bilinear_payoff_coefficients(rho, pa, pb)
        c = 10.0**k
        scaled = [
            BilinearPayoff(
                c * bp.pq_coeff, c * bp.p_coeff, c * bp.q_coeff,
                c * (bp.const + rng.uniform(-10.0, 10.0) * 10.0**m),
            )
            for bp in surfaces
        ]
        base = enumerate_bilinear_nash(*surfaces)
        moved = enumerate_bilinear_nash(*scaled)
        assert [n.kind for n in moved] == [n.kind for n in base]
        for got, want in zip(moved, base):
            assert abs(got.p_star - want.p_star) <= 1e-12
            assert abs(got.q_star - want.q_star) <= 1e-12

    def test_payoffs_equal_surface_values(self):
        bp_a, bp_b = family_coefficients(BOS, 0.8)
        for point in enumerate_bilinear_nash(bp_a, bp_b):
            assert point.payoff_a == bp_a.value(point.p_star, point.q_star)
            assert point.payoff_b == bp_b.value(point.p_star, point.q_star)


class TestRanking:
    def test_interior_ranked_strictly_last(self):
        points = entangled_equilibria(BOS, EntangledFamilyState(0.8))
        ranking = rank_equilibria(points)
        assert ranking.ordered[-1].kind is EquilibriumKind.INTERIOR
        assert ranking.ordered[-1].payoff_a == pytest.approx(1.72, abs=1e-12)
        assert ranking.ordered[0].min_payoff > ranking.ordered[-1].min_payoff

    def test_balanced_corners_tie_in_canonical_order(self):
        points = entangled_equilibria(BOS, EntangledFamilyState(0.5))
        ranking = rank_equilibria(points)
        assert (ranking.ordered[0].p_star, ranking.ordered[0].q_star) == (1.0, 1.0)
        assert (ranking.ordered[1].p_star, ranking.ordered[1].q_star) == (0.0, 0.0)
        assert ranking.ordered[0].payoff_a == pytest.approx(2.5, abs=1e-12)
        assert ranking.ordered[2].payoff_a == pytest.approx(1.75, abs=1e-12)

    def test_singleton_passthrough(self):
        point = NashPoint(0.5, 0.5, 1.0, 1.0, EquilibriumKind.INTERIOR)
        ranking = rank_equilibria([point])
        assert ranking.ordered == (point,)
        assert ranking.gaps == ()

    def test_pairwise_differences_between_corners(self):
        points = entangled_equilibria(BOS, EntangledFamilyState(0.8))
        ranking = rank_equilibria(points)
        top_pair = next(g for g in ranking.gaps if (g.better, g.worse) == (0, 1))
        # (alpha - beta) * (a2 - b2) = 1 * 0.6 for the row player.
        assert top_pair.delta_a == pytest.approx(0.6, abs=1e-12)
        assert top_pair.delta_b == pytest.approx(-0.6, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ConstraintViolation):
            rank_equilibria([])


class TestUniqueSolution:
    def test_merges_at_balanced_superposition(self):
        report = unique_solution(BOS, EntangledFamilyState(0.5))
        assert report.merged
        assert report.solution_payoffs == (
            pytest.approx(2.5, abs=1e-12),
            pytest.approx(2.5, abs=1e-12),
        )
        bell = StateVector.bell()
        overlap = abs(np.vdot(bell.amplitudes, report.final_state.amplitudes)) ** 2
        assert overlap >= 1.0 - 1e-12
        assert report.preferred_by_a is None
        assert report.preferred_by_b is None

    def test_conflict_when_oo_weight_dominates(self):
        report = unique_solution(BOS, EntangledFamilyState(0.8))
        assert not report.merged
        assert (report.preferred_by_a.p_star, report.preferred_by_a.q_star) == (1.0, 1.0)
        assert (report.preferred_by_b.p_star, report.preferred_by_b.q_star) == (0.0, 0.0)
        assert report.payoff_difference_a == pytest.approx(0.6, abs=1e-12)
        assert report.payoff_difference_b == pytest.approx(-0.6, abs=1e-12)

    def test_conflict_flips_when_tt_weight_dominates(self):
        report = unique_solution(BOS, EntangledFamilyState(0.2))
        assert not report.merged
        assert (report.preferred_by_a.p_star, report.preferred_by_a.q_star) == (0.0, 0.0)
        assert (report.preferred_by_b.p_star, report.preferred_by_b.q_star) == (1.0, 1.0)

    def test_merge_boundary_behaviour(self):
        # The merge certificate compares corner payoffs and corner final
        # densities at 1e-12; for these parameters both gaps scale like
        # 2 * |a2 - 1/2|, so offsets at 2e-13 merge and 1e-6 must not.
        for offset in (0.0, 2e-13, -2e-13):
            assert unique_solution(BOS, EntangledFamilyState(0.5 + offset)).merged
        for offset in (1e-6, -1e-6, 0.3, -0.3):
            assert not unique_solution(BOS, EntangledFamilyState(0.5 + offset)).merged

    def test_merged_state_is_the_initial_superposition(self):
        report = unique_solution(BOS, EntangledFamilyState(0.5))
        np.testing.assert_allclose(
            report.final_state.amplitudes,
            EntangledFamilyState(0.5).state_vector().amplitudes,
            atol=1e-15,
        )
