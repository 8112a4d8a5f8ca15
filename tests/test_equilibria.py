import cmath
import dataclasses
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    best_response_defect_grid,
    coefficients,
    endpoint_certificate_holds,
    random_density,
)
from qstatic.equilibria import (
    EntangledFamilyState,
    EquilibriumKind,
    NashPoint,
    classical_mixed_equilibria,
    entangled_equilibria,
    enumerate_bilinear_nash,
    rank_equilibria,
    state_unique_solution,
    unique_solution,
)
from qstatic.errors import ConstraintViolation
from qstatic.game_core import BilinearPayoff, GamePayoffs
from qstatic.outcomes import StateVector, payoff_surfaces
from qstatic.quantum_core import bilinear_payoff_coefficients, payoff_operators

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
        # Factorizable play is the |OO> member of the family: its surfaces,
        # solved by the enumerator, give the classical closed forms exactly.
        classical = classical_mixed_equilibria(BOS)
        surfaces = payoff_surfaces(StateVector.basis("OO").probabilities, *BOS.outcome_payoffs)
        quantum = enumerate_bilinear_nash(*surfaces)
        assert len(quantum) == len(classical)
        for c, f in zip(classical, quantum):
            assert f == c


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
        # The oracle refuses exactly the games whose products of levels
        # overflow, and its closed forms are finite wherever it accepts.
        a, b, g = sorted(levels, reverse=True)
        try:
            params = GamePayoffs(a, b, g)
        except ConstraintViolation:
            assert not math.isfinite(a - g)
            return
        products = ((a - g) * (a - g), g * g, a * b + (a - b) * (a - b))
        if not all(map(math.isfinite, products)):
            with pytest.raises(ConstraintViolation, match="products of the levels overflow"):
                entangled_equilibria(params, EntangledFamilyState(a2))
            return
        for point in entangled_equilibria(params, EntangledFamilyState(a2)):
            assert math.isfinite(point.payoff_a) and math.isfinite(point.payoff_b)


class TestEnumerator:
    def test_classical_coordination_game(self):
        points = enumerate_bilinear_nash(
            BilinearPayoff(3, 1, 1, 2),
            BilinearPayoff(2, 1, 1, 3),
        )
        coords = {(round(n.p_star, 12), round(n.q_star, 12)) for n in points}
        assert coords == {(1.0, 1.0), (0.0, 0.0), (round(2 / 3, 12), round(1 / 3, 12))}

    @pytest.mark.parametrize(
        "corners",
        [
            ((3, 1, 1, 2), (2, 1, 1, 3)),  # two corners and an interior point
            ((1, 1, 0, 0), (1, 0, 1, 0)),  # one corner
            ((0, 0, 0, 0), (0, 0, 0, 0)),  # the whole square, a degenerate family
        ],
    )
    def test_int_corners_give_floats_and_fraction_corners_fractions(self, corners):
        # Only Fraction surfaces are enumerated exactly; an int is not a Fraction.
        rows, cols = corners
        floats = enumerate_bilinear_nash(BilinearPayoff(*rows), BilinearPayoff(*cols))
        exact = enumerate_bilinear_nash(
            BilinearPayoff(*map(Fraction, rows)), BilinearPayoff(*map(Fraction, cols))
        )
        assert [type(x) for n in floats for x in (n.p_star, n.q_star)] == [float] * 2 * len(floats)
        assert [type(x) for n in exact for x in (n.p_star, n.q_star)] == [Fraction] * 2 * len(exact)
        assert [n.kind for n in floats] == [n.kind for n in exact]
        for f, x in zip(floats, exact):
            assert dataclasses.astuple(f)[:4] == pytest.approx(dataclasses.astuple(x)[:4], abs=1e-15)

    def test_agrees_with_grid_defect_oracle(self):
        bp_a = BilinearPayoff(3, 1, 1, 2)
        bp_b = BilinearPayoff(2, 1, 1, 3)
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

    @pytest.mark.parametrize(
        "corners, family",
        [
            # value(p, q) = q: the row player is indifferent and the column
            # player strictly wants q = 1, so the whole top edge is a continuum.
            ((1.0, 0.0, 1.0, 0.0), (0.5, 1.0)),
            # value = 1 - q, p and 1 - p: the edges q = 0, p = 1 and p = 0.
            ((0.0, 1.0, 0.0, 1.0), (0.5, 0.0)),
            ((1.0, 1.0, 0.0, 0.0), (1.0, 0.5)),
            ((0.0, 0.0, 1.0, 1.0), (0.0, 0.5)),
        ],
        ids=["q=1", "q=0", "p=1", "p=0"],
    )
    def test_indifferent_player_merges_an_edge(self, corners, family):
        # Both players share the surface.
        points = enumerate_bilinear_nash(BilinearPayoff(*corners), BilinearPayoff(*corners))
        assert len(points) == 1
        only = points[0]
        assert only.kind is EquilibriumKind.DEGENERATE_FAMILY
        assert (only.p_star, only.q_star) == family

    def test_pure_cycling_game_has_single_interior_point(self):
        bp_a = BilinearPayoff(1, -1, -1, 1)
        bp_b = BilinearPayoff(-1, 1, 1, -1)
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
        # The classical game: the |OO> member's surfaces over the flat table.
        bp_a, bp_b = payoff_surfaces(
            StateVector.basis("OO").probabilities,
            [x + offset for x in (3.0, 0.0, 0.0, 2.0)],
            [x + offset for x in (2.0, 0.0, 0.0, 3.0)],
        )
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
        levels=st.sampled_from([(3, 2, 1), (7, 3, -5)]),
    )
    def test_uniform_modulus_state_leaves_both_players_indifferent(self, phases, k, levels):
        # Every keep/flip combination of a state with four equal moduli gives
        # the same outcome probabilities, so both surfaces are flat and their
        # coefficients are round-off of the corner payoffs. Levels 7, 3, -5
        # average to 0 over the four outcomes, so there every corner payoff
        # is round-off around 0 as well.
        scale = 10.0**k
        params = GamePayoffs(*(level * scale for level in levels))
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
        # Held apart in the base, the shift rounds only there, and the
        # equilibria stay within 1e-12. Added to every corner value, it
        # rounds each corner by up to eps * |x + d| (times c), which moves
        # the interior coordinates -p_a/pq_a and -q_b/pq_b by at most
        # 6 eps max|x + d| / |pq| to first order: a slope is the difference
        # of two corners, pq of four.
        rng = np.random.default_rng(seed)
        if mixed:
            rho = random_density(rng)
        else:
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            rho = StateVector(amps / np.linalg.norm(amps)).density_matrix()
        pa, pb = payoff_operators(GamePayoffs(*np.sort(rng.uniform(0.1, 10.0, 3))[::-1]))
        surfaces = bilinear_payoff_coefficients(rho, pa, pb)
        c = 10.0**k
        in_base, in_corners, drift = [], [], []
        for bp in surfaces:
            d = rng.uniform(-10.0, 10.0) * 10.0**m
            corners = [bp.base + x for x in (bp.at_11, bp.at_10, bp.at_01, bp.at_00)]
            in_base.append(BilinearPayoff(
                c * bp.at_11, c * bp.at_10, c * bp.at_01, c * bp.at_00, c * (bp.base + d)
            ))
            in_corners.append(BilinearPayoff(*(c * (x + d) for x in corners)))
            pq = abs(coefficients(bp)[0])
            size = max(abs(x + d) for x in corners)
            drift.append(6 * sys.float_info.epsilon * size / pq if pq else math.inf)
        original = enumerate_bilinear_nash(*surfaces)
        for scaled, (tol_q, tol_p) in ((in_base, (0.0, 0.0)), (in_corners, drift)):
            moved = enumerate_bilinear_nash(*scaled)
            assert [n.kind for n in moved] == [n.kind for n in original]
            for got, want in zip(moved, original):
                assert abs(got.p_star - want.p_star) <= 1e-12 + tol_p
                assert abs(got.q_star - want.q_star) <= 1e-12 + tol_q

    @PROPERTY
    @given(
        sixteenths=st.lists(st.integers(-120, 120), min_size=8, max_size=8),
        k=st.integers(-1000, 1020),
    )
    def test_power_of_two_scale_changes_no_equilibrium(self, sixteenths, k):
        # A 2x2 bimatrix with entries on a grid of 1/16 in [-7.5, 7.5], and
        # the same game times 2^k. Every range stays below 2^1024, every
        # nonzero coordinate is at least 2^-10 and every nonzero payoff term
        # at least 2^-24 of the unit, so no exact result leaves the normal
        # floats: the kinds and coordinates must be the same bits, and each
        # payoff exactly 2^k times the unit game's.
        unit = [x / 16 for x in sixteenths]

        def solve(shift):
            scaled = [math.ldexp(x, shift) for x in unit]
            return enumerate_bilinear_nash(
                *payoff_surfaces((1.0, 0.0, 0.0, 0.0), scaled[:4], scaled[4:])
            )

        want, got = solve(0), solve(k)
        assert [(n.kind, n.p_star, n.q_star) for n in got] == [
            (n.kind, n.p_star, n.q_star) for n in want
        ]
        assert [(n.payoff_a, n.payoff_b) for n in got] == [
            (math.ldexp(n.payoff_a, k), math.ldexp(n.payoff_b, k)) for n in want
        ]

    @PROPERTY
    @given(
        sixteenths=st.lists(st.integers(-120, 120), min_size=8, max_size=8),
        j=st.integers(-1000, 1020),
        k=st.integers(-1000, 1020),
    )
    def test_each_player_may_take_its_own_power_of_two(self, sixteenths, j, k):
        # The unit game above with the row player's payoffs times 2^j and the
        # column player's times 2^k: each player's tests read only that
        # player's surface, so the kinds and coordinates are the same bits,
        # and each player's payoffs are exactly its own power times the unit's.
        unit = [x / 16 for x in sixteenths]

        def solve(shift_a, shift_b):
            a = [math.ldexp(x, shift_a) for x in unit[:4]]
            b = [math.ldexp(x, shift_b) for x in unit[4:]]
            return enumerate_bilinear_nash(*payoff_surfaces((1.0, 0.0, 0.0, 0.0), a, b))

        want, got = solve(0, 0), solve(j, k)
        assert [(n.kind, n.p_star, n.q_star) for n in got] == [
            (n.kind, n.p_star, n.q_star) for n in want
        ]
        assert [(n.payoff_a, n.payoff_b) for n in got] == [
            (math.ldexp(n.payoff_a, j), math.ldexp(n.payoff_b, k)) for n in want
        ]

    def test_a_tiny_surface_keeps_its_bits_beside_an_overflowing_one(self):
        # The row player's corners overflow a float's sums and need scaling
        # down; the column player's sit near 2^-1016 with every mantissa bit
        # set to matter. Scaled by the row player's power they would round off
        # the low bits, so each surface takes its own: the column player's
        # equilibria are the same bits as at unit scale.
        a = (1.5e308, 0.0, 0.0, 1e308)
        unit_b = (1 + 2.0**-52, 0.0, 0.0, 2 - 2.0**-52)
        tiny_b = [math.ldexp(x, -1016) for x in unit_b]
        want = enumerate_bilinear_nash(*payoff_surfaces((1.0, 0.0, 0.0, 0.0), a, unit_b))
        got = enumerate_bilinear_nash(*payoff_surfaces((1.0, 0.0, 0.0, 0.0), a, tiny_b))
        assert [n.kind for n in got] == [
            EquilibriumKind.CORNER, EquilibriumKind.CORNER, EquilibriumKind.INTERIOR
        ]
        assert [(n.kind, n.p_star, n.q_star, n.payoff_a) for n in got] == [
            (n.kind, n.p_star, n.q_star, n.payoff_a) for n in want
        ]
        assert [n.payoff_b for n in got] == [math.ldexp(n.payoff_b, -1016) for n in want]

    def test_corners_near_the_largest_float_keep_the_interior_point(self):
        # Corners 1.5e308 and 1e308: the slopes' difference and the sum of
        # the corners overflow a float unless the corners are scaled first.
        a, b = (1.5e308, 0.0, 0.0, 1e308), (1e308, 0.0, 0.0, 1.5e308)
        points = enumerate_bilinear_nash(*payoff_surfaces((1.0, 0.0, 0.0, 0.0), a, b))
        assert [(n.kind, n.p_star, n.q_star) for n in points] == [
            (EquilibriumKind.CORNER, 1.0, 1.0),
            (EquilibriumKind.CORNER, 0.0, 0.0),
            (EquilibriumKind.INTERIOR, 0.6, 0.4),
        ]
        payoffs = [1.5e308, 1e308, 1e308, 1.5e308, 6e307, 6e307]
        got = [x for n in points for x in (n.payoff_a, n.payoff_b)]
        assert all(math.isclose(g, w, rel_tol=1e-15) for g, w in zip(got, payoffs))

    @pytest.mark.parametrize(
        "bp_a, bp_b",
        [
            (BilinearPayoff(1.0, 0.0, 0.0, 1e17), BilinearPayoff(1.0, 0.0, 1.0, 0.0)),
            (BilinearPayoff(1.0, 1.0, 0.0, 0.0), BilinearPayoff(1.0, 0.0, 0.0, 1e17)),
        ],
    )
    def test_an_edge_slope_is_judged_against_its_own_two_corners(self, bp_a, bp_b):
        # One player gains 1 along the edge through (1, 1), whose corners are
        # 1 and 0, beside a corner of 1e17 on the far edge; the other player
        # pushes towards that edge. A slope of 1 is far above the round-off
        # of its own corners though not of all four, so (1, 1) is the only
        # equilibrium, as in exact arithmetic, and no edge is indifferent.
        points = enumerate_bilinear_nash(bp_a, bp_b)
        assert [(n.kind, n.p_star, n.q_star) for n in points] == [
            (EquilibriumKind.CORNER, 1.0, 1.0)
        ]

    def test_payoffs_equal_surface_values(self):
        bp_a, bp_b = family_coefficients(BOS, 0.8)
        for point in enumerate_bilinear_nash(bp_a, bp_b):
            assert point.payoff_a == bp_a.value(point.p_star, point.q_star)
            assert point.payoff_b == bp_b.value(point.p_star, point.q_star)

    def test_float_surfaces_give_float_coordinates(self):
        flat = BilinearPayoff(1.0, 1.0, 1.0, 1.0)
        top_edge = BilinearPayoff(1.0, 0.0, 1.0, 0.0)
        bos = (BilinearPayoff(3.0, 1.0, 1.0, 2.0), BilinearPayoff(2.0, 1.0, 1.0, 3.0))
        cases = (
            ((flat, flat), [(0.5, 0.5)]),
            ((top_edge, top_edge), [(0.5, 1.0)]),
            (bos, [(1.0, 1.0), (0.0, 0.0), (2 / 3, 1 / 3)]),
        )
        for surfaces, want in cases:
            points = enumerate_bilinear_nash(*surfaces)
            assert [(n.p_star, n.q_star) for n in points] == want
            assert all(type(n.p_star) is float and type(n.q_star) is float for n in points)

    @PROPERTY
    @given(
        levels=st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3, unique=True),
        a2=st.fractions(0, 1, max_denominator=10**6),
    )
    def test_fraction_surfaces_reproduce_the_closed_forms_exactly(self, levels, a2):
        # The exact twin: on Fraction surfaces of a family state the
        # enumerator has zero tolerances and must give the closed forms'
        # kinds, order and values exactly. The float run must find the same
        # kinds in the same order; at these levels the spread is far above
        # the float round-off of the levels.
        exact = GamePayoffs(*(Fraction(v) for v in sorted(levels, reverse=True)))
        surfaces = payoff_surfaces((a2, 0, 0, 1 - a2), *exact.outcome_payoffs)
        enumerated = enumerate_bilinear_nash(*surfaces)
        closed = entangled_equilibria(exact, EntangledFamilyState(a2))

        def fields(points):
            return [(n.kind, n.p_star, n.q_star, n.payoff_a, n.payoff_b) for n in points]

        assert fields(enumerated) == fields(closed)
        assert all(type(x) is Fraction for n in enumerated for x in fields([n])[0][1:])
        params = GamePayoffs(*(float(v) for v in (exact.alpha, exact.beta, exact.gamma)))
        probabilities = EntangledFamilyState(float(a2)).state_vector().probabilities
        floats = enumerate_bilinear_nash(*payoff_surfaces(probabilities, *params.outcome_payoffs))
        assert [n.kind for n in floats] == [n.kind for n in enumerated]

    def test_candidate_rounded_off_an_edge_stays_on_it(self):
        # Weights 0, 0, 2/5, 3/5 on levels 3, -1, -9: the row player is
        # indifferent along q = 1 and the mutual-indifference point is
        # (2/5, 1). In floats q* rounds to 1 + 2^-52; it is the same point.
        params = GamePayoffs(3.0, -1.0, -9.0)
        points = enumerate_bilinear_nash(*payoff_surfaces((0, 0, 0.4, 0.6), *params.outcome_payoffs))
        assert [(n.kind, n.q_star) for n in points] == [
            (EquilibriumKind.CORNER, 1.0),
            (EquilibriumKind.CORNER, 0.0),
            (EquilibriumKind.INTERIOR, 1.0),
        ]
        assert points[2].p_star == pytest.approx(0.4, abs=1e-15)

    @PROPERTY
    @given(
        levels=st.lists(st.integers(-10, 10), min_size=3, max_size=3, unique=True),
        weights=st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(
            lambda w: w[1] + w[2] > 0
        ),
    )
    def test_fraction_surfaces_outside_the_family(self, levels, weights):
        # The exact twin on states with rational squared moduli and weight on
        # |OT> or |TO>, which no closed form covers. Each exact point must
        # pass the best-response certificate exactly (degenerate families
        # included: their representative is an equilibrium too), and the
        # float run on the rounded probabilities must find the same kinds at
        # the same coordinates within 1e-12. Small levels and denominators
        # keep the coordinates' round-off, corner round-off over a bilinear
        # term of at least 1/20, far below that.
        total = sum(weights)
        exact = GamePayoffs(*(Fraction(v) for v in sorted(levels, reverse=True)))
        probabilities = [Fraction(w, total) for w in weights]
        bp_a, bp_b = payoff_surfaces(probabilities, *exact.outcome_payoffs)
        enumerated = enumerate_bilinear_nash(bp_a, bp_b)
        assert enumerated
        for n in enumerated:
            p, q = n.p_star, n.q_star
            assert type(p) is Fraction and type(q) is Fraction
            assert (n.payoff_a, n.payoff_b) == (bp_a.value(p, q), bp_b.value(p, q))
            assert n.payoff_a >= max(bp_a.value(0, q), bp_a.value(1, q))
            assert n.payoff_b >= max(bp_b.value(p, 0), bp_b.value(p, 1))
        params = GamePayoffs(*(float(v) for v in (exact.alpha, exact.beta, exact.gamma)))
        floats = enumerate_bilinear_nash(
            *payoff_surfaces([float(d) for d in probabilities], *params.outcome_payoffs)
        )
        assert [n.kind for n in floats] == [n.kind for n in enumerated]
        for got, want in zip(floats, enumerated):
            assert abs(got.p_star - want.p_star) <= 1e-12
            assert abs(got.q_star - want.q_star) <= 1e-12


class TestRanking:
    def test_interior_ranked_strictly_last(self):
        points = entangled_equilibria(BOS, EntangledFamilyState(0.8))
        ranking = rank_equilibria(points)
        assert ranking.ordered[-1].kind is EquilibriumKind.INTERIOR
        assert ranking.ordered[-1].payoff_a == pytest.approx(1.72, abs=1e-12)
        assert ranking.ordered[0].min_payoff > ranking.ordered[-1].min_payoff

    def test_larger_payoff_breaks_a_tie_in_the_smaller_at_any_scale(self):
        # Both payoff sums overflow to inf; the larger payoff still orders them.
        low = NashPoint(1.0, 1.0, 1e308, 1.6e308, EquilibriumKind.CORNER)
        high = NashPoint(0.0, 0.0, 1.7e308, 1e308, EquilibriumKind.CORNER)
        ordered = rank_equilibria([low, high]).ordered
        assert ordered[0] is high and ordered[1] is low

    @PROPERTY
    @given(
        params=scaled_levels(),
        weights=st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4),
        phases=st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4),
    )
    def test_mirror_corners_tie_exactly_outside_the_family(self, params, weights, phases):
        # B's payoff vector is A's read backwards, so B's (0,0) corner is
        # A's (1,1) corner summed in reverse order: the two corners must tie
        # bit for bit, and the documented tie-break puts (1,1) first.
        total = sum(weights)
        amps = [math.sqrt(w / total) * complex(math.cos(t), math.sin(t))
                for w, t in zip(weights, phases)]
        state = StateVector(np.array(amps) / np.linalg.norm(amps))
        bp_a, bp_b = payoff_surfaces(state.probabilities, *params.outcome_payoffs)
        assert bp_a.at_11.hex() == bp_b.at_00.hex()
        assert bp_a.at_00.hex() == bp_b.at_11.hex()
        ordered = rank_equilibria(enumerate_bilinear_nash(bp_a, bp_b)).ordered
        corners = [(n.p_star, n.q_star) for n in ordered]
        if (1.0, 1.0) in corners and (0.0, 0.0) in corners:
            assert corners.index((1.0, 1.0)) < corners.index((0.0, 0.0))

    def test_balanced_corners_tie_in_canonical_order(self):
        points = entangled_equilibria(BOS, EntangledFamilyState(0.5))
        ranking = rank_equilibria(points)
        assert (ranking.ordered[0].p_star, ranking.ordered[0].q_star) == (1.0, 1.0)
        assert (ranking.ordered[1].p_star, ranking.ordered[1].q_star) == (0.0, 0.0)
        assert ranking.ordered[0].payoff_a == pytest.approx(2.5, abs=1e-12)
        assert ranking.ordered[2].payoff_a == pytest.approx(1.75, abs=1e-12)

    def test_every_input_order_gives_one_ranking(self):
        # At a2 = 1/2 the corners (1,1) and (0,0) tie exactly in both payoffs,
        # and so does a family point on the edge q = 1 between them; the
        # coordinates order all three, whatever order the points come in.
        keep, flip, interior = entangled_equilibria(BOS, EntangledFamilyState(0.5))
        assert (keep.payoff_a, keep.payoff_b) == (flip.payoff_a, flip.payoff_b)
        edge = NashPoint(0.5, 1.0, keep.payoff_a, keep.payoff_b, EquilibriumKind.DEGENERATE_FAMILY)
        low = NashPoint(0.25, 0.0, 0.5, 4.0, EquilibriumKind.INTERIOR)
        want = (keep, edge, flip, interior, low)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for order in itertools.permutations(want):
            ranking = rank_equilibria(order)
            assert ranking.ordered == want
            assert [(g.better, g.worse) for g in ranking.gaps] == pairs
            assert [(g.delta_a, g.delta_b) for g in ranking.gaps] == [
                (want[i].payoff_a - want[j].payoff_a, want[i].payoff_b - want[j].payoff_b)
                for i, j in pairs
            ]

    def test_result_types_are_frozen_slotted_values(self):
        points = entangled_equilibria(BOS, EntangledFamilyState(0.8))
        ranking = rank_equilibria(points[:2])
        report = unique_solution(GamePayoffs(3, 2, 1), EntangledFamilyState(0.5))
        for value in (ranking.gaps[0], ranking, report):
            for name in value._fields:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))
            assert not hasattr(value, "__dict__")
        assert repr(ranking.gaps[0]) == (
            "PairwiseGap(better=0, worse=1, "
            "delta_a=0.6000000000000001, delta_b=-0.6000000000000001)"
        )
        assert repr(ranking) == (
            f"EquilibriumRanking(ordered={points[:2]!r}, gaps={ranking.gaps!r})"
        )
        corner = (
            "NashPoint(p_star={0}, q_star={0}, payoff_a=2.5000000000000004, "
            "payoff_b=2.5000000000000004, kind=<EquilibriumKind.CORNER: 'corner'>)"
        )
        keep, flip = corner.format(1.0), corner.format(0.0)
        assert repr(report) == (
            f"UniqueSolutionReport(merged=True, corner_keep={keep}, corner_flip={flip}, "
            "payoff_difference_a=0.0, payoff_difference_b=0.0, "
            "solution_payoffs=(2.5000000000000004, 2.5000000000000004), "
            "final_state=StateVector(amplitudes=((0.7071067811865476+0j), 0j, 0j, "
            "(0.7071067811865476+0j))))"
        )

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
        # The merge certificate compares the corner final densities at
        # 1e-12; their gap scales like 2 * |a2 - 1/2|, so offsets at 4e-13
        # merge and 1e-12 must not.
        for offset in (0.0, 2e-13, -2e-13, 4e-13, -4e-13):
            assert unique_solution(BOS, EntangledFamilyState(0.5 + offset)).merged
        for offset in (1e-12, -1e-12, 1e-6, -1e-6, 0.3, -0.3):
            assert not unique_solution(BOS, EntangledFamilyState(0.5 + offset)).merged

    @pytest.mark.parametrize("k", range(-6, 13))
    def test_verdict_does_not_depend_on_payoff_scale(self, k):
        scale = 10.0**k
        params = GamePayoffs(3 * scale, 2 * scale, 1 * scale)
        for offset, merged in ((1e-14, True), (1e-6, False), (-1e-6, False)):
            report = unique_solution(params, EntangledFamilyState(0.5 + offset))
            assert report.merged is merged

    @PROPERTY
    @given(phase=st.floats(-math.pi, math.pi))
    def test_phases_decide_the_merge_at_the_balanced_superposition(self, phase):
        # (|OO> + e^(i phase)|TT>)/sqrt(2): the corner final densities differ
        # by |sin(phase)|, so phases 0 and pi merge and no other phase does;
        # the corner payoffs tie at every phase.
        assume(phase in (0.0, math.pi, -math.pi) or abs(math.sin(phase)) > 1e-9)
        r = math.sqrt(0.5)
        state = StateVector.oo_tt(r, r * cmath.exp(1j * phase))
        surfaces = payoff_surfaces(state.probabilities, *BOS.outcome_payoffs)
        report = state_unique_solution(surfaces, state)
        assert report.merged is (phase in (0.0, math.pi, -math.pi))
        assert report.payoff_difference_a == report.payoff_difference_b == 0.0
        if report.merged:
            assert report.final_state is state
        else:
            assert report.preferred_by_a is None and report.preferred_by_b is None

    def test_merged_state_is_the_initial_superposition(self):
        report = unique_solution(BOS, EntangledFamilyState(0.5))
        np.testing.assert_allclose(
            report.final_state.amplitudes,
            EntangledFamilyState(0.5).state_vector().amplitudes,
            atol=1e-15,
        )
