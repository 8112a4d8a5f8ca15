import copy
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import brute_force_pure_nash, brute_force_survivors, coefficients
from qstatic.cli import LoadedConfig
from qstatic.equilibria import (
    EntangledFamilyState,
    EquilibriumKind,
    EquilibriumRanking,
    NashPoint,
    PairwiseGap,
    UniqueSolutionReport,
    classical_mixed_equilibria,
    unique_solution,
)
from qstatic.errors import ConstraintViolation
from qstatic.game_core import (
    BilinearPayoff,
    Bimatrix,
    EliminationResult,
    EliminationStep,
    FrozenValue,
    GamePayoffs,
    MixProbabilities,
    bos_bimatrix,
    eliminate_strictly_dominated,
    expected_payoffs,
    pure_nash,
)
from qstatic.montecarlo import SimulationConfig, SimulationReport
from qstatic.outcomes import StateVector, payoff_surfaces
from qstatic.quantum_core import DensityMatrix, LocalUnitary, PayoffOperator

#: The outcome probabilities of |OO>, whose surfaces are the classical game's.
OO = StateVector.basis("OO").probabilities


def bos(alpha=3.0, beta=2.0, gamma=1.0) -> Bimatrix:
    return bos_bimatrix(GamePayoffs(alpha, beta, gamma))


def affine_expansion(params: GamePayoffs, p: float, q: float) -> tuple[float, float]:
    """Independent closed-form oracle for the coordination-game payoffs."""
    a, b, g = params.alpha, params.beta, params.gamma
    pay_a = p * (q * (a - 2 * g + b) + g - b) + b + q * (g - b)
    pay_b = q * (p * (a - 2 * g + b) + g - a) + a + p * (g - a)
    return pay_a, pay_b


class TestBosBimatrix:
    def test_canonical_parameters(self):
        game = bos(3, 2, 1)
        np.testing.assert_array_equal(game.payoff_a, [[3, 1], [1, 2]])
        np.testing.assert_array_equal(game.payoff_b, [[2, 1], [1, 3]])

    def test_direct_placement_row_player(self):
        np.testing.assert_array_equal(bos(2, 1, 0).payoff_a, [[2, 0], [0, 1]])

    def test_direct_placement_column_player(self):
        np.testing.assert_array_equal(bos(5, 3, 0).payoff_b, [[3, 0], [0, 5]])

    @pytest.mark.parametrize("params", [(2, 2, 1), (3, 1, 1), (1, 2, 3), (3, 3, 3)])
    def test_rejects_broken_ordering(self, params):
        with pytest.raises(ConstraintViolation):
            GamePayoffs(*params)

    def test_rejects_nonfinite(self):
        with pytest.raises(ConstraintViolation):
            GamePayoffs(np.inf, 2, 1)

    @pytest.mark.parametrize(
        "params",
        [
            (9.76e299, 7.00e299, -6.64e299),  # (alpha - beta)^2 overflows
            (1e308, -1e308, -1.7e308),  # the range, and with it the spread, overflows
            (1.5e154, 1.19e154, 1e154),  # the interior numerator at a2 = 1/2
        ],
    )
    def test_rejects_scales_whose_products_overflow(self, params):
        # The game needs only a finite range; the closed-form oracles, which
        # multiply levels together, refuse the rest.
        with pytest.raises(ConstraintViolation, match="payoff scale too large"):
            classical_mixed_equilibria(GamePayoffs(*params))

    def test_levels_need_only_a_finite_range(self):
        # The rule of each Bimatrix table: these levels square past a float.
        assert bos(1e200, 5e199, 0).payoff_a == ((1e200, 0.0), (0.0, 5e199))
        assert bos(9.76e299, 7.00e299, -6.64e299).payoff_b[1][1] == 9.76e299
        with pytest.raises(ConstraintViolation, match="range of the levels alpha, beta, gamma"):
            GamePayoffs(1e308, -1e308, -1.7e308)


class TestBimatrixValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ConstraintViolation):
            Bimatrix(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_nonfinite_entries(self):
        with pytest.raises(ConstraintViolation):
            Bimatrix(np.array([[np.nan, 0], [0, 0]]), np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
    def test_range_that_overflows_a_float(self, shape):
        # Every entry is finite, but the largest minus the smallest is not.
        table = np.zeros(shape)
        table[0, 0], table[-1, -1] = 1e308, -1e308
        with pytest.raises(ConstraintViolation, match="payoff scale too large.*payoff_b"):
            Bimatrix(np.zeros(shape), table)
        Bimatrix(table / 2, table / 2)

    def test_arrays_frozen(self):
        game = bos()
        with pytest.raises(TypeError):
            game.payoff_a[0][0] = 99


class TestOutcomePayoffs:
    def test_tables_read_row_by_row_as_oo_ot_to_tt(self):
        # Row strategy 0 (O) with column strategy 1 (T) is the outcome OT.
        game = Bimatrix([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert game.outcome_payoffs == ((1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0))

    def test_levels_give_their_coordination_table(self):
        assert bos(3, 2, 1).outcome_payoffs == ((3.0, 1.0, 1.0, 2.0), (2.0, 1.0, 1.0, 3.0))

    def test_levels_and_their_bimatrix_give_one_table(self):
        params = GamePayoffs(3.0, 2.0, 1.0)
        assert params.outcome_payoffs == bos_bimatrix(params).outcome_payoffs

    def test_levels_keep_their_number_type(self):
        levels = GamePayoffs(Fraction(5, 2), Fraction(1, 3), Fraction(-1, 7))
        row, col = levels.outcome_payoffs
        assert row == (Fraction(5, 2), Fraction(-1, 7), Fraction(-1, 7), Fraction(1, 3))
        assert col == (Fraction(1, 3), Fraction(-1, 7), Fraction(-1, 7), Fraction(5, 2))
        assert all(type(x) is Fraction for x in row + col)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (3, 3)])
    def test_only_a_2x2_game_has_them(self, shape):
        with pytest.raises(ConstraintViolation, match=re.escape(f"2x2 game, got shape {shape}")):
            Bimatrix(np.zeros(shape), np.zeros(shape)).outcome_payoffs


class TestElimination:
    def test_coordination_game_keeps_everything(self):
        result = eliminate_strictly_dominated(bos())
        assert result.survivors_a == (0, 1)
        assert result.survivors_b == (0, 1)
        assert result.steps == ()

    def test_dominated_row_removed(self):
        game = Bimatrix(np.array([[1, 1], [0, 0]]), np.zeros((2, 2)))
        result = eliminate_strictly_dominated(game)
        assert result.survivors_a == (0,)
        assert result.survivors_b == (0, 1)
        assert len(result.steps) == 1
        assert (result.steps[0].player, result.steps[0].removed) == (0, 1)

    def test_weak_dominance_is_not_removed(self):
        game = Bimatrix(np.array([[1, 1], [1, 0]]), np.zeros((2, 2)))
        assert eliminate_strictly_dominated(game).steps == ()

    def test_defection_game_single_survivor(self):
        game = Bimatrix(
            np.array([[3, 0], [5, 1]]), np.array([[3, 5], [0, 1]])
        )
        result = eliminate_strictly_dominated(game)
        assert result.survivors_a == (1,)
        assert result.survivors_b == (1,)
        rows, cols = brute_force_survivors(np.array(game.payoff_a), np.array(game.payoff_b))
        assert (set(result.survivors_a), set(result.survivors_b)) == (rows, cols)

    def test_trace_scans_row_player_first(self):
        game = Bimatrix(
            np.array([[1, 1], [0, 0]]), np.array([[1, 0], [1, 0]])
        )
        result = eliminate_strictly_dominated(game)
        assert [step.player for step in result.steps] == [0, 1]

    def test_matches_bruteforce_on_random_games(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            shape = rng.choice([2, 3, 4], size=2)
            if trial % 2:
                a = rng.integers(0, 4, size=shape).astype(float)
                b = rng.integers(0, 4, size=shape).astype(float)
            else:
                a = rng.normal(size=shape)
                b = rng.normal(size=shape)
            result = eliminate_strictly_dominated(Bimatrix(a, b))
            rows, cols = brute_force_survivors(a, b)
            assert set(result.survivors_a) == rows
            assert set(result.survivors_b) == cols


class TestPureNash:
    def test_coordination_game_two_equilibria(self):
        assert pure_nash(bos()) == ((0, 0), (1, 1))

    def test_constant_game_every_profile(self):
        ones = np.ones((2, 2))
        assert pure_nash(Bimatrix(ones, ones)) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_zero_sum_cycling_game_has_none(self):
        a = np.array([[1, -1], [-1, 1]])
        assert pure_nash(Bimatrix(a, -a)) == ()

    def test_matches_bruteforce_on_random_games(self):
        rng = np.random.default_rng(11)
        for trial in range(1000):
            shape = rng.choice([2, 3], size=2)
            if trial % 2:
                a = rng.integers(-2, 3, size=shape).astype(float)
                b = rng.integers(-2, 3, size=shape).astype(float)
            else:
                a = rng.normal(size=shape)
                b = rng.normal(size=shape)
            assert set(pure_nash(Bimatrix(a, b))) == brute_force_pure_nash(a, b)

    def test_eliminated_strategies_never_appear_in_pure_nash(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            n = int(rng.integers(2, 4))
            a = rng.integers(-3, 4, size=(n, n)).astype(float)
            b = rng.integers(-3, 4, size=(n, n)).astype(float)
            game = Bimatrix(a, b)
            removed_rows = set(range(n)) - set(
                eliminate_strictly_dominated(game).survivors_a
            )
            removed_cols = set(range(n)) - set(
                eliminate_strictly_dominated(game).survivors_b
            )
            for i, j in pure_nash(game):
                assert i not in removed_rows
                assert j not in removed_cols

    def test_singleton_survivor_is_the_unique_pure_equilibrium(self):
        rng = np.random.default_rng(17)
        seen = 0
        for _ in range(600):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            game = Bimatrix(a, b)
            result = eliminate_strictly_dominated(game)
            if len(result.survivors_a) == 1 and len(result.survivors_b) == 1:
                seen += 1
                profile = (result.survivors_a[0], result.survivors_b[0])
                assert pure_nash(game) == (profile,)
        assert seen > 10


class TestExpectedPayoffs:
    def test_pure_profile_oo(self):
        assert expected_payoffs(bos(), MixProbabilities(1.0, 1.0)) == (3.0, 2.0)

    def test_pure_profile_tt(self):
        assert expected_payoffs(bos(), MixProbabilities(0.0, 0.0)) == (2.0, 3.0)

    def test_shared_payoff_at_interior_mixing(self):
        pay = expected_payoffs(bos(), MixProbabilities(2 / 3, 1 / 3))
        assert pay[0] == pytest.approx(5 / 3, abs=1e-12)
        assert pay[1] == pytest.approx(5 / 3, abs=1e-12)

    def test_matches_affine_expansion_oracle(self):
        params = GamePayoffs(3, 2, 1)
        game = bos_bimatrix(params)
        rng = np.random.default_rng(19)
        for _ in range(200):
            p, q = rng.uniform(size=2)
            got = expected_payoffs(game, MixProbabilities(p, q))
            want = affine_expansion(params, p, q)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_corners_equal_bimatrix_entries_exactly(self):
        game = bos(7.25, 2.5, -1.75)
        for i, p in enumerate((1.0, 0.0)):
            for j, q in enumerate((1.0, 0.0)):
                pay = expected_payoffs(game, MixProbabilities(p, q))
                assert pay == (game.payoff_a[i][j], game.payoff_b[i][j])

    @given(
        p0=st.floats(0, 1),
        p1=st.floats(0, 1),
        q=st.floats(0, 1),
    )
    def test_affine_in_own_probability(self, p0, p1, q):
        game = bos()
        mid = (p0 + p1) / 2
        pay0 = expected_payoffs(game, MixProbabilities(p0, q))[0]
        pay1 = expected_payoffs(game, MixProbabilities(p1, q))[0]
        pay_mid = expected_payoffs(game, MixProbabilities(mid, q))[0]
        assert pay_mid == pytest.approx((pay0 + pay1) / 2, abs=1e-12)

    def test_distinct_entries_tell_the_four_weights_apart(self):
        # The coordination game pays both off-diagonal cells alike, so only a
        # general table shows a weight paired with the wrong cell. Dyadic
        # probabilities keep every product and sum exact.
        game = Bimatrix([[1000, 100], [10, 1]], [[1, 10], [100, 1000]])
        assert expected_payoffs(game, MixProbabilities(0.25, 0.125)) == (
            1751 / 32,
            21371 / 32,
        )

    def test_rejects_probabilities_outside_unit_interval(self):
        with pytest.raises(ConstraintViolation):
            MixProbabilities(1.2, 0.5)
        with pytest.raises(ConstraintViolation):
            MixProbabilities(0.5, -0.1)

    @pytest.mark.parametrize(
        "p, q, name, bad",
        [
            (math.nan, 0.5, "p", "nan"),
            (0.5, math.nan, "q", "nan"),
            (-0.0, 1.5, "q", "1.5"),
            (-1e-300, 2.0, "p", "-1e-300"),
            (1.0, -math.inf, "q", "-inf"),
        ],
    )
    def test_rejection_names_the_first_parameter_outside(self, p, q, name, bad):
        with pytest.raises(ConstraintViolation, match=rf"^{name} must lie in \[0, 1\], got {bad}$"):
            MixProbabilities(p, q)

    def test_rejects_larger_games(self):
        game = Bimatrix(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ConstraintViolation):
            expected_payoffs(game, MixProbabilities(0.5, 0.5))


class TestBilinearPayoff:
    def test_corner_values_roundtrip(self):
        bp = BilinearPayoff(4.0, -1.0, 2.5, 0.5)
        assert bp.value(1, 1) == 4.0
        assert bp.value(1, 0) == -1.0
        assert bp.value(0, 1) == 2.5
        assert bp.value(0, 0) == 0.5

    @given(corners=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4))
    def test_value_returns_each_corner_bit_for_bit(self, corners):
        # Equal nonzero floats have equal bits; a zero corner may come back
        # with the other sign.
        bp = BilinearPayoff(*corners)
        got = [bp.value(1.0, 1.0), bp.value(1.0, 0.0), bp.value(0.0, 1.0), bp.value(0.0, 0.0)]
        assert got == corners

    @given(entries=st.lists(st.floats(-1e300, 1e300), min_size=8, max_size=8))
    @example(entries=[0.0] * 7 + [-0.0])
    def test_surfaces_at_oo_hold_the_table_entries(self, entries):
        # At |OO> each corner is one table entry measured from the smallest:
        # x - base, with the other three outcomes adding zeros. Adding a zero
        # keeps a nonzero value's bits but can flip the sign of a zero, so a
        # zero corner is compared by value and every other value by bits.
        table_a, table_b = entries[:4], entries[4:]
        for bp, table in zip(payoff_surfaces(OO, table_a, table_b), (table_a, table_b)):
            base = min(table)
            corners = (bp.at_11, bp.at_10, bp.at_01, bp.at_00, bp.base)
            want = (*(x - base for x in table), base)
            assert [x.hex() if x else 0.0 for x in corners] == [
                x.hex() if x else 0.0 for x in want
            ]

    def test_from_matrix_matches_expected_payoffs(self):
        game = bos(5, 3, 1)
        (a0, a1), (b0, b1) = game.payoff_a, game.payoff_b
        bp_a, bp_b = payoff_surfaces(OO, a0 + a1, b0 + b1)
        rng = np.random.default_rng(23)
        for _ in range(100):
            p, q = rng.uniform(size=2)
            want = expected_payoffs(game, MixProbabilities(p, q))
            assert bp_a.value(p, q) == pytest.approx(want[0], abs=1e-12)
            assert bp_b.value(p, q) == pytest.approx(want[1], abs=1e-12)

    def test_fraction_corners_give_an_exact_surface(self):
        at_11, at_10, at_01, at_00 = Fraction(4), Fraction(-1, 3), Fraction(5, 2), Fraction(1, 7)
        bp = BilinearPayoff(at_11, at_10, at_01, at_00)
        assert all(type(c) is Fraction for c in coefficients(bp))
        p, q = Fraction(1, 3), Fraction(2, 5)
        # Bilinear interpolation between the corners, in exact arithmetic.
        want = (
            p * q * at_11 + p * (1 - q) * at_10 + (1 - p) * q * at_01
            + (1 - p) * (1 - q) * at_00
        )
        assert bp.value(p, q) == want
        assert bp.slope_p(q) == bp.value(1, q) - bp.value(0, q)

    def test_slopes_are_partial_derivatives(self):
        # value(p, q) = 3 p q - p + 2 q
        bp = BilinearPayoff(4.0, -1.0, 2.0, 0.0)
        eps = 1e-7
        q = 0.37
        numeric = (bp.value(0.5 + eps, q) - bp.value(0.5 - eps, q)) / (2 * eps)
        assert bp.slope_p(q) == pytest.approx(numeric, abs=1e-6)


def _frozen_values() -> list[tuple[FrozenValue, FrozenValue | None]]:
    """One value of every ``FrozenValue`` type, each with a value of its type
    that differs from it in the last field only, or None for a type that
    compares by identity."""
    game, state, mix = bos(3, 2, 1), StateVector.basis("OT"), MixProbabilities(0.25, 0.5)
    point = NashPoint(1.0, 1.0, 3.0, 2.0, EquilibriumKind.CORNER)
    step, gap = EliminationStep(0, 1, 0), PairwiseGap(0, 1, 0.5, -0.5)
    report = unique_solution(GamePayoffs(3, 2, 1), EntangledFamilyState(0.5))
    loaded = ("a.json", GamePayoffs(3, 2, 1), game, ("O", "T"), ("O", "T"), state, "preset")
    tallies = ((0.5, 0.5, 0.0, 0.0), (6, 4, 0, 0), 2.2, 1.8)
    return [
        (game, None),
        (GamePayoffs(3, 2, 1), GamePayoffs(3, 2, 0)),
        (mix, MixProbabilities(0.25, 0.75)),
        (BilinearPayoff(3.0, 1.0, 0.5, 0.0), BilinearPayoff(3.0, 1.0, 0.5, 0.0, 1.0)),
        (step, EliminationStep(0, 1, 2)),
        (EliminationResult((0,), (0, 1), (step,)), EliminationResult((0,), (0, 1), ())),
        (state, None),
        (EntangledFamilyState(0.3), EntangledFamilyState(0.4)),
        (gap, PairwiseGap(0, 1, 0.5, 0.5)),
        (EquilibriumRanking((point,), (gap,)), EquilibriumRanking((point,), ())),
        (report, UniqueSolutionReport(*[getattr(report, n) for n in report._fields[:-1]], None)),
        (LoadedConfig(*loaded, "OT"), LoadedConfig(*loaded, None)),
        (SimulationConfig(10, 1, mix, state, game), SimulationConfig(10, 1, mix, state, bos())),
        (SimulationReport(*tallies, 0.1, 0.2), SimulationReport(*tallies, 0.1, 0.3)),
        (DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0])), None),
        (LocalUnitary(0.6, 0.8), LocalUnitary(0.6, -0.8)),
        (PayoffOperator([3.0, 1.0, 1.0, 2.0]), None),
    ]


_FROZEN_VALUES = _frozen_values()
_FROZEN_IDS = [type(value).__name__ for value, _ in _FROZEN_VALUES]


def _subclasses(cls: type) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))}


class TestFrozenValue:
    """Every value type but ``NashPoint`` is a ``FrozenValue``: slotted and
    frozen, with the equality, hash and repr over its fields that its
    dataclass had, and copies and pickles that go through its checks."""

    def test_every_value_type_is_covered_and_none_is_a_dataclass(self):
        assert {type(value) for value, _ in _FROZEN_VALUES} == _subclasses(FrozenValue)
        assert not any(hasattr(cls, "__dataclass_fields__") for cls in _subclasses(FrozenValue))

    @pytest.mark.parametrize("value, other", _FROZEN_VALUES, ids=_FROZEN_IDS)
    def test_no_field_can_be_written_or_deleted(self, value, other):
        for name in dict.fromkeys(value._fields + type(value).__slots__ + ("extra",)):
            kept = getattr(value, name, None)
            with pytest.raises(AttributeError):
                setattr(value, name, object())
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name, None) is kept
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value, other", _FROZEN_VALUES, ids=_FROZEN_IDS)
    def test_equality_hash_and_repr_read_the_fields_in_order(self, value, other):
        fields = tuple(getattr(value, name) for name in value._fields)
        twin = type(value)(*fields)
        if other is None:
            assert value != twin and value == value
            assert hash(value) == object.__hash__(value)
        else:
            assert value == twin and not value != twin and hash(value) == hash(fields)
            assert value != other and not value == other
        assert value.__eq__(fields) is NotImplemented
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._fields)
        assert repr(value) == f"{type(value).__name__}({shown})"

    @pytest.mark.parametrize("value, other", _FROZEN_VALUES, ids=_FROZEN_IDS)
    def test_copies_and_pickles_rebuild_the_value(self, value, other):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin is not value
            assert repr(twin) == repr(value)

    def test_reprs_are_the_dataclass_reprs(self):
        game = Bimatrix([[3, 1], [1, 2]], [[2, 1], [1, 3]])
        assert repr(game) == "Bimatrix(payoff_a=((3.0, 1.0), (1.0, 2.0)), payoff_b=((2.0, 1.0), (1.0, 3.0)))"
        assert repr(eliminate_strictly_dominated(Bimatrix([[3, 0], [5, 1]], [[3, 5], [0, 1]]))) == (
            "EliminationResult(survivors_a=(1,), survivors_b=(1,), steps=("
            "EliminationStep(player=0, removed=0, dominated_by=1), "
            "EliminationStep(player=1, removed=0, dominated_by=1)))"
        )
        wide = Bimatrix([[1, 0, 2]], [[0, 1, 2]])
        with pytest.raises(ConstraintViolation) as refused:
            SimulationConfig(10, 1, MixProbabilities(1, 1), StateVector.basis("OO"), wide)
        assert str(refused.value) == (
            "payoffs must be a 2x2 Bimatrix, got "
            "Bimatrix(payoff_a=((1.0, 0.0, 2.0),), payoff_b=((0.0, 1.0, 2.0),))"
        )


def _slot_cases() -> list:
    """For every value type, ``NashPoint`` included: arguments that differ
    from one another, and what each slot must read, in ``__slots__`` order."""
    game = Bimatrix(((3.0, 1.0), (0.0, 2.0)), ((2.0, 0.5), (1.5, 3.0)))
    state, mix = StateVector((0.5, 0.5j, -0.5, -0.5j)), MixProbabilities(0.25, 0.5)
    keep = NashPoint(1.0, 1.0, 3.0, 2.0, EquilibriumKind.CORNER)
    flip = NashPoint(0.0, 0.0, 2.0, 3.0, EquilibriumKind.CORNER)
    step, gap = EliminationStep(0, 1, 0), PairwiseGap(0, 2, 0.5, -1.5)
    rows = tuple(tuple(complex(d) if i == j else 0j for j in range(4)) for i, d in
                 enumerate((0.1, 0.2, 0.3, 0.4)))
    same = [
        (Bimatrix, (game.payoff_a, game.payoff_b)),
        (GamePayoffs, (3, 2, 1)),
        (MixProbabilities, (0.25, 0.5)),
        (BilinearPayoff, (4.0, 3.0, 2.0, 1.0, 0.5)),
        (EliminationStep, (1, 0, 2)),
        (EliminationResult, ((0,), (1, 2), (step,))),
        (PairwiseGap, (0, 2, 0.5, -1.5)),
        (EquilibriumRanking, ((keep,), (gap,))),
        (UniqueSolutionReport, (True, keep, flip, 0.5, -0.5, (2.5, 2.5), state)),
        (LoadedConfig, ("a.json", GamePayoffs(3, 2, 1), game, ("O", "T"), ("L", "R"), state,
                        "preset", "bell")),
        (SimulationConfig, (10, 7, mix, state, game)),
        (SimulationReport, ((0.1, 0.2, 0.3, 0.4), (1, 2, 3, 4), 2.5, 1.5, 0.25, 0.125)),
        (NashPoint, (0.25, 0.75, 3.0, 2.0, EquilibriumKind.INTERIOR)),
    ]
    return [pytest.param(cls, args, args, id=cls.__name__) for cls, args in same] + [
        pytest.param(
            StateVector, (state.amplitudes,), (state.amplitudes, (0.25,) * 4), id="StateVector"
        ),
        pytest.param(
            EntangledFamilyState, (0.36,),
            (0.36, StateVector.oo_tt(math.sqrt(0.36), math.sqrt(1 - 0.36))),
            id="EntangledFamilyState",
        ),
        pytest.param(
            DensityMatrix, (rows,), (np.array(rows), rows, (0.1, 0.2, 0.3, 0.4), (0.0,) * 4),
            id="DensityMatrix",
        ),
        pytest.param(LocalUnitary, (0.6, 0.8j), (0.6 + 0j, 0.8j), id="LocalUnitary"),
        pytest.param(
            PayoffOperator, ((3.0, 1.0, 0.5, 2.0),),
            (np.array((3.0, 1.0, 0.5, 2.0)), (3.0, 1.0, 0.5, 2.0)), id="PayoffOperator",
        ),
    ]


def _readable(x):
    """A form of a slot's value that compares by content: an array as its
    nested list, a state (equal only to itself) as its amplitudes."""
    if isinstance(x, np.ndarray):
        return "array", x.tolist()
    if isinstance(x, StateVector):
        return "state", x.amplitudes
    return x


_SLOT_CASES = _slot_cases()


class TestFieldOrder:
    """Each constructor writes every slot with the value meant for it."""

    def test_every_value_type_is_covered(self):
        covered = {case.values[0] for case in _SLOT_CASES}
        assert covered == _subclasses(FrozenValue) | {NashPoint}

    @pytest.mark.parametrize("cls, args, slots", _SLOT_CASES)
    def test_each_slot_reads_back_its_argument(self, cls, args, slots):
        wants = [_readable(want) for want in slots]
        # Distinct values, so that a slot written with another's value shows.
        assert len({repr(want) for want in wants}) == len(wants) == len(cls.__slots__)
        value = cls(*args)
        assert [_readable(getattr(value, name)) for name in cls.__slots__] == wants
