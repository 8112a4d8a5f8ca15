import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qstatic.equilibria import EntangledFamilyState
from qstatic.errors import ConstraintViolation
from qstatic.game_core import Bimatrix, GamePayoffs, MixProbabilities, bos_bimatrix
from qstatic.montecarlo import SimulationConfig, _binomial, simulate
from qstatic.outcomes import StateVector
from qstatic.quantum_core import mixed_final_density, payoff_operators, trace_payoffs

LEVELS = GamePayoffs(3, 2, 1)
BOS = bos_bimatrix(LEVELS)


def config(initial, p, q, rounds, seed):
    return SimulationConfig(
        rounds=rounds,
        seed=seed,
        mix=MixProbabilities(p, q),
        initial=initial,
        payoffs=BOS,
    )


def analytic_payoffs(cfg: SimulationConfig) -> tuple[float, float]:
    # The density oracle reads the levels that ``config`` plays as BOS.
    assert cfg.payoffs is BOS
    pa, pb = payoff_operators(LEVELS)
    return trace_payoffs(pa, pb, mixed_final_density(cfg.initial.density_matrix(), cfg.mix))


class TestValidation:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ConstraintViolation):
            config(StateVector.basis("OO"), 1.0, 1.0, 0, 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConstraintViolation):
            config(StateVector.basis("OO"), 1.0, 1.0, 10, -1)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ConstraintViolation):
            config(StateVector.basis("OO"), 1.0, 1.0, 10, 2**64)

    @pytest.mark.parametrize("rounds", [2**63, 10**20])
    def test_rejects_rounds_beyond_int64(self, rounds):
        with pytest.raises(ConstraintViolation, match="rounds"):
            config(StateVector.basis("OO"), 1.0, 1.0, rounds, 1)

    @pytest.mark.parametrize("payoffs", [
        Bimatrix([[1, 0, 2]] * 3, [[0, 1, 2]] * 3), Bimatrix([[1, 0]], [[0, 1]]), LEVELS
    ])
    def test_rejects_payoffs_other_than_a_2x2_bimatrix(self, payoffs):
        mix, state = MixProbabilities(1.0, 1.0), StateVector.basis("OO")
        with pytest.raises(ConstraintViolation, match="payoffs must be a 2x2 Bimatrix"):
            SimulationConfig(10, 1, mix, state, payoffs)


class TestDeterministicCases:
    def test_certain_outcome_yields_exact_payoffs(self):
        cfg = config(StateVector.basis("OO"), 1.0, 1.0, 50, 123)
        report = simulate(cfg)
        assert report.counts == (50, 0, 0, 0)
        assert (report.mean_payoff_a, report.mean_payoff_b) == (3.0, 2.0)
        assert (report.std_error_a, report.std_error_b) == (0.0, 0.0)

    def test_single_round(self):
        cfg = config(StateVector.basis("TT"), 1.0, 1.0, 1, 0)
        report = simulate(cfg)
        assert sum(report.counts) == 1
        assert (report.std_error_a, report.std_error_b) == (0.0, 0.0)

    def test_one_outcome_gives_its_payoffs_exactly(self):
        # 3 * 0.1 rounds up, and its quotient by 3 is not 0.1; the mean is
        # clamped to the counted payoffs, so one outcome gives its own.
        cfg = SimulationConfig(
            3, 0, MixProbabilities(1.0, 1.0), StateVector.basis("OO"),
            bos_bimatrix(GamePayoffs(0.3, 0.1, 0)),
        )
        report = simulate(cfg)
        assert report.counts == (3, 0, 0, 0)
        assert (report.mean_payoff_a, report.mean_payoff_b) == (0.3, 0.1)
        assert (report.std_error_a, report.std_error_b) == (0.0, 0.0)

    @pytest.mark.parametrize("p, q, outcome", [(1, 1, 0), (1, 0, 1), (0, 1, 2), (0, 0, 3)])
    def test_each_outcome_pays_its_own_bimatrix_cell(self, p, q, outcome):
        # The Prisoner's Dilemma: OT and TO pay differently, so the outcome
        # order (OO, OT, TO, TT) of the tables shows in the means.
        game = Bimatrix([[3, 0], [5, 1]], [[3, 5], [0, 1]])
        report = simulate(SimulationConfig(7, 0, MixProbabilities(p, q), StateVector.basis("OO"), game))
        assert report.counts == tuple(7 if k == outcome else 0 for k in range(4))
        row, col = divmod(outcome, 2)
        assert (report.mean_payoff_a, report.mean_payoff_b) == (
            game.payoff_a[row][col], game.payoff_b[row][col]
        )

    def test_certain_outcome_at_the_largest_round_count(self):
        rounds = 2**63 - 1
        cfg = config(StateVector.basis("OO"), 1.0, 1.0, rounds, 123)
        report = simulate(cfg)
        assert report.counts == (rounds, 0, 0, 0)
        assert (report.mean_payoff_a, report.mean_payoff_b) == (3.0, 2.0)
        assert (report.std_error_a, report.std_error_b) == (0.0, 0.0)


class TestPayoffScale:
    """Mean and standard error are taken in a power-of-two unit of the
    counted payoffs, so they hold at every payoff scale."""

    @pytest.mark.parametrize("k", [-1000, 1000, 1023])
    def test_levels_times_a_power_of_two_scale_the_statistics_exactly(self, k):
        state = EntangledFamilyState(0.3).state_vector()
        mix, payoffs = MixProbabilities(0.4, 0.7), bos_bimatrix(GamePayoffs(1.5, 1, -0.25))
        unit = SimulationConfig(2**63 - 1, 5, mix, state, payoffs)
        levels = (math.ldexp(x, k) for x in (1.5, 1, -0.25))
        scaled = SimulationConfig(2**63 - 1, 5, mix, state, bos_bimatrix(GamePayoffs(*levels)))
        want, got = simulate(unit), simulate(scaled)
        assert got.counts == want.counts
        for stat in ("mean_payoff_a", "mean_payoff_b", "std_error_a", "std_error_b"):
            assert getattr(got, stat) == math.ldexp(getattr(want, stat), k)

    def test_a_tiny_counted_payoff_keeps_its_bits_beside_a_huge_one(self):
        # Every round lands on OO, where A earns alpha and B earns beta; the
        # unit follows the counted payoff, not the largest level.
        payoffs = bos_bimatrix(GamePayoffs(1e300, 1e-299, 1e-300))
        cfg = SimulationConfig(1024, 0, MixProbabilities(1.0, 1.0), StateVector.basis("OO"), payoffs)
        report = simulate(cfg)
        assert (report.mean_payoff_a, report.mean_payoff_b) == (1e300, 1e-299)
        assert (report.std_error_a, report.std_error_b) == (0.0, 0.0)


KEEP = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sets(st.integers(0, 3), max_size=3),
    p=KEEP,
    q=KEEP,
)
def test_outcome_probabilities_match_the_density_oracle(seed, zeros, p, q):
    """The keep/flip mix of the state's squared moduli is the diagonal of
    the oracle's mixed final density, and it is normalized."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps[list(zeros)] = 0.0
    psi = StateVector(tuple(amps / np.linalg.norm(amps)))
    mix = MixProbabilities(p, q)
    probs = simulate(config(psi, p, q, 1, seed)).outcome_probabilities
    want = mixed_final_density(psi.density_matrix(), mix).diagonal_probabilities()
    assert np.abs(np.array(probs) - want).max() <= 1e-15
    assert abs(math.fsum(probs) - 1.0) <= 4 * math.ulp(1.0)


class TestReproducibility:
    def test_same_seed_same_report(self):
        cfg = config(EntangledFamilyState(0.5).state_vector(), 0.5, 0.5, 20000, 42)
        assert simulate(cfg) == simulate(cfg)

    def test_different_seed_different_counts(self):
        psi = EntangledFamilyState(0.5).state_vector()
        first = simulate(config(psi, 0.5, 0.5, 20000, 1))
        second = simulate(config(psi, 0.5, 0.5, 20000, 2))
        assert first.counts != second.counts


class TestAgreementWithAnalytic:
    def test_balanced_superposition_at_half_mixing(self):
        cfg = config(EntangledFamilyState(0.5).state_vector(), 0.5, 0.5, 10**6, 7)
        report = simulate(cfg)
        want_a, want_b = analytic_payoffs(cfg)
        assert want_a == pytest.approx(1.75, abs=1e-12)
        assert abs(report.mean_payoff_a - want_a) <= 4 * report.std_error_a
        assert abs(report.mean_payoff_b - want_b) <= 4 * report.std_error_b

    def test_interior_mixing_from_pure_start(self):
        cfg = config(StateVector.basis("OO"), 2 / 3, 1 / 3, 10**6, 99)
        report = simulate(cfg)
        want_a, want_b = analytic_payoffs(cfg)
        assert want_a == pytest.approx(5 / 3, abs=1e-12)
        assert abs(report.mean_payoff_a - want_a) <= 4 * report.std_error_a
        assert abs(report.mean_payoff_b - want_b) <= 4 * report.std_error_b

    def test_counts_sum_to_rounds(self):
        cfg = config(EntangledFamilyState(0.3).state_vector(), 0.4, 0.9, 12345, 5)
        assert sum(simulate(cfg).counts) == 12345

    def test_trillion_rounds_count_exactly_and_agree(self):
        rounds = 10**12
        cfg = config(EntangledFamilyState(0.5).state_vector(), 0.5, 0.5, rounds, 11)
        report = simulate(cfg)
        assert sum(report.counts) == rounds
        assert abs(report.mean_payoff_a - 1.75) <= 4 * report.std_error_a
        assert abs(report.mean_payoff_b - 1.75) <= 4 * report.std_error_b


def test_memory_does_not_grow_with_rounds():
    cfg = config(EntangledFamilyState(0.5).state_vector(), 0.5, 0.5, 10**7, 3)
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestStatisticalProperties:
    ROUNDS = 10**5
    TRIALS = 200

    def _trial_configs(self):
        psi = EntangledFamilyState(0.5).state_vector()
        return [config(psi, 0.3, 0.7, self.ROUNDS, seed) for seed in range(self.TRIALS)]

    def test_mean_within_four_standard_errors_in_nearly_all_trials(self):
        hits = 0
        for cfg in self._trial_configs():
            report = simulate(cfg)
            want_a, want_b = analytic_payoffs(cfg)
            ok_a = abs(report.mean_payoff_a - want_a) <= 4 * report.std_error_a
            ok_b = abs(report.mean_payoff_b - want_b) <= 4 * report.std_error_b
            hits += ok_a and ok_b
        assert hits >= 0.99 * self.TRIALS

    def test_counts_pass_chi_square_in_nearly_all_trials(self):
        threshold = stats.chi2.ppf(0.999, df=3)
        hits = 0
        for cfg in self._trial_configs():
            report = simulate(cfg)
            probs = np.array(report.outcome_probabilities)
            assert probs.min() > 0
            expected = probs * self.ROUNDS
            observed = np.array(report.counts)
            statistic = float(((observed - expected) ** 2 / expected).sum())
            hits += statistic < threshold
        assert hits >= 0.99 * self.TRIALS


class TestBinomialSampler:
    """``_binomial`` against the exact Binomial(n, p) law, on both of its
    branches (geometric below n p = 10, BTRS above) and their mirrors."""

    DRAWS = 20000

    @pytest.mark.parametrize(
        "n, p",
        [(30, 0.2), (12, 0.75), (100, 0.3), (1000, 0.85), (2, 0.5), (5000, 0.5)],
    )
    def test_draws_pass_chi_square_against_the_exact_pmf(self, n, p):
        rng = random.Random(n)
        observed: dict[int, int] = {}
        for _ in range(self.DRAWS):
            k = _binomial(rng, n, p)
            observed[k] = observed.get(k, 0) + 1
        mean, sd = n * p, math.sqrt(n * p * (1 - p))
        lo, hi = max(0, math.floor(mean - 6 * sd)), min(n, math.ceil(mean + 6 * sd))
        assert lo <= min(observed) and max(observed) <= hi
        x = Fraction(p)
        pmf = {k: float(math.comb(n, k) * x**k * (1 - x) ** (n - k)) for k in range(lo, hi + 1)}
        # Pool values into bins of at least 5 expected draws.
        bins, expected, got = [], 0.0, 0
        for k in range(lo, hi + 1):
            expected += self.DRAWS * pmf[k]
            got += observed.get(k, 0)
            if expected >= 5:
                bins.append((got, expected))
                expected, got = 0.0, 0
        bins[-1] = (bins[-1][0] + got, bins[-1][1] + expected)
        statistic = sum((o - e) ** 2 / e for o, e in bins)
        assert statistic < stats.chi2.ppf(0.999, df=len(bins) - 1)

    @pytest.mark.parametrize("n", [2, 12, 30, 100, 10**6, 2**63 - 1])
    @pytest.mark.parametrize("p", [0.6, 0.75, 0.97])
    def test_mirror_above_one_half(self, n, p):
        for seed in range(20):
            want = n - _binomial(random.Random(seed), n, 1.0 - p)
            assert _binomial(random.Random(seed), n, p) == want

    @pytest.mark.parametrize("n", [0, 1, 7, 10**6, 2**63 - 1])
    def test_certain_and_impossible_success(self, n):
        rng = random.Random(1)
        assert _binomial(rng, n, 0.0) == 0
        assert _binomial(rng, n, 1.0) == n

    def test_single_trial_is_a_bernoulli_draw(self):
        rng = random.Random(2)
        draws = [_binomial(rng, 1, 0.3) for _ in range(10000)]
        assert set(draws) == {0, 1}
        assert abs(sum(draws) / 10000 - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / 10000)

    def test_no_trials_no_successes(self):
        assert _binomial(random.Random(3), 0, 0.4) == 0

    def test_tiny_probability_keeps_its_rate(self):
        """n p = 5 with p = 5e-18, below where 1 - p rounds to 1."""
        rng = random.Random(4)
        draws = [_binomial(rng, 10**18, 5e-18) for _ in range(4000)]
        assert abs(sum(draws) / 4000 - 5.0) <= 4 * math.sqrt(5.0 / 4000)

    def test_subnormal_probability_draws_zero(self):
        assert _binomial(random.Random(5), 2**63 - 1, 5e-324) == 0

    @pytest.mark.parametrize(
        "n, p, uniforms",
        [
            (5, 0.3, [0.0] * 6),  # geometric: each 0.0 is a gap of one trial
            # BTRS: u = -1/2 has no hat; then a tail proposal with v = 0.0.
            (10**6, 0.3, [0.0, 0.94, 0.0]),
        ],
    )
    def test_a_zero_uniform_raises_nothing(self, n, p, uniforms):
        """random() returns 0.0 once in 2^53 draws; binomialvariate then
        takes log(0) or divides by zero."""

        class Scripted(random.Random):
            def random(self):
                return uniforms.pop(0)

        assert 0 <= _binomial(Scripted(), n, p) <= n

    def test_largest_trial_count_follows_the_normal_limit(self):
        """At n = 2^63 - 1 the standardized draws are standard normal; the
        lgamma-difference acceptance test gives them a standard deviation
        near 2.9 there."""
        n, p = 2**63 - 1, 0.3
        rng = random.Random(6)
        sd = math.sqrt(n * p * (1 - p))
        z = [(_binomial(rng, n, p) - n * p) / sd for _ in range(20000)]
        assert max(map(abs, z)) < 6
        assert stats.kstest(z, "norm").pvalue > 1e-3


@pytest.mark.parametrize("seed", range(10))
def test_largest_round_count_splits_exactly(seed):
    rounds = 2**63 - 1
    report = simulate(config(EntangledFamilyState(0.3).state_vector(), 0.4, 0.7, rounds, seed))
    assert sum(report.counts) == rounds
    assert all(0 <= c <= rounds for c in report.counts)


@pytest.mark.parametrize("rounds", [1, 5, 10**6, 2**63 - 1])
def test_impossible_outcomes_get_no_counts(rounds):
    """From |OO>, a row player who mixes and a column player who keeps reach
    only OO and TO."""
    for seed in range(10):
        report = simulate(config(StateVector.basis("OO"), 0.5, 1.0, rounds, seed))
        assert report.outcome_probabilities == (0.5, 0.0, 0.5, 0.0)
        assert report.counts[1] == report.counts[3] == 0
        assert report.counts[0] + report.counts[2] == rounds
