import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qstatic.equilibria import EntangledFamilyState
from qstatic.errors import ConstraintViolation
from qstatic.game_core import GamePayoffs
from qstatic.montecarlo import SimulationConfig, simulate
from qstatic.quantum_core import (
    MixingChoice,
    StateVector,
    mixed_final_density,
    payoff_operators,
    trace_payoffs,
)

BOS = GamePayoffs(3, 2, 1)


def config(initial, p, q, rounds, seed):
    return SimulationConfig(
        rounds=rounds,
        seed=seed,
        mix=MixingChoice(p, q),
        initial=initial,
        payoffs=BOS,
    )


def analytic_payoffs(cfg: SimulationConfig) -> tuple[float, float]:
    pa, pb = payoff_operators(cfg.payoffs)
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

    def test_certain_outcome_at_the_largest_round_count(self):
        rounds = 2**63 - 1
        cfg = config(StateVector.basis("OO"), 1.0, 1.0, rounds, 123)
        report = simulate(cfg)
        assert report.counts == (rounds, 0, 0, 0)
        assert (report.mean_payoff_a, report.mean_payoff_b) == (3.0, 2.0)
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
    mix = MixingChoice(p, q)
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
