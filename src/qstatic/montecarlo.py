"""Measurement-collapse simulator: repeated play with a fresh identical
state preparation each round, outcomes drawn from the state's outcome
probabilities permuted by the keep/flip moves, payoffs accrued from the
classical bimatrix entries only. It runs on the standard library: the
draws read ``random.Random(seed).random()``, the stream Python keeps
across versions for an integer seed, and ``math``."""

from __future__ import annotations

import math
import random
from itertools import accumulate

from .errors import ConstraintViolation
from .game_core import Bimatrix, FrozenValue, MixProbabilities, slot_setters
from .outcomes import StateVector, flipped

__all__ = ["SimulationConfig", "SimulationReport", "simulate"]


class SimulationConfig(FrozenValue):
    """``rounds`` plays of the 2x2 game ``payoffs`` from the state ``initial``,
    each player keeping with the probabilities ``mix``, drawn from ``seed``."""

    _fields = __slots__ = ("rounds", "seed", "mix", "initial", "payoffs")

    def __init__(
        self, rounds: int, seed: int, mix: MixProbabilities, initial: StateVector, payoffs: Bimatrix
    ) -> None:
        self.__post_init__(rounds, seed, mix, initial, payoffs)

    def __post_init__(
        self, rounds: int, seed: int, mix: MixProbabilities, initial: StateVector, payoffs: Bimatrix
    ) -> None:
        # The report's rounds and counts stay signed 64-bit integers, which
        # JSON and CSV readers that parse integers as int64 read exactly.
        if not isinstance(rounds, int) or not 1 <= rounds <= 2**63 - 1:
            raise ConstraintViolation(
                f"rounds must be an integer from 1 to 2**63 - 1, got {rounds}"
            )
        if not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConstraintViolation(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not (isinstance(payoffs, Bimatrix) and payoffs.is_2x2):
            raise ConstraintViolation(f"payoffs must be a 2x2 Bimatrix, got {payoffs!r}")
        _set_rounds(self, rounds)
        _set_seed(self, seed)
        _set_mix(self, mix)
        _set_initial(self, initial)
        _set_payoffs(self, payoffs)


_set_rounds, _set_seed, _set_mix, _set_initial, _set_payoffs = slot_setters(SimulationConfig)


class SimulationReport(FrozenValue):
    """Outcome probabilities and tallies per basis state, plus empirical
    payoff statistics.

    Standard errors are the sample standard deviation over rounds divided
    by sqrt(rounds); zero when every round lands on one outcome.
    """

    _fields = __slots__ = (
        "outcome_probabilities", "counts", "mean_payoff_a", "mean_payoff_b",
        "std_error_a", "std_error_b",
    )

    def __init__(
        self,
        outcome_probabilities: tuple[float, float, float, float],
        counts: tuple[int, int, int, int],
        mean_payoff_a: float,
        mean_payoff_b: float,
        std_error_a: float,
        std_error_b: float,
    ) -> None:
        _set_outcome_probabilities(self, outcome_probabilities)
        _set_counts(self, counts)
        _set_mean_payoff_a(self, mean_payoff_a)
        _set_mean_payoff_b(self, mean_payoff_b)
        _set_std_error_a(self, std_error_a)
        _set_std_error_b(self, std_error_b)


(
    _set_outcome_probabilities, _set_counts, _set_mean_payoff_a, _set_mean_payoff_b,
    _set_std_error_a, _set_std_error_b,
) = slot_setters(SimulationReport)


def _stirling_error(k: int) -> float:
    """lgamma(k + 1) minus its Stirling approximation, for k >= 1."""
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
    kk = float(k) * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k


def _deviance(x: float, mean: float) -> float:
    """x log(x / mean) + mean - x, by its series when x is near the mean."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    total, term, j = (x - mean) * v, 2 * x * v, 1
    while True:
        term *= v * v
        grown = total + term / (2 * j + 1)
        if grown == total:
            return total
        total, j = grown, j + 1


def _log_binomial_pmf(n: int, p: float, k: int) -> float:
    """log P(X = k) for X ~ Binomial(n, p) from Stirling errors and
    deviances (Loader, "Fast and accurate computation of binomial
    probabilities", 2000). At n = 2^63 - 1 it is within 3e-6 of the exact
    value; the lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1) form that
    CPython uses is off by up to 1e5 there, its terms being near 4e20."""
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    return (
        _stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
        - _deviance(k, n * p) - _deviance(n - k, n * (1.0 - p))
        + 0.5 * math.log(n / (2 * math.pi * k * (n - k)))
    )


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw in time and memory independent of n.

    A port of CPython 3.12's ``random.binomialvariate``: Devroye's
    geometric method when n p < 10, Hoermann's BTRS (transformed rejection
    with squeeze) otherwise, and the mirror n - X(n, 1 - p) above p = 1/2.
    Three changes keep it accurate, and free of exceptions, up to
    n = 2^63 - 1: the geometric rate is log1p(-p), since log2(1 - p) is 0
    below p = 2^-54 and coarse above it; BTRS's acceptance test takes the
    pmf ratio from ``_log_binomial_pmf``; and no uniform that can be 0.0
    reaches a log or a divisor.
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return int(rng.random() < p)
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        rate = math.log1p(-p)
        x = y = 0
        while True:
            # min() keeps a subnormal p's infinite gap out of floor().
            y += math.floor(min(math.log(1.0 - rng.random()) / rate, n)) + 1
            if y > n:
                return x
            x += 1

    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    log_mode_pmf = None
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if not us:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= vr:
            return k
        if log_mode_pmf is None:
            alpha = (2.83 + 5.1 / b) * spq
            log_mode_pmf = _log_binomial_pmf(n, p, math.floor((n + 1) * p))
        v *= alpha / (a / (us * us) + b)
        if v <= math.exp(_log_binomial_pmf(n, p, k) - log_mode_pmf):
            return k


def simulate(config: SimulationConfig) -> SimulationReport:
    """Play the configured game ``rounds`` times and tally collapsed outcomes.

    Keeping or flipping permutes the state's outcome probabilities, so the
    final ones are their keep/flip mix, the row player's move first. The
    tallies are one multinomial draw over them, taken as three conditional
    binomial draws with the last count the remainder: the same distribution
    as ``rounds`` independent collapses, at a time and memory cost that does
    not depend on ``rounds``. The generator is ``random.Random(seed)``, so
    an identical config reproduces the report bit for bit.
    """
    p, q = config.mix.p, config.mix.q
    d = config.initial.probabilities
    row = [p * x + (1.0 - p) * y for x, y in zip(d, flipped(d, True, False))]
    mixed = [q * x + (1.0 - q) * y for x, y in zip(row, flipped(row, False, True))]
    # Fixed-order sums: the seeded draw depends on the last bit, and sum()
    # compensates from Python 3.12 on.
    total = ((mixed[0] + mixed[1]) + mixed[2]) + mixed[3]
    probs = [x / total for x in mixed]
    # Each count is a binomial draw of what is left at the outcome's share of
    # the probability left; an outcome of probability 0 gets a share of 0,
    # and _binomial reads a share at or past 0 or 1 as that bound.
    tails = list(accumulate(reversed(probs)))[::-1]
    rng = random.Random(config.seed)
    counts, left = [], config.rounds
    for x, tail in zip(probs[:3], tails):
        counts.append(_binomial(rng, left, x / tail if tail else 0.0))
        left -= counts[-1]
    counts.append(left)

    def stats(payoffs: tuple[float, ...]) -> tuple[float, float]:
        # Sums in units of 2^e, the power of two above every counted payoff, are exact and
        # cannot overflow; the mean is clamped to the counted units, which lie in (-1, 1).
        e = math.frexp(max(abs(v) for c, v in zip(counts, payoffs) if c))[1]
        units = [(c, math.ldexp(v, -e)) for c, v in zip(counts, payoffs) if c]
        mean = math.fsum(c * v for c, v in units) / config.rounds
        mean = min(max(mean, min(v for _, v in units)), max(v for _, v in units))
        var = math.fsum(c * (v - mean) ** 2 for c, v in units) / max(config.rounds - 1, 1)
        return math.ldexp(mean, e), math.ldexp(math.sqrt(var / config.rounds), e)

    (mean_a, se_a), (mean_b, se_b) = map(stats, config.payoffs.outcome_payoffs)
    return SimulationReport(
        outcome_probabilities=tuple(probs),
        counts=tuple(counts),
        mean_payoff_a=mean_a,
        mean_payoff_b=mean_b,
        std_error_a=se_a,
        std_error_b=se_b,
    )
