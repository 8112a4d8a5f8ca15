"""Measurement-collapse simulator: repeated play with a fresh identical
state preparation each round, outcomes drawn from the state's outcome
probabilities permuted by the keep/flip moves, payoffs accrued from the
classical bimatrix entries only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation
from .game_core import GamePayoffs, _bos_table
from .outcomes import MixingChoice, StateVector, _flipped

__all__ = ["SimulationConfig", "SimulationReport", "simulate"]


@dataclass(frozen=True)
class SimulationConfig:
    rounds: int
    seed: int
    mix: MixingChoice
    initial: StateVector
    payoffs: GamePayoffs

    def __post_init__(self) -> None:
        # numpy's multinomial takes the number of trials as a C int64.
        if not isinstance(self.rounds, int) or not 1 <= self.rounds <= 2**63 - 1:
            raise ConstraintViolation(
                f"rounds must be an integer from 1 to 2**63 - 1, got {self.rounds}"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConstraintViolation(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class SimulationReport:
    """Outcome probabilities and tallies per basis state, plus empirical
    payoff statistics.

    Standard errors are the sample standard deviation over rounds divided
    by sqrt(rounds); zero when every round lands on one outcome.
    """

    outcome_probabilities: tuple[float, float, float, float]
    counts: tuple[int, int, int, int]
    mean_payoff_a: float
    mean_payoff_b: float
    std_error_a: float
    std_error_b: float


def simulate(config: SimulationConfig) -> SimulationReport:
    """Play the configured game ``rounds`` times and tally collapsed outcomes.

    Keeping or flipping permutes the state's outcome probabilities, so the
    final ones are their keep/flip mix, the row player's move first. The
    tallies are one multinomial draw over them: the same distribution as
    ``rounds`` independent collapses, at a time and memory cost that does
    not depend on ``rounds``. The generator is seeded PCG64, so an
    identical config reproduces the report bit for bit.
    """
    p, q = config.mix.p, config.mix.q
    d = config.initial.probabilities
    row = [p * x + (1.0 - p) * y for x, y in zip(d, _flipped(d, True, False))]
    mixed = [q * x + (1.0 - q) * y for x, y in zip(row, _flipped(row, False, True))]
    # A fixed left-to-right order: the seeded draw depends on the last bit,
    # and sum() compensates from Python 3.12 on.
    total = ((mixed[0] + mixed[1]) + mixed[2]) + mixed[3]
    probs = [x / total for x in mixed]
    counts = np.random.default_rng(config.seed).multinomial(config.rounds, probs)

    def stats(payoffs: tuple[float, ...]) -> tuple[float, float]:
        values = np.array(payoffs, dtype=float)
        mean = float(counts @ values) / config.rounds
        if config.rounds == 1:
            return mean, 0.0
        # Deviations in units of a power of two (exact) cannot overflow squared.
        unit = 2.0 ** np.frexp(np.abs(values).max())[1]
        variance = float(counts @ ((values - mean) / unit) ** 2) / (config.rounds - 1)
        return mean, float(np.sqrt(variance / config.rounds) * unit)

    (mean_a, se_a), (mean_b, se_b) = map(stats, _bos_table(config.payoffs))
    return SimulationReport(
        outcome_probabilities=tuple(probs),
        counts=tuple(int(c) for c in counts),
        mean_payoff_a=mean_a,
        mean_payoff_b=mean_b,
        std_error_a=se_a,
        std_error_b=se_b,
    )
