"""Measurement-collapse simulator: repeated play with a fresh identical
state preparation each round, outcomes drawn from the final density's
diagonal, payoffs accrued from the classical bimatrix entries only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation
from .game_core import GamePayoffs, bos_bimatrix
from .outcomes import MixingChoice, _flipped
from .quantum_core import DensityMatrix

__all__ = ["SimulationConfig", "SimulationReport", "simulate"]


@dataclass(frozen=True)
class SimulationConfig:
    rounds: int
    seed: int
    mix: MixingChoice
    initial: DensityMatrix
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


# Index maps of a row flip (k -> k ^ 2) and a column flip (k -> k ^ 1).
_ROW_FLIP = np.array(_flipped(range(4), True, False))
_COL_FLIP = np.array(_flipped(range(4), False, True))


def outcome_distribution(config: SimulationConfig) -> np.ndarray:
    """Probabilities of the four collapse outcomes for this configuration.

    Keeping or flipping permutes the initial density's diagonal, so the
    final diagonal is its keep/flip mix, one player at a time.
    """
    d = config.initial.diagonal_probabilities()
    p, q = config.mix.p, config.mix.q
    row = p * d + (1.0 - p) * d[_ROW_FLIP]
    probs = np.clip(q * row + (1.0 - q) * row[_COL_FLIP], 0.0, None)
    return probs / probs.sum()


def simulate(config: SimulationConfig) -> SimulationReport:
    """Play the configured game ``rounds`` times and tally collapsed outcomes.

    The tallies are one multinomial draw over the four outcome
    probabilities: the same distribution as ``rounds`` independent
    collapses, at a time and memory cost that does not depend on
    ``rounds``. The generator is seeded PCG64, so an identical config
    reproduces the report bit for bit.
    """
    probs = outcome_distribution(config)
    counts = np.random.default_rng(config.seed).multinomial(config.rounds, probs)

    game = bos_bimatrix(config.payoffs)

    def stats(values: np.ndarray) -> tuple[float, float]:
        mean = float(counts @ values) / config.rounds
        if config.rounds == 1:
            return mean, 0.0
        # Deviations in units of a power of two (exact) cannot overflow squared.
        unit = 2.0 ** np.frexp(np.abs(values).max())[1]
        variance = float(counts @ ((values - mean) / unit) ** 2) / (config.rounds - 1)
        return mean, float(np.sqrt(variance / config.rounds) * unit)

    mean_a, se_a = stats(np.ravel(game.payoff_a))
    mean_b, se_b = stats(np.ravel(game.payoff_b))
    return SimulationReport(
        outcome_probabilities=tuple(probs.tolist()),
        counts=tuple(int(c) for c in counts),
        mean_payoff_a=mean_a,
        mean_payoff_b=mean_b,
        std_error_a=se_a,
        std_error_b=se_b,
    )
