"""Measurement-collapse simulator: repeated play with a fresh identical
state preparation each round, outcomes drawn from the final density's
diagonal, payoffs accrued from the classical bimatrix entries only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation
from .game_core import GamePayoffs, bos_bimatrix
from .quantum_core import DensityMatrix, MixingChoice, mixed_final_density

__all__ = ["SimulationConfig", "SimulationReport", "simulate"]


@dataclass(frozen=True)
class SimulationConfig:
    rounds: int
    seed: int
    mix: MixingChoice
    initial: DensityMatrix
    payoffs: GamePayoffs

    def __post_init__(self) -> None:
        if not isinstance(self.rounds, int) or self.rounds < 1:
            raise ConstraintViolation(f"rounds must be a positive integer, got {self.rounds}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConstraintViolation(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class SimulationReport:
    """Outcome tallies per basis state plus empirical payoff statistics.

    Standard errors are the sample standard deviation over rounds divided
    by sqrt(rounds); zero when every round lands on one outcome.
    """

    counts: tuple[int, int, int, int]
    mean_payoff_a: float
    mean_payoff_b: float
    std_error_a: float
    std_error_b: float


def outcome_distribution(config: SimulationConfig) -> np.ndarray:
    """Probabilities of the four collapse outcomes for this configuration."""
    rho_fin = mixed_final_density(config.initial, config.mix)
    probs = np.clip(rho_fin.diagonal_probabilities(), 0.0, None)
    return probs / probs.sum()


def simulate(config: SimulationConfig) -> SimulationReport:
    """Play the configured game ``rounds`` times and tally collapsed outcomes.

    The generator is seeded PCG64, so an identical config reproduces the
    report bit for bit.
    """
    probs = outcome_distribution(config)
    rng = np.random.default_rng(config.seed)
    outcomes = rng.choice(4, size=config.rounds, p=probs)
    counts = np.bincount(outcomes, minlength=4)

    game = bos_bimatrix(config.payoffs)

    def stats(values: np.ndarray) -> tuple[float, float]:
        mean = float(counts @ values) / config.rounds
        if config.rounds == 1:
            return mean, 0.0
        # Deviations in units of a power of two (exact) cannot overflow squared.
        unit = 2.0 ** np.frexp(np.abs(values).max())[1]
        variance = float(counts @ ((values - mean) / unit) ** 2) / (config.rounds - 1)
        return mean, float(np.sqrt(variance / config.rounds) * unit)

    mean_a, se_a = stats(game.payoff_a.ravel())
    mean_b, se_b = stats(game.payoff_b.ravel())
    return SimulationReport(
        counts=tuple(int(c) for c in counts),
        mean_payoff_a=mean_a,
        mean_payoff_b=mean_b,
        std_error_a=se_a,
        std_error_b=se_b,
    )
