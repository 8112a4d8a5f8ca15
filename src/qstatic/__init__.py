"""Two-player static games, classical and quantum-extended.

Classical bimatrix analysis (dominance elimination, pure and mixed Nash
equilibria), a 4-dimensional joint strategy space with local tactics and a
keep/flip mixing map, closed-form and enumerated equilibria for entangled
initial states, and a seeded measurement-collapse simulator. The ``qstatic``
command line fronts all of it.
"""

from importlib import import_module
from typing import Any

from .equilibria import (
    EntangledFamilyState,
    EquilibriumKind,
    EquilibriumRanking,
    FactorizableEquilibrium,
    NashPoint,
    PairwiseGap,
    UniqueSolutionReport,
    classical_mixed_equilibria,
    entangled_equilibria,
    enumerate_bilinear_nash,
    factorizable_equilibria,
    rank_equilibria,
    unique_solution,
)
from .errors import ConstraintViolation, InternalConsistencyError
from .game_core import (
    BilinearPayoff,
    Bimatrix,
    EliminationResult,
    EliminationStep,
    GamePayoffs,
    MixProbabilities,
    bos_bimatrix,
    eliminate_strictly_dominated,
    expected_payoffs,
    pure_nash,
)
from .outcomes import BASIS_LABELS, MixingChoice, StateVector, payoff_surfaces

#: Modules that load numpy and the names taken from them, imported on first
#: access so that ``import qstatic`` loads no numpy.
_LAZY = {
    "montecarlo": ("SimulationConfig", "SimulationReport", "simulate"),
    "quantum_core": (
        "DensityMatrix",
        "LocalUnitary",
        "PayoffOperator",
        "apply_local_unitaries",
        "bilinear_payoff_coefficients",
        "mixed_final_density",
        "payoff_operators",
        "projection_probabilities",
        "trace_payoffs",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _LAZY.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BASIS_LABELS",
    "BilinearPayoff",
    "Bimatrix",
    "ConstraintViolation",
    "DensityMatrix",
    "EliminationResult",
    "EliminationStep",
    "EntangledFamilyState",
    "EquilibriumKind",
    "EquilibriumRanking",
    "FactorizableEquilibrium",
    "GamePayoffs",
    "InternalConsistencyError",
    "LocalUnitary",
    "MixProbabilities",
    "MixingChoice",
    "NashPoint",
    "PairwiseGap",
    "PayoffOperator",
    "SimulationConfig",
    "SimulationReport",
    "StateVector",
    "UniqueSolutionReport",
    "apply_local_unitaries",
    "bilinear_payoff_coefficients",
    "bos_bimatrix",
    "classical_mixed_equilibria",
    "eliminate_strictly_dominated",
    "entangled_equilibria",
    "enumerate_bilinear_nash",
    "expected_payoffs",
    "factorizable_equilibria",
    "mixed_final_density",
    "payoff_operators",
    "payoff_surfaces",
    "projection_probabilities",
    "pure_nash",
    "rank_equilibria",
    "simulate",
    "trace_payoffs",
    "unique_solution",
]
