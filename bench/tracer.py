"""Run-time spans around the public callables of every qstatic layer.

The tracer replaces each listed function, in every qstatic module that binds
it, with a wrapper that records a span, and wraps each listed class's
``__post_init__`` (its validation). Nothing under ``src/`` changes; callers
that look the name up through a module at call time see the wrapper.

A span's self time is its duration minus the durations of its direct child
spans. Spans of the passes marked for recording are kept in memory as
``(span_id, parent_id, name, start, end, op)`` and written by the caller
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

#: Layers (qstatic modules) and the callables the traced run reports.
TRACED: dict[str, tuple[str, ...]] = {
    "quantum_core": (
        "StateVector",
        "DensityMatrix",
        "LocalUnitary",
        "MixingChoice",
        "apply_local_unitaries",
        "mixed_final_density",
        "trace_payoffs",
        "bilinear_payoff_coefficients",
        "payoff_operators",
    ),
    "game_core": (
        "GamePayoffs",
        "BilinearPayoff",
        "expected_payoffs",
        "eliminate_strictly_dominated",
        "pure_nash",
    ),
    "equilibria": (
        "classical_mixed_equilibria",
        "factorizable_equilibria",
        "entangled_equilibria",
        "enumerate_bilinear_nash",
        "rank_equilibria",
        "unique_solution",
    ),
    "montecarlo": ("simulate", "outcome_distribution"),
    "cli": ("load_config", "cmd_classical", "cmd_quantum", "cmd_simulate", "cmd_sweep", "render"),
}

#: Every ``<layer>.<callable>`` label, in report order.
LABELS: tuple[str, ...] = tuple(
    f"{layer}.{name}" for layer, names in TRACED.items() for name in names
)

NO_PARENT = -1  # parent id of a span opened outside every other span


class Tracer:
    """Counts, self time and optional span records for the traced callables."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LABELS, 0)
        self.self_s = dict.fromkeys(LABELS, 0.0)
        self.rounds = 0  # Monte Carlo rounds requested through montecarlo.simulate
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.record = False
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span_id, child seconds] per open span
        self._plan: list[tuple[Any, Any, Any, Any]] | None = None  # (target, key, original, wrapper)

    def reset(self) -> None:
        """Zero the counters; recorded spans are kept."""
        self.calls = dict.fromkeys(LABELS, 0)
        self.self_s = dict.fromkeys(LABELS, 0.0)
        self.rounds = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._make_plan()
        for target, key, _, wrapper in self._plan:
            _set(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in reversed(self._plan or []):
            _set(target, key, original)

    def _make_plan(self) -> list[tuple[Any, Any, Any, Any]]:
        """Every binding to replace: each listed function wherever a qstatic
        module binds it (dispatch tables such as cli._COMMANDS included) and
        each listed class's ``__post_init__``."""
        modules = [importlib.import_module("qstatic")] + [
            importlib.import_module(f"qstatic.{layer}") for layer in TRACED
        ]
        plan = []
        for layer, names in TRACED.items():
            home = importlib.import_module(f"qstatic.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                label = f"{layer}.{name}"
                if isinstance(original, type):
                    post = original.__dict__.get("__post_init__")
                    if post is not None:
                        plan.append((original, "__post_init__", post, self._wrap(label, post)))
                    continue
                wrapper = self._wrap(label, original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            plan.append((module, attr, original, wrapper))
                        elif isinstance(value, dict) and attr != "__builtins__":
                            plan.extend(
                                (value, key, original, wrapper)
                                for key, item in value.items()
                                if item is original
                            )
        return plan

    # -- spans --------------------------------------------------------------

    def _wrap(self, label: str, fn: Callable) -> Callable:
        tracer = self
        counts_rounds = label == "montecarlo.simulate"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else NO_PARENT
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[label] += duration - frame[1]
                tracer.calls[label] += 1
                if counts_rounds:
                    tracer.rounds += args[0].rounds
                if tracer.record:
                    tracer.spans.append((span_id, parent, label, start, end, tracer.op))

        return traced


def _set(target: Any, key: Any, value: Any) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)
