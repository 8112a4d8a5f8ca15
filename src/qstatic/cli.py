"""qstatic command line: load a JSON game config, run an analysis, emit
table, json, or csv output.

Commands: classical (elimination, pure and mixed equilibria), quantum
(factorizable or entangled equilibria with ranking and the unique-solution
verdict), simulate (seeded measurement-collapse runs), sweep (tabulate
equilibria or payoffs along one parameter).

Exit codes: 0 success, 2 config or parameter validation failure, 1 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any, Sequence

from .equilibria import (
    EntangledFamilyState,
    EquilibriumKind,
    EquilibriumRanking,
    NashPoint,
    UniqueSolutionReport,
    enumerate_bilinear_nash,
    rank_equilibria,
    state_unique_solution,
)
from .errors import ConstraintViolation, InternalConsistencyError
from .game_core import (
    Bimatrix,
    EliminationStep,
    FrozenValue,
    GamePayoffs,
    MixProbabilities,
    bos_bimatrix,
    check_unit_interval,
    eliminate_strictly_dominated,
    pure_nash,
    slot_setters,
)
from .outcomes import BASIS_LABELS, StateVector, payoff_surfaces
from .report_schema import SCHEMA_VERSION

__all__ = ["ConfigError", "LoadedConfig", "load_config", "main"]

PRESET_STATES = ("OO", "OT", "TO", "TT", "bell")
AMPLITUDE_NORM_TOL = 1e-9
#: Outcome probabilities of |OO>, the family member that is the classical
#: game: its payoff surfaces have the payoff table's entries as corners.
CLASSICAL_PROBABILITIES = (1.0, 0.0, 0.0, 0.0)
#: How far squared normalized amplitudes miss an exact probability such as 1/2.
PROBABILITY_ROUNDOFF = 4 * sys.float_info.epsilon
#: Amplitudes of at most this modulus are zero: in the family test, the table and exact columns.
ZERO_AMPLITUDE = 1e-12
#: Largest ``sweep --steps``: a json a2 sweep this long took 1.8 s and 300 MB on a 2-core EPYC.
SWEEP_MAX_STEPS = 100_001


class ConfigError(Exception):
    """Configuration problem; message is anchored to file and field."""


class LoadedConfig(FrozenValue):
    """A checked config file: the game (``params`` for the levels form, else
    None), the strategy labels, the initial state and how it was given."""

    _fields = __slots__ = (
        "path", "params", "game", "labels_a", "labels_b", "state", "state_form", "preset_name"
    )

    def __init__(
        self,
        path: str,
        params: GamePayoffs | None,
        game: Bimatrix,
        labels_a: tuple[str, ...],
        labels_b: tuple[str, ...],
        state: StateVector,
        state_form: str,
        preset_name: str | None,
    ) -> None:
        _set_path(self, path)
        _set_params(self, params)
        _set_game(self, game)
        _set_labels_a(self, labels_a)
        _set_labels_b(self, labels_b)
        _set_state(self, state)
        _set_state_form(self, state_form)
        _set_preset_name(self, preset_name)


(
    _set_path, _set_params, _set_game, _set_labels_a, _set_labels_b, _set_state,
    _set_state_form, _set_preset_name,
) = slot_setters(LoadedConfig)


def _fail(path: str, where: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {where}: {message}")


def _as_number(path: str, where: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, where, f"expected a finite number, got {number!r}")
    return number


def _as_table(path: str, where: str, value: Any) -> list[list[float]]:
    rows_ok = isinstance(value, list) and all(isinstance(row, list) for row in value)
    if not rows_ok or len({len(row) for row in value}) > 1:
        raise _fail(path, where, "expected a list of equal-length rows of numbers")
    return [
        [_as_number(path, f"{where}[{i}][{j}]", x) for j, x in enumerate(row)]
        for i, row in enumerate(value)
    ]


def _load_payoffs(
    path: str, raw: Any
) -> tuple[GamePayoffs | None, Bimatrix]:
    if not isinstance(raw, dict):
        raise _fail(path, "payoffs", "must be an object")
    keys = set(raw)
    if keys == {"alpha", "beta", "gamma"}:
        params = GamePayoffs(
            _as_number(path, "payoffs.alpha", raw["alpha"]),
            _as_number(path, "payoffs.beta", raw["beta"]),
            _as_number(path, "payoffs.gamma", raw["gamma"]),
        )
        return params, bos_bimatrix(params)
    if keys == {"payoff_a", "payoff_b"}:
        return None, Bimatrix(
            _as_table(path, "payoffs.payoff_a", raw["payoff_a"]),
            _as_table(path, "payoffs.payoff_b", raw["payoff_b"]),
        )
    raise _fail(
        path,
        "payoffs",
        "needs exactly the keys {alpha, beta, gamma} or {payoff_a, payoff_b}, "
        f"got {sorted(keys)}",
    )


def _load_state(path: str, raw: Any) -> tuple[StateVector, str, str | None]:
    if isinstance(raw, str):
        if raw not in PRESET_STATES:
            raise _fail(
                path,
                "initial_state",
                f"unknown preset {raw!r}; choose one of {', '.join(PRESET_STATES)}",
            )
        state = StateVector.bell() if raw == "bell" else StateVector.basis(raw)
        return state, "preset", raw
    if isinstance(raw, dict):
        if set(raw) != {"a2"}:
            raise _fail(path, "initial_state", "object form needs exactly the key a2")
        a2 = _as_number(path, "initial_state.a2", raw["a2"])
        return EntangledFamilyState(a2).state_vector(), "family", None
    if isinstance(raw, list):
        if len(raw) != 4:
            raise _fail(path, "initial_state", "amplitude form needs 4 [re, im] pairs")
        amps = []
        for k, pair in enumerate(raw):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise _fail(
                    path, f"initial_state[{k}]", "each amplitude is a [re, im] pair"
                )
            re = _as_number(path, f"initial_state[{k}][0]", pair[0])
            im = _as_number(path, f"initial_state[{k}][1]", pair[1])
            amps.append(complex(re, im))
        # Squares overflow to inf, not an exception; an inf norm is reported below.
        norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in amps))
        if abs(norm - 1.0) > AMPLITUDE_NORM_TOL:
            raise _fail(
                path,
                "initial_state",
                f"amplitudes must be normalized within {AMPLITUDE_NORM_TOL:g}; "
                f"norm is {norm!r}",
            )
        scale = 1.0 / norm
        return StateVector([a * scale for a in amps]), "amplitudes", None
    raise _fail(
        path,
        "initial_state",
        "must be a preset name, an {a2: x} object, or 4 [re, im] pairs",
    )


def _load_labels(
    path: str, raw: Any, shape: tuple[int, int]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    def defaults(prefix: str, n: int) -> tuple[str, ...]:
        return ("O", "T") if n == 2 else tuple(f"{prefix}{i}" for i in range(n))

    if raw is None:
        return defaults("A", shape[0]), defaults("B", shape[1])
    if not isinstance(raw, dict) or set(raw) - {"a", "b"}:
        raise _fail(path, "labels", "must be an object with keys a and/or b")
    out = []
    for key, n, fallback in (("a", shape[0], "A"), ("b", shape[1], "B")):
        if key not in raw:
            out.append(defaults(fallback, n))
            continue
        names = raw[key]
        ok = (
            isinstance(names, list)
            and len(names) == n
            and all(isinstance(s, str) and s for s in names)
            and len(set(names)) == n
        )
        if not ok:
            raise _fail(
                path, f"labels.{key}", f"needs {n} distinct nonempty strings"
            )
        out.append(tuple(names))
    return out[0], out[1]


def load_config(path: str) -> LoadedConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        # json keeps the last of a repeated key; a config must not repeat one.
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise ConfigError(f"{path}: key {repeated!r} appears twice in one JSON object")
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - {"payoffs", "initial_state", "labels"}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    if "payoffs" not in doc:
        raise ConfigError(f"{path}: payoffs: required key is missing")
    try:
        params, game = _load_payoffs(path, doc["payoffs"])
    except ConstraintViolation as exc:
        raise _fail(path, "payoffs", str(exc)) from exc
    try:
        state, form, preset = _load_state(path, doc.get("initial_state", "OO"))
    except ConstraintViolation as exc:
        raise _fail(path, "initial_state", str(exc)) from exc
    labels_a, labels_b = _load_labels(path, doc.get("labels"), game.shape)
    return LoadedConfig(
        path=path,
        params=params,
        game=game,
        labels_a=labels_a,
        labels_b=labels_b,
        state=state,
        state_form=form,
        preset_name=preset,
    )


def _outcome_payoffs(cfg: LoadedConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The configured game's payoffs at (OO, OT, TO, TT); a game not 2x2 fails at payoffs."""
    try:
        return cfg.game.outcome_payoffs
    except ConstraintViolation as exc:
        raise _fail(cfg.path, "payoffs", str(exc)) from exc


def _unit_grid(steps: int) -> list[float]:
    """``steps`` evenly spaced points from 0 to 1, both ends included."""
    step = 1.0 / (steps - 1)
    return [k * step for k in range(steps - 1)] + [1.0]


# ---------------------------------------------------------------------------
# exact fractions: the enumerator re-run on Fraction surfaces


def _fraction(x: float, tol: float = 0.0) -> Fraction | None:
    """The nearest fraction with a denominator up to 10^6, if x is its float or within tol;
    from 2^53 up, where every float is an integer, the shortest decimal whose float is x."""
    near = Fraction(repr(x)) if abs(x) >= 2**53 else Fraction(x).limit_denominator(10**6)
    return near if float(near) == x or abs(near - x) <= tol else None


def _exact_equilibria(
    points: Sequence[NashPoint],
    probabilities: Sequence[float],
    payoffs_a: Sequence[float],
    payoffs_b: Sequence[float],
) -> Sequence[NashPoint] | None:
    """``points`` rerun on the Fraction surfaces of the input as ``_fraction``
    reads it, a probability as 0 only at a zero amplitude; None if a number does
    not read, the probabilities do not sum to 1, or other kinds come back."""
    exact = [_fraction(x, PROBABILITY_ROUNDOFF) or None if x > ZERO_AMPLITUDE**2 else Fraction(0)
             for x in probabilities]
    table = [[_fraction(x) for x in payoffs] for payoffs in (payoffs_a, payoffs_b)]
    if None in exact + table[0] + table[1] or sum(exact) != 1:
        return None
    found = enumerate_bilinear_nash(*payoff_surfaces(exact, *table))
    return found if [p.kind for p in found] == [p.kind for p in points] else None


# ---------------------------------------------------------------------------
# report payload


def _amp_pairs(state: StateVector) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def _game_json(cfg: LoadedConfig) -> dict:
    if cfg.params is not None:
        return {"alpha": cfg.params.alpha, "beta": cfg.params.beta, "gamma": cfg.params.gamma}
    return {
        "payoff_a": [list(row) for row in cfg.game.payoff_a],
        "payoff_b": [list(row) for row in cfg.game.payoff_b],
    }


def _state_json(cfg: LoadedConfig) -> dict:
    """The configured state; ``family_a2`` is null outside the |OO>/|TT>
    family, whose middle amplitudes are zero by ``ZERO_AMPLITUDE``."""
    d0, d1, d2, _ = cfg.state.probabilities
    return {
        "form": cfg.state_form,
        "name": cfg.preset_name,
        "amplitudes": _amp_pairs(cfg.state),
        "family_a2": d0 if max(d1, d2) <= ZERO_AMPLITUDE**2 else None,
    }


#: Report key of each equilibrium value, and the NashPoint field it reads.
EQ_FIELDS = {
    "p": "p_star", "q": "q_star", "payoff_a": "payoff_a", "payoff_b": "payoff_b"
}
EQ_CSV_HEADER = ["kind", *EQ_FIELDS, *(f"{key}_exact" for key in EQ_FIELDS)]


def _eq_rows(
    points: Sequence[NashPoint],
    exact: Sequence[NashPoint] | None = None,
    final_states: Sequence[StateVector] | None = None,
) -> list[dict]:
    """Equilibrium rows; ``exact`` holds the same points in Fractions."""
    rows = []
    for i, point in enumerate(points):
        row = {"kind": point.kind.value}
        row.update({key: getattr(point, field) for key, field in EQ_FIELDS.items()})
        for key, field in EQ_FIELDS.items():
            row[f"{key}_exact"] = str(Fraction(getattr(exact[i], field))) if exact else None
        if final_states:
            row["final_state"] = _amp_pairs(final_states[i])
        rows.append(row)
    return rows


def _ranking_json(
    ranking: EquilibriumRanking, original: Sequence[NashPoint]
) -> dict:
    order = [list(original).index(point) for point in ranking.ordered]
    gaps = [
        {"better": g.better, "worse": g.worse, "delta_a": g.delta_a, "delta_b": g.delta_b}
        for g in ranking.gaps
    ]
    return {"order": order, "gaps": gaps}


def _corner_json(point: NashPoint | None) -> dict | None:
    if point is None:
        return None
    return {"p": point.p_star, "q": point.q_star}


def _unique_json(report: UniqueSolutionReport | None) -> dict | None:
    if report is None:
        return None
    out = {
        "merged": report.merged,
        "payoff_difference_a": report.payoff_difference_a,
        "payoff_difference_b": report.payoff_difference_b,
    }
    if report.merged:
        out["payoff_a"], out["payoff_b"] = report.solution_payoffs
        out["final_state"] = _amp_pairs(report.final_state)
    else:
        out["preferred_by_a"] = _corner_json(report.preferred_by_a)
        out["preferred_by_b"] = _corner_json(report.preferred_by_b)
    return out


# ---------------------------------------------------------------------------
# commands: each returns the report payload


def cmd_classical(cfg: LoadedConfig, args: argparse.Namespace) -> dict:
    notices: list[str] = []
    elimination = eliminate_strictly_dominated(cfg.game)
    exact = None
    if cfg.game.is_2x2:
        outcomes = (CLASSICAL_PROBABILITIES, *cfg.game.outcome_payoffs)
        points: Sequence[NashPoint] = enumerate_bilinear_nash(*payoff_surfaces(*outcomes))
        exact = _exact_equilibria(points, *outcomes)
    else:
        points = ()
        notices.append(
            "mixed-strategy enumeration covers 2x2 games only; "
            "reporting elimination and pure equilibria"
        )

    def step_json(step: EliminationStep) -> dict:
        labels = cfg.labels_a if step.player == 0 else cfg.labels_b
        return {
            "player": "A" if step.player == 0 else "B",
            "removed": step.removed,
            "removed_label": labels[step.removed],
            "dominated_by": step.dominated_by,
            "dominated_by_label": labels[step.dominated_by],
        }

    return {
        "schema": SCHEMA_VERSION,
        "command": "classical",
        "game": _game_json(cfg),
        "labels": {"a": list(cfg.labels_a), "b": list(cfg.labels_b)},
        "elimination": {
            "survivors_a": list(elimination.survivors_a),
            "survivors_b": list(elimination.survivors_b),
            "steps": [step_json(step) for step in elimination.steps],
        },
        "pure_equilibria": [
            {
                "row": i,
                "col": j,
                "label_a": cfg.labels_a[i],
                "label_b": cfg.labels_b[j],
                "payoff_a": cfg.game.payoff_a[i][j],
                "payoff_b": cfg.game.payoff_b[i][j],
            }
            for i, j in pure_nash(cfg.game)
        ],
        "mixed_equilibria": _eq_rows(points, exact),
        "notices": notices,
    }


def _tactic_state(p: float, q: float) -> StateVector:
    """The joint state two independent tactics make of |OO>, when p and q are
    the squared moduli of their first coefficients: the product of
    (sqrt(p), -sqrt(1-p)) and (sqrt(q), -sqrt(1-q))."""
    row = (math.sqrt(p), -math.sqrt(1 - p))
    col = (math.sqrt(q), -math.sqrt(1 - q))
    # Adding 0.0 clears the sign of a zero product, so no -0.0 is reported.
    return StateVector([r * c + 0.0 for r in row for c in col])


def cmd_quantum(cfg: LoadedConfig, args: argparse.Namespace) -> dict:
    notices: list[str] = []
    unique: UniqueSolutionReport | None = None
    final_states = None
    initial_state = _state_json(cfg)
    # Independent tactics played from |OO> are the classical game.
    factorizable = args.mode == "factorizable"
    probabilities = CLASSICAL_PROBABILITIES if factorizable else cfg.state.probabilities
    outcomes = (probabilities, *_outcome_payoffs(cfg))
    surfaces = payoff_surfaces(*outcomes)
    points = enumerate_bilinear_nash(*surfaces)
    exact = _exact_equilibria(points, *outcomes)

    if factorizable:
        final_states = [_tactic_state(point.p_star, point.q_star) for point in points]
        notices.append(
            "independent-tactic equilibria do not depend on the configured "
            "initial state; coordinates are squared tactic moduli"
        )
    elif initial_state["family_a2"] is None:
        notices.append(
            "initial state is outside the |OO>/|TT> superposition family; "
            "equilibria computed by generic bilinear enumeration"
        )
    elif {(1, 1), (0, 0)} <= {(n.p_star, n.q_star) for n in points if n.kind.value == "corner"}:
        unique = state_unique_solution(surfaces, cfg.state)
    else:
        notices.append("no unique-solution verdict: (1,1) and (0,0) are not both equilibria")

    return {
        "schema": SCHEMA_VERSION,
        "command": "quantum",
        "mode": args.mode,
        "game": _game_json(cfg),
        "initial_state": initial_state,
        "equilibria": _eq_rows(points, exact, final_states),
        "ranking": _ranking_json(rank_equilibria(points), points),
        "unique_solution": _unique_json(unique),
        "notices": notices,
    }


def cmd_simulate(cfg: LoadedConfig, args: argparse.Namespace) -> dict:
    # Imported here so that no other command loads the simulator.
    from .montecarlo import SimulationConfig, simulate

    payoffs = _outcome_payoffs(cfg)
    try:
        mix = MixProbabilities(args.p, args.q)
        config = SimulationConfig(args.rounds, args.seed, mix, cfg.state, cfg.game)
    except ConstraintViolation as exc:
        raise ConfigError(f"simulate: {exc}") from exc
    report = simulate(config)
    bp_a, bp_b = payoff_surfaces(cfg.state.probabilities, *payoffs)
    analytic = (bp_a.value(args.p, args.q), bp_b.value(args.p, args.q))

    return {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "game": _game_json(cfg),
        "initial_state": _state_json(cfg),
        "mix": {"p": args.p, "q": args.q},
        "rounds": args.rounds,
        "seed": args.seed,
        "outcome_probabilities": list(report.outcome_probabilities),
        "counts": dict(zip(BASIS_LABELS, report.counts)),
        "empirical": {
            "mean_payoff_a": report.mean_payoff_a,
            "mean_payoff_b": report.mean_payoff_b,
            "std_error_a": report.std_error_a,
            "std_error_b": report.std_error_b,
        },
        "analytic": {"payoff_a": analytic[0], "payoff_b": analytic[1]},
        "notices": [],
    }


def cmd_sweep(cfg: LoadedConfig, args: argparse.Namespace) -> dict:
    if args.param == "a2" and cfg.params is None:
        raise _fail(cfg.path, "payoffs", "sweep --param a2 needs the {alpha, beta, gamma} form")
    table = _outcome_payoffs(cfg)
    if not 2 <= args.steps <= SWEEP_MAX_STEPS:
        raise ConfigError(f"sweep: steps must be from 2 to {SWEEP_MAX_STEPS}, got {args.steps}")
    if args.param != "a2":
        # The fixed coordinate is checked once, before any row is built.
        name = "q" if args.param == "p" else "p"
        fixed = {name: getattr(args, name)}
        try:
            check_unit_interval(name, fixed[name])
        except ConstraintViolation as exc:
            raise ConfigError(f"sweep: {exc}") from exc
    values = _unit_grid(args.steps)
    rows: list[dict] = []
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "sweep",
        "game": _game_json(cfg),
        "parameter": args.param,
        "steps": args.steps,
        "rows": rows,
        "notices": [],
    }

    if args.param == "a2":
        corner, inside = EquilibriumKind.CORNER, EquilibriumKind.INTERIOR
        for value in values:
            points = enumerate_bilinear_nash(*payoff_surfaces((value, 0.0, 0.0, 1 - value), *table))
            # The family's points in the enumerator's order: corner (1, 1),
            # corner (0, 0), one interior point.
            if not (
                len(points) == 3
                and points[0].kind is corner and points[0].p_star == 1 and points[0].q_star == 1
                and points[1].kind is corner and points[1].p_star == 0 and points[1].q_star == 0
                and points[2].kind is inside
            ):
                found = [(n.kind.value, n.p_star, n.q_star) for n in points]
                raise InternalConsistencyError(f"a2 = {value}: not the family's points: {found}")
            keep, flip, interior = points
            rows.append(
                {
                    "a2": value,
                    "corner_11_payoff_a": keep.payoff_a,
                    "corner_11_payoff_b": keep.payoff_b,
                    "corner_00_payoff_a": flip.payoff_a,
                    "corner_00_payoff_b": flip.payoff_b,
                    "interior_p": interior.p_star,
                    "interior_q": interior.q_star,
                    "interior_payoff": interior.payoff_a,
                }
            )
        payload["notices"].append(
            "a2 sweep analyses the |OO>/|TT> superposition family directly; "
            "the configured initial state is not used"
        )
    else:
        bp_a, bp_b = payoff_surfaces(cfg.state.probabilities, *table)
        payload["fixed"] = fixed
        for value in values:
            p, q = (value, args.q) if args.param == "p" else (args.p, value)
            rows.append(dict(p=p, q=q, payoff_a=bp_a.value(p, q), payoff_b=bp_b.value(p, q)))
    return payload


# ---------------------------------------------------------------------------
# views of the payload: the report's rectangular table and its table text


def _rectangle(payload: dict) -> tuple[list[str], list[list]]:
    """The report's one rectangular table: its equilibria, its sweep rows,
    or the simulation flattened to a single row."""
    command = payload["command"]
    if command == "simulate":
        rows = [
            {
                "rounds": payload["rounds"],
                "seed": payload["seed"],
                **payload["mix"],
                **{f"count_{k.lower()}": n for k, n in payload["counts"].items()},
                **payload["empirical"],
                **{f"analytic_{k}": v for k, v in payload["analytic"].items()},
            }
        ]
        header = list(rows[0])
    elif command == "sweep":
        rows = payload["rows"]
        header = list(rows[0])
    else:
        rows = payload["mixed_equilibria" if command == "classical" else "equilibria"]
        header = EQ_CSV_HEADER
    return header, [[row[key] for key in header] for row in rows]


def _fnum(x: float) -> str:
    return f"{x:.6g}"


def _cell(value: Any, spec: str = ".6g") -> str:
    if value is None:
        return ""
    return format(value, spec) if isinstance(value, float) else str(value)


def _table_block(header: list[str], rows: list[list]) -> list[str]:
    cells = [header] + [[_cell(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    return ["  ".join(r[i].ljust(widths[i]) for i in range(len(header))).rstrip()
            for r in cells]


def _eq_table_lines(rows: list[dict]) -> list[str]:
    """Equilibrium rows, each value followed by its exact fraction if any."""
    header = ["kind", "p", "q", "payoff A", "payoff B"]
    def value(row: dict, key: str) -> str:
        exact = row[f"{key}_exact"]
        return f"{_fnum(row[key])} ({exact})" if exact else _fnum(row[key])

    body = [[row["kind"]] + [value(row, key) for key in EQ_FIELDS] for row in rows]
    return ["  " + line for line in _table_block(header, body)]


def _state_table_line(pairs: list[list[float]]) -> str:
    terms = []
    for (re, im), label in zip(pairs, BASIS_LABELS):
        if re * re + im * im > ZERO_AMPLITUDE**2:
            # The real part stands alone only where the imaginary part would not
            # show at six significant digits: 5e-7 |re| is at most half a unit
            # in the real part's sixth digit.
            alone = abs(im) <= ZERO_AMPLITUDE and abs(im) <= 5e-7 * abs(re)
            coeff = _fnum(re) if alone else f"({_fnum(re)}{im:+.6g}i)"
            terms.append(f"{coeff}|{label}>")
    return " + ".join(terms) if terms else "0"


def _point_text(row: dict) -> str:
    return f"({_fnum(row['p'])}, {_fnum(row['q'])})"


def _game_table_lines(payload: dict) -> list[str]:
    game = payload["game"]
    if "alpha" in game:
        return [
            f"game: alpha={_fnum(game['alpha'])} beta={_fnum(game['beta'])} "
            f"gamma={_fnum(game['gamma'])}"
        ]
    lines = ["game: explicit bimatrix"]
    labels = payload["labels"]["a"] if "labels" in payload else ("O", "T")
    for label, row_a, row_b in zip(labels, game["payoff_a"], game["payoff_b"]):
        cells = "  ".join(f"({_fnum(a)},{_fnum(b)})" for a, b in zip(row_a, row_b))
        lines.append(f"  {label}: {cells}")
    return lines


def _classical_table(payload: dict) -> list[str]:
    labels = payload["labels"]
    elimination = payload["elimination"]
    lines = _game_table_lines(payload)
    lines += ["", "iterated elimination of strictly dominated strategies:"]
    lines += [
        f"  player {step['player']}: {step['removed_label']} removed "
        f"(strictly dominated by {step['dominated_by_label']})"
        for step in elimination["steps"]
    ] or ["  nothing eliminated"]
    lines.append(
        "  survivors: A: "
        + ", ".join(labels["a"][i] for i in elimination["survivors_a"])
        + " | B: "
        + ", ".join(labels["b"][j] for j in elimination["survivors_b"])
    )
    lines += ["", "pure Nash equilibria:"]
    lines += [
        f"  ({eq['label_a']}, {eq['label_b']})  payoffs "
        f"A={_fnum(eq['payoff_a'])} B={_fnum(eq['payoff_b'])}"
        for eq in payload["pure_equilibria"]
    ] or ["  none"]
    lines += ["", "mixed Nash equilibria:"]
    mixed = payload["mixed_equilibria"]
    lines += _eq_table_lines(mixed) if mixed else ["  not computed"]
    return lines


def _unique_table_lines(unique: dict | None, family_a2: float | None) -> list[str]:
    if unique is None:
        where = "outside the superposition family" if family_a2 is None else "to this game"
        return [f"unique solution: not applicable {where}"]
    if unique["merged"]:
        return [
            "unique solution: corner equilibria (1,1) and (0,0) merge; "
            f"payoffs A={_fnum(unique['payoff_a'])} B={_fnum(unique['payoff_b'])}",
            f"  shared final state: {_state_table_line(unique['final_state'])}",
        ]

    def preference(player: str) -> str:
        corner = unique[f"preferred_by_{player.lower()}"]
        if corner is None:
            return f"{player} is indifferent"
        return f"{player} prefers {_point_text(corner)}"

    return [
        f"no unique solution: {preference('A')}, {preference('B')}; "
        f"corner payoff differences A={_fnum(unique['payoff_difference_a'])} "
        f"B={_fnum(unique['payoff_difference_b'])}"
    ]


def _quantum_table(payload: dict) -> list[str]:
    mode = payload["mode"]
    rows = payload["equilibria"]
    lines = _game_table_lines(payload)
    lines.append(f"mode: {mode}")
    if mode != "factorizable":
        amplitudes = payload["initial_state"]["amplitudes"]
        lines.append(f"initial state: {_state_table_line(amplitudes)}")
    lines += ["", "equilibria:"]
    lines += _eq_table_lines(rows)
    if mode == "factorizable":
        lines += ["", "final states:"]
        lines += [
            f"  {_point_text(row)}: {_state_table_line(row['final_state'])}"
            for row in rows
        ]
    lines += ["", "ranking (best first):"]
    for rank, index in enumerate(payload["ranking"]["order"], start=1):
        row = rows[index]
        lines.append(
            f"  {rank}. {_point_text(row)}"
            f"  payoffs A={_fnum(row['payoff_a'])} B={_fnum(row['payoff_b'])}"
            f"  [{row['kind']}]"
        )
    if mode == "entangled":
        family_a2 = payload["initial_state"]["family_a2"]
        lines += ["", *_unique_table_lines(payload["unique_solution"], family_a2)]
    return lines


def _simulate_table(payload: dict) -> list[str]:
    mix = payload["mix"]
    empirical = payload["empirical"]
    analytic = payload["analytic"]
    lines = _game_table_lines(payload)
    lines.append(
        f"initial state: {_state_table_line(payload['initial_state']['amplitudes'])}"
    )
    lines.append(
        f"rounds={payload['rounds']} seed={payload['seed']} "
        f"p={_fnum(mix['p'])} q={_fnum(mix['q'])}"
    )
    lines.append("")
    lines.append(
        "outcome counts: "
        + "  ".join(f"{label}={c}" for label, c in payload["counts"].items())
    )
    lines.append(
        f"empirical payoffs: A={_fnum(empirical['mean_payoff_a'])} "
        f"+/- {_fnum(empirical['std_error_a'])}  "
        f"B={_fnum(empirical['mean_payoff_b'])} "
        f"+/- {_fnum(empirical['std_error_b'])}"
    )
    lines.append(
        f"analytic payoffs:  A={_fnum(analytic['payoff_a'])}  "
        f"B={_fnum(analytic['payoff_b'])}"
    )
    return lines


def _sweep_table(payload: dict) -> list[str]:
    lines = _game_table_lines(payload)
    lines.append(f"sweep over {payload['parameter']}, {payload['steps']} steps")
    lines += [f"fixed {k}={_fnum(v)}" for k, v in payload.get("fixed", {}).items()]
    lines.append("")
    lines += _table_block(*_rectangle(payload))
    return lines


_TABLES = {
    "classical": _classical_table,
    "quantum": _quantum_table,
    "simulate": _simulate_table,
    "sweep": _sweep_table,
}


# ---------------------------------------------------------------------------
# rendering and entry point


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(value) for value in obj]
    return obj


def render(payload: dict, fmt: str) -> str:
    """The report in one format; table and csv are views of the json payload."""
    if fmt == "json":
        return json.dumps(_round_floats(payload), indent=2) + "\n"
    if fmt == "csv":
        import csv

        header, rows = _rectangle(payload)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value, ".12g") for value in row] for row in rows)
        return buffer.getvalue()
    lines = _TABLES[payload["command"]](payload)
    lines += [f"note: {notice}" for notice in payload["notices"]]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstatic",
        description="Classical and quantum-extended analysis of two-player static games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON game config")
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )

    common(sub.add_parser("classical", help="elimination, pure and mixed equilibria"))

    quantum = sub.add_parser("quantum", help="quantum strategy-space equilibria")
    common(quantum)
    quantum.add_argument(
        "--mode",
        choices=("factorizable", "entangled"),
        default="entangled",
        help="independent local tactics or the entangled family (default: entangled)",
    )

    sim = sub.add_parser("simulate", help="seeded measurement-collapse simulation")
    common(sim)
    sim.add_argument(
        "--rounds",
        type=int,
        default=10000,
        help="number of rounds, 1 to 2**63 - 1; the outcome counts are one multinomial draw",
    )
    sim.add_argument("--seed", type=int, default=0, help="generator seed")
    sim.add_argument("--p", type=float, default=0.5, help="row player keep probability")
    sim.add_argument("--q", type=float, default=0.5, help="column player keep probability")

    sweep = sub.add_parser("sweep", help="tabulate along one parameter")
    common(sweep)
    sweep.add_argument(
        "--param", choices=("a2", "p", "q"), default="a2", help="parameter to sweep"
    )
    sweep.add_argument(
        "--steps", type=int, default=11, help=f"number of grid points, 2 to {SWEEP_MAX_STEPS}"
    )
    sweep.add_argument(
        "--p", type=float, default=0.5, help="fixed p for a q sweep (default 0.5)"
    )
    sweep.add_argument(
        "--q", type=float, default=0.5, help="fixed q for a p sweep (default 0.5)"
    )
    return parser


_COMMANDS = {
    "classical": cmd_classical,
    "quantum": cmd_quantum,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        payload = _COMMANDS[args.command](cfg, args)
    except (ConfigError, ConstraintViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render(payload, args.format))
    return 0
