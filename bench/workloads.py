"""The three seeded workloads: their inputs, one operation, and its checker.

Every workload draws all of its inputs from the seed it is given when it is
built, and hands qstatic only those inputs. Operation ``i`` of a workload is
deterministic in (seed, i). ``run(i)`` performs it and returns the raw
outputs; ``check(i, out)`` returns ``None`` when the outputs are correct and a
one-line reason otherwise. Operations are grouped in passes of ``pass_size``
operations; every run measures whole passes.

qstatic callables are always reached through their module (``qc.StateVector``)
so that the traced run, which rebinds module attributes, sees each call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any

import numpy as np

import oracle
import qstatic.cli as cli
import qstatic.equilibria as eq
import qstatic.game_core as gc
import qstatic.quantum_core as qc
from child import child_env, run_child
from qstatic.report_schema import REPORT_SCHEMA

ROOT = Path(__file__).resolve().parent.parent
CORNERS = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))


def draw_payoffs(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """n games with alpha > beta > gamma, each level uniform on [0.1, 10]
    (the draw of acceptance criterion 5)."""
    levels = -np.sort(-rng.uniform(0.1, 10.0, size=(n, 3)), axis=1)
    return [tuple(row) for row in levels.tolist()]


def random_amplitudes(rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return amps / np.linalg.norm(amps)


def random_ginibre(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


# ---------------------------------------------------------------------------
# grid_routes


class GridRoutes:
    """One op: one (p, q) point of the criterion-2 grid, three payoff routes.

    Ops walk the 101 x 101 grid row by row, one game per grid; successive
    grids take successive games from a seeded pool. A pass is one row.
    """

    name = "grid_routes"
    side = 101
    grid = side * side
    pass_size = side
    pool = 32
    warm_ops = 500
    tolerance = 1e-12  # criterion 2's pairwise agreement

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.games = draw_payoffs(rng, self.pool)
        axis = np.linspace(0.0, 1.0, self.side).tolist()
        self.points = [(p, q) for p in axis for q in axis]
        # Tactic moduli (sqrt(x), sqrt(1-x)) take the grid point to its state.
        self.moduli = {x: (math.sqrt(x), math.sqrt(1.0 - x)) for x in axis}
        self.psi = qc.StateVector.basis("OO")
        self.rho = self.psi.density_matrix()
        self.prepared = []
        for game in self.games:
            params = gc.GamePayoffs(*game)
            self.prepared.append(
                (gc.bos_bimatrix(params), *qc.payoff_operators(params))
            )
        self.oracles = [oracle.surfaces(*game, (1.0, 0.0, 0.0, 0.0)) for game in self.games]

    def inputs(self) -> dict:
        return {
            "grid_points": self.grid,
            "ops_per_pass": self.pass_size,
            "games_in_pool": self.pool,
            "initial_state": "OO",
        }

    def warm_up(self) -> None:
        for i in range(self.warm_ops):
            self.run(i)

    def run(self, i: int) -> Any:
        bimatrix, pa, pb = self.prepared[(i // self.grid) % self.pool]
        p, q = self.points[i % self.grid]
        classical = gc.expected_payoffs(bimatrix, gc.MixProbabilities(p, q))
        ua = qc.LocalUnitary(*self.moduli[p])
        ub = qc.LocalUnitary(*self.moduli[q])
        probs = qc.projection_probabilities(qc.apply_local_unitaries(ua, ub, self.psi))
        vector = (float(probs @ pa.diagonal), float(probs @ pb.diagonal))
        density = qc.trace_payoffs(
            pa, pb, qc.mixed_final_density(self.rho, qc.MixingChoice(p, q))
        )
        return classical, vector, density

    def check(self, i: int, out: Any) -> str | None:
        sa, sb = self.oracles[(i // self.grid) % self.pool]
        p, q = self.points[i % self.grid]
        expected = (sa.value(p, q), sb.value(p, q))
        for player in (0, 1):
            values = [route[player] for route in out] + [expected[player]]
            gap = max(values) - min(values)
            if not gap <= self.tolerance:
                return f"player {'AB'[player]}: routes disagree by {gap:.3e}"
        return None

    def describe(self, i: int) -> dict:
        p, q = self.points[i % self.grid]
        return {"game": self.games[(i // self.grid) % self.pool], "p": p, "q": q}


# ---------------------------------------------------------------------------
# equilibrium_draws

FAMILY, PURE, GINIBRE = "family", "pure", "ginibre"
#: Fixed share of initial states: a third each of |OO>/|TT> family states,
#: random pure states and Ginibre densities. Family ops cost about twice as
#: much, so the median falls among the enumerator-only ops and the p90 tail
#: among the family ops; an even family split would put the median in the
#: gap between the two latency clusters.
KIND_CYCLE = (FAMILY, PURE, GINIBRE)


class EquilibriumDraws:
    """One op: one random game and initial state, solved as in criterion 5.

    Family states run the closed forms, the enumerator, ranking and the
    unique-solution verdict; states outside the family run the enumerator
    path only.
    """

    name = "equilibrium_draws"
    pass_size = 99
    pool = 3999
    warm_ops = 100
    match_tolerance = 1e-9  # criterion 5's closed form against enumerator

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        games = draw_payoffs(rng, self.pool)
        self.draws = []
        for k in range(self.pool):
            kind = KIND_CYCLE[k % len(KIND_CYCLE)]
            if kind == FAMILY:
                state = float(rng.uniform())
                diagonal = (state, 0.0, 0.0, 1.0 - state)
            elif kind == PURE:
                state = random_amplitudes(rng)
                diagonal = tuple((np.abs(state) ** 2).tolist())
            else:
                state = random_ginibre(rng)
                diagonal = tuple(np.real(np.diagonal(state)).tolist())
            self.draws.append((kind, games[k], state, diagonal))

    def inputs(self) -> dict:
        return {
            "draws_in_pool": self.pool,
            "ops_per_pass": self.pass_size,
            "state_share": {
                kind: KIND_CYCLE.count(kind) / len(KIND_CYCLE) for kind in (FAMILY, PURE, GINIBRE)
            },
        }

    def warm_up(self) -> None:
        for i in range(self.warm_ops):
            self.run(i)

    def run(self, i: int) -> Any:
        kind, game, state, _ = self.draws[i % self.pool]
        params = gc.GamePayoffs(*game)
        family = closed = verdict = None
        if kind == FAMILY:
            family = eq.EntangledFamilyState(state)
            closed = eq.entangled_equilibria(params, family)
            rho = family.density_matrix()
        elif kind == PURE:
            rho = qc.StateVector(state).density_matrix()
        else:
            rho = qc.DensityMatrix(state)
        pa, pb = qc.payoff_operators(params)
        surfaces = qc.bilinear_payoff_coefficients(rho, pa, pb)
        points = eq.enumerate_bilinear_nash(*surfaces)
        ranking = eq.rank_equilibria(points)
        if family is not None:
            verdict = eq.unique_solution(params, family)
        return closed, surfaces, points, ranking, verdict

    def check(self, i: int, out: Any) -> str | None:
        kind, (alpha, beta, gamma), state, diagonal = self.draws[i % self.pool]
        closed, (bp_a, bp_b), points, ranking, verdict = out
        tol = 1e-12 * max(abs(alpha), abs(beta), abs(gamma), 1.0)
        sa, sb = oracle.surfaces(alpha, beta, gamma, diagonal)

        for p, q in CORNERS:
            if abs(bp_a.value(p, q) - sa.value(p, q)) > tol or abs(
                bp_b.value(p, q) - sb.value(p, q)
            ) > tol:
                return f"bilinear coefficients wrong at corner ({p}, {q})"
        if not points:
            return "enumerator found no equilibrium"
        for point in tuple(points) + tuple(closed or ()):
            p, q = point.p_star, point.q_star
            if not oracle.certificate_gap(sa, sb, p, q) <= tol:
                return f"({p}, {q}) fails the endpoint best-response certificate"
            if abs(point.payoff_a - sa.value(p, q)) > tol or abs(
                point.payoff_b - sb.value(p, q)
            ) > tol:
                return f"({p}, {q}) reports payoffs off the surface"
        if sorted(map(id, ranking.ordered)) != sorted(map(id, points)):
            return "ranking is not a permutation of the equilibria"
        mins = [point.min_payoff for point in ranking.ordered]
        if any(a < b for a, b in zip(mins, mins[1:])):
            return "ranking is not best-first by the smaller payoff"
        if kind != FAMILY:
            return None

        if len(points) != 3:
            return f"family state: expected 3 equilibria, got {len(points)}"
        reference = oracle.family_equilibria(alpha, beta, gamma, state)
        for target, ref in zip(closed, reference):
            got = (target.p_star, target.q_star, target.payoff_a, target.payoff_b)
            if max(abs(x - y) for x, y in zip(got, ref)) > self.match_tolerance:
                return f"closed form {got} differs from {ref}"
            gap = min(
                max(abs(x - y) for x, y in zip(got, (f.p_star, f.q_star, f.payoff_a, f.payoff_b)))
                for f in points
            )
            if gap > self.match_tolerance:
                return f"closed form {got} off the enumerator by {gap:.3e}"
        diff_a, diff_b = sa.at_11 - sa.at_00, sb.at_11 - sb.at_00
        if abs(verdict.payoff_difference_a - diff_a) > tol or abs(
            verdict.payoff_difference_b - diff_b
        ) > tol:
            return "unique-solution payoff differences are wrong"
        if verdict.merged != (abs(2.0 * state - 1.0) <= 1e-12):
            return f"unique-solution verdict merged={verdict.merged} is wrong"
        return None

    def describe(self, i: int) -> dict:
        kind, game, state, _ = self.draws[i % self.pool]
        shown = state if kind == FAMILY else np.asarray(state).round(6).tolist()
        return {"game": game, "state_kind": kind, "state": repr(shown)}


# ---------------------------------------------------------------------------
# cli_session

SIM_SMALL = 10**6
SIM_LARGE = 10**7
SWEEP_A2_STEPS = 4001
SWEEP_P_STEPS = 2001

# (command, config, format, extra arguments) of one pass. Every README config
# form, every command and mode, and every format appear. Placeholders take
# seeded values: {sim:k} the k-th simulation seed, {pq} the (p, q) to play,
# {q} the q a p sweep holds fixed.
#
# The mix is chosen so that both reported percentiles fall inside a cluster
# of similar invocations, not at the edge between two: the ten slowest are
# the three 10^7-round simulations and seven of the eleven sweeps, so the
# tail (ten samples beyond it) is a sweep; the median falls among the
# classical and quantum invocations, which cost little beyond start-up.
A2_SWEEP = ("--param", "a2", "--steps", str(SWEEP_A2_STEPS))
P_SWEEP = ("--param", "p", "--steps", str(SWEEP_P_STEPS), "{q}")
ENTANGLED = ("--mode", "entangled")
FACTORIZABLE = ("--mode", "factorizable")
SCRIPT = (
    ("classical", "family", "table", ()),
    ("classical", "family", "json", ()),
    ("classical", "family", "csv", ()),
    ("classical", "bell", "csv", ()),
    ("classical", "bell", "table", ()),
    ("classical", "amplitudes", "json", ()),
    ("classical", "amplitudes", "csv", ()),
    ("classical", "bimatrix2", "json", ()),
    ("classical", "bimatrix2", "table", ()),
    ("classical", "bimatrix2", "csv", ()),
    ("classical", "bimatrix3", "table", ()),
    ("classical", "bimatrix3", "json", ()),
    ("classical", "bimatrix3", "csv", ()),
    ("quantum", "family", "table", ENTANGLED),
    ("quantum", "family", "json", ENTANGLED),
    ("quantum", "family", "csv", ENTANGLED),
    ("quantum", "bell", "json", ENTANGLED),
    ("quantum", "bell", "table", ENTANGLED),
    ("quantum", "bell", "csv", ENTANGLED),
    ("quantum", "amplitudes", "json", ENTANGLED),
    ("quantum", "amplitudes", "table", ENTANGLED),
    ("quantum", "amplitudes", "csv", ENTANGLED),
    ("quantum", "family", "table", FACTORIZABLE),
    ("quantum", "family", "json", FACTORIZABLE),
    ("quantum", "bell", "csv", FACTORIZABLE),
    ("quantum", "amplitudes", "json", FACTORIZABLE),
    ("sweep", "family", "csv", A2_SWEEP),
    ("sweep", "family", "json", A2_SWEEP),
    ("sweep", "bell", "table", A2_SWEEP),
    ("sweep", "bell", "json", A2_SWEEP),
    ("sweep", "amplitudes", "json", A2_SWEEP),
    ("sweep", "amplitudes", "csv", P_SWEEP),
    ("sweep", "amplitudes", "json", P_SWEEP),
    ("sweep", "amplitudes", "table", P_SWEEP),
    ("sweep", "family", "table", P_SWEEP),
    ("sweep", "family", "json", P_SWEEP),
    ("sweep", "bell", "csv", P_SWEEP),
    ("simulate", "family", "json", ("--rounds", str(SIM_SMALL), "{sim:0}", "{pq}")),
    # Same invocation as the one above: its output must repeat byte for byte.
    ("simulate", "family", "json", ("--rounds", str(SIM_SMALL), "{sim:0}", "{pq}")),
    ("simulate", "amplitudes", "csv", ("--rounds", str(SIM_SMALL), "{sim:1}", "{pq}")),
    ("simulate", "bell", "table", ("--rounds", str(SIM_LARGE), "{sim:2}", "{pq}")),
    ("simulate", "family", "json", ("--rounds", str(SIM_LARGE), "{sim:3}", "{pq}")),
    ("simulate", "amplitudes", "csv", ("--rounds", str(SIM_LARGE), "{sim:4}", "{pq}")),
)

_EMPIRICAL = re.compile(
    r"empirical payoffs: A=(\S+) \+/- (\S+)  B=(\S+) \+/- (\S+)\nanalytic payoffs:  A=(\S+)  B=(\S+)"
)


class Invocation:
    """One scripted ``python -m qstatic`` command line and what it needs to check."""

    def __init__(self, entry: tuple, config: Path, draws: dict) -> None:
        self.command, self.config, self.format, extra = entry
        args: list[str] = []
        self.p = self.q = None
        for token in extra:
            if token == "{q}":
                self.q = draws["q"]
                args += ["--q", repr(self.q)]
            elif token == "{pq}":
                self.p, self.q = draws["p"], draws["q"]
                args += ["--p", repr(self.p), "--q", repr(self.q)]
            elif token.startswith("{sim:"):
                args += ["--seed", str(draws["sim"][int(token[5:-1])])]
            else:
                args.append(token)
        self.options = dict(zip(args[::2], args[1::2]))
        self.argv = [self.command, "--config", str(config), *args, "--format", self.format]


class CliSession:
    """One op: one ``python -m qstatic`` subprocess from a seeded script.

    The script is a fixed list of invocations over a seeded config corpus,
    in a seeded order; a pass runs every invocation once.
    """

    name = "cli_session"
    warm_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        alpha, beta, gamma = draw_payoffs(rng, 1)[0]
        payoffs = {"alpha": alpha, "beta": beta, "gamma": gamma}
        a2 = float(rng.uniform(0.05, 0.95))
        amps = random_amplitudes(rng)
        bim2 = rng.uniform(-5.0, 5.0, size=(2, 2, 2)).tolist()
        bim3 = rng.uniform(-5.0, 5.0, size=(2, 3, 3)).tolist()
        self.corpus = {
            "family": {"payoffs": payoffs, "initial_state": {"a2": a2}},
            "bell": {
                "payoffs": payoffs,
                "initial_state": "bell",
                "labels": {"a": ["O", "T"], "b": ["O", "T"]},
            },
            "amplitudes": {
                "payoffs": payoffs,
                "initial_state": [[z.real, z.imag] for z in amps.tolist()],
            },
            "bimatrix2": {"payoffs": {"payoff_a": bim2[0], "payoff_b": bim2[1]}},
            "bimatrix3": {
                "payoffs": {"payoff_a": bim3[0], "payoff_b": bim3[1]},
                "labels": {"a": ["U", "M", "D"], "b": ["L", "C", "R"]},
            },
        }
        self.game = (alpha, beta, gamma)
        self.diagonals = {
            "family": (a2, 0.0, 0.0, 1.0 - a2),
            "bell": (0.5, 0.0, 0.0, 0.5),
            "amplitudes": tuple((np.abs(amps) ** 2).tolist()),
        }
        draws = {
            "p": float(rng.uniform(0.05, 0.95)),
            "q": float(rng.uniform(0.05, 0.95)),
            "sim": rng.integers(0, 2**32, size=5).tolist(),
        }
        order = rng.permutation(len(SCRIPT)).tolist()

        corpus_dir = workdir / "corpus"
        corpus_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in self.corpus.items():
            (corpus_dir / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
        # Invocations run from the checkout root, so config paths are relative to it.
        if corpus_dir.is_relative_to(ROOT):
            corpus_dir = corpus_dir.relative_to(ROOT)
        self.script = [
            Invocation(SCRIPT[k], corpus_dir / f"{SCRIPT[k][1]}.json", draws) for k in order
        ]
        self.pass_size = len(self.script)
        (workdir / "script.json").write_text(
            json.dumps([inv.argv for inv in self.script], indent=1) + "\n"
        )
        self.stdout_path = workdir / "stdout.txt"
        self.stderr_path = workdir / "stderr.txt"
        self.env = child_env(ROOT)
        # Imported here so that only this workload's set-up pays for it.
        import jsonschema

        self.validator = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)
        self.first_output: dict[tuple[str, ...], str] = {}
        self.peak_rss_kb = 0

    def inputs(self) -> dict:
        return {
            "ops_per_pass": self.pass_size,
            "script": [["python", "-m", "qstatic", *inv.argv] for inv in self.script],
            "corpus": self.corpus,
        }

    def warm_up(self) -> None:
        for i in range(self.warm_ops):
            self.run(i)

    def run(self, i: int) -> Any:
        """The invocation as a subprocess; its peak RSS is read on reaping."""
        inv = self.script[i % self.pass_size]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            code, usage = run_child(
                [sys.executable, "-m", "qstatic", *inv.argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return code, self.stdout_path.read_bytes(), self.stderr_path.read_bytes()

    def run_inline(self, i: int) -> Any:
        """The invocation through ``qstatic.cli.main`` in this process."""
        inv = self.script[i % self.pass_size]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(inv.argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue().encode(), err.getvalue().encode()

    def describe(self, i: int) -> dict:
        return {"argv": ["python", "-m", "qstatic", *self.script[i % self.pass_size].argv]}

    # -- checks ---------------------------------------------------------------

    def check(self, i: int, out: Any) -> str | None:
        inv = self.script[i % self.pass_size]
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"
        digest = hashlib.sha256(stdout).hexdigest()
        if self.first_output.setdefault(tuple(inv.argv), digest) != digest:
            return "output differs from an earlier run of the same invocation"
        text = stdout.decode()
        if inv.format == "json":
            doc = json.loads(text)
            error = next(iter(self.validator.iter_errors(doc)), None)
            if error is not None:
                return f"JSON report violates REPORT_SCHEMA: {error.message[:200]}"
            return self._check_report(inv, doc)
        if inv.format == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if not rows or any(len(row) != len(rows[0]) for row in rows):
                return "CSV output is not rectangular"
            return self._check_csv(inv, [dict(zip(rows[0], row)) for row in rows[1:]])
        return self._check_table(inv, text)

    def _bimatrix(self, inv: Invocation) -> tuple[list, list]:
        doc = self.corpus[inv.config]["payoffs"]
        if "payoff_a" in doc:
            return doc["payoff_a"], doc["payoff_b"]
        alpha, beta, gamma = self.game
        return [[alpha, gamma], [gamma, beta]], [[beta, gamma], [gamma, alpha]]

    def _config_surfaces(self, inv: Invocation) -> tuple[oracle.Surface, oracle.Surface]:
        """Payoff surfaces the invocation's numbers must lie on: the classical
        game for ``classical`` and factorizable play, the configured initial
        state otherwise."""
        if inv.command == "classical":
            return oracle.bimatrix_surfaces(*self._bimatrix(inv))
        if inv.options.get("--mode") == "factorizable":
            return oracle.surfaces(*self.game, (1.0, 0.0, 0.0, 0.0))
        return oracle.surfaces(*self.game, self.diagonals[inv.config])

    def _check_equilibria(self, inv: Invocation, rows: list[dict]) -> str | None:
        if inv.config == "bimatrix3":
            return None if not rows else "3x3 game reported mixed equilibria"
        if not rows:
            return "no mixed equilibria reported"
        sa, sb = self._config_surfaces(inv)
        tol = 1e-9 * max(map(abs, self.game + (1.0,)))
        for row in rows:
            p, q = float(row["p"]), float(row["q"])
            if not oracle.certificate_gap(sa, sb, p, q) <= tol:
                return f"reported equilibrium ({p}, {q}) is not a Nash point"
            if not (
                oracle.close(float(row["payoff_a"]), sa.value(p, q), 1e-9)
                and oracle.close(float(row["payoff_b"]), sb.value(p, q), 1e-9)
            ):
                return f"payoffs at ({p}, {q}) are off the surface"
        if inv.command == "classical" and "payoff_a" not in self.corpus[inv.config]["payoffs"]:
            interior = oracle.classical_interior(*self.game)
            if not any(
                oracle.close(float(row["p"]), interior[0], 1e-9)
                and oracle.close(float(row["q"]), interior[1], 1e-9)
                for row in rows
            ):
                return "classical interior equilibrium missing"
        return None

    def _check_sweep(self, inv: Invocation, rows: list[dict]) -> str | None:
        steps = int(inv.options["--steps"])
        if len(rows) != steps:
            return f"sweep has {len(rows)} rows, expected {steps}"
        for k in (0, steps // 2, steps - 1):
            row = rows[k]
            if inv.options["--param"] == "a2":
                a2 = float(row["a2"])
                keep, flip, interior = oracle.family_equilibria(*self.game, a2)
                expected = {
                    "corner_11_payoff_a": keep[2],
                    "corner_11_payoff_b": keep[3],
                    "corner_00_payoff_a": flip[2],
                    "corner_00_payoff_b": flip[3],
                    "interior_p": interior[0],
                    "interior_q": interior[1],
                    "interior_payoff": interior[2],
                }
            else:
                sa, sb = self._config_surfaces(inv)
                p, q = float(row["p"]), float(row["q"])
                if not oracle.close(q, inv.q, 1e-11):
                    return f"sweep row {k} has q={q}, expected {inv.q}"
                expected = {"payoff_a": sa.value(p, q), "payoff_b": sb.value(p, q)}
            for key, value in expected.items():
                if not oracle.close(float(row[key]), value, 1e-9):
                    return f"sweep row {k}: {key}={row[key]}, expected {value!r}"
        return None

    def _check_simulation(
        self, inv: Invocation, means: tuple, errors: tuple, analytic: tuple, rel: float
    ) -> str | None:
        sa, sb = self._config_surfaces(inv)
        truth = (sa.value(inv.p, inv.q), sb.value(inv.p, inv.q))
        for player in (0, 1):
            if not oracle.close(analytic[player], truth[player], rel):
                return f"analytic payoff {analytic[player]!r} differs from {truth[player]!r}"
            if not abs(means[player] - truth[player]) <= 4.0 * errors[player]:
                return (
                    f"mean payoff {means[player]!r} is beyond 4 standard errors "
                    f"({errors[player]!r}) of {truth[player]!r}"
                )
        return None

    def _check_report(self, inv: Invocation, doc: dict) -> str | None:
        if inv.command == "classical":
            found = {(row["row"], row["col"]) for row in doc["pure_equilibria"]}
            if found != pure_nash_cells(*self._bimatrix(inv)):
                return f"pure equilibria {sorted(found)} are wrong"
            return self._check_equilibria(inv, doc["mixed_equilibria"])
        if inv.command == "quantum":
            in_family = inv.config in ("family", "bell")
            wants_verdict = in_family and inv.options["--mode"] == "entangled"
            if (doc["unique_solution"] is not None) != wants_verdict:
                return "unique-solution verdict present where it should not be, or missing"
            return self._check_equilibria(inv, doc["equilibria"])
        if inv.command == "sweep":
            return self._check_sweep(inv, doc["rows"])
        counts = doc["counts"]
        if sum(counts.values()) != int(inv.options["--rounds"]):
            return "outcome counts do not add up to the rounds played"
        emp, ana = doc["empirical"], doc["analytic"]
        return self._check_simulation(
            inv,
            (emp["mean_payoff_a"], emp["mean_payoff_b"]),
            (emp["std_error_a"], emp["std_error_b"]),
            (ana["payoff_a"], ana["payoff_b"]),
            1e-9,
        )

    def _check_csv(self, inv: Invocation, rows: list[dict]) -> str | None:
        if inv.command in ("classical", "quantum"):
            return self._check_equilibria(inv, rows)
        if inv.command == "sweep":
            return self._check_sweep(inv, rows)
        if len(rows) != 1:
            return f"simulate CSV has {len(rows)} rows, expected 1"
        row = {key: float(value) for key, value in rows[0].items()}
        counted = sum(row[f"count_{label}"] for label in ("oo", "ot", "to", "tt"))
        if counted != int(inv.options["--rounds"]):
            return "outcome counts do not add up to the rounds played"
        return self._check_simulation(
            inv,
            (row["mean_payoff_a"], row["mean_payoff_b"]),
            (row["std_error_a"], row["std_error_b"]),
            (row["analytic_payoff_a"], row["analytic_payoff_b"]),
            1e-9,
        )

    def _check_table(self, inv: Invocation, text: str) -> str | None:
        if not text.endswith("\n") or not text.startswith("game: "):
            return "table output does not start with the game line"
        if inv.command == "simulate":
            match = _EMPIRICAL.search(text)
            if match is None:
                return "table output lacks the empirical and analytic payoff lines"
            mean_a, se_a, mean_b, se_b, ana_a, ana_b = map(float, match.groups())
            # The table shows 6 significant digits.
            return self._check_simulation(
                inv, (mean_a, mean_b), (se_a, se_b), (ana_a, ana_b), 1e-5
            )
        if inv.command == "sweep":
            lines = text.count("\n")
            steps = int(inv.options["--steps"])
            return None if lines > steps else f"sweep table has {lines} lines for {steps} steps"
        marker = "mixed Nash equilibria:" if inv.command == "classical" else "equilibria:"
        return None if marker in text else f"table output lacks '{marker}'"


def pure_nash_cells(a: list, b: list) -> set[tuple[int, int]]:
    """Cells where neither player gains by a unilateral deviation."""
    rows, cols = len(a), len(a[0])
    return {
        (i, j)
        for i in range(rows)
        for j in range(cols)
        if all(a[k][j] <= a[i][j] for k in range(rows))
        and all(b[i][k] <= b[i][j] for k in range(cols))
    }


WORKLOADS = {w.name: w for w in (GridRoutes, EquilibriumDraws, CliSession)}
