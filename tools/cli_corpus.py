"""Run one seeded corpus of qstatic CLI invocations through two checkouts and
sort every output that moved.

Usage, from the root of a checkout:

    python tools/cli_corpus.py --before OLD_CHECKOUT --after NEW_CHECKOUT \
        [--seed 1] [--report moved.json]

Each checkout is imported from its ``src/`` in its own worker process, which
runs every invocation through ``qstatic.cli.main`` in process and also keeps
the report payload that ``main`` renders, at full float precision. The
corpus draws 600 configs covering every payoff form (levels at scales 1e-6
to 1e12, small integers, a large common offset, 2x2 and 3x3 bimatrices) and
every state form (presets, ``{a2}`` objects, in-family and out-of-family
amplitudes), then three strata of 60 configs each. Each stratum draws from
its own ``random.Random``, so every other stratum draws the same configs for
a seed as it did before the stratum was added:

- ``levels-wide``: levels 4*10^k, 1..5 and 0 with k from 14 to 17, whose
  slopes span 14 to 18 decades;
- ``extreme``: integer levels in -7..7 (form ``levels-extreme``), or one
  time in four a 2x2 bimatrix of integers in -5..5 (``bimatrix-extreme``),
  times 2^k with k from 990 to 1020 or -1020 to -990, near both ends of the
  float range;
- ``near-family``: levels as in the main corpus, and a family state whose
  a2 has a denominator up to 12, with one of its four amplitudes set to
  modulus 10^-k (k from 8 to 16, any phase) and then normalized: amplitudes
  on both sides of the zero rule and of the exact reading. Its form is
  ``near-family-kNN``, so the summary counts each k.

Each config runs ``classical``, ``quantum`` in both modes, ``sweep`` over
a2, p or q, and ``simulate``, each in table, json and csv: 15 invocations
per config, 11,700 per seed.

An invocation moved when its exit code, stdout or stderr differ. Each moved
one falls in one class, read off the two payloads:

- ``view``: the payloads are byte-identical and only the printed text
  moved, as when the table renders the same payload differently;
- ``exact``: the payloads are byte-identical once every ``*_exact`` field
  is read as null and every float at the 12 significant digits that the
  json and csv views print: only exact columns moved, filled in, emptied
  or changed. The table's widths change with them, so the text cannot
  decide this;
- ``mirror``: a quantum ranking in which only mirror corners, (1,1) and
  (0,0) or (1,0) and (0,1), traded places; with the gaps recomputed for the
  traded order, the payloads agree within the round-off bound below;
- ``round-off``: the same payload shape, strings and integers, with every
  float within ``ROUNDOFF_BOUND`` of its scale (1 for probabilities,
  coordinates and amplitudes, the largest payoff level otherwise);
- ``accepted``: exit 2 before and exit 0 after, with every number of the
  new payload finite: an input the old code refused and the new one runs;
- ``other``: everything else.

The summary gives, per payoff form, the count in each class and the largest
float gap over its scale among the mirror and round-off moves, then the
moved count per command (``classical``, ``quantum entangled``, ``quantum
factorizable``, ``sweep``, ``simulate``); ``--report`` writes every moved
invocation with its command, class and reason. The exit code is
1 when any invocation moved and 0 otherwise, so a byte-identical gate is
this one command. The standard library is all it needs besides the two
checkouts.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any

#: Floats within this fraction of their scale count as round-off.
ROUNDOFF_BOUND = 1e-13
#: Payload keys whose numbers live on the unit scale rather than the payoff scale.
UNIT_KEYS = {
    "p", "q", "a2", "interior_p", "interior_q", "family_a2", "amplitudes",
    "final_state", "outcome_probabilities",
}
FORMATS = ("table", "json", "csv")
#: Configs in the main corpus; each further stratum has a tenth as many.
N_CONFIGS = 600


# ---------------------------------------------------------------------------
# the corpus


def _levels(rng: random.Random) -> tuple[dict, float, str]:
    """An {alpha, beta, gamma} payoff object, its payoff scale and its form."""
    form = rng.choice(("scaled", "scaled", "integer", "offset"))
    if form == "integer":
        alpha, beta, gamma = sorted(rng.sample(range(-20, 21), 3), reverse=True)
    elif form == "offset":
        offset = 10 ** rng.randint(3, 15)
        alpha, beta, gamma = (offset + d for d in sorted(rng.sample(range(0, 9), 3), reverse=True))
    else:
        scale = 10.0 ** rng.randint(-6, 12)
        gamma = round(rng.uniform(-10, 10), 2)
        beta = gamma + round(rng.uniform(0.01, 10), 2)
        alpha = beta + round(rng.uniform(0.01, 10), 2)
        alpha, beta, gamma = (x * scale for x in (alpha, beta, gamma))
    payoffs = {"alpha": alpha, "beta": beta, "gamma": gamma}
    return payoffs, max(abs(float(x)) for x in payoffs.values()), f"levels-{form}"


def _wide_levels(rng: random.Random) -> tuple[dict, float, str]:
    """Levels 4*10^k, 1..5 and 0 (k = 14..17), their scale and their form."""
    alpha = 4 * 10 ** rng.randint(14, 17)
    return {"alpha": alpha, "beta": rng.randint(1, 5), "gamma": 0}, float(alpha), "levels-wide"


def _bimatrix(rng: random.Random, n: int | None = None) -> tuple[dict, float, str]:
    n = n or rng.choice((2, 2, 2, 3))
    table = lambda: [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]  # noqa: E731
    payoffs = {"payoff_a": table(), "payoff_b": table()}
    scale = max(abs(x) for t in payoffs.values() for row in t for x in row)
    return payoffs, max(scale, 1), f"bimatrix-{n}x{n}"


def _extreme(rng: random.Random) -> tuple[dict, float, str]:
    """Integer levels in -7..7, or a 2x2 bimatrix of integers in -5..5, times
    2^k with k from 990 to 1020 or -1020 to -990; the payoffs, their scale
    and their form."""
    k = rng.choice((-1, 1)) * rng.randint(990, 1020)
    if rng.random() < 0.25:
        payoffs, scale, _ = _bimatrix(rng, 2)
        payoffs = {key: [[math.ldexp(x, k) for x in row] for row in table]
                   for key, table in payoffs.items()}
        return payoffs, math.ldexp(scale, k), "bimatrix-extreme"
    levels = sorted(rng.sample(range(-7, 8), 3), reverse=True)
    payoffs = dict(zip(("alpha", "beta", "gamma"), (math.ldexp(x, k) for x in levels)))
    return payoffs, math.ldexp(max(map(abs, levels)), k), "levels-extreme"


def _state(rng: random.Random) -> Any:
    form = rng.choice(("preset", "family", "family", "in_family", "amplitudes", "uniform"))
    if form == "preset":
        return rng.choice(("OO", "OT", "TO", "TT", "bell"))
    if form == "family":
        if rng.random() < 0.5:
            den = rng.randint(1, 12)
            return {"a2": rng.randint(0, den) / den}
        return {"a2": rng.random()}
    if form == "in_family":
        a2 = rng.random()
        moduli = (math.sqrt(a2), 0.0, 0.0, math.sqrt(1 - a2))
    elif form == "uniform":
        moduli = (0.5, 0.5, 0.5, 0.5)
    else:
        weights = [rng.random() for _ in range(4)]
        moduli = tuple(math.sqrt(w / sum(weights)) for w in weights)
    amps = [r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for r in moduli]
    return [[a.real, a.imag] for a in amps]


def _near_family(rng: random.Random) -> tuple[list, int]:
    """A family state with one amplitude set to modulus 10^-k and normalized, and k."""
    k = rng.randint(8, 16)
    den = rng.randint(1, 12)
    a2 = rng.randint(0, den) / den
    amps = [math.sqrt(a2), 0.0, 0.0, math.sqrt(1 - a2)]
    amps[rng.randrange(4)] = 10.0**-k * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [[(a / norm).real, (a / norm).imag] for a in amps], k


def _commands(rng: random.Random) -> list[list[str]]:
    sweep = ["sweep", "--param", rng.choice(("a2", "p", "q")), "--steps", str(rng.randint(2, 41))]
    sweep += ["--p", str(round(rng.random(), 3)), "--q", str(round(rng.random(), 3))]
    simulate = ["simulate", "--rounds", str(rng.randint(1, 10**5)), "--seed", str(rng.randint(0, 999))]
    simulate += ["--p", str(round(rng.random(), 3)), "--q", str(round(rng.random(), 3))]
    return [
        ["classical"],
        ["quantum", "--mode", "entangled"],
        ["quantum", "--mode", "factorizable"],
        sweep,
        simulate,
    ]


def build_corpus(seed: int, directory: Path) -> list[dict]:
    """Write the configs under ``directory``; return one case per invocation."""
    main_rng, wide_rng = random.Random(seed), random.Random(f"levels-wide {seed}")
    extreme_rng = random.Random(f"extreme {seed}")
    near_rng = random.Random(f"near-family {seed}")
    stratum = N_CONFIGS // 10
    cases = []
    for i in range(N_CONFIGS + 3 * stratum):
        if i < N_CONFIGS:
            rng = main_rng
            payoffs, scale, form = _bimatrix(rng) if rng.random() < 0.15 else _levels(rng)
        elif i < N_CONFIGS + stratum:
            rng = wide_rng
            payoffs, scale, form = _wide_levels(rng)
        elif i < N_CONFIGS + 2 * stratum:
            rng = extreme_rng
            payoffs, scale, form = _extreme(rng)
        else:
            rng = near_rng
            payoffs, scale, _ = _levels(rng)
            state, k = _near_family(rng)
            form = f"near-family-k{k:02d}"
        if rng is not near_rng:
            state = _state(rng)
        config: dict[str, Any] = {"payoffs": payoffs, "initial_state": state}
        if rng.random() < 0.2 and "alpha" in payoffs:
            config["labels"] = {"a": ["Opera", "TV"], "b": ["Opera", "TV"]}
        path = directory / f"config_{i:05d}.json"
        path.write_text(json.dumps(config))
        for command in _commands(rng):
            name = f"quantum {command[2]}" if command[0] == "quantum" else command[0]
            for fmt in FORMATS:
                argv = [command[0], "--config", str(path), "--format", fmt, *command[1:]]
                cases.append({"argv": argv, "scale": scale, "form": form, "command": name})
    return cases


# ---------------------------------------------------------------------------
# the worker: one checkout, every invocation in process


def run_worker() -> None:
    """Read argv lists as JSON from stdin; write one result per argv."""
    import qstatic.cli as cli

    captured: list[Any] = []
    render = cli.render

    def keeping_render(payload: dict, fmt: str) -> str:
        captured.append(payload)
        return render(payload, fmt)

    cli.render = keeping_render
    results = []
    for argv in json.load(sys.stdin):
        captured.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        payload = captured[0] if captured else None
        results.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "payload": payload})
    json.dump(results, sys.stdout)


def run_checkout(checkout: Path, argvs: list[list[str]]) -> list[dict]:
    src = checkout.resolve() / "src"
    if not (src / "qstatic").is_dir():
        sys.exit(f"error: no src/qstatic under {checkout}")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        input=json.dumps(argvs), capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0"},
    )
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# sorting the moved outputs


class Mismatch(Exception):
    """The two payloads differ in shape, a string, an integer or a flag."""


def _float_gap(before: Any, after: Any, scale: float, key: str = "") -> float:
    """Largest float difference over its scale; Mismatch on any other change."""
    if isinstance(before, dict) and isinstance(after, dict):
        if list(before) != list(after):
            raise Mismatch(f"keys {list(before)} != {list(after)}")
        return max([_float_gap(before[k], after[k], scale, k) for k in before], default=0.0)
    if isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            raise Mismatch(f"{key}: {len(before)} items != {len(after)}")
        return max([_float_gap(b, a, scale, key) for b, a in zip(before, after)], default=0.0)
    if type(before) is float and type(after) is float:
        if before == after or (math.isnan(before) and math.isnan(after)):
            return 0.0
        return abs(before - after) / (1.0 if key in UNIT_KEYS else scale)
    if type(before) is not type(after) or before != after:
        raise Mismatch(f"{key}: {before!r} != {after!r}")
    return 0.0


def _with_ranking(payload: dict, order: list[int]) -> dict:
    """The quantum payload with this ranking order and the gaps it implies."""
    rows = payload["equilibria"]
    gaps = [
        {
            "better": i,
            "worse": j,
            "delta_a": rows[order[i]]["payoff_a"] - rows[order[j]]["payoff_a"],
            "delta_b": rows[order[i]]["payoff_b"] - rows[order[j]]["payoff_b"],
        }
        for i in range(len(order))
        for j in range(i + 1, len(order))
    ]
    return {**payload, "ranking": {"order": order, "gaps": gaps}}


def _mirror_swaps(payload: dict) -> list[dict]:
    """The payload with mirror corners traded in its ranking, one version per
    nonempty set of traded pairs. Swapping the players maps the corner
    (p, q) to (1 - p, 1 - q): (1,1) with (0,0), and (1,0) with (0,1)."""
    if payload.get("command") != "quantum":
        return []
    rows = payload["equilibria"]
    where = {(r["p"], r["q"]): i for i, r in enumerate(rows) if r["kind"] == "corner"}
    pairs = [
        (where[c], where[m])
        for c, m in (((1.0, 1.0), (0.0, 0.0)), ((1.0, 0.0), (0.0, 1.0)))
        if c in where and m in where
    ]
    versions = []
    for mask in range(1, 2 ** len(pairs)):
        order = list(payload["ranking"]["order"])
        for bit, (x, y) in enumerate(pairs):
            if mask >> bit & 1:
                i, j = order.index(x), order.index(y)
                order[i], order[j] = order[j], order[i]
        versions.append(_with_ranking(payload, order))
    return versions


def _printed(payload: Any) -> Any:
    """``payload`` with floats at 12 significant digits and every ``*_exact``
    field read as null."""
    if isinstance(payload, dict):
        return {k: None if k.endswith("_exact") else _printed(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_printed(v) for v in payload]
    return float(f"{payload:.12g}") if type(payload) is float else payload


def _finite(payload: Any) -> bool:
    if isinstance(payload, dict):
        return all(map(_finite, payload.values()))
    if isinstance(payload, list):
        return all(map(_finite, payload))
    return not isinstance(payload, float) or math.isfinite(payload)


def classify(before: dict, after: dict, scale: float) -> tuple[str, float, str]:
    """(class, largest float gap over its scale, reason) of one moved output."""
    if before["exit"] == 2 and after["exit"] == 0 and _finite(after["payload"]):
        return "accepted", 0.0, before["stderr"].strip()
    if before["exit"] != after["exit"] or before["stderr"] != after["stderr"]:
        return "other", math.inf, "exit code or stderr changed"
    old, new = before["payload"], after["payload"]
    if old is None or new is None:
        return "other", math.inf, "stdout changed without a payload"
    if json.dumps(old) == json.dumps(new):
        return "view", 0.0, ""
    if json.dumps(_printed(old)) == json.dumps(_printed(new)):
        return "exact", 0.0, ""
    try:
        gap = _float_gap(old, new, scale)
        kind = "round-off"
    except Mismatch as exc:
        gaps = []
        for swapped in _mirror_swaps(old):
            with contextlib.suppress(Mismatch):
                gaps.append(_float_gap(swapped, _with_ranking(new, new["ranking"]["order"]), scale))
        if not gaps:
            return "other", math.inf, str(exc)
        gap, kind = min(gaps), "mirror"
    if gap > ROUNDOFF_BOUND:
        return "other", gap, f"float gap {gap:.3g} of scale"
    return kind, gap, ""


def _first_difference(a: str, b: str) -> str:
    for x, y in zip(a.splitlines(), b.splitlines()):
        if x != y:
            return f"{x!r} -> {y!r}"
    return "length differs"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--before", type=Path, help="checkout with the old code")
    parser.add_argument("--after", type=Path, help="checkout with the new code")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--report", type=Path, help="write every moved case here as JSON")
    args = parser.parse_args(argv)
    if args.worker:
        run_worker()
        return 0
    if args.before is None or args.after is None:
        parser.error("--before and --after are required")

    with tempfile.TemporaryDirectory(prefix="cli_corpus_") as tmp:
        cases = build_corpus(args.seed, Path(tmp))
        argvs = [case["argv"] for case in cases]
        old, new = run_checkout(args.before, argvs), run_checkout(args.after, argvs)
        invocations = Counter(case["form"] for case in cases)
        per_command = Counter(case["command"] for case in cases)
        moved_per_command: Counter = Counter()
        counts: Counter = Counter()
        largest: dict[tuple[str, str], float] = {}
        moved = []
        for case, before, after in zip(cases, old, new):
            if all(before[f] == after[f] for f in ("exit", "stdout", "stderr")):
                continue
            kind, gap, reason = classify(before, after, case["scale"])
            key = (case["form"], kind)
            counts[key] += 1
            largest[key] = max(largest.get(key, 0.0), gap)
            moved_per_command[case["command"]] += 1
            argv = " ".join(case["argv"]).replace(tmp + "/", "")
            moved.append({"argv": argv, "form": case["form"], "command": case["command"],
                          "class": kind, "gap": gap,
                          "reason": reason,
                          "first_difference": _first_difference(before["stdout"], after["stdout"])})

    print(f"invocations: {len(cases)} ({N_CONFIGS} configs, {N_CONFIGS // 10} each levels-wide, "
          f"extreme and near-family, seed {args.seed}); moved: {len(moved)}")
    print("payoff form        invocations  view  exact  mirror  round-off  accepted  other  "
          "largest round-off gap")
    for form in sorted(invocations):
        n = [counts[(form, kind)]
             for kind in ("view", "exact", "mirror", "round-off", "accepted", "other")]
        gap = max(largest.get((form, kind), 0.0) for kind in ("mirror", "round-off"))
        print(f"{form:<18} {invocations[form]:>11}  {n[0]:>4}  {n[1]:>5}  {n[2]:>6}  {n[3]:>9}  "
              f"{n[4]:>8}  {n[5]:>5}  {gap:.3g}")
    print("command               invocations  moved")
    for command in per_command:
        print(f"{command:<21} {per_command[command]:>11}  {moved_per_command[command]:>5}")
    if args.report:
        args.report.write_text(json.dumps(moved, indent=1) + "\n")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
