"""Acceptance criteria for the release, all at canonical parameters (3, 2, 1).

Every criterion runs at its stated tolerance and budget and prints one
`ACCEPTANCE <n> <name>: PASS|FAIL` line (visible with `pytest -s` or in the
captured output). A FAIL also fails the test with the collected reasons.
"""

import time

import numpy as np

from helpers import endpoint_certificate_holds, random_density
from qstatic.equilibria import (
    EntangledFamilyState,
    classical_mixed_equilibria,
    entangled_equilibria,
    enumerate_bilinear_nash,
    unique_solution,
)
from qstatic.game_core import (
    GamePayoffs,
    MixProbabilities,
    bos_bimatrix,
    expected_payoffs,
)
from qstatic.montecarlo import SimulationConfig, simulate
from qstatic.quantum_core import (
    LocalUnitary,
    MixingChoice,
    StateVector,
    apply_local_unitaries,
    bilinear_payoff_coefficients,
    mixed_final_density,
    payoff_operators,
    projection_probabilities,
    trace_payoffs,
)

BOS = GamePayoffs(3, 2, 1)


def _finish(number: int, name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}", flush=True)
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def test_criterion_1_classical_closed_forms():
    failures: list[str] = []
    classical_mixed_equilibria(BOS)  # warm-up
    start = time.perf_counter()
    keep, flip, interior = classical_mixed_equilibria(BOS)
    elapsed = time.perf_counter() - start

    targets = [
        (keep, 1.0, 1.0, 3.0, 2.0),
        (flip, 0.0, 0.0, 2.0, 3.0),
        (interior, 2 / 3, 1 / 3, 5 / 3, 5 / 3),
    ]
    for point, p, q, pay_a, pay_b in targets:
        _check(failures, abs(point.p_star - p) <= 1e-12, f"p {point.p_star} != {p}")
        _check(failures, abs(point.q_star - q) <= 1e-12, f"q {point.q_star} != {q}")
        _check(
            failures, abs(point.payoff_a - pay_a) <= 1e-12, f"payoff_a != {pay_a}"
        )
        _check(
            failures, abs(point.payoff_b - pay_b) <= 1e-12, f"payoff_b != {pay_b}"
        )
    _check(failures, elapsed < 1e-3, f"runtime {elapsed:.2e}s exceeds 1 ms")
    _finish(1, "classical closed-form equilibria", failures)


def test_criterion_2_factorizable_routes_agree_on_grid():
    failures: list[str] = []
    game = bos_bimatrix(BOS)
    pa, pb = payoff_operators(BOS)
    psi_in = StateVector.basis("OO")
    rho_in = psi_in.density_matrix()
    alpha, beta, gamma = BOS.alpha, BOS.beta, BOS.gamma
    grid = np.linspace(0.0, 1.0, 101)
    worst = 0.0

    start = time.perf_counter()
    for p in grid:
        ua = LocalUnitary(np.sqrt(p), np.sqrt(1.0 - p))
        for q in grid:
            classical = expected_payoffs(game, MixProbabilities(p, q))
            affine = (
                p * (q * (alpha - 2 * gamma + beta) + gamma - beta)
                + beta + q * (gamma - beta),
                q * (p * (alpha - 2 * gamma + beta) + gamma - alpha)
                + alpha + p * (gamma - alpha),
            )
            ub = LocalUnitary(np.sqrt(q), np.sqrt(1.0 - q))
            probs = projection_probabilities(apply_local_unitaries(ua, ub, psi_in))
            vector_route = (float(probs @ pa.diagonal), float(probs @ pb.diagonal))
            density_route = trace_payoffs(
                pa, pb, mixed_final_density(rho_in, MixingChoice(p, q))
            )
            # Worst pairwise gap along each coordinate is max minus min.
            vals_a = (classical[0], affine[0], vector_route[0], density_route[0])
            vals_b = (classical[1], affine[1], vector_route[1], density_route[1])
            worst = max(worst, max(vals_a) - min(vals_a), max(vals_b) - min(vals_b))
    elapsed = time.perf_counter() - start

    _check(failures, worst <= 1e-12, f"worst pairwise gap {worst:.2e} exceeds 1e-12")
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s")
    _finish(2, "state-vector, density and classical payoffs agree", failures)


def test_criterion_3_entangled_equilibria_at_a2_08():
    failures: list[str] = []
    state = EntangledFamilyState(0.8)
    entangled_equilibria(BOS, state)  # warm-up
    start = time.perf_counter()
    keep, flip, interior = entangled_equilibria(BOS, state)
    elapsed = time.perf_counter() - start

    targets = [
        (keep, 1.0, 1.0, 2.8, 2.2),
        (flip, 0.0, 0.0, 2.2, 2.8),
        (interior, 0.6, 0.4, 1.72, 1.72),
    ]
    for point, p, q, pay_a, pay_b in targets:
        _check(failures, abs(point.p_star - p) <= 1e-12, f"p {point.p_star} != {p}")
        _check(failures, abs(point.q_star - q) <= 1e-12, f"q {point.q_star} != {q}")
        _check(failures, abs(point.payoff_a - pay_a) <= 1e-12, f"payoff_a != {pay_a}")
        _check(failures, abs(point.payoff_b - pay_b) <= 1e-12, f"payoff_b != {pay_b}")
    for corner in (keep, flip):
        _check(
            failures,
            interior.payoff_a < corner.payoff_a and interior.payoff_b < corner.payoff_b,
            "interior payoff not strictly below a corner payoff",
        )
    _check(failures, elapsed < 1e-3, f"runtime {elapsed:.2e}s exceeds 1 ms")
    _finish(3, "entangled equilibria at a2=0.8", failures)


def test_criterion_4_unique_solution_at_maximal_entanglement():
    failures: list[str] = []
    balanced = EntangledFamilyState(0.5)
    unique_solution(BOS, balanced)  # warm-up
    start = time.perf_counter()
    report = unique_solution(BOS, balanced)
    elapsed = time.perf_counter() - start

    keep, flip, interior = entangled_equilibria(BOS, balanced)
    for corner in (keep, flip):
        _check(failures, abs(corner.payoff_a - 2.5) <= 1e-12, "corner payoff_a != 2.5")
        _check(failures, abs(corner.payoff_b - 2.5) <= 1e-12, "corner payoff_b != 2.5")
    _check(failures, abs(interior.payoff_a - 1.75) <= 1e-12, "interior payoff != 1.75")
    _check(
        failures,
        keep.payoff_a > interior.payoff_a and flip.payoff_a > interior.payoff_a,
        "corner payoffs do not strictly dominate the interior payoff",
    )
    _check(failures, report.merged, "balanced superposition did not merge")
    if report.merged:
        bell = StateVector.bell()
        fidelity = abs(np.vdot(bell.amplitudes, report.final_state.amplitudes)) ** 2
        _check(
            failures,
            fidelity >= 1.0 - 1e-12,
            f"final-state fidelity {fidelity} below 1 - 1e-12",
        )
        rho_corners = mixed_final_density(
            balanced.density_matrix(), MixingChoice(1.0, 1.0)
        )
        _check(
            failures,
            rho_corners.fidelity(bell) >= 1.0 - 1e-12,
            "corner final density is not the balanced superposition",
        )
    for offset in (1e-6, -1e-6):
        _check(
            failures,
            not unique_solution(BOS, EntangledFamilyState(0.5 + offset)).merged,
            f"a2=0.5{offset:+g} must not merge",
        )
    _check(failures, elapsed < 1e-3, f"runtime {elapsed:.2e}s exceeds 1 ms")
    _finish(4, "unique solution at the balanced superposition", failures)


def test_criterion_5_closed_forms_match_enumerator_on_random_draws():
    failures: list[str] = []
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    for trial in range(500):
        alpha, beta, gamma = np.sort(rng.uniform(0.1, 10.0, size=3))[::-1]
        params = GamePayoffs(alpha, beta, gamma)
        a2 = float(rng.uniform())
        family = EntangledFamilyState(a2)
        closed = entangled_equilibria(params, family)
        pa, pb = payoff_operators(params)
        bp_a, bp_b = bilinear_payoff_coefficients(family.density_matrix(), pa, pb)
        enumerated = enumerate_bilinear_nash(bp_a, bp_b)
        if len(enumerated) != 3:
            failures.append(f"trial {trial}: expected 3 points, got {len(enumerated)}")
            continue
        for target in closed:
            gap = min(
                max(
                    abs(target.p_star - found.p_star),
                    abs(target.q_star - found.q_star),
                    abs(target.payoff_a - found.payoff_a),
                    abs(target.payoff_b - found.payoff_b),
                )
                for found in enumerated
            )
            if gap > 1e-9:
                failures.append(f"trial {trial}: closed form off by {gap:.2e}")
        for point in tuple(closed) + tuple(enumerated):
            if not endpoint_certificate_holds(bp_a, bp_b, point.p_star, point.q_star):
                failures.append(f"trial {trial}: endpoint certificate failed")
        if len(failures) > 5:
            break
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10 s")
    _finish(5, "closed forms match the bilinear enumerator", failures)


def test_criterion_6_monte_carlo_validation():
    failures: list[str] = []
    config = SimulationConfig(
        rounds=10**6,
        seed=20240817,
        mix=MixingChoice(0.5, 0.5),
        initial=EntangledFamilyState(0.5).state_vector(),
        payoffs=BOS,
    )
    start = time.perf_counter()
    report = simulate(config)
    rerun = simulate(config)
    elapsed = time.perf_counter() - start

    _check(
        failures,
        abs(report.mean_payoff_a - 1.75) <= 4 * report.std_error_a,
        f"mean_payoff_a {report.mean_payoff_a} beyond 4 standard errors of 1.75",
    )
    _check(
        failures,
        abs(report.mean_payoff_b - 1.75) <= 4 * report.std_error_b,
        f"mean_payoff_b {report.mean_payoff_b} beyond 4 standard errors of 1.75",
    )
    _check(failures, report == rerun, "same seed did not reproduce bit-identically")
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5 s")
    _finish(6, "measurement-collapse runs match the analytic value", failures)


def test_criterion_7_density_map_safety_and_phase_invariance():
    failures: list[str] = []
    rng = np.random.default_rng(424242)
    pa, pb = payoff_operators(BOS)
    start = time.perf_counter()

    worst_hermitian = worst_trace = 0.0
    worst_eigen = np.inf
    for _ in range(1000):
        rho = random_density(rng)
        mix = MixingChoice(*rng.uniform(size=2))
        out = mixed_final_density(rho, mix).entries
        worst_hermitian = max(worst_hermitian, float(np.max(np.abs(out - out.conj().T))))
        worst_trace = max(worst_trace, abs(complex(np.trace(out)) - 1.0))
        worst_eigen = min(worst_eigen, float(np.linalg.eigvalsh(out)[0]))

    worst_payoff_shift = 0.0
    for _ in range(200):
        a2 = float(rng.uniform())
        mix = MixingChoice(*rng.uniform(size=2))
        base = StateVector.oo_tt(np.sqrt(a2), np.sqrt(1.0 - a2))
        phased = StateVector.oo_tt(
            np.sqrt(a2) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)),
            np.sqrt(1.0 - a2) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)),
        )
        pay_base = trace_payoffs(pa, pb, mixed_final_density(base.density_matrix(), mix))
        pay_phased = trace_payoffs(
            pa, pb, mixed_final_density(phased.density_matrix(), mix)
        )
        worst_payoff_shift = max(
            worst_payoff_shift,
            abs(pay_base[0] - pay_phased[0]),
            abs(pay_base[1] - pay_phased[1]),
        )
    elapsed = time.perf_counter() - start

    _check(
        failures, worst_hermitian <= 1e-12, f"hermitian drift {worst_hermitian:.2e}"
    )
    _check(failures, worst_trace <= 1e-12, f"trace drift {worst_trace:.2e}")
    _check(failures, worst_eigen >= -1e-10, f"eigenvalue floor breached: {worst_eigen:.2e}")
    _check(
        failures,
        worst_payoff_shift <= 1e-12,
        f"phase perturbation moved a payoff by {worst_payoff_shift:.2e}",
    )
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5 s")
    _finish(7, "mixing map safety and phase invariance", failures)
