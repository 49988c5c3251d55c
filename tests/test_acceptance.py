"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every run is seeded, so the statistical checks are reproducible.
"""
import math
import time

import numpy as np
import pytest

from qvilab import (
    EmulatedProvider,
    ExperimentConfig,
    FixedPointFormat,
    HardInstanceSpec,
    HorizonReductionSpec,
    Policy,
    QueryLedger,
    SubroutineConfig,
    ae_error_bound,
    ae_outcome_distribution,
    ae_outcome_distribution_circuit,
    brute_force_optimal,
    estimate_from_outcome,
    exact_value_iteration,
    fit_scaling,
    hard_instance_optimal_start_values,
    make_hard_instance,
    make_horizon_reduction,
    mean_projector,
    policy_value,
    prepare_psi2,
    qmebo_exact,
    qvi1,
    qvi2,
    qvi3,
    qvi4,
    random_mdp,
    run_experiment,
    total_variance_norm,
)

FMT = FixedPointFormat(16, 12)


def report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS — {detail}")


def provider(seed, **kwargs):
    return EmulatedProvider(SubroutineConfig(rng_seed=seed, **kwargs))


def seeded_suite(count, s_hi, a_hi, h_hi, base_seed):
    """Deterministic family of random MDPs with sizes up to the given caps."""
    out = []
    for k in range(count):
        rng = np.random.default_rng(base_seed + k)
        s = int(rng.integers(2, s_hi + 1))
        a = int(rng.integers(2, a_hi + 1))
        h = int(rng.integers(2, h_hi + 1))
        out.append(random_mdp(s, a, h, seed=base_seed + k))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_hard_instance_ground_truth():
    started = time.perf_counter()
    for num_states in (4, 7, 10):
        for horizon in range(2, 9):
            m1 = HardInstanceSpec(num_states=num_states, num_actions=3, horizon=horizon)
            m2 = HardInstanceSpec(
                num_states=num_states, num_actions=3, horizon=horizon, variant="M2"
            )
            _, v1, _ = exact_value_iteration(make_hard_instance(m1))
            _, v2, _ = exact_value_iteration(make_hard_instance(m2))
            np.testing.assert_allclose(
                v1.values[0], hard_instance_optimal_start_values(m1), atol=1e-9
            )
            np.testing.assert_allclose(
                v2.values[0], hard_instance_optimal_start_values(m2), atol=1e-9
            )
            gap = np.abs(v1.values[0] - v2.values[0]).max()
            assert gap == (horizon - 1) / 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"M1/M2 closed forms reproduced for 21 grids in {elapsed:.2f}s")


def test_criterion_2_qvi1_exactness_and_injected_success_rate():
    started = time.perf_counter()
    exact_runs = 0
    for k, mdp in enumerate(seeded_suite(100, 10, 8, 10, base_seed=1000)):
        pi_star, v_star, _ = exact_value_iteration(mdp)
        result = qvi1(mdp, 0.1, provider(k), QueryLedger())
        assert (result.policy.actions == pi_star.actions).all()
        assert np.abs(result.values.values[0] - v_star.values[0]).max() <= 1e-9
        exact_runs += 1
    assert exact_runs == 100

    wins = 0
    runs = 500
    for k in range(runs):
        rng = np.random.default_rng(5000 + k)
        mdp = random_mdp(
            int(rng.integers(2, 11)), int(rng.integers(2, 9)), int(rng.integers(2, 11)),
            seed=5000 + k,
        )
        pi_star, v_star, _ = exact_value_iteration(mdp)
        result = qvi1(mdp, 0.1, provider(k, failure_injection=True), QueryLedger())
        wins += (
            (result.policy.actions == pi_star.actions).all()
            and np.abs(result.values.values[0] - v_star.values[0]).max() <= 1e-9
        )
    rate = wins / runs
    assert rate >= 0.85
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"100/100 exact; injected success rate {rate:.3f} >= 0.85 in {elapsed:.1f}s")


def _sandwich(mdp, result, eps):
    _, v_star, _ = exact_value_iteration(mdp)
    v_pi = policy_value(mdp, result.policy).values
    v_hat = result.values.values
    assert (v_star.values - eps - 1e-9 <= v_hat).all()
    assert (v_hat <= v_pi + 1e-9).all()
    assert (v_pi <= v_star.values + 1e-9).all()
    return v_pi


def test_criterion_3_sandwich_suites():
    started = time.perf_counter()
    suite = seeded_suite(100, 8, 6, 8, base_seed=2000)
    for k, mdp in enumerate(suite):
        _sandwich(mdp, qvi2(mdp, 0.3, 0.1, provider(k), QueryLedger()), 0.3)
        _sandwich(mdp, qvi3(mdp, 0.3, 0.1, provider(k + 1), QueryLedger()), 0.3)
    q_suite = seeded_suite(100, 6, 4, 6, base_seed=3000)
    for k, mdp in enumerate(q_suite):
        result = qvi4(mdp, 0.4, 0.1, provider(k), QueryLedger())
        v_pi = _sandwich(mdp, result, 0.4)
        _, _, q_star = exact_value_iteration(mdp)
        q_pi = np.empty_like(result.qvalues.qvalues)
        for h in range(mdp.horizon):
            q_pi[h] = mdp.rewards[h] + mdp.transitions[h] @ v_pi[h + 1]
        assert (q_star.qvalues - 0.4 - 1e-9 <= result.qvalues.qvalues).all()
        assert (result.qvalues.qvalues <= q_pi + 1e-9).all()
        assert (q_pi <= q_star.qvalues + 1e-9).all()
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(3, f"sandwiches held in 300/300 runs (V for qvi2/qvi3, V+Q for qvi4) in {elapsed:.1f}s")


def test_criterion_4_statevector_mean_estimation():
    started = time.perf_counter()
    eps, delta = 0.05, 0.1
    trials = 1000
    details = []
    for idx, n in enumerate((2, 4, 8)):
        rng_inst = np.random.default_rng(40 + idx)
        p = rng_inst.dirichlet(np.ones(n))
        f = rng_inst.random(n)
        true_mean = float(p @ f)
        rng = np.random.default_rng(100 + idx)
        # one call on `trials` copies of the row draws what `trials` one-row calls draw
        run = qmebo_exact(np.broadcast_to(p, (trials, n)), f, eps, delta, FMT, rng)
        ok = np.abs(run.estimate - true_mean) <= eps + np.abs(run.encoding_offset)
        freq = ok.mean()
        sigma = math.sqrt((1 - delta) * delta / trials)
        assert freq >= (1 - delta) - 3 * sigma
        details.append(f"N={n}: {freq:.3f}")

    # per-trial amplitude-estimation error law
    a, t = 0.25, 64
    dist = ae_outcome_distribution(a, t)
    bound = ae_error_bound(a, t)
    within = np.array([abs(estimate_from_outcome(y, t) - a) <= bound for y in range(t)])
    rng = np.random.default_rng(77)
    draws = rng.choice(t, size=10**4, p=dist)
    freq_ae = within[draws].mean()
    target = 8 / math.pi**2
    sigma_ae = math.sqrt(target * (1 - target) / 10**4)
    assert freq_ae >= target - 3 * sigma_ae
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        4,
        f"mean-estimation success {', '.join(details)} (>=0.9-3sigma); "
        f"AE in-bound {freq_ae:.3f} >= 8/pi^2-3sigma in {elapsed:.1f}s",
    )


def test_criterion_5_mode_equivalence():
    started = time.perf_counter()
    fmt = FixedPointFormat(8, 6)
    worst = 0.0
    rng = np.random.default_rng(50)
    for _ in range(5):
        p = rng.dirichlet(np.ones(2))
        f = rng.random(2)
        state = prepare_psi2(p, f, fmt)
        mask = mean_projector(state)
        a = state.probability(mask)
        for t in range(1, 17):
            tv = 0.5 * float(
                np.abs(
                    ae_outcome_distribution(a, t) - ae_outcome_distribution_circuit(state, mask, t)
                ).sum()
            )
            worst = max(worst, tv)
    assert worst <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, f"subspace vs full-register total variation <= {worst:.2e} over 80 instances "
              f"in {elapsed:.1f}s")


def test_criterion_6_variance_bound():
    started = time.perf_counter()
    for k in range(200):
        rng = np.random.default_rng(6000 + k)
        horizon = int(rng.integers(2, 17))
        mdp = random_mdp(
            int(rng.integers(2, 9)), int(rng.integers(2, 6)), horizon, seed=6000 + k
        )
        pi = Policy(rng.integers(mdp.num_actions, size=(mdp.num_states, horizon)))
        assert total_variance_norm(mdp, pi) <= horizon**1.5
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(6, f"variance accumulation <= H^1.5 on 200/200 pairs in {elapsed:.1f}s")


def _sweep_slope(algorithm, sweep, axis, oracle, seed, qms_budget_mode="per_state"):
    config = ExperimentConfig(
        algorithm=algorithm,
        sweep=sweep,
        trials=10,
        master_seed=seed,
        qms_budget_mode=qms_budget_mode,
    )
    rows = run_experiment(config)
    return fit_scaling(rows, axis, oracle=oracle).slope


def test_criterion_7_scaling_properties():
    started = time.perf_counter()
    # (a) action-space scaling of the exact solver
    slope_a = _sweep_slope(
        "qvi1", {"S": (5,), "A": (4, 8, 16, 32), "H": (4,), "delta": (0.1,)},
        "A", "quantum_mdp", seed=70,
    )
    assert abs(slope_a - 0.5) <= 0.15

    # (b) generative-model solver: accuracy and action-space scaling
    slope_b_eps = _sweep_slope(
        "qvi3", {"S": (5,), "A": (4,), "H": (4,), "eps": (0.4, 0.2, 0.1, 0.05),
                 "delta": (0.1,)},
        "eps", "quantum_generative", seed=71,
    )
    assert abs(-slope_b_eps - 1.0) <= 0.15  # slope vs 1/eps
    slope_b_a = _sweep_slope(
        "qvi3", {"S": (5,), "A": (8, 16, 32, 64), "H": (4,), "eps": (0.2,), "delta": (0.1,)},
        "A", "quantum_generative", seed=72, qms_budget_mode="literal",
    )
    assert abs(slope_b_a - 0.5) <= 0.15

    # (c) variance-reduced solver in the eps <= 1/sqrt(H) regime
    h = 4
    eps_grid = tuple(2.0**-k for k in range(12, 16))
    assert max(eps_grid) <= 1 / math.sqrt(h)
    slope_c = _sweep_slope(
        "qvi4", {"S": (4,), "A": (3,), "H": (h,), "eps": eps_grid, "delta": (0.1,)},
        "eps", "quantum_generative", seed=73,
    )
    assert abs(-slope_c - 1.0) <= 0.25

    # (d) state-space scaling of the binary-oracle solver
    slope_d = _sweep_slope(
        "qvi2", {"S": (8, 16, 32, 64), "A": (3,), "H": (3,), "eps": (0.3,), "delta": (0.1,)},
        "S", "quantum_mdp", seed=74, qms_budget_mode="literal",
    )
    assert abs(slope_d - 1.5) <= 0.2
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(
        7,
        "slopes: qvi1 vs A {:.3f}; qvi3 vs 1/eps {:.3f}, vs A {:.3f}; qvi4 vs 1/eps {:.3f}; "
        "qvi2 vs S {:.3f} (in {:.1f}s)".format(
            slope_a, -slope_b_eps, slope_b_a, -slope_c, slope_d, elapsed
        ),
    )


def test_criterion_8_horizon_reduction():
    started = time.perf_counter()
    cases = [(2, 2, 0.5), (3, 2, 0.8), (4, 3, 0.9), (3, 3, 0.8), (2, 3, 0.5)]
    for idx, (n_s, n_a, gamma) in enumerate(cases):
        rng = np.random.default_rng(80 + idx)
        base_p = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
        base_r = rng.random((n_s, n_a))
        spec = HorizonReductionSpec(base_p, base_r, gamma=gamma, eps=0.1)
        mdp = make_horizon_reduction(spec)
        _, v, _ = exact_value_iteration(mdp)
        # discounted fixed point to 1e-12 as the oracle
        v_inf = np.zeros(n_s)
        while True:
            v_next = (base_r + gamma * (base_p @ v_inf)).max(axis=1)
            if np.abs(v_next - v_inf).max() <= 1e-13:
                break
            v_inf = v_next
        assert np.abs(v.values[0, :n_s] - v_inf).max() <= spec.eps
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(8, f"finite-horizon start values within 0.1 of discounted optima on 5 bases "
              f"in {elapsed:.1f}s")


def test_criterion_9_oracle_equivalence():
    started = time.perf_counter()
    instances = [
        random_mdp(3, 2, 3, seed=90),
        random_mdp(3, 2, 3, seed=91),
        random_mdp(3, 2, 3, seed=92),
        random_mdp(2, 2, 5, seed=93),
        random_mdp(2, 4, 3, seed=94),
        random_mdp(1, 8, 2, seed=95),
        make_hard_instance(HardInstanceSpec(num_states=4, num_actions=2, horizon=2)),
    ]
    for mdp in instances:
        n_policies = mdp.num_actions ** (mdp.num_states * mdp.horizon)
        assert n_policies <= 4096
        pi_bf, v_bf = brute_force_optimal(mdp)
        pi_vi, v_vi, _ = exact_value_iteration(mdp)
        assert np.abs(v_bf.values - v_vi.values).max() <= 1e-9
        assert (pi_bf.actions == pi_vi.actions).all()
    elapsed = time.perf_counter() - started
    report(9, f"backward induction equals exhaustive enumeration on 7 instances "
              f"in {elapsed:.1f}s")
