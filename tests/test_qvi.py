"""The five planning algorithms: guarantees, accounting, determinism."""
import functools
import math

import numpy as np
import pytest

from qvilab import (
    ALGORITHMS,
    ORACLES,
    ContractViolation,
    EmulatedProvider,
    FiniteHorizonMdp,
    InfeasibleParams,
    QueryLedger,
    SubroutineConfig,
    exact_value_iteration,
    policy_value,
    qme1_query_count,
    qmebo_query_count,
    qms_query_count,
    qvi1,
    qvi2,
    qvi3,
    qvi4,
    qvi5,
    random_mdp,
    solve,
)
from qvilab.emulation import btp_multiplier
from qvilab.instances import HardInstanceSpec, hard_instance_optimal_start_values, make_hard_instance
from qvilab.qvi import perturbed_transitions


def provider(seed=0, **kwargs):
    return EmulatedProvider(SubroutineConfig(rng_seed=seed, **kwargs))


def sandwich_holds(mdp, result, eps, tol=1e-9):
    _, v_star, _ = exact_value_iteration(mdp)
    v_pi = policy_value(mdp, result.policy).values
    v_hat = result.values.values
    return (
        (v_star.values - eps - tol <= v_hat).all()
        and (v_hat <= v_pi + tol).all()
        and (v_pi <= v_star.values + tol).all()
    )


def sparse_chain(num_states, num_actions, horizon, seed=0, lo=0.3):
    """Support-2 rows with conditionals bounded away from zero."""
    rng = np.random.default_rng(seed)
    p = np.zeros((horizon, num_states, num_actions, num_states))
    r = rng.random((horizon, num_states, num_actions))
    for h in range(horizon):
        for s in range(num_states):
            for a in range(num_actions):
                i, j = rng.choice(num_states, size=2, replace=False)
                w = rng.uniform(lo, 1 - lo)
                p[h, s, a, i] = w
                p[h, s, a, j] = 1 - w
    return FiniteHorizonMdp(p, r)


# ---------------------------------------------------------------------------
# qvi1
# ---------------------------------------------------------------------------


def test_qvi1_reproduces_hard_instance_values():
    spec = HardInstanceSpec(num_states=7, num_actions=3, horizon=4)
    mdp = make_hard_instance(spec)
    result = qvi1(mdp, 0.1, provider(), QueryLedger())
    np.testing.assert_allclose(
        result.values.values[0], hard_instance_optimal_start_values(spec), atol=1e-9
    )


def test_qvi1_single_step_matches_greedy():
    mdp = random_mdp(5, 4, 1, seed=3)
    result = qvi1(mdp, 0.1, provider(), QueryLedger())
    np.testing.assert_array_equal(result.policy.actions[:, 0], mdp.rewards[0].argmax(axis=1))


def test_qvi1_ledger_bound_with_frozen_constant():
    # C calibrated once on seeds 0..2 (max observed ratio 1.05) and frozen.
    frozen_c = 1.25
    delta = 0.1
    for seed in range(3, 13):
        rng = np.random.default_rng(seed)
        s, a, h = int(rng.integers(2, 9)), int(rng.integers(2, 9)), int(rng.integers(2, 8))
        mdp = random_mdp(s, a, h, seed=seed)
        ledger = QueryLedger()
        qvi1(mdp, delta, provider(seed), ledger)
        bound = frozen_c * s**2 * math.sqrt(a) * h * math.log(s * h / delta)
        assert ledger.total <= bound


def test_qvi1_accounting_replay():
    mdp = random_mdp(4, 5, 3, seed=2)
    config = SubroutineConfig(rng_seed=0)
    ledger = QueryLedger()
    qvi1(mdp, 0.2, EmulatedProvider(config), ledger)
    probes = qms_query_count(5, 0.2 / (4 * 3), config)
    assert ledger.count("quantum_mdp") == 4 * 3 * probes * 4  # S*H searches, S per probe


# ---------------------------------------------------------------------------
# qvi2
# ---------------------------------------------------------------------------


def offset_recursion_oracle(mdp, eps):
    """Deterministic replay of the exact-noise offset recursion."""
    horizon, n_s = mdp.horizon, mdp.num_states
    v = np.zeros((horizon + 1, n_s))
    for h in range(horizon - 1, -1, -1):
        z = mdp.transitions[h] @ v[h + 1] - eps / (2 * horizon)
        q = np.maximum(mdp.rewards[h] + z, 0.0)
        v[h] = np.minimum(q.max(axis=1), horizon)
    return v


def test_qvi2_exact_noise_matches_replay():
    mdp = random_mdp(5, 3, 4, seed=4)
    result = qvi2(mdp, 0.3, 0.1, provider(0, noise_mode="exact"), QueryLedger())
    np.testing.assert_allclose(result.values.values, offset_recursion_oracle(mdp, 0.3), atol=1e-12)


def test_qvi2_sandwich_on_seeded_suite():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(int(rng.integers(2, 9)), int(rng.integers(2, 7)),
                         int(rng.integers(2, 9)), seed=seed)
        result = qvi2(mdp, 0.3, 0.1, provider(seed), QueryLedger())
        assert sandwich_holds(mdp, result, 0.3)


@pytest.mark.parametrize("mode", ["adversarial_low", "adversarial_high"])
def test_qvi2_adversarial_modes_keep_sandwich(mode):
    mdp = random_mdp(5, 4, 5, seed=9)
    result = qvi2(mdp, 0.4, 0.1, provider(1, noise_mode=mode), QueryLedger())
    assert sandwich_holds(mdp, result, 0.4)


def test_qvi2_accounting_replay_and_budget_modes():
    mdp = random_mdp(4, 3, 3, seed=1)
    config = SubroutineConfig(rng_seed=0)
    delta = 0.1
    zeta = delta / (4 * 1.0 * 4 * 3**1.5 * 3 * math.log(1 / delta))
    per_call = qmebo_query_count(4, 0.3 / (2 * 3**2), zeta, config)
    totals = {}
    for mode, budget in (("per_state", delta / 12), ("literal", delta)):
        ledger = QueryLedger()
        qvi2(mdp, 0.3, delta, EmulatedProvider(config), ledger, qms_budget_mode=mode)
        probes = qms_query_count(3, budget, config)
        assert ledger.count("quantum_mdp") == 4 * 3 * probes * per_call
        assert ledger.count("func_binary") == ledger.count("quantum_mdp")
        totals[mode] = ledger.total
    assert totals["literal"] < totals["per_state"]


# ---------------------------------------------------------------------------
# qvi3
# ---------------------------------------------------------------------------


def test_qvi3_deterministic_single_layer_closed_form():
    mdp = random_mdp(5, 3, 4, sparsity=1 / 5, seed=6)
    result = qvi3(mdp, 0.2, 0.1, provider(0, noise_mode="exact"), QueryLedger())
    expect = np.maximum(mdp.rewards[3].max(axis=1) - 0.2 / (2 * 4), 0.0)
    np.testing.assert_allclose(result.values.values[3], expect, atol=1e-12)


def test_qvi3_sandwich_on_seeded_suite():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        mdp = random_mdp(int(rng.integers(2, 9)), int(rng.integers(2, 7)),
                         int(rng.integers(2, 9)), seed=seed)
        result = qvi3(mdp, 0.3, 0.1, provider(seed), QueryLedger())
        assert sandwich_holds(mdp, result, 0.3)


def test_qvi3_accounting_replay():
    mdp = random_mdp(4, 3, 3, seed=1)
    config = SubroutineConfig(rng_seed=0)
    delta = 0.1
    ledger = QueryLedger()
    qvi3(mdp, 0.3, delta, EmulatedProvider(config), ledger)
    zeta = delta / (4 * 4 * 3**1.5 * 3 * math.log(1 / delta))
    per_call = qme1_query_count(3.0, 0.3 / (2 * 3), zeta, config)
    probes = qms_query_count(3, delta / 12, config)
    assert ledger.count("quantum_generative") == 4 * 3 * probes * per_call


def test_qvi3_output_passes_eps_report():
    from qvilab import eps_optimality_report

    mdp = random_mdp(5, 4, 5, seed=23)
    result = qvi3(mdp, 0.3, 0.1, provider(3), QueryLedger())
    rep = eps_optimality_report(mdp, result.policy, result.values, None, eps=0.3)
    assert rep.all_ok


def test_qvi3_halving_eps_doubles_ledger_within_twenty_percent():
    mdp = random_mdp(5, 4, 4, seed=8)
    totals = []
    for eps in (0.4, 0.2):
        ledger = QueryLedger()
        qvi3(mdp, eps, 0.1, provider(0), ledger)
        totals.append(ledger.total)
    ratio = totals[1] / totals[0]
    assert 2 * 0.8 <= ratio <= 2 * 1.2


class RecordingProvider(EmulatedProvider):
    """Records (method name, positional arguments, estimate) of every estimator call."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = []

    def _record(self, method, args, kwargs):
        est = getattr(EmulatedProvider, method)(self, *args, **kwargs)
        self.calls.append((method, args, est))
        return est

    def mean_bounded(self, *args, **kwargs):
        return self._record("mean_bounded", args, kwargs)

    def mean_binary(self, *args, **kwargs):
        return self._record("mean_binary", args, kwargs)

    def mean_with_variance_bound(self, *args, **kwargs):
        return self._record("mean_with_variance_bound", args, kwargs)


def test_qvi3_offset_estimates_are_one_sided():
    mdp = random_mdp(4, 3, 5, seed=12)
    eps = 0.5
    prov = RecordingProvider(SubroutineConfig(rng_seed=2))
    qvi3(mdp, eps, 0.1, prov, QueryLedger())
    per_call = eps / (2 * mdp.horizon)
    assert prov.calls
    for _, _, est in prov.calls:
        z = est.value - per_call
        assert est.true_mean - 2 * per_call - 1e-12 <= z <= est.true_mean + 1e-12


def test_qvi2_offset_estimates_are_one_sided():
    # scaled-back estimates stay within [true - eps/H, true]
    mdp = random_mdp(4, 3, 4, seed=14)
    eps = 0.4
    horizon = mdp.horizon
    prov = RecordingProvider(SubroutineConfig(rng_seed=5))
    qvi2(mdp, eps, 0.1, prov, QueryLedger())
    assert prov.calls
    for _, _, est in prov.calls:
        z = horizon * est.value - eps / (2 * horizon)
        true = horizon * est.true_mean
        assert true - eps / horizon - 1e-12 <= z <= true + 1e-12


# ---------------------------------------------------------------------------
# qvi4
# ---------------------------------------------------------------------------


def test_qvi4_epoch_count():
    mdp = random_mdp(3, 2, 4, seed=1)
    result = qvi4(mdp, 0.5, 0.1, provider(0), QueryLedger())
    assert result.params["epochs"] == math.ceil(math.log2(4 / 0.5)) + 1 == 4


def test_qvi4_value_and_q_sandwich_on_seeded_suite():
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        mdp = random_mdp(int(rng.integers(2, 7)), int(rng.integers(2, 5)),
                         int(rng.integers(2, 7)), seed=seed)
        result = qvi4(mdp, 0.4, 0.1, provider(seed), QueryLedger())
        assert sandwich_holds(mdp, result, 0.4)
        _, _, q_star = exact_value_iteration(mdp)
        q_hat = result.qvalues.qvalues
        q_pi = np.empty_like(q_hat)
        v_pi = policy_value(mdp, result.policy).values
        for h in range(mdp.horizon):
            q_pi[h] = mdp.rewards[h] + mdp.transitions[h] @ v_pi[h + 1]
        assert (q_star.qvalues - 0.4 - 1e-9 <= q_hat).all()
        assert (q_hat <= q_pi + 1e-9).all()
        assert (q_pi <= q_star.qvalues + 1e-9).all()


def test_qvi4_epoch_zero_variance_estimates_stay_in_band():
    # Epoch 0's reference values are zero, so its variance calls are told
    # apart by their range: u = H^2 for the second moment, u = H for the
    # first (the correction call has u = 2H).
    mdp = random_mdp(4, 3, 5, seed=3)
    prov = RecordingProvider(SubroutineConfig(rng_seed=1))
    result = qvi4(mdp, 0.5, 0.1, prov, QueryLedger())
    b, horizon = result.params["b"], mdp.horizon
    epoch_zero = prov.calls[: 4 * mdp.num_states * mdp.num_actions * horizon]
    second = [est.value for name, args, est in epoch_zero
              if name == "mean_bounded" and args[2] == horizon**2]
    first = [est.value for name, args, est in epoch_zero
             if name == "mean_bounded" and args[2] == horizon]
    assert len(second) == len(first) == mdp.num_states * mdp.num_actions * horizon
    y = np.maximum(np.array(second) - np.array(first) ** 2, 0.0)
    band = b + 2 * b / horizon + (b / horizon) ** 2
    assert y.max() <= band


def test_qvi4_reference_values_grow_monotonically():
    mdp = random_mdp(4, 3, 4, seed=5)
    result = qvi4(mdp, 0.3, 0.1, provider(2), QueryLedger())
    # v[k + 1] holds epoch k's values; v[0] is the all-zero first reference.
    v = np.zeros((result.params["epochs"] + 1, mdp.horizon, mdp.num_states))
    for record in result.trace:
        v[record.epoch + 1, record.h] = record.values
    assert (np.diff(v, axis=0) >= -1e-12).all()


def test_qvi4_offset_estimators_are_one_sided():
    # Per (h, s, a) qvi4 makes four calls: two variance calls, the reference
    # call x (its only variance-bounded call) and then the correction call g,
    # whose range is u = 2 eps_k.  x and g are the offset estimates.
    mdp = random_mdp(4, 3, 4, seed=7)
    prov = RecordingProvider(SubroutineConfig(rng_seed=9))
    result = qvi4(mdp, 0.4, 0.1, prov, QueryLedger())
    per_epoch = 4 * mdp.num_states * mdp.num_actions * mdp.horizon
    assert len(prov.calls) == result.params["epochs"] * per_epoch
    checked = 0
    for i, (name, args, est) in enumerate(prov.calls):
        if name != "mean_with_variance_bound":
            continue
        g_name, g_args, g_est = prov.calls[i + 1]
        assert g_name == "mean_bounded" and g_args[2] == 2 * mdp.horizon / 2 ** (i // per_epoch)
        for eps_call, e in ((args[3], est), (g_args[3], g_est)):
            z = e.value - eps_call
            assert e.true_mean - 2 * eps_call - 1e-12 <= z <= e.true_mean + 1e-12
            checked += 1
    assert checked == len(prov.calls) // 2


def test_qvi4_accounting_replay():
    # Ledger equals the closed-form accounting: per epoch and (s, a, h), two
    # range-bounded estimates for the variance proxy, one variance-bounded
    # estimate at a bound/error ratio that is constant, and one correction
    # estimate whose range/error ratio is also constant across epochs.
    from qvilab import qme2_query_count

    mdp = random_mdp(4, 3, 4, seed=3)
    config = SubroutineConfig(rng_seed=0)
    eps, delta = 0.4, 0.1
    ledger = QueryLedger()
    qvi4(mdp, eps, delta, EmulatedProvider(config), ledger)
    s, a, h = 4, 3, 4
    epochs = math.ceil(math.log2(h / eps)) + 1
    zeta = delta / (4 * epochs * h * s * a)
    c, b = 0.001, 1.0
    cost_y = qme1_query_count(h**2, b, zeta, config) + qme1_query_count(h, b / h, zeta, config)
    cost_x = qme2_query_count(h**1.5 / (c * eps), 1.0, zeta, config)
    cost_g = qme1_query_count(2.0, c / h, zeta, config)
    assert ledger.count("quantum_generative") == epochs * h * s * a * (cost_y + cost_x + cost_g)


def test_qvi4_rejects_eps_above_sqrt_h():
    mdp = random_mdp(3, 2, 4, seed=0)
    with pytest.raises(ValueError):
        qvi4(mdp, 2.1, 0.1, provider(0), QueryLedger())


# ---------------------------------------------------------------------------
# qvi5
# ---------------------------------------------------------------------------


def test_qvi5_sandwich_on_sparse_chains():
    for seed in range(8):
        mdp = sparse_chain(6, 3, 4, seed=seed)
        result = qvi5(mdp, 0.3, 0.1, 0.3, provider(seed), QueryLedger())
        assert sandwich_holds(mdp, result, 0.3)


def test_qvi5_zero_perturbation_reduces_to_offset_recursion():
    mdp = sparse_chain(5, 3, 4, seed=2)
    result = qvi5(
        mdp, 0.3, 0.1, 0.3, provider(0, noise_mode="exact"), QueryLedger(), perturb_scale=0.0
    )
    np.testing.assert_allclose(result.values.values, offset_recursion_oracle(mdp, 0.3), atol=1e-12)


def test_qvi5_validates_eta_against_support():
    mdp = sparse_chain(5, 3, 3, seed=1, lo=0.3)
    with pytest.raises(ValueError, match="lower bound"):
        qvi5(mdp, 0.3, 0.1, 0.45, provider(0), QueryLedger())
    with pytest.raises(ValueError, match="eta"):
        qvi5(mdp, 0.3, 0.1, 0.7, provider(0), QueryLedger())


def test_perturbed_transitions_respect_bound_and_support():
    mdp = sparse_chain(6, 3, 3, seed=4)
    bound = 1e-3
    rng = np.random.default_rng(0)
    moved = perturbed_transitions(mdp, bound, rng)
    assert np.abs(moved - mdp.transitions).max() <= bound
    assert ((moved > 0) == (mdp.transitions > 0)).all()
    assert np.abs(moved.sum(axis=3) - 1.0).max() <= 1e-12


def test_qvi5_accounting_includes_conversion_multiplier():
    mdp = sparse_chain(5, 3, 3, seed=7)
    config = SubroutineConfig(rng_seed=0)
    delta, eps, eta = 0.1, 0.5, 0.3
    ledger = QueryLedger()
    qvi5(mdp, eps, delta, eta, EmulatedProvider(config), ledger)
    zeta = delta / (4 * 5 * 3**1.5 * 3 * math.log(1 / delta))
    per_call = qme1_query_count(3.0, eps / (4 * 3), zeta, config)
    multiplier = btp_multiplier(eps / (4 * 5 * 3**2), eta)
    probes = qms_query_count(3, delta / 15, config)
    assert ledger.count("quantum_mdp") == 5 * 3 * probes * per_call * multiplier
    assert ledger.count("oracle_conversion") == 1


def test_qvi5_beats_qvi2_ledger_on_wide_sparse_instance():
    # Sparse rows with large conditionals: the conversion multiplier stays
    # small while the binary-oracle route pays sqrt(S) per estimate.
    mdp = sparse_chain(400, 4, 2, seed=1, lo=0.45)
    led5, led2 = QueryLedger(), QueryLedger()
    qvi5(mdp, 1.0, 0.1, 0.45, provider(0, noise_mode="exact"), led5)
    qvi2(mdp, 1.0, 0.1, provider(0, noise_mode="exact"), led2)
    assert 1 / 0.45 < math.sqrt(400)
    assert led5.count("quantum_mdp") < led2.count("quantum_mdp")


# ---------------------------------------------------------------------------
# cross-cutting
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_qvi2_runs_on_statevector_provider():
    # same algorithm, tiny instance, exact-statevector mean estimation behind
    # the provider surface; estimates are genuinely sampled so the guarantee
    # is probabilistic -- check the eps window and the reflection accounting.
    from qvilab import StatevectorProvider, FixedPointFormat, exact_value_iteration

    mdp = random_mdp(2, 2, 2, seed=15)
    prov = StatevectorProvider(SubroutineConfig(rng_seed=1), fmt=FixedPointFormat(16, 12))
    ledger = QueryLedger()
    result = qvi2(mdp, 1.0, 0.1, prov, ledger)
    _, v_star, _ = exact_value_iteration(mdp)
    assert np.abs(result.values.values - v_star.values).max() <= 1.0 + 0.01
    assert ledger.count("quantum_mdp") > 0
    assert ledger.count("func_binary") == ledger.count("quantum_mdp")
    # nested accounting uses the statevector call cost 2*T*K
    zeta = 0.1 / (4 * 2 * 2**1.5 * 2 * math.log(1 / 0.1))
    per_call = prov.qmebo_call_cost(2, 1.0 / (2 * 2**2), zeta)
    probes = qms_query_count(2, 0.1 / 4, prov.config)
    assert ledger.count("quantum_mdp") == 2 * 2 * probes * per_call


def test_statevector_provider_shares_the_median_boost_rule():
    from qvilab import StatevectorProvider

    prov = StatevectorProvider(SubroutineConfig(rng_seed=1))
    with pytest.raises(ContractViolation, match="failure budget"):
        prov.qmebo_call_cost(2, 0.1, 1.5)
    ledger = QueryLedger()
    est = prov.mean_binary([0.25, 0.75], [0.5, 1.0], 0.1, 0.1, ledger)
    assert est.charged_queries > 0
    assert ledger.as_dict() == dict.fromkeys(ORACLES, 0) | {
        "dist_binary": est.charged_queries, "func_binary": est.charged_queries}


def test_results_are_deterministic_and_exportable(tmp_path):
    mdp = random_mdp(4, 3, 4, seed=10)

    def run():
        ledger = QueryLedger()
        result = qvi3(mdp, 0.3, 0.1, provider(42), ledger)
        return result, ledger

    r1, l1 = run()
    r2, l2 = run()
    np.testing.assert_array_equal(r1.values.values, r2.values.values)
    np.testing.assert_array_equal(r1.policy.actions, r2.policy.actions)
    assert l1.as_dict() == l2.as_dict()
    assert without_seconds(r1.trace) == without_seconds(r2.trace)

    path = tmp_path / "result.json"
    r1.save(path)
    import json

    blob = json.loads(path.read_text())
    assert set(blob) == {"algorithm", "policy", "V", "Q", "ledger", "config", "seed"}
    assert blob["seed"] == 42
    assert blob["Q"] is None


def without_seconds(trace):
    """A run trace with the wall times left out, for comparing runs."""
    return [(r.epoch, r.h, r.queries, r.failed_estimates, r.failed_searches, r.values.tolist())
            for r in trace]


TRACED = ["qvi1", "qvi2", "qvi3", "qvi4", "qvi5"]


@pytest.mark.parametrize("algo", TRACED)
def test_trace_has_one_record_per_step_summing_to_the_ledger(algo):
    mdp = sparse_chain(4, 3, 3, seed=4)
    ledger = QueryLedger()
    result = solve(algo, mdp, provider(1), ledger, eps=0.5, delta=0.1, eta=0.3)
    epochs = result.params.get("epochs", 1)
    steps = [(r.epoch, r.h) for r in result.trace]
    assert steps == [(k, h) for k in range(epochs) for h in (2, 1, 0)]
    summed = {name: sum(r.queries[name] for r in result.trace) for name in ORACLES}
    expected = ledger.as_dict()
    if algo == "qvi5":
        expected["oracle_conversion"] -= 1  # the one conversion, charged before any step
    assert summed == expected
    for record in result.trace[-mdp.horizon:]:
        np.testing.assert_array_equal(record.values, result.values.values[record.h])
    assert all(r.seconds >= 0.0 for r in result.trace)
    assert all(r.failed_estimates == r.failed_searches == 0 for r in result.trace)


@pytest.mark.parametrize("algo", TRACED)
def test_trace_counts_injected_failures(algo):
    mdp = sparse_chain(4, 3, 3, seed=4)
    failed_estimates = failed_searches = drawn = 0
    for seed in range(10):
        prov = RecordingProvider(SubroutineConfig(rng_seed=seed, failure_injection=True))
        result = solve(algo, mdp, prov, QueryLedger(), eps=0.5, delta=0.97, eta=0.3)
        failed_estimates += sum(r.failed_estimates for r in result.trace)
        failed_searches += sum(r.failed_searches for r in result.trace)
        drawn += sum(est.failed for _, _, est in prov.calls)
    assert failed_estimates == drawn
    assert (failed_estimates > 0) == (algo != "qvi1")  # qvi1 estimates nothing
    assert (failed_searches > 0) == (algo != "qvi4")  # qvi4 takes a classical argmax


def test_result_values_respect_table_invariants():
    mdp = random_mdp(5, 3, 6, seed=11)
    result = qvi2(mdp, 0.5, 0.1, provider(3), QueryLedger())
    v = result.values.values
    assert np.abs(v[-1]).max() == 0.0
    assert v.min() >= 0.0 and v.max() <= mdp.horizon


# ---------------------------------------------------------------------------
# registry: vi, solve, and the shared feasibility rule
# ---------------------------------------------------------------------------

FEASIBLE = dict(eps=0.3, delta=0.1, eta=0.05)


@pytest.mark.parametrize(
    "algo, bad, reason",
    [
        ("qvi1", dict(delta=1.5), "delta must be in (0, 1)"),
        ("qvi2", dict(eps=2.5), "eps must be in (0, H=2]"),
        ("qvi2", dict(delta=0.0), "delta must be in (0, 1)"),
        ("qvi3", dict(delta=0.999), "estimator failure budget"),
        ("qvi3", dict(eps=-0.1), "eps must be in"),
        ("qvi4", dict(eps=1.5), "eps must be in (0, sqrt(H)=1.414]"),
        ("qvi5", dict(eta=0.6), "eta must be in (0, 1/2)"),
        ("qvi5", dict(eta=0.45), "not a lower bound"),
        ("qvi5", dict(delta=0.999, eta=0.01), "estimator failure budget"),
    ],
)
def test_infeasible_params_raise_before_any_charge_or_draw(algo, bad, reason):
    mdp = random_mdp(2, 2, 2, seed=0)
    prov, ledger = provider(0), QueryLedger()
    rng_state = prov.rng.bit_generator.state
    with pytest.raises(InfeasibleParams) as err:
        solve(algo, mdp, prov, ledger, **(FEASIBLE | bad))
    assert reason in str(err.value)
    assert ledger.total == 0
    assert prov.rng.bit_generator.state == rng_state


@pytest.mark.parametrize("algo", ["qvi2", "qvi3", "qvi5"])
def test_bad_qms_budget_mode_raises_before_any_charge_or_draw(algo):
    mdp = random_mdp(2, 2, 2, seed=0)
    prov, ledger = provider(0), QueryLedger()
    rng_state = prov.rng.bit_generator.state
    with pytest.raises(ValueError, match="qms_budget_mode"):
        solve(algo, mdp, prov, ledger, **(FEASIBLE | dict(eta=0.01)), qms_budget_mode="bogus")
    assert ledger.total == 0
    assert prov.rng.bit_generator.state == rng_state


def test_vi_is_registered_and_exact():
    mdp = random_mdp(4, 3, 3, seed=2)
    ledger = QueryLedger()
    result = solve("vi", mdp, provider(5), ledger, **FEASIBLE)
    pi, v, q = exact_value_iteration(mdp)
    np.testing.assert_array_equal(result.policy.actions, pi.actions)
    np.testing.assert_array_equal(result.values.values, v.values)
    np.testing.assert_array_equal(result.qvalues.qvalues, q.qvalues)
    assert (result.algorithm, result.params, result.seed, ledger.total) == ("vi", {}, 5, 0)
    assert result.trace == ()


def test_solve_binds_through_wrapped_registry_entries(monkeypatch):
    original = ALGORITHMS["qvi1"]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setitem(ALGORITHMS, "qvi1", wrapper)
    mdp = random_mdp(3, 2, 3, seed=1)
    result = solve("qvi1", mdp, provider(0), QueryLedger(), **FEASIBLE)
    direct = qvi1(mdp, 0.1, provider(0), QueryLedger())
    np.testing.assert_array_equal(result.values.values, direct.values.values)
    assert result.params == direct.params
