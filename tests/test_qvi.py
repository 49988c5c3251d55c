"""The five planning algorithms: guarantees, accounting, determinism."""
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvilab import (
    ALGORITHMS,
    ORACLES,
    ContractViolation,
    EmulatedProvider,
    FiniteHorizonMdp,
    InfeasibleParams,
    QueryLedger,
    StatevectorProvider,
    SubroutineConfig,
    ae_repetitions,
    exact_value_iteration,
    policy_value,
    qme1_query_count,
    qme2_query_count,
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
from qvilab.emulation import NOISE_MODES, btp_multiplier
from qvilab.instances import HardInstanceSpec, hard_instance_optimal_start_values, make_hard_instance
import qvilab.qvi as qvi_module
from qvilab.qvi import QMS_BUDGET_MODES, perturbed_transitions


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


# The ledger must not depend on draws: every accounting replay runs under each
# noise mode, with failure injection off and on.
CONFIGS = {
    f"{mode}-{'inject' if injection else 'faithful'}":
        SubroutineConfig(rng_seed=0, noise_mode=mode, failure_injection=injection)
    for mode in NOISE_MODES for injection in (False, True)
}
DRAW_CONFIGS = pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())


def replay_ledger(algo, n_s, n_a, horizon, config, *, eps, delta, eta, qms_budget_mode):
    """The ledger of one feasible run of ``algo``, in closed form from the cost formulas.

    ``qvi2_sv`` is qvi2 on a StatevectorProvider.  Every algorithm but ``vi``
    and qvi4 makes S*H searches over A actions, each probe billed S table
    queries (qvi1) or one estimator call (qvi2/3/5, times qvi5's conversion
    multiplier); qvi4 bills its estimator calls: per epoch and (h, s, a), two
    range-bounded variance terms, one variance-bounded reference term and one
    correction.
    """
    counts = dict.fromkeys(ORACLES, 0)
    searches = n_s * horizon
    if algo == "vi":
        return counts
    if algo == "qvi1":
        counts["quantum_mdp"] = searches * qms_query_count(n_a, delta / searches, config) * n_s
        return counts
    if algo == "qvi4":
        c, b = 0.001, 1.0
        epochs = math.ceil(math.log2(horizon / eps)) + 1
        zeta = delta / (4 * epochs * searches * n_a)
        reference = (qme1_query_count(horizon**2, b, zeta, config)
                     + qme1_query_count(horizon, b / horizon, zeta, config)
                     + qme2_query_count(1.0, c * eps / horizon**1.5, zeta, config))
        eps_k = [horizon / 2.0**k for k in range(epochs)]
        corrections = sum(qme1_query_count(2.0 * e, c * e / horizon, zeta, config) for e in eps_k)
        counts["quantum_generative"] = searches * n_a * (epochs * reference + corrections)
        return counts
    zeta = delta / (4 * config.qms_constant * n_s * n_a**1.5 * horizon * math.log(1 / delta))
    budget = delta if qms_budget_mode == "literal" else delta / searches
    billed = searches * qms_query_count(n_a, budget, config)  # search probes
    if algo == "qvi2":
        per_call = qmebo_query_count(n_s, eps / (2 * horizon**2), zeta, config)
        counts["quantum_mdp"] = counts["func_binary"] = billed * per_call
    elif algo == "qvi2_sv":  # 2 T K reflections, T over the outcomes padded to 2^n
        padded = 2 ** max(1, math.ceil(math.log2(n_s)))
        repeats = max(1, math.ceil(config.powering_repeats * math.log(1 / zeta)))
        per_call = 2 * ae_repetitions(padded, eps / (2 * horizon**2)) * repeats
        counts["quantum_mdp"] = counts["func_binary"] = billed * per_call
    elif algo == "qvi3":
        counts["quantum_generative"] = billed * qme1_query_count(
            horizon, eps / (2 * horizon), zeta, config)
    elif algo == "qvi5":
        multiplier = btp_multiplier(eps / (4 * n_s * horizon**2), eta)
        counts["quantum_mdp"] = billed * multiplier * qme1_query_count(
            horizon, eps / (4 * horizon), zeta, config)
        counts["oracle_conversion"] = 1
    else:
        raise ValueError(f"no ledger replay for {algo!r}")
    return counts


@DRAW_CONFIGS
def test_qvi1_accounting_replay(config):
    mdp = random_mdp(4, 5, 3, seed=2)
    ledger = QueryLedger()
    qvi1(mdp, 0.2, EmulatedProvider(config), ledger)
    assert ledger.as_dict() == replay_ledger("qvi1", 4, 5, 3, config, eps=0.3, delta=0.2,
                                             eta=0.05, qms_budget_mode="per_state")


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
    for config in CONFIGS.values():
        totals = {}
        for mode in QMS_BUDGET_MODES:
            ledger = QueryLedger()
            qvi2(mdp, 0.3, 0.1, EmulatedProvider(config), ledger, qms_budget_mode=mode)
            assert ledger.as_dict() == replay_ledger("qvi2", 4, 3, 3, config, eps=0.3, delta=0.1,
                                                     eta=0.05, qms_budget_mode=mode)
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


@DRAW_CONFIGS
def test_qvi3_accounting_replay(config):
    mdp = random_mdp(4, 3, 3, seed=1)
    ledger = QueryLedger()
    qvi3(mdp, 0.3, 0.1, EmulatedProvider(config), ledger)
    assert ledger.as_dict() == replay_ledger("qvi3", 4, 3, 3, config, eps=0.3, delta=0.1,
                                             eta=0.05, qms_budget_mode="per_state")


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
    """Records (method name, positional arguments, estimate) of every estimator call.

    The algorithms make one call per estimator kind and backward step, over
    the step's (S, A) stack of rows, so each record holds (S, A) arrays;
    qvi4's three reference calls per epoch cover all steps, (H, S, A).
    """

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
    assert len(prov.calls) == mdp.horizon
    for _, _, est in prov.calls:
        assert est.value.shape == (mdp.num_states, mdp.num_actions)
        z = est.value - per_call
        assert (est.true_mean - 2 * per_call - 1e-12 <= z).all()
        assert (z <= est.true_mean + 1e-12).all()


def test_qvi2_offset_estimates_are_one_sided():
    # scaled-back estimates stay within [true - eps/H, true]
    mdp = random_mdp(4, 3, 4, seed=14)
    eps = 0.4
    horizon = mdp.horizon
    prov = RecordingProvider(SubroutineConfig(rng_seed=5))
    qvi2(mdp, eps, 0.1, prov, QueryLedger())
    assert len(prov.calls) == horizon
    for _, _, est in prov.calls:
        assert est.value.shape == (mdp.num_states, mdp.num_actions)
        z = horizon * est.value - eps / (2 * horizon)
        true = horizon * est.true_mean
        assert (true - eps / horizon - 1e-12 <= z).all()
        assert (z <= true + 1e-12).all()


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
    # first (the correction calls have u = 2H).  An epoch makes each variance
    # call once, over the whole (H, S, A) table, then one correction call per
    # step.
    mdp = random_mdp(4, 3, 5, seed=3)
    prov = RecordingProvider(SubroutineConfig(rng_seed=1))
    result = qvi4(mdp, 0.5, 0.1, prov, QueryLedger())
    b, horizon = result.params["b"], mdp.horizon
    epoch_zero = prov.calls[: 3 + horizon]
    second = [est.value for name, args, est in epoch_zero
              if name == "mean_bounded" and args[2] == horizon**2]
    first = [est.value for name, args, est in epoch_zero
             if name == "mean_bounded" and args[2] == horizon]
    assert len(second) == len(first) == 1
    y = np.maximum(second[0] - first[0] ** 2, 0.0)
    assert y.shape == (horizon, mdp.num_states, mdp.num_actions)
    band = b + 2 * b / horizon + (b / horizon) ** 2
    assert y.max() <= band


def test_qvi4_offset_estimators_are_one_sided():
    # Per epoch qvi4 makes two variance calls and the reference call x (its
    # only variance-bounded call, with one error target per row), each over
    # the whole (H, S, A) table, then one correction call g per step over the
    # step's (S, A) rows, whose range is u = 2 eps_k.  x and g are the offset
    # estimates.
    mdp = random_mdp(4, 3, 4, seed=7)
    prov = RecordingProvider(SubroutineConfig(rng_seed=9))
    result = qvi4(mdp, 0.4, 0.1, prov, QueryLedger())
    horizon, epochs = mdp.horizon, result.params["epochs"]
    per_epoch = 3 + horizon
    assert len(prov.calls) == epochs * per_epoch
    checked = 0
    for i, (name, args, est) in enumerate(prov.calls):
        if name != "mean_with_variance_bound":
            continue
        assert est.value.shape == (horizon, mdp.num_states, mdp.num_actions)
        offsets = [(args[3], est)]
        for g_name, g_args, g_est in prov.calls[i + 1: i + 1 + horizon]:
            assert g_name == "mean_bounded" and g_args[2] == 2 * horizon / 2 ** (i // per_epoch)
            offsets.append((g_args[3], g_est))
        for eps_call, e in offsets:
            z = e.value - eps_call
            assert (e.true_mean - 2 * eps_call - 1e-12 <= z).all()
            assert (z <= e.true_mean + 1e-12).all()
            checked += e.value.size
    assert checked == 2 * epochs * horizon * mdp.num_states * mdp.num_actions


@DRAW_CONFIGS
def test_qvi4_accounting_replay(config):
    mdp = random_mdp(4, 3, 4, seed=3)
    ledger = QueryLedger()
    qvi4(mdp, 0.4, 0.1, EmulatedProvider(config), ledger)
    assert ledger.as_dict() == replay_ledger("qvi4", 4, 3, 4, config, eps=0.4, delta=0.1,
                                             eta=0.05, qms_budget_mode="per_state")


def test_qvi4_rejects_eps_above_sqrt_h():
    mdp = random_mdp(3, 2, 4, seed=0)
    with pytest.raises(ValueError):
        qvi4(mdp, 2.1, 0.1, provider(0), QueryLedger())


CONTRACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def solver_runs(draw, name, backend=EmulatedProvider, modes=NOISE_MODES, injection=(False,)):
    """A run of algorithm ``name`` on a ``backend`` provider under one of ``modes``
    on a generated instance (S, A or H may be 1, rows may be point masses,
    rewards may be zero), with its instance, eps and ledger."""
    n_s, n_a, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    mdp = random_mdp(n_s, n_a, horizon, sparsity=draw(st.sampled_from([1.0, 0.5, 0.01])),
                     seed=draw(st.integers(0, 999)))
    if draw(st.booleans()):
        mdp = FiniteHorizonMdp(mdp.transitions, np.zeros_like(mdp.rewards))
    eps = draw(st.sampled_from([0.3, 0.6, 1.0]))
    config = SubroutineConfig(noise_mode=draw(st.sampled_from(modes)),
                              failure_injection=draw(st.sampled_from(injection)),
                              rng_seed=draw(st.integers(0, 999)))
    eta = min(float(mdp.transitions[mdp.transitions > 0].min()), 0.49)
    ledger = QueryLedger()
    result = solve(name, mdp, backend(config), ledger, eps=eps, delta=0.1, eta=eta)
    return mdp, eps, result, ledger


@CONTRACT
@given(run=solver_runs("qvi4"))
def test_qvi4_values_and_q_are_sandwiched(run):
    mdp, eps, result, _ = run
    assert sandwich_holds(mdp, result, eps)
    _, _, q_star = exact_value_iteration(mdp)
    v_pi = policy_value(mdp, result.policy).values
    q_pi = mdp.rewards + np.matmul(mdp.transitions, v_pi[1:, None, :, None])[..., 0]
    q_hat = result.qvalues.qvalues
    assert (q_star.qvalues - eps - 1e-9 <= q_hat).all()
    assert (q_hat <= q_pi + 1e-9).all()
    assert (q_pi <= q_star.qvalues + 1e-9).all()


@CONTRACT
@given(run=solver_runs("qvi4", injection=(False, True)))
def test_qvi4_trace_queries_sum_to_the_ledger(run):
    mdp, _, result, ledger = run
    assert len(result.trace) == result.params["epochs"] * mdp.horizon
    for name in ORACLES:
        assert sum(record.queries[name] for record in result.trace) == ledger.count(name)


@CONTRACT
@given(run=solver_runs("qvi4", injection=(False, True)))
def test_qvi4_reference_values_grow_monotonically(run):
    mdp, _, result, _ = run
    # v[k + 1] holds epoch k's values; v[0] is the all-zero first reference.
    v = np.zeros((result.params["epochs"] + 1, mdp.horizon, mdp.num_states))
    for record in result.trace:
        v[record.epoch + 1, record.h] = record.values
    assert (np.diff(v, axis=0) >= 0.0).all()
    np.testing.assert_array_equal(v[-1], result.values.values[:-1])


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


def test_perturbed_transitions_keep_support_when_the_shrink_fires():
    # qvi5's conversion bound eps / (4 S H^2) = 1/8 at S = 2, H = 1, eps = 1
    # exceeds the valid eta = 0.02, so shifts often push 0.02 below zero.
    mdp = FiniteHorizonMdp(np.tile([0.02, 0.98], (1, 2, 1, 1)), np.zeros((1, 2, 1)))
    bound = 1.0 / (4 * 2 * 1**2)
    for seed in range(100):
        moved = perturbed_transitions(mdp, bound, np.random.default_rng(seed))
        assert ((0.0 < moved) & (moved < 1.0)).all()
        assert np.abs(moved - mdp.transitions).max() <= bound
        assert np.abs(moved.sum(axis=3) - 1.0).max() <= 1e-12


def whole_table_perturbed_transitions(mdp, bound, rng, scale=1.0):
    """The conversion in one pass over the whole table, the reference for the block walk."""
    if scale == 0.0 or bound == 0.0:
        return np.array(mdp.transitions)
    width = bound * scale
    rows = mdp.transitions.reshape(-1, mdp.num_states)
    support = rows > 0
    size = support.sum(axis=1)
    support[size < 2] = False
    shift = np.zeros_like(rows)
    shift[support] = rng.random(np.count_nonzero(support))
    shift *= width
    np.subtract(shift, width / 2.0, out=shift, where=support)
    mean = shift.sum(axis=1) / np.maximum(size, 1)
    np.subtract(shift, mean[:, None], out=shift, where=support)
    out = rows + shift
    leaves = np.unique(np.flatnonzero((out < 0.0) | (out > 1.0)) // mdp.num_states)
    if leaves.size:
        row, moving, on = rows[leaves], shift[leaves], support[leaves]
        lo = np.where(on, row / np.maximum(-moving, 1e-300), np.inf).min(axis=1)
        hi = np.where(on, (1.0 - row) / np.maximum(moving, 1e-300), np.inf).min(axis=1)
        out[leaves] = row + moving * np.minimum(1.0, 0.5 * np.minimum(lo, hi))[:, None]
    return out.reshape(mdp.transitions.shape)


@st.composite
def perturbation_cases(draw):
    """(mdp, bound, scale, block): a seeded table, dense or sparse, where every k-th row
    may be a point mass, and a block size from one entry (every row wider than its
    block) to more than the whole table."""
    n_s, n_a, horizon = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mdp = random_mdp(n_s, n_a, horizon, sparsity=draw(st.sampled_from([1.0, 0.5, 0.1])),
                     seed=draw(st.integers(0, 99)))
    t = np.array(mdp.transitions)
    every = draw(st.sampled_from([0, 1, 2, 3]))
    if every:
        rows = t.reshape(-1, n_s)
        rows[::every] = np.eye(n_s)[draw(st.integers(0, n_s - 1))]
    bound = 10.0 ** draw(st.floats(-6.0, 0.0))  # from 1e-6 to bounds where the shrink fires
    block = draw(st.sampled_from([1, 7, 64, t.size // 2 + 1, 2 * t.size]))
    return FiniteHorizonMdp(t, mdp.rewards), bound, draw(st.sampled_from([1.0, 0.3])), block


SHRINKING = FiniteHorizonMdp(np.tile([0.02, 0.98], (1, 2, 1, 1)), np.zeros((1, 2, 1)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=perturbation_cases())
@example(case=(SHRINKING, 0.125, 1.0, qvi_module._BLOCK))
@example(case=(random_mdp(40, 8, 12, seed=1), 1e-5, 1.0, qvi_module._BLOCK))
@example(case=(random_mdp(40, 8, 12, sparsity=0.1, seed=2), 0.05, 1.0, qvi_module._BLOCK))
def test_perturbed_transitions_equal_the_whole_table_pass(case):
    mdp, bound, scale, block = case
    rng, expected_rng = np.random.default_rng(5), np.random.default_rng(5)
    expected = whole_table_perturbed_transitions(mdp, bound, expected_rng, scale)
    with mock.patch.object(qvi_module, "_BLOCK", block):
        moved = perturbed_transitions(mdp, bound, rng, scale)
    assert moved.tobytes() == expected.tobytes()
    assert rng.random() == expected_rng.random()


@pytest.mark.parametrize("sparsity", [1.0, 0.1])
def test_perturbed_transitions_hold_one_table_and_a_block_of_scratch(sparsity):
    mdp = random_mdp(100, 10, 10, sparsity=sparsity, seed=0)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        moved = perturbed_transitions(mdp, 1e-5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * moved.nbytes


def test_qvi5_accounting_includes_conversion_multiplier():
    mdp = sparse_chain(5, 3, 3, seed=7)
    for config in CONFIGS.values():
        ledger = QueryLedger()
        qvi5(mdp, 0.5, 0.1, 0.3, EmulatedProvider(config), ledger)
        assert btp_multiplier(0.5 / (4 * 5 * 3**2), 0.3) > 1
        assert ledger.as_dict() == replay_ledger("qvi5", 5, 3, 3, config, eps=0.5, delta=0.1,
                                                 eta=0.3, qms_budget_mode="per_state")


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


def test_qvi2_runs_on_statevector_provider():
    # same algorithm, tiny instance, exact-statevector mean estimation behind
    # the provider surface; estimates are genuinely sampled so the guarantee
    # is probabilistic -- check the eps window and the reflection accounting.
    from qvilab import StatevectorProvider, FixedPointFormat, exact_value_iteration

    # S = 16 would need a 2^(4+16+2)-amplitude register per row in full
    for n_s in (2, 16):
        mdp = random_mdp(n_s, 2, 2, seed=15)
        prov = StatevectorProvider(SubroutineConfig(rng_seed=1), fmt=FixedPointFormat(16, 12))
        ledger = QueryLedger()
        result = qvi2(mdp, 1.0, 0.1, prov, ledger)
        _, v_star, _ = exact_value_iteration(mdp)
        assert np.abs(result.values.values - v_star.values).max() <= 1.0 + 0.01
        assert ledger.count("quantum_mdp") > 0
        assert ledger.count("func_binary") == ledger.count("quantum_mdp")
        # nested accounting uses the statevector call cost 2*T*K
        zeta = 0.1 / (4 * n_s * 2**1.5 * 2 * math.log(1 / 0.1))
        per_call = prov.qmebo_call_cost(n_s, 1.0 / (2 * 2**2), zeta)
        probes = qms_query_count(2, 0.1 / (n_s * 2), prov.config)
        assert ledger.count("quantum_mdp") == 2 * n_s * probes * per_call


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

    assert path.read_text() == json.dumps(r1.to_json())
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


@pytest.mark.parametrize("algo", ["qvi2", "qvi3", "qvi5"])
@pytest.mark.parametrize("mode", ["exact", "adversarial_low", "adversarial_high"])
@CONTRACT
@given(data=st.data())
def test_values_are_sandwiched(algo, mode, data):
    mdp, eps, result, _ = data.draw(solver_runs(algo, modes=(mode,)))
    assert sandwich_holds(mdp, result, eps)


@pytest.mark.parametrize("algo, backend", [(name, EmulatedProvider) for name in
                                           ("qvi1", "qvi2", "qvi3", "qvi5")]
                         + [("qvi2", StatevectorProvider)])
@CONTRACT
@given(data=st.data())
def test_trace_queries_sum_to_the_ledger(algo, backend, data):
    mdp, _, result, ledger = data.draw(solver_runs(algo, backend, injection=(False, True)))
    assert [r.h for r in result.trace] == list(range(mdp.horizon))[::-1]
    expected = ledger.as_dict()
    if result.algorithm == "qvi5":
        expected["oracle_conversion"] -= 1  # the one conversion, charged before any step
    assert {name: sum(r.queries[name] for r in result.trace) for name in ORACLES} == expected


REPLAYED = {name: EmulatedProvider for name in ALGORITHMS} | {"qvi2_sv": StatevectorProvider}


@pytest.mark.parametrize("algo, backend", REPLAYED.items(), ids=REPLAYED.keys())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ledger_equals_its_closed_form_replay(algo, backend, data):
    n_s, n_a, horizon = (data.draw(st.integers(1, top)) for top in (5, 4, 4))
    mdp = random_mdp(n_s, n_a, horizon, sparsity=data.draw(st.sampled_from([1.0, 0.5])),
                     seed=data.draw(st.integers(0, 999)))
    eps, delta = data.draw(st.floats(0.1, 2.5)), data.draw(st.floats(0.001, 0.9))
    eta = data.draw(st.sampled_from([min(float(mdp.transitions[mdp.transitions > 0].min()), 0.49),
                                     0.6]))
    config = SubroutineConfig(noise_mode=data.draw(st.sampled_from(NOISE_MODES)),
                              failure_injection=data.draw(st.booleans()),
                              rng_seed=data.draw(st.integers(0, 999)))
    for mode in QMS_BUDGET_MODES:
        ledger = QueryLedger()
        try:
            solve(algo.removesuffix("_sv"), mdp, backend(config), ledger, eps=eps, delta=delta,
                  eta=eta, qms_budget_mode=mode)
        except InfeasibleParams:
            assert ledger.total == 0
            continue
        assert ledger.as_dict() == replay_ledger(algo, n_s, n_a, horizon, config, eps=eps,
                                                 delta=delta, eta=eta, qms_budget_mode=mode)


@pytest.mark.parametrize("algo", TRACED)
def test_trace_counts_injected_failures(algo):
    mdp = sparse_chain(4, 3, 3, seed=4)
    failed_estimates = failed_searches = drawn = 0
    for seed in range(10):
        prov = RecordingProvider(SubroutineConfig(rng_seed=seed, failure_injection=True))
        result = solve(algo, mdp, prov, QueryLedger(), eps=0.5, delta=0.97, eta=0.3)
        failed_estimates += sum(r.failed_estimates for r in result.trace)
        failed_searches += sum(r.failed_searches for r in result.trace)
        drawn += sum(int(np.count_nonzero(est.failed)) for _, _, est in prov.calls)
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
# The instance the ordering tests below run on, and an eta that is a valid
# lower bound for it (its smallest supported probability), so qvi5 passes
# that check and reaches the one under test.
TINY_MDP = random_mdp(2, 2, 2, seed=0)
TINY_ETA = float(TINY_MDP.transitions[TINY_MDP.transitions > 0].min())


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
        ("qvi5", dict(delta=0.999, eta=TINY_ETA), "estimator failure budget"),
        ("qvi5", dict(eta=TINY_ETA, perturb_scale=2.0), "perturb_scale must be in [0, 1]"),
        ("qvi5", dict(eta=TINY_ETA, perturb_scale=-1.0), "perturb_scale must be in [0, 1]"),
        ("qvi5", dict(eta=TINY_ETA, perturb_scale=math.nan), "perturb_scale must be in [0, 1]"),
    ],
)
def test_infeasible_params_raise_before_any_charge_or_draw(algo, bad, reason):
    mdp = TINY_MDP
    prov, ledger = provider(0), QueryLedger()
    rng_state = prov.rng.bit_generator.state
    params = FEASIBLE | bad
    with pytest.raises(InfeasibleParams) as err:
        if "perturb_scale" in params:  # a qvi5 keyword that solve does not pass
            qvi5(mdp, params["eps"], params["delta"], params["eta"], prov, ledger,
                 perturb_scale=params["perturb_scale"])
        else:
            solve(algo, mdp, prov, ledger, **params)
    assert reason in str(err.value)
    assert ledger.total == 0
    assert prov.rng.bit_generator.state == rng_state


@pytest.mark.parametrize("algo", ["qvi2", "qvi3", "qvi5"])
def test_bad_qms_budget_mode_raises_before_any_charge_or_draw(algo):
    mdp = TINY_MDP
    prov, ledger = provider(0), QueryLedger()
    rng_state = prov.rng.bit_generator.state
    with pytest.raises(ValueError, match="qms_budget_mode"):
        solve(algo, mdp, prov, ledger, **(FEASIBLE | dict(eta=TINY_ETA)), qms_budget_mode="bogus")
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
