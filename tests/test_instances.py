"""Instance generators: hard families, horizon reduction, seeded randoms."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvilab import (
    HardInstanceSpec,
    HorizonReductionSpec,
    brute_force_optimal,
    exact_value_iteration,
    hard_instance_optimal_start_values,
    make_hard_instance,
    make_horizon_reduction,
    random_mdp,
)


def discounted_value_iteration(p, r, gamma, tol=1e-13):
    """Oracle: exact discounted fixed point by iteration to sup-norm tol."""
    n_s = r.shape[0]
    v = np.zeros(n_s)
    while True:
        v_next = (r + gamma * (p @ v)).max(axis=1)
        if np.abs(v_next - v).max() <= tol:
            return v_next
        v = v_next


def test_hard_instance_spec_validation():
    with pytest.raises(ValueError):
        HardInstanceSpec(num_states=6, num_actions=3, horizon=4)  # not 1 mod 3
    with pytest.raises(ValueError):
        HardInstanceSpec(num_states=7, num_actions=1, horizon=4)
    with pytest.raises(ValueError):
        HardInstanceSpec(num_states=7, num_actions=3, horizon=1)
    with pytest.raises(ValueError):
        HardInstanceSpec(
            num_states=7, num_actions=3, horizon=4, variant="M2", distinguished_state=0
        )  # state 0 is in the good block


@pytest.mark.parametrize("num_states", [4, 7, 10])
@pytest.mark.parametrize("horizon", [2, 5, 8])
def test_hard_instances_match_closed_form(num_states, horizon):
    m1 = HardInstanceSpec(num_states=num_states, num_actions=3, horizon=horizon)
    m2 = HardInstanceSpec(
        num_states=num_states, num_actions=3, horizon=horizon, variant="M2"
    )
    _, v1, _ = exact_value_iteration(make_hard_instance(m1))
    _, v2, _ = exact_value_iteration(make_hard_instance(m2))
    np.testing.assert_allclose(v1.values[0], hard_instance_optimal_start_values(m1), atol=1e-9)
    np.testing.assert_allclose(v2.values[0], hard_instance_optimal_start_values(m2), atol=1e-9)
    gap = np.abs(v1.values[0] - v2.values[0]).max()
    assert gap == pytest.approx((horizon - 1) / 2, abs=1e-12)


def test_m2_custom_distinguished_triple():
    # any (state, action, target) choice from the family keeps the closed form
    spec = HardInstanceSpec(
        num_states=10, num_actions=4, horizon=5, variant="M2",
        distinguished_state=8, distinguished_action=2, target_state=1, seed=3,
    )
    _, v, _ = exact_value_iteration(make_hard_instance(spec))
    np.testing.assert_allclose(v.values[0], hard_instance_optimal_start_values(spec), atol=1e-9)
    assert v.values[0, 8] == pytest.approx(4.0)


def test_m2_differs_from_m1_only_at_distinguished_pair():
    m1 = HardInstanceSpec(num_states=7, num_actions=4, horizon=3, seed=2)
    m2 = HardInstanceSpec(num_states=7, num_actions=4, horizon=3, variant="M2", seed=2)
    a1 = make_hard_instance(m1)
    a2 = make_hard_instance(m2)
    diff = np.argwhere(a1.transitions[0] != a2.transitions[0])
    assert {(s, a) for s, a, _ in map(tuple, diff)} == {
        (m2.distinguished_state, m2.distinguished_action)
    }
    np.testing.assert_array_equal(a1.rewards, a2.rewards)


# ---------------------------------------------------------------------------
# horizon reduction
# ---------------------------------------------------------------------------


def small_base(n_s, n_a, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
    r = rng.random((n_s, n_a))
    return p, r


def test_reduction_horizon_formula():
    p, r = small_base(2, 2, 0)
    spec = HorizonReductionSpec(p, r, gamma=0.9, eps=0.1)
    assert spec.horizon == math.ceil(20 * math.log(20)) == 60


def test_reduction_gamma_zero_is_single_effective_step():
    p, r = small_base(3, 2, 1)
    spec = HorizonReductionSpec(p, r, gamma=0.0, eps=0.1)
    mdp = make_horizon_reduction(spec)
    # Every state jumps straight to the sink, so only the first reward counts.
    _, v, _ = exact_value_iteration(mdp)
    np.testing.assert_allclose(v.values[0, :3], r.max(axis=1), atol=1e-12)


def test_reduction_sandwich_against_discounted_oracle():
    p, r = small_base(2, 2, 3)
    spec = HorizonReductionSpec(p, r, gamma=0.8, eps=0.1)
    mdp = make_horizon_reduction(spec)
    _, v, _ = exact_value_iteration(mdp)
    v_inf = discounted_value_iteration(p, r, 0.8)
    finite = v.values[0, :2]
    assert (finite <= v_inf + 1e-9).all()
    assert (v_inf - spec.eps <= finite).all()


def test_reduction_sink_is_worthless_at_every_step():
    p, r = small_base(3, 3, 4)
    spec = HorizonReductionSpec(p, r, gamma=0.5, eps=0.2)
    mdp = make_horizon_reduction(spec)
    _, v, _ = exact_value_iteration(mdp)
    assert np.abs(v.values[:, spec.sink_state]).max() == 0.0


def test_reduction_validation():
    p, r = small_base(2, 2, 0)
    with pytest.raises(ValueError):
        HorizonReductionSpec(p, r, gamma=1.0, eps=0.1)
    with pytest.raises(ValueError):
        HorizonReductionSpec(p, r, gamma=0.5, eps=0.6)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def test_random_mdp_minimal_sparsity_is_deterministic():
    mdp = random_mdp(5, 3, 4, sparsity=1 / 5, seed=0)
    assert ((mdp.transitions == 0) | (mdp.transitions == 1)).all()


def test_random_mdp_seed_reproducible_serialization():
    a = json.dumps(random_mdp(4, 3, 3, seed=42).to_json())
    b = json.dumps(random_mdp(4, 3, 3, seed=42).to_json())
    assert a == b
    c = json.dumps(random_mdp(4, 3, 3, seed=43).to_json())
    assert a != c


def test_random_mdp_rows_sum_to_one_statistical_sweep():
    # 10^4 rows across shapes and sparsities.
    rows = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(3, 10))
        mdp = random_mdp(s, int(rng.integers(2, 6)), int(rng.integers(5, 30)),
                         sparsity=float(rng.uniform(0.3, 1.0)), seed=seed)
        sums = mdp.transitions.sum(axis=3)
        assert np.abs(sums - 1.0).max() <= 1e-12
        rows += sums.size
    assert rows >= 10**4


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    num_states=st.integers(1, 12),
    num_actions=st.integers(1, 4),
    horizon=st.integers(1, 4),
    sparsity=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 2),
)
def test_random_mdp_contract(num_states, num_actions, horizon, sparsity, seed):
    mdp = random_mdp(num_states, num_actions, horizon, sparsity=sparsity, seed=seed)
    p, r = mdp.transitions, mdp.rewards
    k = math.ceil(sparsity * num_states)
    assert np.abs(p.sum(axis=3) - 1.0).max() <= 1e-12
    assert ((p > 0).sum(axis=3) == k).all()
    if k == 1:
        assert (p[p > 0] == 1.0).all()
    assert ((r >= 0.0) & (r < 1.0)).all()
    again = random_mdp(num_states, num_actions, horizon, sparsity=sparsity, seed=seed)
    assert (again.transitions.tobytes(), again.rewards.tobytes()) == (p.tobytes(), r.tobytes())
    other = random_mdp(num_states, num_actions, horizon, sparsity=sparsity, seed=seed + 1)
    assert other.rewards.tobytes() != r.tobytes()


@pytest.mark.parametrize("sparsity", [0.25, 1.0])
def test_random_mdp_support_and_weights_are_uniform(sparsity):
    # Every next state is supported with frequency k/S, and a supported
    # entry is Beta(1, k - 1) with mean 1/k, whichever state it sits on.
    n_s = 20
    mdp = random_mdp(n_s, 10, 10, sparsity=sparsity, seed=3)
    rows = mdp.transitions.reshape(-1, n_s)
    k = math.ceil(sparsity * n_s)
    supported = rows > 0
    freq = k / n_s
    assert (np.abs(supported.mean(axis=0) - freq)
            <= 5 * math.sqrt(freq * (1 - freq) / len(rows))).all()
    entry_sd = math.sqrt((k - 1) / (k * k * (k + 1)))
    for sp in range(n_s):
        entries = rows[supported[:, sp], sp]
        assert abs(entries.mean() - 1 / k) <= 5 * entry_sd / math.sqrt(len(entries))


def test_random_mdp_scratch_memory_is_one_step():
    # Drawing one step at a time keeps the scratch a 1/H slice (whole-table
    # keys and indices would read about 3.2x); the table is handed to
    # FiniteHorizonMdp uncopied (a copy read 2.2x).
    n_s, n_a, horizon = 100, 10, 20
    table_bytes = horizon * n_s * n_a * n_s * 8
    tracemalloc.start()
    try:
        random_mdp(n_s, n_a, horizon, sparsity=0.1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * table_bytes


def test_random_mdp_rejects_bad_sparsity():
    with pytest.raises(ValueError):
        random_mdp(3, 2, 2, sparsity=0.0)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------


def test_brute_force_single_state_reduces_to_argmax_sequence():
    mdp = random_mdp(1, 4, 3, seed=6)
    pi, v = brute_force_optimal(mdp)
    pi_vi, v_vi, _ = exact_value_iteration(mdp)
    np.testing.assert_array_equal(pi.actions, pi_vi.actions)
    np.testing.assert_allclose(v.values, v_vi.values, atol=1e-12)


def test_brute_force_single_step_is_greedy():
    mdp = random_mdp(3, 3, 1, seed=7)
    pi, _ = brute_force_optimal(mdp)
    np.testing.assert_array_equal(pi.actions[:, 0], mdp.rewards[0].argmax(axis=1))


def test_brute_force_matches_vi_on_seeded_instance():
    mdp = random_mdp(3, 2, 3, seed=19)
    pi_bf, v_bf = brute_force_optimal(mdp)
    pi_vi, v_vi, _ = exact_value_iteration(mdp)
    np.testing.assert_allclose(v_bf.values, v_vi.values, atol=1e-9)
    np.testing.assert_array_equal(pi_bf.actions, pi_vi.actions)


def test_brute_force_cap():
    with pytest.raises(ValueError, match="cap"):
        brute_force_optimal(random_mdp(4, 4, 4, seed=0), cap=10**3)
