"""Exact baseline tests: backward induction, policy evaluation, variances.

Derived expectations are computed by independent oracles defined here
(exhaustive policy enumeration, Monte-Carlo rollouts, extended-precision
summation, definitional variance enumeration) rather than by the code paths
under test.
"""
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qvilab import (
    FiniteHorizonMdp,
    MdpValidationError,
    Policy,
    QueryLedger,
    ValueTable,
    bellman_backup,
    brute_force_optimal,
    classical_generative_sample,
    eps_optimality_report,
    exact_value_iteration,
    policy_value,
    random_mdp,
    sigma_squared,
    total_variance_norm,
)
from qvilab import mdp as mdp_module
from qvilab.instances import HardInstanceSpec, hard_instance_optimal_start_values, make_hard_instance


def zero_reward_mdp(S=3, A=2, H=4, seed=0):
    base = random_mdp(S, A, H, seed=seed)
    return FiniteHorizonMdp(base.transitions, np.zeros_like(base.rewards))


def deterministic_mdp(S=4, A=3, H=3, seed=0):
    return random_mdp(S, A, H, sparsity=1.0 / S, seed=seed)


def random_policy(mdp, seed=0):
    rng = np.random.default_rng(seed)
    return Policy(rng.integers(mdp.num_actions, size=(mdp.num_states, mdp.horizon)))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_rejects_nonstochastic_row_and_names_it():
    t = np.zeros((1, 2, 1, 2))
    t[0, 0, 0] = [0.5, 0.5]
    t[0, 1, 0] = [0.7, 0.2]  # sums to 0.9
    r = np.zeros((1, 2, 1))
    with pytest.raises(MdpValidationError, match=r"h=0, s=1, a=0"):
        FiniteHorizonMdp(t, r)


def test_rejects_reward_out_of_range():
    t = np.zeros((1, 1, 1, 1))
    t[0, 0, 0, 0] = 1.0
    with pytest.raises(MdpValidationError, match="reward"):
        FiniteHorizonMdp(t, [[[1.5]]])


NAN_INF_MESSAGES = {
    "transitions": r"transition probability out of \[0, 1\] at \(h=0, s=1, a=0, s'=1\)",
    "rewards": r"reward out of \[0, 1\] at \(h=0, s=1, a=0\)",
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("table", sorted(NAN_INF_MESSAGES))
def test_rejects_nan_and_inf_in_tables_and_files(tmp_path, table, value):
    # Every comparison with NaN is False, so an "outside" test lets it through.
    tables = {"transitions": np.full((1, 2, 1, 2), 0.5), "rewards": np.zeros((1, 2, 1))}
    tables[table][0, 1, 0, ...] = value if table == "rewards" else [0.5, value]
    where = NAN_INF_MESSAGES[table]
    with pytest.raises(MdpValidationError, match=where):
        FiniteHorizonMdp(**tables)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"S": 2, "A": 1, "H": 1,
                                **{k: v.tolist() for k, v in tables.items()}}))
    with pytest.raises(MdpValidationError, match=where):
        FiniteHorizonMdp.load(path)


def test_mdp_is_immutable_and_json_round_trips(tmp_path):
    mdp = random_mdp(3, 2, 2, seed=5)
    with pytest.raises(ValueError):
        mdp.transitions[0, 0, 0, 0] = 0.5
    path = tmp_path / "m.json"
    mdp.save(path)
    assert path.read_text() == json.dumps(mdp.to_json())
    back = FiniteHorizonMdp.load(path)
    assert back.transitions.tobytes() == mdp.transitions.tobytes()
    assert back.rewards.tobytes() == mdp.rewards.tobytes()
    blob = json.loads(path.read_text())
    assert (blob["S"], blob["A"], blob["H"]) == (3, 2, 2)


def test_loader_rejects_mismatched_declared_shape():
    mdp = random_mdp(3, 2, 2, seed=5)
    blob = mdp.to_json()
    blob["S"] = 4
    with pytest.raises(MdpValidationError, match="declared"):
        FiniteHorizonMdp.from_json(blob)


# ---------------------------------------------------------------------------
# the file format: save and load one step at a time
# ---------------------------------------------------------------------------

# Entries whose text is easy to get wrong: the sign of zero, the smallest
# subnormal, a tiny normal, and one.
SPECIAL = [-0.0, 5e-324, 1e-300, 1.0]
FILE_FORMAT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """Dense, sparse and S = 1 instances, some zeros and rewards made special entries."""
    n_s, n_a, horizon = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = random_mdp(n_s, n_a, horizon, sparsity=draw(st.sampled_from([1.0, 0.5, 0.1])),
                      seed=draw(st.integers(0, 999)))
    t, r = base.transitions.copy(), base.rewards.copy()
    zeros = np.flatnonzero(t == 0)
    for k, value in draw(st.lists(st.tuples(st.integers(0, 999), st.sampled_from(SPECIAL[:3])),
                                  max_size=4)):
        if zeros.size:
            t.flat[zeros[k % zeros.size]] = value
    for k, value in draw(st.lists(st.tuples(st.integers(0, 999), st.sampled_from(SPECIAL + [0.0])),
                                  max_size=4)):
        r.flat[k % r.size] = value
    return FiniteHorizonMdp(t, r)


def assert_same_tables(a, b):
    assert a.transitions.tobytes() == b.transitions.tobytes()
    assert a.rewards.tobytes() == b.rewards.tobytes()


@FILE_FORMAT
@given(mdp=instances())
def test_save_writes_json_dumps_of_to_json_and_load_reads_it_back(tmp_path_factory, mdp):
    path = tmp_path_factory.mktemp("io") / "m.json"
    mdp.save(path)
    assert path.read_text() == json.dumps(mdp.to_json())
    assert_same_tables(FiniteHorizonMdp.load(path), mdp)


def test_save_keeps_the_sign_of_zero_and_subnormals(tmp_path):
    t = np.array([[[[1.0, -0.0, 0.0]]] * 3])
    t[0, 1, 0] = [1.0 - 1e-300, 1e-300, 5e-324]
    r = np.array([[[-0.0], [5e-324], [1.0]]])
    mdp = FiniteHorizonMdp(t, r)
    path = tmp_path / "m.json"
    mdp.save(path)
    text = path.read_text()
    assert text == json.dumps(mdp.to_json())
    assert "[[[1.0, -0.0, 0.0]], [[1.0, 1e-300, 5e-324]], [[1.0, -0.0, 0.0]]]" in text
    assert_same_tables(FiniteHorizonMdp.load(path), mdp)


REFORMATS = {
    "indent": lambda obj: json.dumps(obj, indent=2),
    "compact": lambda obj: json.dumps(obj, separators=(",", ":")),
    "reordered": lambda obj: json.dumps(dict(reversed(list(obj.items())))),
    "duplicated": lambda obj: ('{"rewards": [[[0.5]]], "transitions": 3, "H": 9,'
                               + json.dumps(obj)[1:]),
    "whitespace": lambda obj: " \n\t" + json.dumps(obj).replace(", ", " ,\n ") + "\r\n",
    "extra keys": lambda obj: json.dumps({"seed": 1234567, "scale": -1.25e-300, **obj}),
}


@pytest.mark.parametrize("layout", sorted(REFORMATS))
@settings(FILE_FORMAT, max_examples=15)
@given(mdp=instances())
def test_load_reads_any_layout_as_json_load_and_from_json_do(tmp_path_factory, mdp, layout):
    path = tmp_path_factory.mktemp("io") / "m.json"
    path.write_text(REFORMATS[layout](mdp.to_json()))
    with open(path) as fh:
        expected = FiniteHorizonMdp.from_json(json.load(fh))
    assert_same_tables(FiniteHorizonMdp.load(path), expected)
    assert_same_tables(expected, mdp)


MALFORMED = {
    "trailing data": lambda text: text + " {}",
    "top-level list": lambda text: "[" + text + "]",
    "ragged step": lambda text: text.replace("]], [[", "], [", 1),
    "scalar table": lambda text: text.replace('"transitions": [', '"transitions": 3, "x": [', 1),
    "no rewards": lambda text: text.replace('"rewards"', '"reward"'),
    "empty table": lambda text: text.replace('"rewards": [', '"rewards": [], "x": [', 1),
    "object step": lambda text: text.replace('"transitions": [', '"transitions": [{}, ', 1),
    "string step": lambda text: text.replace('"transitions": [', '"transitions": ["a", ', 1),
    "unquoted key": lambda text: text.replace('"S"', "S"),
    "missing colon": lambda text: text.replace('"A":', '"A"'),
    "missing comma": lambda text: text.replace("]], [[", "]] [[", 1),
    "trailing comma": lambda text: text[:-1] + ", }",
    "boolean entry": lambda text: re.sub(r'"rewards": \[\[\[[^,\]]+', '"rewards": [[[true', text),
    "null entry": lambda text: re.sub(r'"rewards": \[\[\[[^,\]]+', '"rewards": [[[null', text),
    # json's decoder raises RecursionError past the recursion limit
    "deep nesting": lambda text: text.replace("{", '{"x": ' + "[" * 10**5 + "]" * 10**5 + ", ", 1),
    # sizes whose table no file this short can hold, so none is allocated for them
    "huge sizes": lambda text: text.replace('"S": ', '"S": 1000000', 1),
    # step 0 of rewards gets a copy of its first row, so it has S + 1 rows
    "steps of different shapes": lambda text: re.sub(r'"rewards": \[\[(\[[^\]]*\])',
                                                     r'"rewards": [[\1, \1', text),
}


def assert_load_raises_value_error(path, text):
    path.write_text(text)
    with pytest.raises((json.JSONDecodeError, MdpValidationError)):
        FiniteHorizonMdp.load(path)


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@settings(FILE_FORMAT, max_examples=10)
@given(mdp=instances())
def test_load_rejects_malformed_files_with_a_value_error(tmp_path_factory, mdp, kind):
    text = json.dumps(mdp.to_json())
    bad = MALFORMED[kind](text)
    assume(bad != text)  # the ragged and missing-comma edits need S > 1 or H > 1
    assert_load_raises_value_error(tmp_path_factory.mktemp("io") / "m.json", bad)


@FILE_FORMAT
@given(mdp=instances(), data=st.data())
def test_load_rejects_truncated_files_with_a_value_error(tmp_path_factory, mdp, data):
    text = json.dumps(mdp.to_json())
    cut = data.draw(st.integers(0, len(text) - 1), label="cut")
    assert_load_raises_value_error(tmp_path_factory.mktemp("io") / "m.json", text[:cut])


def load_outcome(path):
    """The loaded tables' bytes, or the type of the error that loading raised and its position."""
    try:
        mdp = FiniteHorizonMdp.load(path)
    except ValueError as err:
        return type(err), getattr(err, "pos", None)
    return mdp.transitions.tobytes(), mdp.rewards.tobytes()


WINDOW_EDITS = {
    **{f"layout {name}": layout for name, layout in REFORMATS.items()},
    **{f"malformed {name}": (lambda obj, edit=edit: edit(json.dumps(obj)))
       for name, edit in MALFORMED.items()},
}


@settings(FILE_FORMAT, max_examples=200)
@given(mdp=instances(), edit=st.sampled_from(sorted(WINDOW_EDITS) + ["truncated"]),
       window=st.integers(1, 8), cut=st.integers(0, 10**6))
@example(mdp=random_mdp(3, 2, 2, seed=1), edit="layout extra keys", window=2, cut=0)
def test_load_reads_the_same_across_window_edges(tmp_path_factory, mdp, edit, window, cut):
    # Windows of a few characters cut every value, item and step somewhere;
    # at 2 characters, one cuts "-1.25e-300" after "-1.".
    text = json.dumps(mdp.to_json())
    edited = text[:cut % len(text)] if edit == "truncated" else WINDOW_EDITS[edit](mdp.to_json())
    path = tmp_path_factory.mktemp("io") / "m.json"
    path.write_text(edited)
    expected = load_outcome(path)
    with mock.patch.object(mdp_module, "_WINDOW", window):
        assert load_outcome(path) == expected
    if edit.startswith("layout"):
        with open(path) as fh:
            reference = FiniteHorizonMdp.from_json(json.load(fh))
        assert expected == (reference.transitions.tobytes(), reference.rewards.tobytes())
    elif edited != text:
        assert expected[0] in (json.JSONDecodeError, MdpValidationError)


def test_file_io_memory_is_one_step_and_construction_copies_nothing(tmp_path):
    # Save holds one step as text; load holds its one table, a window or two of
    # text and one step or item as Python floats; neither random_mdp nor load
    # copies its finished table.  The indent=2 file's text is more than twice
    # its tables, and load holds less than that text.
    n_s, n_a, horizon = 100, 10, 20
    table_bytes = horizon * n_s * n_a * n_s * 8
    path, indented = tmp_path / "io.json", tmp_path / "indented.json"
    small = random_mdp(64, 5, 8, sparsity=0.1, seed=1)
    indented.write_text(json.dumps(small.to_json(), indent=2))
    indented_bytes = indented.stat().st_size
    assert indented_bytes > 2 * (small.transitions.nbytes + small.rewards.nbytes)
    peaks = {}
    tracemalloc.start()
    try:
        mdp = random_mdp(n_s, n_a, horizon, sparsity=0.1, seed=0)
        peaks["random_mdp"] = tracemalloc.get_traced_memory()[1]
        for name, op in (("save", lambda: mdp.save(path)),
                         ("load", lambda: FiniteHorizonMdp.load(path)),
                         ("load indented", lambda: FiniteHorizonMdp.load(indented))):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            op()
            peaks[name] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peaks["random_mdp"] < 1.5 * table_bytes
    assert peaks["save"] < 0.25 * table_bytes
    assert peaks["load"] < 1.25 * table_bytes
    assert peaks["load indented"] < indented_bytes


def test_load_allocates_its_first_table_before_it_reads_a_window(tmp_path, monkeypatch):
    # A window read first can take part of the free heap block that the table
    # would fit in; on sweep-io, peak_rss_mb then read 135 instead of 120 MB.
    path = tmp_path / "m.json"
    random_mdp(40, 5, 8, sparsity=0.1, seed=0).save(path)
    events, real_empty = [], np.empty

    class RecordedFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def fileno(self):
            return self.fh.fileno()

        def read(self, n):
            events.append(n)
            return self.fh.read(n)

    monkeypatch.setattr(mdp_module, "open", lambda p: RecordedFile(open(p)), raising=False)
    monkeypatch.setattr(np, "empty", lambda shape: events.append(shape) or real_empty(shape))
    FiniteHorizonMdp.load(path)
    first_table = next(i for i, event in enumerate(events) if isinstance(event, tuple))
    assert events[first_table] == (8, 40, 5, 40)
    later_reads = [n for n in events[first_table:] if isinstance(n, int)]
    assert sum(events[:first_table]) < mdp_module._WINDOW / 2 <= max(later_reads)


def test_public_constructor_copies_and_built_tables_are_read_only(tmp_path):
    t = np.full((1, 2, 1, 2), 0.5)
    r = np.zeros((1, 2, 1))
    mdp = FiniteHorizonMdp(t, r)
    t[0, 0, 0] = [1.0, 0.0]
    r[0, 0, 0] = 1.0
    assert mdp.transitions[0, 0, 0].tolist() == [0.5, 0.5]
    assert mdp.rewards[0, 0, 0] == 0.0
    built = random_mdp(3, 2, 2, sparsity=0.5, seed=1)
    path = tmp_path / "m.json"
    built.save(path)
    for one in (mdp, built, FiniteHorizonMdp.load(path)):
        for table in (one.transitions, one.rewards):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0.25


def test_value_table_requires_zero_terminal_layer():
    with pytest.raises(ValueError):
        ValueTable(np.ones((3, 2)))


# ---------------------------------------------------------------------------
# exact value iteration
# ---------------------------------------------------------------------------


def test_vi_matches_hard_instance_closed_form():
    spec = HardInstanceSpec(num_states=7, num_actions=3, horizon=4)
    _, v, _ = exact_value_iteration(make_hard_instance(spec))
    np.testing.assert_allclose(v.values[0], hard_instance_optimal_start_values(spec), atol=1e-9)


def test_vi_single_step_is_greedy():
    mdp = random_mdp(4, 3, 1, seed=7)
    pi, v, _ = exact_value_iteration(mdp)
    np.testing.assert_allclose(v.values[0], mdp.rewards[0].max(axis=1), atol=0)
    np.testing.assert_array_equal(pi.actions[:, 0], mdp.rewards[0].argmax(axis=1))


def test_vi_matches_exhaustive_policy_enumeration():
    mdp = random_mdp(3, 2, 3, seed=11)
    pi_bf, v_bf = brute_force_optimal(mdp)
    pi_vi, v_vi, _ = exact_value_iteration(mdp)
    np.testing.assert_allclose(v_vi.values, v_bf.values, atol=1e-9)
    np.testing.assert_array_equal(pi_vi.actions, pi_bf.actions)


def test_bellman_consistency_invariant():
    for seed in range(5):
        mdp = random_mdp(5, 4, 6, seed=seed)
        pi, v, q = exact_value_iteration(mdp)
        for h in range(mdp.horizon):
            expect = mdp.rewards[h] + mdp.transitions[h] @ v.values[h + 1]
            assert np.abs(q.qvalues[h] - expect).max() <= 1e-9
            assert np.abs(v.values[h] - q.qvalues[h].max(axis=1)).max() <= 1e-9


def test_vi_policy_dominates_random_policies():
    mdp = random_mdp(5, 3, 5, seed=3)
    _, v_star, _ = exact_value_iteration(mdp)
    for seed in range(20):
        v_pi = policy_value(mdp, random_policy(mdp, seed))
        assert (v_pi.values <= v_star.values + 1e-9).all()


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------


def test_policy_value_safe_action_on_hard_instance():
    spec = HardInstanceSpec(num_states=7, num_actions=3, horizon=5)
    mdp = make_hard_instance(spec)
    # Always play the safe action: uncertain states park on the neutral state.
    pi = Policy(np.full((7, 5), spec.safe_action))
    v = policy_value(mdp, pi)
    for s in spec.uncertain_states:
        assert v.values[0, s] == pytest.approx((spec.horizon - 1) / 2, abs=1e-12)


def test_policy_value_zero_rewards():
    mdp = zero_reward_mdp()
    v = policy_value(mdp, random_policy(mdp, 1))
    assert np.abs(v.values).max() == 0.0


def rollout_mean(mdp, pi, start, n, seed):
    """Monte-Carlo oracle: mean return of n simulated trajectories."""
    rng = np.random.default_rng(seed)
    states = np.full(n, start)
    total = np.zeros(n)
    for h in range(mdp.horizon):
        acts = pi.actions[states, h]
        total += mdp.rewards[h, states, acts]
        rows = mdp.transitions[h, states, acts]
        draws = rng.random(n)
        states = np.minimum(
            (rows.cumsum(axis=1) < draws[:, None]).sum(axis=1), mdp.num_states - 1
        )
    return total.mean(), total.std(ddof=1) / np.sqrt(n)


def test_policy_value_matches_monte_carlo_rollouts():
    mdp = random_mdp(4, 3, 4, seed=21)
    pi = random_policy(mdp, 2)
    exact = policy_value(mdp, pi).values[0, 0]
    mean, stderr = rollout_mean(mdp, pi, start=0, n=10**6, seed=99)
    assert abs(mean - exact) <= 3 * stderr


# ---------------------------------------------------------------------------
# single backups
# ---------------------------------------------------------------------------


def test_backup_terminal_layer_is_reward_max():
    mdp = random_mdp(5, 4, 3, seed=2)
    values, actions = bellman_backup(mdp, 2, np.zeros(5))
    np.testing.assert_allclose(values, mdp.rewards[2].max(axis=1), atol=0)
    np.testing.assert_array_equal(actions, mdp.rewards[2].argmax(axis=1))


def test_backup_deterministic_transitions():
    mdp = deterministic_mdp(seed=9)
    rng = np.random.default_rng(0)
    v_next = rng.random(mdp.num_states)
    succ = mdp.transitions[1].argmax(axis=2)  # point-mass rows
    expect = mdp.rewards[1] + v_next[succ]
    values, actions = bellman_backup(mdp, 1, v_next)
    np.testing.assert_allclose(values, expect.max(axis=1), atol=1e-12)
    np.testing.assert_array_equal(actions, expect.argmax(axis=1))


def test_backup_matches_extended_precision_summation():
    mdp = random_mdp(6, 3, 2, seed=31)
    rng = np.random.default_rng(4)
    v_next = rng.random(6) * 2
    values, _ = bellman_backup(mdp, 0, v_next)
    # Oracle: accumulate each expectation in 80-bit floats.
    p = mdp.transitions[0].astype(np.longdouble)
    q_hi = mdp.rewards[0] + (p @ v_next.astype(np.longdouble)).astype(np.float64)
    np.testing.assert_allclose(values, q_hi.max(axis=1), atol=1e-12)


def test_backup_ties_break_to_smallest_action():
    t = np.zeros((1, 1, 3, 1))
    t[:, :, :, 0] = 1.0
    r = np.array([[[0.5, 0.5, 0.2]]])
    mdp = FiniteHorizonMdp(t, r)
    _, actions = bellman_backup(mdp, 0, np.zeros(1))
    assert actions[0] == 0


def test_fixed_policy_backup_is_monotone():
    # u <= v elementwise implies backup(u) <= backup(v) under any fixed policy.
    rng = np.random.default_rng(17)
    for seed in range(10):
        mdp = random_mdp(5, 3, 3, seed=seed)
        pi = random_policy(mdp, seed)
        u = rng.random(5)
        v = u + rng.random(5)
        idx = np.arange(5)
        act = pi.actions[:, 1]
        bu = mdp.rewards[1, idx, act] + mdp.transitions[1, idx, act] @ u
        bv = mdp.rewards[1, idx, act] + mdp.transitions[1, idx, act] @ v
        assert (bu <= bv + 1e-12).all()


# ---------------------------------------------------------------------------
# variances
# ---------------------------------------------------------------------------


def test_sigma_squared_zero_for_deterministic_rows():
    mdp = deterministic_mdp(seed=5)
    v = np.random.default_rng(1).random(mdp.num_states)
    assert np.abs(sigma_squared(mdp, 0, v)).max() == 0.0


def test_sigma_squared_bernoulli_half():
    t = np.zeros((1, 2, 1, 2))
    t[:, :, :] = [0.5, 0.5]
    mdp = FiniteHorizonMdp(t, np.zeros((1, 2, 1)))
    out = sigma_squared(mdp, 0, np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, 0.25, atol=1e-15)


def test_sigma_squared_matches_definitional_enumeration():
    mdp = random_mdp(5, 3, 2, seed=13)
    v = np.random.default_rng(3).random(5) * 4
    out = sigma_squared(mdp, 1, v)
    for s in range(5):
        for a in range(3):
            row = mdp.transitions[1, s, a]
            mean = sum(row[sp] * v[sp] for sp in range(5))
            var = sum(row[sp] * (v[sp] - mean) ** 2 for sp in range(5))
            assert out[s, a] == pytest.approx(var, abs=1e-12)


def test_total_variance_zero_cases():
    det = deterministic_mdp(seed=8)
    assert total_variance_norm(det, random_policy(det, 0)) == 0.0
    one = random_mdp(4, 2, 1, seed=8)
    assert total_variance_norm(one, random_policy(one, 0)) == 0.0


def test_total_variance_bounded_by_horizon_power():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(2, 9))
        mdp = random_mdp(int(rng.integers(2, 7)), int(rng.integers(2, 5)), horizon, seed=seed)
        pi = random_policy(mdp, seed + 1)
        assert total_variance_norm(mdp, pi) <= horizon**1.5


# ---------------------------------------------------------------------------
# reports and sampling
# ---------------------------------------------------------------------------


def test_report_self_comparison_is_zero():
    mdp = random_mdp(4, 3, 3, seed=2)
    pi, v, q = exact_value_iteration(mdp)
    rep = eps_optimality_report(mdp, pi, v, q, eps=0.1)
    assert rep.value_gap == 0.0 and rep.policy_gap == 0.0 and rep.q_gap == 0.0
    assert rep.all_ok


def test_report_constructed_offset():
    mdp = random_mdp(4, 3, 3, seed=2)
    pi, v, _ = exact_value_iteration(mdp)
    eps = 0.05
    shifted = np.maximum(v.values - eps, 0.0)
    shifted[-1] = 0.0
    rep = eps_optimality_report(mdp, pi, ValueTable(shifted), None, eps=eps)
    assert (v.values >= eps).any()  # offset actually binds somewhere
    assert rep.value_gap == pytest.approx(eps, abs=1e-12)


def test_generative_sample_point_mass_and_ledger():
    mdp = deterministic_mdp(seed=4)
    rng = np.random.default_rng(0)
    ledger = QueryLedger()
    succ = mdp.transitions[0, 1, 1].argmax()
    for _ in range(25):
        assert classical_generative_sample(mdp, 0, 1, 1, rng, ledger) == succ
    assert ledger.count("classical_generative") == 25


def test_generative_sample_uniform_frequencies():
    t = np.full((1, 4, 1, 4), 0.25)
    mdp = FiniteHorizonMdp(t, np.zeros((1, 4, 1)))
    rng = np.random.default_rng(123)
    n = 10**5
    counts = np.zeros(4)
    for _ in range(n):
        counts[classical_generative_sample(mdp, 0, 0, 0, rng)] += 1
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert np.abs(counts / n - 0.25).max() <= 4 * sigma
