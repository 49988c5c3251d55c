"""Emulated subroutines: error contracts, cost formulas, failure injection."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qvilab import (
    ORACLES,
    ContractViolation,
    Qme2ContractError,
    QueryLedger,
    SubroutineConfig,
    btp_cost,
    btp_multiplier,
    qme1_emulated,
    qme1_query_count,
    qme2_emulated,
    qme2_query_count,
    qmebo_emulated,
    qmebo_query_count,
    qms_emulated,
    qms_query_count,
)
from qvilab.emulation import NOISE_MODES

CFG = SubroutineConfig(rng_seed=0)
EXACT = SubroutineConfig(noise_mode="exact", rng_seed=0)


def fresh_rng():
    return np.random.default_rng(0)


def repeats(delta, config=CFG):
    return max(1, math.ceil(config.powering_repeats * math.log(1 / delta)))


# ---------------------------------------------------------------------------
# maximum search
# ---------------------------------------------------------------------------


def test_qms_singleton_cost_and_index():
    ledger = QueryLedger()
    idx = qms_emulated([0.5], delta=0.2, config=CFG, rng=fresh_rng(), ledger=ledger)
    assert idx == 0
    assert ledger.count("func_binary") == math.ceil(CFG.qms_constant * math.log(1 / 0.2))


def test_qms_unique_maximum():
    assert qms_emulated([1.0, 3.0, 2.0], 0.1, CFG, fresh_rng()) == 1


def test_qms_tie_breaks_to_smallest_index():
    assert qms_emulated([2.0, 5.0, 5.0, 1.0], 0.1, CFG, fresh_rng()) == 1


def test_qms_cost_per_query_multiplier():
    ledger = QueryLedger()
    qms_emulated([1.0, 2.0], 0.1, CFG, fresh_rng(), ledger=ledger, oracle="quantum_mdp",
                 cost_per_query=7)
    assert ledger.count("quantum_mdp") == 7 * qms_query_count(2, 0.1, CFG)


def test_qms_rejects_empty_sequence():
    with pytest.raises(ContractViolation):
        qms_emulated([], 0.1, CFG, fresh_rng())


def test_qms_injected_failure_rate():
    delta = 0.2
    config = SubroutineConfig(failure_injection=True, rng_seed=42)
    rng = np.random.default_rng(7)
    values = np.random.default_rng(1).random((10**4, 8))
    correct = 0
    for row in values:
        if qms_emulated(row, delta, config, rng=rng) == int(row.argmax()):
            correct += 1
    n = values.shape[0]
    sigma = math.sqrt((1 - delta) * delta / n)
    assert correct / n >= (1 - delta) - 3 * sigma


# ---------------------------------------------------------------------------
# mean estimation with a range bound
# ---------------------------------------------------------------------------


def test_qme1_constant_function():
    est = qme1_emulated(([0.3, 0.7], [0.4, 0.4]), u=1.0, eps=0.05, delta=0.1, config=CFG,
                        rng=fresh_rng())
    assert abs(est.value - 0.4) <= 0.05
    assert est.true_mean == pytest.approx(0.4)


def test_qme1_point_mass():
    est = qme1_emulated(([0.0, 1.0, 0.0], [0.1, 0.9, 0.5]), u=1.0, eps=0.02, delta=0.1,
                        config=CFG, rng=fresh_rng())
    assert abs(est.value - 0.9) <= 0.02


def test_qme1_uniform_mean():
    est = qme1_emulated(
        (np.full(4, 0.25), np.array([0.0, 1.0, 2.0, 3.0])), u=3.0, eps=0.1, delta=0.1, config=CFG,
        rng=fresh_rng(),
    )
    assert abs(est.value - 1.5) <= 0.1
    assert est.charged_queries == qme1_query_count(3.0, 0.1, 0.1, CFG)


def test_qme1_rejects_out_of_range_function():
    with pytest.raises(ContractViolation):
        qme1_emulated(([1.0], [2.0]), u=1.0, eps=0.1, delta=0.1, config=CFG, rng=fresh_rng())
    with pytest.raises(ContractViolation):
        qme1_emulated(([1.0], [0.5]), u=1.0, eps=-0.1, delta=0.1, config=CFG, rng=fresh_rng())


# ---------------------------------------------------------------------------
# mean estimation with a variance bound
# ---------------------------------------------------------------------------


def test_qme2_zero_variance():
    eps = 0.03
    est = qme2_emulated(
        ([0.5, 0.5], [0.6, 0.6]), sigma_bound=4 * eps / 3, eps=eps, delta=0.1, config=CFG,
        rng=fresh_rng(),
    )
    assert abs(est.value - 0.6) <= eps


def test_qme2_bernoulli_half():
    est = qme2_emulated(
        ([0.5, 0.5], [0.0, 1.0]), sigma_bound=0.5, eps=0.1, delta=0.1, config=CFG, rng=fresh_rng()
    )
    assert 0.4 <= est.value <= 0.6


def test_qme2_contract_error_is_structured():
    with pytest.raises(Qme2ContractError) as err:
        qme2_emulated(
            ([1.0], [0.5]), sigma_bound=0.1, eps=0.4, delta=0.1, config=CFG, rng=fresh_rng(),
        )
    assert err.value.eps == 0.4
    assert err.value.sigma_bound == 0.1


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
def test_qme2_rejects_infinite_sigma_bound_before_any_charge_or_draw(per_row):
    # eps < 4 * inf holds, so only the bound's own check stands between it
    # and math.ceil(inf), which raised a bare OverflowError.
    with pytest.raises(ContractViolation):
        qme2_query_count(math.inf, 0.1, 0.1, CFG)
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    bound = np.array([0.5, math.inf]) if per_row else math.inf
    ledger, rng = QueryLedger(), fresh_rng()
    before = rng.bit_generator.state
    with pytest.raises(ContractViolation):
        qme2_emulated((p, [0.2, 0.8]), bound, 0.1, 0.1, CFG, rng, ledger=ledger)
    assert ledger.total == 0
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
def test_qme2_rejects_a_finite_bound_whose_count_overflows_before_any_charge_or_draw(per_row):
    # ratio * log(ratio)^2 passes the float range for ratio = 1e306, and
    # math.ceil(inf) raised a bare OverflowError.
    with pytest.raises(ContractViolation, match="overflows"):
        qme2_query_count(1e306, 1.0, 0.1, CFG)
    assert qme2_query_count(1e300, 1.0, 0.1, CFG) > 0
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    bound = np.array([0.5, 1e306]) if per_row else 1e306
    ledger, rng = QueryLedger(), fresh_rng()
    before = rng.bit_generator.state
    with pytest.raises(ContractViolation, match="overflows"):
        qme2_emulated((p, [0.2, 0.8]), bound, 1.0, 0.1, CFG, rng, ledger=ledger)
    assert ledger.total == 0
    assert rng.bit_generator.state == before


def test_qme2_debug_check_catches_variance_lies():
    config = SubroutineConfig(rng_seed=0, debug_checks=True)
    with pytest.raises(ContractViolation, match="variance"):
        qme2_emulated(([0.5, 0.5], [0.0, 1.0]), sigma_bound=0.1, eps=0.2, delta=0.1, config=config,
                      rng=fresh_rng())


def test_qme2_cost_formula_replay_and_doubling():
    # In the log-flat regime (ratio <= e) halving eps doubles cost within one
    # rounding step; outside it the formula itself is the oracle.
    ledger = QueryLedger()
    qme2_emulated(([1.0], [0.5]), 1.0, 0.8, 0.1, CFG, fresh_rng(), ledger=ledger)
    at_eps = ledger.count("quantum_generative")
    assert at_eps == qme2_query_count(1.0, 0.8, 0.1, CFG)
    halved = qme2_query_count(1.0, 0.4, 0.1, CFG)
    scale = repeats(0.1)
    assert abs(halved - 2 * at_eps) <= scale  # one rounding step of the base factor
    assert qme2_query_count(1.0, 0.05, 0.1, CFG) == math.ceil(20 * math.log(20) ** 2) * scale


# ---------------------------------------------------------------------------
# mean estimation with binary oracles
# ---------------------------------------------------------------------------


def test_qmebo_point_mass():
    est = qmebo_emulated([1.0, 0.0], [0.7, 0.2], eps=0.05, delta=0.1, config=CFG, rng=fresh_rng())
    assert abs(est.value - 0.7) <= 0.05


def test_qmebo_uniform_two():
    est = qmebo_emulated([0.5, 0.5], [0.0, 1.0], eps=0.04, delta=0.1, config=CFG, rng=fresh_rng())
    assert abs(est.value - 0.5) <= 0.04


def test_qmebo_charges_both_oracles_with_formula_cost():
    ledger = QueryLedger()
    qmebo_emulated(
        np.full(4, 0.25), [0.1, 0.2, 0.3, 0.4], eps=0.1, delta=0.1, config=CFG, rng=fresh_rng(),
        ledger=ledger,
    )
    expected = math.ceil(math.sqrt(4) / 0.1 + math.sqrt(4 / 0.1)) * repeats(0.1)
    assert ledger.count("dist_binary") == expected
    assert ledger.count("func_binary") == expected
    assert expected == qmebo_query_count(4, 0.1, 0.1, CFG)


def test_qmebo_rejects_function_outside_unit_interval():
    with pytest.raises(ContractViolation):
        qmebo_emulated([1.0], [1.4], eps=0.1, delta=0.1, config=CFG, rng=fresh_rng())


# ---------------------------------------------------------------------------
# oracle conversion cost
# ---------------------------------------------------------------------------


def test_btp_floor_rule_at_eps_one():
    ledger = QueryLedger()
    assert btp_cost(eps=1.0, eta=0.3, ledger=ledger) == 1
    assert ledger.count("oracle_conversion") == 1


def test_btp_halving_eta_doubles_within_rounding():
    m1 = btp_multiplier(1e-3, 0.4)
    m2 = btp_multiplier(1e-3, 0.2)
    assert abs(m2 - 2 * m1) <= 1


def test_btp_formula_replay():
    assert btp_multiplier(1e-4, 0.25) == math.ceil(math.log(100) / 0.25) == 19


def test_btp_rejects_bad_eta():
    with pytest.raises(ContractViolation):
        btp_cost(eps=0.1, eta=0.6)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_btp_rejects_non_finite_eps(eps):
    ledger = QueryLedger()
    with pytest.raises(ContractViolation):
        btp_multiplier(eps, 0.25)
    with pytest.raises(ContractViolation):
        btp_cost(eps, 0.25, ledger)
    assert ledger.total == 0


BAD_SUBROUTINE_FIELDS = {
    "negative-seed": (dict(rng_seed=-1), "rng_seed must be an integer >= 0, got -1"),
    "fractional-seed": (dict(rng_seed=1.5), "rng_seed must be an integer >= 0, got 1.5"),
    "nan-qms-constant": (dict(qms_constant=math.nan), "qms_constant must be positive and finite"),
    "inf-qms-constant": (dict(qms_constant=math.inf), "qms_constant must be positive and finite"),
    "nan-repeats": (dict(powering_repeats=math.nan), "powering_repeats must be >= 1 and finite"),
    "inf-repeats": (dict(powering_repeats=math.inf), "powering_repeats must be >= 1 and finite"),
}


@pytest.mark.parametrize("bad, reason", BAD_SUBROUTINE_FIELDS.values(),
                         ids=BAD_SUBROUTINE_FIELDS.keys())
def test_subroutine_config_rejects_bad_fields(bad, reason):
    with pytest.raises(ValueError, match=reason):
        SubroutineConfig(**bad)


# ---------------------------------------------------------------------------
# cross-cutting contracts
# ---------------------------------------------------------------------------


# qme2's sigma_bound for row i of a stack (in C order): 1/2 and its one-ulp
# neighbours in turn, so a stack's bound/error ratios differ in the last bits,
# as qvi4's estimated spread over its error target does.
SIGMAS = np.nextafter(0.5, [0.0, 0.5, 1.0])

# Each mean estimator on a (p, f) pair with f in [0, 1], which meets every
# estimator's preconditions (sigma_bound ~ 1/2 bounds the deviation of any such f).
ESTIMATORS = {
    "qme1": lambda p, f, eps, delta, config, rng, ledger=None: qme1_emulated(
        (p, f), 1.0, eps, delta, config, rng=rng, ledger=ledger
    ),
    "qme2": lambda p, f, eps, delta, config, rng, ledger=None: qme2_emulated(
        (p, f), np.resize(SIGMAS, np.shape(p)[:-1]), eps, delta, config, rng=rng, ledger=ledger
    ),
    "qmebo": lambda p, f, eps, delta, config, rng, ledger=None: qmebo_emulated(
        p, f, eps, delta, config, rng=rng, ledger=ledger
    ),
}


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_faithful_error_contract_all_modes(estimator):
    rng_master = np.random.default_rng(5)
    for mode in ("exact", "uniform_interval", "adversarial_low", "adversarial_high"):
        config = SubroutineConfig(noise_mode=mode, rng_seed=11, debug_checks=True)
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng_master.integers(2, 6))
            p = rng_master.dirichlet(np.ones(n))
            f = rng_master.random(n)
            eps = float(rng_master.uniform(0.01, 0.5))
            est = ESTIMATORS[estimator](p, f, eps, 0.1, config, rng)
            assert abs(est.value - est.true_mean) <= eps + 1e-15
            assert not est.failed


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_injected_failure_rate_contract(estimator):
    delta = 0.2
    config = SubroutineConfig(failure_injection=True, rng_seed=3)
    rng = np.random.default_rng(3)
    n = 2000
    failures = 0
    for _ in range(n):
        est = ESTIMATORS[estimator]([0.4, 0.6], [0.2, 0.8], 0.05, delta, config, rng)
        failures += est.failed
        if est.failed:  # a failed answer still lands in the value range
            assert 0.2 <= est.value <= 0.8
    assert 0 < failures / n <= delta + 3 * math.sqrt(delta * (1 - delta) / n)


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize(
    "p, f, error, message",
    [
        ([0.5, 0.5], [0.1, 0.2, 0.3], ContractViolation, "same length"),
        ([], [], ValueError, "empty mean query|at least one outcome"),
    ],
    ids=["mismatched", "empty"],
)
def test_estimators_reject_bad_pairs(estimator, p, f, error, message):
    with pytest.raises(error, match=message):
        ESTIMATORS[estimator](p, f, 0.1, 0.1, CFG, fresh_rng())


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_estimators_reject_non_finite_eps(estimator, eps, per_row):
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    with pytest.raises(ContractViolation):
        ESTIMATORS[estimator](p, [0.2, 0.8], np.array([0.1, eps]) if per_row else eps, 0.1,
                              CFG, fresh_rng())


def test_cost_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        eps = float(rng.uniform(0.01, 1.0))
        delta = float(rng.uniform(0.01, 0.5))
        n = int(rng.integers(1, 100))
        u = float(rng.uniform(0.5, 20))
        sig = float(rng.uniform(0.5, 20))
        # nonincreasing in eps and delta
        assert qme1_query_count(u, eps, delta, CFG) >= qme1_query_count(u, 2 * eps, delta, CFG)
        assert qme1_query_count(u, eps, delta, CFG) >= qme1_query_count(u, eps, 2 * delta if 2 * delta < 1 else 0.99, CFG)
        assert qme2_query_count(sig, eps, delta, CFG) >= qme2_query_count(sig, 2 * eps, delta, CFG)
        assert qmebo_query_count(n, eps, delta, CFG) >= qmebo_query_count(n, 2 * eps, delta, CFG)
        assert qms_query_count(n, delta, CFG) >= qms_query_count(n, 2 * delta if 2 * delta < 1 else 0.99, CFG)
        # nondecreasing in n, u, sigma
        assert qmebo_query_count(2 * n, eps, delta, CFG) >= qmebo_query_count(n, eps, delta, CFG)
        assert qms_query_count(2 * n, delta, CFG) >= qms_query_count(n, delta, CFG)
        assert qme1_query_count(2 * u, eps, delta, CFG) >= qme1_query_count(u, eps, delta, CFG)
        assert qme2_query_count(2 * sig, eps, delta, CFG) >= qme2_query_count(sig, eps, delta, CFG)


def test_determinism_bitwise():
    def run():
        config = SubroutineConfig(rng_seed=77)
        rng = np.random.default_rng(77)
        ledger = QueryLedger()
        values, totals = [], []
        for _ in range(20):
            est = qme1_emulated(
                ([0.5, 0.5], [0.1, 0.9]), 1.0, 0.05, 0.1, config, rng=rng, ledger=ledger,
            )
            values.append(est.value)
            totals.append(ledger.total)
            qms_emulated([1.0, 2.0, 0.5], 0.1, config, rng=rng, ledger=ledger)
            totals.append(ledger.total)
        return values, ledger.as_dict(), totals

    a, b = run(), run()
    assert a[0] == b[0]  # bit-identical estimate sequence
    assert a[1] == b[1]
    assert a[2] == b[2]


def test_ledger_merge_and_exports():
    a = QueryLedger()
    b = QueryLedger()
    a.charge("quantum_mdp", 3)
    b.charge("quantum_mdp", 4)
    b.charge("dist_binary", 1)
    assert a.count("quantum_mdp") == 3 and b.total == 5
    assert b.as_dict() == dict.fromkeys(ORACLES, 0) | {"quantum_mdp": 4, "dist_binary": 1}
    with pytest.raises(KeyError):
        a.charge("nonexistent", 1)
    with pytest.raises(ValueError):
        a.charge("quantum_mdp", -1)


# ---------------------------------------------------------------------------
# the batch contract: one call over a stack of rows
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=12, deadline=None)
BATCH_DELTA = 0.3

# Each estimator's count for row i, of N entries, of a stack at error eps
# (with the bounds ESTIMATORS uses), and the oracles it charges.
PER_CALL = {
    "qme1": (lambda n, i, eps, config: qme1_query_count(1.0, eps, BATCH_DELTA, config),
             ("quantum_generative",)),
    "qme2": (lambda n, i, eps, config: qme2_query_count(SIGMAS[i % 3], eps, BATCH_DELTA, config),
             ("quantum_generative",)),
    "qmebo": (lambda n, i, eps, config: qmebo_query_count(n, eps, BATCH_DELTA, config),
              ("dist_binary", "func_binary")),
}


@st.composite
def stacks(draw):
    """A stack of distributions (shape () is one row), a function in [0, 1],
    an eps that is a scalar or one value per row, and a seed."""
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    n = draw(st.integers(1, 6))
    weights = draw(hnp.arrays(np.float64, shape + (n,), elements=st.floats(0.0, 1.0)))
    weights += weights.sum(axis=-1, keepdims=True) == 0  # no all-zero row
    f = draw(hnp.arrays(np.float64, (n,), elements=st.floats(0.0, 1.0)))
    eps = draw(st.one_of(
        st.floats(0.01, 0.5), hnp.arrays(np.float64, shape, elements=st.floats(0.01, 0.5))))
    return weights / weights.sum(axis=-1, keepdims=True), f, eps, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("injection", [False, True], ids=["faithful", "inject"])
@pytest.mark.parametrize("mode", NOISE_MODES)
@pytest.mark.parametrize("estimator", ESTIMATORS)
@PROPERTY
@given(stack=stacks())
def test_batch_estimates_meet_the_contract_row_by_row(estimator, mode, injection, stack):
    p, f, eps, seed = stack
    call, (per_call, oracles) = ESTIMATORS[estimator], PER_CALL[estimator]
    config = SubroutineConfig(noise_mode=mode, failure_injection=injection, debug_checks=True)
    ledger, stack_rng = QueryLedger(), np.random.default_rng(seed)
    est = call(p, f, eps, BATCH_DELTA, config, stack_rng, ledger)

    shape = p.shape[:-1]
    true = p.reshape(-1, f.size) @ f
    row_eps = np.broadcast_to(eps, shape).reshape(-1)
    value, failed = np.reshape(est.value, -1), np.reshape(est.failed, -1)
    assert np.shape(est.value) == np.shape(est.failed) == np.shape(est.true_mean) == shape
    np.testing.assert_allclose(np.reshape(est.true_mean, -1), true, rtol=0, atol=1e-12)
    ok = ~failed
    assert (np.abs(value[ok] - true[ok]) <= row_eps[ok] + 1e-12).all()
    if mode == "adversarial_low":
        assert (value[ok] <= true[ok] + 1e-12).all()
    if mode == "adversarial_high":
        assert (value[ok] >= true[ok] - 1e-12).all()
    assert ((f.min() <= value[failed]) & (value[failed] <= f.max())).all()
    if not injection:
        assert not failed.any()

    charged = sum(per_call(f.size, i, float(e), config) for i, e in enumerate(row_eps))
    assert est.charged_queries == charged
    assert ledger.as_dict() == dict.fromkeys(ORACLES, 0) | dict.fromkeys(oracles, charged)

    # The draw protocol, replayed row by row from the call's own true means:
    # failure uniforms, failed values, then the other rows' noise, each in C order.
    rng = np.random.default_rng(seed)
    replay_failed = np.array([injection and rng.random() < BATCH_DELTA for _ in true])
    replay = np.reshape(est.true_mean, -1).copy()
    for i in np.flatnonzero(replay_failed):
        replay[i] = rng.uniform(f.min(), f.max())
    for i in np.flatnonzero(~replay_failed):
        if mode == "uniform_interval":
            replay[i] += rng.uniform(-row_eps[i], row_eps[i])
        elif mode != "exact":
            replay[i] += row_eps[i] if mode == "adversarial_high" else -row_eps[i]
    np.testing.assert_array_equal(failed, replay_failed)
    np.testing.assert_array_equal(value, replay)

    if not injection:  # a stack draws what its rows' one-row calls draw, in C order
        rng = np.random.default_rng(seed)
        rows = [call(row, f, e, BATCH_DELTA, config, rng) for row, e in
                zip(p.reshape(-1, f.size), row_eps)]
        np.testing.assert_allclose(value, [r.value for r in rows], rtol=0, atol=1e-12)
        assert rng.bit_generator.state == stack_rng.bit_generator.state


@st.composite
def function_stacks(draw):
    """Distributions of shape (L..., M..., N) with L and M not empty, one function
    in [0, 1] per leading index (shape (L..., N)), an eps that is a scalar or one
    value per row, and a seed."""
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rows = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    n = draw(st.integers(1, 5))
    weights = draw(hnp.arrays(np.float64, lead + rows + (n,), elements=st.floats(0.0, 1.0)))
    weights += weights.sum(axis=-1, keepdims=True) == 0  # no all-zero row
    f = draw(hnp.arrays(np.float64, lead + (n,), elements=st.floats(0.0, 1.0)))
    eps = draw(st.one_of(st.floats(0.01, 0.5),
                         hnp.arrays(np.float64, lead + rows, elements=st.floats(0.01, 0.5))))
    return weights / weights.sum(axis=-1, keepdims=True), f, eps, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("injection", [False, True], ids=["faithful", "inject"])
@pytest.mark.parametrize("mode", NOISE_MODES)
@pytest.mark.parametrize("estimator", ["qme1", "qme2"])
@PROPERTY
@given(stack=function_stacks())
def test_one_function_per_leading_index_is_each_index_own_call(estimator, mode, injection,
                                                                stack):
    p, f, eps, seed = stack
    call, (per_call, oracles) = ESTIMATORS[estimator], PER_CALL[estimator]
    config = SubroutineConfig(noise_mode=mode, failure_injection=injection, debug_checks=True)
    ledger, stack_rng = QueryLedger(), np.random.default_rng(seed)
    est = call(p, f, eps, BATCH_DELTA, config, stack_rng, ledger)

    lead, shape, n = f.shape[:-1], p.shape[:-1], f.shape[-1]
    index_of_row = np.broadcast_to(
        np.arange(math.prod(lead)).reshape(lead + (1,) * (len(shape) - len(lead))), shape
    ).reshape(-1)
    funcs, rows = f.reshape(-1, n), p.reshape(-1, n)
    row_eps = np.broadcast_to(eps, shape).reshape(-1)
    assert np.shape(est.value) == np.shape(est.failed) == np.shape(est.true_mean) == shape
    # each leading index's rows carry the bits of that index's own product
    by_index = np.stack([p[l] @ f[l] for l in np.ndindex(lead)]).reshape(-1)
    np.testing.assert_array_equal(np.reshape(est.true_mean, -1), by_index)
    charged = sum(per_call(n, i, float(e), config) for i, e in enumerate(row_eps))
    assert est.charged_queries == charged
    assert ledger.as_dict() == dict.fromkeys(ORACLES, 0) | dict.fromkeys(oracles, charged)

    # The draw protocol: a failed row draws over its own function's range.
    rng = np.random.default_rng(seed)
    replay_failed = np.array([injection and rng.random() < BATCH_DELTA for _ in rows])
    replay = by_index.copy()
    for i in np.flatnonzero(replay_failed):
        own = funcs[index_of_row[i]]
        replay[i] = rng.uniform(own.min(), own.max())
    for i in np.flatnonzero(~replay_failed):
        if mode == "uniform_interval":
            replay[i] += rng.uniform(-row_eps[i], row_eps[i])
        elif mode != "exact":
            replay[i] += row_eps[i] if mode == "adversarial_high" else -row_eps[i]
    np.testing.assert_array_equal(np.reshape(est.failed, -1), replay_failed)
    np.testing.assert_array_equal(np.reshape(est.value, -1), replay)

    if not injection:  # the stack draws what one call per leading index draws, in C order
        rng = np.random.default_rng(seed)
        eps_of = np.broadcast_to(eps, shape)
        parts = [call(p[l], f[l], eps_of[l], BATCH_DELTA, config, rng) for l in np.ndindex(lead)]
        np.testing.assert_array_equal(
            np.reshape(est.value, -1), np.concatenate([np.reshape(r.value, -1) for r in parts]))
        assert rng.bit_generator.state == stack_rng.bit_generator.state


@pytest.mark.parametrize(
    "p_shape, f_shape",
    [((2, 3, 4), (3, 4)), ((2, 3, 4), (2, 3, 4)), ((4,), (1, 4)), ((2, 3, 4), (2, 1, 4))],
)
def test_functions_must_match_a_proper_prefix_of_the_leading_shape(p_shape, f_shape):
    p = np.full(p_shape, 0.25)
    with pytest.raises(ContractViolation, match="do not match"):
        qme1_emulated((p, np.zeros(f_shape)), 1.0, 0.1, 0.1, CFG, fresh_rng())


def test_range_check_covers_every_function():
    p = np.full((2, 3, 4), 0.25)
    f = np.zeros((2, 4))
    f[1, 2] = 1.5
    with pytest.raises(ContractViolation, match="function values"):
        qme1_emulated((p, f), 1.0, 0.1, 0.1, CFG, fresh_rng())


@pytest.mark.parametrize("injection", [False, True], ids=["faithful", "inject"])
@PROPERTY
@given(
    values=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
        elements=st.integers(0, 3).map(float),  # small integers, so rows have ties
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_search_returns_each_rows_first_argmax(injection, values, seed):
    config = SubroutineConfig(failure_injection=injection)
    ledger = QueryLedger()
    picked = qms_emulated(values, BATCH_DELTA, config, np.random.default_rng(seed), ledger,
                          cost_per_query=3)
    n = values.shape[-1]
    assert np.shape(picked) == values.shape[:-1]
    assert ((0 <= np.asarray(picked)) & (np.asarray(picked) < n)).all()
    # the draw protocol: failure uniforms first, then the failed rows' indices
    rng = np.random.default_rng(seed)
    replay = values.reshape(-1, n).argmax(axis=1)
    if injection:
        failed = rng.random(replay.size) < BATCH_DELTA
        replay[failed] = rng.integers(n, size=np.count_nonzero(failed))
    else:
        np.testing.assert_array_equal(picked, values.argmax(axis=-1))
    np.testing.assert_array_equal(np.reshape(picked, -1), replay)
    rows = math.prod(values.shape[:-1])
    assert ledger.count("func_binary") == rows * 3 * qms_query_count(n, BATCH_DELTA, config)
