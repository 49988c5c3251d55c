"""Emulated subroutines: error contracts, cost formulas, failure injection."""
import math

import numpy as np
import pytest

from qvilab import (
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


# ---------------------------------------------------------------------------
# cross-cutting contracts
# ---------------------------------------------------------------------------


# Each mean estimator on a (p, f) pair with f in [0, 1], which meets every
# estimator's preconditions (sigma_bound = 1/2 bounds the deviation of any such f).
ESTIMATORS = {
    "qme1": lambda p, f, eps, delta, config, rng: qme1_emulated(
        (p, f), 1.0, eps, delta, config, rng=rng
    ),
    "qme2": lambda p, f, eps, delta, config, rng: qme2_emulated(
        (p, f), 0.5, eps, delta, config, rng=rng
    ),
    "qmebo": lambda p, f, eps, delta, config, rng: qmebo_emulated(
        p, f, eps, delta, config, rng=rng
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
    a.merge(b)
    assert a.count("quantum_mdp") == 7 and a.total == 8
    assert "quantum_mdp" in a.to_json()
    with pytest.raises(KeyError):
        a.charge("nonexistent", 1)
    with pytest.raises(ValueError):
        a.charge("quantum_mdp", -1)
