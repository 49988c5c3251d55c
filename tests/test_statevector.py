"""Statevector pipeline: oracles, state preparation, amplitude estimation.

The literal circuit (Hadamards, binary-oracle permutation, controlled
rotation, inverse oracle) is rebuilt here at small register widths and used
as the oracle for the packaged constructions.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qvilab import (
    ORACLES,
    BinaryOracleSpec,
    ContractViolation,
    FixedPointFormat,
    PureState,
    QueryLedger,
    StatevectorProvider,
    SubroutineConfig,
    ae_error_bound,
    ae_outcome_distribution,
    ae_outcome_distribution_circuit,
    ae_repetitions,
    build_up_hat,
    estimate_from_outcome,
    mean_projector,
    powering_median,
    prepare_psi2,
    qmebo_exact,
)
from qvilab.emulation import BINARY_ORACLES
from qvilab.statevector import psi2_support

FMT = FixedPointFormat(16, 12)
SMALL = FixedPointFormat(4, 3)
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)
# entries drawn from [0, 1] with the endpoints themselves drawn often
UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


# ---------------------------------------------------------------------------
# fixed-point format
# ---------------------------------------------------------------------------


def test_fixed_point_round_trip_error():
    rng = np.random.default_rng(0)
    for fmt in (FMT, SMALL, FixedPointFormat(8, 8)):
        x = rng.random(500) * (fmt.max_value - fmt.resolution)
        err = np.abs(fmt.quantize(x) - x)
        assert err.max() <= fmt.resolution


def test_fixed_point_range_and_validation():
    with pytest.raises(ValueError):
        FMT.encode(-0.1)
    with pytest.raises(ValueError):
        FMT.encode(FMT.max_value)
    with pytest.raises(ValueError):
        FixedPointFormat(4, 5)
    assert FMT.encode(1.0) == 4096


# ---------------------------------------------------------------------------
# pure states and binary oracles
# ---------------------------------------------------------------------------


def test_pure_state_validation_and_masks():
    amps = np.zeros(8)
    amps[5] = 1.0  # index=1, flag=0, rot=1 under layout (2,1,1)
    st = PureState((("index", 2), ("rot", 1)), amps)
    assert st.total_width == 3
    mask = st.mask(index=2)
    assert st.probability(mask) == 1.0
    with pytest.raises(ValueError):
        st.mask(nonexistent=0)
    with pytest.raises(ValueError):
        PureState((("a", 1),), [0.5, 0.5])  # not normalized


def test_binary_oracle_is_involution():
    spec = BinaryOracleSpec(np.array([0.25, 0.5, 0.875, 0.0]), SMALL)
    rng = np.random.default_rng(1)
    vec = rng.normal(size=4 * 2**SMALL.total_bits) + 1j * rng.normal(size=4 * 2**SMALL.total_bits)
    once = spec.apply(vec)
    assert not np.allclose(once, vec)  # it does something
    np.testing.assert_allclose(spec.apply(once), vec, atol=0)


def test_binary_oracle_writes_words_into_cleared_register():
    spec = BinaryOracleSpec(np.array([0.25, 0.5]), SMALL)
    q = SMALL.total_bits
    vec = np.zeros(2 * 2**q)
    vec[0 << q | 0] = 1.0  # |i=0>|0>
    out = spec.apply(vec)
    assert out[0 << q | int(spec.words()[0])] == 1.0


# ---------------------------------------------------------------------------
# amplitude-encoding unitary
# ---------------------------------------------------------------------------


def literal_up_hat(p, fmt):
    """Oracle: the written-out circuit H^n -> B_p -> R_p -> B_p^dagger,
    restricted to the cleared value register."""
    p = np.asarray(p, dtype=float)
    n = max(1, math.ceil(math.log2(p.size)))
    full = 2**n
    p = np.concatenate([p, np.zeros(full - p.size)])
    q = fmt.total_bits
    dim = full * 2**q * 2  # index x value x flag
    spec = BinaryOracleSpec(p, fmt)
    perm = spec.permutation()
    oracle = np.zeros((full * 2**q, full * 2**q))
    oracle[perm, np.arange(full * 2**q)] = 1.0
    oracle = np.kron(oracle, np.eye(2))
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    h_n = np.array([[1.0]])
    for _ in range(n):
        h_n = np.kron(h_n, hadamard)
    h_full = np.kron(h_n, np.eye(2**q * 2))
    rot = np.zeros((2**q * 2, 2**q * 2))
    for word in range(2**q):
        v = min(max(fmt.decode(word), 0.0), 1.0)
        c, s = math.sqrt(v), math.sqrt(1 - v)
        rot[2 * word : 2 * word + 2, 2 * word : 2 * word + 2] = [[c, -s], [s, c]]
    rot_full = np.kron(np.eye(full), rot)
    w = oracle.T @ rot_full @ oracle @ h_full
    # restrict to value register = 0
    keep = [(i << (q + 1)) | f for i in range(full) for f in (0, 1)]
    return w[np.ix_(keep, keep)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_up_hat_matches_literal_circuit():
    for p in ([0.25, 0.75], [0.5, 0.125, 0.375, 0.0]):
        built = build_up_hat(p, SMALL)
        np.testing.assert_allclose(built, literal_up_hat(p, SMALL), atol=1e-12)


def test_up_hat_point_mass_amplitudes():
    u = build_up_hat([1.0, 0.0], FMT)
    col = u[:, 0]  # action on |0>|0>; entries (i=0,f=0),(0,1),(1,0),(1,1)
    assert col[0] == pytest.approx(1 / math.sqrt(2))
    assert col[2] == pytest.approx(0.0, abs=1e-15)


def test_up_hat_uniform_distribution():
    n = 4
    u = build_up_hat(np.full(n, 1 / n), FMT)
    col = u[:, 0]
    for i in range(n):
        assert col[2 * i] == pytest.approx(1 / n)


def test_up_hat_flag_zero_weight():
    u = build_up_hat([0.25, 0.75], FMT)
    col = u[:, 0]
    weight = abs(col[0]) ** 2 + abs(col[2]) ** 2
    assert weight == pytest.approx(0.5, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_up_hat_unitary_at_small_widths():
    # widths n + 1 <= 4 here; wider combinations are covered via prepare_psi2
    for n_outcomes in (2, 4, 8):
        p = np.random.default_rng(n_outcomes).dirichlet(np.ones(n_outcomes))
        u = build_up_hat(p, SMALL)
        np.testing.assert_allclose(u.T.conj() @ u, np.eye(u.shape[0]), atol=1e-10)


@pytest.mark.parametrize("p", [[0.5, 0.6], [1.2, -0.2]], ids=["sum", "range"])
def test_up_hat_rejects_rows_that_are_not_distributions(p):
    with pytest.raises(ContractViolation, match="probabilities"):
        build_up_hat(p, FMT)


def test_up_hat_warns_on_coarse_format():
    with pytest.warns(RuntimeWarning, match="resolution"):
        build_up_hat([0.001, 0.999], FixedPointFormat(4, 3))


# ---------------------------------------------------------------------------
# prepared product state
# ---------------------------------------------------------------------------


def test_psi2_all_ones_function():
    st = prepare_psi2([0.25, 0.75], [1.0, 1.0], FMT)
    assert st.probability(mean_projector(st)) == pytest.approx(0.5, abs=1e-12)


def test_psi2_zero_function():
    st = prepare_psi2([0.25, 0.75], [0.0, 0.0], FMT)
    assert st.probability(mean_projector(st)) == 0.0


def test_psi2_projection_weight_matches_mean():
    p, f = [0.25, 0.75], [0.4, 0.8]
    st = prepare_psi2(p, f, FMT)
    weight = st.probability(mean_projector(st))
    assert abs(weight - 0.35) <= 2.0 ** (1 - FMT.frac_bits)


@st.composite
def mean_queries(draw, max_n=9):
    """A stack of distributions over N <= max_n outcomes and a function in [0, 1]^N."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n = draw(st.integers(1, max_n))
    weights = draw(hnp.arrays(np.float64, shape + (n,), elements=UNIT))
    weights[..., 0] += weights.sum(axis=-1) == 0  # a point mass in place of an all-zero row
    f = draw(hnp.arrays(np.float64, (n,), elements=UNIT))
    return weights / weights.sum(axis=-1, keepdims=True), f


@PROPERTY
@given(query=mean_queries(), fmt=st.sampled_from([FixedPointFormat(6, 5), FixedPointFormat(10, 8)]))
def test_psi2_support_is_the_full_registers_value_zero_block(query, fmt):
    p, f = query
    support = psi2_support(p, f, fmt)
    rows = p.reshape(-1, f.size)
    assert support.shape == p.shape[:-1] + (2 ** max(1, math.ceil(math.log2(f.size))), 2, 2)
    for row, amps in zip(rows, support.reshape((len(rows),) + support.shape[-3:])):
        state = prepare_psi2(row, f, fmt)
        # index | dist_flag | value | rot_flag
        full = state.amplitudes.reshape(amps.shape[0], 2, 2**fmt.total_bits, 2)
        assert (full[:, :, 0, :] == amps).all()
        assert not full[:, :, 1:, :].any()


def test_psi2_value_register_is_uncomputed():
    # all amplitude mass sits on the cleared value register
    st = prepare_psi2([0.3, 0.2, 0.5], [0.9, 0.1, 0.4], SMALL)
    assert st.probability(st.mask(value=0)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# amplitude estimation
# ---------------------------------------------------------------------------


def test_ae_exact_endpoints():
    st = prepare_psi2([1.0, 0.0], [0.0, 0.0], SMALL)  # amplitude 0
    a = st.probability(mean_projector(st))
    for t in (1, 5, 8):  # every outcome the law can draw reads 0
        dist = ae_outcome_distribution(a, t)
        assert {estimate_from_outcome(y, t) for y in np.flatnonzero(dist > 0)} == {0.0}
    # amplitude 1: the estimator grid contains 1 exactly on even point counts
    for t in (2, 8, 16):
        dist = ae_outcome_distribution(1.0, t)
        ests = {estimate_from_outcome(y, t) for y in np.flatnonzero(dist > 1e-12)}
        assert ests == {1.0}


def test_ae_quarter_amplitude_error_bound():
    a, t = 0.25, 64
    dist = ae_outcome_distribution(a, t)
    bound = ae_error_bound(a, t)
    within = np.array([abs(estimate_from_outcome(y, t) - a) <= bound for y in range(t)])
    exact_p = dist[within].sum()
    assert exact_p >= 8 / math.pi**2  # the guarantee, verified by enumeration
    rng = np.random.default_rng(1234)
    draws = rng.choice(t, size=10**4, p=dist)
    freq = within[draws].mean()
    sigma = math.sqrt(exact_p * (1 - exact_p) / 10**4)
    assert freq >= 8 / math.pi**2 - 3 * sigma


def test_ae_distribution_normalizes():
    for a in (0.0, 0.1, 0.5, 0.93, 1.0):
        for t in (1, 2, 7, 16):
            assert ae_outcome_distribution(a, t).sum() == pytest.approx(1.0, abs=1e-12)


def two_kernel_law(a, t):
    """Reference outcome law: the normalised mean of the Fejér kernels at omega
    and 1 - omega, each evaluated on its own, with 1.0 where a phase lies on the
    grid (within 1e-14)."""
    def kernel(f):
        frac = f - np.arange(t) / t
        frac -= np.round(frac)
        out = np.ones(t)
        off = np.abs(frac) >= 1e-14
        out[off] = np.sin(np.pi * t * frac[off]) ** 2 / (t * np.sin(np.pi * frac[off])) ** 2
        return out

    a = min(a, 1.0)
    if a == 0.0:
        return kernel(0.0)
    if a == 1.0:
        return kernel(0.5)
    omega = math.asin(math.sqrt(a)) / math.pi
    dist = 0.5 * kernel(omega) + 0.5 * kernel(1.0 - omega)
    return dist / dist.sum()


@st.composite
def amplitudes_on_and_off_the_grid(draw):
    """(a, T): a is 0 or 1, a grid point sin²(pi k / T), within 1e-13 of one, or any."""
    t = draw(st.integers(1, 4096))
    grid = math.sin(math.pi * draw(st.integers(0, t)) / t) ** 2
    a = draw(st.sampled_from([0.0, 1.0, grid])
             | st.floats(-1e-13, 1e-13).map(lambda d: grid + d)
             | st.floats(0.0, 1.0))
    return min(max(a, 0.0), 1.0), t


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(point=amplitudes_on_and_off_the_grid())
@example(point=(math.sin(math.pi / 8) ** 2, 8))
def test_outcome_law_is_a_distribution_on_and_off_the_grid(point):
    a, t = point
    law = ae_outcome_distribution(a, t)
    assert law.shape == (t,) and np.isfinite(law).all() and (law >= 0.0).all()
    assert abs(law.sum() - 1.0) <= 1e-12
    assert np.abs(law - two_kernel_law(a, t)).max() <= 1e-12
    np.testing.assert_array_equal(law, law[-np.arange(t)])  # the two phases' mirror symmetry


def test_mode_equivalence_small():
    rng = np.random.default_rng(3)
    fmt = FixedPointFormat(6, 5)
    for _ in range(3):
        p = rng.dirichlet(np.ones(2))
        f = rng.random(2)
        st = prepare_psi2(p, f, fmt)
        mask = mean_projector(st)
        a = st.probability(mask)
        for t in (2, 5, 9, 16):
            tv = 0.5 * np.abs(
                ae_outcome_distribution(a, t) - ae_outcome_distribution_circuit(st, mask, t)
            ).sum()
            assert tv <= 1e-8


def test_full_register_cap():
    st = prepare_psi2([0.5, 0.5], [0.5, 0.5], FMT)  # 2^19 amplitudes
    with pytest.raises(ValueError, match="cap"):
        ae_outcome_distribution_circuit(st, mean_projector(st), 64)


# ---------------------------------------------------------------------------
# powering and repetitions
# ---------------------------------------------------------------------------


def test_powering_median_examples():
    assert powering_median([0.42]) == 0.42
    assert powering_median([0.1, 0.9, 0.5]) == 0.5
    assert powering_median([0.1, 0.2, 0.8, 0.9]) == 0.2  # lower median
    with pytest.raises(ValueError):
        powering_median([])


def test_decoding_and_median_work_along_the_last_axis():
    rng = np.random.default_rng(5)
    t = np.array([[7], [64], [2114]])
    y = rng.integers(0, 7, size=(3, 5))
    trials = estimate_from_outcome(y, t)
    decoded = [[math.sin(math.pi * int(v) / int(n)) ** 2 for v in row]
               for row, n in zip(y, t[:, 0])]
    np.testing.assert_allclose(trials, decoded, rtol=0, atol=4 * np.finfo(np.float64).eps)
    assert powering_median(trials).tolist() == [sorted(row)[2] for row in trials.tolist()]
    even = trials[:, :4]
    assert powering_median(even).tolist() == [sorted(row)[1] for row in even.tolist()]
    with pytest.raises(ValueError):
        powering_median(np.empty((3, 0)))


def test_powering_boosts_two_thirds_estimator():
    # estimator lands in-tolerance w.p. 2/3; median of K repeats should reach
    # confidence at least 1 - exp(-K/18).
    rng = np.random.default_rng(8)
    k = 36
    trials = 4000
    hits = 0
    for _ in range(trials):
        samples = np.where(rng.random(k) < 2 / 3, 0.5, 1.0)
        hits += powering_median(samples) == 0.5
    assert hits / trials >= 1 - math.exp(-k / 18)


def test_ae_repetitions_quadratic_is_minimal():
    pi2 = math.pi**2
    for n in (2, 4, 8):
        for eps in (0.5, 0.05, 0.01):
            t = ae_repetitions(n, eps)
            assert eps * t * t - pi2 * math.sqrt(n) * t - pi2 * n >= 0
            t -= 1
            assert eps * t * t - pi2 * math.sqrt(n) * t - pi2 * n < 0


# ---------------------------------------------------------------------------
# end-to-end mean estimation
# ---------------------------------------------------------------------------


def test_qmebo_exact_point_mass_mostly_in_window():
    rng = np.random.default_rng(21)
    ok = 0
    runs = 200
    for _ in range(runs):
        run = qmebo_exact([1.0, 0.0], [0.7, 0.2], 0.05, 0.1, FMT, rng)
        ok += abs(run.estimate - 0.7) <= 0.05 + abs(run.encoding_offset)
    assert ok / runs >= 0.9  # guarantee is 1 - delta
    ledger = QueryLedger()
    StatevectorProvider(SubroutineConfig(rng_seed=21)).mean_binary(
        [1.0, 0.0], [0.7, 0.2], 0.05, 0.1, ledger)
    charged = 2 * run.grover_powers * run.repeats
    assert ledger.count("dist_binary") == ledger.count("func_binary") == charged > 0


def test_qmebo_exact_zero_function_is_exact():
    rng = np.random.default_rng(2)
    run = qmebo_exact([0.5, 0.5], [0.0, 0.0], 0.05, 0.1, FMT, rng)
    assert run.estimate == 0.0


def test_qmebo_exact_charges_two_t_k():
    run = qmebo_exact([0.5, 0.5], [0.3, 0.6], 0.1, 0.2, FMT, np.random.default_rng(2))
    ledger = QueryLedger()
    StatevectorProvider(SubroutineConfig(rng_seed=2)).mean_binary(
        [0.5, 0.5], [0.3, 0.6], 0.1, 0.2, ledger)
    assert ledger.count("dist_binary") == 2 * run.grover_powers * run.repeats
    assert ledger.count("func_binary") == ledger.count("dist_binary")
    assert run.repeats == max(1, math.ceil(2.0 * math.log(1 / 0.2)))
    assert run.grover_powers == ae_repetitions(2, 0.1)


@PROPERTY
@given(query=mean_queries(max_n=6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stacked_mean_binary_equals_one_row_calls(query, seed, data):
    p, f = query
    shape = p.shape[:-1]
    # one eps for the stack, or one per row (rows then differ in T)
    eps = data.draw(st.floats(0.05, 0.5) | hnp.arrays(np.float64, shape, elements=st.floats(0.05, 0.5)))
    provider = StatevectorProvider(SubroutineConfig(rng_seed=seed))
    ledger = QueryLedger()
    est = provider.mean_binary(p, f, eps, 0.1, ledger)

    rng = np.random.default_rng(seed)
    runs = [qmebo_exact(row, f, float(e), 0.1, FMT, rng)
            for row, e in zip(p.reshape(-1, f.size), np.broadcast_to(eps, shape).reshape(-1))]
    assert np.shape(est.value) == np.shape(est.true_mean) == shape
    assert np.reshape(est.value, -1).tolist() == [run.estimate for run in runs]
    assert np.reshape(est.true_mean, -1).tolist() == [run.true_mean for run in runs]
    charged = sum(2 * run.grover_powers * run.repeats for run in runs)
    assert ledger.as_dict() == dict.fromkeys(ORACLES, 0) | dict.fromkeys(BINARY_ORACLES, charged)
    assert provider.rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize(
    "n, eps, t, rows, limit_mib",
    [
        # qvi2's per-call error eps / (2 H^2) at eps = 0.3, H = 2, on 64
        # outcomes.  The full register would hold 2^(6+16+2) amplitudes,
        # 256 MiB, for each row.
        (64, 0.3 / (2 * 2**2), 2114, 128, 64),
        # eps = 0.02, H = 4 on 16 outcomes: one outcome law takes 0.5 MB, so
        # the layer may hold one law at a time, not one per row.
        (16, 0.02 / (2 * 4**2), 63170, 32, 16),
    ],
)
def test_statevector_layer_memory_stays_on_the_support(n, eps, t, rows, limit_mib):
    assert ae_repetitions(n, eps) == t
    rng = np.random.default_rng(0)
    p, f = rng.dirichlet(np.ones(n), size=rows), rng.random(n)
    provider = StatevectorProvider(SubroutineConfig(rng_seed=0))
    tracemalloc.start()
    try:
        est = provider.mean_binary(p, f, eps, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20
    assert est.charged_queries == rows * provider.qmebo_call_cost(n, eps, 0.1)
