"""Query-model emulation of the quantum subroutines.

Each emulated call returns values satisfying the corresponding theorem's
error/success contract, charges the theorem's query cost to a ledger, and can
optionally inject failures at the stated rate.  Because the emulator knows the
exact answer, the error contract is enforced *by construction*: in faithful
mode every estimate is within eps of the true mean.

Every subroutine takes one row or a stack of rows.  A mean estimator takes
distributions ``p`` of shape (..., N), a function ``f`` and an ``eps`` (and
qme2's ``sigma_bound``) that is a scalar or one value per row; it returns
(...)-shaped estimates and failure flags.  ``f`` is one function (N,) for all
rows or, for qme1/qme2, one per leading index of ``p``: (L..., N) against
``p`` of shape (L..., M..., N).  The search maps values of shape (..., N) to
(...)-shaped indices.  A call checks its preconditions once, computes the
true means in one product and makes one ledger charge per oracle: the
per-call count summed over the rows.  The mean estimators share one tail,
:func:`_estimate`.  A call costs a fixed handful of numpy operations plus
O(rows) work (O(rows * N) for the product and the checks): no Python loop
over rows, and the count formula runs once per distinct value.

Draw protocol.  Each estimator call draws, in this order:

1. with failure injection on, one failure uniform per row, in C order;
2. for each failed row, in C order, its value, uniform over the
   [min, max] of the row's function;
3. under ``uniform_interval`` noise, the noise of each non-failed row, in
   C order.

A search call draws its failure uniforms (one per row, with failure
injection on) first, then the random indices of the failed rows.  For one
row this is a failure uniform followed by the failed value (or index) or
the noise; without failure injection a stack draws what its rows' one-row
calls draw, in C order.

Cost formulas use natural logarithms and ceilings, with explicit constants
(``qms_constant`` for the search subroutine, ``powering_repeats`` per unit of
log(1/delta) for median boosting); the minimum charge is one query per
invocation.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ledger import QueryLedger
from .mdp import STOCHASTICITY_TOL

NOISE_MODES = ("exact", "uniform_interval", "adversarial_low", "adversarial_high")

# A binary-oracle mean estimation charges its count to both of these.
BINARY_ORACLES = ("dist_binary", "func_binary")


class ContractViolation(ValueError):
    """A caller violated an emulated subroutine's precondition."""


class Qme2ContractError(ContractViolation):
    """eps >= 4 * sigma_bound: widen eps or fall back to the range-bounded estimator."""

    def __init__(self, eps: float, sigma_bound: float):
        self.eps = eps
        self.sigma_bound = sigma_bound
        super().__init__(
            f"variance-bounded mean estimation requires eps < 4*sigma_bound "
            f"(eps={eps!r}, sigma_bound={sigma_bound!r})"
        )


@dataclass(frozen=True)
class SubroutineConfig:
    """Knobs shared by all emulated subroutines.

    noise_mode: how estimates deviate from the exact mean within their eps
        budget.  ``adversarial_low``/``adversarial_high`` sit exactly at the
        interval edge and stress the one-sided offset constructions.
    failure_injection: when on, each call independently fails with its own
        failure budget; a failed estimate is uniform over the function's
        value range (a failed search returns a uniformly random index).
    qms_constant: multiplier on sqrt(N) log(1/delta) in the search cost.
    powering_repeats: median-boost repeats per unit of log(1/delta).
    rng_seed: seed for the provider-owned random stream.
    debug_checks: enable the expensive variance-contract check.
    """

    noise_mode: str = "uniform_interval"
    failure_injection: bool = False
    qms_constant: float = 1.0
    powering_repeats: float = 2.0
    rng_seed: int = 0
    debug_checks: bool = False

    def __post_init__(self):
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}")
        if not 0 < self.qms_constant < math.inf:
            raise ValueError(f"qms_constant must be positive and finite, got {self.qms_constant!r}")
        if not 1 <= self.powering_repeats < math.inf:
            raise ValueError(f"powering_repeats must be >= 1 and finite, got "
                             f"{self.powering_repeats!r}")
        if not isinstance(self.rng_seed, numbers.Integral) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")


@dataclass(frozen=True)
class NoisyEstimate:
    """A call's estimates plus its accounting and ground truth.

    ``value``, ``failed`` and ``true_mean`` hold one entry per row, in the
    shape of the call's stack of rows (numpy scalars for a one-row call);
    ``charged_queries`` is what the call charged each of its oracles.
    """

    value: np.ndarray
    charged_queries: int
    failed: np.ndarray
    true_mean: np.ndarray


def _stack(p, f) -> tuple[np.ndarray, np.ndarray]:
    """The distributions (N,) or (..., N) and the function asked about: one (N,), or
    one per leading index of ``p``, (L..., N) for ``p`` of shape (L..., M..., N)."""
    p = np.asarray(p, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if f.ndim < 2:
        f = f.reshape(-1)
    elif f.ndim >= p.ndim or f.shape[:-1] != p.shape[: f.ndim - 1]:
        raise ContractViolation(f"functions {f.shape} do not match distributions {p.shape}")
    if p.ndim == 0 or p.shape[-1] != f.shape[-1]:
        raise ContractViolation("distribution and function must have the same length")
    if f.shape[-1] == 0:
        raise ContractViolation("empty mean query")
    return p, f


def _means(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Every row's mean of its function: ``p @ f``, or for one function per leading
    index one batched (L..., M..., N) @ (L..., 1..., N, 1) product, which gives
    index l's rows the bits of ``p[l] @ f[l]``."""
    if f.ndim == 1:
        return p @ f
    lead = f.shape[:-1] + (1,) * (p.ndim - f.ndim - 1)
    return np.matmul(p, f.reshape(lead + (f.shape[-1], 1)))[..., 0]


# ---------------------------------------------------------------------------
# Cost formulas (pure; reused by the algorithms for nested oracle accounting)
# ---------------------------------------------------------------------------


def _log_inverse(delta: float) -> float:
    """ln(1/delta) for a failure budget delta in (0, 1)."""
    if not 0 < delta < 1:
        raise ContractViolation(f"failure budget must be in (0, 1), got {delta!r}")
    return math.log(1.0 / delta)


def _repeats(delta: float, config: SubroutineConfig) -> int:
    """Median-boost repeats for failure budget delta."""
    return max(1, math.ceil(config.powering_repeats * _log_inverse(delta)))


def qms_query_count(n: int, delta: float, config: SubroutineConfig) -> int:
    """Queries charged by one maximum search over n entries."""
    return max(1, math.ceil(config.qms_constant * math.sqrt(n) * _log_inverse(delta)))


def qme1_query_count(u: float, eps: float, delta: float, config: SubroutineConfig) -> int:
    """Queries charged by one range-bounded mean estimation (values in [0, u])."""
    if not 0 < eps < math.inf:
        raise ContractViolation(f"eps must be positive and finite, got {eps!r}")
    ratio = u / eps
    return max(1, math.ceil(ratio + math.sqrt(ratio))) * _repeats(delta, config)


def qme2_query_count(
    sigma_bound: float, eps: float, delta: float, config: SubroutineConfig
) -> int:
    """Queries charged by one variance-bounded mean estimation."""
    if not 0 < eps < math.inf:
        raise ContractViolation(f"eps must be positive and finite, got {eps!r}")
    ratio = sigma_bound / eps
    if not 0 <= ratio < math.inf:
        raise ContractViolation(f"sigma_bound / eps must be finite and >= 0, got {ratio!r}")
    base = ratio * max(1.0, math.log(ratio)) ** 2 if ratio > 0 else 0.0
    if base == math.inf:
        raise ContractViolation(f"sigma_bound / eps = {ratio!r} overflows the query count")
    return max(1, math.ceil(base)) * _repeats(delta, config)


def qmebo_query_count(n: int, eps: float, delta: float, config: SubroutineConfig) -> int:
    """Queries charged (to each of the two binary oracles) by one mean estimation."""
    if not 0 < eps < math.inf:
        raise ContractViolation(f"eps must be positive and finite, got {eps!r}")
    base = math.sqrt(n) / eps + math.sqrt(n / eps)
    return max(1, math.ceil(base)) * _repeats(delta, config)


def btp_multiplier(eps: float, eta: float) -> int:
    """Per-use query multiplier of a binary-to-probability oracle conversion."""
    if not 0 < eps < math.inf:
        raise ContractViolation(f"conversion error must be positive and finite, got {eps!r}")
    if not 0 < eta < 0.5:
        raise ContractViolation(f"eta must be in (0, 1/2), got {eta!r}")
    return max(1, math.ceil(math.log(1.0 / math.sqrt(eps)) / eta))


# ---------------------------------------------------------------------------
# Emulated subroutines
# ---------------------------------------------------------------------------


def _bill(ledger: Optional[QueryLedger], oracles: Sequence[str], n_queries: int):
    """Charge ``n_queries`` to each of ``oracles`` (nothing without a ledger)."""
    if ledger is not None:
        for oracle in oracles:
            ledger.charge(oracle, n_queries)


def _rows(x, shape) -> np.ndarray:
    """A parameter of a ``shape`` stack in float64: 0-d if scalar, else flat, one per row."""
    x = np.asarray(x, dtype=np.float64)
    return x if x.ndim == 0 else (x if x.shape == shape else np.broadcast_to(x, shape)).reshape(-1)


def _batch_count(per_call, key: np.ndarray, shape) -> int:
    """Queries a stack of ``shape`` rows charges: ``per_call(key)`` summed over its rows.

    ``key``, from :func:`_rows`, is the one parameter the per-call count
    varies with; the count is computed once per distinct value.
    """
    if key.ndim == 0:
        return math.prod(shape) * per_call(float(key))
    keys = np.sort(key)
    cuts = [0, *((keys[1:] != keys[:-1]).nonzero()[0] + 1).tolist(), keys.size]
    return sum((b - a) * per_call(float(keys[a])) for a, b in zip(cuts, cuts[1:]) if b > a)


def _shaped(flat: np.ndarray, shape) -> np.ndarray:
    """A per-row result in the stack's shape (a numpy scalar for one row)."""
    return flat.reshape(shape)[()]


def _estimate(p, f, charged, eps, delta, config, rng, ledger, oracles) -> NoisyEstimate:
    """The tail of every mean estimator, over a stack of rows: bill, then draw.

    Draws follow the module's draw protocol.  A failed row's estimate is
    uniform over the function's value range; every other row's exact mean
    moves within its row's ``eps`` (a :func:`_rows` value) as the noise mode says.
    """
    _bill(ledger, oracles, charged)
    true_mean = _means(p, f).reshape(-1)
    value = true_mean.copy()
    failed, n_failed, ok = np.zeros(value.size, dtype=bool), 0, slice(None)
    if config.failure_injection:
        failed = rng.random(value.size) < delta
        n_failed = np.count_nonzero(failed)
    shape = p.shape[:-1]
    if n_failed:  # the mask is touched only when some row failed
        lo, hi = f.min(-1), f.max(-1)  # a row draws over its own function's range
        if f.ndim > 1:
            lead = f.shape[:-1] + (1,) * (p.ndim - f.ndim)
            lo, hi = (_rows(x.reshape(lead), shape)[failed] for x in (lo, hi))
        value[failed] = rng.uniform(lo, hi, size=n_failed)
        ok = ~failed
    if config.noise_mode != "exact":
        row_eps = eps[ok] if eps.ndim else float(eps)
        if config.noise_mode == "uniform_interval":
            # -e + (e + e) * u, exactly what rng.uniform(-e, e) returns
            noise = rng.random(value.size - n_failed) * (row_eps + row_eps) - row_eps
        else:
            noise = -row_eps if config.noise_mode == "adversarial_low" else row_eps
        value[ok] += noise
    return NoisyEstimate(
        _shaped(value, shape), charged, _shaped(failed, shape), _shaped(true_mean, shape)
    )


def qms_emulated(
    f: Sequence[float],
    delta: float,
    config: SubroutineConfig,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
    oracle: str = "func_binary",
    cost_per_query: int = 1,
):
    """Emulated maximum search over each row of ``f`` (one row or a stack).

    In faithful mode returns each row's smallest argmax index.  With failure
    injection, a row's search fails with probability ``delta`` and returns a
    uniformly random index.  Charges ``qms_query_count(N, delta)`` queries per
    row, each costing ``cost_per_query`` base-oracle queries (the hook the
    algorithms use to account for oracles that are themselves expensive).
    """
    values = np.asarray(f, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ContractViolation("cannot search an empty sequence")
    n = values.shape[-1]
    picked = values.reshape(-1, n).argmax(axis=1)
    n_queries = qms_query_count(n, delta, config)
    if ledger is not None:
        ledger.charge(oracle, picked.size * n_queries * int(cost_per_query))
    if config.failure_injection:
        failed = rng.random(picked.size) < delta
        picked[failed] = rng.integers(n, size=np.count_nonzero(failed))
    return _shaped(picked, values.shape[:-1])


def qme1_emulated(
    mean_query,
    u: float,
    eps,
    delta: float,
    config: SubroutineConfig,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
) -> NoisyEstimate:
    """Range-bounded mean estimation: values in [0, u], error at most eps."""
    p, f = _stack(*mean_query)
    lo, hi = float(f.min()), float(f.max())
    if lo < -1e-12 or hi > u + 1e-12:
        raise ContractViolation(
            f"function values must lie in [0, u={u!r}]; observed range [{lo!r}, {hi!r}]"
        )
    eps = _rows(eps, p.shape[:-1])
    charged = _batch_count(lambda e: qme1_query_count(u, e, delta, config), eps, p.shape[:-1])
    return _estimate(p, f, charged, eps, delta, config, rng, ledger, ("quantum_generative",))


def qme2_emulated(
    mean_query,
    sigma_bound,
    eps,
    delta: float,
    config: SubroutineConfig,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
) -> NoisyEstimate:
    """Variance-bounded mean estimation: Var(f) <= sigma_bound^2, error <= eps.

    Requires eps < 4 * sigma_bound on every row; violating that raises
    :class:`Qme2ContractError` so the caller can widen eps or fall back to the
    range-bounded estimator.
    """
    p, f = _stack(*mean_query)
    shape = p.shape[:-1]
    sigma_bound, eps = _rows(sigma_bound, shape), _rows(eps, shape)
    narrow = eps < 4.0 * sigma_bound
    if not narrow.all():
        first = np.flatnonzero(~narrow)[0]
        sigma_bound, eps = np.broadcast_arrays(sigma_bound, eps)
        raise Qme2ContractError(float(eps.flat[first]), float(sigma_bound.flat[first]))
    if config.debug_checks:
        mean = _means(p, f).reshape(-1)
        var = np.maximum(_means(p, f * f).reshape(-1) - mean * mean, 0.0)
        bound = np.broadcast_to(sigma_bound**2, var.shape)
        over = np.flatnonzero(var > bound + 1e-9)
        if over.size:
            var, bound = float(var[over[0]]), float(bound[over[0]])
            raise ContractViolation(f"variance {var!r} exceeds declared bound {bound!r}")
    if (eps <= 0).any():
        raise ContractViolation("eps must be positive")
    # The count depends on the bound only through the ratio sigma_bound / eps.
    charged = _batch_count(
        lambda ratio: qme2_query_count(ratio, 1.0, delta, config), sigma_bound / eps, shape
    )
    return _estimate(p, f, charged, eps, delta, config, rng, ledger, ("quantum_generative",))


def check_binary_query(p, f) -> tuple[np.ndarray, np.ndarray]:
    """The rows (..., N) and the one function (N,) of a binary-oracle mean query, checked.

    Every row must be a probability vector and every function value must lie
    in [0, 1]; raises :class:`ContractViolation` otherwise.
    """
    probs, values = _stack(p, np.reshape(f, -1))
    if ((probs < -STOCHASTICITY_TOL) | (probs > 1.0 + STOCHASTICITY_TOL)).any():
        raise ContractViolation("probabilities must lie in [0, 1]")
    sums = np.reshape(probs.sum(axis=-1), -1)
    off = np.abs(sums - 1.0)
    if (off > STOCHASTICITY_TOL).any():
        raise ContractViolation(f"probabilities sum to {float(sums[off.argmax()])!r}, not 1")
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        raise ContractViolation(
            f"function values must lie in [0, 1]; observed range "
            f"[{values.min()!r}, {values.max()!r}]"
        )
    return probs, values


def qmebo_emulated(
    p,
    f: Sequence[float],
    eps,
    delta: float,
    config: SubroutineConfig,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
) -> NoisyEstimate:
    """Mean estimation from two binary oracles; f in [0, 1]^N, error <= eps.

    Every row of ``p`` must be a probability vector.  Charges the same query
    count to the distribution oracle and the function oracle.
    """
    probs, values = check_binary_query(p, f)
    eps = _rows(eps, probs.shape[:-1])
    charged = _batch_count(
        lambda e: qmebo_query_count(values.size, e, delta, config), eps, probs.shape[:-1]
    )
    return _estimate(probs, values, charged, eps, delta, config, rng, ledger, BINARY_ORACLES)


def btp_cost(eps: float, eta: float, ledger: Optional[QueryLedger] = None) -> int:
    """Account one binary-to-probability oracle conversion.

    Returns the per-use multiplier: every subsequent query to the converted
    probability oracle costs this many base-oracle queries.  ``eps`` is the
    conversion's probability perturbation bound; ``eta`` the smallest nonzero
    probability the conversion must resolve.
    """
    multiplier = btp_multiplier(eps, eta)
    if ledger is not None:
        ledger.charge("oracle_conversion", 1)
    return multiplier
