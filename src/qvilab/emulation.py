"""Query-model emulation of the quantum subroutines.

Each emulated call returns a value satisfying the corresponding theorem's
error/success contract, charges the theorem's query cost to a ledger, and can
optionally inject failures at the stated rate.  Because the emulator knows the
exact answer, the error contract is enforced *by construction*: in faithful
mode every estimate is within eps of the true mean.

The three mean estimators check their own preconditions and then share one
tail, :func:`_estimate`, which does the same three steps in a fixed order on
every call: bill the query count to each oracle, make the failure draw (only
with failure injection on), then make the noise draw.

Cost formulas use natural logarithms and ceilings, with explicit constants
(``qms_constant`` for the search subroutine, ``powering_repeats`` per unit of
log(1/delta) for median boosting); the minimum charge is one query per
invocation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ledger import QueryLedger

NOISE_MODES = ("exact", "uniform_interval", "adversarial_low", "adversarial_high")


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
        if self.qms_constant <= 0:
            raise ValueError("qms_constant must be positive")
        if self.powering_repeats < 1:
            raise ValueError("powering_repeats must be >= 1")


@dataclass(frozen=True)
class NoisyEstimate:
    """An emulated estimate plus its accounting and ground truth."""

    value: float
    charged_queries: int
    failed: bool
    true_mean: float


def _pair(p, f) -> tuple[np.ndarray, np.ndarray]:
    """The (distribution, function) pair an estimator is asked about, as flat arrays."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if p.shape != f.shape:
        raise ContractViolation("distribution and function must have the same length")
    if p.size == 0:
        raise ContractViolation("empty mean query")
    return p, f


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
    if eps <= 0:
        raise ContractViolation("eps must be positive")
    ratio = u / eps
    return max(1, math.ceil(ratio + math.sqrt(ratio))) * _repeats(delta, config)


def qme2_query_count(
    sigma_bound: float, eps: float, delta: float, config: SubroutineConfig
) -> int:
    """Queries charged by one variance-bounded mean estimation."""
    if eps <= 0:
        raise ContractViolation("eps must be positive")
    ratio = sigma_bound / eps
    base = math.ceil(ratio * max(1.0, math.log(ratio)) ** 2) if ratio > 0 else 0
    return max(1, base) * _repeats(delta, config)


def qmebo_query_count(n: int, eps: float, delta: float, config: SubroutineConfig) -> int:
    """Queries charged (to each of the two binary oracles) by one mean estimation."""
    if eps <= 0:
        raise ContractViolation("eps must be positive")
    base = math.sqrt(n) / eps + math.sqrt(n / eps)
    return max(1, math.ceil(base)) * _repeats(delta, config)


def btp_multiplier(eps: float, eta: float) -> int:
    """Per-use query multiplier of a binary-to-probability oracle conversion."""
    if eps <= 0:
        raise ContractViolation("conversion error must be positive")
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


def _estimate(p, f, n_queries, eps, delta, config, rng, ledger, oracles) -> NoisyEstimate:
    """The tail of every mean estimator: bill, failure draw, noise draw.

    A failed estimate is uniform over the function's value range; otherwise
    the exact mean moves within ``eps`` as ``config.noise_mode`` says.
    """
    _bill(ledger, oracles, n_queries)
    true_mean = float(p @ f)
    if config.failure_injection and rng.random() < delta:
        return NoisyEstimate(float(rng.uniform(f.min(), f.max())), n_queries, True, true_mean)
    value = true_mean
    if config.noise_mode == "uniform_interval":
        value = true_mean + rng.uniform(-eps, eps)
    elif config.noise_mode == "adversarial_low":
        value = true_mean - eps
    elif config.noise_mode == "adversarial_high":
        value = true_mean + eps
    return NoisyEstimate(value, n_queries, False, true_mean)


def qms_emulated(
    f: Sequence[float],
    delta: float,
    config: SubroutineConfig,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
    oracle: str = "func_binary",
    cost_per_query: int = 1,
) -> int:
    """Emulated maximum search: index of the largest entry of ``f``.

    In faithful mode returns the smallest argmax index.  With failure
    injection, with probability ``delta`` a uniformly random index is
    returned instead.  Charges ``qms_query_count(N, delta)`` oracle queries,
    each costing ``cost_per_query`` base-oracle queries (the hook the
    algorithms use to account for oracles that are themselves expensive).
    """
    values = np.asarray(f, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ContractViolation("cannot search an empty sequence")
    n_queries = qms_query_count(values.size, delta, config)
    if ledger is not None:
        ledger.charge(oracle, n_queries * int(cost_per_query))
    if config.failure_injection and rng.random() < delta:
        return int(rng.integers(values.size))
    return int(values.argmax())


def qme1_emulated(
    mean_query,
    u: float,
    eps: float,
    delta: float,
    config: SubroutineConfig,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
    oracle: str = "quantum_generative",
) -> NoisyEstimate:
    """Range-bounded mean estimation: values in [0, u], error at most eps."""
    p, f = _pair(*mean_query)
    lo, hi = float(f.min()), float(f.max())
    if lo < -1e-12 or hi > u + 1e-12:
        raise ContractViolation(
            f"function values must lie in [0, u={u!r}]; observed range [{lo!r}, {hi!r}]"
        )
    n_queries = qme1_query_count(u, eps, delta, config)
    return _estimate(p, f, n_queries, eps, delta, config, rng, ledger, (oracle,))


def qme2_emulated(
    mean_query,
    sigma_bound: float,
    eps: float,
    delta: float,
    config: SubroutineConfig,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
    oracle: str = "quantum_generative",
) -> NoisyEstimate:
    """Variance-bounded mean estimation: Var(f) <= sigma_bound^2, error <= eps.

    Requires eps < 4 * sigma_bound; violating that raises
    :class:`Qme2ContractError` so the caller can widen eps or fall back to the
    range-bounded estimator.
    """
    p, f = _pair(*mean_query)
    if not eps < 4.0 * sigma_bound:
        raise Qme2ContractError(eps, sigma_bound)
    if config.debug_checks:
        mean = float(p @ f)
        var = max(float(p @ (f * f)) - mean * mean, 0.0)
        if var > sigma_bound**2 + 1e-9:
            raise ContractViolation(
                f"variance {var!r} exceeds declared bound {sigma_bound**2!r}"
            )
    n_queries = qme2_query_count(sigma_bound, eps, delta, config)
    return _estimate(p, f, n_queries, eps, delta, config, rng, ledger, (oracle,))


def qmebo_emulated(
    p,
    f: Sequence[float],
    eps: float,
    delta: float,
    config: SubroutineConfig,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
    oracles: tuple[str, str] = ("dist_binary", "func_binary"),
) -> NoisyEstimate:
    """Mean estimation from two binary oracles; f in [0, 1]^N, error <= eps.

    Charges the same query count to the distribution oracle and the function
    oracle.
    """
    from .mdp import as_probability_vector  # local import avoids a cycle

    probs, values = _pair(as_probability_vector(p), f)
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        raise ContractViolation(
            f"function values must lie in [0, 1]; observed range "
            f"[{values.min()!r}, {values.max()!r}]"
        )
    n_queries = qmebo_query_count(values.size, eps, delta, config)
    return _estimate(probs, values, n_queries, eps, delta, config, rng, ledger, oracles)


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
