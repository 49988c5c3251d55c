"""The planning algorithms over a subroutine provider, in one registry.

All run backward induction; they differ in how the next-step expectation is
obtained and billed:

* ``vi`` - exact value iteration, the classical ground truth.  No queries.
* ``qvi1`` - exact expectations from the table oracle, quantum maximum search
  over actions.  Exact outputs.
* ``qvi2`` - binary-oracle mean estimation of the rescaled values, one-sided
  offsets, near-optimal outputs.
* ``qvi3`` - range-bounded mean estimation against the generative model.
* ``qvi4`` - epoch scheme with variance reduction and variance-scaled error
  targets; also returns Q tables.
* ``qvi5`` - table oracle converted to a probability oracle (charged through
  the conversion multiplier), with an explicitly perturbed transition table.

Query accounting follows the algorithms' cost analyses: where a search probes
an oracle that itself runs an estimator, the ledger is charged search-probes
times estimator-cost (times the conversion multiplier for ``qvi5``), not one
flat estimator call per action.

Within a layer the per-(s, a) estimator calls are independent and could run
concurrently with split random streams; layers and epochs are strictly
sequential.  This implementation keeps a single stream and loops in a fixed
order so runs are reproducible.

Each algorithm is described once, by its signature in :data:`ALGORITHMS`;
:func:`solve` passes it the parameters it names.  Parameters outside an
algorithm's feasible range raise :class:`InfeasibleParams` before any query
is charged or any random number is drawn.
"""
from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .emulation import btp_cost
from .ledger import QueryLedger
from .mdp import FiniteHorizonMdp, Policy, QTable, ValueTable, exact_value_iteration

QMS_BUDGET_MODES = ("per_state", "literal")


@dataclass(frozen=True)
class QviResult:
    """Outputs of one planning run plus its query ledger and run metadata."""

    algorithm: str
    policy: Policy
    values: ValueTable
    qvalues: Optional[QTable]
    ledger: QueryLedger
    seed: int
    params: dict
    wall_time: float
    epoch_trace: Optional[list] = None

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "policy": self.policy.actions.tolist(),
            "V": self.values.values.tolist(),
            "Q": None if self.qvalues is None else self.qvalues.qvalues.tolist(),
            "ledger": self.ledger.as_dict(),
            "config": self.params,
            "seed": self.seed,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


@dataclass
class Qvi4State:
    """Per-epoch working state of the variance-reduced algorithm."""

    epoch: int
    eps_k: float
    zeta: float
    c: float
    b: float
    v: np.ndarray  # V_{k, .} after the monotone update, shape (H+1, S)
    v_start: np.ndarray  # epoch-start reference values, shape (H+1, S)
    v_raw: np.ndarray  # greedy values before the monotone update
    q: np.ndarray  # estimate-based Q tables, shape (H, S, A)
    policy: np.ndarray  # shape (S, H)
    policy_start: np.ndarray
    policy_raw: np.ndarray
    y: np.ndarray  # clipped variance estimates, shape (H, S, A)
    x: np.ndarray  # offset estimates of the reference expectation
    g: np.ndarray  # offset estimates of the correction expectation


class InfeasibleParams(ValueError):
    """Accuracy parameters outside the range an algorithm's guarantees cover."""


def _validate_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise InfeasibleParams(f"delta must be in (0, 1), got {delta!r}")


def _validate_eps(eps: float, hi: float, what: str) -> None:
    if not 0 < eps <= hi:
        raise InfeasibleParams(f"eps must be in (0, {what}={hi:.4g}], got {eps!r}")


def _estimator_budget(mdp: FiniteHorizonMdp, delta: float, qms_constant: float) -> float:
    """Per-estimator failure budget used by the near-optimal algorithms."""
    n_s, n_a, horizon = mdp.num_states, mdp.num_actions, mdp.horizon
    zeta = delta / (4.0 * qms_constant * n_s * n_a**1.5 * horizon * math.log(1.0 / delta))
    if not 0 < zeta < 1:
        raise InfeasibleParams(
            f"estimator failure budget {zeta!r} is not a probability; use a smaller delta"
        )
    return zeta


def _qms_budget(mdp: FiniteHorizonMdp, delta: float, mode: str) -> float:
    """Search failure budget: delta/(S*H) per the correctness analyses, or the
    literal per-call delta when requested."""
    if mode not in QMS_BUDGET_MODES:
        raise ValueError(f"qms_budget_mode must be one of {QMS_BUDGET_MODES}")
    if mode == "literal":
        return delta
    return delta / (mdp.num_states * mdp.horizon)


def _result(algorithm, pi, v, q, ledger, provider, params, started, trace=None):
    return QviResult(
        algorithm=algorithm,
        policy=Policy(pi),
        values=ValueTable(v),
        qvalues=None if q is None else QTable(q),
        ledger=ledger,
        seed=provider.config.rng_seed,
        params=params,
        wall_time=time.perf_counter() - started,
        epoch_trace=trace,
    )


# ---------------------------------------------------------------------------
# vi: exact backward induction, the ground truth every algorithm is checked against
# ---------------------------------------------------------------------------


def vi(mdp: FiniteHorizonMdp, provider, ledger: QueryLedger) -> QviResult:
    """Optimal policy, values and Q tables by exact backward induction; no queries."""
    started = time.perf_counter()
    pi, v, q = exact_value_iteration(mdp)
    return _result("vi", pi.actions, v.values, q.qvalues, ledger, provider, {}, started)


# ---------------------------------------------------------------------------
# qvi1: exact expectations + quantum maximum search
# ---------------------------------------------------------------------------


def qvi1(mdp: FiniteHorizonMdp, delta: float, provider, ledger: QueryLedger) -> QviResult:
    """Optimal policy and values; each search probe costs S table-oracle queries."""
    started = time.perf_counter()
    _validate_delta(delta)
    n_s, horizon = mdp.num_states, mdp.horizon
    zeta = delta / (n_s * horizon)
    v = np.zeros((horizon + 1, n_s))
    pi = np.zeros((n_s, horizon), dtype=np.int64)
    for h in range(horizon - 1, -1, -1):
        q = mdp.rewards[h] + mdp.transitions[h] @ v[h + 1]
        for s in range(n_s):
            a_star = provider.qms(
                q[s],
                zeta,
                ledger,
                oracle="quantum_mdp",
                cost_per_query=n_s,
                tag=f"qvi1 h={h} s={s}",
            )
            pi[s, h] = a_star
            v[h, s] = q[s, a_star]
    params = {"delta": delta, "noise_mode": provider.config.noise_mode}
    return _result("qvi1", pi, v, None, ledger, provider, params, started)


# ---------------------------------------------------------------------------
# qvi2 / qvi3 / qvi5 share one offset-estimate recursion
# ---------------------------------------------------------------------------


def _offset_recursion(
    algorithm: str,
    mdp: FiniteHorizonMdp,
    rows: np.ndarray,
    estimate,
    zeta_qms: float,
    provider,
    ledger: QueryLedger,
    per_call_cost: int,
    oracle: str,
    extra_oracles: tuple = (),
    started: float = 0.0,
    params: Optional[dict] = None,
    value_scale: int = 1,
):
    """Backward induction with one-sided offset estimates and searched argmax.

    ``estimate(rows[h, s, a], v_next, tag)`` returns the offset estimate z of
    one action's next-step expectation, given the next-step values divided by
    ``value_scale`` (divided once per layer); the searched row is
    max(r + z, 0), searched with failure budget ``zeta_qms``.  Each search
    probe is billed ``per_call_cost`` base-oracle queries to ``oracle`` (and
    to each oracle in ``extra_oracles``).
    """
    n_s, n_a, horizon = mdp.num_states, mdp.num_actions, mdp.horizon
    probes = provider.qms_call_cost(n_a, zeta_qms)
    v = np.zeros((horizon + 1, n_s))
    pi = np.zeros((n_s, horizon), dtype=np.int64)
    z = np.empty(n_a)
    for h in range(horizon - 1, -1, -1):
        v_next = v[h + 1] / value_scale
        for s in range(n_s):
            for a in range(n_a):
                z[a] = estimate(rows[h, s, a], v_next, f"{algorithm} h={h} s={s} a={a}")
            q_row = np.maximum(mdp.rewards[h, s] + z, 0.0)
            a_star = provider.qms(
                q_row,
                zeta_qms,
                ledger,
                oracle=oracle,
                cost_per_query=per_call_cost,
                tag=f"{algorithm} h={h} s={s}",
            )
            for name in extra_oracles:
                ledger.charge(name, probes * per_call_cost, tag=f"{algorithm} h={h} s={s}")
            pi[s, h] = a_star
            v[h, s] = min(q_row[a_star], float(horizon))  # keep values in [0, H]
    return _result(algorithm, pi, v, None, ledger, provider, params or {}, started)


def _offset_params(provider, eps, delta, qms_budget_mode, **extra) -> dict:
    """Run parameters of qvi2/qvi3/qvi5, algorithm-specific ones after eps and delta."""
    return {"eps": eps, "delta": delta, **extra, "qms_budget_mode": qms_budget_mode,
            "noise_mode": provider.config.noise_mode}


def qvi2(
    mdp: FiniteHorizonMdp,
    eps: float,
    delta: float,
    provider,
    ledger: QueryLedger,
    qms_budget_mode: str = "per_state",
) -> QviResult:
    """Near-optimal policy/values from binary-oracle mean estimation.

    Values are rescaled to [0, 1] before estimation; the per-call error is
    eps/(2H^2) on the rescaled mean and the scaled-back estimate is shifted
    down by eps/(2H) so it never exceeds the true expectation.
    """
    started = time.perf_counter()
    _validate_eps(eps, mdp.horizon, "H")
    _validate_delta(delta)
    horizon = mdp.horizon
    zeta = _estimator_budget(mdp, delta, provider.config.qms_constant)
    zeta_qms = _qms_budget(mdp, delta, qms_budget_mode)
    eps_call = eps / (2.0 * horizon**2)
    offset = eps / (2.0 * horizon)
    per_call = provider.qmebo_call_cost(mdp.num_states, eps_call, zeta)

    def estimate(p, scaled, tag):
        return horizon * provider.mean_binary(p, scaled, eps_call, zeta, tag=tag).value - offset

    return _offset_recursion(
        "qvi2",
        mdp,
        mdp.transitions,
        estimate,
        zeta_qms,
        provider,
        ledger,
        per_call,
        oracle="quantum_mdp",
        extra_oracles=("func_binary",),
        started=started,
        params=_offset_params(provider, eps, delta, qms_budget_mode),
        value_scale=horizon,
    )


def qvi3(
    mdp: FiniteHorizonMdp,
    eps: float,
    delta: float,
    provider,
    ledger: QueryLedger,
    qms_budget_mode: str = "per_state",
) -> QviResult:
    """Near-optimal policy/values from the generative model."""
    started = time.perf_counter()
    _validate_eps(eps, mdp.horizon, "H")
    _validate_delta(delta)
    horizon = mdp.horizon
    zeta = _estimator_budget(mdp, delta, provider.config.qms_constant)
    zeta_qms = _qms_budget(mdp, delta, qms_budget_mode)
    eps_call = eps / (2.0 * horizon)
    per_call = provider.qme1_call_cost(float(horizon), eps_call, zeta)

    def estimate(p, v_next, tag):
        est = provider.mean_bounded(p, v_next, float(horizon), eps_call, zeta, tag=tag)
        return est.value - eps_call

    return _offset_recursion(
        "qvi3",
        mdp,
        mdp.transitions,
        estimate,
        zeta_qms,
        provider,
        ledger,
        per_call,
        oracle="quantum_generative",
        started=started,
        params=_offset_params(provider, eps, delta, qms_budget_mode),
    )


def perturbed_transitions(
    mdp: FiniteHorizonMdp, bound: float, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """Transition tables moved by at most ``bound`` on each supported entry.

    Support is preserved, rows still sum to one (perturbations are zero-sum
    per row), and entries stay within [0, 1].  ``scale`` in [0, 1] shrinks the
    perturbation; 0 returns the exact tables.
    """
    out = np.array(mdp.transitions)
    if scale == 0.0 or bound == 0.0:
        return out
    width = bound * scale
    horizon, n_s, n_a, _ = out.shape
    for h in range(horizon):
        for s in range(n_s):
            for a in range(n_a):
                row = out[h, s, a]
                support = np.flatnonzero(row)
                if support.size < 2:
                    continue
                shift = rng.uniform(-width / 2.0, width / 2.0, size=support.size)
                shift -= shift.mean()  # zero-sum keeps the row normalized
                moved = row[support] + shift
                if moved.min() < 0.0 or moved.max() > 1.0:
                    lo = (row[support] / np.maximum(-shift, 1e-300)).min()
                    hi = ((1.0 - row[support]) / np.maximum(shift, 1e-300)).min()
                    shift *= min(1.0, lo, hi)
                row[support] += shift
    return out


def qvi5(
    mdp: FiniteHorizonMdp,
    eps: float,
    delta: float,
    eta: float,
    provider,
    ledger: QueryLedger,
    qms_budget_mode: str = "per_state",
    perturb_scale: float = 1.0,
) -> QviResult:
    """Near-optimal policy/values through a converted probability oracle.

    ``eta`` must lower-bound every nonzero transition probability.  The
    conversion perturbs probabilities by at most eps/(4 S H^2); the emulation
    realizes this with an explicit perturbed table and bills every converted
    oracle query ``btp`` multiplier times.
    """
    started = time.perf_counter()
    _validate_eps(eps, mdp.horizon, "H")
    _validate_delta(delta)
    if not 0 < eta < 0.5:
        raise InfeasibleParams(f"eta must be in (0, 1/2), got {eta!r}")
    positive = mdp.transitions[mdp.transitions > 0]
    if positive.size and positive.min() < eta - 1e-12:
        raise InfeasibleParams(
            f"eta={eta!r} is not a lower bound: smallest supported probability is "
            f"{float(positive.min())!r}"
        )
    n_s, horizon = mdp.num_states, mdp.horizon
    zeta = _estimator_budget(mdp, delta, provider.config.qms_constant)
    zeta_qms = _qms_budget(mdp, delta, qms_budget_mode)
    eps_call = eps / (4.0 * horizon)
    offset = eps / (2.0 * horizon)
    conversion_eps = eps / (4.0 * n_s * horizon**2)
    multiplier = btp_cost(n_s, horizon, conversion_eps, eta, ledger, tag="qvi5")
    per_call = provider.qme1_call_cost(float(horizon), eps_call, zeta) * multiplier
    perturbed = perturbed_transitions(mdp, conversion_eps, provider.rng, perturb_scale)

    def estimate(p, v_next, tag):
        est = provider.mean_bounded(p, v_next, float(horizon), eps_call, zeta, tag=tag)
        return est.value - offset

    return _offset_recursion(
        "qvi5",
        mdp,
        perturbed,
        estimate,
        zeta_qms,
        provider,
        ledger,
        per_call,
        oracle="quantum_mdp",
        started=started,
        params=_offset_params(
            provider, eps, delta, qms_budget_mode, eta=eta, perturb_scale=perturb_scale
        ),
    )


# ---------------------------------------------------------------------------
# qvi4: variance reduction + variance-scaled error targets
# ---------------------------------------------------------------------------


def qvi4(
    mdp: FiniteHorizonMdp,
    eps: float,
    delta: float,
    provider,
    ledger: QueryLedger,
    c: float = 0.001,
    b: float = 1.0,
    keep_trace: bool = False,
) -> QviResult:
    """Near-optimal policy, values, and Q tables via the epoch scheme.

    Runs K = ceil(log2(H/eps)) + 1 epochs with error targets halving each
    epoch.  Per epoch: clipped variance estimates (two range-bounded mean
    estimations), reference-expectation estimates at a variance-scaled error
    (the estimated deviation doubles as the variance bound, so the bound/error
    ratio is a constant), correction estimates inside the backward sweep, and
    a monotone update that never lets values regress below the epoch-start
    reference.
    """
    started = time.perf_counter()
    _validate_eps(eps, math.sqrt(mdp.horizon), "sqrt(H)")
    _validate_delta(delta)
    n_s, n_a, horizon = mdp.num_states, mdp.num_actions, mdp.horizon
    epochs = math.ceil(math.log2(horizon / eps)) + 1
    zeta = delta / (4.0 * epochs * horizon * n_s * n_a)
    idx = np.arange(n_s)

    v_start = np.zeros((horizon + 1, n_s))
    pi_start = np.zeros((n_s, horizon), dtype=np.int64)
    trace: list[Qvi4State] = []
    v = v_start
    pi = pi_start
    q = np.zeros((horizon, n_s, n_a))
    for k in range(epochs):
        eps_k = horizon / 2.0**k
        y = np.empty((horizon, n_s, n_a))
        x = np.empty((horizon, n_s, n_a))
        g = np.empty((horizon, n_s, n_a))
        v_raw = np.zeros((horizon + 1, n_s))
        pi_raw = np.zeros((n_s, horizon), dtype=np.int64)
        # Estimate the reference expectations for every (s, a, h) up front;
        # only the correction term is computed inside the backward sweep.
        for h in range(horizon):
            ref = v_start[h + 1]
            ref_sq = ref * ref
            for s in range(n_s):
                for a in range(n_a):
                    tag = f"qvi4 k={k} h={h} s={s} a={a}"
                    second = provider.mean_bounded(
                        mdp.transitions[h, s, a],
                        ref_sq,
                        float(horizon) ** 2,
                        b,
                        zeta,
                        ledger,
                        tag=tag + " y2",
                    )
                    first = provider.mean_bounded(
                        mdp.transitions[h, s, a],
                        ref,
                        float(horizon),
                        b / horizon,
                        zeta,
                        ledger,
                        tag=tag + " y1",
                    )
                    y[h, s, a] = max(second.value - first.value**2, 0.0)
                    spread = math.sqrt(y[h, s, a] + 4.0 * b)
                    err = c * eps / horizon**1.5 * spread
                    ref_est = provider.mean_with_variance_bound(
                        mdp.transitions[h, s, a],
                        ref,
                        spread,
                        err,
                        zeta,
                        ledger,
                        tag=tag + " x",
                    )
                    x[h, s, a] = ref_est.value - err
        v = np.zeros((horizon + 1, n_s))
        pi = np.zeros((n_s, horizon), dtype=np.int64)
        for h in range(horizon - 1, -1, -1):
            correction = v[h + 1] - v_start[h + 1]
            err_g = c * eps_k / horizon
            for s in range(n_s):
                for a in range(n_a):
                    est = provider.mean_bounded(
                        mdp.transitions[h, s, a],
                        correction,
                        2.0 * eps_k,
                        err_g,
                        zeta,
                        ledger,
                        tag=f"qvi4 k={k} h={h} s={s} a={a} g",
                    )
                    g[h, s, a] = est.value - err_g
            q[h] = np.maximum(mdp.rewards[h] + x[h] + g[h], 0.0)
            greedy = q[h].argmax(axis=1)
            greedy_v = np.minimum(q[h][idx, greedy], float(horizon))
            v_raw[h] = greedy_v
            pi_raw[:, h] = greedy
            keep = greedy_v <= v_start[h]
            v[h] = np.where(keep, v_start[h], greedy_v)
            pi[:, h] = np.where(keep, pi_start[:, h], greedy)
        if keep_trace:
            trace.append(
                Qvi4State(
                    epoch=k,
                    eps_k=eps_k,
                    zeta=zeta,
                    c=c,
                    b=b,
                    v=v.copy(),
                    v_start=v_start.copy(),
                    v_raw=v_raw,
                    q=q.copy(),
                    policy=pi.copy(),
                    policy_start=pi_start.copy(),
                    policy_raw=pi_raw,
                    y=y,
                    x=x,
                    g=g,
                )
            )
        v_start = v
        pi_start = pi
    params = {
        "eps": eps,
        "delta": delta,
        "c": c,
        "b": b,
        "epochs": epochs,
        "noise_mode": provider.config.noise_mode,
    }
    return _result(
        "qvi4",
        pi,
        v,
        np.clip(q, 0.0, float(horizon)),
        ledger,
        provider,
        params,
        started,
        trace=trace if keep_trace else None,
    )


ALGORITHMS = {
    "vi": vi,
    "qvi1": qvi1,
    "qvi2": qvi2,
    "qvi3": qvi3,
    "qvi4": qvi4,
    "qvi5": qvi5,
}


def solve(
    name: str,
    mdp: FiniteHorizonMdp,
    provider,
    ledger: QueryLedger,
    *,
    eps: float,
    delta: float,
    eta: float,
    qms_budget_mode: str = "per_state",
) -> QviResult:
    """Run ``ALGORITHMS[name]`` with the parameters its signature names.

    Raises :class:`InfeasibleParams` when the parameters it takes are outside
    its feasible range.
    """
    fn = ALGORITHMS[name]
    offered = {"eps": eps, "delta": delta, "eta": eta, "qms_budget_mode": qms_budget_mode}
    taken = inspect.signature(fn).parameters
    params = {key: value for key, value in offered.items() if key in taken}
    return fn(mdp, provider=provider, ledger=ledger, **params)
