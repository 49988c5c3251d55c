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

Within a layer the per-(s, a) estimates are independent, so each backward
step makes one provider call per estimator kind over the layer's (S, A)
stack of transition rows, and one search call over its (S, A) table of
action values; the provider draws for the rows in C order (see the draw
protocol in :mod:`qvilab.emulation`); ``qvi4`` makes its reference estimates
once per epoch, over all steps.  Layers and epochs are strictly sequential.
A run keeps a single random stream, so it is reproducible.

Every run keeps one trace: a :class:`LayerRecord` per backward step (per
epoch and step for ``qvi4``) with the step's wall time, its ledger delta per
oracle, the estimates and searches that failed under failure injection, and
the value row it produced.  ``vi`` makes no steps and has an empty trace.

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
class LayerRecord:
    """One backward step of a run: where its time, queries and failures went.

    ``queries`` is the step's ledger delta per oracle and ``values`` the V[h]
    row the step produced; ``epoch`` is 0 except in qvi4.  A search counts as
    failed when the action it returned scores below the searched row's
    maximum.  qvi4's epoch-wide reference estimates run before its step
    H - 1, whose record holds their time, charges and failed estimates, so
    the records' queries still sum to the ledger.
    """

    epoch: int
    h: int
    seconds: float
    queries: dict
    failed_estimates: int
    failed_searches: int
    values: np.ndarray


class _Trace:
    """Builds a run's layer records from its ledger and the clock; each record
    covers what happened since the previous one (or since the trace began)."""

    def __init__(self, ledger: QueryLedger):
        self.ledger = ledger
        self.records: list[LayerRecord] = []
        self.started, self.before = time.perf_counter(), ledger.as_dict()

    def close(self, epoch, h, failed_estimates, failed_searches, values) -> None:
        now, counts = time.perf_counter(), self.ledger.as_dict()
        queries = {name: n - self.before[name] for name, n in counts.items()}
        self.records.append(LayerRecord(
            epoch, h, now - self.started, queries, failed_estimates, failed_searches, values.copy(),
        ))
        self.started, self.before = now, counts


@dataclass(frozen=True)
class QviResult:
    """Outputs of one planning run plus its query ledger, metadata and trace."""

    algorithm: str
    policy: Policy
    values: ValueTable
    qvalues: Optional[QTable]
    ledger: QueryLedger
    seed: int
    params: dict
    trace: tuple = ()

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
            fh.write(json.dumps(self.to_json()))


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


def _search(provider, rows, delta, ledger, oracle, cost_per_query):
    """Search every row of the (S, A) table ``rows`` in one provider call: the
    actions found, their values, and how many scored below their row's maximum."""
    actions = provider.qms(rows, delta, ledger, oracle=oracle, cost_per_query=cost_per_query)
    states = np.arange(len(rows))
    picked, best = rows[states, actions], rows[states, rows.argmax(axis=1)]  # max, but faster
    return actions, picked, int(np.count_nonzero(picked < best))


def _result(algorithm, pi, v, q, ledger, provider, params, trace=None):
    return QviResult(
        algorithm=algorithm,
        policy=Policy(pi),
        values=ValueTable(v),
        qvalues=None if q is None else QTable(q),
        ledger=ledger,
        seed=provider.config.rng_seed,
        params=params,
        trace=() if trace is None else tuple(trace.records),
    )


# ---------------------------------------------------------------------------
# vi: exact backward induction, the ground truth every algorithm is checked against
# ---------------------------------------------------------------------------


def vi(mdp: FiniteHorizonMdp, provider, ledger: QueryLedger) -> QviResult:
    """Optimal policy, values and Q tables by exact backward induction; no queries."""
    pi, v, q = exact_value_iteration(mdp)
    return _result("vi", pi.actions, v.values, q.qvalues, ledger, provider, {})


# ---------------------------------------------------------------------------
# qvi1: exact expectations + quantum maximum search
# ---------------------------------------------------------------------------


def qvi1(mdp: FiniteHorizonMdp, delta: float, provider, ledger: QueryLedger) -> QviResult:
    """Optimal policy and values; each search probe costs S table-oracle queries."""
    _validate_delta(delta)
    n_s, horizon = mdp.num_states, mdp.horizon
    zeta = delta / (n_s * horizon)
    v = np.zeros((horizon + 1, n_s))
    pi = np.zeros((n_s, horizon), dtype=np.int64)
    trace = _Trace(ledger)
    for h in range(horizon - 1, -1, -1):
        q = mdp.rewards[h] + mdp.transitions[h] @ v[h + 1]
        pi[:, h], v[h], failed = _search(provider, q, zeta, ledger, "quantum_mdp", n_s)
        trace.close(0, h, 0, failed, v[h])
    params = {"delta": delta, "noise_mode": provider.config.noise_mode}
    return _result("qvi1", pi, v, None, ledger, provider, params, trace)


# ---------------------------------------------------------------------------
# qvi2 / qvi3 / qvi5 share one offset-estimate recursion
# ---------------------------------------------------------------------------


def _offset_recursion(
    algorithm: str, mdp: FiniteHorizonMdp, rows: np.ndarray, estimator, bounds: tuple,
    offset: float, zeta_qms: float, provider, ledger: QueryLedger, per_call_cost: int,
    oracle: str, extra_oracles: tuple = (), params: Optional[dict] = None, value_scale: int = 1,
):
    """Backward induction with one-sided offset estimates and searched argmax.

    Each step makes one ``estimator(rows[h], v_next, *bounds)`` call, a
    provider method that estimates every action's next-step expectation given
    the next-step values divided by ``value_scale``.  The offset estimates are
    z = value_scale * estimate - offset, and each state's searched row is
    max(r + z, 0), searched with failure budget ``zeta_qms``.  Each search
    probe is billed ``per_call_cost`` base-oracle queries to ``oracle`` (and
    to each oracle in ``extra_oracles``).
    """
    n_s, horizon = mdp.num_states, mdp.horizon
    probes = provider.qms_call_cost(mdp.num_actions, zeta_qms)
    v = np.zeros((horizon + 1, n_s))
    pi = np.zeros((n_s, horizon), dtype=np.int64)
    trace = _Trace(ledger)
    for h in range(horizon - 1, -1, -1):
        est = estimator(rows[h], v[h + 1] / value_scale, *bounds)
        q = np.maximum(mdp.rewards[h] + (value_scale * est.value - offset), 0.0)
        pi[:, h], picked, failed = _search(provider, q, zeta_qms, ledger, oracle, per_call_cost)
        for name in extra_oracles:
            ledger.charge(name, n_s * probes * per_call_cost)
        v[h] = np.minimum(picked, float(horizon))  # keep values in [0, H]
        trace.close(0, h, int(np.count_nonzero(est.failed)), failed, v[h])
    return _result(algorithm, pi, v, None, ledger, provider, params or {}, trace)


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
    _validate_eps(eps, mdp.horizon, "H")
    _validate_delta(delta)
    horizon = mdp.horizon
    zeta = _estimator_budget(mdp, delta, provider.config.qms_constant)
    zeta_qms = _qms_budget(mdp, delta, qms_budget_mode)
    eps_call = eps / (2.0 * horizon**2)
    per_call = provider.qmebo_call_cost(mdp.num_states, eps_call, zeta)
    return _offset_recursion(
        "qvi2", mdp, mdp.transitions, provider.mean_binary, (eps_call, zeta),
        eps / (2.0 * horizon), zeta_qms, provider, ledger, per_call, oracle="quantum_mdp",
        extra_oracles=("func_binary",), value_scale=horizon,
        params=_offset_params(provider, eps, delta, qms_budget_mode),
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
    _validate_eps(eps, mdp.horizon, "H")
    _validate_delta(delta)
    horizon = mdp.horizon
    zeta = _estimator_budget(mdp, delta, provider.config.qms_constant)
    zeta_qms = _qms_budget(mdp, delta, qms_budget_mode)
    eps_call = eps / (2.0 * horizon)
    per_call = provider.qme1_call_cost(float(horizon), eps_call, zeta)
    return _offset_recursion(
        "qvi3", mdp, mdp.transitions, provider.mean_bounded, (float(horizon), eps_call, zeta),
        eps_call, zeta_qms, provider, ledger, per_call, oracle="quantum_generative",
        params=_offset_params(provider, eps, delta, qms_budget_mode),
    )


_BLOCK = 65536  # entries per block of perturbed_transitions: its scratch stays in cache


def perturbed_transitions(
    mdp: FiniteHorizonMdp, bound: float, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """Transition tables moved by at most ``bound * scale`` on each supported entry.

    Support is preserved, rows still sum to one (perturbations are zero-sum
    per row), and entries stay within [0, 1].  ``scale`` in [0, 1] shrinks the
    perturbation; 0 returns the exact tables.  Every row with two or more
    supported entries draws one uniform shift per supported entry, in C
    order, and recentres the shifts to sum to zero.  If an entry would then
    leave [0, 1], the row's shifts shrink by half the factor that would put
    its extreme entry on 0 or 1, so that entry stays strictly inside (0, 1).

    The table is walked in blocks of whole rows, about ``_BLOCK`` entries each,
    in two reused scratch buffers, each block written straight into the one
    output table.  Consecutive draws equal one draw over the whole table, so
    the result and the generator's state do not depend on the block size.
    """
    if scale == 0.0 or bound == 0.0:
        return np.array(mdp.transitions)
    width, n_s = bound * scale, mdp.num_states
    rows = mdp.transitions.reshape(-1, n_s)
    out = np.empty_like(rows)
    step = min(len(rows), max(1, _BLOCK // n_s))
    shifts, supports = np.empty((step, n_s)), np.empty((step, n_s), dtype=bool)
    for start in range(0, len(rows), step):
        src, dest = rows[start:start + step], out[start:start + step]
        shift, support = shifts[:len(src)], supports[:len(src)]
        np.greater(src, 0.0, out=support)
        # the values rng.uniform(-width / 2, width / 2) returns, drawn faster
        if n_s > 1 and np.count_nonzero(support) == support.size:
            rng.random(out=shift)
            shift *= width
            shift -= width / 2.0
            shift -= (shift.sum(axis=1) / n_s)[:, None]
        else:
            size = np.count_nonzero(support, axis=1)
            support[size < 2] = False
            shift.fill(0.0)
            # the output block holds the draws until np.add below overwrites it
            shift[support] = rng.random(out=dest.reshape(-1)[:np.count_nonzero(support)])
            shift *= width
            np.subtract(shift, width / 2.0, out=shift, where=support)
            mean = shift.sum(axis=1) / np.maximum(size, 1)
            np.subtract(shift, mean[:, None], out=shift, where=support)
        np.add(src, shift, out=dest)
        if dest.min() < 0.0 or dest.max() > 1.0:
            leaves = np.flatnonzero(((dest < 0.0) | (dest > 1.0)).any(axis=1))
            row, moving, on = src[leaves], shift[leaves], support[leaves]
            lo = np.where(on, row / np.maximum(-moving, 1e-300), np.inf).min(axis=1)
            hi = np.where(on, (1.0 - row) / np.maximum(moving, 1e-300), np.inf).min(axis=1)
            dest[leaves] = row + moving * np.minimum(1.0, 0.5 * np.minimum(lo, hi))[:, None]
    return out.reshape(mdp.transitions.shape)


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
    _validate_eps(eps, mdp.horizon, "H")
    _validate_delta(delta)
    if not 0 < eta < 0.5:
        raise InfeasibleParams(f"eta must be in (0, 1/2), got {eta!r}")
    if not 0 <= perturb_scale <= 1:
        raise InfeasibleParams(f"perturb_scale must be in [0, 1], got {perturb_scale!r}")
    smallest = np.min(mdp.transitions, where=mdp.transitions > 0, initial=np.inf)
    if smallest < eta - 1e-12:
        raise InfeasibleParams(
            f"eta={eta!r} is not a lower bound: smallest supported probability is "
            f"{float(smallest)!r}"
        )
    n_s, horizon = mdp.num_states, mdp.horizon
    zeta = _estimator_budget(mdp, delta, provider.config.qms_constant)
    zeta_qms = _qms_budget(mdp, delta, qms_budget_mode)
    eps_call = eps / (4.0 * horizon)
    conversion_eps = eps / (4.0 * n_s * horizon**2)
    multiplier = btp_cost(conversion_eps, eta, ledger)
    per_call = provider.qme1_call_cost(float(horizon), eps_call, zeta) * multiplier
    perturbed = perturbed_transitions(mdp, conversion_eps, provider.rng, perturb_scale)
    return _offset_recursion(
        "qvi5", mdp, perturbed, provider.mean_bounded, (float(horizon), eps_call, zeta),
        eps / (2.0 * horizon), zeta_qms, provider, ledger, per_call, oracle="quantum_mdp",
        params=_offset_params(
            provider, eps, delta, qms_budget_mode, eta=eta, perturb_scale=perturb_scale
        ),
    )


# ---------------------------------------------------------------------------
# qvi4: variance reduction + variance-scaled error targets
# ---------------------------------------------------------------------------

# The error-target scale c and the variance-proxy error b of qvi4.
QVI4_C = 0.001
QVI4_B = 1.0


def qvi4(
    mdp: FiniteHorizonMdp,
    eps: float,
    delta: float,
    provider,
    ledger: QueryLedger,
) -> QviResult:
    """Near-optimal policy, values, and Q tables via the epoch scheme.

    Runs K = ceil(log2(H/eps)) + 1 epochs with error targets halving each
    epoch.  The reference terms depend only on the epoch-start values, so an
    epoch first makes them for every (h, s, a), one call each over the whole
    table: a clipped variance (two range-bounded estimations) and the
    reference expectation at a variance-scaled error (the estimated deviation
    doubles as the variance bound, so the bound/error ratio is a constant).
    Its backward sweep then estimates, per step and for all (s, a) in one
    call, the correction expectation, and makes a monotone update that never
    lets values regress below the epoch-start reference: 3K + K * H calls.
    """
    _validate_eps(eps, math.sqrt(mdp.horizon), "sqrt(H)")
    _validate_delta(delta)
    c, b = QVI4_C, QVI4_B
    n_s, n_a, horizon = mdp.num_states, mdp.num_actions, mdp.horizon
    epochs = math.ceil(math.log2(horizon / eps)) + 1
    zeta = delta / (4.0 * epochs * horizon * n_s * n_a)
    idx = np.arange(n_s)

    u, err_scale, p = float(horizon), c * eps / horizon**1.5, mdp.transitions
    v = np.zeros((horizon + 1, n_s))
    pi = np.zeros((n_s, horizon), dtype=np.int64)
    q = np.zeros((horizon, n_s, n_a))
    trace = _Trace(ledger)
    for k in range(epochs):
        eps_k = horizon / 2.0**k
        err_g = c * eps_k / horizon
        v_start, pi_start, ref = v, pi, v[1:]  # ref[h]: step h's reference values
        second = provider.mean_bounded(p, ref * ref, u * u, b, zeta, ledger)
        first = provider.mean_bounded(p, ref, u, b / horizon, zeta, ledger)
        spread = np.sqrt(np.maximum(second.value - first.value**2, 0.0) + 4.0 * b)
        err = err_scale * spread
        x = provider.mean_with_variance_bound(p, ref, spread, err, zeta, ledger)
        x_low = x.value - err
        failed = sum(int(np.count_nonzero(e.failed)) for e in (second, first, x))
        v = np.zeros((horizon + 1, n_s))
        pi = np.zeros((n_s, horizon), dtype=np.int64)
        for h in range(horizon - 1, -1, -1):
            g = provider.mean_bounded(p[h], v[h + 1] - ref[h], 2.0 * eps_k, err_g, zeta, ledger)
            np.maximum(mdp.rewards[h] + x_low[h] + (g.value - err_g), 0.0, out=q[h])
            greedy = q[h].argmax(axis=1)
            greedy_v = np.minimum(q[h][idx, greedy], u)
            keep = greedy_v <= v_start[h]
            v[h] = np.where(keep, v_start[h], greedy_v)
            pi[:, h] = np.where(keep, pi_start[:, h], greedy)
            trace.close(k, h, failed + int(np.count_nonzero(g.failed)), 0, v[h])
            failed = 0  # the reference pass's failures count in step H - 1's record
    params = {"eps": eps, "delta": delta, "c": c, "b": b, "epochs": epochs,
              "noise_mode": provider.config.noise_mode}
    return _result(
        "qvi4", pi, v, np.clip(q, 0.0, float(horizon)), ledger, provider, params, trace
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
