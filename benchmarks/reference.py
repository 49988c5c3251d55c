"""Reference computations the benchmark checks the program against.

Backward induction and policy evaluation are written here in plain numpy,
without the program's ``mdp`` functions, and every ledger is replayed in
closed form from the public cost formulas.  Nothing here reads the output of
the run it checks.
"""
from __future__ import annotations

import math

import numpy as np

from qvilab import (
    ORACLES,
    StatevectorProvider,
    SubroutineConfig,
    btp_multiplier,
    qme1_query_count,
    qme2_query_count,
    qmebo_query_count,
    qms_query_count,
)

TOL = 1e-9


def optimal(transitions: np.ndarray, rewards: np.ndarray):
    """Optimal values (H+1, S) and Q tables (H, S, A) by backward induction."""
    horizon, n_s, n_a, _ = transitions.shape
    v = np.zeros((horizon + 1, n_s))
    q = np.empty((horizon, n_s, n_a))
    for h in range(horizon - 1, -1, -1):
        q[h] = rewards[h] + np.einsum("sat,t->sa", transitions[h], v[h + 1])
        v[h] = q[h].max(axis=1)
    return v, q


def evaluate(transitions: np.ndarray, rewards: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Values (H+1, S) of the policy ``actions[s, h]``."""
    horizon, n_s = transitions.shape[:2]
    v = np.zeros((horizon + 1, n_s))
    idx = np.arange(n_s)
    for h in range(horizon - 1, -1, -1):
        act = actions[:, h]
        v[h] = rewards[h, idx, act] + np.einsum("st,t->s", transitions[h, idx, act], v[h + 1])
    return v


def exact_errors(what: str, v_hat, v_pi, v_star) -> list[str]:
    """Outputs of an exact solver: V-hat = V^pi-hat = V* within TOL."""
    errors = []
    if np.abs(v_hat - v_star).max() > TOL:
        errors.append(f"{what}: |V - V*| = {np.abs(v_hat - v_star).max():.3g}")
    if np.abs(v_pi - v_star).max() > TOL:
        errors.append(f"{what}: |V^pi - V*| = {np.abs(v_pi - v_star).max():.3g}")
    return errors


def sandwich_errors(what: str, v_hat, v_pi, v_star, eps: float) -> list[str]:
    """The near-optimal contract V* - eps <= V-hat <= V^pi-hat <= V*."""
    errors = []
    if (v_star - eps - v_hat).max() > TOL:
        errors.append(f"{what}: V-hat below V* - eps by {(v_star - eps - v_hat).max():.3g}")
    if (v_hat - v_pi).max() > TOL:
        errors.append(f"{what}: V-hat above V^pi by {(v_hat - v_pi).max():.3g}")
    if (v_pi - v_star).max() > TOL:
        errors.append(f"{what}: V^pi above V* by {(v_pi - v_star).max():.3g}")
    return errors


# ---------------------------------------------------------------------------
# Closed-form ledger replay
# ---------------------------------------------------------------------------


def _estimator_budget(n_s, n_a, horizon, delta, config: SubroutineConfig) -> float:
    # zeta = delta / (4 c S A^1.5 H ln(1/delta)), the near-optimal algorithms'
    # per-estimator failure budget.
    return delta / (4.0 * config.qms_constant * n_s * n_a**1.5 * horizon * math.log(1.0 / delta))


def _probes(n_s, n_a, horizon, delta, config) -> int:
    return qms_query_count(n_a, delta / (n_s * horizon), config)


def replay_ledger(algo: str, n_s: int, n_a: int, horizon: int, config: SubroutineConfig,
                  *, eps: float, delta: float, eta: float = 0.0) -> dict:
    """Ledger counts one run of ``algo`` must report, per oracle.

    ``qvi2_sv`` is qvi2 on the statevector provider.
    """
    counts = dict.fromkeys(ORACLES, 0)
    layers = horizon * n_s
    if algo == "qvi1":
        counts["quantum_mdp"] = layers * _probes(n_s, n_a, horizon, delta, config) * n_s
    elif algo in ("qvi2", "qvi2_sv"):
        zeta = _estimator_budget(n_s, n_a, horizon, delta, config)
        eps_call = eps / (2.0 * horizon**2)
        if algo == "qvi2":
            per_call = qmebo_query_count(n_s, eps_call, zeta, config)
        else:
            per_call = StatevectorProvider(config).qmebo_call_cost(n_s, eps_call, zeta)
        charged = layers * _probes(n_s, n_a, horizon, delta, config) * per_call
        counts["quantum_mdp"] = counts["func_binary"] = charged
    elif algo == "qvi3":
        zeta = _estimator_budget(n_s, n_a, horizon, delta, config)
        per_call = qme1_query_count(float(horizon), eps / (2.0 * horizon), zeta, config)
        counts["quantum_generative"] = layers * _probes(n_s, n_a, horizon, delta, config) * per_call
    elif algo == "qvi5":
        zeta = _estimator_budget(n_s, n_a, horizon, delta, config)
        multiplier = btp_multiplier(eps / (4.0 * n_s * horizon**2), eta)
        per_call = qme1_query_count(float(horizon), eps / (4.0 * horizon), zeta, config) * multiplier
        counts["quantum_mdp"] = layers * _probes(n_s, n_a, horizon, delta, config) * per_call
        counts["oracle_conversion"] = 1
    elif algo == "qvi4":
        c, b = 0.001, 1.0  # qvi4's default constants
        epochs = math.ceil(math.log2(horizon / eps)) + 1
        zeta = delta / (4.0 * epochs * horizon * n_s * n_a)
        # The variance-bounded call's bound/error ratio is H^1.5 / (c eps)
        # whatever the estimated spread, so spread 1 stands for every call.
        reference = (
            qme1_query_count(float(horizon) ** 2, b, zeta, config)
            + qme1_query_count(float(horizon), b / horizon, zeta, config)
            + qme2_query_count(1.0, c * eps / horizon**1.5, zeta, config)
        )
        total = 0
        for k in range(epochs):
            eps_k = horizon / 2.0**k
            correction = qme1_query_count(2.0 * eps_k, c * eps_k / horizon, zeta, config)
            total += layers * n_a * (reference + correction)
        counts["quantum_generative"] = total
    else:
        raise ValueError(f"no ledger replay for {algo!r}")
    return counts
