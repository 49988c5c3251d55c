"""Finite-horizon MDP containers and the exact dynamic-programming baselines.

Everything in this module is classical and exact: backward induction,
policy evaluation, per-row variances, and the diagnostic reports that the
emulated algorithms are checked against.  MDP objects are immutable after
construction and can be shared freely across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Row stochasticity is validated to this tolerance; Bellman residuals to 1e-9.
STOCHASTICITY_TOL = 1e-12
BELLMAN_TOL = 1e-9

# Rows longer than this accumulate expectations in extended precision.
_LONG_ROW = 1000


class MdpValidationError(ValueError):
    """Raised when a transition/reward table violates the model invariants."""


def _expect(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Expectation of ``v`` under one or more probability rows ``p``.

    ``p`` has shape ``(..., S)``; ``v`` has shape ``(S,)``.  Long rows are
    accumulated in extended precision so large state spaces do not lose the
    1e-12 stochasticity budget to round-off.
    """
    if v.shape[-1] > _LONG_ROW:
        acc = p.astype(np.longdouble) @ v.astype(np.longdouble)
        return np.asarray(acc, dtype=np.float64)
    return p @ v


class FiniteHorizonMdp:
    """Time-dependent finite-horizon MDP.

    transitions: array (H, S, A, S) of conditional next-state probabilities.
    rewards:     array (H, S, A) of rewards in [0, 1].

    Each row ``transitions[h, s, a]`` must sum to 1 within 1e-12.  Arrays are
    frozen (read-only views) after validation.
    """

    __slots__ = ("transitions", "rewards")

    def __init__(self, transitions, rewards):
        transitions = np.array(transitions, dtype=np.float64)
        rewards = np.array(rewards, dtype=np.float64)
        if transitions.ndim != 4:
            raise MdpValidationError(
                f"transitions must have shape (H, S, A, S), got {transitions.shape}"
            )
        h, s, a, s2 = transitions.shape
        if s != s2:
            raise MdpValidationError(
                f"transitions last axis ({s2}) must match state axis ({s})"
            )
        if min(h, s, a) < 1:
            raise MdpValidationError("H, S and A must all be >= 1")
        if rewards.shape != (h, s, a):
            raise MdpValidationError(
                f"rewards must have shape {(h, s, a)}, got {rewards.shape}"
            )
        self._validate_rows(transitions, rewards)
        transitions.flags.writeable = False
        rewards.flags.writeable = False
        self.transitions = transitions
        self.rewards = rewards

    @staticmethod
    def _validate_rows(transitions: np.ndarray, rewards: np.ndarray) -> None:
        # Report the first violated row so bad files are easy to pinpoint.
        h_dim, s_dim, a_dim, _ = transitions.shape
        sums = transitions.sum(axis=3)
        bad_sum = np.argwhere(np.abs(sums - 1.0) > STOCHASTICITY_TOL)
        bad_range = np.argwhere(
            (transitions < -STOCHASTICITY_TOL) | (transitions > 1.0 + STOCHASTICITY_TOL)
        )
        if bad_range.size:
            h, s, a, sp = bad_range[0]
            raise MdpValidationError(
                f"transition probability out of [0, 1] at (h={h}, s={s}, a={a}, s'={sp}): "
                f"{transitions[h, s, a, sp]!r}"
            )
        if bad_sum.size:
            h, s, a = bad_sum[0]
            raise MdpValidationError(
                f"transition row (h={h}, s={s}, a={a}) sums to {sums[h, s, a]!r}, not 1"
            )
        bad_r = np.argwhere((rewards < 0.0) | (rewards > 1.0))
        if bad_r.size:
            h, s, a = bad_r[0]
            raise MdpValidationError(
                f"reward out of [0, 1] at (h={h}, s={s}, a={a}): {rewards[h, s, a]!r}"
            )

    @property
    def num_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[2]

    @property
    def horizon(self) -> int:
        return self.transitions.shape[0]

    def row(self, h: int, s: int, a: int) -> np.ndarray:
        """Conditional next-state distribution for (h, s, a)."""
        return self.transitions[h, s, a]

    # -- JSON wire format: {"S","A","H","transitions","rewards"} ------------

    def to_json(self) -> dict:
        return {
            "S": self.num_states,
            "A": self.num_actions,
            "H": self.horizon,
            "transitions": self.transitions.tolist(),
            "rewards": self.rewards.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteHorizonMdp":
        mdp = cls(obj["transitions"], obj["rewards"])
        declared = (obj.get("S"), obj.get("A"), obj.get("H"))
        actual = (mdp.num_states, mdp.num_actions, mdp.horizon)
        if None not in declared and tuple(declared) != actual:
            raise MdpValidationError(
                f"declared (S, A, H)={declared} does not match table shapes {actual}"
            )
        return mdp

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "FiniteHorizonMdp":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FiniteHorizonMdp(S={self.num_states}, A={self.num_actions}, "
            f"H={self.horizon})"
        )


@dataclass(frozen=True)
class Policy:
    """Deterministic time-dependent decision rule; ``actions[s, h]`` in [0, A)."""

    actions: np.ndarray

    def __post_init__(self):
        arr = np.array(self.actions, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"policy table must be (S, H), got shape {arr.shape}")
        if (arr < 0).any():
            raise ValueError("policy contains negative action indices")
        arr.flags.writeable = False
        object.__setattr__(self, "actions", arr)

    @property
    def num_states(self) -> int:
        return self.actions.shape[0]

    @property
    def horizon(self) -> int:
        return self.actions.shape[1]

    def action(self, s: int, h: int) -> int:
        return int(self.actions[s, h])


@dataclass(frozen=True)
class ValueTable:
    """Per-step state values ``values[h, s]`` for h in 0..H (terminal layer included).

    The terminal layer ``values[H]`` is identically zero so every backward
    recursion reads uniform code paths.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError(f"value table must be (H+1, S), got shape {arr.shape}")
        if np.abs(arr[-1]).max() > 0.0:
            raise ValueError("terminal value layer must be identically zero")
        horizon = arr.shape[0] - 1
        if arr.min() < -BELLMAN_TOL or arr.max() > horizon + BELLMAN_TOL:
            raise ValueError(f"values must lie in [0, H={horizon}]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1


@dataclass(frozen=True)
class QTable:
    """Per-step state-action values ``qvalues[h, s, a]`` in [0, H]."""

    qvalues: np.ndarray

    def __post_init__(self):
        arr = np.array(self.qvalues, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"Q table must be (H, S, A), got shape {arr.shape}")
        horizon = arr.shape[0]
        if arr.min() < -BELLMAN_TOL or arr.max() > horizon + BELLMAN_TOL:
            raise ValueError(f"Q values must lie in [0, H={horizon}]")
        arr.flags.writeable = False
        object.__setattr__(self, "qvalues", arr)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over a finite set; entries sum to 1 within 1e-12."""

    probabilities: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probabilities, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            raise ValueError("distribution must have at least one outcome")
        if arr.min() < -STOCHASTICITY_TOL or arr.max() > 1.0 + STOCHASTICITY_TOL:
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > STOCHASTICITY_TOL:
            raise ValueError(f"probabilities sum to {arr.sum()!r}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "probabilities", arr)

    def __len__(self) -> int:
        return self.probabilities.size


def as_probability_vector(p) -> np.ndarray:
    """Coerce ``p`` (DiscreteDistribution or array-like) to a validated array."""
    if isinstance(p, DiscreteDistribution):
        return p.probabilities
    return DiscreteDistribution(np.asarray(p)).probabilities


# ---------------------------------------------------------------------------
# Exact operations
# ---------------------------------------------------------------------------


def bellman_backup(mdp: FiniteHorizonMdp, h: int, v_next: np.ndarray):
    """One exact backup at step ``h``: max/argmax over actions of r + P v.

    Returns ``(values, actions)`` rows over states.  Argmax ties break toward
    the smallest action index.
    """
    if not 0 <= h < mdp.horizon:
        raise ValueError(f"step index {h} outside [0, {mdp.horizon})")
    v_next = np.asarray(v_next, dtype=np.float64)
    if v_next.shape != (mdp.num_states,):
        raise ValueError("v_next must have one entry per state")
    q = mdp.rewards[h] + _expect(mdp.transitions[h], v_next)
    actions = q.argmax(axis=1)  # numpy argmax returns the first maximiser
    values = q[np.arange(mdp.num_states), actions]
    return values, actions


def exact_value_iteration(mdp: FiniteHorizonMdp):
    """Backward induction; returns the optimal (Policy, ValueTable, QTable)."""
    n_s, n_a, horizon = mdp.num_states, mdp.num_actions, mdp.horizon
    v = np.zeros((horizon + 1, n_s))
    q = np.zeros((horizon, n_s, n_a))
    pi = np.zeros((n_s, horizon), dtype=np.int64)
    for h in range(horizon - 1, -1, -1):
        q[h] = mdp.rewards[h] + _expect(mdp.transitions[h], v[h + 1])
        pi[:, h] = q[h].argmax(axis=1)
        v[h] = q[h][np.arange(n_s), pi[:, h]]
    return Policy(pi), ValueTable(v), QTable(q)


def policy_value(mdp: FiniteHorizonMdp, pi: Policy) -> ValueTable:
    """Exact V-values of a fixed policy by backward recursion."""
    n_s, horizon = mdp.num_states, mdp.horizon
    if pi.actions.shape != (n_s, horizon):
        raise ValueError("policy shape does not match the MDP")
    if pi.actions.max() >= mdp.num_actions:
        raise ValueError("policy uses an action index outside the MDP")
    v = np.zeros((horizon + 1, n_s))
    idx = np.arange(n_s)
    for h in range(horizon - 1, -1, -1):
        act = pi.actions[:, h]
        v[h] = mdp.rewards[h, idx, act] + _expect(mdp.transitions[h, idx, act], v[h + 1])
    return ValueTable(v)


def sigma_squared(mdp: FiniteHorizonMdp, h: int, v: np.ndarray) -> np.ndarray:
    """Variance of ``v(s')`` under each row ``P[h, s, a]``; shape (S, A).

    Negative values produced by round-off are clamped to 0 so square roots
    downstream stay real.
    """
    if not 0 <= h < mdp.horizon:
        raise ValueError(f"step index {h} outside [0, {mdp.horizon})")
    v = np.asarray(v, dtype=np.float64)
    second = _expect(mdp.transitions[h], v * v)
    first = _expect(mdp.transitions[h], v)
    return np.maximum(second - first * first, 0.0)


def total_variance_norm(mdp: FiniteHorizonMdp, pi: Policy) -> float:
    """Sup-norm of the accumulated per-step value standard deviations.

    For each start step h, the standard deviations of the policy's future
    values are propagated forward through the policy's transition chain and
    summed; the result is the maximum over h (and state-action pairs) of that
    accumulation.  It is bounded by H**1.5 for every policy.
    """
    vpi = policy_value(mdp, pi).values
    horizon, n_s = mdp.horizon, mdp.num_states
    idx = np.arange(n_s)
    best = 0.0
    acc = np.zeros((n_s, mdp.num_actions))
    for h in range(horizon - 1, -1, -1):
        x = np.sqrt(sigma_squared(mdp, h, vpi[h + 1]))
        if h + 1 < horizon:
            carried = acc[idx, pi.actions[:, h + 1]]
            x = x + _expect(mdp.transitions[h + 1], carried)
        best = max(best, float(x.max()))
        acc = x
    return best


@dataclass(frozen=True)
class OptimalityReport:
    """Sup-norm gaps of an approximate solution against the exact optimum."""

    eps: float
    value_gap: float
    policy_gap: float
    q_gap: Optional[float]

    @property
    def values_ok(self) -> bool:
        return self.value_gap <= self.eps

    @property
    def policy_ok(self) -> bool:
        return self.policy_gap <= self.eps

    @property
    def q_ok(self) -> Optional[bool]:
        return None if self.q_gap is None else self.q_gap <= self.eps

    @property
    def all_ok(self) -> bool:
        return self.values_ok and self.policy_ok and (self.q_gap is None or self.q_ok)


def eps_optimality_report(
    mdp: FiniteHorizonMdp,
    pi: Policy,
    v_hat: ValueTable,
    q_hat: Optional[QTable],
    eps: float,
) -> OptimalityReport:
    """Compare an approximate (policy, values, Q) against exact value iteration."""
    _, v_star, q_star = exact_value_iteration(mdp)
    v_pi = policy_value(mdp, pi)
    value_gap = float(np.abs(v_star.values - v_hat.values).max())
    policy_gap = float(np.abs(v_star.values - v_pi.values).max())
    q_gap = None
    if q_hat is not None:
        q_gap = float(np.abs(q_star.qvalues - q_hat.qvalues).max())
    return OptimalityReport(eps=eps, value_gap=value_gap, policy_gap=policy_gap, q_gap=q_gap)


def classical_generative_sample(mdp, h, s, a, rng, ledger=None) -> int:
    """Draw one next state from ``P[h, s, a]``; charges the classical counter."""
    row = mdp.transitions[h, s, a]
    cum = np.cumsum(row)
    nxt = int(np.searchsorted(cum, rng.random(), side="right"))
    nxt = min(nxt, mdp.num_states - 1)
    if ledger is not None:
        ledger.charge("classical_generative", 1)
    return nxt
