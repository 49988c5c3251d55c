"""Test-instance generators and the exhaustive-policy oracle.

The hard families are two sets of nearly identical MDPs with closed-form
optima: absorbing good/bad/neutral blocks plus a block of uncertain states
whose best move is only revealed by one distinguished state-action pair.
They give every solver a ground truth that is exact by construction.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mdp import FiniteHorizonMdp, Policy, ValueTable, policy_value


@dataclass(frozen=True)
class HardInstanceSpec:
    """Layout of one hard instance.

    States are ordered [good block | bad block | neutral | uncertain block],
    each block of size (S - 1) / 3 around the single neutral state.  The last
    action is the "safe" move that parks an uncertain state on the neutral
    state; all other actions dump it into the bad block (variant M1) except,
    in variant M2, the distinguished (state, action) pair which jumps to a
    good state.
    """

    num_states: int
    num_actions: int
    horizon: int
    variant: str = "M1"
    distinguished_state: Optional[int] = None  # global index, uncertain block
    distinguished_action: Optional[int] = None  # any non-safe action
    target_state: Optional[int] = None  # global index, good block
    seed: int = 0  # chooses which bad state each (uncertain, action) maps to

    def __post_init__(self):
        if self.variant not in ("M1", "M2"):
            raise ValueError("variant must be 'M1' or 'M2'")
        if self.num_states < 4 or self.num_states % 3 != 1:
            raise ValueError("num_states must be >= 4 and congruent to 1 mod 3")
        if self.num_actions < 2:
            raise ValueError("need at least one non-safe action plus the safe one")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if self.variant == "M2":
            s_bar = self.distinguished_state
            a_bar = self.distinguished_action
            target = self.target_state
            if s_bar is None:
                s_bar = self.uncertain_states[0]
            if a_bar is None:
                a_bar = 0
            if target is None:
                target = self.good_states[0]
            if s_bar not in self.uncertain_states:
                raise ValueError(f"distinguished state {s_bar} is not an uncertain state")
            if not 0 <= a_bar < self.num_actions - 1:
                raise ValueError(f"distinguished action {a_bar} is not a non-safe action")
            if target not in self.good_states:
                raise ValueError(f"target state {target} is not a good state")
            object.__setattr__(self, "distinguished_state", s_bar)
            object.__setattr__(self, "distinguished_action", a_bar)
            object.__setattr__(self, "target_state", target)

    @property
    def block_size(self) -> int:
        return (self.num_states - 1) // 3

    @property
    def good_states(self) -> range:
        return range(0, self.block_size)

    @property
    def bad_states(self) -> range:
        return range(self.block_size, 2 * self.block_size)

    @property
    def neutral_state(self) -> int:
        return 2 * self.block_size

    @property
    def uncertain_states(self) -> range:
        return range(2 * self.block_size + 1, self.num_states)

    @property
    def safe_action(self) -> int:
        return self.num_actions - 1


def make_hard_instance(spec: HardInstanceSpec) -> FiniteHorizonMdp:
    """Build the time-independent hard instance described by ``spec``.

    Optimal start values: H on the good block, 0 on the bad block, H/2 on the
    neutral state, and (H-1)/2 on the uncertain block -- except that in
    variant M2 the distinguished state reaches H-1.
    """
    n_s, n_a = spec.num_states, spec.num_actions
    rng = np.random.default_rng(spec.seed)
    p = np.zeros((n_s, n_a, n_s))
    r = np.zeros((n_s, n_a))
    for s in spec.good_states:
        p[s, :, s] = 1.0
        r[s, :] = 1.0
    for s in spec.bad_states:
        p[s, :, s] = 1.0
    p[spec.neutral_state, :, spec.neutral_state] = 1.0
    r[spec.neutral_state, :] = 0.5
    bad = np.asarray(spec.bad_states)
    for s in spec.uncertain_states:
        for a in range(n_a - 1):
            p[s, a, rng.choice(bad)] = 1.0
        p[s, spec.safe_action, spec.neutral_state] = 1.0
    if spec.variant == "M2":
        s_bar, a_bar = spec.distinguished_state, spec.distinguished_action
        p[s_bar, a_bar, :] = 0.0
        p[s_bar, a_bar, spec.target_state] = 1.0
    transitions = np.broadcast_to(p, (spec.horizon, n_s, n_a, n_s))
    rewards = np.broadcast_to(r, (spec.horizon, n_s, n_a))
    return FiniteHorizonMdp(transitions, rewards)


def hard_instance_optimal_start_values(spec: HardInstanceSpec) -> np.ndarray:
    """Closed-form optimal start values of the hard instance."""
    horizon = spec.horizon
    v = np.empty(spec.num_states)
    v[list(spec.good_states)] = float(horizon)
    v[list(spec.bad_states)] = 0.0
    v[spec.neutral_state] = horizon / 2.0
    v[list(spec.uncertain_states)] = (horizon - 1) / 2.0
    if spec.variant == "M2":
        v[spec.distinguished_state] = float(horizon - 1)
    return v


@dataclass(frozen=True)
class HorizonReductionSpec:
    """Finite-horizon embedding of a discounted infinite-horizon problem.

    An absorbing zero-reward sink is appended; every original transition is
    damped by the discount and the slack (1 - discount) flows into the sink.
    The horizon is long enough that the finite problem's start values land
    within ``eps`` of the discounted fixed point.
    """

    base_transitions: np.ndarray  # (S~, A, S~)
    base_rewards: np.ndarray  # (S~, A)
    gamma: float
    eps: float

    def __post_init__(self):
        p = np.asarray(self.base_transitions, dtype=np.float64)
        r = np.asarray(self.base_rewards, dtype=np.float64)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ValueError("base transitions must have shape (S, A, S)")
        if r.shape != p.shape[:2]:
            raise ValueError("base rewards must have shape (S, A)")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        object.__setattr__(self, "base_transitions", p)
        object.__setattr__(self, "base_rewards", r)

    @property
    def horizon(self) -> int:
        length = 2.0 / (1.0 - self.gamma) * math.log(2.0 / self.eps)
        return max(1, math.ceil(length))

    @property
    def sink_state(self) -> int:
        return self.base_transitions.shape[0]


def make_horizon_reduction(spec: HorizonReductionSpec) -> FiniteHorizonMdp:
    base_p, base_r = spec.base_transitions, spec.base_rewards
    n_base, n_a = base_r.shape
    n_s = n_base + 1
    p = np.zeros((n_s, n_a, n_s))
    r = np.zeros((n_s, n_a))
    p[:n_base, :, :n_base] = spec.gamma * base_p
    p[:n_base, :, n_base] = 1.0 - spec.gamma
    p[n_base, :, n_base] = 1.0
    r[:n_base] = base_r
    horizon = spec.horizon
    transitions = np.broadcast_to(p, (horizon, n_s, n_a, n_s))
    rewards = np.broadcast_to(r, (horizon, n_s, n_a))
    return FiniteHorizonMdp(transitions, rewards)


def random_mdp(
    num_states: int,
    num_actions: int,
    horizon: int,
    sparsity: float = 1.0,
    seed: int = 0,
) -> FiniteHorizonMdp:
    """Seeded random instance: uniform rewards, Dirichlet(1) transition rows.

    Each row is supported on k = ceil(sparsity * S) states chosen uniformly
    without replacement; sparsity = 1/S gives a deterministic instance.
    Bit-reproducible draw protocol, all from ``default_rng(seed)``: the
    (H, S, A) rewards, then per step h the (S, A, k) standard exponentials
    normalised into Dirichlet(1) weights (k = 1 gives exactly 1.0), then, if
    k < S, the (S, A, S) uniform keys whose k smallest entries are the
    support; the weights fill it in increasing state order.  Drawing per
    step keeps the scratch arrays a 1/H slice of the table.
    """
    if not 0.0 < sparsity <= 1.0:
        raise ValueError("sparsity must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    rewards = rng.random((horizon, num_states, num_actions))
    support_size = math.ceil(sparsity * num_states)
    transitions = np.zeros((horizon, num_states, num_actions, num_states))
    for h in range(horizon):
        weights = rng.standard_exponential((num_states, num_actions, support_size))
        weights /= weights.sum(axis=2, keepdims=True)
        if support_size == num_states:
            transitions[h] = weights
            continue
        keys = rng.random((num_states, num_actions, num_states))
        support = np.argpartition(keys, support_size - 1, axis=2)[..., :support_size]
        support.sort(axis=2)
        np.put_along_axis(transitions[h], support, weights, axis=2)
    return FiniteHorizonMdp._owning(transitions, rewards)


def brute_force_optimal(mdp: FiniteHorizonMdp, cap: int = 10**6):
    """Exhaustive-policy oracle: evaluate every deterministic policy exactly.

    Returns the policy achieving the elementwise maximum value at every
    (step, state) -- the dynamic-programming principle guarantees a single
    policy attains all the maxima at once, and this asserts it.  Enumeration
    order puts smaller action indices first, matching the backward-induction
    tie-breaking.
    """
    n_s, n_a, horizon = mdp.num_states, mdp.num_actions, mdp.horizon
    n_slots = n_s * horizon
    n_policies = n_a**n_slots
    if n_policies > cap:
        raise ValueError(f"{n_policies} policies exceed the enumeration cap {cap}")
    best = np.full((horizon + 1, n_s), -np.inf)
    best[horizon] = 0.0
    for assignment in itertools.product(range(n_a), repeat=n_slots):
        pi = Policy(np.reshape(assignment, (n_s, horizon)))
        best = np.maximum(best, policy_value(mdp, pi).values)
    # Second sweep: the first policy (in smallest-action-first order) whose
    # whole table attains the elementwise maximum.
    for assignment in itertools.product(range(n_a), repeat=n_slots):
        pi = Policy(np.reshape(assignment, (n_s, horizon)))
        table = policy_value(mdp, pi).values
        if np.all(table >= best - 1e-12):
            return pi, ValueTable(table)
    raise AssertionError("no single policy attains the elementwise maximum")
