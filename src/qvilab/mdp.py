"""Finite-horizon MDP containers and the exact dynamic-programming baselines.

Everything in this module is classical and exact: backward induction,
policy evaluation, per-row variances, and the diagnostic reports that the
emulated algorithms are checked against.  MDP objects are immutable after
construction and can be shared freely across threads.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from json.decoder import WHITESPACE
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

    Each row ``transitions[h, s, a]`` must sum to 1 within 1e-12.  The
    constructor validates and freezes (makes read-only) a float64 copy of its
    arguments; ``random_mdp`` and ``load`` hand over fresh tables uncopied.
    """

    __slots__ = ("transitions", "rewards")

    def __init__(self, transitions, rewards):
        self._freeze(np.array(transitions, dtype=np.float64), np.array(rewards, dtype=np.float64))

    @classmethod
    def _owning(cls, transitions: np.ndarray, rewards: np.ndarray) -> "FiniteHorizonMdp":
        """An MDP that takes over fresh float64 tables no caller keeps: validated, frozen, not copied."""
        mdp = cls.__new__(cls)
        mdp._freeze(np.asarray(transitions, dtype=np.float64), np.asarray(rewards, dtype=np.float64))
        return mdp

    def _freeze(self, transitions: np.ndarray, rewards: np.ndarray) -> None:
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
        # Report the first violated entry so bad files are easy to pinpoint.
        # Each check is a negated "inside" test, so NaN fails it too; the
        # min/max test (also NaN-propagating) spares the full-table argwhere
        # on a valid table.
        tol = STOCHASTICITY_TOL
        if not (transitions.min() >= -tol and transitions.max() <= 1.0 + tol):
            h, s, a, sp = np.argwhere(~((transitions >= -tol) & (transitions <= 1.0 + tol)))[0]
            raise MdpValidationError(
                f"transition probability out of [0, 1] at (h={h}, s={s}, a={a}, s'={sp}): "
                f"{transitions[h, s, a, sp]!r}"
            )
        sums = transitions.sum(axis=3)
        bad_sum = np.argwhere(~(np.abs(sums - 1.0) <= tol))
        if bad_sum.size:
            h, s, a = bad_sum[0]
            raise MdpValidationError(
                f"transition row (h={h}, s={s}, a={a}) sums to {sums[h, s, a]!r}, not 1"
            )
        if not (rewards.min() >= 0.0 and rewards.max() <= 1.0):
            h, s, a = np.argwhere(~((rewards >= 0.0) & (rewards <= 1.0)))[0]
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
        return cls(obj["transitions"], obj["rewards"])._declared_as(obj)

    def _declared_as(self, obj: dict) -> "FiniteHorizonMdp":
        """``self``, once the (S, A, H) that ``obj`` declares (if all three) match its tables."""
        declared = (obj.get("S"), obj.get("A"), obj.get("H"))
        actual = (self.num_states, self.num_actions, self.horizon)
        if None not in declared and tuple(declared) != actual:
            raise MdpValidationError(
                f"declared (S, A, H)={declared} does not match table shapes {actual}"
            )
        return self

    def save(self, path) -> None:
        """Write the text of ``json.dumps(self.to_json())``, one step ``h`` at a time.

        ``to_json`` defines the format; the file is byte-identical to it.  Each
        step of each table is written as it is formatted, so no table is ever
        held as Python objects: a 0.0 entry is the constant token ``0.0``, and
        ``repr`` runs only on entries that are nonzero or carry the sign bit
        (``-0.0`` stays ``-0.0``).
        """
        with open(path, "w") as fh:
            fh.write(f'{{"S": {self.num_states}, "A": {self.num_actions}, "H": {self.horizon}')
            for key, table in (("transitions", self.transitions), ("rewards", self.rewards)):
                fh.write(f', "{key}": ')
                _write_steps(fh, table)
            fh.write("}")

    @classmethod
    def load(cls, path) -> "FiniteHorizonMdp":
        """Read an MDP file in windows of text, each step ``h`` straight into one table.

        The file is read ``_WINDOW`` characters at a time, after a first read
        of ``_HEAD``.  When ``S``, ``A`` and ``H`` come before a table, as
        :meth:`save` writes them, its (H, S, A, S) or (H, S, A) float64 table
        is allocated once and each step is decoded into it: whole when twice
        its text fits in a window (judged by the previous step, the first by
        its share of the file), else one item ``[h, s]`` at a time, and so on
        down.  Neither the file's text, a list of steps nor a stacked copy is
        ever held.  Any other JSON layout of the format (whitespace, key
        order, a repeated key's last value winning, as with ``json.load``,
        tables before the sizes) loads the same tables, from steps collected
        and stacked once.  A malformed file raises a ``ValueError``: a
        ``json.JSONDecodeError``, placed by line and column in the file, for
        text that is not JSON, else an :class:`MdpValidationError`, for
        instance for an entry that is not a number or a step of another shape
        than declared.
        """
        with open(path) as fh:
            obj = _Reader(fh, os.fstat(fh.fileno()).st_size).object()
        tables = []
        for key in ("transitions", "rewards"):
            if key not in obj:
                raise MdpValidationError(f"MDP file has no {key!r}")
            table = obj.pop(key)
            if not isinstance(table, np.ndarray):
                kind = type(table).__name__
                raise MdpValidationError(f"{key} must be a list of steps, not {kind}")
            tables.append(table)
        return cls._owning(*tables)._declared_as(obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FiniteHorizonMdp(S={self.num_states}, A={self.num_actions}, "
            f"H={self.horizon})"
        )


_DECODER = json.JSONDecoder()
_WINDOW = 1 << 18  # characters that FiniteHorizonMdp.load reads at a time
_HEAD = 1 << 12  # characters of its first read: the sizes and the start of the first table


def _write_steps(fh, table: np.ndarray) -> None:
    """Write ``json.dumps(table.tolist())`` to ``fh``, one step ``table[h]`` at a time.

    Each entry's token carries the brackets that open before it and close
    after it, so one join writes a step.  A step with zeros starts from the
    constant tokens and puts ``repr`` in only where the entry is nonzero or
    has its sign bit set; a step without zeros joins the reprs directly.
    """
    shape = table.shape[1:]
    depth = len(shape) + 1
    # codes = depth * (brackets opening) + (brackets closing) at each entry
    codes = np.zeros(shape, dtype=np.int8)
    for m in range(1, depth):
        codes[(...,) + (0,) * m] += depth
        codes[(...,) + (-1,) * m] += 1
    codes = codes.reshape(-1)
    opens = ["[" * (c // depth) for c in range(depth * depth)]
    closes = ["]" * (c % depth) for c in range(depth * depth)]
    zeros = np.array([o + "0.0" + c for o, c in zip(opens, closes)], dtype=object)
    edges = np.flatnonzero(codes)
    for h, step in enumerate(table):
        flat = step.reshape(-1)
        kept = (flat != 0) | np.signbit(flat)
        if kept.all():
            tokens, at = list(map(repr, flat.tolist())), edges
        else:
            kept = np.flatnonzero(kept)
            tokens = zeros[codes]
            tokens[kept] = list(map(repr, flat[kept].tolist()))
            tokens, at = tokens.tolist(), kept[codes[kept] != 0]
        for i, c in zip(at.tolist(), codes[at].tolist()):
            tokens[i] = opens[c] + tokens[i] + closes[c]
        fh.write(", " if h else "[")
        fh.write(", ".join(tokens))
    fh.write("]")


# Characters of JSON strings, true, false and null that no number has; np.array
# refuses objects itself, but would take true as 1.0, null as NaN and "1" as 1.0.
_NOT_NUMBER = ('"', "l", "u")
# Characters a cut number can continue with.
_NUMBER_TAIL = "0123456789.eE+-"


class _Reader:
    """The JSON text of an open MDP file, read ``_WINDOW`` characters at a time.

    ``buf[pos:]`` is the text read but not yet consumed, and ``start`` is the
    file offset of ``buf[0]``; ``size`` is the file's size in bytes.  The
    dropped text had ``lines`` newlines, the last one just before ``line_start``.
    """

    def __init__(self, fh, size: int):
        self.fh, self.size = fh, size
        # The first table is allocated before a whole window is read: a window
        # read first can take part of the free heap block that the table would
        # fit in, and the heap then grows by a table.
        head = min(_HEAD, _WINDOW)
        self.buf, self.pos, self.start = fh.read(head), 0, 0
        self.eof = len(self.buf) < head
        self.lines = self.line_start = 0

    def _more(self) -> None:
        """Drop the consumed text, then read up to a window or as much again as is held."""
        rest = self.buf[self.pos:]
        want = max(_WINDOW - len(rest), len(rest))
        newline = self.buf.rfind("\n", 0, self.pos)
        if newline >= 0:
            self.lines += self.buf.count("\n", 0, newline + 1)
            self.line_start = self.start + newline + 1
        self.start += self.pos
        self.buf = ""  # the old window is freed before the next is read
        chunk = self.fh.read(want)
        self.buf, self.pos, self.eof = rest + chunk, 0, len(chunk) < want

    def peek(self) -> str:
        """The next character that is not whitespace ('' at the end), with ``pos`` on it."""
        while True:
            self.pos = WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self._more()

    def error(self, msg: str, pos: int) -> json.JSONDecodeError:
        """A ``JSONDecodeError`` at ``buf[pos]``, with its line, column and offset in the file."""
        err = json.JSONDecodeError(msg, self.buf, pos)
        newline = self.buf.rfind("\n", 0, pos)
        err.lineno = self.lines + self.buf.count("\n", 0, pos) + 1
        err.colno = pos - newline if newline >= 0 else self.start + pos - self.line_start + 1
        err.pos = self.start + pos
        err.args = (f"{msg}: line {err.lineno} column {err.colno} (char {err.pos})",)
        return err

    def delimiter(self, close: str) -> bool:
        """Past the ``,`` or ``close`` that follows an item: whether it was ``close``."""
        char = self.peek()
        if char not in (",", close):
            raise self.error("Expecting ',' delimiter", self.pos)
        self.pos += 1
        return char == close

    def value(self, hint: int = 0) -> tuple:
        """(the JSON value at ``pos``, its offset in ``buf``), once ``hint`` characters are held.

        A value that the window's end may have cut is decoded again after
        the next read; a number is cut if a digit, sign, point or exponent
        could follow it.
        """
        self.peek()
        while len(self.buf) - self.pos < hint and not self.eof:
            self._more()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as err:
                if self.eof:
                    raise self.error(err.msg, err.pos) from None
            except RecursionError:
                raise MdpValidationError("a value is nested too deeply to decode") from None
            else:
                if self.eof or self.buf[end:end + 1].strip(_NUMBER_TAIL):
                    start, self.pos = self.pos, end
                    return value, start
            self._more()

    def numbers(self, shape, hint: int = 0) -> np.ndarray:
        """The value at ``pos`` as a float64 array of ``shape`` (of any shape if None)."""
        value, start = self.value(hint)
        if any(self.buf.find(char, start, self.pos) >= 0 for char in _NOT_NUMBER):
            raise MdpValidationError("table entries must be numbers")
        try:
            array = np.array(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as err:
            raise MdpValidationError(f"table entries must be numbers in lists: {err}") from None
        if shape is not None and array.shape != shape:
            raise MdpValidationError(f"a table step has shape {array.shape}, not {shape}")
        return array

    def object(self) -> dict:
        """The file's one JSON object; each table that is a list, a float64 array."""
        if self.peek() != "{":
            raise MdpValidationError("an MDP file holds one JSON object")
        self.pos += 1
        obj = {}
        closed = self.peek() == "}"
        self.pos += closed
        while not closed:
            if self.peek() != '"':
                raise self.error("Expecting property name enclosed in double quotes", self.pos)
            key, _ = self.value()
            if self.peek() != ":":
                raise self.error("Expecting ':' delimiter", self.pos)
            self.pos += 1
            if key in ("transitions", "rewards") and self.peek() == "[":
                obj[key] = self.table(self._declared(obj, key))
            else:
                obj[key], _ = self.value()
            closed = self.delimiter("}")
        if self.peek():
            raise self.error("Extra data", self.pos)
        return obj

    def _declared(self, obj: dict, key: str) -> Optional[tuple]:
        """The shape of table ``key`` if ``obj`` already declares H, S and A, as integers >= 1
        of a table that a file of this size can hold (two characters an entry); else None."""
        sizes = (obj.get("H"), obj.get("S"), obj.get("A"))
        if not all(type(n) is int and n >= 1 for n in sizes):
            return None
        shape = sizes + sizes[1:2] if key == "transitions" else sizes
        return shape if 2 * math.prod(shape) <= self.size else None

    def table(self, shape: Optional[tuple]) -> np.ndarray:
        """The table list at ``pos`` as one float64 array.

        With a declared ``shape``, the steps are written into one table of
        that shape by :meth:`fill`, the first step's text guessed as its
        share of the file's H·S·A·(S + 1) entries.  Without one, steps are
        decoded whole and stacked once.
        """
        if shape is not None:
            out = np.empty(shape)
            self.fill(out, self.size * out[0].size // (math.prod(shape[:3]) * (shape[1] + 1)))
            return out
        self.pos += 1
        steps, size = [], 0
        done = self.peek() == "]"
        self.pos += done
        while not done:
            begin = self.start + self.pos
            steps.append(self.numbers(steps[0].shape if steps else None, 2 * size))
            size = self.start + self.pos - begin
            done = self.delimiter("]")
        return np.stack(steps) if steps else np.empty(0)

    def fill(self, out: np.ndarray, size: int) -> None:
        """Decode the list at ``pos`` into ``out``, one item ``out[i]`` at a time.

        An item is decoded whole when twice its text fits in a window, judged
        by the previous item's text (``size`` for the first), else list item
        by list item in the same way.
        """
        self.pos += 1
        for i in range(len(out)):
            if self.delimiter("]") if i else self.peek() == "]":
                raise MdpValidationError(f"a table list of shape {out.shape} ends after {i} items")
            item, begin = out[i, ...], self.start + self.pos
            if not item.ndim or 2 * size <= _WINDOW or self.peek() != "[":
                item[...] = self.numbers(item.shape, 2 * size)
            else:
                self.fill(item, size // len(item))
            size = self.start + self.pos - begin
        if not self.delimiter("]"):
            raise MdpValidationError(f"a table list of shape {out.shape} has more items")


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
