"""Query accounting: every oracle invocation a run would make is counted here.

The ledger is the emulation's stand-in for query/sample complexity.  Counters
only increase; each algorithm owns one ledger per run, and concurrent runs
merge their ledgers by summation afterwards.
"""
from __future__ import annotations

import json
from typing import Iterable

# Canonical counter names, one per oracle kind the algorithms may touch:
#   classical_mdp        - classical table lookups (r, P entries)
#   quantum_mdp          - the unitary MDP table oracle
#   classical_generative - classical next-state sampler
#   quantum_generative   - superposition next-state sampler
#   dist_binary          - binary oracle holding a probability vector
#   func_binary          - binary oracle holding a bounded function
#   oracle_conversion    - binary-to-probability oracle conversions
ORACLES = (
    "classical_mdp",
    "quantum_mdp",
    "classical_generative",
    "quantum_generative",
    "dist_binary",
    "func_binary",
    "oracle_conversion",
)


class QueryLedger:
    """Per-run oracle counters.

    Not thread-safe by design: each concurrent run must own its ledger and
    fan results back in through :meth:`merge`.
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {name: 0 for name in ORACLES}

    def charge(self, oracle: str, cost: int) -> None:
        if oracle not in self.counts:
            raise KeyError(f"unknown oracle {oracle!r}; expected one of {ORACLES}")
        cost = int(cost)
        if cost < 0:
            raise ValueError("ledger charges must be nonnegative")
        self.counts[oracle] += cost

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, oracle: str) -> int:
        return self.counts[oracle]

    def merge(self, other: "QueryLedger") -> "QueryLedger":
        for name, value in other.counts.items():
            self.counts[name] += value
        return self

    def as_dict(self) -> dict:
        return dict(self.counts)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def merged(cls, ledgers: Iterable["QueryLedger"]) -> "QueryLedger":
        out = cls()
        for one in ledgers:
            out.merge(one)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self.counts.items() if v}
        return f"QueryLedger({nonzero}, total={self.total})"
