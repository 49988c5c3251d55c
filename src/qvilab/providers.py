"""Subroutine providers: the pluggable backend the planning algorithms run on.

The algorithms are written once against this surface.  ``EmulatedProvider``
answers every request from the query-model emulators and scales to any
instance the classical machinery can hold; ``StatevectorProvider`` swaps the
binary-oracle mean estimation for the exact statevector pipeline and is only
meant for tiny instances.

Providers own a single random stream seeded from their config, so a fixed
(config, call sequence) pair reproduces estimates and ledgers bit for
bit.  Concurrent runs must use separate providers with split seeds.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import emulation as em
from .ledger import QueryLedger
from .statevector import FixedPointFormat, ae_repetitions, qmebo_exact


class EmulatedProvider:
    """Query-model emulation backend."""

    name = "emulated"

    def __init__(self, config: em.SubroutineConfig):
        self.config = config
        self.rng = np.random.default_rng(config.rng_seed)

    # -- selection ----------------------------------------------------------

    def qms(
        self,
        values,
        delta: float,
        ledger: Optional[QueryLedger] = None,
        oracle: str = "func_binary",
        cost_per_query: int = 1,
    ) -> int:
        return em.qms_emulated(values, delta, self.config, self.rng, ledger, oracle, cost_per_query)

    # -- mean estimation ------------------------------------------------------

    def mean_bounded(
        self,
        probabilities,
        values,
        u: float,
        eps: float,
        delta: float,
        ledger: Optional[QueryLedger] = None,
        oracle: str = "quantum_generative",
    ) -> em.NoisyEstimate:
        return em.qme1_emulated(
            (probabilities, values), u, eps, delta, self.config, self.rng, ledger, oracle
        )

    def mean_with_variance_bound(
        self,
        probabilities,
        values,
        sigma_bound: float,
        eps: float,
        delta: float,
        ledger: Optional[QueryLedger] = None,
        oracle: str = "quantum_generative",
    ) -> em.NoisyEstimate:
        return em.qme2_emulated(
            (probabilities, values), sigma_bound, eps, delta, self.config, self.rng, ledger, oracle
        )

    def mean_binary(
        self,
        probabilities,
        values,
        eps: float,
        delta: float,
        ledger: Optional[QueryLedger] = None,
        oracles: tuple[str, str] = ("dist_binary", "func_binary"),
    ) -> em.NoisyEstimate:
        return em.qmebo_emulated(
            probabilities, values, eps, delta, self.config, self.rng, ledger, oracles
        )

    # -- cost formulas (for algorithms that nest oracles) --------------------

    def qms_call_cost(self, n: int, delta: float) -> int:
        return em.qms_query_count(n, delta, self.config)

    def qme1_call_cost(self, u: float, eps: float, delta: float) -> int:
        return em.qme1_query_count(u, eps, delta, self.config)

    def qme2_call_cost(self, sigma_bound: float, eps: float, delta: float) -> int:
        return em.qme2_query_count(sigma_bound, eps, delta, self.config)

    def qmebo_call_cost(self, n: int, eps: float, delta: float) -> int:
        return em.qmebo_query_count(n, eps, delta, self.config)


class StatevectorProvider(EmulatedProvider):
    """Provider whose binary-oracle mean estimation runs the exact statevector.

    Estimates come from genuinely sampled amplitude-estimation outcomes, so
    unlike the emulated backend their error is only guaranteed with
    probability 1 - delta (plus the fixed-point encoding offset).  Search and
    generative-model estimation still use the emulated paths.
    """

    name = "statevector"

    def __init__(
        self,
        config: em.SubroutineConfig,
        fmt: FixedPointFormat = FixedPointFormat(),
        t_rule: str = "quadratic",
    ):
        super().__init__(config)
        self.fmt = fmt
        self.t_rule = t_rule

    def mean_binary(
        self,
        probabilities,
        values,
        eps: float,
        delta: float,
        ledger: Optional[QueryLedger] = None,
        oracles: tuple[str, str] = ("dist_binary", "func_binary"),
    ) -> em.NoisyEstimate:
        run = qmebo_exact(
            probabilities,
            values,
            eps,
            delta,
            self.fmt,
            self.rng,
            ledger=None,
            kappa=self.config.powering_repeats,
            t_rule=self.t_rule,
        )
        charged = 2 * run.grover_powers * run.repeats
        em._bill(ledger, oracles, charged)
        return em.NoisyEstimate(
            value=run.estimate,
            charged_queries=charged,
            failed=False,
            true_mean=run.true_mean,
        )

    def qmebo_call_cost(self, n: int, eps: float, delta: float) -> int:
        padded = 2 ** max(1, math.ceil(math.log2(n)))
        return 2 * ae_repetitions(padded, eps, self.t_rule) * em._repeats(delta, self.config)
