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

from typing import Optional

import numpy as np

from . import emulation as em
from .ledger import QueryLedger
from .statevector import FixedPointFormat, _index_width, ae_repetitions, qmebo_exact


class EmulatedProvider:
    """Query-model emulation backend."""

    name = "emulated"

    def __init__(self, config: em.SubroutineConfig):
        self.config = config
        self.rng = np.random.default_rng(config.rng_seed)

    # -- selection and mean estimation, over one row or a stack of rows -----

    def qms(
        self,
        values,
        delta: float,
        ledger: Optional[QueryLedger] = None,
        oracle: str = "func_binary",
        cost_per_query: int = 1,
    ):
        return em.qms_emulated(values, delta, self.config, self.rng, ledger, oracle, cost_per_query)

    def mean_bounded(
        self,
        probabilities,
        values,
        u: float,
        eps,
        delta: float,
        ledger: Optional[QueryLedger] = None,
    ) -> em.NoisyEstimate:
        return em.qme1_emulated(
            (probabilities, values), u, eps, delta, self.config, self.rng, ledger
        )

    def mean_with_variance_bound(
        self,
        probabilities,
        values,
        sigma_bound,
        eps,
        delta: float,
        ledger: Optional[QueryLedger] = None,
    ) -> em.NoisyEstimate:
        return em.qme2_emulated(
            (probabilities, values), sigma_bound, eps, delta, self.config, self.rng, ledger
        )

    def mean_binary(
        self,
        probabilities,
        values,
        eps,
        delta: float,
        ledger: Optional[QueryLedger] = None,
    ) -> em.NoisyEstimate:
        return em.qmebo_emulated(
            probabilities, values, eps, delta, self.config, self.rng, ledger
        )

    # -- cost formulas (for algorithms that nest oracles) --------------------

    def qms_call_cost(self, n: int, delta: float) -> int:
        return em.qms_query_count(n, delta, self.config)

    def qme1_call_cost(self, u: float, eps: float, delta: float) -> int:
        return em.qme1_query_count(u, eps, delta, self.config)

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
    ):
        super().__init__(config)
        self.fmt = fmt

    def mean_binary(
        self,
        probabilities,
        values,
        eps,
        delta: float,
        ledger: Optional[QueryLedger] = None,
    ) -> em.NoisyEstimate:
        """Statevector estimation of every row of ``probabilities`` in one call.

        One ``qmebo_exact`` call prepares the rows on their support and builds
        their outcome laws one at a time.  Draw protocol: row after row in C
        order, each row draws K uniforms, ``rng.random(K)``, and inverts them
        through its law's cdf into its K amplitude-estimation outcomes (what
        ``rng.choice(T, size=K, p=law)`` draws); nothing else is drawn (no
        failures are injected), so a stack draws what its rows' one-row calls
        draw.
        """
        run = qmebo_exact(probabilities, values, eps, delta, self.fmt, self.rng,
                          kappa=self.config.powering_repeats)
        charged = 2 * int(np.sum(run.grover_powers)) * run.repeats
        em._bill(ledger, em.BINARY_ORACLES, charged)
        return em.NoisyEstimate(
            value=np.asarray(run.estimate)[()],
            charged_queries=charged,
            failed=np.zeros(np.shape(run.estimate), dtype=bool)[()],
            true_mean=np.asarray(run.true_mean)[()],
        )

    def qmebo_call_cost(self, n: int, eps: float, delta: float) -> int:
        padded = 2 ** _index_width(n)
        return 2 * ae_repetitions(padded, eps) * em._repeats(delta, self.config)
