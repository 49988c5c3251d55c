"""Print digests of every solver's seeded outputs, to compare two checkouts.

A speed-up that must not change results runs this script on both commits
and compares the output, which must be identical:

    python3 tests/identity_digest.py

Every ``ALGORITHMS`` entry runs under each noise mode, with failure injection
off and on, on three seeded instances; ``qvi2`` also runs on the statevector
provider, at (3, 2, 2) with eps 1.0 and at the benchmark's dense (4, 3, 4) and
(8, 2, 2) with eps 0.3.  Each run contributes V, the policy, Q, the ledger counts, the trace
without its seconds and the provider's final random state.  The instance file
format contributes, for a dense, a sparse, an S = 1 instance and one holding
-0.0, the bytes ``save`` writes and the arrays ``load`` reads back from them
and from the instance's indent, compact and duplicated-key layouts.  The
script prints one SHA-256 per algorithm over its runs, one over the files and
one over all of them.  Direct ``qmebo_exact`` calls (one row and stacks, one
eps and one per row, N in {1, 2, 5, 9}, with point masses, f = 0 and f = 1)
contribute their estimates, trials, ``grover_powers`` and final random state
to one more SHA-256, printed on its own line.  Direct ``perturbed_transitions``
calls (dense and sparse tables, point-mass rows, an S = 1 table, bounds from
1e-5 to ones where the shrink fires, a scaled call, and block sizes from one
entry to the default) contribute their tables and the generator's next draw
to another SHA-256; the next draws are printed on the line after it.  It then prints one SHA-256 per
(algorithm, noise mode, injection) split, so a change that may alter only
some draws can show which splits it left alone.  A split digest covers V, the policy, Q, the ledger
counts, the final random state and, per trace record, its epoch, step and
value row, but the trace's queries and failures only as totals per epoch:
it stays the same when a change moves charges between the records of an
epoch.  It is not a test module, so pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qvilab import (  # noqa: E402
    ALGORITHMS,
    EmulatedProvider,
    FiniteHorizonMdp,
    FixedPointFormat,
    QueryLedger,
    StatevectorProvider,
    SubroutineConfig,
    qmebo_exact,
    qvi2,
    random_mdp,
    solve,
)
import qvilab.qvi as qvi_module  # noqa: E402
from qvilab.emulation import NOISE_MODES  # noqa: E402

SEEDS = (0, 1, 2)
EPS, DELTA = 0.4, 0.1
# statevector qvi2 runs: ((S, A, H), eps); the last two are the benchmark's shapes,
# where T runs to about 2,100 reflections
SV_RUNS = (((3, 2, 2), 1.0), ((4, 3, 4), 0.3), ((8, 2, 2), 0.3))


def _outputs(result) -> list:
    """The bytes of one run's V, policy, Q and ledger."""
    return [result.values.values.tobytes(), result.policy.actions.tobytes(),
            b"" if result.qvalues is None else result.qvalues.qvalues.tobytes(),
            json.dumps(result.ledger.as_dict(), sort_keys=True).encode()]


def _random_state(rng) -> bytes:
    return json.dumps(rng.bit_generator.state, sort_keys=True).encode()


def run_digest(result, provider) -> bytes:
    """The digest of one run's outputs, its whole trace (seconds aside) and final
    random state."""
    parts = _outputs(result)
    for record in result.trace:
        head = (record.epoch, record.h, sorted(record.queries.items()),
                record.failed_estimates, record.failed_searches)
        parts += [json.dumps(head).encode(), record.values.tobytes()]
    parts.append(_random_state(provider.rng))
    return hashlib.sha256(b"\0".join(parts)).digest()


def split_digest(result, provider) -> bytes:
    """The digest of one run's outputs, final random state, trace value rows and
    per-epoch trace totals."""
    parts = [*_outputs(result), _random_state(provider.rng)]
    totals = {}
    for record in result.trace:
        parts += [json.dumps((record.epoch, record.h)).encode(), record.values.tobytes()]
        queries, failed = totals.setdefault(record.epoch, ({}, [0, 0]))
        for name, n in record.queries.items():
            queries[name] = queries.get(name, 0) + n
        failed[0] += record.failed_estimates
        failed[1] += record.failed_searches
    parts.append(json.dumps(sorted((k, sorted(q.items()), f) for k, (q, f) in totals.items()))
                 .encode())
    return hashlib.sha256(b"\0".join(parts)).digest()


def runs():
    """(algorithm, split, result, provider) for every algorithm, noise mode, injection
    setting and seed; the split names the noise mode and injection setting."""
    for name in ALGORITHMS:
        for mode in NOISE_MODES:
            for injection in (False, True):
                for seed in SEEDS:
                    mdp = random_mdp(10, 4, 6, sparsity=0.5, seed=seed)
                    eta = min(float(mdp.transitions[mdp.transitions > 0].min()), 0.49)
                    config = SubroutineConfig(noise_mode=mode, failure_injection=injection,
                                              rng_seed=seed)
                    provider = EmulatedProvider(config)
                    result = solve(name, mdp, provider, QueryLedger(), eps=EPS, delta=DELTA,
                                   eta=eta)
                    yield name, f"{mode}/{'fail' if injection else 'nofail'}", result, provider
    for size, eps in SV_RUNS:
        label = "" if size == (3, 2, 2) else "S{}A{}H{} eps {} ".format(*size, eps)
        for injection in (False, True):
            for seed in SEEDS:
                config = SubroutineConfig(failure_injection=injection, rng_seed=seed)
                provider = StatevectorProvider(config, fmt=FixedPointFormat(16, 12))
                result = qvi2(random_mdp(*size, seed=seed), eps, DELTA, provider, QueryLedger())
                yield "qvi2_sv", label + ("fail" if injection else "nofail"), result, provider


def with_negative_zeros(mdp):
    """``mdp`` with every other zero transition and its first reward written as -0.0."""
    t, r = mdp.transitions.copy(), mdp.rewards.copy()
    t.flat[np.flatnonzero(t == 0)[::2]] = -0.0
    r.flat[0] = -0.0
    return FiniteHorizonMdp(t, r)


# save's own text, then the indent, compact and duplicated layouts of test_mdp.REFORMATS
LAYOUTS = (
    None,
    lambda obj: json.dumps(obj, indent=2),
    lambda obj: json.dumps(obj, separators=(",", ":")),
    lambda obj: '{"rewards": [[[0.5]]], "transitions": 3, "H": 9,' + json.dumps(obj)[1:],
)


def files():
    """("files", digest of the saved bytes and the loaded arrays) for a few instances."""
    instances = [random_mdp(12, 3, 4, seed=0), random_mdp(30, 4, 5, sparsity=0.1, seed=1),
                 random_mdp(1, 3, 4, seed=2),
                 with_negative_zeros(random_mdp(6, 2, 3, sparsity=0.5, seed=3))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mdp.json"
        for mdp in instances:
            mdp.save(path)
            parts = [path.read_bytes()]
            for layout in LAYOUTS:
                if layout is not None:
                    path.write_text(layout(mdp.to_json()))
                back = FiniteHorizonMdp.load(path)
                parts += [back.transitions.tobytes(), back.rewards.tobytes()]
            yield "files", hashlib.sha256(b"\0".join(parts)).digest()


def qmebo_digest() -> str:
    """SHA-256 over direct ``qmebo_exact`` calls on one row and on stacks of rows."""
    fmt, digest = FixedPointFormat(16, 12), hashlib.sha256()
    for n in (1, 2, 5, 9):
        rng = np.random.default_rng(n)
        p = rng.dirichlet(np.ones(n), size=(2, 3))
        p[0, 0] = np.eye(n)[n - 1]  # a point mass
        for f in (rng.random(n), np.zeros(n), np.ones(n)):
            for rows in (p[0, 0], p[1, 2], p[1], p):
                shape = rows.shape[:-1]
                for eps in (0.2, np.linspace(0.05, 0.3, math.prod(shape)).reshape(shape)):
                    call_rng = np.random.default_rng(7 * n)
                    run = qmebo_exact(rows, f, eps, 0.1, fmt, call_rng)
                    for x in (run.estimate, run.trials, run.grover_powers, run.repeats):
                        digest.update(np.asarray(x).tobytes())
                    digest.update(_random_state(call_rng))
    return digest.hexdigest()


def with_point_masses(mdp, every):
    """``mdp`` with every ``every``-th transition row a point mass on the last state."""
    t = mdp.transitions.copy()
    t.reshape(-1, mdp.num_states)[::every] = np.eye(mdp.num_states)[-1]
    return FiniteHorizonMdp(t, mdp.rewards)


def perturb_digest() -> tuple[str, list[float]]:
    """SHA-256 over direct ``perturbed_transitions`` calls, and each call's next draw."""
    shrinking = FiniteHorizonMdp(np.tile([0.02, 0.98], (1, 2, 1, 1)), np.zeros((1, 2, 1)))
    calls = [  # (mdp, bound, scale)
        (random_mdp(40, 8, 12, seed=1), 1e-5, 1.0),
        (random_mdp(40, 8, 12, sparsity=0.1, seed=2), 0.05, 1.0),
        (random_mdp(100, 10, 10, sparsity=0.1, seed=3), 1e-3, 1.0),
        (with_point_masses(random_mdp(12, 4, 4, sparsity=0.5, seed=4), 3), 1e-3, 1.0),
        (with_point_masses(random_mdp(9, 3, 3, seed=5), 1), 0.2, 1.0),
        (random_mdp(1, 3, 4, seed=6), 0.1, 1.0),
        (shrinking, 0.125, 1.0),
        (random_mdp(10, 4, 6, sparsity=0.5, seed=7), 0.5, 0.3),
    ]
    digest, draws = hashlib.sha256(), []
    # block sizes in entries, the default first; a checkout without blocks ignores them
    for block in (65536, 7, 1):
        with mock.patch.object(qvi_module, "_BLOCK", block, create=True):
            for i, (mdp, bound, scale) in enumerate(calls):
                rng = np.random.default_rng(i)
                digest.update(qvi_module.perturbed_transitions(mdp, bound, rng, scale).tobytes())
                draws.append(rng.random())
                digest.update(np.float64(draws[-1]).tobytes())
    return digest.hexdigest(), draws


def main() -> None:
    by_name, by_split = {}, {}
    total, count = hashlib.sha256(), 0
    digests = []
    for name, split, result, provider in runs():
        digests.append((name, run_digest(result, provider)))
        by_split.setdefault((name, split), hashlib.sha256()).update(split_digest(result, provider))
    for name, digest in [*digests, *files()]:
        by_name.setdefault(name, hashlib.sha256()).update(digest)
        total.update(digest)
        count += 1
    for name, h in by_name.items():
        print(f"{name:8} {h.hexdigest()}")
    print(f"{'all':8} {total.hexdigest()}  ({count} runs)")
    print(f"{'qmebo':8} {qmebo_digest()}")
    perturb, draws = perturb_digest()
    print(f"{'perturb':8} {perturb}")
    print(f"{'draws':8} {' '.join(repr(x) for x in draws)}")
    for (name, split), h in by_split.items():
        print(f"{name:8} {split:28} {h.hexdigest()}")


if __name__ == "__main__":
    main()
