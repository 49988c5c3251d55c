"""Workload inputs, the operations the benchmark times, and their checks.

Every workload runs the same three groups of operations -- solves, a sweep,
and instance generation with save and load -- so that every run reports every
end-to-end metric.  A workload runs its own groups at full size and the
others at the smaller companion sizes; the smoke mode runs all three at tiny
sizes.
All inputs derive from the workload seed; the program only sees them.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import qvilab.harness
import qvilab.instances
import qvilab.mdp
import qvilab.providers
import qvilab.qvi
from qvilab import ExperimentConfig, FiniteHorizonMdp, MdpValidationError, QueryLedger, SubroutineConfig

import reference

EPS = 0.3
EPS_QVI4 = 0.4  # qvi4 needs eps <= sqrt(H); its cost grows as the epochs halve it
DELTA = 0.1
MIX = 0.2  # share of the uniform row in every solve row, so min P >= MIX / S = eta
SPARSITY = 0.1
SWEEP_EPS = (0.3, 0.2)
TRIALS = 2
JOBS = 2

FULL = {
    "solve": {"mdp": (40, 8, 12), "sv": (4, 3, 4)},
    "sweep": {"S": (40, 80), "A": 8, "H": 10},
    "io": {"mdp": (100, 10, 20)},
}
# The sweep and io companions are large enough that computing, not process
# start-up or the file system, takes most of their time.
COMPANION = {
    "solve": {"mdp": (8, 3, 4), "sv": (4, 2, 2)},
    "sweep": {"S": (24, 32), "A": 6, "H": 8},
    "io": {"mdp": (40, 5, 8)},
}
SMOKE = {
    "solve": {"mdp": (8, 3, 4), "sv": (4, 2, 2)},
    "sweep": {"S": (6, 9), "A": 3, "H": 4},
    "io": {"mdp": (12, 3, 4)},
}
# The groups each workload runs at full size.
FOCUS = {"solve": ("solve",), "sweep-io": ("sweep", "io")}


@dataclass
class Op:
    """One timed call into the program, with its check and what it measures.

    ``serial`` is the form the traced run records, for an operation whose
    timed form fans out to worker processes; ``sizes`` counts the distinct
    (S, A, H) such an operation generates.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    measure: Callable[[float, Any], dict[str, float]]
    serial: Optional[Callable[[], Any]] = None
    sizes: int = 0


@dataclass
class Workload:
    ops: list[Op]
    final_checks: list[Callable[[], list[str]]]


def build(workload: str, seed: int, smoke: bool, out_dir: Path) -> Workload:
    """Inputs and reference solutions of ``workload`` for ``seed``."""
    focus = FOCUS[workload]
    streams = dict(zip(("solve", "sweep", "io"), np.random.SeedSequence(seed).spawn(3)))

    def part(group, make):
        size = SMOKE[group] if smoke else FULL[group] if group in focus else COMPANION[group]
        return make(np.random.default_rng(streams[group]), size, out_dir / f"{workload}-{group}")

    parts = [part("solve", _solve), part("sweep", _sweep), part("io", _io)]
    return Workload(
        ops=[op for ops, _ in parts for op in ops],
        final_checks=[check for _, checks in parts for check in checks],
    )


def _elapsed_as(metric):
    return lambda elapsed, _out: {metric: elapsed}


# ---------------------------------------------------------------------------
# solve: vi and qvi1-qvi5 on a dense instance, qvi2 on the statevector backend
# ---------------------------------------------------------------------------


def _dense_instance(rng, n_s, n_a, horizon):
    weights = rng.dirichlet(np.ones(n_s), size=(horizon, n_s, n_a))
    transitions = (1.0 - MIX) * weights + MIX / n_s
    rewards = rng.random((horizon, n_s, n_a))
    return transitions, rewards


def _solve(rng, size, prefix):
    n_s, n_a, horizon = size["mdp"]
    transitions, rewards = _dense_instance(rng, n_s, n_a, horizon)
    mdp = FiniteHorizonMdp(transitions, rewards)
    v_star, q_star = reference.optimal(transitions, rewards)
    eta = MIX / n_s
    seeds = iter(int(x) for x in rng.integers(2**31, size=6))

    def vi_check(out):
        pi, values, _ = out
        v_pi = reference.evaluate(transitions, rewards, pi.actions)
        return reference.exact_errors("vi", values.values, v_pi, v_star)

    ops = [Op("vi", lambda: qvilab.mdp.exact_value_iteration(mdp), vi_check,
              _elapsed_as("vi_solve_s"))]

    def solver(algo, params, eps):
        config = SubroutineConfig(rng_seed=next(seeds))
        expected = reference.replay_ledger(algo, n_s, n_a, horizon, config,
                                           eps=eps, delta=DELTA, eta=eta)

        def run():
            return qvilab.qvi.ALGORITHMS[algo](
                mdp, *params, qvilab.providers.EmulatedProvider(config), QueryLedger())

        def check(result):
            v_hat = result.values.values
            v_pi = reference.evaluate(transitions, rewards, result.policy.actions)
            if algo == "qvi1":
                errors = reference.exact_errors(algo, v_hat, v_pi, v_star)
            else:
                errors = reference.sandwich_errors(algo, v_hat, v_pi, v_star, eps)
            if algo == "qvi4":
                q_gap = np.abs(result.qvalues.qvalues - q_star).max()
                if q_gap > eps:
                    errors.append(f"qvi4: |Q - Q*| = {q_gap:.3g} > eps")
            if result.ledger.as_dict() != expected:
                errors.append(f"{algo}: ledger {result.ledger.as_dict()} != replay {expected}")
            return errors

        return Op(algo, run, check, _elapsed_as(f"{algo}_solve_s"))

    ops += [
        solver("qvi1", (DELTA,), 0.0),
        solver("qvi2", (EPS, DELTA), EPS),
        solver("qvi3", (EPS, DELTA), EPS),
        solver("qvi4", (EPS_QVI4, DELTA), EPS_QVI4),
        solver("qvi5", (EPS, DELTA, eta), EPS),
    ]

    sv_s, sv_a, sv_h = size["sv"]
    sv_t, sv_r = _dense_instance(rng, sv_s, sv_a, sv_h)
    sv_mdp = FiniteHorizonMdp(sv_t, sv_r)
    sv_star, _ = reference.optimal(sv_t, sv_r)
    sv_config = SubroutineConfig(rng_seed=next(seeds))
    sv_expected = reference.replay_ledger("qvi2_sv", sv_s, sv_a, sv_h, sv_config,
                                          eps=EPS, delta=DELTA)

    def sv_run():
        # Called directly rather than through ALGORITHMS so that the trace
        # keeps these provider calls apart from the emulated qvi2 solve.
        return qvilab.qvi.qvi2(sv_mdp, EPS, DELTA,
                               qvilab.providers.StatevectorProvider(sv_config), QueryLedger())

    def sv_check(result):
        v_hat = result.values.values
        v_pi = reference.evaluate(sv_t, sv_r, result.policy.actions)
        errors = []
        if (v_pi - sv_star).max() > reference.TOL:
            errors.append(f"qvi2_sv: V^pi above V* by {(v_pi - sv_star).max():.3g}")
        if v_hat.min() < 0.0 or v_hat.max() > sv_h:
            errors.append("qvi2_sv: V-hat outside [0, H]")
        if result.ledger.as_dict() != sv_expected:
            errors.append(f"qvi2_sv: ledger {result.ledger.as_dict()} != replay {sv_expected}")
        return errors

    ops.append(Op("qvi2_sv", sv_run, sv_check, _elapsed_as("qvi2_sv_solve_s")))
    return ops, []


# ---------------------------------------------------------------------------
# sweep: qvi3 over two sizes and two eps values through the harness pool
# ---------------------------------------------------------------------------


def _sweep(rng, size, prefix):
    a, h = size["A"], size["H"]
    config = ExperimentConfig(
        "qvi3",
        sweep={"S": size["S"], "A": (a,), "H": (h,), "eps": SWEEP_EPS, "delta": (DELTA,)},
        trials=TRIALS,
        master_seed=int(rng.integers(2**31)),
        out_path=f"{prefix}.csv",
    )
    serial = dataclasses.replace(config, out_path=f"{prefix}-serial.csv")
    n_rows = len(config.points()) * TRIALS
    expected = {
        (s, eps): reference.replay_ledger("qvi3", s, a, h, SubroutineConfig(), eps=eps, delta=DELTA)
        for s in size["S"] for eps in SWEEP_EPS
    }

    def check(rows):
        errors = [] if len(rows) == n_rows else [f"sweep: {len(rows)} rows, expected {n_rows}"]
        for row in rows:
            if row.status != "completed" or not row.success:
                errors.append(f"sweep: row {row.point_index}/{row.trial} {row.status} "
                              f"success={row.success} {row.skip_reason}")
            elif row.ledger_counts != expected[(row.S, row.eps)]:
                errors.append(f"sweep: row {row.point_index}/{row.trial} ledger differs from replay")
        return errors

    def csv_matches_serial():
        rows = qvilab.harness.run_experiment(serial, jobs=1)
        errors = check(rows)
        if Path(config.out_path).read_bytes() != Path(serial.out_path).read_bytes():
            errors.append("sweep: jobs=2 CSV differs from the serial CSV")
        return errors

    op = Op(
        "sweep",
        lambda: qvilab.harness.run_experiment(config, jobs=JOBS),
        check,
        lambda elapsed, rows: {"sweep_rows_per_s": len(rows) / elapsed},
        serial=lambda: qvilab.harness.run_experiment(serial, jobs=1),
        sizes=len(size["S"]),
    )
    return [op], [csv_matches_serial]


# ---------------------------------------------------------------------------
# instance-io: a sparse random instance, saved and loaded as JSON
# ---------------------------------------------------------------------------


def _io(rng, size, prefix):
    n_s, n_a, horizon = size["mdp"]
    seed = int(rng.integers(2**31))
    support = math.ceil(SPARSITY * n_s)
    path = Path(f"{prefix}.json")
    state = {}

    def gen():
        state["mdp"] = qvilab.instances.random_mdp(n_s, n_a, horizon, sparsity=SPARSITY, seed=seed)
        return state["mdp"]

    def gen_check(mdp):
        errors = []
        if np.abs(mdp.transitions.sum(axis=3) - 1.0).max() > 1e-12:
            errors.append("gen: a row does not sum to 1 within 1e-12")
        if not np.all(np.count_nonzero(mdp.transitions, axis=3) == support):
            errors.append(f"gen: a row does not have exactly {support} nonzeros")
        return errors

    def load_check(mdp):
        saved = state["mdp"]
        same = (mdp.transitions.tobytes() == saved.transitions.tobytes()
                and mdp.rewards.tobytes() == saved.rewards.tobytes())
        return [] if same else ["load: loaded arrays differ from the saved ones"]

    def rejects_perturbed_row():
        obj = json.loads(path.read_text())
        obj["transitions"][0][0][0][0] += 1e-6
        bad = Path(f"{prefix}-perturbed.json")
        bad.write_text(json.dumps(obj))
        try:
            FiniteHorizonMdp.load(bad)
        except MdpValidationError:
            return []
        return ["load: a file with one perturbed row raised no MdpValidationError"]

    ops = [
        Op("gen", gen, gen_check, _elapsed_as("gen_s")),
        Op("save", lambda: state["mdp"].save(path),
           lambda _: [] if path.stat().st_size > 0 else ["save: empty file"],
           lambda elapsed, _: {"save_s": elapsed, "mdp_file_mb": path.stat().st_size / 1e6}),
        Op("load", lambda: FiniteHorizonMdp.load(path), load_check, _elapsed_as("load_s")),
    ]
    return ops, [rejects_perturbed_row]
