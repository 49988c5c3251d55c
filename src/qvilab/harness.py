"""Batch experiment runner and log-log scaling fits.

One experiment is a cartesian sweep over problem-size and accuracy axes,
``trials`` runs per sweep point.  Each (point, trial) coordinate gets its own
random stream derived from the master seed by a counter scheme (see
:func:`trial_seed`), so reruns are deterministic and rows never depend on
execution order.  Each (S, A, H) instance is generated once, in one task, and
small sweeps run in-process even with ``jobs > 1``.  Results go to a CSV with
a frozen, versioned column schema plus a JSON sidecar holding the configuration.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Optional, Sequence

import numpy as np

from .emulation import NOISE_MODES, SubroutineConfig
from .instances import random_mdp
from .ledger import ORACLES, QueryLedger
from .mdp import FiniteHorizonMdp, eps_optimality_report
from .providers import EmulatedProvider
from .qvi import ALGORITHMS, QMS_BUDGET_MODES, InfeasibleParams, solve

SWEEP_AXES = ("S", "A", "H", "eps", "delta", "eta")

CSV_SCHEMA_VERSION = 1

_CSV_COLUMNS = (
    "point_index",
    "trial",
    "algo",
    "S",
    "A",
    "H",
    "eps",
    "delta",
    "eta",
    "seed",
    "status",
    "skip_reason",
    "success",
    "v_gap",
    "policy_gap",
    "q_gap",
) + tuple(f"q_{name}" for name in ORACLES) + ("q_total",)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: algorithm, axes, trials, and subroutine settings.

    ``mdp_path`` pins a fixed instance (the S/A/H axes must then be left at
    their single default values); otherwise instances are generated per
    (S, A, H) from the master seed, so points differing only in accuracy axes
    share the same MDP.
    """

    algorithm: str
    sweep: dict = field(default_factory=dict)
    trials: int = 1
    master_seed: int = 0
    noise_mode: str = "uniform_interval"
    failure_injection: bool = False
    sparsity: float = 1.0
    mdp_path: Optional[str] = None
    out_path: Optional[str] = None
    qms_budget_mode: str = "per_state"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}")
        if self.qms_budget_mode not in QMS_BUDGET_MODES:
            raise ValueError(f"qms_budget_mode must be one of {QMS_BUDGET_MODES}")
        axes = {}
        for name in SWEEP_AXES:
            values = tuple(self.sweep.get(name, _AXIS_DEFAULTS[name]))
            if len(values) == 0:
                raise ValueError(f"sweep axis {name!r} must be nonempty")
            axes[name] = values
        object.__setattr__(self, "sweep", axes)

    def points(self) -> list[dict]:
        out = []
        for s in self.sweep["S"]:
            for a in self.sweep["A"]:
                for h in self.sweep["H"]:
                    for eps in self.sweep["eps"]:
                        for delta in self.sweep["delta"]:
                            for eta in self.sweep["eta"]:
                                out.append(
                                    {"S": int(s), "A": int(a), "H": int(h),
                                     "eps": float(eps), "delta": float(delta),
                                     "eta": float(eta)}
                                )
        return out

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data["sweep"] = {k: list(v) for k, v in self.sweep.items()}
        data["csv_schema_version"] = CSV_SCHEMA_VERSION
        return data


_AXIS_DEFAULTS = {"S": (5,), "A": (3,), "H": (4,), "eps": (0.3,), "delta": (0.1,), "eta": (0.05,)}


@dataclass(frozen=True)
class ResultRow:
    """One (point, trial) outcome."""

    point_index: int
    trial: int
    algo: str
    S: int
    A: int
    H: int
    eps: float
    delta: float
    eta: float
    seed: int
    status: str  # completed | skipped
    skip_reason: str
    success: Optional[bool]
    v_gap: Optional[float]
    policy_gap: Optional[float]
    q_gap: Optional[float]
    ledger_counts: dict

    def csv_values(self) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "1" if x else "0"
            if isinstance(x, float):
                return repr(x)
            return str(x)

        base = [
            self.point_index, self.trial, self.algo, self.S, self.A, self.H,
            self.eps, self.delta, self.eta, self.seed, self.status,
            self.skip_reason, self.success, self.v_gap, self.policy_gap, self.q_gap,
        ]
        counts = [self.ledger_counts.get(name, 0) for name in ORACLES]
        total = sum(counts)
        return [fmt(x) for x in base + counts + [total]]


def mdp_seed(master_seed: int, s: int, a: int, h: int) -> int:
    """Instance stream: counter-keyed so accuracy axes reuse the same MDP."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(1, s, a, h))
    return int(seq.generate_state(1)[0])


def trial_seed(master_seed: int, point_index: int, trial: int) -> int:
    """Subroutine stream for one (point, trial) coordinate."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(2, point_index, trial))
    return int(seq.generate_state(1)[0])


# A sweep runs in-process below _POOL_MIN_SECONDS of estimated solves: the transition
# entries they read (trials * H * S^2 * A over its points) times the algorithm's
# in-process ns per entry, instance and exact baseline included, measured at 2e6-3e7
# entries on a 2-vCPU host.  There a 2-worker pool cost ~30 ms to start and warm, a
# 2-way split of unequal sizes saved well under half, and jobs=2 pools broke even
# near 0.1 s: qvi3 near 1.5e7-2e7 entries, qvi4 near 3e6, qvi5 near 6e6.
_NS_PER_ENTRY = {"vi": 5, "qvi1": 5, "qvi2": 8, "qvi3": 6, "qvi4": 40, "qvi5": 20}
_POOL_MIN_SECONDS = 0.12


def _run_task(config: ExperimentConfig, task: list[tuple[int, dict]],
              mdp: Optional[FiniteHorizonMdp]) -> list[ResultRow]:
    """Rows of (point_index, point) pairs sharing one instance (generated if None)."""
    if mdp is None:
        s, a, h = (task[0][1][k] for k in "SAH")
        mdp = random_mdp(s, a, h, sparsity=config.sparsity, seed=mdp_seed(config.master_seed, s, a, h))
    rows = []
    for point_index, point in task:
        for trial in range(config.trials):
            seed = trial_seed(config.master_seed, point_index, trial)
            common = dict(
                point_index=point_index, trial=trial, algo=config.algorithm,
                S=mdp.num_states, A=mdp.num_actions, H=mdp.horizon,
                eps=point["eps"], delta=point["delta"], eta=point["eta"], seed=seed,
            )
            ledger = QueryLedger()
            provider = EmulatedProvider(SubroutineConfig(
                noise_mode=config.noise_mode,
                failure_injection=config.failure_injection,
                rng_seed=seed,
            ))
            try:
                result = solve(config.algorithm, mdp, provider, ledger, eps=point["eps"],
                               delta=point["delta"], eta=point["eta"],
                               qms_budget_mode=config.qms_budget_mode)
            except InfeasibleParams as exc:
                rows.append(ResultRow(**common, status="skipped", skip_reason=str(exc),
                                      success=None, v_gap=None, policy_gap=None,
                                      q_gap=None, ledger_counts={}))
                continue
            # Algorithms that take no eps promise exact outputs.
            report = eps_optimality_report(mdp, result.policy, result.values, result.qvalues,
                                           eps=result.params.get("eps", 1e-9))
            rows.append(ResultRow(**common, status="completed", skip_reason="",
                                  success=report.all_ok, v_gap=report.value_gap,
                                  policy_gap=report.policy_gap, q_gap=report.q_gap,
                                  ledger_counts=ledger.as_dict()))
    return rows


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Run the sweep; returns rows sorted by (point, trial) and writes outputs.

    One task per instance: the points of one (S, A, H) share one generated
    MDP, and a fixed ``mdp_path`` instance is dealt into ``min(jobs, points)``
    chunks.  With ``jobs > 1`` the tasks go to worker processes, unless there
    are fewer than two or the sweep's estimated solve time is too small to pay
    for a pool (``_NS_PER_ENTRY``, ``_POOL_MIN_SECONDS``).  Output is
    independent of the schedule because every coordinate owns its own seed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    fixed_mdp = FiniteHorizonMdp.load(config.mdp_path) if config.mdp_path else None
    points = list(enumerate(config.points()))
    if fixed_mdp is None:  # the size axes are the outer loops of config.points()
        tasks = [list(g) for _, g in groupby(points, lambda ip: [ip[1][k] for k in "SAH"])]
    else:
        chunks = min(jobs, len(points))
        tasks = [points[k::chunks] for k in range(chunks)]
    entries = config.trials * sum(fixed_mdp.transitions.size if fixed_mdp else
                                  p["H"] * p["S"] ** 2 * p["A"] for _, p in points)
    workers = min(jobs, len(tasks))
    if workers < 2 or entries * _NS_PER_ENTRY[config.algorithm] * 1e-9 < _POOL_MIN_SECONDS:
        rows = [row for task in tasks for row in _run_task(config, task, fixed_mdp)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_run_task, repeat(config), tasks, repeat(fixed_mdp))
            rows = [row for task_rows in done for row in task_rows]
    rows.sort(key=lambda r: (r.point_index, r.trial))
    if config.out_path:
        write_csv(rows, config.out_path)
        with open(str(config.out_path) + ".config.json", "w") as fh:
            json.dump(config.to_json(), fh, indent=2, sort_keys=True)
    return rows


def write_csv(rows: Sequence[ResultRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# qvilab results schema v{CSV_SCHEMA_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(row.csv_values() for row in rows)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


@dataclass(frozen=True)
class ScalingFit:
    """Log-log least-squares slope of a ledger count against a sweep axis."""

    axis: str
    oracle: str
    slope: float
    stderr: float
    n_rows: int

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.slope - 1.96 * self.stderr, self.slope + 1.96 * self.stderr)


def fit_scaling(rows, axis: str, oracle: str = "total") -> ScalingFit:
    """Fit ledger-count scaling against one axis on completed rows.

    ``rows`` may be ResultRow objects or dict rows from :func:`read_csv`;
    ``oracle`` is a counter name or "total".  Needs at least three distinct
    axis values.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    xs, ys = [], []
    for row in rows:
        if isinstance(row, ResultRow):
            if row.status != "completed":
                continue
            x = getattr(row, axis)
            y = sum(row.ledger_counts.values()) if oracle == "total" else row.ledger_counts.get(oracle, 0)
        else:
            if row["status"] != "completed":
                continue
            x = float(row[axis])
            y = float(row["q_total"]) if oracle == "total" else float(row[f"q_{oracle}"])
        if y > 0:
            xs.append(float(x))
            ys.append(float(y))
    if len(set(xs)) < 3:
        raise ValueError("need at least three distinct axis values to fit a slope")
    lx, ly = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    design = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, residuals, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    slope = float(coef[0])
    dof = max(len(lx) - 2, 1)
    if len(residuals):
        mse = float(residuals[0]) / dof
    else:
        mse = float(np.sum((ly - design @ coef) ** 2)) / dof
    var_x = float(np.sum((lx - lx.mean()) ** 2))
    stderr = math.sqrt(mse / var_x) if var_x > 0 else float("inf")
    return ScalingFit(axis=axis, oracle=oracle, slope=slope, stderr=stderr, n_rows=len(lx))
