"""Batch experiment runner and log-log scaling fits.

One experiment is a cartesian sweep over problem-size and accuracy axes,
``trials`` runs per sweep point.  Each (point, trial) coordinate gets its own
random stream derived from the master seed by a counter scheme (see
:func:`trial_seed`), so reruns are deterministic and rows never depend on
execution order.  Results go to a CSV with a frozen, versioned column schema
plus a JSON sidecar holding the configuration.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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


@functools.lru_cache(maxsize=1)
def _instance(s: int, a: int, h: int, sparsity: float, master_seed: int) -> FiniteHorizonMdp:
    """The generated instance of one (S, A, H); consecutive points of a size
    share it (its arrays are read-only)."""
    return random_mdp(s, a, h, sparsity=sparsity, seed=mdp_seed(master_seed, s, a, h))


def _run_point(config: ExperimentConfig, point_index: int, point: dict,
               fixed_mdp: Optional[FiniteHorizonMdp]) -> list[ResultRow]:
    if fixed_mdp is not None:
        mdp = fixed_mdp
    else:
        mdp = _instance(point["S"], point["A"], point["H"], config.sparsity, config.master_seed)
    rows = []
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

    With ``jobs > 1`` points are distributed over worker processes; output is
    independent of the schedule because every coordinate owns its own seed.
    """
    fixed_mdp = FiniteHorizonMdp.load(config.mdp_path) if config.mdp_path else None
    points = config.points()
    rows: list[ResultRow] = []
    if jobs > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_point, config, i, point, fixed_mdp)
                for i, point in enumerate(points)
            ]
            for future in futures:
                rows.extend(future.result())
    else:
        for i, point in enumerate(points):
            rows.extend(_run_point(config, i, point, fixed_mdp))
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
