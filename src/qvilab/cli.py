"""Command-line front end: solve one instance, sweep, generate, or fit.

Subcommands:
  solve  - run one algorithm on an MDP file, write the result JSON
  sweep  - run a parameter sweep, write the results CSV + config sidecar
  gen    - emit an instance in the standard MDP JSON format
  fit    - log-log scaling fit on a results CSV

The environment variable QVI_SEED, when set, overrides --seed everywhere.
"""
from __future__ import annotations

import argparse
import os
import sys

from .emulation import SubroutineConfig
from .harness import SWEEP_AXES, ExperimentConfig, fit_scaling, read_csv, run_experiment
from .instances import (
    HardInstanceSpec,
    HorizonReductionSpec,
    make_hard_instance,
    make_horizon_reduction,
    random_mdp,
)
from .ledger import ORACLES, QueryLedger
from .mdp import FiniteHorizonMdp, eps_optimality_report
from .providers import EmulatedProvider
from .qvi import ALGORITHMS, QMS_BUDGET_MODES, InfeasibleParams, solve

_NOISE_CHOICES = {
    "exact": "exact",
    "uniform": "uniform_interval",
    "adv-low": "adversarial_low",
    "adv-high": "adversarial_high",
}


def _seed(args) -> int:
    env = os.environ.get("QVI_SEED")
    return int(env) if env else args.seed


def _add_run_flags(parser):
    parser.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    parser.add_argument("--eps", type=float, nargs="+", default=[0.3])
    parser.add_argument("--delta", type=float, nargs="+", default=[0.1])
    parser.add_argument("--eta", type=float, nargs="+", default=[0.05])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", choices=sorted(_NOISE_CHOICES), default="uniform")
    parser.add_argument("--inject-failures", action="store_true")
    parser.add_argument("--qms-budget", choices=QMS_BUDGET_MODES, default="per_state")


def _cmd_solve(args) -> int:
    mdp = FiniteHorizonMdp.load(args.mdp)
    ledger = QueryLedger()
    provider = EmulatedProvider(
        SubroutineConfig(
            noise_mode=_NOISE_CHOICES[args.noise],
            failure_injection=args.inject_failures,
            rng_seed=_seed(args),
        )
    )
    try:
        result = solve(args.algo, mdp, provider, ledger, eps=args.eps[0], delta=args.delta[0],
                       eta=args.eta[0], qms_budget_mode=args.qms_budget)
    except InfeasibleParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = eps_optimality_report(
        mdp, result.policy, result.values, result.qvalues, eps=args.eps[0]
    )
    if args.out:
        result.save(args.out)
    print(
        f"{args.algo}: value gap {report.value_gap:.6g}, policy gap "
        f"{report.policy_gap:.6g}, ledger total {ledger.total}"
    )
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        print(f"error: jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    config = ExperimentConfig(
        algorithm=args.algo,
        sweep={
            "S": args.S, "A": args.A, "H": args.H,
            "eps": args.eps, "delta": args.delta, "eta": args.eta,
        },
        trials=args.trials,
        master_seed=_seed(args),
        noise_mode=_NOISE_CHOICES[args.noise],
        failure_injection=args.inject_failures,
        sparsity=args.sparsity,
        mdp_path=args.mdp,
        out_path=args.out,
        qms_budget_mode=args.qms_budget,
    )
    rows = run_experiment(config, jobs=args.jobs)
    completed = sum(1 for r in rows if r.status == "completed")
    print(f"wrote {len(rows)} rows ({completed} completed) to {args.out}")
    return 0


def _cmd_gen(args) -> int:
    seed = _seed(args)
    if args.kind == "random":
        mdp = random_mdp(args.S, args.A, args.H, sparsity=args.sparsity, seed=seed)
    elif args.kind in ("m1", "m2"):
        spec = HardInstanceSpec(
            num_states=args.S,
            num_actions=args.A,
            horizon=args.H,
            variant=args.kind.upper(),
            distinguished_state=args.sbar,
            distinguished_action=args.abar,
            target_state=args.target,
            seed=seed,
        )
        mdp = make_hard_instance(spec)
    else:  # horizon-reduction
        if not args.base:
            raise SystemExit("--base is required for kind=horizon-reduction")
        base = FiniteHorizonMdp.load(args.base)
        spec = HorizonReductionSpec(
            base_transitions=base.transitions[0],
            base_rewards=base.rewards[0],
            gamma=args.gamma,
            eps=args.eps,
        )
        mdp = make_horizon_reduction(spec)
    mdp.save(args.out)
    print(f"wrote S={mdp.num_states} A={mdp.num_actions} H={mdp.horizon} to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    rows = read_csv(args.results)
    try:
        fit = fit_scaling(rows, args.axis, oracle=args.oracle)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lo, hi = fit.ci95
    print(
        f"{args.axis} slope ({fit.oracle}): {fit.slope:.4f} "
        f"(stderr {fit.stderr:.4f}, 95% CI [{lo:.4f}, {hi:.4f}], n={fit.n_rows})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qvilab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one algorithm on an MDP file")
    p_solve.add_argument("--mdp", required=True)
    _add_run_flags(p_solve)
    p_solve.add_argument("--out")
    p_solve.set_defaults(fn=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--mdp", help="fixed MDP file (otherwise generated per point)")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--S", type=int, nargs="+", default=[5])
    p_sweep.add_argument("--A", type=int, nargs="+", default=[3])
    p_sweep.add_argument("--H", type=int, nargs="+", default=[4])
    p_sweep.add_argument("--sparsity", type=float, default=1.0)
    p_sweep.add_argument("--trials", type=int, default=1)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_gen = sub.add_parser("gen", help="generate an MDP JSON file")
    p_gen.add_argument("--kind", choices=["random", "m1", "m2", "horizon-reduction"],
                       default="random")
    p_gen.add_argument("--S", type=int, default=7)
    p_gen.add_argument("--A", type=int, default=3)
    p_gen.add_argument("--H", type=int, default=4)
    p_gen.add_argument("--sparsity", type=float, default=1.0)
    p_gen.add_argument("--sbar", type=int, default=None)
    p_gen.add_argument("--abar", type=int, default=None)
    p_gen.add_argument("--target", type=int, default=None)
    p_gen.add_argument("--base", help="base MDP file for horizon reduction")
    p_gen.add_argument("--gamma", type=float, default=0.9)
    p_gen.add_argument("--eps", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_fit = sub.add_parser("fit", help="fit ledger scaling on a results CSV")
    p_fit.add_argument("--results", required=True)
    p_fit.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_fit.add_argument("--oracle", default="total", choices=["total"] + list(ORACLES))
    p_fit.set_defaults(fn=_cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
