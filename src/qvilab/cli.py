"""Command-line front end: solve one instance, sweep, generate, or fit.

Subcommands:
  solve  - run one algorithm on an MDP file, write the result JSON
  sweep  - run a parameter sweep, write the results CSV + config sidecar
  gen    - emit an instance in the standard MDP JSON format
  fit    - log-log scaling fit on a results CSV

The environment variable QVI_SEED, when set, overrides --seed everywhere.  A seed
that is not an integer >= 0 is an error before any instance is loaded or built.
"""
from __future__ import annotations

import argparse
import json
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
from .mdp import FiniteHorizonMdp, MdpValidationError, eps_optimality_report
from .providers import EmulatedProvider
from .qvi import ALGORITHMS, QMS_BUDGET_MODES, InfeasibleParams, solve

_NOISE_CHOICES = {
    "exact": "exact",
    "uniform": "uniform_interval",
    "adv-low": "adversarial_low",
    "adv-high": "adversarial_high",
}


# What a missing, unreadable or malformed input or output file raises.
_FILE_ERRORS = (OSError, json.JSONDecodeError, MdpValidationError)


def _error(reason) -> int:
    print(f"error: {reason}", file=sys.stderr)
    return 2


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
    for name in ("eps", "delta", "eta"):
        if len(getattr(args, name)) > 1:
            return _error(f"solve takes one --{name} value, got {getattr(args, name)}")
    try:
        config = SubroutineConfig(noise_mode=_NOISE_CHOICES[args.noise],
                                  failure_injection=args.inject_failures, rng_seed=args.seed)
    except ValueError as exc:
        return _error(exc)
    try:
        mdp = FiniteHorizonMdp.load(args.mdp)
    except _FILE_ERRORS as exc:
        return _error(exc)
    ledger = QueryLedger()
    provider = EmulatedProvider(config)
    try:
        result = solve(args.algo, mdp, provider, ledger, eps=args.eps[0], delta=args.delta[0],
                       eta=args.eta[0], qms_budget_mode=args.qms_budget)
    except InfeasibleParams as exc:
        return _error(exc)
    report = eps_optimality_report(
        mdp, result.policy, result.values, result.qvalues, eps=args.eps[0]
    )
    if args.out:
        try:
            result.save(args.out)
        except OSError as exc:
            return _error(exc)
    print(
        f"{args.algo}: value gap {report.value_gap:.6g}, policy gap "
        f"{report.policy_gap:.6g}, ledger total {ledger.total}"
    )
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        return _error(f"jobs must be >= 1, got {args.jobs}")
    try:
        config = ExperimentConfig(
            algorithm=args.algo,
            sweep={
                "S": args.S, "A": args.A, "H": args.H,
                "eps": args.eps, "delta": args.delta, "eta": args.eta,
            },
            trials=args.trials,
            master_seed=args.seed,
            noise_mode=_NOISE_CHOICES[args.noise],
            failure_injection=args.inject_failures,
            sparsity=args.sparsity,
            mdp_path=args.mdp,
            out_path=args.out,
            qms_budget_mode=args.qms_budget,
        )
    except ValueError as exc:
        return _error(exc)
    try:
        rows = run_experiment(config, jobs=args.jobs)
    except _FILE_ERRORS as exc:
        return _error(exc)
    completed = sum(1 for r in rows if r.status == "completed")
    print(f"wrote {len(rows)} rows ({completed} completed) to {args.out}")
    return 0


def _gen_builder(args):
    """A call that builds ``gen``'s instance, once its sizes and inputs are checked.

    A bad size or parameter raises ``ValueError``, and so does a malformed
    ``--base`` file; a missing one raises ``OSError``.
    """
    if args.kind == "random":
        if min(args.S, args.A, args.H) < 1:
            raise ValueError(f"--S, --A and --H must be >= 1, got {args.S}, {args.A}, {args.H}")
        if not 0.0 < args.sparsity <= 1.0:
            raise ValueError(f"sparsity must lie in (0, 1], got {args.sparsity!r}")
        return lambda: random_mdp(args.S, args.A, args.H, sparsity=args.sparsity, seed=args.seed)
    if args.kind in ("m1", "m2"):
        spec = HardInstanceSpec(
            num_states=args.S,
            num_actions=args.A,
            horizon=args.H,
            variant=args.kind.upper(),
            distinguished_state=args.sbar,
            distinguished_action=args.abar,
            target_state=args.target,
            seed=args.seed,
        )
        return lambda: make_hard_instance(spec)
    if not args.base:
        raise ValueError("--base is required for kind=horizon-reduction")
    base = FiniteHorizonMdp.load(args.base)
    spec = HorizonReductionSpec(
        base_transitions=base.transitions[0],
        base_rewards=base.rewards[0],
        gamma=args.gamma,
        eps=args.eps,
    )
    return lambda: make_horizon_reduction(spec)


def _cmd_gen(args) -> int:
    if args.seed < 0:
        return _error(f"seed must be an integer >= 0, got {args.seed}")
    try:
        build = _gen_builder(args)
    except (OSError, ValueError) as exc:
        return _error(exc)
    mdp = build()
    try:
        mdp.save(args.out)
    except OSError as exc:
        return _error(exc)
    print(f"wrote S={mdp.num_states} A={mdp.num_actions} H={mdp.horizon} to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    try:
        rows = read_csv(args.results)
    except OSError as exc:
        return _error(exc)
    try:
        fit = fit_scaling(rows, args.axis, oracle=args.oracle)
    except ValueError as exc:
        return _error(exc)
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
    env = os.environ.get("QVI_SEED")
    if env and hasattr(args, "seed"):
        if not env.strip().isdecimal():
            return _error(f"QVI_SEED must be an integer >= 0, got {env!r}")
        args.seed = int(env)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
