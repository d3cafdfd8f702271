"""Command-line interface: benchmark runners, one-off solves, rate tables,
and empirical certification of the contraction bounds."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import analysis, experiment, solver


def _count(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


# exp1/exp2 flags: (flag, the ExperimentSpec field it sets and defaults to, type, help).
SPEC_FLAGS = (
    ("--seeds", "n_seeds", _count(0), "number of seeded instances"),
    ("--alpha-frac", "alpha_fraction", float, "fraction of each variant's step bound"),
    ("--lambda", "relaxation", float, "relaxation weight in (0,1)"),
    ("--iters", "max_iters", _count(0), "max DR iterations per run"),
)


def _add_experiment_flags(p: argparse.ArgumentParser, spec: experiment.ExperimentSpec) -> None:
    for flag, name, kind, help_text in SPEC_FLAGS:
        p.add_argument(flag, dest=name, type=kind, default=getattr(spec, name), help=help_text)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--out-dir", default=None, help="directory for instances, traces, and report.json")
    p.set_defaults(func=lambda a: _run_experiment(spec, a))


def _run_experiment(base: experiment.ExperimentSpec, args) -> int:
    spec = dataclasses.replace(base, **{name: getattr(args, name) for _, name, _, _ in SPEC_FLAGS})
    report = experiment.run_experiment(spec, master_seed=args.master_seed, out_dir=args.out_dir)
    json.dump(report.to_json_dict()["aggregate"], sys.stdout, indent=2)
    print()
    return 0


def _cmd_solve(args) -> int:
    instance = experiment.ProblemInstance.load(args.instance)
    problem = instance.problem()
    config = solver.SolverConfig(
        variant=args.variant,
        alpha=args.alpha,
        relaxation=args.relaxation,
        max_iters=args.iters,
        tol=args.tol,
    )
    trace = solver.run(problem, config)
    if args.trace:
        trace.to_csv(args.trace)
    summary = trace.to_json_dict()
    del summary["final_z"]
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


def _cmd_rates(args) -> int:
    alpha_max = args.alpha_max if args.alpha_max is not None else 1.0 / args.s
    alphas = np.linspace(alpha_max / args.steps, alpha_max, args.steps)
    rows = analysis.rate_table(args.s, args.sigma, args.rho, alphas)
    analysis.write_rate_table_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_certify(args) -> int:
    checks = analysis.certify(args.pairs, args.seed)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("exp1", help="ill-conditioned benchmark (sigma/s = 15.96, rho = s)")
    _add_experiment_flags(p1, experiment.EXP1)

    p2 = sub.add_parser("exp2", help="moderate benchmark (sigma/s = 5.44, rho = s/2)")
    _add_experiment_flags(p2, experiment.EXP2)

    ps = sub.add_parser("solve", help="solve one serialized instance")
    ps.add_argument("--instance", required=True, help="instance JSON file")
    ps.add_argument("--variant", required=True, choices=solver.VARIANTS)
    ps.add_argument("--alpha", type=float, default=None)
    ps.add_argument("--lambda", dest="relaxation", type=float, default=0.5)
    ps.add_argument("--iters", type=_count(0), default=5000)
    ps.add_argument("--tol", type=float, default=0.0)
    ps.add_argument("--trace", default=None, help="write the per-iteration trace CSV here")
    ps.set_defaults(func=_cmd_solve)

    pr = sub.add_parser("rates", help="emit contraction-rate tables as CSV")
    pr.add_argument("--s", type=float, required=True, help="strong convexity of the smooth term")
    pr.add_argument("--sigma", type=float, required=True, help="gradient Lipschitz constant")
    pr.add_argument("--rho", type=float, required=True, help="weak-convexity modulus of the penalty")
    pr.add_argument("--alpha-max", type=float, default=None, help="grid upper end (default 1/s)")
    pr.add_argument("--steps", type=_count(1), default=50)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_rates)

    pc = sub.add_parser("certify", help="empirical Lipschitz checks; nonzero exit on violation")
    pc.add_argument("--pairs", type=_count(1), default=1000)
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
