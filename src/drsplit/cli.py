"""Command-line interface: benchmark runners, one-off solves, rate tables,
and empirical certification of the contraction bounds."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import analysis, experiment, solver
from .errors import DivergenceError, NonConvexShiftError, StepSizeError


def _checked(kind, ok, rule: str):
    """argparse type: a ``kind`` value for which ``ok`` holds; ``rule`` says
    what it must do.  A float must also be finite."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {value}")
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def _count(minimum: int):
    return _checked(int, lambda v: v >= minimum, f"be >= {minimum}")


_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_positive = _checked(float, lambda v: v > 0.0, "be > 0")
_nonnegative = _checked(float, lambda v: v >= 0.0, "be >= 0")


# exp1/exp2 flags: (flag, the ExperimentSpec field it sets and defaults to, type, help).
SPEC_FLAGS = (
    ("--seeds", "n_seeds", _count(0), "number of seeded instances"),
    ("--alpha-frac", "alpha_fraction", _fraction, "fraction of each variant's step bound, in (0,1)"),
    ("--lambda", "relaxation", _fraction, "relaxation weight in (0,1)"),
    ("--iters", "max_iters", _count(0), "max DR iterations per run"),
)


def _add_experiment_flags(p: argparse.ArgumentParser, spec: experiment.ExperimentSpec) -> None:
    for flag, name, kind, help_text in SPEC_FLAGS:
        p.add_argument(flag, dest=name, type=kind, default=getattr(spec, name), help=help_text)
    p.add_argument("--master-seed", type=_count(0), default=0)
    p.add_argument("--out-dir", default=None, help="directory for instances, traces, and report.json")
    p.set_defaults(func=lambda a: _run_experiment(spec, a))


def _run_experiment(base: experiment.ExperimentSpec, args) -> int:
    spec = dataclasses.replace(base, **{name: getattr(args, name) for _, name, _, _ in SPEC_FLAGS})
    report = experiment.run_experiment(spec, master_seed=args.master_seed, out_dir=args.out_dir)
    json.dump(report.to_json_dict()["aggregate"], sys.stdout, indent=2)
    print()
    return 0


def _cmd_solve(args) -> int:
    try:  # an unreadable or malformed file is a usage error; run() is not wrapped
        problem = experiment.ProblemInstance.load(args.instance).problem()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        cause = f"missing key {exc}" if isinstance(exc, KeyError) else getattr(exc, "strerror", None) or exc
        raise argparse.ArgumentTypeError(f"--instance {args.instance}: {cause}") from exc
    config = solver.SolverConfig(
        variant=args.variant,
        alpha=args.alpha,
        relaxation=args.relaxation,
        max_iters=args.iters,
        tol=args.tol,
        audit=args.trace is not None,
    )
    trace = solver.run(problem, config)
    if args.trace:
        trace.to_csv(args.trace)
    json.dump(trace.to_json_dict(), sys.stdout, indent=2)
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
    ps.add_argument("--alpha", type=_positive, default=None)
    ps.add_argument("--lambda", dest="relaxation", type=_fraction, default=0.5)
    ps.add_argument("--iters", type=_count(0), default=5000)
    ps.add_argument("--tol", type=_nonnegative, default=0.0)
    ps.add_argument("--trace", default=None, help="write the per-iteration trace CSV here")
    ps.set_defaults(func=_cmd_solve)

    pr = sub.add_parser("rates", help="emit contraction-rate tables as CSV")
    pr.add_argument("--s", type=_positive, required=True, help="strong convexity of the smooth term")
    pr.add_argument("--sigma", type=_positive, required=True, help="gradient Lipschitz constant, >= s")
    pr.add_argument("--rho", type=_nonnegative, required=True, help="weak-convexity modulus of the penalty")
    pr.add_argument("--alpha-max", type=_positive, default=None, help="grid upper end (default 1/s)")
    pr.add_argument("--steps", type=_count(1), default=50)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_rates)

    pc = sub.add_parser("certify", help="empirical Lipschitz checks; nonzero exit on violation")
    pc.add_argument("--pairs", type=_count(1), default=1000)
    pc.add_argument("--seed", type=_count(0), default=0)
    pc.set_defaults(func=_cmd_certify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses: built on its first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "rates" and args.sigma < args.s:
        parser.error(f"rates needs --sigma >= --s, got --sigma {args.sigma} and --s {args.s}")
    try:
        return args.func(args)
    except (StepSizeError, NonConvexShiftError, argparse.ArgumentTypeError) as exc:  # checks that need the loaded instance
        parser.error(str(exc))
    except (DivergenceError, OSError) as exc:  # a diverged run, or an output path not writable
        print(f"drsplit {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
