"""Span hooks on drsplit's public entry points and the per-layer metrics
derived from one traced pass.

Hooks are installed from the benchmark's side by replacing the public
functions and methods with span-recording wrappers, and removed again after
the traced pass; the library itself is not edited.  A hooked name that no
longer exists is reported as absent, and every metric computed from it is
left out instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import weakref

import numpy as np

from spans import SpanRecorder, summarize


def _tag_solver_run(rec: SpanRecorder, fn):
    """Tag each solver run with its experiment phase and iteration count."""

    def run(problem, config, *args, **kwargs):
        idx = rec.current()
        trace = fn(problem, config, *args, **kwargs)
        if config.variant != "ista":
            phase = "dr"
        elif config.record_reference is None:
            phase = "reference"
        else:
            phase = "ista_trace"
        rec.tags[idx] = {"phase": phase, "iterations": trace.n_iters}
        rec.count("solver.iterations", trace.n_iters)
        return trace

    return run


def _trace_operator(rec: SpanRecorder, fn):
    """Also record a span for every application of the returned operator."""

    def double_reflection(*args, **kwargs):
        return rec.wrap("solver.reflection_op", fn(*args, **kwargs))

    return double_reflection


def _count_trace_bytes(rec: SpanRecorder, fn):
    def to_csv(self, path, *args, **kwargs):
        fn(self, path, *args, **kwargs)
        rec.count("solver.trace_bytes", os.path.getsize(path))

    return to_csv


def _count_factor_reuse(rec: SpanRecorder, fn):
    """Count prox calls at a step already used on the same term (factor reuse)."""
    seen = weakref.WeakKeyDictionary()
    signature = inspect.signature(fn)

    def prox(self, *args, **kwargs):
        alpha = signature.bind(self, *args, **kwargs).arguments["alpha"]
        alphas = seen.setdefault(self, set())
        rec.count("smooth.factor_hit" if alpha in alphas else "smooth.factor_miss")
        alphas.add(alpha)
        return fn(self, *args, **kwargs)

    return prox


def _count_operator_evals(rec: SpanRecorder, fn):
    signature = inspect.signature(fn)

    def empirical_lipschitz(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        operator = bound.arguments["operator"]

        def counted(x):
            rec.count("analysis.operator_evals")
            return operator(x)

        bound.arguments["operator"] = counted
        return fn(*bound.args, **bound.kwargs)

    return empirical_lipschitz


# (span name, module, attribute path, extra observation or None)
HOOKS = (
    ("experiment.run", "drsplit.experiment", "run_experiment", None),
    ("experiment.build_instance", "drsplit.experiment", "build_instance", None),
    ("experiment.design_filter", "drsplit.experiment", "design_filter", None),
    ("experiment.load", "drsplit.experiment", "ProblemInstance.load", None),
    ("experiment.save", "drsplit.experiment", "ProblemInstance.save", None),
    ("solver.run", "drsplit.solver", "run", _tag_solver_run),
    ("solver.double_reflection", "drsplit.solver", "double_reflection", _trace_operator),
    ("solver.to_csv", "drsplit.solver", "IterationTrace.to_csv", _count_trace_bytes),
    ("solver.cost", "drsplit.solver", "Problem.cost", None),
    ("solver.fixed_point_residual", "drsplit.solver", "Problem.fixed_point_residual", None),
    ("penalty.prox", "drsplit.penalty", "FirmPenalty.prox", None),
    ("penalty.shifted_prox", "drsplit.penalty", "FirmPenalty.shifted_prox", None),
    ("smooth.prox", "drsplit.smooth", "QuadraticTerm.prox", _count_factor_reuse),
    ("smooth.shifted_prox", "drsplit.smooth", "QuadraticTerm.shifted_prox", None),
    ("smooth.grad", "drsplit.smooth", "QuadraticTerm.grad", None),
    ("smooth.value", "drsplit.smooth", "QuadraticTerm.value", None),
    ("linalg.gram_extremes", "drsplit.linalg", "LinearMap.gram_extremes", None),
    ("analysis.empirical_lipschitz", "drsplit.analysis", "empirical_lipschitz", _count_operator_evals),
    ("cli.main", "drsplit.cli", "main", None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


_MISSING = object()


class Hooks:
    """Context manager that installs HOOKS on a recorder and removes them on exit."""

    def __init__(self, rec: SpanRecorder, hooks=HOOKS):
        self.rec = rec
        self.hooks = hooks
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def __enter__(self):
        for name, module, path, extra in self.hooks:
            try:
                owner, attr, raw = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapped = self.rec.wrap(name, extra(self.rec, fn) if extra else fn)
            self._set(owner, attr, kind(wrapped) if kind else wrapped)
            if inspect.ismodule(owner):
                # Rebind copies made by ``from module import name``.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is not owner and mod_name.split(".")[0] == "drsplit":
                        for other, value in list(vars(mod).items()):
                            if value is raw:
                                self._set(mod, other, wrapped)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False


def _under(rec: SpanRecorder, idx: int, ancestor_id: int) -> bool:
    parent = rec.parent[idx]
    while parent >= 0:
        if rec.name_id[parent] == ancestor_id:
            return True
        parent = rec.parent[parent]
    return False


def layer_metrics(rec: SpanRecorder, absent, pass_s: float, useful_iterations: int) -> dict:
    """Per-layer metrics of the traced pass (run id >= 0) plus set-up spans.

    ``pass_s`` is the traced pass's wall time and ``useful_iterations`` the
    sum of DR iterations-to-threshold the pass's experiments reported.
    """
    stats = summarize(rec, runs=lambda r: r >= 0)
    setup = summarize(rec, runs=lambda r: r < 0)
    counts = rec.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def calls(name):
        return stats.get(name, zero)["calls"]

    def total(name):
        return stats.get(name, zero)["total_s"]

    def layer_self(layer):
        return sum(s["self_s"] for n, s in stats.items() if n.split(".")[0] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    # Experiment phases: spans that ran inside experiment.run.
    phase_s = {"build": 0.0, "reference": 0.0, "ista_trace": 0.0, "dr": 0.0}
    dr_iterations = 0
    exp_id = rec.lookup("experiment.run")
    if exp_id is not None:
        builds = np.flatnonzero(np.frombuffer(rec.name_id, dtype=np.int32) == rec.lookup("experiment.build_instance"))
        for idx in [*rec.tags, *builds.tolist()]:
            if rec.run[idx] < 0 or not _under(rec, idx, exp_id):
                continue
            tag = rec.tags.get(idx)
            phase = tag["phase"] if tag else "build"
            phase_s[phase] += rec.end[idx] - rec.start[idx]
            if phase == "dr":
                dr_iterations += tag["iterations"]
    exp_total = total("experiment.run")

    metrics = {
        "linalg.gram_extremes.calls": (["linalg.gram_extremes"], lambda: calls("linalg.gram_extremes")),
        "penalty.prox.calls": (["penalty.prox"], lambda: calls("penalty.prox")),
        "penalty.self_s": (["penalty.prox", "penalty.shifted_prox"], lambda: layer_self("penalty")),
        "smooth.prox.calls": (["smooth.prox"], lambda: calls("smooth.prox")),
        "smooth.factor_hit_ratio": (
            ["smooth.prox"],
            lambda: ratio(counts["smooth.factor_hit"], counts["smooth.factor_hit"] + counts["smooth.factor_miss"]),
        ),
        "smooth.self_s": (
            ["smooth.prox", "smooth.shifted_prox", "smooth.grad", "smooth.value"],
            lambda: layer_self("smooth"),
        ),
        "solver.self_s": (["solver.run", "solver.double_reflection"], lambda: layer_self("solver")),
        "solver.audit_share": (
            ["solver.run", "solver.cost", "solver.fixed_point_residual"],
            lambda: ratio(total("solver.cost") + total("solver.fixed_point_residual"), total("solver.run")),
        ),
        "solver.run.calls": (["solver.run"], lambda: calls("solver.run")),
        "solver.iterations": (["solver.run"], lambda: counts["solver.iterations"]),
        "solver.useful_iter_ratio": (
            ["solver.run", "experiment.run"],
            lambda: ratio(useful_iterations, dr_iterations),
        ),
        "solver.trace_bytes": (["solver.to_csv"], lambda: counts["solver.trace_bytes"]),
        "experiment.self_s": (["experiment.run", "experiment.build_instance"], lambda: layer_self("experiment")),
        "experiment.design_filter.cold_s": (
            ["experiment.design_filter"],
            lambda: setup.get("experiment.design_filter", zero)["total_s"],
        ),
        "analysis.operator_evals": (["analysis.empirical_lipschitz"], lambda: counts["analysis.operator_evals"]),
        "cli.self_share": (["cli.main"], lambda: ratio(layer_self("cli"), pass_s)),
        "trace.spans": ([], lambda: sum(s["calls"] for s in stats.values())),
    }
    for phase, seconds in phase_s.items():
        metrics[f"experiment.phase.{phase}_share"] = (
            ["experiment.run", "solver.run", "experiment.build_instance"],
            lambda seconds=seconds: ratio(seconds, exp_total),
        )
    return {
        name: compute()
        for name, (needs, compute) in metrics.items()
        if not any(hook in absent for hook in needs)
    }
