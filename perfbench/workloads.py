"""The three benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the workload seed (``prepare``), runs one
pass through drsplit's public entry points (``run_pass``) and checks that
pass's outputs (``check``).  A pass is a fixed sequence of timed parts (one
experiment, one solve, one certify call); it reports each part's key and
seconds to ``on_part`` as soon as the part ends, calls ``tick`` at points
inside long parts where the host speed may be sampled, and returns its
outputs.
Checks return the number of operations attempted and a list of failure
messages, one per failed operation.

* ``exp-gate``: ``run_experiment`` on EXP2 then EXP1, the acceptance gate's
  study.  An operation is one seed of one experiment.
* ``solve-tol``: ``drsplit solve`` through ``cli.main`` on fresh EXP2
  instances, every variant, to a step-norm tolerance, with a trace CSV.  An
  operation is one solve.
* ``certify``: ``drsplit certify`` through ``cli.main``.  An operation is one
  of its five checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time
from pathlib import Path

import numpy as np

from drsplit import cli, experiment, solver

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def _call_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Workload:
    """Defaults: inputs are the seed itself, no pinned results, no experiment."""

    def prepare(self, seed: int, workdir: Path):
        return seed

    def pins_for(self, seed: int, outputs):
        return None

    def useful_iterations(self, outputs) -> int:
        return 0


class ExpGate(Workload):
    name = "exp-gate"
    PART = "experiment"
    # Seeds per experiment.  Every seed runs 2 x 5000 DR iterations, but the
    # ISTA runs stop early at an exact fixed point on about 1 seed in 12 of
    # EXP2 and 1 in 3 of EXP1, which halves that seed's cost; 6 seeds each
    # average this over 12 seeds a pass.
    SEEDS_PER_SPEC = 6
    SPECS = (("EXP2", experiment.EXP2), ("EXP1", experiment.EXP1))

    def run_pass(self, master_seed, on_part, tick):
        # An experiment call runs for 10-20 s; run_experiment builds each
        # seed's instance through this module-level name, which gives a
        # point between seeds to sample the host speed.
        build = experiment.build_instance

        def build_after_tick(*args, **kwargs):
            tick()
            return build(*args, **kwargs)

        reports = {}
        experiment.build_instance = build_after_tick
        try:
            for name, spec in self.SPECS:
                spec = dataclasses.replace(spec, n_seeds=self.SEEDS_PER_SPEC)
                t0 = time.perf_counter()
                reports[name] = experiment.run_experiment(spec, master_seed=master_seed)
                on_part(name, time.perf_counter() - t0)
        finally:
            experiment.build_instance = build
        return reports

    def pins_for(self, seed: int, reports) -> dict:
        """Pinned iterations-to-threshold for this seed, else those of ``reports``."""
        pinned = load_pins().get(self.name, {}).get(str(seed))
        return pinned if pinned is not None else iterations_by_seed(reports)

    def check(self, reports, pinned) -> tuple[int, list[str]]:
        return check_experiments(reports, pinned)

    def useful_iterations(self, reports) -> int:
        return sum(
            iters
            for report in reports.values()
            for r in report.results
            for variant, iters in r.iterations_to_threshold.items()
            if variant != "ista" and iters is not None
        )


def iterations_by_seed(reports) -> dict:
    return {
        name: {str(r.seed): dict(r.iterations_to_threshold) for r in report.results}
        for name, report in reports.items()
    }


def check_experiments(reports, pinned) -> tuple[int, list[str]]:
    """Per seed: not failed, every DR variant reaches the threshold, final
    distances within it, DR final costs equal to ISTA's to 1e-9 relative, and
    iterations-to-threshold equal to the pinned integers."""
    attempted, failures = 0, []
    for name, report in reports.items():
        threshold = report.spec.dist_threshold
        expected = pinned.get(name, {})
        for r in report.results:
            attempted += 1
            where = f"{name} seed {r.seed}"
            its = r.iterations_to_threshold
            if r.failed is not None:
                failures.append(f"{where}: failed: {r.failed}")
            elif set(its) != {"ista", *report.spec.variants}:
                failures.append(f"{where}: variants {sorted(its)}")
            elif any(its[v] is None for v in report.spec.variants):
                failures.append(f"{where}: a DR variant never reached {threshold:g}: {its}")
            elif any(not d <= threshold for d in r.final_dist.values()):
                failures.append(f"{where}: final_dist above {threshold:g}: {r.final_dist}")
            elif any(
                abs(r.final_cost[v] - r.final_cost["ista"]) > 1e-9 * abs(r.final_cost["ista"])
                for v in report.spec.variants
            ):
                failures.append(f"{where}: DR final cost differs from ISTA's: {r.final_cost}")
            elif expected.get(str(r.seed)) != its:
                failures.append(f"{where}: iterations_to_threshold {its} != pinned {expected.get(str(r.seed))}")
    return attempted, failures


class SolveTol(Workload):
    name = "solve-tol"
    PART = "solve"
    INSTANCES = 40
    TOL = 1e-9
    MAX_FP_RESIDUAL = 1e-8
    AGREEMENT = 1e-6

    def prepare(self, seed: int, workdir: Path):
        paths = []
        for i, s in enumerate(experiment.derive_seeds(seed, self.INSTANCES)):
            path = workdir / f"instance_{i:03d}.json"
            experiment.build_instance(experiment.EXP2, s).save(path)
            paths.append(path)
        return paths

    def run_pass(self, paths, on_part, tick):
        outputs = []
        for path in paths:
            for variant in solver.VARIANTS:
                csv = path.with_name(f"{path.stem}.{variant}.csv")
                argv = ["solve", "--instance", str(path), "--variant", variant, "--tol", repr(self.TOL), "--trace", str(csv)]
                t0 = time.perf_counter()
                rc, text = _call_cli(argv)
                on_part((path.stem, variant), time.perf_counter() - t0)
                outputs.append((path.stem, variant, rc, text, csv))
        return outputs

    def check(self, outputs, pinned) -> tuple[int, list[str]]:
        return check_solves([read_solve(*o) for o in outputs], self.MAX_FP_RESIDUAL, self.AGREEMENT)


def read_solve(instance, variant, rc, text, csv) -> dict:
    record = {"instance": instance, "variant": variant, "rc": rc, "summary": None, "rows": 0, "fp_residual": None}
    if rc == 0:
        record["summary"] = json.loads(text)
        lines = Path(csv).read_text().splitlines()
        record["rows"] = len(lines) - 1
        record["fp_residual"] = float(lines[-1].split(",")[3])
    return record


def check_solves(records, max_fp_residual: float, agreement: float) -> tuple[int, list[str]]:
    """Every solve exits 0 and converges, its CSV has iterations + 1 rows,
    its final fixed-point residual is at most ``max_fp_residual``, and the
    final points of one instance agree within ``agreement``."""
    failures = []
    final_x: dict[str, list] = {}
    for r in records:
        where = f"{r['instance']} {r['variant']}"
        s = r["summary"]
        if r["rc"] != 0 or s is None:
            failures.append(f"{where}: exit code {r['rc']}")
            continue
        if not s["converged"]:
            failures.append(f"{where}: not converged after {s['iterations']} iterations")
        elif r["rows"] != s["iterations"] + 1:
            failures.append(f"{where}: {r['rows']} trace rows for {s['iterations']} iterations")
        elif not r["fp_residual"] <= max_fp_residual:
            failures.append(f"{where}: final fp_residual {r['fp_residual']:.3g} > {max_fp_residual:g}")
        else:
            final_x.setdefault(r["instance"], []).append((r["variant"], np.asarray(s["final_x"])))
    for instance, points in final_x.items():
        _, first = points[0]
        for variant, x in points[1:]:
            gap = float(np.max(np.abs(x - first)))
            if not gap <= agreement:
                failures.append(f"{instance} {variant}: final_x differs by {gap:.3g} from {points[0][0]}")
    return len(records), failures


class Certify(Workload):
    name = "certify"
    PART = "certify"
    PAIRS = 1000
    CHECKS = 5

    def run_pass(self, seed, on_part, tick):
        t0 = time.perf_counter()
        rc, text = _call_cli(["certify", "--pairs", str(self.PAIRS), "--seed", str(seed)])
        on_part("certify", time.perf_counter() - t0)
        return rc, text

    def check(self, outputs, pinned) -> tuple[int, list[str]]:
        return check_certify(*outputs, self.CHECKS)


def check_certify(rc: int, text: str, checks: int) -> tuple[int, list[str]]:
    """Exit code 0 and ``checks`` PASS lines.  Each FAIL line is one failed
    check; malformed output fails every check."""
    lines = text.splitlines()
    failed = [line for line in lines if not line.startswith("PASS ")]
    if len(lines) != checks or (rc != 0 and not failed):
        return checks, [f"exit code {rc} with {len(lines)} lines of output"] * checks
    return checks, failed


WORKLOADS = {w.name: w for w in (ExpGate(), SolveTol(), Certify())}
