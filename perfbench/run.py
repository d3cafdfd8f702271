"""drsplit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload exp-gate --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports drsplit from ``src/`` and
exits with code 2 when the sources are not there.  Workloads are closed
loops with one caller in one process, with BLAS pinned to one thread.  With
``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it adds per-call timings of single layers and one pass
with span hooks on drsplit's public entry points, and reports the
per-layer metrics.  Every pass's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Host-speed kernel samples: at most one a second, so the 50 ms kernel takes
# about 5% of a run.
KERNEL_INTERVAL_S = 1.0

# Set-up as a user pays it: a fresh interpreter imports drsplit and builds
# its first EXP1 and EXP2 instances, which runs the filter-design bisection.
# The host-speed kernel runs afterwards in the same interpreter.
SETUP_CODE = """
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import drsplit
from drsplit import experiment
experiment.build_instance(experiment.EXP1, 0)
experiment.build_instance(experiment.EXP2, 0)
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import hostspeed
kernel = statistics.median(hostspeed.kernel_seconds() for _ in range(3))
print(seconds, kernel, drsplit.__file__)
"""


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """The q-th percentile of samples, refused (ValueError) unless at least
    ``min_beyond`` samples lie beyond it."""
    n = len(samples)
    beyond = n * (100.0 - q) / 100.0
    if beyond < min_beyond:
        raise ValueError(f"p{q:g} of {n} samples has {beyond:g} beyond it; need {min_beyond}")
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q) - 1]


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup(repeats: int) -> float:
    """Median of ``repeats`` cold set-ups, each in a fresh interpreter, in
    seconds at quiet-host speed."""
    from hostspeed import scale

    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, kernel, module = done.stdout.split()
        if not _from_src(module):
            raise RuntimeError(f"set-up imported drsplit from {module}, not from {SRC}")
        times.append(scale(float(seconds), float(kernel)))
    return statistics.median(times)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    declared = bench["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "drsplit" / "__init__.py").is_file():
        print(f"perfbench: no drsplit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    values = {} if args.trace else {"setup_s": measure_setup(SETUP_REPEATS)}

    import drsplit

    if not _from_src(drsplit.__file__):
        print(f"perfbench: drsplit imported from {drsplit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import layers
    import micro
    from drsplit import experiment
    from hostspeed import SpeedLog
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rec = SpanRecorder() if args.trace else None
    # In-process set-up; traced runs record its filter design as a cold cost.
    with layers.Hooks(rec) if rec else contextlib.nullcontext() as hooks:
        experiment.build_instance(experiment.EXP1, 0)
        experiment.build_instance(experiment.EXP2, 0)
    absent = hooks.absent if rec else []

    WORK.mkdir(exist_ok=True)
    speed = SpeedLog(KERNEL_INTERVAL_S)
    parts = []  # (pass index, key, end time, seconds)
    attempted, failures, traced_pass = 0, [], None

    def on_part(key, seconds):
        parts.append((n_pass, key, time.perf_counter(), seconds))
        speed.sample_if_due()

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs = workload.prepare(args.seed, Path(tmp))
        if rec:
            values.update(micro.measure(Path(tmp)))
        pinned = None
        speed.sample()
        deadline = time.perf_counter() + args.seconds
        n_pass = 0
        while True:
            t0 = time.perf_counter()
            if rec and traced_pass is None and n_pass:
                traced_pass = n_pass
                rec.run_id = n_pass
                # No samples inside traced parts: they would land in spans.
                with layers.Hooks(rec):
                    outputs = workload.run_pass(inputs, on_part, lambda: None)
                rec.run_id = -1
                traced_outputs = outputs
            else:
                outputs = workload.run_pass(inputs, on_part, speed.sample_if_due)
            last = time.perf_counter() - t0
            if pinned is None:
                pinned = workload.pins_for(args.seed, outputs)
            n, failed = workload.check(outputs, pinned)
            attempted += n
            failures += failed
            n_pass += 1
            # Start no pass that would end after the deadline.
            if time.perf_counter() + last > deadline and (rec is None or traced_pass is not None):
                break
        speed.sample()

    raw, scaled = [0.0] * n_pass, [0.0] * n_pass
    latencies = []
    for i, _, end, seconds in parts:
        part_raw, part_scaled = speed.scaled(end, seconds)
        raw[i] += part_raw
        scaled[i] += part_scaled
        if i != traced_pass:
            latencies.append(part_raw)
    untraced = [i for i in range(n_pass) if i != traced_pass]
    wall_s = statistics.median(scaled[i] for i in untraced)
    if rec:
        useful = workload.useful_iterations(traced_outputs)
        values.update(layers.layer_metrics(rec, absent, raw[traced_pass], useful))
        values["trace.overhead_ratio"] = scaled[traced_pass] / wall_s - 1.0
        rec.save(WORK / f"spans-{args.workload}.npz")
    else:
        values["wall_s"] = wall_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} traced pass={traced_pass}")
    print("  pass seconds  " + " ".join(f"{t:.3f}" for t in raw))
    print("  at quiet host " + " ".join(f"{t:.3f}" for t in scaled))
    print("env " + json.dumps(environment()))
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:34s} {values[m['name']]:.6g} {m['unit']}")
        else:
            print(f"  {m['name']:34s} absent", file=sys.stderr)
    for q in (50, 90):
        try:
            shown = f"{1e3 * percentile(latencies, q):.4g} ms"
        except ValueError as exc:
            shown = f"refused: {exc}"
        print(f"  {workload.PART}_p{q}_ms {shown} (n={len(latencies)})")
    print(f"  failed_ratio {len(failures)}/{attempted} = {len(failures) / attempted:g}")
    for message in failures[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    if absent:
        print(f"perfbench: hooks absent: {', '.join(absent)}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
