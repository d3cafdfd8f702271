"""Sparse-deconvolution benchmark: instance generation and experiment runners.

An instance observes y = H x + u where H is a tall full-convolution matrix
built from a geometric filter tuned to a target Gram condition ratio
sigma/s, x is sparse, and u is white Gaussian noise at a prescribed SNR.
The penalty weight follows tau = 3 * rho * std(u) with rho a fixed fraction
of the strong convexity s.

Two stock configurations are provided: ``EXP1`` (ratio 15.96, rho = s) and
``EXP2`` (ratio 5.44, rho = s/2).  ``run_experiment`` solves every seeded
instance with an unaudited ISTA reference (10k iterations) plus ISTA and
the configured DR variants at 0.99x their step bounds, and reports
iterations-to-threshold of the distance to the reference minimizer.  Each
of these traced runs stops at the first iterate within the distance
threshold, so its final cost, final distance and trace CSV end at that
threshold-crossing row.

The seeds of one spec share the operator H, one ``LinearMap`` per filter
design, cached with the design; only y and tau differ.  So
``run_experiment`` solves up to BLOCK_SEEDS seeds at a time as one block
problem (``block_problem``) through the same ``solver.run``, and each seed's
numbers and files are byte-identical to those of a run on that seed alone.
A block that diverges is solved again as one-seed blocks, so one bad seed
fails alone.  A seed's files are written once its block has finished, and a
failed seed writes none.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import statistics
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DivergenceError, FilterDesignError
from .linalg import LinearMap, convolution_matrix
from .penalty import FirmPenalty, QuadraticPlusPenalty, SeparablePenalty
from .smooth import QuadraticTerm, SubspaceConstraint, support_mask
from .solver import Problem, SolverConfig, default_alpha, run

logger = logging.getLogger(__name__)

# Most seeds solved as one block.  A block run's trace columns hold a row per
# iteration for each of its seeds, kept until the block has written its
# seeds' files; the unaudited reference writes one 10k-row column (8 B per
# row and seed) and the traced runs only the rows up to their threshold
# crossing.  With run_experiment at 20 seeds into an out_dir, the stock specs
# peaked at 61.5-61.7 MB at one seed per block, 62.0-62.9 MB at 10 and
# 61.5-61.8 MB at 20 (OPENBLAS_NUM_THREADS=1, x86-64).  run()'s audit calls
# take at most solver.AUDIT_POINTS points, so their temporaries do not grow
# with the block.
BLOCK_SEEDS = 10


def generate_sparse_signal(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-sparse signal: uniform support, signed amplitudes in [1, 2]."""
    if k < 0 or k > n:
        raise ValueError(f"sparsity k must lie in [0, {n}], got {k}")
    x = np.zeros(n)
    if k == 0:
        return x
    positions = rng.choice(n, size=k, replace=False)
    signs = rng.choice([-1.0, 1.0], size=k)
    x[positions] = signs * rng.uniform(1.0, 2.0, size=k)
    return x


def add_noise_snr(clean, snr_db: float, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Add white Gaussian noise with std set so that
    10*log10(mean(clean^2)/var(u)) = snr_db.  Returns (noisy, std)."""
    clean = np.asarray(clean, dtype=float)
    power = float(np.mean(clean**2))
    if power == 0.0:
        raise ValueError("clean signal is identically zero; SNR undefined")
    std = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    return clean + rng.normal(0.0, std, size=clean.size), std


def _condition_ratio(a: float, length: int, signal_len: int) -> float:
    taps = a ** np.arange(length)
    s, sigma = LinearMap(convolution_matrix(taps, signal_len)).gram_extremes()
    return sigma / s


@lru_cache(maxsize=None)
def _design_filter_cached(target_ratio: float, length: int, signal_len: int, tol: float) -> tuple[tuple, LinearMap]:
    """The bisected taps of one filter design and their convolution operator."""
    if target_ratio <= 1.0:
        raise ValueError(f"target_ratio must exceed 1, got {target_ratio}")
    lo, hi = 1e-4, 0.95
    r_lo = _condition_ratio(lo, length, signal_len)
    r_hi = _condition_ratio(hi, length, signal_len)
    if not r_lo <= target_ratio <= r_hi:
        raise FilterDesignError(
            f"target ratio {target_ratio:.6g} outside achievable range "
            f"[{r_lo:.6g}, {r_hi:.6g}] for length-{length} filters"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = _condition_ratio(mid, length, signal_len)
        if abs(r - target_ratio) <= tol * target_ratio:
            taps = tuple(mid ** np.arange(length))
            return taps, LinearMap(convolution_matrix(taps, signal_len))
        if r < target_ratio:
            lo = mid
        else:
            hi = mid
    raise FilterDesignError(f"bisection failed to reach ratio {target_ratio:.6g} within tolerance {tol}")


def design_filter(target_ratio: float, length: int = 31, signal_len: int = 90, tol: float = 0.02) -> np.ndarray:
    """Geometric filter (1, a, a^2, ...) with a bisected so the Gram condition
    ratio of the induced tall convolution matrix matches target_ratio."""
    return np.array(_design_filter_cached(float(target_ratio), int(length), int(signal_len), float(tol))[0])


@dataclass(frozen=True)
class ExperimentSpec:
    """Recipe for one benchmark family."""

    target_ratio: float
    rho_rule: float                      # rho = rho_rule * s
    sparsity: int = 9
    n_seeds: int = 20
    variants: tuple[str, ...] = ("dr-main-fg", "dr-shift-fg")
    alpha_fraction: float = 0.99
    signal_len: int = 90
    filter_len: int = 31
    snr_db: float = 10.0
    relaxation: float = 0.5
    max_iters: int = 5000
    dist_threshold: float = 1e-6
    ratio_tol: float = 0.02
    reference_iters: int = 10000


EXP1 = ExperimentSpec(target_ratio=15.96, rho_rule=1.0)
EXP2 = ExperimentSpec(target_ratio=5.44, rho_rule=0.5)


@dataclass(frozen=True)
class ProblemInstance:
    """One deconvolution instance; serializes to JSON losslessly."""

    operator: LinearMap
    filter_taps: tuple[float, ...]
    ground_truth: np.ndarray
    y: np.ndarray
    noise_std: float
    penalty: FirmPenalty
    seed: int

    def problem(self) -> Problem:
        return Problem(QuadraticTerm(self.operator, self.y), self.penalty)

    def condition_ratio(self) -> float:
        s, sigma = self.operator.gram_extremes()
        return sigma / s

    def to_json_dict(self) -> dict:
        return {
            "filter": [float(t) for t in self.filter_taps],
            "signal": [float(v) for v in self.ground_truth],
            "y": [float(v) for v in self.y],
            "noise_std": self.noise_std,
            "seed": self.seed,
            "penalty": {"tau": self.penalty.tau, "rho": self.penalty.rho},
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProblemInstance":
        taps = tuple(float(t) for t in data["filter"])
        signal = np.asarray(data["signal"], dtype=float)
        return cls(
            operator=LinearMap(convolution_matrix(taps, signal.size)),
            filter_taps=taps,
            ground_truth=signal,
            y=np.asarray(data["y"], dtype=float),
            noise_std=float(data["noise_std"]),
            penalty=FirmPenalty(float(data["penalty"]["tau"]), float(data["penalty"]["rho"])),
            seed=int(data["seed"]),
        )

    @classmethod
    def load(cls, path) -> "ProblemInstance":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _operator(spec: ExperimentSpec) -> LinearMap:
    """spec's filter operator: one object per design, so HᵀH and (s, sigma) are computed once."""
    return _design_filter_cached(spec.target_ratio, spec.filter_len, spec.signal_len, spec.ratio_tol)[1]


def build_instance(spec: ExperimentSpec, seed: int) -> ProblemInstance:
    """Assemble one seeded instance of the experiment recipe (deterministic in
    seed).  Every seed of the spec shares the one operator of its filter."""
    taps = design_filter(spec.target_ratio, spec.filter_len, spec.signal_len, spec.ratio_tol)
    operator = _operator(spec)
    s, _ = operator.gram_extremes()
    rng = np.random.default_rng(seed)
    x = generate_sparse_signal(spec.signal_len, spec.sparsity, rng)
    clean = operator.apply(x)
    y, std = add_noise_snr(clean, spec.snr_db, rng)
    rho = spec.rho_rule * s
    tau = 3.0 * rho * std
    return ProblemInstance(
        operator=operator,
        filter_taps=tuple(float(t) for t in taps),
        ground_truth=x,
        y=y,
        noise_std=std,
        penalty=FirmPenalty(tau, rho),
        seed=seed,
    )


def block_problem(instances) -> Problem:
    """One block problem over instances that share their filter and rho:
    the observations stacked to (B, m), the weights tau to a (B, 1) column."""
    first = instances[0]
    for inst in instances[1:]:
        if inst.filter_taps != first.filter_taps or inst.penalty.rho != first.penalty.rho:
            raise ValueError(f"seed {inst.seed} does not share the filter and rho of seed {first.seed}")
    return Problem(
        QuadraticTerm(first.operator, np.stack([inst.y for inst in instances])),
        FirmPenalty(np.array([[inst.penalty.tau] for inst in instances]), first.penalty.rho),
    )


def build_subspace_demo(y, support, penalty: SeparablePenalty) -> tuple[Problem, np.ndarray]:
    """Constrained problem min 0.5||y - x||^2 + i_K(x) + phi(x) split for the
    shifted variants as f = i_K, g = 0.5||y - x||^2 + phi.

    Returns the problem together with its separable closed-form solution:
    the unit-step prox of phi applied to y on the support, zero elsewhere
    (requires phi.modulus < 1).
    """
    y = np.asarray(y, dtype=float)
    prob = Problem(SubspaceConstraint(y.size, support), QuadraticPlusPenalty(y, penalty))
    mask = support_mask(y.size, support)
    oracle = np.where(mask, penalty.prox(y, 1.0), 0.0)
    return prob, oracle


def derive_seeds(master_seed: int, n: int) -> list[int]:
    """n per-instance integer seeds derived deterministically from the master seed."""
    return [int(v) for v in np.random.SeedSequence(master_seed).generate_state(n)]


def _as_inf(v) -> float:
    return math.inf if v is None else float(v)


@dataclass(frozen=True)
class SeedResult:
    seed: int
    iterations_to_threshold: dict
    final_cost: dict
    final_dist: dict
    failed: str | None = None

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    master_seed: int
    achieved_ratio: float
    results: tuple[SeedResult, ...]

    def ok_results(self) -> list[SeedResult]:
        return [r for r in self.results if r.failed is None]

    def median_iterations(self) -> dict:
        out = {}
        names = set()
        for r in self.ok_results():
            names.update(r.iterations_to_threshold)
        for name in sorted(names):
            reached = [
                r.iterations_to_threshold[name]
                for r in self.ok_results()
                if r.iterations_to_threshold.get(name) is not None
            ]
            out[name] = statistics.median(reached) if reached else None
        return out

    def count_first_faster(self, first: str = "dr-main-fg", second: str = "dr-shift-fg") -> tuple[int, int]:
        """(#seeds where `first` hits the threshold strictly earlier, #seeds compared)."""
        wins = total = 0
        for r in self.ok_results():
            it = r.iterations_to_threshold
            if first in it and second in it:
                total += 1
                wins += _as_inf(it[first]) < _as_inf(it[second])
        return wins, total

    def dr_beats_ista_every_seed(self) -> bool:
        ok = self.ok_results()
        if not ok:
            return False
        for r in ok:
            ista = _as_inf(r.iterations_to_threshold.get("ista"))
            for name, iters in r.iterations_to_threshold.items():
                if name != "ista" and not _as_inf(iters) < ista:
                    return False
        return True

    def to_json_dict(self) -> dict:
        wins, total = self.count_first_faster()
        return {
            "spec": dataclasses.asdict(self.spec),
            "master_seed": self.master_seed,
            "achieved_ratio": self.achieved_ratio,
            "seeds": [r.to_json_dict() for r in self.results],
            "aggregate": {
                "median_iterations_to_threshold": self.median_iterations(),
                "main_faster_count": wins,
                "seeds_compared": total,
                "dr_beats_ista_every_seed": self.dr_beats_ista_every_seed(),
                "failed_seeds": len(self.results) - len(self.ok_results()),
            },
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def _solve(instances, spec: ExperimentSpec) -> list[tuple[SeedResult, dict]]:
    """Solve instances that share their operator as one block: the ISTA
    reference, unaudited, then ISTA and every DR variant against it, each
    row stopping at the first iterate within spec.dist_threshold.

    Returns one (SeedResult, traces) pair per instance, traces mapping each
    run's name to that seed's row trace.  A block that diverges is solved
    again as one-seed blocks, so the seeds that do converge still complete;
    a seed that diverges alone gets a failed SeedResult and no traces.
    """
    problem = block_problem(instances)
    try:
        x_ref = run(problem, SolverConfig("ista", max_iters=spec.reference_iters, audit=False)).final_x
        ista = SolverConfig(
            "ista", max_iters=spec.reference_iters, record_reference=x_ref, stop_dist=spec.dist_threshold
        )
        dr = [
            dataclasses.replace(
                ista,
                variant=variant,
                alpha=default_alpha(problem, variant, spec.alpha_fraction),
                relaxation=spec.relaxation,
                max_iters=spec.max_iters,
            )
            for variant in spec.variants
        ]
        rows = {config.variant: run(problem, config).split() for config in [ista, *dr]}
    except DivergenceError as exc:
        if len(instances) > 1:
            logger.info("a block of %d seeds diverged (%s); solving them one at a time", len(instances), exc)
            return [solved for inst in instances for solved in _solve([inst], spec)]
        logger.warning("seed %d aborted: %s", instances[0].seed, exc)
        return [(SeedResult(instances[0].seed, {}, {}, {}, failed=str(exc)), {})]
    seed_traces = [dict(zip(rows, seed_rows)) for seed_rows in zip(*rows.values())]
    return [
        (SeedResult(
            inst.seed,
            iterations_to_threshold={k: t.iterations_to(spec.dist_threshold) for k, t in traces.items()},
            final_cost={k: t.final_cost for k, t in traces.items()},
            final_dist={k: float(t.dist_to_ref[-1]) for k, t in traces.items()},
        ), traces)
        for inst, traces in zip(instances, seed_traces)
    ]


def run_experiment(spec: ExperimentSpec, master_seed: int = 0, out_dir=None) -> ExperimentReport:
    """Run every seeded instance of the experiment recipe and aggregate the results.

    Seeds are solved in blocks of at most BLOCK_SEEDS (``_solve``), each with
    the same results as alone.  A run that crosses spec.dist_threshold stops
    there, so its final_cost, final_dist and trace CSV are those of the
    crossing iterate; one that never crosses runs to its iteration limit.  A
    diverging seed is aborted with a logged diagnostic; the remaining seeds
    still run, and the aggregate counts the failed seeds.  achieved_ratio is
    sigma/s of the operator every seed shares, so a run without seeds reports
    it too.  With out_dir, each seed's instance and trace CSVs are written
    there once its block has finished (a failed seed writes nothing), and
    then the aggregate report.
    """
    out_path = None if out_dir is None else Path(out_dir)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    s, sigma = _operator(spec).gram_extremes()
    seeds = derive_seeds(master_seed, spec.n_seeds)
    results = []
    for start in range(0, len(seeds), BLOCK_SEEDS):
        instances = [build_instance(spec, seed) for seed in seeds[start : start + BLOCK_SEEDS]]
        for idx, (inst, (result, traces)) in enumerate(zip(instances, _solve(instances, spec)), start):
            results.append(result)
            if out_path is None or result.failed is not None:
                continue
            seed_dir = out_path / f"seed_{idx:03d}"
            seed_dir.mkdir(exist_ok=True)
            inst.save(seed_dir / "instance.json")
            for name, trace in traces.items():
                trace.to_csv(seed_dir / f"{name}.csv")

    report = ExperimentReport(spec, master_seed, achieved_ratio=sigma / s, results=tuple(results))
    if out_path is not None:
        report.save(out_path / "report.json")
    return report
