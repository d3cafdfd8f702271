"""Sparse-deconvolution benchmark: instance generation and experiment runners.

An instance observes y = H x + u where H is a tall full-convolution matrix
built from a geometric filter tuned to a target Gram condition ratio
sigma/s, x is sparse, and u is white Gaussian noise at a prescribed SNR.
The penalty weight follows tau = 3 * rho * std(u) with rho a fixed fraction
of the strong convexity s.

Two stock configurations are provided: ``EXP1`` (ratio 15.96, rho = s) and
``EXP2`` (ratio 5.44, rho = s/2).  ``run_experiment`` solves every seeded
instance with a certified reference minimizer (``_solve``) plus ISTA and
the configured DR variants at 0.99x their step bounds, and reports
iterations-to-threshold of the distance to the reference minimizer.  The
reference solves the firm penalty's zone system, read off a dr-main-fg run
that stops at the first of 20, 40, 80 or ZONE_STEPS steps where the KKT
certificate holds.  Each traced run (ISTA and the DR variants) stops at the
first iterate within the distance threshold, so its final cost, final
distance and trace CSV end at that threshold-crossing row.  The report reads only the distance column and the
final cost ``run`` takes on each run's final point, so the traced runs audit
each iterate's cost and fixed-point residual only when their CSVs are written.

Every instance of one filter, designed or loaded, shares one cached
``LinearMap`` H, so HᵀH and (s, sigma) are computed once per process; the
seeds of one spec differ only in y and tau.  So
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
from .solver import DR_VARIANTS, Problem, SolverConfig, default_alpha, run

logger = logging.getLogger(__name__)

# Most seeds solved as one block.  A block run's trace columns hold a row per
# iteration for each of its seeds, kept until the block has written its
# seeds' files; the unaudited zone runs write columns of at most ZONE_STEPS
# rows (8 B per row and seed) and the traced runs only the rows up to their
# threshold crossing.  A fresh process running run_experiment at 20 seeds into an
# out_dir peaked at 44.2-44.3 MB at one seed per block, 43.2-44.2 MB at 10
# and 43.3-44.1 MB at 20 (stock specs, OPENBLAS_NUM_THREADS=1, x86-64).
# run()'s audit calls take at most linalg.STACK_POINTS points, so their
# temporaries do not grow with the block.
BLOCK_SEEDS = 10

# The zone run: dr-main-fg steps from z0 = 0 whose final point gives each
# seed's zones; the fg order extracts x = prox_g(z), so a dead coordinate is
# exactly 0.  _solve runs it in the stages _ZONE_STAGES, and only the rows the
# certificate rejects go on, from z0 = 0 again, to the next stage.  Over 400
# stock rows (EXP1 and EXP2, 20 seeds of master seeds 0-9 each) the first
# step that certified, on a grid of 10 steps, had a median of 10 (EXP2) and
# 20 (EXP1), a p90 of 40 on EXP1 and a worst case of 30 (EXP2) and 80 (EXP1):
# 20 steps certify most rows and 40 and 80 the rest.  Every certificate from
# any step gave the certified minimizer of step 200 bit for bit.  ZONE_STEPS
# is only the cap: a row still uncertified after it gets the ISTA reference.
ZONE_STEPS = 200
_ZONE_STAGES = (20, 40, 80, ZONE_STEPS)


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
def _design_filter_cached(target_ratio: float, length: int, signal_len: int, tol: float) -> tuple[float, ...]:
    """The bisected taps of one filter design."""
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
            return tuple(float(t) for t in mid ** np.arange(length))
        if r < target_ratio:
            lo = mid
        else:
            hi = mid
    raise FilterDesignError(f"bisection failed to reach ratio {target_ratio:.6g} within tolerance {tol}")


def design_filter(target_ratio: float, length: int = 31, signal_len: int = 90, tol: float = 0.02) -> np.ndarray:
    """Geometric filter (1, a, a^2, ...) with a bisected so the Gram condition
    ratio of the induced tall convolution matrix matches target_ratio."""
    return np.array(_design_filter_cached(float(target_ratio), int(length), int(signal_len), float(tol)))


def _taps_key(taps) -> bytes:
    """Two filters are one when their taps have the same bits (not just ``==``: -0.0 == 0.0)."""
    return np.array(taps, dtype=float).tobytes()


# One entry holds a filter's 120x90 convolution matrix and, once a problem is
# built on it, its 90x90 Gram matrix: about 150 KB.
@lru_cache(maxsize=8)
def _filter_operator(taps_key: bytes, signal_len: int) -> LinearMap:
    """The operator every instance with these ``_taps_key`` taps shares, designed or loaded."""
    return LinearMap(convolution_matrix(np.frombuffer(taps_key), signal_len))


@dataclass(frozen=True)
class ExperimentSpec:
    """Recipe for one benchmark family; ``variants`` are distinct DR variants, run beside ISTA."""

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

    def __post_init__(self):
        if bad := [v for v in self.variants if v not in DR_VARIANTS]:
            raise ValueError(f"variants must be DR variants {DR_VARIANTS}, got {bad}")
        if repeated := sorted({v for v in self.variants if self.variants.count(v) > 1}):
            raise ValueError(f"variants must be distinct, got {repeated} more than once")


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
        def read(key, parse):  # a value of the wrong type or form names its key
            value = data[key]
            try:
                return parse(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"key {key!r}: {exc}") from exc

        def vector(value):  # y and signal: flat lists of numbers
            if (v := np.asarray(value, dtype=float)).ndim != 1:
                raise ValueError(f"expected a list of numbers, got shape {v.shape}")
            return v

        taps = read("filter", lambda v: tuple(float(t) for t in v))
        signal = read("signal", vector)
        tau, rho = read("penalty", lambda v: (float(v["tau"]), float(v["rho"])))
        return cls(
            operator=_filter_operator(_taps_key(taps), signal.size),
            filter_taps=taps,
            ground_truth=signal,
            y=read("y", vector),
            noise_std=read("noise_std", float),
            penalty=FirmPenalty(tau, rho),
            seed=read("seed", int),
        )

    @classmethod
    def load(cls, path) -> "ProblemInstance":
        """Read an instance written by ``save``; its operator is its filter's shared one."""
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _operator(spec: ExperimentSpec) -> LinearMap:
    """spec's filter operator, shared with every instance of that filter."""
    taps = _design_filter_cached(spec.target_ratio, spec.filter_len, spec.signal_len, spec.ratio_tol)
    return _filter_operator(_taps_key(taps), spec.signal_len)


def build_instance(spec: ExperimentSpec, seed: int) -> ProblemInstance:
    """Assemble one seeded instance of the experiment recipe (deterministic in
    seed).  Every seed of the spec shares the one operator of its filter."""
    taps = tuple(float(t) for t in design_filter(spec.target_ratio, spec.filter_len, spec.signal_len, spec.ratio_tol))
    operator = _filter_operator(_taps_key(taps), spec.signal_len)
    s, _ = operator.gram_extremes()
    rng = np.random.default_rng(seed)
    x = generate_sparse_signal(spec.signal_len, spec.sparsity, rng)
    clean = operator.apply(x)
    y, std = add_noise_snr(clean, spec.snr_db, rng)
    rho = spec.rho_rule * s
    tau = 3.0 * rho * std
    return ProblemInstance(
        operator=operator,
        filter_taps=taps,
        ground_truth=x,
        y=y,
        noise_std=std,
        penalty=FirmPenalty(tau, rho),
        seed=seed,
    )


def block_problem(instances) -> Problem:
    """One block problem over instances that share their filter and rho:
    the observations stacked to (B, m), the weights tau to a (B, 1) column."""
    first, taps_key = instances[0], _taps_key(instances[0].filter_taps)
    for inst in instances[1:]:
        if _taps_key(inst.filter_taps) != taps_key or inst.penalty.rho != first.penalty.rho:
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
    reference: str | None = None  # "kkt" (certified) or "ista" (fallback); None for a failed seed

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


def _certified_minimizer(problem: Problem, x) -> tuple[np.ndarray, np.ndarray]:
    """(x_star, ok) for each row of a block problem and a (B, n) block x near
    its minimizers.  Row b's support S and middle band M (0 < |x| < tau/rho)
    give x_star: on S the solution of (HᵀH - rho diag(M))_SS x_S = (Hᵀy - tau
    sign(x) M)_S, 0 off S.  ok certifies it: its signs are x's on S, |x_star|
    < tau/rho holds on S exactly on M, and |Hᵀy - HᵀH x_star| <= tau off S.
    Such a point is stationary, and a global minimizer when rho <= s.  A
    singular zone system leaves its row uncertified."""
    operator, rho = problem.smooth.operator, problem.rho
    gram, hty = operator.gram(), operator.adjoint_apply(problem.smooth.y)
    x_star, ok = np.zeros(x.shape), np.zeros(len(x), dtype=bool)
    for b, (row, tau) in enumerate(zip(x, problem.penalty.tau[:, 0].tolist())):
        on = row != 0
        sign, band = np.sign(row[on]), np.abs(row[on]) < tau / rho
        try:
            x_star[b, on] = np.linalg.solve(gram[np.ix_(on, on)] - rho * np.diag(band), hty[b, on] - tau * sign * band)
        except np.linalg.LinAlgError:
            continue
        x_on, off = x_star[b, on], np.abs(hty[b] - gram @ x_star[b])[~on]
        ok[b] = (np.sign(x_on) == sign).all() and ((np.abs(x_on) < tau / rho) == band).all() and (off <= tau).all()
    return x_star, ok


def _solve(instances, spec: ExperimentSpec, audit: bool) -> list[tuple[SeedResult, dict]]:
    """Solve instances that share their operator as one block: the reference,
    unaudited, then ISTA and every DR variant against it, each row stopping at
    the first iterate within spec.dist_threshold and audited when ``audit`` is
    set.  Each run's final costs are its trace's, which ``run`` computes
    audited or not.

    The reference of a row is ``_certified_minimizer`` of a dr-main-fg zone
    run, made in the stages _ZONE_STAGES: the first on the block problem
    itself (so the traced dr-main-fg run reuses its Cholesky factor), each
    later one, again from z0 = 0, on the ``take`` of the rows no earlier stage
    certified.  A row no stage certifies gets an ISTA run of
    spec.reference_iters steps instead.  A row's zone runs are bit-identical
    to runs on that row alone, so its reference does not depend on which
    rows share its stages.

    Returns one (SeedResult, traces) pair per instance, traces mapping each
    run's name to that seed's row trace.  A block that diverges is solved
    again as one-seed blocks, so the seeds that do converge still complete;
    a seed that diverges alone gets a failed SeedResult and no traces.
    """
    problem = block_problem(instances)
    try:
        x_ref, certified = np.zeros(problem.shape), np.zeros(len(instances), dtype=bool)
        open_rows, stage = np.arange(len(instances)), problem
        for steps in _ZONE_STAGES:
            zones = run(stage, SolverConfig("dr-main-fg", max_iters=steps, audit=False)).final_x
            x_star, ok = _certified_minimizer(stage, zones)
            x_ref[open_rows[ok]], certified[open_rows[ok]] = x_star[ok], True
            if not (open_rows := open_rows[~ok]).size:
                break
            stage = problem.take(open_rows)
        else:
            x_ref[open_rows] = run(stage, SolverConfig("ista", max_iters=spec.reference_iters, audit=False)).final_x
        ista = SolverConfig(
            "ista", max_iters=spec.reference_iters, record_reference=x_ref, stop_dist=spec.dist_threshold, audit=audit
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
        runs = {config.variant: run(problem, config) for config in [ista, *dr]}
    except DivergenceError as exc:
        if len(instances) > 1:
            logger.info("a block of %d seeds diverged (%s); solving them one at a time", len(instances), exc)
            return [solved for inst in instances for solved in _solve([inst], spec, audit)]
        logger.warning("seed %d aborted: %s", instances[0].seed, exc)
        return [(SeedResult(instances[0].seed, {}, {}, {}, failed=str(exc)), {})]
    seed_traces = [dict(zip(runs, seed_rows)) for seed_rows in zip(*(t.split() for t in runs.values()))]
    return [
        (SeedResult(
            inst.seed,
            iterations_to_threshold={k: t.iterations_to(spec.dist_threshold) for k, t in traces.items()},
            final_cost={k: t.final_cost for k, t in traces.items()},
            final_dist={k: float(t.dist_to_ref[-1]) for k, t in traces.items()},
            reference="kkt" if certified[b] else "ista",
        ), traces)
        for b, (inst, traces) in enumerate(zip(instances, seed_traces))
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
    it too.  With out_dir, new or empty (else FileExistsError before any
    work), each seed's instance and trace CSVs are written there once its
    block has finished (a failed seed writes nothing), and then the
    aggregate report.  Without out_dir no run is audited, and the report is
    the same.
    """
    out_path = None if out_dir is None else Path(out_dir)
    audit = out_path is not None
    if audit:
        if out_path.is_dir() and any(out_path.iterdir()):
            raise FileExistsError(f"out_dir {out_path} is not empty")
        out_path.mkdir(parents=True, exist_ok=True)

    s, sigma = _operator(spec).gram_extremes()
    seeds = derive_seeds(master_seed, spec.n_seeds)
    results = []
    for start in range(0, len(seeds), BLOCK_SEEDS):
        instances = [build_instance(spec, seed) for seed in seeds[start : start + BLOCK_SEEDS]]
        for idx, (inst, (result, traces)) in enumerate(zip(instances, _solve(instances, spec, audit)), start):
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
