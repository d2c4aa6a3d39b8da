"""The full learning pipeline: sigma-grid sweep, per-sigma PSGD candidate
lists, zero-one holdout selection, final hypothesis and report.

A grid of surrogate widths is swept (the analysis pairs each unknown noise
level opt with a width sigma ~ opt/C; sweeping removes the need to know opt).
Each width gets its own fresh training stream and a full PSGD pass; the runs
of every (noise model, seed, width) of a learn_batch call advance together in
one lockstep batch. A strided subsample of every iterate list is scored on a
noisy holdout by zero-one error, all of a trial's lists at once, and the
overall argmin wins, ties broken by grid order then iterate order. The
reported error comes from a disjoint evaluation set.

The points of a trial depend on its seed alone: the groups of one
learn_batch call, a (noise model, opt_target, holdout_size) each, share w*,
the tilt and the marginal, and differ only in their labels and holdout
sizes. So each seed's training streams, largest holdout and evaluation set
are drawn once and labeled by corrupt_labels under every model; one report
job per seed scores every group's trial on the same blocks, each on its own
prefix of the holdout. Every job of the package, these and the CLI's, runs
on map_jobs, its one thread map, which puts a failed job's exception in its
place; so learn_batch returns each group's reports or the exception that
failed the group.

Neither the holdout nor the evaluation set is held whole, for any family.
Each is drawn in blocks of about 1 MiB of points from one SampleStream
(those blocks concatenate bitwise to one sample() draw), labeled, scored
and dropped; integer error counts add up over the blocks, so every rate
equals the one the whole set gives. The first holdout block also feeds the
per-width gradient-norm diagnostic.

Experiments run on a desk-scale grid and a capped step count; whether the
target gradient norm was reached is recorded per width (reached_rho).
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import distributions as dist
from .geometry import angle_between
from .noise import LabeledDataset, NoiseModel, NoisyExampleStream, corrupt_labels
from .optimizer import PsgdConfig, batch_grad_norms, psgd_lockstep

__all__ = [
    "LearnerConfig",
    "TrialReport",
    "SigmaDiagnostic",
    "default_holdout_size",
    "zero_one_errors",
    "learn",
    "learn_batch",
    "map_jobs",
    "derive_seed",
]

DEFAULT_GRID = (0.32, 0.16, 0.08, 0.04, 0.02)
_GRAD_DIAG_BATCH = 2_000  # holdout examples behind each per-width gradient-norm diagnostic
_SCORE_ROWS = 2_048       # examples per scored slice, at most; holds the diagnostic batch
_SCORE_COLS = 256         # candidates per scored slice
_SCORE_PAIRS = 131_072    # scores per scored slice: 1 MiB of float64, 512 rows at 256 candidates


def derive_seed(master: int, *key: int) -> int:
    """Deterministic child seed for (master, key...) via SeedSequence."""
    return int(np.random.SeedSequence((int(master),) + tuple(int(k) for k in key)).generate_state(1)[0])


@dataclass(frozen=True)
class LearnerConfig:
    epsilon: float = 0.01
    delta: float = 0.01
    grid: tuple[float, ...] = DEFAULT_GRID
    t_cap: int = 200_000
    rho: float = 0.25
    eval_size: int = 200_000
    candidate_stride: int = 400

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if len(self.grid) == 0 or not all(0.0 < s < math.inf for s in self.grid):
            raise ValueError("sigma grid must be nonempty, positive and finite")
        if not 0.0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        for name in ("t_cap", "eval_size", "candidate_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def default_holdout_size(d: int, epsilon: float, delta: float) -> int:
    """max(1e4, 2 ceil(ln(d/(eps delta))/eps^2)); ValueError when that
    overflows."""
    try:
        size = math.log(d / (epsilon * delta)) / epsilon**2
    except ZeroDivisionError:
        size = math.inf
    if not size < math.inf:
        raise ValueError(f"epsilon = {epsilon:g} and delta = {delta:g} overflow the default holdout size")
    return max(10_000, 2 * math.ceil(size))


def zero_one_errors(W: np.ndarray, dataset) -> np.ndarray:
    """Number of examples of the dataset each row of W misclassifies.

    In 2D each example misclassifies exactly a half-circle of candidate
    directions, so all errors follow from circular-interval counting over the
    example angles in O((n + m) log n); higher dimensions use blocked
    matmuls.
    """
    if dataset.x.shape[1] == 2:
        return _zero_one_errors_2d(W, dataset)
    return _zero_one_errors_blocked(W, dataset)


def _zero_one_errors_blocked(W: np.ndarray, dataset) -> np.ndarray:
    """Any dimension: count sign(<w, x>) != y (a zero score predicts +1), in
    slices of at most _SCORE_PAIRS scores: _SCORE_COLS candidates (fewer if
    W has fewer rows) by as many examples as fit, up to _SCORE_ROWS. A slice
    has at most _SCORE_ROWS <= 65,535 rows, so its per-candidate counts fit
    the uint16 sum."""
    cols = max(1, min(_SCORE_COLS, W.shape[0]))
    rows = min(_SCORE_ROWS, _SCORE_PAIRS // cols)
    wrong = np.zeros(W.shape[0], dtype=np.int64)
    for lo in range(0, len(dataset), rows):
        X = dataset.x[lo : lo + rows]
        pos = (dataset.y[lo : lo + rows] > 0.0)[:, None]
        for c in range(0, W.shape[0], cols):
            miss = X @ W[c : c + cols].T >= 0.0
            np.not_equal(miss, pos, out=miss)
            wrong[c : c + cols] += miss.view(np.uint8).sum(axis=0, dtype=np.uint16)
    return wrong


def _zero_one_errors_2d(W: np.ndarray, dataset) -> np.ndarray:
    """Candidate direction alpha misclassifies x iff alpha lies in the
    half-circle [phi + pi/2, phi + 3pi/2) (for y = +1; shifted by pi for
    y = -1), phi being the example angle. Count covering intervals at every
    candidate angle with two sorted prefix arrays."""
    two_pi = 2.0 * math.pi
    phi = np.arctan2(dataset.x[:, 1], dataset.x[:, 0])
    shift = np.where(dataset.y > 0, 0.5 * math.pi, -0.5 * math.pi)
    starts = np.mod(phi + shift, two_pi)
    ends = np.mod(starts + math.pi, two_pi)
    wrapped = int(np.sum(starts > ends))
    starts.sort()
    ends.sort()
    alpha = np.mod(np.arctan2(W[:, 1], W[:, 0]), two_pi)
    return (
        np.searchsorted(starts, alpha, side="right")
        - np.searchsorted(ends, alpha, side="right")
        + wrapped
    )


@dataclass
class SigmaDiagnostic:
    sigma: float
    T: int
    beta: float
    best_holdout_err: float
    angle_best: float
    min_grad_norm: float
    reached_rho: bool


@dataclass
class TrialReport:
    seed: int
    family: str
    d: int
    opt_target: float
    measured_noise_rate: float
    sigma_best: float
    err01: float
    angle_to_wstar: float
    T_used: int
    beta: float
    wall_ms: float
    per_sigma: list[SigmaDiagnostic] = field(default_factory=list)


def learn(spec, model: NoiseModel, config: LearnerConfig, seed: int,
          opt_target: float = float("nan"), holdout_size: int | None = None) -> TrialReport:
    """Grid sweep -> per-sigma candidates -> holdout selection -> report; raises its failure.
    holdout_size None selects default_holdout_size."""
    if holdout_size is None:
        holdout_size = default_holdout_size(spec.dim, config.epsilon, config.delta)
    [outcome] = learn_batch(spec, [(model, opt_target, holdout_size)], config, [seed])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[0]


def map_jobs(fn, jobs, workers: int = 1) -> list:
    """[fn(job) for job in jobs] in job order, over at most min(workers,
    jobs, usable CPUs) threads, and in the calling thread alone when that is
    1; a job that raises gives its exception in place of its result. numpy
    releases the GIL in the array passes that dominate a report or a cone
    scan, so the threads share the cores; each job is computed on its own,
    so results do not depend on the thread count."""
    n = min(workers, len(jobs), len(os.sched_getaffinity(0)))
    results = []
    with ThreadPoolExecutor(max_workers=n) if n > 1 else contextlib.nullcontext() as pool:
        calls = [pool.submit(fn, job).result if pool else partial(fn, job) for job in jobs]
        for call in calls:
            try:
                results.append(call())
            except Exception as exc:
                results.append(exc)
    return results


def learn_batch(spec, groups, config: LearnerConfig, seeds, workers: int = 1) -> list:
    """learn() for every (noise model, opt_target, holdout_size) group in
    `groups` and every seed, each report identical to its solo learn()
    (wall_ms aside). ValueError, before any work, for a holdout_size < 1.

    The groups of one seed differ only in their labels and holdout sizes, so
    every point is drawn once per seed and labeled under each group's model.
    PSGD: one stream per (seed, sigma) serves one lockstep row per group, and
    all the rows advance in one batch; row-local arithmetic keeps each row
    equal to its solo run. Reports: one job per seed (_seed_reports) draws
    the largest holdout, then the evaluation set, block by block and scores
    every group on each block, a group's holdout being its own prefix of the
    largest. The jobs run on map_jobs over `workers` threads, serially by
    default.

    Returns one entry per group: its list of TrialReports, one per seed, or
    the first exception, in seed order, that failed it. A failure in the
    streams or PSGD fills every entry, one in a seed's shared draws fails
    every group, and one in a group's own steps fails that group alone.

    wall_ms is per trial: an equal share of the batch's lockstep time plus an
    equal share of its seed job's time.
    """
    t0 = time.perf_counter()
    groups, seeds = list(groups), list(seeds)
    if any(n_hold < 1 for _, _, n_hold in groups):
        raise ValueError("holdout_size must be >= 1")
    g, trials = len(config.grid), len(groups) * len(seeds)
    models = [model for model, _, _ in groups]
    try:
        streams = [NoisyExampleStream(spec, models, derive_seed(seed, 1, i)) for seed in seeds for i in range(g)]
        configs = [PsgdConfig(T=config.t_cap, sigma=s, rho=config.rho) for s in config.grid for _ in groups]
        out = psgd_lockstep(streams, configs * len(seeds), keep_every=config.candidate_stride)
    except Exception as exc:
        return [exc] * len(groups)
    shared_s = (time.perf_counter() - t0) / trials
    kept = out.kept.reshape(len(seeds), g, len(groups), *out.kept.shape[1:]).swapaxes(1, 2)
    jobs = [(spec, groups, config, seed, kept[si], shared_s) for si, seed in enumerate(seeds)]
    per_seed = map_jobs(_seed_reports, jobs, workers)
    by_group = [[r if isinstance(r, Exception) else r[j] for r in per_seed] for j in range(len(groups))]
    return [next((r for r in reports if isinstance(r, Exception)), reports) for reports in by_group]


def _point_blocks(spec, n: int, seed: int):
    """sample(spec, n, seed) as consecutive blocks of dist.block_rows, but at
    least _SCORE_ROWS rows each; the last block may be shorter."""
    points = dist.SampleStream(spec, seed)
    rows = max(_SCORE_ROWS, dist.block_rows(spec.dim))
    for lo in range(0, n, rows):
        yield points.take(min(rows, n - lo))


def _seed_reports(job) -> list:
    """The report phase of one seed for every group. job is (spec, groups,
    config, seed, kept, shared_s), kept being (groups, grid widths, iterates,
    d). The holdout drawn is the largest group's. Returns one entry per
    group: its TrialReport, or the exception one of its _Trial steps raised;
    a group that failed takes no further steps."""
    spec, groups, config, seed, kept, shared_s = job
    t0 = time.perf_counter()
    trials = [_Trial(*group, kept_j) for group, kept_j in zip(groups, kept)]

    def each(step, *args):
        for i, trial in enumerate(trials):
            if not isinstance(trial, Exception):
                try:
                    step(trial, *args)
                except Exception as exc:
                    trials[i] = exc

    blocks = _point_blocks(spec, max(n_hold for _, _, n_hold in groups), derive_seed(seed, 2))
    each(_Trial.diagnose, next(blocks), config)  # the first block also feeds the gradient-norm diagnostic
    for X in blocks:
        each(_Trial.score, X)
    each(_Trial.select, config)
    for X in _point_blocks(spec, config.eval_size, derive_seed(seed, 3)):
        each(_Trial.evaluate, X)
    wall_ms = (shared_s + (time.perf_counter() - t0) / len(groups)) * 1e3
    return [t if isinstance(t, Exception) else t.report(spec, config, seed, wall_ms) for t in trials]


class _Trial:
    """One group's report for one seed, built from the point blocks its seed
    job draws: holdout blocks (diagnose, then score), select, evaluation
    blocks (evaluate), report. Of the largest group's holdout blocks it
    scores the first n_hold rows, bitwise its own holdout cut at the same
    block edges. Integer error counts add up over the blocks, so every rate
    equals the one the whole set gives."""

    def __init__(self, model: NoiseModel, opt_target: float, n_hold: int, kept: np.ndarray):
        self.model = model
        self.opt_target = opt_target
        self.n_hold = self.unscored = n_hold
        self.kept = kept  # (grid widths, iterates, d): each width's strided iterate list
        self.W = kept.reshape(-1, kept.shape[-1])
        self.wrong = np.zeros(len(self.W), dtype=np.int64)
        self.flipped = self.wrong_w = 0

    def _label(self, X) -> LabeledDataset:
        return LabeledDataset(X, *corrupt_labels(self.model, X))

    def score(self, X) -> LabeledDataset:
        """Label and score the rows of holdout block X inside this trial's
        holdout (none once it is complete)."""
        block = self._label(X[: self.unscored])
        self.unscored -= len(block)
        self.wrong += zero_one_errors(self.W, block)
        return block

    def diagnose(self, X, config: LearnerConfig) -> None:
        """score(X), and each width's least empirical gradient norm on the
        first min(_GRAD_DIAG_BATCH, rows scored) examples of that block."""
        block = self.score(X)
        stride = max(1, self.kept.shape[1] // 50)
        batch = min(_GRAD_DIAG_BATCH, len(block))
        self.min_grads = [float(np.min(batch_grad_norms(vectors[::stride], block, sigma, batch)))
                          for sigma, vectors in zip(config.grid, self.kept)]

    def select(self, config: LearnerConfig) -> None:
        errs = (self.wrong / self.n_hold).reshape(self.kept.shape[:2])
        self.per_sigma = []
        for sigma, vectors, width_errs, min_grad in zip(config.grid, self.kept, errs, self.min_grads):
            ii = int(np.argmin(width_errs))
            self.per_sigma.append(
                SigmaDiagnostic(
                    sigma=sigma,
                    T=config.t_cap,
                    beta=PsgdConfig(T=config.t_cap, sigma=sigma, rho=config.rho).step_size,
                    best_holdout_err=float(width_errs[ii]),
                    angle_best=angle_between(vectors[ii], self.model.w_star),
                    min_grad_norm=min_grad,
                    reached_rho=min_grad <= config.rho,
                )
            )
        li, ii = np.unravel_index(int(np.argmin(errs)), errs.shape)  # ties: grid order, then iterate order
        self.sigma_best = config.grid[li]
        self.w = self.kept[li, ii]

    def evaluate(self, X) -> None:
        block = self._label(X)
        self.flipped += int(np.count_nonzero(block.flipped))
        self.wrong_w += int(_zero_one_errors_blocked(self.w[None, :], block)[0])

    def report(self, spec, config: LearnerConfig, seed: int, wall_ms: float) -> TrialReport:
        return TrialReport(
            seed=int(seed),
            family=spec.family,
            d=spec.dim,
            opt_target=float(self.opt_target),
            measured_noise_rate=self.flipped / config.eval_size,
            sigma_best=self.sigma_best,
            err01=self.wrong_w / config.eval_size,
            angle_to_wstar=angle_between(self.w, self.model.w_star),
            T_used=config.t_cap,
            beta=PsgdConfig(T=config.t_cap, sigma=self.sigma_best, rho=config.rho).step_size,
            wall_ms=wall_ms,
            per_sigma=self.per_sigma,
        )
