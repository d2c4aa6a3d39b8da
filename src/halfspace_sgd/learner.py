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

Neither the holdout nor the evaluation set is held whole. For the Gaussian,
each is drawn _SCORE_ROWS examples at a time from one SampleStream (those
blocks concatenate bitwise to one sample() draw), labeled by corrupt_labels,
scored and dropped; integer error counts add up over the blocks, so every
rate equals the one the whole set gives. The first holdout block also feeds
the per-width gradient-norm diagnostic. The 2D radial families draw all n
points at once, so their sets come as one block.

Experiments run on a desk-scale grid and a capped step count; whether the
target gradient norm was reached is recorded per width (reached_rho).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .geometry import angle_between
from .noise import LabeledDataset, NoiseModel, NoisyExampleStream, corrupt_labels, make_dataset
from .optimizer import PsgdConfig, batch_grad_norms, psgd_lockstep

__all__ = [
    "LearnerConfig",
    "TrialReport",
    "SigmaDiagnostic",
    "default_holdout_size",
    "zero_one_errors",
    "learn",
    "learn_batch",
    "derive_seed",
]

DEFAULT_GRID = (0.32, 0.16, 0.08, 0.04, 0.02)
_GRAD_DIAG_BATCH = 2_000  # holdout examples behind each per-width gradient-norm diagnostic
_SCORE_ROWS = 2_048       # examples per drawn block; holds the diagnostic batch
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
    holdout_size: int | None = None   # None: default_holdout_size
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
        if self.holdout_size is not None and self.holdout_size < 1:
            raise ValueError("holdout_size must be >= 1")


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
          opt_target: float = float("nan")) -> TrialReport:
    """Grid sweep -> per-sigma candidates -> holdout selection -> report."""
    return learn_batch(spec, [(model, opt_target)], config, [seed])[0][0]


def learn_batch(spec, groups, config: LearnerConfig, seeds, map_groups=map) -> list:
    """learn() for every (noise model, opt_target) pair in `groups` and every
    seed, with all (group, seed, sigma) runs advanced in one lockstep batch
    (each stream carries its own noise model); row-local arithmetic makes each
    report identical to its solo learn() (wall_ms aside).

    The report phase (holdout scoring, selection, evaluation) runs per group
    as map_groups(fn, jobs), the builtin map by default; the CLI passes one
    that spreads the groups over threads and puts a failing group's
    exception in its place. Returns one entry per group: its list of
    TrialReports, one per seed.

    wall_ms is per trial: an equal share of the batch's lockstep time plus
    the time of the trial's own selection and evaluation.
    """
    t0 = time.perf_counter()
    groups, seeds = list(groups), list(seeds)
    g, trials = len(config.grid), len(groups) * len(seeds)
    streams = [NoisyExampleStream(spec, model, derive_seed(seed, 1, i))
               for model, _ in groups for seed in seeds for i in range(g)]
    configs = [PsgdConfig(T=config.t_cap, sigma=s, rho=config.rho) for s in config.grid] * trials
    out = psgd_lockstep(streams, configs, keep_every=config.candidate_stride)
    shared_s = (time.perf_counter() - t0) / trials
    kept = out.kept.reshape(len(groups), len(seeds), g, *out.kept.shape[1:])
    jobs = [(spec, model, config, seeds, opt, kept[j], shared_s) for j, (model, opt) in enumerate(groups)]
    return list(map_groups(_group_reports, jobs))


def _group_reports(job) -> list[TrialReport]:
    spec, model, config, seeds, opt_target, kept, shared_s = job
    return [_trial_report(spec, model, config, seed, opt_target, kept[si], shared_s)
            for si, seed in enumerate(seeds)]


def _labeled_blocks(spec, model: NoiseModel, n: int, seed: int):
    """make_dataset(spec, model, n, seed) as consecutive LabeledDatasets of at
    most _SCORE_ROWS examples; one block for the 2D radial families."""
    if spec.family != "gaussian":
        yield make_dataset(spec, model, n, seed)
        return
    points = dist.SampleStream(spec, seed)
    for lo in range(0, n, _SCORE_ROWS):
        X = points.take(min(_SCORE_ROWS, n - lo))
        yield LabeledDataset(X, *corrupt_labels(model, X))


def _trial_report(spec, model: NoiseModel, config: LearnerConfig, seed: int,
                  opt_target: float, kept: np.ndarray, shared_s: float) -> TrialReport:
    """kept is (grid widths, iterates, d): each width's strided iterate list."""
    t0 = time.perf_counter()
    n_hold = config.holdout_size
    if n_hold is None:
        n_hold = default_holdout_size(spec.dim, config.epsilon, config.delta)
    W = kept.reshape(-1, spec.dim)
    blocks = _labeled_blocks(spec, model, n_hold, derive_seed(seed, 2))
    head = next(blocks)  # the first block also feeds the gradient-norm diagnostic
    wrong = zero_one_errors(W, head)
    for block in blocks:
        wrong += zero_one_errors(W, block)
    errs = (wrong / n_hold).reshape(kept.shape[:2])

    per_sigma = []
    diag_batch = min(_GRAD_DIAG_BATCH, n_hold)
    diag_stride = max(1, kept.shape[1] // 50)
    for sigma, vectors, width_errs in zip(config.grid, kept, errs):
        ii = int(np.argmin(width_errs))
        min_grad = float(np.min(batch_grad_norms(vectors[::diag_stride], head, sigma, diag_batch)))
        per_sigma.append(
            SigmaDiagnostic(
                sigma=sigma,
                T=config.t_cap,
                beta=PsgdConfig(T=config.t_cap, sigma=sigma, rho=config.rho).step_size,
                best_holdout_err=float(width_errs[ii]),
                angle_best=angle_between(vectors[ii], model.w_star),
                min_grad_norm=min_grad,
                reached_rho=min_grad <= config.rho,
            )
        )
    li, ii = np.unravel_index(int(np.argmin(errs)), errs.shape)  # ties: grid order, then iterate order
    sigma_best = config.grid[li]
    w = kept[li, ii]
    flipped = wrong_w = 0
    for block in _labeled_blocks(spec, model, config.eval_size, derive_seed(seed, 3)):
        flipped += int(np.count_nonzero(block.flipped))
        wrong_w += int(_zero_one_errors_blocked(w[None, :], block)[0])

    return TrialReport(
        seed=int(seed),
        family=spec.family,
        d=spec.dim,
        opt_target=float(opt_target),
        measured_noise_rate=flipped / config.eval_size,
        sigma_best=sigma_best,
        err01=wrong_w / config.eval_size,
        angle_to_wstar=angle_between(w, model.w_star),
        T_used=config.t_cap,
        beta=PsgdConfig(T=config.t_cap, sigma=sigma_best, rho=config.rho).step_size,
        wall_ms=(shared_s + time.perf_counter() - t0) * 1e3,
        per_sigma=per_sigma,
    )
