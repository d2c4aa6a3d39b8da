"""The full learning pipeline: sigma-grid sweep, per-sigma PSGD candidate
lists, zero-one holdout selection, final hypothesis and report.

A grid of surrogate widths is swept (the analysis pairs each unknown noise
level opt with a width sigma ~ opt/C; sweeping removes the need to know opt).
Each width gets its own fresh training stream and a full PSGD pass; a strided
subsample of every iterate list is scored on a noisy holdout by zero-one
error and the overall argmin wins, ties broken by grid order then iterate
order. The reported error comes from a disjoint evaluation set.

The analysis constant C = R^4/(2^15 U^3), from the (U, R) of the marginal
(distributions.well_behaved_params), is below 1e-7 for the stock families
(3.0e-8 Gaussian, 8.5e-8 log-concave, 4.3e-8 heavy-tailed at s = 3). It is
kept on each TrialReport (c_const and opt_exceeds_constant) but not
enforced, and the CLI does not write it:
experiments run on a desk-scale grid and a capped step count (whether the
target gradient norm was reached is recorded per width).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .geometry import angle_between, halfspace_labels
from .noise import NoiseModel, make_dataset
from .optimizer import NoisyExampleStream, PsgdConfig, batch_grad_norms, psgd_lockstep

__all__ = [
    "LearnerConfig",
    "CandidateList",
    "TrialReport",
    "SigmaDiagnostic",
    "c_const_for",
    "default_holdout_size",
    "estimate_err01",
    "zero_one_errors",
    "learn",
    "learn_batch",
    "derive_seed",
]

DEFAULT_GRID = (0.32, 0.16, 0.08, 0.04, 0.02)
_GRAD_DIAG_BATCH = 2_000  # holdout examples behind each per-width gradient-norm diagnostic
_SCORE_CHUNK = 64         # candidates per matmul when scoring in d > 2


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
        if len(self.grid) == 0 or not all(s > 0 for s in self.grid):
            raise ValueError("sigma grid must be nonempty and positive")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        for name in ("t_cap", "eval_size", "candidate_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.holdout_size is not None and self.holdout_size < 1:
            raise ValueError("holdout_size must be >= 1")


def c_const_for(spec) -> float:
    """R^4 / (2^15 U^3) with the (U, R) of the spec's marginal."""
    p = dist.well_behaved_params(spec)
    return p.R**4 / (2.0**15 * p.U**3)


def default_holdout_size(d: int, epsilon: float, delta: float) -> int:
    """max(1e4, 2 ceil(ln(d/(eps delta))/eps^2))."""
    return max(10_000, 2 * math.ceil(math.log(d / (epsilon * delta)) / epsilon**2))


@dataclass
class CandidateList:
    """All iterates of one PSGD pass at a fixed width."""

    sigma: float
    vectors: np.ndarray  # (m, d) unit rows

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] == 0:
            raise ValueError("candidate list must be a nonempty (m, d) array")


def estimate_err01(w, dataset) -> float:
    """Fraction of examples with sign(<w, x>) != y."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return float(np.mean(halfspace_labels(w, dataset.x) != dataset.y))


def zero_one_errors(W: np.ndarray, dataset) -> np.ndarray:
    """Zero-one error of every row of W on the dataset.

    In 2D each example misclassifies exactly a half-circle of candidate
    directions, so all errors follow from circular-interval counting over the
    example angles in O((n + m) log n); higher dimensions use a chunked
    matmul.
    """
    if dataset.x.shape[1] == 2:
        return _zero_one_errors_2d(W, dataset)
    n = len(dataset)
    X, y = dataset.x, dataset.y
    out = np.empty(W.shape[0])
    for lo in range(0, W.shape[0], _SCORE_CHUNK):
        scores = X @ W[lo : lo + _SCORE_CHUNK].T
        out[lo : lo + _SCORE_CHUNK] = np.mean((scores >= 0.0) != (y[:, None] > 0.0), axis=0)
    return out


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
    covered = (
        np.searchsorted(starts, alpha, side="right")
        - np.searchsorted(ends, alpha, side="right")
        + wrapped
    )
    return covered / len(dataset)


def _select(per_list_errs) -> tuple[int, int]:
    """(list index, iterate index) of the least holdout error; ties go to the
    earlier list (grid order), then to the earlier iterate."""
    li = min(range(len(per_list_errs)), key=lambda i: per_list_errs[i].min())
    return li, int(np.argmin(per_list_errs[li]))


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
    c_const: float
    holdout_size: int
    opt_exceeds_constant: bool
    per_sigma: list[SigmaDiagnostic] = field(default_factory=list)


def learn(spec, model: NoiseModel, config: LearnerConfig, seed: int,
          opt_target: float = float("nan")) -> TrialReport:
    """Grid sweep -> per-sigma candidates -> holdout selection -> report."""
    return learn_batch(spec, model, config, [seed], opt_target)[0]


def learn_batch(spec, model: NoiseModel, config: LearnerConfig, seeds,
                opt_target: float = float("nan")) -> list[TrialReport]:
    """learn() for many seeds with all (seed, sigma) runs advanced in one
    lockstep batch; row-local arithmetic makes each report identical to its
    solo learn() (wall_ms aside).

    wall_ms is per trial: an equal share of the lockstep time plus the time
    of the trial's own selection and evaluation.
    """
    t0 = time.perf_counter()
    seeds = list(seeds)
    g = len(config.grid)
    streams = [NoisyExampleStream(spec, model, derive_seed(seed, 1, i)) for seed in seeds for i in range(g)]
    configs = [PsgdConfig(T=config.t_cap, sigma=s, rho=config.rho) for _ in seeds for s in config.grid]
    out = psgd_lockstep(streams, configs, keep_every=config.candidate_stride)
    shared_s = (time.perf_counter() - t0) / len(seeds)
    reports = []
    for si, seed in enumerate(seeds):
        candidates = [CandidateList(s, out.kept[si * g + i]) for i, s in enumerate(config.grid)]
        reports.append(_trial_report(spec, model, config, seed, opt_target, candidates, shared_s))
    return reports


def _trial_report(spec, model: NoiseModel, config: LearnerConfig, seed: int,
                  opt_target: float, candidates: list[CandidateList], shared_s: float) -> TrialReport:
    t0 = time.perf_counter()
    n_hold = config.holdout_size
    if n_hold is None:
        n_hold = default_holdout_size(spec.dim, config.epsilon, config.delta)
    holdout = make_dataset(spec, model, n_hold, derive_seed(seed, 2))
    eval_ds = make_dataset(spec, model, config.eval_size, derive_seed(seed, 3))
    per_list_errs = [zero_one_errors(cl.vectors, holdout) for cl in candidates]

    per_sigma = []
    diag_batch = min(_GRAD_DIAG_BATCH, n_hold)
    for cl, errs in zip(candidates, per_list_errs):
        ii = int(np.argmin(errs))
        grad_norms = batch_grad_norms(cl.vectors[:: max(1, len(cl.vectors) // 50)], holdout, cl.sigma, diag_batch)
        min_grad = float(np.min(grad_norms))
        per_sigma.append(
            SigmaDiagnostic(
                sigma=cl.sigma,
                T=config.t_cap,
                beta=PsgdConfig(T=config.t_cap, sigma=cl.sigma, rho=config.rho).step_size,
                best_holdout_err=float(errs[ii]),
                angle_best=angle_between(cl.vectors[ii], model.w_star),
                min_grad_norm=min_grad,
                reached_rho=min_grad <= config.rho,
            )
        )
    li, ii = _select(per_list_errs)
    best = candidates[li]
    w = best.vectors[ii]

    c_const = c_const_for(spec)
    return TrialReport(
        seed=int(seed),
        family=spec.family,
        d=spec.dim,
        opt_target=float(opt_target),
        measured_noise_rate=eval_ds.noise_rate,
        sigma_best=best.sigma,
        err01=estimate_err01(w, eval_ds),
        angle_to_wstar=angle_between(w, model.w_star),
        T_used=config.t_cap,
        beta=PsgdConfig(T=config.t_cap, sigma=best.sigma, rho=config.rho).step_size,
        wall_ms=(shared_s + time.perf_counter() - t0) * 1e3,
        c_const=c_const,
        holdout_size=n_hold,
        opt_exceeds_constant=bool(opt_target >= c_const) if not math.isnan(opt_target) else True,
        per_sigma=per_sigma,
    )
