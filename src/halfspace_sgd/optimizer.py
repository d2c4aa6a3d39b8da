"""Projected stochastic gradient descent on the unit sphere.

Each run starts at e_1, consumes one fresh example per step (single pass, no
epochs), takes a plain gradient step on the sigmoid surrogate and projects
back to the sphere. psgd_lockstep advances many independent runs at once and
keeps a strided subset of their iterates; row i of a batch is bit-identical
to the same run advanced alone (a batch of one) because every operation is
row-local.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import unit_vector
from .losses import surrogate_grad_rows

__all__ = [
    "PsgdConfig",
    "NoisyExampleStream",
    "psgd_lockstep",
    "batch_grad_norms",
]

_CHUNK = 2048  # stream draw granularity; invisible to results


@dataclass(frozen=True)
class PsgdConfig:
    """Step count and surrogate width for one PSGD pass.

    The step size is beta = (sigma * rho)^2, where rho is the target
    stationarity level (a desk-scale knob; the analysis constant R^2/(64U) is
    far too small to move any capped run).
    """

    T: int
    sigma: float
    rho: float = 0.25

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def step_size(self) -> float:
        return (self.sigma * self.rho) ** 2


@dataclass
class LockstepResult:
    """Strided iterates of k lockstep runs, plus which steps were kept."""

    kept: np.ndarray        # (k, m, d)
    kept_steps: np.ndarray  # (m,) 1-based step indices, the last is T


def psgd_lockstep(streams, config, keep_every: int = 1) -> LockstepResult:
    """Advance len(streams) independent PSGD runs in lockstep.

    `config` is one PsgdConfig shared by all runs, or a sequence of configs
    (one per stream, equal T) whose sigma and rho may differ per row. Keeps
    every `keep_every`-th iterate (and always the last). Row-local arithmetic
    only, so each row reproduces its solo run bitwise.

    Each stream must provide take(k) -> (X, y); a stream that returns fewer
    rows than asked raises RuntimeError.
    """
    k = len(streams)
    if isinstance(config, PsgdConfig):
        configs = [config] * k
    else:
        configs = list(config)
        if len(configs) != k:
            raise ValueError("need one config per stream")
        if len({c.T for c in configs}) != 1:
            raise ValueError("lockstep runs must share T")
    T = configs[0].T
    beta = np.array([c.step_size for c in configs])[:, None]
    sigma = np.array([c.sigma for c in configs])
    kept_steps = list(range(keep_every, T + 1, keep_every))
    if not kept_steps or kept_steps[-1] != T:
        kept_steps.append(T)
    kept_steps = np.asarray(kept_steps, dtype=np.int64)
    keep_set = {int(s): i for i, s in enumerate(kept_steps)}

    W = None  # (k, d), set after first draw validates the dimension
    kept = None
    step = 0
    while step < T:
        take = min(_CHUNK, T - step)
        Xs, ys = [], []
        for s in streams:
            X, y = s.take(take)
            if X.shape[0] < take:
                raise RuntimeError(f"example stream exhausted at step {step + X.shape[0]} < T={T}")
            Xs.append(X)
            ys.append(y)
        Xc = np.stack(Xs, axis=1)  # (take, k, d)
        yc = np.stack(ys, axis=1)  # (take, k)
        if W is None:
            d = Xc.shape[2]
            W = np.tile(unit_vector(d), (k, 1))
            kept = np.empty((k, len(kept_steps), d))
        for j in range(take):
            G = surrogate_grad_rows(W, Xc[j], yc[j], sigma)
            V = W - beta * G
            W = V / np.sqrt(np.sum(V * V, axis=1))[:, None]
            step += 1
            idx = keep_set.get(step)
            if idx is not None:
                kept[:, idx, :] = W
    return LockstepResult(kept=kept, kept_steps=kept_steps)


def batch_grad_norms(iterates: np.ndarray, dataset, sigma: float, batch: int) -> np.ndarray:
    """Empirical surrogate-gradient norm at each iterate, from the first
    `batch` examples of the dataset (deterministic given the dataset)."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    X = dataset.x[:batch]
    y = dataset.y[:batch]
    norms = np.empty(iterates.shape[0])
    for i, w in enumerate(iterates):
        W = np.broadcast_to(w, (X.shape[0], w.shape[0]))
        g = surrogate_grad_rows(W, X, y, sigma).mean(axis=0)
        norms[i] = float(np.linalg.norm(g))
    return norms


class NoisyExampleStream:
    """Seeded stream of labeled examples: marginal samples + noise model."""

    def __init__(self, spec, model, seed: int):
        from .distributions import SampleStream

        if spec.dim != model.dim:
            raise ValueError(f"dimension mismatch: spec d={spec.dim}, noise d={model.dim}")
        self.model = model
        self._points = SampleStream(spec, seed)

    def take(self, k: int):
        from .geometry import halfspace_labels
        from .noise import corrupt_labels

        X = self._points.take(k)
        clean = halfspace_labels(self.model.w_star, X)
        y, _ = corrupt_labels(self.model, X, clean)
        return X, y
