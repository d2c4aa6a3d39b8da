"""Projected stochastic gradient descent on the unit sphere.

Each run starts at e_1, consumes one fresh example per step (single pass, no
epochs), takes a plain gradient step on the sigmoid surrogate and projects
back to the sphere. psgd_lockstep advances many independent runs at once and
keeps a strided subset of their iterates; row i of a batch is bit-identical
to the same run advanced alone (a batch of one) because every operation is
row-local. A stream may label its points under several noise models; each
labeling is a row of its own, so runs that differ only in their labels share
one draw. Each step is one fused gradient update over the batch and one
row-norm rescale, with the surrogate's slope in cosh form. batch_grad_norms
gives the empirical gradient norm at many iterates from two matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import unit_vector
from .losses import sigmoid_slope

__all__ = [
    "PsgdConfig",
    "psgd_lockstep",
    "batch_grad_norms",
]

_CHUNK = 2048  # steps per stream draw; takes concatenate bitwise, so no result depends on it


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


def _slope_factor(h, c, two_sigma):
    """c / cosh^2(h / (2 sigma)). With c = y beta / (4 sigma) this is
    y beta S'_sigma(h), since S'_sigma(h) = 1 / (4 sigma cosh^2(h / (2 sigma)));
    h / (2 sigma) is exactly half of sigmoid_slope's |h| / sigma. Where cosh^2
    overflows the factor is c / inf = 0, the exact limit: callers ignore the
    overflow (np.errstate)."""
    ch = np.cosh(h / two_sigma)
    return c / (ch * ch)


def psgd_lockstep(streams, configs, keep_every: int = 1) -> LockstepResult:
    """Advance independent PSGD runs in lockstep, one per row.

    Each stream must provide take(k) -> (X, y). A y of shape (k,) makes the
    stream one row; a y of shape (k, m) makes it m consecutive rows that see
    the same points under their own labels. `configs` holds one PsgdConfig
    per row, all with the same T; sigma and rho may differ per row. Keeps
    every `keep_every`-th iterate (and always the last). Row-local arithmetic
    only, so each row reproduces its solo run bitwise.

    Every iterate has unit norm (e_1, then each rescale), so the step
    w - beta * surrogate_grad_rows(w, x, y, sigma) drops the gradient's
    1/||w|| factors: with h = <w, x> and q = y beta S'_sigma(h) =
    c / cosh^2(h / (2 sigma)), c = y beta / (4 sigma) (formed once per
    chunk), w <- w + q (x - h w), then w <- w / ||w||.

    A stream that returns fewer rows than asked raises RuntimeError.
    """
    configs = list(configs)
    if len({c.T for c in configs}) != 1:
        raise ValueError("lockstep runs must share T")
    T = configs[0].T
    k = len(configs)
    two_sigma = np.array([2.0 * c.sigma for c in configs])[:, None]
    beta_4s = np.array([c.step_size / (4.0 * c.sigma) for c in configs])[:, None]
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
            ys.append(y.reshape(take, -1))
            Xs += [X] * ys[-1].shape[1]  # one row per labeling
        if len(Xs) != k:
            raise ValueError(f"need one config per row: {k} configs, {len(Xs)} rows")
        Xc = np.stack(Xs, axis=1)  # (take, k, d)
        c = np.concatenate(ys, axis=1)[:, :, None] * beta_4s  # (take, k, 1)
        if W is None:
            d = Xc.shape[2]
            W = np.tile(unit_vector(d), (k, 1))
            kept = np.empty((k, len(kept_steps), d))
        with np.errstate(over="ignore"):
            for j in range(take):
                x = Xc[j]
                h = np.vecdot(W, x, keepdims=True)
                q = _slope_factor(h, c[j], two_sigma)
                V = W + q * (x - h * W)
                W = V / np.sqrt(np.vecdot(V, V, keepdims=True))
                step += 1
                idx = keep_set.get(step)
                if idx is not None:
                    kept[:, idx, :] = W
    return LockstepResult(kept=kept, kept_steps=kept_steps)


def batch_grad_norms(iterates: np.ndarray, dataset, sigma: float, batch: int) -> np.ndarray:
    """Empirical surrogate-gradient norm at each iterate, from the first
    `batch` examples of the dataset (deterministic given the dataset).

    All iterates at once, by two matmuls: with H = X W^T / ||w|| (normalized
    margins, n x m) and C = -y S'(H) / ||w||, the mean gradients are
    (C^T X - colsum(C * H) w / ||w||) / n, the mean of surrogate_grad_rows
    over the batch for each iterate w.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    X = dataset.x[:batch]
    y = dataset.y[:batch]
    norms = np.linalg.norm(iterates, axis=1)
    H = (X @ iterates.T) / norms
    C = -y[:, None] * sigmoid_slope(H, sigma) / norms
    G = C.T @ X - (np.einsum("ij,ij->j", C, H) / norms)[:, None] * iterates
    return np.linalg.norm(G, axis=1) / X.shape[0]

