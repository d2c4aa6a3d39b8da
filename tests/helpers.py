"""Shared helpers for the test suite (independent oracle routes).

The scalar forms below (one example at a time) are test oracles for the
row-wise paths of the package.
"""

import math

import numpy as np

from halfspace_sgd import distributions as dist
from halfspace_sgd.geometry import rotate2d
from halfspace_sgd.losses import sigmoid, surrogate_grad_rows
from halfspace_sgd.quadrature import integrate_refining


def halfspace_label(w, x) -> int:
    """sign(<w, x>) with sign(0) = +1."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.shape != x.shape:
        raise ValueError(f"dimension mismatch: {w.shape} vs {x.shape}")
    return 1 if float(np.dot(w, x)) >= 0.0 else -1


def apply_noise(model, x, clean_y: int) -> int:
    """Observed label for one example; clean_y must be halfspace_label(w*, x)."""
    x = np.asarray(x, dtype=float)
    if model.kind == "clean":
        return int(clean_y)
    in_s = float(np.linalg.norm(x)) >= model.Z
    in_c = float(x @ model.w_star) * float(x @ model.w_perp) <= 0.0
    return int(-clean_y) if (in_s and not in_c) else int(clean_y)


def _normalized_margin(w: np.ndarray, x: np.ndarray, y: float) -> float:
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("weight vector must be nonzero")
    return -y * float(np.dot(w, x)) / norm


def surrogate_loss_sample(w, x, y, sigma: float) -> float:
    """Sigmoid surrogate S_sigma(-y <w,x> / ||w||) for one example.

    Invariant under positive scaling of w; value in (0, 1); equals 1/2 on the
    decision boundary.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(sigmoid(_normalized_margin(w, x, y), sigma))


def surrogate_grad_sample(w, x, y, sigma: float) -> np.ndarray:
    """Gradient in w of surrogate_loss_sample: surrogate_grad_rows on a single
    row, so the checks made with it hold for the optimizer's path bitwise."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if float(np.sum(w * w)) == 0.0:
        raise ValueError("weight vector must be nonzero")
    return surrogate_grad_rows(w[None, :], x[None, :], np.array([float(y)]), sigma)[0]


class ArrayStream:
    """Finite stream over a fixed (X, y) pair; exhausts, unlike seeded streams."""

    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self._pos = 0

    def take(self, k: int):
        lo, hi = self._pos, min(self._pos + k, self.X.shape[0])
        self._pos = hi
        return self.X[lo:hi], self.y[lo:hi]


def transverse_axis(w, model) -> np.ndarray:
    """Unit vector orthogonal to w with a non-negative inner product with
    w_tilde; the frame in which the proof's sign structure (I_Sc >= 0,
    I_S <= 0 between w* and w_tilde) holds."""
    w = np.asarray(w, dtype=float)
    t = rotate2d(w / np.linalg.norm(w), math.pi / 2.0)
    if float(t @ model.w_tilde) < 0.0:
        t = -t
    return t


def quad_tail_mass(spec, Z, tol=1e-12):
    """Pr[||x|| >= Z] by generic panel quadrature of 2 pi r gamma(r)."""
    if spec.family == "heavy_tailed":
        hi = max(Z, 1.0) * 10.0 ** (10.0 / spec.s)
    else:
        hi = Z + 60.0
    f = lambda r: 2.0 * math.pi * r * dist.radial_density(spec, r)
    split = max(Z * 2.0, Z + 1.0, 1.0)
    v1, _ = integrate_refining(f, Z, split, tol, panels=8)
    v2, _ = integrate_refining(f, split, hi, tol, panels=8, geometric=True, max_doublings=16)
    return v1 + v2


def search_well_behaved_params(spec):
    """(U, R) by direct search: a grid over R, then ternary refinement, of
    R^4/U(R)^3 with U(R) the least constant bounding the density over the
    disk ||x|| <= R and the envelope integrals; the reference the closed form
    of dist.well_behaved_params is checked against."""
    u0 = max(float(dist.radial_density(spec, 0.0)), 1.0, dist.mean_norm(spec))

    def u_of(rr: float) -> float:
        return max(u0, 1.0 / float(dist.radial_density(spec, rr)))

    grid = np.linspace(1e-3, 6.0, 6000)
    objective = grid**4 / np.array([u_of(g) for g in grid]) ** 3
    i = int(np.argmax(objective))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if m1**4 / u_of(m1) ** 3 < m2**4 / u_of(m2) ** 3:
            lo = m1
        else:
            hi = m2
    best_r = float(0.5 * (lo + hi))
    return float(u_of(best_r)), best_r


def ks_uniform(values01: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of values in [0, 1] to the uniform law."""
    u = np.sort(values01)
    n = u.size
    d_plus = np.max(np.arange(1, n + 1) / n - u)
    d_minus = np.max(u - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


def least_squares_line(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xbar, ybar = x.mean(), y.mean()
    slope = float(np.sum((x - xbar) * (y - ybar)) / np.sum((x - xbar) ** 2))
    return slope, float(ybar - slope * xbar)
