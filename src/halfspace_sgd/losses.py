"""Surrogate losses for halfspace learning.

Two families live here and they deliberately use different margin
conventions:

* the non-convex sigmoid surrogate acts on the *normalized* margin
  ``-y <w, x> / ||w||`` (scale-invariant in w, optimized on the sphere);
* the convex surrogates act on the *unnormalized* margin ``-y <x, w>``
  (the classical objective the lower-bound oracle certifies against).

The sigmoid surrogate's gradient is exact and computed over rows, one per
(iterate, example) pair; it is the definition the optimizer's fused
unit-sphere step is checked against. The convex surrogates give the value and
slope of l at given margins; the full-batch baselines take their means over a
dataset from one margin vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "sigmoid",
    "sigmoid_slope",
    "surrogate_grad_rows",
    "ConvexSurrogate",
    "convex_surrogate",
]

CONVEX_KINDS = ("logistic", "hinge", "squared_hinge")


def sigmoid(t, sigma: float = 1.0):
    """Logistic link 1 / (1 + exp(-t/sigma)) = (1 + tanh(t/(2 sigma)))/2.

    One ufunc with no sign masks and no overflow at any t; accurate to
    within eps in absolute terms (not relative ones far in the lower tail).
    Accepts scalars or arrays; non-decreasing in t. Raises ValueError unless
    sigma > 0.
    """
    if not np.all(np.asarray(sigma) > 0):
        raise ValueError("sigma must be positive")
    out = 0.5 * (1.0 + np.tanh(np.asarray(t, dtype=float) / (2.0 * sigma)))
    if out.ndim == 0:
        return float(out)
    return out


def sigmoid_slope(t, sigma: float = 1.0):
    """d/dt sigmoid(t, sigma) = e / (sigma (1 + e)^2) with e = exp(-|t|/sigma).

    Even in t, no sign masks, and no overflow at any finite t/sigma. sigma is
    a scalar or broadcasts against t; it is not checked here, so callers pass
    validated widths (PsgdConfig, LearnerConfig). The PSGD step does not call
    it: it uses the equal form 1 / (4 sigma cosh^2(t / (2 sigma))), checked
    against this one in the tests.
    """
    e = np.exp(-np.abs(t) / sigma)
    return e / (sigma * (1.0 + e) ** 2)


def surrogate_grad_rows(W, X, y, sigma: float) -> np.ndarray:
    """Gradient in w of the sigmoid surrogate S_sigma(-y <w,x> / ||w||), one
    per row (W[i], X[i], y[i]).

    With h = <w,x>/||w|| the gradient is -y S'_sigma(h)/||w|| * (x - (h/||w||) w)
    (S' is even); for unit-norm w it is orthogonal to w. W and X are (k, d);
    y is (k,); sigma is a scalar or one width per row. Row-local: row i does
    not depend on the other rows. At unit-norm w, w - beta times this row is
    the optimizer's step before its rescale; the optimizer computes it in
    fused form, without the 1/||w|| factors.
    """
    W = np.asarray(W, dtype=float)
    X = np.asarray(X, dtype=float)
    norms = np.sqrt(np.einsum("ij,ij->i", W, W))
    h = np.einsum("ij,ij->i", W, X) / norms
    coef = -np.asarray(y, dtype=float) * sigmoid_slope(h, sigma) / norms
    return coef[:, None] * (X - (h / norms)[:, None] * W)


@dataclass(frozen=True)
class ConvexSurrogate:
    """A convex, non-decreasing, non-constant scalar loss t -> l(t).

    `value` and `slope` accept scalars or arrays. At the hinge kink the slope
    is the one-sided derivative from the right, so gradients are deterministic.
    """

    kind: str

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "logistic":
            # softplus, stable: log(1 + e^t) = max(t, 0) + log1p(e^{-|t|})
            out = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
        elif self.kind == "hinge":
            out = np.maximum(0.0, 1.0 + t)
        elif self.kind == "squared_hinge":
            out = np.maximum(0.0, 1.0 + t) ** 2
        else:
            raise ValueError(f"unknown convex surrogate kind: {self.kind!r}")
        return float(out) if out.ndim == 0 else out

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "logistic":
            out = sigmoid(t, 1.0)
        elif self.kind == "hinge":
            out = np.where(t >= -1.0, 1.0, 0.0)
        elif self.kind == "squared_hinge":
            out = 2.0 * np.maximum(0.0, 1.0 + t)
        else:
            raise ValueError(f"unknown convex surrogate kind: {self.kind!r}")
        return float(out) if np.asarray(out).ndim == 0 else out


def convex_surrogate(kind: str) -> ConvexSurrogate:
    if kind not in CONVEX_KINDS:
        raise ValueError(f"unknown convex surrogate kind {kind!r}; expected one of {CONVEX_KINDS}")
    return ConvexSurrogate(kind)
