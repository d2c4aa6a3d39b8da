"""Deterministic full-batch minimization of the convex objectives.

The comparison harness needs the *minimizer* of the empirical convex
objective on a large fixed batch, to gradient norm <= 1e-6, with no
stochastic noise. For the smooth losses (logistic, squared hinge) a damped
Newton iteration with Armijo backtracking gets there in a handful of steps
even on heavy-tailed data where plain gradient descent is hopeless (the
minimizer norm is ~20 and the curvature ratio ~1e4). The hinge is not
differentiable, so it gets plain subgradient descent with a decaying step
that returns its best iterate, the one with the smallest subgradient norm;
callers that need a certified stationary point should use a smooth loss.

Both run in bounded memory. Every pass over the data goes through it in
row blocks of about 1 MiB of X (distributions.block_rows: 65,536 rows at
d = 2) and recomputes each block's margins from w, so no array of the
data's length lives during a fit: its temporaries are a few blocks' worth
whatever n is. A Newton iteration takes one pass for the gradient, the
objective and the Hessian at w, each Armijo try one pass for its objective,
and a subgradient step one pass for its gradient.
"""

from __future__ import annotations

import numpy as np

from .distributions import block_rows
from .losses import ConvexSurrogate

__all__ = ["full_batch_minimize"]


def _blocks(X, y, w):
    """(rows of X, their labels, their margins t = -y <x, w>) per row block."""
    rows = block_rows(X.shape[1])
    for lo in range(0, X.shape[0], rows):
        Xb, yb = X[lo : lo + rows], y[lo : lo + rows]
        yield Xb, yb, yb * (Xb @ -w)


def _objective(loss, X, y, w) -> float:
    """Mean l(-y <x, w>) over the rows, summed block by block."""
    return sum(float(np.sum(loss.value(t))) for _, _, t in _blocks(X, y, w)) / X.shape[0]


def _gradient(loss, X, y, w):
    """Mean of -y x l'(t) over the rows, summed block by block."""
    return sum(-(yb * loss.slope(t)) @ Xb for Xb, yb, t in _blocks(X, y, w)) / X.shape[0]


def _newton_pass(loss, X, y, w):
    """(gradient, objective, Hessian) of the mean loss at w, from one pass
    over the row blocks. The Hessian weights are l''(t): p (1 - p) with
    p = l'(t) for the logistic, 2 on the active set for the squared hinge."""
    d = X.shape[1]
    g, f, H = np.zeros(d), 0.0, np.zeros((d, d))
    for Xb, yb, t in _blocks(X, y, w):
        f += float(np.sum(loss.value(t)))
        p = loss.slope(t)
        g -= (yb * p) @ Xb
        curve = p * (1.0 - p) if loss.kind == "logistic" else 2.0 * (t >= -1.0)
        H += Xb.T @ (Xb * curve[:, None])
    n = X.shape[0]
    return g / n, f / n, H / n


def _newton(loss, X, y, w0, gtol, max_iter):
    """Damped Newton with Armijo backtracking."""
    d = X.shape[1]
    w = np.asarray(w0, dtype=float).copy()
    for it in range(max_iter + 1):
        g, f0, H = _newton_pass(loss, X, y, w)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gtol or it == max_iter:
            return w, gnorm, it
        step = np.linalg.solve(H + 1e-12 * np.eye(d), g)
        decrement = float(g @ step)
        alpha = 1.0
        while alpha > 1e-14 and _objective(loss, X, y, w - alpha * step) > f0 - 1e-4 * alpha * decrement:
            alpha *= 0.5
        w = w - alpha * step  # the accepted try, or the last, tiny step when none was


def _subgradient(loss, X, y, w0, gtol, max_iter):
    w = np.asarray(w0, dtype=float).copy()
    best_w, best_norm = w.copy(), np.inf
    for it in range(max_iter):
        g = _gradient(loss, X, y, w)
        gnorm = float(np.linalg.norm(g))
        if gnorm < best_norm:
            best_w, best_norm = w.copy(), gnorm
        if gnorm <= gtol:
            return best_w, best_norm, it
        w = w - 0.5 / (1.0 + it) ** 0.75 * g
    return best_w, best_norm, max_iter


def full_batch_minimize(loss: ConvexSurrogate, X, y, w0=None, gtol: float = 1e-6,
                        max_iter: int = 500):
    """Minimize mean l(-y <x, w>) over w; returns (w, grad_norm, iterations).

    Deterministic given (loss, X, y, w0). Newton with backtracking for the
    smooth losses; for the hinge, plain subgradient descent that returns the
    iterate with the smallest subgradient norm.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if w0 is None:
        w0 = np.zeros(X.shape[1])
        w0[-1] = 1.0
    if loss.kind in ("logistic", "squared_hinge"):
        return _newton(loss, X, y, w0, gtol, max_iter)
    return _subgradient(loss, X, y, w0, gtol, max_iter * 20)
