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
"""

from __future__ import annotations

import numpy as np

from .losses import ConvexSurrogate, convex_grad_mean, convex_loss_mean

__all__ = ["full_batch_minimize"]


def _hessian(loss, X, y, w):
    """Mean of l''(-y <x, w>) x x^T, one weighted column product per row of
    the d x d result, so no weighted copy of X is made."""
    t = -y * (X @ w)
    if loss.kind == "logistic":
        p = loss.slope(t)
        curve = p * (1.0 - p)
    else:  # squared_hinge: l'' = 2 on the active set
        curve = 2.0 * (t >= -1.0)
    return np.stack([(X[:, i] * curve) @ X for i in range(X.shape[1])]) / X.shape[0]


def _newton(loss, X, y, w0, gtol, max_iter):
    d = X.shape[1]
    w = np.asarray(w0, dtype=float).copy()
    g = convex_grad_mean(w, X, y, loss)
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gtol:
            return w, gnorm, it
        H = _hessian(loss, X, y, w) + 1e-12 * np.eye(d)
        step = np.linalg.solve(H, g)
        f0 = convex_loss_mean(w, X, y, loss)
        decrement = float(g @ step)
        alpha = 1.0
        while alpha > 1e-14:
            w_try = w - alpha * step
            if convex_loss_mean(w_try, X, y, loss) <= f0 - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        w = w - alpha * step
        g = convex_grad_mean(w, X, y, loss)
    return w, float(np.linalg.norm(g)), max_iter


def _subgradient(loss, X, y, w0, gtol, max_iter):
    w = np.asarray(w0, dtype=float).copy()
    best_w, best_norm = w.copy(), np.inf
    for it in range(max_iter):
        g = convex_grad_mean(w, X, y, loss)
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
