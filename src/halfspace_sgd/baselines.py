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

from .losses import ConvexSurrogate

__all__ = ["full_batch_minimize"]


def _mean_grad(loss, X, y, t):
    """Mean of -y x l'(t) over the rows, from the margins t = -y <x, w>."""
    return ((-y * loss.slope(t)) @ X) / X.shape[0]


def _newton(loss, X, y, w0, gtol, max_iter):
    """Damped Newton with Armijo backtracking. The gradient, the Hessian
    weights l''(t) and the objective all come from the margins t of the
    accepted iterate, and the accepted try's margins become the next
    iterate's: one X @ w pass per try."""
    n, d = X.shape
    w = np.asarray(w0, dtype=float).copy()
    t = -y * (X @ w)
    for it in range(max_iter):
        g = _mean_grad(loss, X, y, t)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gtol:
            return w, gnorm, it
        f0 = float(np.mean(loss.value(t)))
        if loss.kind == "logistic":
            curve = loss.slope(t)
            curve *= 1.0 - curve
        else:  # squared_hinge: l'' = 2 on the active set
            curve = 2.0 * (t >= -1.0)
        # one weighted column product per row of H, so no weighted copy of X
        H = np.stack([(X[:, i] * curve) @ X for i in range(d)]) / n + 1e-12 * np.eye(d)
        del t, curve  # freed before the tries allocate their margins, which bounds the peak
        step = np.linalg.solve(H, g)
        decrement = float(g @ step)
        alpha = 1.0
        while alpha > 1e-14:
            w_try = w - alpha * step
            t = -y * (X @ w_try)
            if float(np.mean(loss.value(t))) <= f0 - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        else:  # no try accepted: take the last, tiny step
            w_try = w - alpha * step
            t = -y * (X @ w_try)
        w = w_try
    return w, float(np.linalg.norm(_mean_grad(loss, X, y, t))), max_iter


def _subgradient(loss, X, y, w0, gtol, max_iter):
    w = np.asarray(w0, dtype=float).copy()
    best_w, best_norm = w.copy(), np.inf
    for it in range(max_iter):
        g = _mean_grad(loss, X, y, -y * (X @ w))
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
