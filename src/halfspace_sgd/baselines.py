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
per worker, whatever n is. Newton makes one pass at w0 and one per Armijo
try, each giving the objective, gradient and Hessian at once; an accepted
try's pass is the next iteration's. A subgradient step makes one pass for
its gradient. A pass maps its blocks over `workers` threads
(learner.map_jobs) and adds their sums in block order, so a fit is bitwise
the same at every worker count.
"""

from __future__ import annotations

import numpy as np

from .distributions import block_rows
from .learner import map_jobs
from .losses import ConvexSurrogate

__all__ = ["full_batch_minimize"]


def _pass(terms, loss, X, y, w, workers):
    """terms(loss, Xb, yb, t) of every row block, with t = -y <x, w> the
    block's margins, in block order. The blocks run on learner.map_jobs over
    `workers` threads, each from w alone, so the list does not depend on the
    thread count; a block that raises raises here."""
    rows = block_rows(X.shape[1])

    def block(lo):
        Xb, yb = X[lo : lo + rows], y[lo : lo + rows]
        return terms(loss, Xb, yb, yb * (Xb @ -w))

    parts = map_jobs(block, range(0, X.shape[0], rows), workers)
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return parts


def _gradient_terms(loss, Xb, yb, t):
    return -(yb * loss.slope(t)) @ Xb


def _newton_terms(loss, Xb, yb, t):
    """A block's sums of l(t), of y x l'(t) and of l''(t) x x^T. l'' is
    p (1 - p) with p = l'(t) for the logistic, 2 on the active set for the
    squared hinge."""
    f = float(np.sum(loss.value(t)))
    p = loss.slope(t)
    g = (yb * p) @ Xb
    curve = p * (1.0 - p) if loss.kind == "logistic" else 2.0 * (t >= -1.0)
    return f, g, Xb.T @ (Xb * curve[:, None])


def _gradient(loss, X, y, w, workers=1):
    """Mean of -y x l'(t) over the rows, its block sums added in block order."""
    return sum(_pass(_gradient_terms, loss, X, y, w, workers)) / X.shape[0]


def _newton_pass(loss, X, y, w, workers):
    """(gradient, objective, Hessian) of the mean loss at w from one pass,
    each block's sums added in block order."""
    d = X.shape[1]
    g, f, H = np.zeros(d), 0.0, np.zeros((d, d))
    for fb, gb, Hb in _pass(_newton_terms, loss, X, y, w, workers):
        f += fb
        g -= gb
        H += Hb
    n = X.shape[0]
    return g / n, f / n, H / n


def _newton(loss, X, y, w0, gtol, max_iter, workers):
    """Damped Newton with Armijo backtracking. Every try's pass gives its
    objective, gradient and Hessian at once, and the accepted try's pass is
    the next iteration's: a fit makes 1 + (tries) passes."""
    d = X.shape[1]
    w = np.asarray(w0, dtype=float).copy()
    g, f0, H = _newton_pass(loss, X, y, w, workers)
    for it in range(max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gtol or it == max_iter:
            return w, gnorm, it
        step = np.linalg.solve(H + 1e-12 * np.eye(d), g)
        decrement = float(g @ step)
        alpha = 1.0
        # the first try whose objective is not above the Armijo line (a nan is
        # not), or the one at alpha <= 1e-14 whatever its objective
        while True:
            w_try = w - alpha * step
            g_try, f_try, H_try = _newton_pass(loss, X, y, w_try, workers)
            if alpha <= 1e-14 or not f_try > f0 - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        w, g, f0, H = w_try, g_try, f_try, H_try


def _subgradient(loss, X, y, w0, gtol, max_iter, workers):
    w = np.asarray(w0, dtype=float).copy()
    best_w, best_norm = w.copy(), np.inf
    for it in range(max_iter):
        g = _gradient(loss, X, y, w, workers)
        gnorm = float(np.linalg.norm(g))
        if gnorm < best_norm:
            best_w, best_norm = w.copy(), gnorm
        if gnorm <= gtol:
            return best_w, best_norm, it
        w = w - 0.5 / (1.0 + it) ** 0.75 * g
    return best_w, best_norm, max_iter


def full_batch_minimize(loss: ConvexSurrogate, X, y, w0, gtol: float = 1e-6,
                        max_iter: int = 500, workers: int = 1):
    """Minimize mean l(-y <x, w>) over w; returns (w, grad_norm, iterations).

    Deterministic given (loss, X, y, w0). Newton with backtracking for the
    smooth losses; for the hinge, plain subgradient descent that returns the
    iterate with the smallest subgradient norm.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if loss.kind in ("logistic", "squared_hinge"):
        return _newton(loss, X, y, w0, gtol, max_iter, workers)
    return _subgradient(loss, X, y, w0, gtol, max_iter * 20, workers)
