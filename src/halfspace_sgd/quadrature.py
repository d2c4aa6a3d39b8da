"""Gauss-Legendre panel quadrature with doubling-based error control, over
batches of integrals.

All oracle integrals reduce to integrals of piecewise-smooth functions over
explicit breakpoints, integrated per panel with a fixed-order Gauss-Legendre
rule; panel counts double until two successive estimates agree to the
requested tolerance. Tail pieces use geometrically spaced panels so
heavy-tailed integrands (support out to r ~ 1e5) stay cheap.

refine_by_doubling drives a whole batch of independent integrals: each
doubling level is one call of the batch's estimate, which evaluates only the
integrals that have not converged yet, in one stacked array pass. Every
integral keeps its own stopping test and its own roundoff floor, so its
result does not depend on which other integrals share the batch.

Error estimates are floored at double-precision roundoff: an estimate
sum_i w_i f_i over n nodes is never reported with an error below
log2(n) * eps * sum_i |w_i f_i|, computed from the same node values. Two
successive estimates can agree bitwise, so without the floor the reported
error could be 0. A tol at or below the floor cannot be certified and
raises QuadratureError at once instead of doubling until the budget runs out.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GL_ORDER", "QuadratureError", "gl_panels", "refine_by_doubling"]

GL_ORDER = 16  # Gauss-Legendre nodes per panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """Raised when panel doubling cannot meet its tolerance: either tol is at
    or below the roundoff floor of an estimate, or the doubling budget runs
    out first."""


def gl_panels(a, b, panels: int, geometric) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, one row per interval [a_i, b_i] cut
    into `panels` panels: geometrically spaced where geometric (a scalar or
    one flag per row; needs a_i > 0), uniform elsewhere. Each row depends on
    its own interval only."""
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    geometric = np.asarray(geometric, dtype=bool).reshape(-1, 1)
    u = np.arange(panels + 1) / panels
    lo = np.where(geometric, a, 1.0)
    edges = np.where(geometric, lo * (b / lo) ** u, a + (b - a) * u)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    nodes = (mid[..., None] + half[..., None] * _GL_X).reshape(a.shape[0], -1)
    weights = (half[..., None] * _GL_W).reshape(a.shape[0], -1)
    return nodes, weights


def refine_by_doubling(estimate, tol: float, max_doublings: int, where, active: np.ndarray):
    """Panel-doubling driver shared by every quadrature rule, over a batch of
    independent integrals; returns their (values, errors) as arrays.

    `active` holds one True per integral on entry. The driver clears an
    integral's entry once it has converged, and estimate(k) reads it:
    estimate(k) returns (values, abs_sums, nodes, sizes) for the active
    integrals only, in index order, each at 2**k times its initial panel
    count. abs_sums are sum_i |w_i f_i| per integral, sizes its node count,
    and nodes the call's total node count (an int). An integral stops when
    two successive values differ by less than tol; its reported error is
    that difference, floored at log2(size) * eps * abs_sum. where(i) names
    integral i in error messages. Raises QuadratureError if tol is at or
    below the floor of any estimate, or if max_doublings pass without
    convergence.
    """
    values = np.empty(active.size)
    errors = np.empty(active.size)
    prev = np.empty(active.size)

    def floored(k):
        idx = np.flatnonzero(active)
        value, abs_sum, _, sizes = estimate(k)
        floor = np.log2(sizes) * _EPS * abs_sum
        bad = np.flatnonzero(tol <= floor)
        if bad.size:
            j = bad[0]
            raise QuadratureError(
                f"tol={tol:g} is below the roundoff floor {floor[j]:.3g} of {where(idx[j])} "
                f"(value {value[j]:.17g} at {sizes[j]} nodes)"
            )
        return idx, value, floor

    idx, first, _ = floored(0)
    prev[idx] = first
    change = np.full(active.size, math.inf)
    for k in range(1, max_doublings + 1):
        idx, cur, floor = floored(k)
        change[idx] = np.abs(cur - prev[idx])
        done = change[idx] < tol
        values[idx[done]] = cur[done]
        errors[idx[done]] = np.maximum(change[idx[done]], floor[done])
        active[idx[done]] = False
        if not active.any():
            return values, errors
        prev[idx] = cur
    i = int(np.flatnonzero(active)[0])
    raise QuadratureError(
        f"panel doubling did not reach tol={tol:g} on {where(i)} "
        f"(last change {change[i]:g} after {max_doublings} doublings)"
    )

