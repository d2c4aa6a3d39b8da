"""Deterministic polar quadrature of the population convex-objective gradient
under the far-flip construction, and the cone certification built on it.

The observed label is constant on angular sectors cut by the w*-boundary
rays and the w_tilde line, and constant in radius on either side of the flip
radius Z; each such piece takes the label noise.corrupt_labels gives its
midpoint, so the oracle and the datasets share one label rule. Working in
the frame where the query point w sits on the positive second axis
(w = rho * e2), the first gradient coordinate of each sector-by-annulus cell
reduces exactly to a radial integral,

    (1/rho) * int r gamma(r) [ l(-y rho r sin phi2) - l(-y rho r sin phi1) ] dr,

because the angular factor -y r cos(phi) l'(-y rho r sin phi) is a perfect
derivative in phi. The second coordinate is integrated with loss-specific
inner rules: a closed-form partial radial moment for the hinge (whose slope
is a step in r), a smooth 2D tensor rule for the logistic. All pieces are
split at every kink locus before quadrature, so the panel-doubling error
estimates are honest; quadrature.refine_by_doubling floors every one of
them at double-precision roundoff.

Symmetry: the far-flip set is odd under x -> -x (see noise) and the density
is radial, so y(-x) = -y(x) and the integrand -y x l'(-y <x, w>) is even in
x. The label-change angles come in antipodal pairs, so only the sectors of
the half-plane [brk[0], brk[0] + pi] are integrated; the sums over S and S^c
and their error estimates are doubled, and the tol/10 truncation budget is
added once.

Batching: every sector x annulus x kink-split piece of every point of a scan
is one row of one of two rules (the radial first coordinate; the angular or
tensor second coordinate), and one refine_by_doubling call drives them all.
The rows of all points are built in array passes over (point, sector,
annulus, split), and come out in that order; it fixes the order in which
each point adds up its pieces, so each point's sums are bitwise those of
the point alone.
Each doubling level evaluates the rows that have not converged in stacked
array passes of at most _BLOCK_NODES nodes; each row keeps its own stopping
test and roundoff floor. The logistic tensor rule factors its integrand as
a^T S b (radial weight a, angular weight b, slope S = (1 + tanh(t/2))/2),
so only S is materialized. A row's arithmetic depends on that row alone, so
a point's gradient is bitwise the same alone as inside a scan_cone batch.

Truncation: integrals stop at r_max chosen from the closed-form tails so the
neglected mass contributes less than tol/10 (heavy-tailed families need
r_max growing like (1/tol)^(1/(s-1))). The bound uses |l'| <= 1 alone, so it
does not depend on w and is found once per batch.

The oracle implements the losses in ORACLE_KINDS and raises ValueError for
any other: the squared hinge's slope is unbounded, so its tail bound would
grow with ||w||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import distributions as dist
from .geometry import rotate2d
from .losses import ConvexSurrogate
from .noise import NoiseModel, corrupt_labels, far_flip
from .quadrature import GL_ORDER, QuadratureError, gl_panels, refine_by_doubling

__all__ = [
    "QuadratureSpec",
    "ConeScanReport",
    "admissible_theta",
    "predicted_floor",
    "scan_cone",
]

ANGLE_MARGIN = 1e-9  # safety margin subtracted from the admissible cone angle
ORACLE_KINDS = ("logistic", "hinge")  # the convex losses the oracle integrates
_BLOCK_NODES = 1 << 17  # nodes per stacked array pass: bounds a level's temporaries
_TENSOR_NODES = 16_000_000  # node budget of one 2D tensor cell
_RADIAL_PANELS = 4  # initial panels of every radial interval
_ANGULAR_PANELS = 4  # initial panels of every angular interval
_MAX_DOUBLINGS = 12  # doubling budget of every integral


@dataclass(frozen=True)
class QuadratureSpec:
    """Target accuracy of every population-gradient integral."""

    tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")


@dataclass
class ConeScanReport:
    """Certification scan of ||grad C|| over a cone of directions around w*."""

    loss: str
    family: str
    Z: float
    theta: float
    grid_points: int
    min_grad_norm: float
    argmin_angle: float
    max_quad_error: float


def _auto_r_max(spec, tol: float) -> float:
    """Truncation radius: neglected tail contributes <= tol/10 to the
    gradient, as |grad tail| <= E[1{r >= R} r] when |l'| <= 1."""
    return dist._invert_decreasing(lambda R: dist.truncated_first_moment(spec, R), tol / 10.0)


def _math(f, *xs) -> np.ndarray:
    """f of the math module, elementwise over same-shaped arrays: numpy's
    SIMD asin and atan2 can differ from it in the last bit, and the rows
    must equal those the per-point scalar form gives."""
    return np.array(list(map(f, *(x.ravel().tolist() for x in xs))), dtype=float).reshape(xs[0].shape)


def _break_angles(model: NoiseModel, shifts: np.ndarray) -> np.ndarray:
    """Label-change angles in each point's w-frame, sorted, one row per frame
    shift: the w*-boundary rays and the w_tilde line."""
    a_star = math.atan2(model.w_star[1], model.w_star[0])
    a_tilde = math.atan2(model.w_tilde[1], model.w_tilde[0])
    angles = np.array([a_star - math.pi / 2.0, a_star + math.pi / 2.0, a_tilde, a_tilde + math.pi])
    return np.sort(np.round(np.mod(angles - shifts[:, None], 2.0 * math.pi), 14), axis=1)


def _split(lo, hi, kinks):
    """(a, b, keep) of [lo, hi] cut at the kinks strictly inside it (NaN for
    none), over a trailing split axis: each interval's pieces in increasing
    order where keep; equal kinks give one cut."""
    lo, hi = (np.broadcast_to(v, kinks.shape[:-1])[..., None] for v in (lo, hi))
    cuts = np.sort(np.where((kinks > lo + 1e-13) & (kinks < hi - 1e-13), kinks, hi), axis=-1)
    edges = np.concatenate([lo, cuts, hi], axis=-1)
    return edges[..., :-1], edges[..., 1:], edges[..., :-1] < edges[..., 1:]


def _rule_rows(loss, model: NoiseModel, ws, r_max: float):
    """Parameter rows of both rules for every piece of the points ws: (radial
    rows, their indices, second-coordinate rows, their indices, frame
    shifts), an index being 2 * point + (1 if the piece lies in S).

    A point's pieces are its half-plane's two sectors [brk0, brk1],
    [brk1, brk2] by the annuli (S^c, then S), each cut at its kinks: the
    hinge's radii 1/(rho y sin p) and, for its second coordinate, the angles
    where r = 1/(rho y sin phi) crosses an annulus edge and the zeros of
    sin(phi). Every array here is laid out (point, sector, annulus, split),
    so each rule's rows come out in that order, which fixes the order each
    point adds its pieces in. ValueError unless every point's break angles
    are four distinct antipodal pairs.
    """
    W = np.asarray(ws, dtype=float).reshape(-1, 2)
    rho = np.sqrt(np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0])  # x.dot(x) per point, as np.linalg.norm
    shifts = _math(math.atan2, W[:, 1], W[:, 0]) - math.pi / 2.0
    brk = _break_angles(model, shifts)
    if np.any(brk[:, 1:] == brk[:, :-1]) or np.any(np.abs(brk[:, 2:] - brk[:, :2] - math.pi) > 1e-12):
        raise ValueError("the label-change angles are not antipodally symmetric")
    annuli = np.array([(0.0, r_max)] if model.Z >= r_max else [(0.0, model.Z), (model.Z, r_max)])
    ra, rb = annuli.T
    p1, p2 = brk[:, :2, None], brk[:, 1:3, None]  # (point, sector, 1)
    # the observed label is constant on each sector x annulus piece: label its midpoint
    phi, r = 0.5 * (p1 + p2) + shifts[:, None, None], 0.5 * (ra + rb)
    mid = np.stack(np.broadcast_arrays(r * np.cos(phi), r * np.sin(phi)), axis=-1)
    y = corrupt_labels(model, mid.reshape(-1, 2))[0].reshape(mid.shape[:-1])  # (point, sector, annulus)
    rho3 = rho[:, None, None]
    yr = y * rho3
    at = np.broadcast_to(2 * np.arange(len(W))[:, None, None] + np.arange(len(annuli)), y.shape)

    sines = _math(math.sin, brk[:, :3])
    s = np.stack([sines[:, :2], sines[:, 1:]], axis=-1)[:, :, None]  # (point, sector, 1, sin p1 | sin p2)
    hinged = (y[..., None] * s > 1e-300) & (loss.kind == "hinge")
    a, b, keep = _split(ra, rb, 1.0 / np.where(hinged, yr[..., None] * s, np.nan))
    radial = np.stack(np.broadcast_arrays(a, b, -yr[..., None] * s[..., :1], -yr[..., None] * s[..., 1:],
                                          rho3[..., None]), axis=-1)[keep]
    radial_at = np.broadcast_to(at[..., None], keep.shape)[keep]
    if loss.kind == "logistic":
        second = np.stack(np.broadcast_arrays(y, rho3, p1, p2, ra, rb), axis=-1).reshape(-1, 6)
        return radial, radial_at, second, at.ravel(), shifts

    # the angles where r = 1/(rho y sin phi) crosses an annulus edge e > 0: +-asin(1/(rho e)), mirrored
    c = 1.0 / (rho3 * np.where(annuli > 0.0, annuli, np.nan))  # (point, annulus, ra | rb)
    base = np.full(c.shape, np.nan)
    base[c <= 1.0] = _math(math.asin, c[c <= 1.0])
    base = np.where(y[..., None] > 0, base[:, None], -base[:, None])  # (point, sector, annulus, edge)
    turns = np.array([-2.0 * math.pi, 0.0, 2.0 * math.pi])
    crossings = (np.stack([base, math.pi - base], axis=-1)[..., None] + turns).reshape(y.shape + (12,))
    poles = np.broadcast_to(np.array([-math.pi, 0.0, math.pi, 2.0 * math.pi]), y.shape + (4,))
    a, b, keep = _split(p1, p2, np.concatenate([crossings, poles], axis=-1))
    second = np.stack(np.broadcast_arrays(a, b, *(v[..., None] for v in (y, rho3, ra, rb))), axis=-1)[keep]
    return radial, radial_at, second, np.broadcast_to(at[..., None], keep.shape)[keep], shifts


def _row_blocks(rows: int, nodes_per_row: int) -> list[slice]:
    """Consecutive row slices of at most _BLOCK_NODES nodes (one row at least)."""
    step = max(1, _BLOCK_NODES // nodes_per_row)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _line_level(integrand, geometric, panels, rows, k):
    """Integrals over [a, b] at doubling level k, one per row (a, b, *params):
    integrand(params, x) on one row of nodes x per row, with geometric panels
    where `geometric` and a > 0."""
    size = GL_ORDER * (panels << k)
    values, abs_sums = np.empty(rows.shape[0]), np.empty(rows.shape[0])
    for blk in _row_blocks(rows.shape[0], size):
        a, b = rows[blk, 0], rows[blk, 1]
        x, w = gl_panels(a, b, panels << k, geometric & (a > 0.0))
        f = w * integrand(rows[blk, 2:].T[..., None], x)
        values[blk] = f.sum(axis=1)
        abs_sums[blk] = np.abs(f).sum(axis=1)
    return values, abs_sums, size


def _radial_integrand(loss, spec, params, r):
    """First coordinate, params (c1, c2, rho): r gamma(r) [l(c2 r) - l(c1 r)] / rho."""
    c1, c2, rho = params
    return r * dist.radial_density(spec, r) * (loss.value(c2 * r) - loss.value(c1 * r)) / rho


def _partial_m2(spec, a, b):
    """int_a^b r^2 gamma(r) dr, elementwise over arrays."""
    return (dist.truncated_first_moment(spec, a) - dist.truncated_first_moment(spec, b)) / (2.0 * math.pi)


def _angular_integrand(spec, params, phi):
    """Second coordinate for the hinge, params (y, rho, ra, rb).
    The slope is supported on r <= 1/(rho y sin phi) (when y sin phi > 0), so
    the inner radial integral over [ra, rb] is a closed-form partial moment
    and only the angle is integrated."""
    y, rho, ra, rb = params
    s = np.sin(phi)
    ys = y * s
    hi = np.where(ys > 1e-300, np.minimum(rb, 1.0 / (rho * np.maximum(ys, 1e-300))), rb)
    hi = np.maximum(hi, ra)
    return (-y * s) * _partial_m2(spec, ra, hi)


def _tensor_level(spec, tol, rows, k):
    """Second-coordinate logistic integrals at doubling level k, one per row
    (y, rho, p1, p2, ra, rb), by a tensor Gauss rule over r in [ra, rb] and
    phi in [p1, p2].

    The integrand factors as a_r S_rp b_p: the radial weight
    a = r^2 gamma(r) w_r, the angular weight b = -y sin(phi) w_phi and the
    logistic slope S = (1 + tanh(t/2))/2 at t = -y rho r sin(phi). Only S is
    materialized, in blocks of at most _BLOCK_NODES nodes: t/2 is one einsum
    outer product per block ("ri,rj->rij", one pass; each node is the same
    single product a broadcast multiply gives), and S is reduced by one
    matmul against (b, |b|). The value is a^T S b; as S > 0 and a >= 0, the
    roundoff sum is a^T S |b|.
    """
    pr, pa = _RADIAL_PANELS << k, _ANGULAR_PANELS << k
    nr, npts = GL_ORDER * pr, GL_ORDER * pa
    if nr * npts > _TENSOR_NODES:  # node budget: fail loudly, not slowly
        raise QuadratureError(f"2D tensor rule did not reach tol={tol:g} within 16M nodes")
    y, rho, p1, p2, ra, rb = rows.T
    rn, rw = gl_panels(ra, rb, pr, ra > 0.0)
    pn, pw = gl_panels(p1, p2, pa, False)
    s = np.sin(pn)
    a = 0.5 * (rn * dist.radial_density(spec, rn) * rn * rw)  # the 1/2 of S
    b = -y[:, None] * s * pw
    ab = np.stack([b, np.abs(b)], axis=1)
    half_t = (-0.5 * y * rho)[:, None] * rn  # t/2 = half_t[r] * sin(phi)
    u = np.empty((rows.shape[0], 2, nr))  # (S b, S |b|) at every radial node
    span = nr if nr * npts <= _BLOCK_NODES else max(1, _BLOCK_NODES // npts)
    for blk in _row_blocks(rows.shape[0], nr * npts):
        for j in range(0, nr, span):
            S = np.einsum("ri,rj->rij", half_t[blk, j:j + span], s[blk])
            np.tanh(S, out=S)
            S += 1.0
            u[blk, :, j:j + span] = ab[blk] @ S.transpose(0, 2, 1)
    return (u[:, 0] * a).sum(axis=1), (u[:, 1] * a).sum(axis=1), nr * npts


class _Rule(NamedTuple):
    """A family of integrals: one parameter row each, the stacked estimate
    level(rows, k) -> (values, abs_sums, nodes per row), and a name per row."""

    rows: np.ndarray
    level: Callable
    name: Callable


def _integrate(rules, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(values, errors) of every row of every rule, from one
    refine_by_doubling call: each doubling level evaluates the rows that have
    not converged, rule by rule, in stacked array passes."""
    bounds = np.cumsum([0] + [rule.rows.shape[0] for rule in rules])
    active = np.ones(int(bounds[-1]), dtype=bool)

    def estimate(k):
        parts = []
        for rule, lo, hi in zip(rules, bounds[:-1], bounds[1:]):
            rows = rule.rows[active[lo:hi]]
            if rows.shape[0]:
                value, abs_sum, size = rule.level(rows, k)
                parts.append((value, abs_sum, np.full(rows.shape[0], size)))
        value, abs_sum, sizes = (np.concatenate(p) for p in zip(*parts))
        return value, abs_sum, int(sizes.sum()), sizes

    def where(i):
        j = int(np.searchsorted(bounds, i, side="right")) - 1
        return rules[j].name(rules[j].rows[i - bounds[j]])

    values, errors = refine_by_doubling(estimate, tol, _MAX_DOUBLINGS, where, active)
    return [(values[lo:hi], errors[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _gradients(loss: ConvexSurrogate, spec, model: NoiseModel, ws, quad: QuadratureSpec):
    """Population gradients at the points ws: (grads, errors, S parts, Sc
    parts), one row per point, in the original coordinates.

    Every sector x annulus x kink-split piece of every point's half-plane
    is integrated in one refine_by_doubling call. A piece's arithmetic
    depends on that piece alone and each point sums its pieces in a fixed
    order, so a point's row does not depend on the other points, bitwise.
    The truncation radius is found once per call. ValueError for a loss not
    in ORACLE_KINDS, or for break angles that are not antipodal pairs.
    """
    if loss.kind not in ORACLE_KINDS:
        raise ValueError(f"the oracle implements the {' and '.join(ORACLE_KINDS)} losses, not {loss.kind}")
    radial, radial_at, second, second_at, shifts = _rule_rows(loss, model, ws, _auto_r_max(spec, quad.tol))
    if loss.kind == "logistic":
        second_rule = _Rule(second, partial(_tensor_level, spec, quad.tol), lambda row: (
            f"the 2D tensor rule over r in [{row[4]:g}, {row[5]:g}], phi in [{row[2]:g}, {row[3]:g}]"))
    else:
        second_rule = _Rule(second, partial(
            _line_level, partial(_angular_integrand, spec), False, _ANGULAR_PANELS),
            lambda row: f"phi in [{row[0]:g}, {row[1]:g}]")
    radial_rule = _Rule(radial, partial(
        _line_level, partial(_radial_integrand, loss, spec), True, _RADIAL_PANELS),
        lambda row: f"r in [{row[0]:g}, {row[1]:g}]")
    (v1, e1), (v2, e2) = _integrate([radial_rule, second_rule], quad.tol)

    n = len(shifts)
    parts = np.zeros((2 * n, 2))  # w-frame gradient over S^c (even rows) and S (odd rows)
    np.add.at(parts[:, 0], radial_at, v1)
    np.add.at(parts[:, 1], second_at, v2)
    errors = np.zeros(n)
    np.add.at(errors, radial_at // 2, e1)
    np.add.at(errors, second_at // 2, e2)
    parts, errors = 2.0 * parts, 2.0 * errors + quad.tol / 10.0  # both half-planes; truncation beyond r_max

    # rotate back from each point's w-frame
    cos, sin = np.repeat(np.cos(shifts), 2), np.repeat(np.sin(shifts), 2)
    parts = np.stack([cos * parts[:, 0] - sin * parts[:, 1], sin * parts[:, 0] + cos * parts[:, 1]], axis=1)
    in_s, in_sc = parts[1::2], parts[0::2]
    return in_s + in_sc, errors, in_s, in_sc


def admissible_theta(spec, Z: float) -> float:
    """Largest certified cone half-angle at flip radius Z.

    min(pi/8, E[1{||x|| >= Z} ||x||] / (24 E||x||)) minus a 1e-9 margin, so the
    strict inequality of the certification assumption holds at the returned
    value.
    """
    ratio = dist.truncated_first_moment(spec, Z) / (24.0 * dist.mean_norm(spec))
    return max(min(math.pi / 8.0, ratio) - ANGLE_MARGIN, 1e-12)


def predicted_floor(spec, opt: float) -> float:
    """admissible_theta at the flip radius whose tail mass equals opt."""
    if not 0.0 < opt < 0.25:
        raise ValueError("opt must lie in (0, 1/4)")
    return admissible_theta(spec, dist.z_for_tail_mass(spec, opt))


def scan_cone(loss: ConvexSurrogate, spec, Z: float, theta: float, grid_points: int,
              quad: QuadratureSpec = QuadratureSpec()) -> ConeScanReport:
    """Evaluate ||grad C|| on a uniform angular grid of unit vectors within
    +/- theta of w* (both sides) and report the minimum.

    w* is taken as e2 (radial symmetry makes the choice immaterial) and the
    construction uses theta2 = 2 theta. Every grid point is integrated in
    one batched refine_by_doubling call.
    """
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if theta > admissible_theta(spec, Z) + 1e-15:
        raise ValueError("theta exceeds the admissible cone half-angle for this Z")
    w_star = np.array([0.0, 1.0])
    model = far_flip(w_star, Z=Z, theta2=2.0 * theta)
    angles = np.linspace(-theta, theta, grid_points) if grid_points > 1 else np.array([0.0])
    ws = [rotate2d(w_star, float(ang)) for ang in angles]
    grads, errors, _, _ = _gradients(loss, spec, model, ws, quad)
    norms = [float(np.linalg.norm(g)) for g in grads]
    best = int(np.argmin(norms))
    return ConeScanReport(
        loss=loss.kind,
        family=spec.family,
        Z=float(Z),
        theta=float(theta),
        grid_points=int(grid_points),
        min_grad_norm=norms[best],
        argmin_angle=float(angles[best]),
        max_quad_error=float(np.max(errors)),
    )
