"""Deterministic polar quadrature of the population convex-objective gradient
under the far-flip construction, and the cone certification built on it.

The observed label is constant on angular sectors cut by the w*-boundary
rays and the w_tilde line, and constant in radius on either side of the flip
radius Z. Working in the frame where the query point w sits on the positive
second axis (w = rho * e2), the first gradient coordinate of each
sector-by-annulus cell reduces exactly to a radial integral,

    (1/rho) * int r gamma(r) [ l(-y rho r sin phi2) - l(-y rho r sin phi1) ] dr,

because the angular factor -y r cos(phi) l'(-y rho r sin phi) is a perfect
derivative in phi. The second coordinate is integrated with loss-specific
inner rules: closed-form partial radial moments for hinge and squared hinge
(whose slope is piecewise linear in r), a smooth 2D tensor rule for the
logistic. All pieces are split at every kink locus before quadrature, so the
panel-doubling error estimates are honest; quadrature.refine_by_doubling
floors every one of them at double-precision roundoff.

Truncation: integrals stop at r_max chosen from the closed-form tails so the
neglected mass contributes less than tol/10 (heavy-tailed families need
r_max growing like (1/tol)^(1/(s-1))). For the logistic and hinge losses the
bound does not depend on w, so scan_cone finds r_max once per scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import distributions as dist
from .geometry import rotate2d
from .losses import ConvexSurrogate
from .noise import NoiseModel, far_flip
from .quadrature import QuadratureError, gl_nodes, integrate_refining, refine_by_doubling

__all__ = [
    "QuadratureSpec",
    "ConeScanReport",
    "convex_population_grad",
    "admissible_theta",
    "predicted_floor",
    "scan_cone",
    "grad_monte_carlo",
]

ANGLE_MARGIN = 1e-9  # safety margin subtracted from the admissible cone angle
# (loss kind, family) pairs the oracle refuses for every s: the truncation
# bound for the unbounded squared-hinge slope is only derived for light tails
UNSUPPORTED_PAIRS = frozenset({("squared_hinge", "heavy_tailed")})


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel-doubling control for the population-gradient integrals."""

    radial_panels: int = 4
    angular_panels: int = 4
    r_max: float | None = None  # None: from the closed-form tail at tol/10
    tol: float = 1e-9
    max_doublings: int = 12

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
    theta2: float
    grid_points: int
    min_grad_norm: float
    argmin_w: np.ndarray
    argmin_angle: float
    max_quad_error: float


def _loss_linf_slope(loss: ConvexSurrogate) -> float | None:
    return 1.0 if loss.kind in ("logistic", "hinge") else None


def _auto_r_max(loss: ConvexSurrogate, spec, rho: float, tol: float) -> float:
    """Truncation radius: neglected tail contributes <= tol/10 to the gradient."""
    if (loss.kind, spec.family) in UNSUPPORTED_PAIRS:
        raise NotImplementedError(f"the {loss.kind} oracle is not implemented for the {spec.family} family")
    if _loss_linf_slope(loss) is not None:
        # |grad tail| <= E[1{r >= R} r] since l' <= 1
        def bound(R):
            return dist.truncated_first_moment(spec, R)
    else:
        # |grad tail| <= E[1{r >= R} r * 2(1 + rho r)]
        def bound(R):
            return (
                2.0 * dist.truncated_first_moment(spec, R)
                + 2.0 * rho * dist.truncated_second_moment(spec, R)
            )

    return dist._invert_decreasing(bound, tol / 10.0)


def _sector_break_angles(model: NoiseModel, frame_shift: float) -> np.ndarray:
    """Label-change angles in the w-frame: w*-boundary rays and the w_tilde line."""
    a_star = math.atan2(model.w_star[1], model.w_star[0])
    angles = [a_star - math.pi / 2.0, a_star + math.pi / 2.0]
    if model.kind == "far_flip":
        a_tilde = math.atan2(model.w_tilde[1], model.w_tilde[0])
        angles += [a_tilde, a_tilde + math.pi]
    shifted = np.mod(np.asarray(angles) - frame_shift, 2.0 * math.pi)
    return np.unique(np.round(shifted, 14))


def _sector_labels(model: NoiseModel, frame_shift: float, phi_mid: float) -> tuple[float, float]:
    """(inner label, outer label) of the sector containing w-frame angle phi_mid."""
    u = np.array([math.cos(phi_mid + frame_shift), math.sin(phi_mid + frame_shift)])
    clean = 1.0 if float(u @ model.w_star) >= 0.0 else -1.0
    if model.kind != "far_flip":
        return clean, clean
    in_c = float(u @ model.w_star) * float(u @ model.w_perp) <= 0.0
    return clean, (clean if in_c else -clean)


def _split_at(points, lo: float, hi: float) -> np.ndarray:
    inner = [p for p in points if lo + 1e-13 < p < hi - 1e-13]
    return np.unique(np.concatenate([[lo], np.sort(inner), [hi]]))


def _e1_piece(loss, spec, rho, y, s1, s2, ra, rb, quad) -> tuple[float, float]:
    """First-coordinate contribution of one sector/annulus cell (w-frame)."""

    def integrand(r):
        return (
            dist.radial_density(spec, r)
            * r
            * (loss.value(-y * rho * r * s2) - loss.value(-y * rho * r * s1))
            / rho
        )

    # hinge-type kinks sit at radii where -y rho r s_i = -1
    kinks = []
    if loss.kind in ("hinge", "squared_hinge"):
        for s in (s1, s2):
            if y * s > 1e-300:
                kinks.append(1.0 / (rho * y * s))
    total, err = 0.0, 0.0
    edges = _split_at(kinks, ra, rb)
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = integrate_refining(
            integrand, a, b, quad.tol, quad.radial_panels, quad.max_doublings, geometric=(a > 0.0)
        )
        total += v
        err += e
    return total, err


def _partial_m2(spec, a, b):
    """int_a^b r^2 gamma(r) dr, elementwise over arrays."""
    return (dist.truncated_first_moment(spec, a) - dist.truncated_first_moment(spec, b)) / (2.0 * math.pi)


def _partial_m3(spec, a, b):
    """int_a^b r^3 gamma(r) dr, elementwise over arrays."""
    return (dist.truncated_second_moment(spec, a) - dist.truncated_second_moment(spec, b)) / (2.0 * math.pi)


def _e2_piece_closed_inner(loss, spec, rho, y, p1, p2, ra, rb, quad) -> tuple[float, float]:
    """Second coordinate for hinge/squared hinge: the slope is supported on
    r <= 1/(rho y sin phi) (when y sin phi > 0), so the inner radial integral
    is a closed-form partial moment and only the angular integral is numeric."""

    def g(phi):
        s = np.sin(phi)
        ys = y * s
        hi = np.where(ys > 1e-300, np.minimum(rb, 1.0 / (rho * np.maximum(ys, 1e-300))), rb)
        hi = np.maximum(hi, ra)
        if loss.kind == "hinge":
            inner = _partial_m2(spec, ra, hi)
        else:
            inner = 2.0 * _partial_m2(spec, ra, hi) - 2.0 * rho * ys * _partial_m3(spec, ra, hi)
        return (-y * s) * inner

    # angular kinks: where the slope support boundary crosses ra or rb,
    # plus the sign changes of sin(phi)
    kinks = []
    for r_edge in (ra, rb):
        if r_edge > 0:
            c = 1.0 / (rho * r_edge)
            if c <= 1.0:
                base = math.asin(c) if y > 0 else -math.asin(c)
                for cand in (base, math.pi - base):
                    for k in (-1, 0, 1):
                        kinks.append(cand + 2.0 * math.pi * k)
    for k in (-1, 0, 1, 2):
        kinks.append(k * math.pi)
    total, err = 0.0, 0.0
    edges = _split_at(kinks, p1, p2)
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = integrate_refining(g, a, b, quad.tol, quad.angular_panels, quad.max_doublings)
        total += v
        err += e
    return total, err


def _e2_piece_tensor(loss, spec, rho, y, p1, p2, ra, rb, quad) -> tuple[float, float]:
    """Second coordinate by a 2D tensor Gauss rule (smooth integrands only)."""
    geometric = ra > 0.0

    def estimate(k):
        pr, pa = quad.radial_panels << k, quad.angular_panels << k
        if pr * pa * 256 > 16_000_000:  # node budget: fail loudly, not slowly
            raise QuadratureError(f"2D tensor rule did not reach tol={quad.tol:g} within 16M nodes")
        r_edges = np.geomspace(ra, rb, pr + 1) if geometric else np.linspace(ra, rb, pr + 1)
        rn, rw = gl_nodes(r_edges)
        pn, pw = gl_nodes(np.linspace(p1, p2, pa + 1))
        s = np.sin(pn)
        t = -y * rho * rn[:, None] * s[None, :]
        f = (rn * dist.radial_density(spec, rn) * rn * rw)[:, None] * (
            (-y * s * pw)[None, :]
        ) * loss.slope(t)
        return float(np.sum(f)), float(np.sum(np.abs(f))), f.size

    return refine_by_doubling(
        estimate, quad.tol, quad.max_doublings,
        f"the 2D tensor rule over r in [{ra:g}, {rb:g}], phi in [{p1:g}, {p2:g}]",
    )


def convex_population_grad(loss: ConvexSurrogate, w, spec, model: NoiseModel,
                           quad: QuadratureSpec = QuadratureSpec()) -> tuple[np.ndarray, float, dict]:
    """grad C(w) = E[-y x l'(-y <x, w>)] under the model's label rule.

    Returns (grad, error estimate, {'S': grad over S, 'Sc': grad over S^c}),
    all in the original coordinates. Raises QuadratureError if panel doubling
    fails to converge or quad.tol is below the roundoff floor of an integral;
    never returns a silent estimate.
    """
    w = np.asarray(w, dtype=float)
    rho = float(np.linalg.norm(w))
    if w.shape != (2,) or rho == 0.0:
        raise ValueError("w must be a nonzero 2D vector")
    if spec.dim != 2:
        raise ValueError("the population oracle is two-dimensional")
    frame_shift = math.atan2(w[1], w[0]) - math.pi / 2.0

    r_max = quad.r_max if quad.r_max is not None else _auto_r_max(loss, spec, rho, quad.tol)
    Z = model.Z if model.kind == "far_flip" else math.inf
    radial_pieces = []  # (ra, rb, use_outer_label)
    if Z >= r_max:
        radial_pieces.append((0.0, r_max, False))
    else:
        radial_pieces.append((0.0, Z, False))
        radial_pieces.append((Z, r_max, True))

    brk = _sector_break_angles(model, frame_shift)
    sectors = [(brk[i], brk[i + 1]) for i in range(len(brk) - 1)]
    sectors.append((brk[-1], brk[0] + 2.0 * math.pi))

    grad = np.zeros(2)
    split = {"S": np.zeros(2), "Sc": np.zeros(2)}
    err = 0.0
    for p1, p2 in sectors:
        inner_y, outer_y = _sector_labels(model, frame_shift, 0.5 * (p1 + p2))
        s1, s2 = math.sin(p1), math.sin(p2)
        for ra, rb, outer in radial_pieces:
            y = outer_y if outer else inner_y
            g1, e1 = _e1_piece(loss, spec, rho, y, s1, s2, ra, rb, quad)
            if loss.kind == "logistic":
                g2, e2 = _e2_piece_tensor(loss, spec, rho, y, p1, p2, ra, rb, quad)
            else:
                g2, e2 = _e2_piece_closed_inner(loss, spec, rho, y, p1, p2, ra, rb, quad)
            piece = np.array([g1, g2])
            grad += piece
            split["S" if outer else "Sc"] += piece
            err += e1 + e2
    err += quad.tol / 10.0  # truncation budget beyond r_max

    # rotate back from the w-frame
    rot = np.array(
        [
            [math.cos(frame_shift), -math.sin(frame_shift)],
            [math.sin(frame_shift), math.cos(frame_shift)],
        ]
    )
    grad = rot @ grad
    split = {k: rot @ v for k, v in split.items()}
    return grad, err, split


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
    construction uses theta2 = 2 theta.
    """
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if theta > admissible_theta(spec, Z) + 1e-15:
        raise ValueError("theta exceeds the admissible cone half-angle for this Z")
    w_star = np.array([0.0, 1.0])
    model = far_flip(w_star, Z=Z, theta2=2.0 * theta)
    angles = np.linspace(-theta, theta, grid_points) if grid_points > 1 else np.array([0.0])
    if quad.r_max is None and _loss_linf_slope(loss) is not None:
        # the logistic/hinge truncation radius does not depend on w
        quad = replace(quad, r_max=_auto_r_max(loss, spec, 1.0, quad.tol))
    best = (math.inf, None, 0.0)
    max_err = 0.0
    for ang in angles:
        w = rotate2d(w_star, float(ang))
        grad, err, _ = convex_population_grad(loss, w, spec, model, quad)
        norm = float(np.linalg.norm(grad))
        max_err = max(max_err, err)
        if norm < best[0]:
            best = (norm, w, float(ang))
    return ConeScanReport(
        loss=loss.kind,
        family=spec.family,
        Z=float(Z),
        theta=float(theta),
        theta2=2.0 * float(theta),
        grid_points=int(grid_points),
        min_grad_norm=best[0],
        argmin_w=best[1],
        argmin_angle=best[2],
        max_quad_error=max_err,
    )


def grad_monte_carlo(loss: ConvexSurrogate, w, spec, model: NoiseModel, n: int, seed: int):
    """Monte-Carlo estimate of grad C(w) with per-coordinate standard errors;
    the independent cross-check for the quadrature."""
    from .geometry import halfspace_labels
    from .noise import corrupt_labels

    X = dist.sample(spec, n, seed)
    clean = halfspace_labels(model.w_star, X)
    y, _ = corrupt_labels(model, X, clean)
    t = -y * (X @ np.asarray(w, dtype=float))
    G = (-y * loss.slope(t))[:, None] * X
    return G.mean(axis=0), G.std(axis=0, ddof=1) / math.sqrt(n)
