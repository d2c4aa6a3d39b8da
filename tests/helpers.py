"""Shared helpers for the test suite (independent oracle routes).

The scalar forms below (one example at a time) are test oracles for the
row-wise paths of the package.
"""

import math

import numpy as np

from halfspace_sgd import distributions as dist
from halfspace_sgd import oracle
from halfspace_sgd.geometry import angle_between, halfspace_labels, rotate2d, unit_vector
from halfspace_sgd.learner import derive_seed, zero_one_errors
from halfspace_sgd.losses import sigmoid, surrogate_grad_rows
from halfspace_sgd.noise import corrupt_labels, make_dataset
from halfspace_sgd.optimizer import batch_grad_norms
from halfspace_sgd.quadrature import gl_panels, refine_by_doubling


def integrate_refining(
    f,
    a: float,
    b: float,
    tol: float,
    panels: int = 4,
    max_doublings: int = 12,
    geometric: bool = False,
) -> tuple[float, float]:
    """Integrate f (vectorized) on [a, b]; returns (value, error estimate).
    A batch of one integral through quadrature.refine_by_doubling.

    Panel count doubles until successive estimates differ by less than tol;
    the final difference, floored at the roundoff of the final estimate
    (see refine_by_doubling), is the reported error estimate. Raises
    QuadratureError when tol is below that roundoff floor or the doubling
    budget runs out.
    """
    if b <= a:
        return 0.0, 0.0

    def estimate(k):
        nodes, weights = gl_panels([a], [b], panels << k, geometric and a > 0)
        wf = weights[0] * f(nodes[0])
        return np.array([wf.sum()]), np.array([np.abs(wf).sum()]), wf.size, np.array([wf.size])

    values, errors = refine_by_doubling(
        estimate, tol, max_doublings, lambda i: f"[{a:g}, {b:g}]", np.ones(1, dtype=bool)
    )
    return float(values[0]), float(errors[0])


def gauss_chi_tail_math_erfc(d: int, z):
    """Pr[chi_d >= z] by distributions._gauss_chi_tail's half-integer
    recursion, with math.erfc called once per element for odd d: the
    oracle for the package's array erfc."""
    z = np.asarray(z, dtype=float)
    x = z * z / 2.0
    if d % 2 == 0:
        q = np.exp(-x)
        a = 1.0
    else:
        q = np.array([math.erfc(math.sqrt(v)) for v in x.ravel()]).reshape(x.shape)
        a = 0.5
    logx = np.log(np.maximum(x, 1e-300))
    while a < d / 2.0 - 1e-9:
        term = np.where(x > 0, np.exp(a * logx - x - math.lgamma(a + 1.0)), 0.0)
        q = q + term
        a += 1.0
    return np.minimum(q, 1.0)


def halfspace_label(w, x) -> int:
    """sign(<w, x>) with sign(0) = +1."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.shape != x.shape:
        raise ValueError(f"dimension mismatch: {w.shape} vs {x.shape}")
    return 1 if float(np.dot(w, x)) >= 0.0 else -1


def region_membership(model, x) -> tuple[bool, bool]:
    """(in C, in S) for one point: the far-flip regions, one example at a time."""
    x = np.asarray(x, dtype=float)
    in_c = float(x @ model.w_star) * float(x @ model.w_perp) <= 0.0
    in_s = float(np.linalg.norm(x)) >= model.Z
    return in_c, in_s


def apply_noise(model, x, clean_y: int) -> int:
    """Observed label for one example; clean_y must be halfspace_label(w*, x).
    The scalar oracle for noise.corrupt_labels."""
    in_c, in_s = region_membership(model, x)
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


def estimate_err01(w, dataset) -> float:
    """Fraction of examples with sign(<w, x>) != y: one candidate at a time,
    the oracle for learner.zero_one_errors (a count) over the dataset size."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return float(np.mean(halfspace_labels(w, dataset.x) != dataset.y))


def loop_grad_norms(iterates, dataset, sigma: float, batch: int) -> np.ndarray:
    """Empirical surrogate-gradient norm at each iterate, one
    surrogate_grad_rows call per iterate over the first `batch` examples; the
    reference for optimizer.batch_grad_norms."""
    X = dataset.x[:batch]
    y = dataset.y[:batch]
    norms = np.empty(iterates.shape[0])
    for i, w in enumerate(iterates):
        W = np.broadcast_to(w, (X.shape[0], w.shape[0]))
        norms[i] = float(np.linalg.norm(surrogate_grad_rows(W, X, y, sigma).mean(axis=0)))
    return norms


def reference_psgd(streams, configs) -> np.ndarray:
    """Every iterate (k, T, d) of len(streams) PSGD runs stepped from the
    gradient definition: W - beta * surrogate_grad_rows(W, x, y, sigma), then
    a row-norm rescale. The reference for optimizer.psgd_lockstep's fused
    step. Each stream is drawn with one take(T): stream takes concatenate
    bitwise, so both see the same examples whatever the optimizer's chunk."""
    T = configs[0].T
    beta = np.array([c.step_size for c in configs])[:, None]
    sigma = np.array([c.sigma for c in configs])
    draws = [s.take(T) for s in streams]
    Xc = np.stack([X for X, _ in draws], axis=1)
    yc = np.stack([y.reshape(T) for _, y in draws], axis=1)  # one labeling per stream
    W = np.tile(unit_vector(Xc.shape[2]), (len(streams), 1))
    trail = []
    for x, y in zip(Xc, yc):
        V = W - beta * surrogate_grad_rows(W, x, y, sigma)
        W = V / np.sqrt(np.einsum("ij,ij->i", V, V))[:, None]
        trail.append(W)
    return np.stack(trail, axis=1)


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


def _tensor_cell(loss, spec, rho, y, p1, p2, ra, rb, quad):
    """One logistic second-coordinate cell by the elementwise 2D tensor rule."""

    def estimate(k):
        pr, pa = oracle._RADIAL_PANELS << k, oracle._ANGULAR_PANELS << k
        rn, rw = gl_panels([ra], [rb], pr, ra > 0.0)
        pn, pw = gl_panels([p1], [p2], pa, False)
        rn, rw, pn, pw = rn[0], rw[0], pn[0], pw[0]
        s = np.sin(pn)
        t = -y * rho * rn[:, None] * s[None, :]
        f = (rn * dist.radial_density(spec, rn) * rn * rw)[:, None] * (-y * s * pw)[None, :] * loss.slope(t)
        return np.array([f.sum()]), np.array([np.abs(f).sum()]), f.size, np.array([f.size])

    values, errors = refine_by_doubling(estimate, quad.tol, oracle._MAX_DOUBLINGS, lambda i: "the tensor cell",
                                        np.ones(1, dtype=bool))
    return float(values[0]), float(errors[0])


def sector_break_angles(model, frame_shift: float) -> np.ndarray:
    """Label-change angles in the w-frame: w*-boundary rays and the w_tilde
    line, merged where equal. One point at a time: the oracle for
    oracle._break_angles."""
    a_star = math.atan2(model.w_star[1], model.w_star[0])
    a_tilde = math.atan2(model.w_tilde[1], model.w_tilde[0])
    angles = [a_star - math.pi / 2.0, a_star + math.pi / 2.0, a_tilde, a_tilde + math.pi]
    shifted = np.mod(np.asarray(angles) - frame_shift, 2.0 * math.pi)
    return np.unique(np.round(shifted, 14))


def split_at(points, lo: float, hi: float) -> list[tuple[float, float]]:
    """[lo, hi] cut at the points strictly inside it, as (a, b) pieces."""
    edges = sorted({lo, hi, *(p for p in points if lo + 1e-13 < p < hi - 1e-13)})
    return list(zip(edges[:-1], edges[1:]))


def radial_kinks(loss, rho, y, s1, s2) -> list[float]:
    """Radii where the hinge of -y rho r s_i kinks (-y rho r s_i = -1)."""
    if loss.kind != "hinge":
        return []
    return [1.0 / (rho * y * s) for s in (s1, s2) if y * s > 1e-300]


def angular_kinks(rho, y, ra, rb) -> list[float]:
    """Angles where the slope support boundary r = 1/(rho y sin phi) crosses
    ra or rb, plus the sign changes of sin(phi)."""
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
    return kinks


def reference_rule_rows(loss, model, ws, r_max: float):
    """(radial rows, their indices, second-coordinate rows, their indices,
    frame shifts) of oracle._rule_rows, built one point and one piece at a
    time with the scalar helpers above; an index is 2 * point + (1 if the
    piece lies in S). ValueError for break angles that are not antipodal
    pairs."""
    Z = model.Z
    annuli = [(0.0, r_max)] if Z >= r_max else [(0.0, Z), (Z, r_max)]  # S^c, then S
    radial, second = [], []
    radial_at, second_at = [], []
    shifts = []
    for i, w in enumerate(ws):
        rho = float(np.linalg.norm(w))
        frame_shift = math.atan2(w[1], w[0]) - math.pi / 2.0
        shifts.append(frame_shift)
        brk = sector_break_angles(model, frame_shift).tolist()
        half = len(brk) // 2
        if len(brk) % 2 or np.any(np.abs(np.subtract(brk[half:], brk[:half]) - math.pi) > 1e-12):
            raise ValueError("the label-change angles are not antipodally symmetric")
        pieces = [(p1, p2, ra, rb, 2 * i + j) for p1, p2 in zip(brk[:half], brk[1:half + 1])
                  for j, (ra, rb) in enumerate(annuli)]  # the half-plane [brk[0], brk[0] + pi]
        # the observed label is constant on each sector x annulus piece: label its midpoint
        phi = np.array([0.5 * (p1 + p2) for p1, p2, *_ in pieces]) + frame_shift
        r = np.array([0.5 * (ra + rb) for _, _, ra, rb, _ in pieces])
        labels = corrupt_labels(model, r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1))[0]
        for (p1, p2, ra, rb, at), y in zip(pieces, labels.tolist()):
            s1, s2 = math.sin(p1), math.sin(p2)
            for a, b in split_at(radial_kinks(loss, rho, y, s1, s2), ra, rb):
                radial.append((a, b, -y * rho * s1, -y * rho * s2, rho))
                radial_at.append(at)
            if loss.kind == "logistic":
                second.append((y, rho, p1, p2, ra, rb))
                second_at.append(at)
                continue
            for a, b in split_at(angular_kinks(rho, y, ra, rb), p1, p2):
                second.append((a, b, y, rho, ra, rb))
                second_at.append(at)
    return np.array(radial), np.array(radial_at), np.array(second), np.array(second_at), np.array(shifts)


def reference_population_grad(loss, w, spec, model, quad):
    """(grad, error) of oracle.convex_population_grad by one integration per
    piece: each piece labeled by the scalar apply_noise at its midpoint,
    integrate_refining on every kink-split interval and one elementwise
    tensor refinement per logistic cell, summed piece by piece; the
    reference for the batched oracle."""
    w = np.asarray(w, dtype=float)
    rho = float(np.linalg.norm(w))
    frame_shift = math.atan2(w[1], w[0]) - math.pi / 2.0
    r_max = oracle._auto_r_max(spec, quad.tol)
    annuli = [(0.0, r_max)] if model.Z >= r_max else [(0.0, model.Z), (model.Z, r_max)]
    brk = sector_break_angles(model, frame_shift).tolist()
    grad, err = np.zeros(2), quad.tol / 10.0
    for p1, p2 in zip(brk, brk[1:] + [brk[0] + 2.0 * math.pi]):
        s1, s2 = math.sin(p1), math.sin(p2)
        for ra, rb in annuli:
            mid = 0.5 * (ra + rb) * np.array([math.cos(0.5 * (p1 + p2) + frame_shift),
                                              math.sin(0.5 * (p1 + p2) + frame_shift)])
            y = float(apply_noise(model, mid, halfspace_label(model.w_star, mid)))

            def radial(r):
                return (dist.radial_density(spec, r) * r
                        * (loss.value(-y * rho * r * s2) - loss.value(-y * rho * r * s1)) / rho)

            def angular(phi):
                s = np.sin(phi)
                ys = y * s
                hi = np.where(ys > 1e-300, np.minimum(rb, 1.0 / (rho * np.maximum(ys, 1e-300))), rb)
                hi = np.maximum(hi, ra)
                return (-y * s) * oracle._partial_m2(spec, ra, hi)

            for a, b in split_at(radial_kinks(loss, rho, y, s1, s2), ra, rb):
                v, e = integrate_refining(radial, a, b, quad.tol, oracle._RADIAL_PANELS, oracle._MAX_DOUBLINGS,
                                          geometric=a > 0.0)
                grad[0] += v
                err += e
            if loss.kind == "logistic":
                pieces = [_tensor_cell(loss, spec, rho, y, p1, p2, ra, rb, quad)]
            else:
                pieces = [integrate_refining(angular, a, b, quad.tol, oracle._ANGULAR_PANELS, oracle._MAX_DOUBLINGS)
                          for a, b in split_at(angular_kinks(rho, y, ra, rb), p1, p2)]
            for v, e in pieces:
                grad[1] += v
                err += e
    return rotate2d(grad, frame_shift), err


def grad_monte_carlo(loss, w, spec, model, n: int, seed: int):
    """Monte-Carlo estimate of the population gradient E[-y x l'(-y <x, w>)]
    with per-coordinate standard errors; the independent cross-check for the
    oracle's quadrature."""
    X = dist.sample(spec, n, seed)
    y, _ = corrupt_labels(model, X)
    t = -y * (X @ np.asarray(w, dtype=float))
    G = (-y * loss.slope(t))[:, None] * X
    return G.mean(axis=0), G.std(axis=0, ddof=1) / math.sqrt(n)


def radial_cdf(spec, r):
    """Pr[||x|| <= r] = 1 - radial_tail_mass."""
    return 1.0 - dist.radial_tail_mass(spec, r)


def _margin_blocks(w, X, y, rows):
    """(rows of X, their labels, their margins -y <x, w>) for each block of
    `rows` rows; one block of every row when rows is None."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rows = rows or max(1, X.shape[0])
    for lo in range(0, X.shape[0], rows):
        Xb, yb = X[lo : lo + rows], y[lo : lo + rows]
        yield Xb, yb, -yb * (Xb @ np.asarray(w, dtype=float))


def convex_loss_mean(w, X, y, surrogate, rows=None) -> float:
    """Empirical mean of l(-y <x, w>) over a dataset, its block sums added
    in block order; the margin is NOT normalized by ||w||."""
    total = 0.0
    for _, _, t in _margin_blocks(w, X, y, rows):
        total += float(np.sum(surrogate.value(t)))
    return total / len(y)


def convex_grad_mean(w, X, y, surrogate, rows=None) -> np.ndarray:
    """Empirical mean of -y x l'(-y <x, w>) over a dataset, its block sums
    added in block order."""
    g = np.zeros(np.shape(X)[1])
    for Xb, yb, t in _margin_blocks(w, X, y, rows):
        g += (-yb * surrogate.slope(t)) @ Xb
    return g / len(y)


def convex_hessian_mean(w, X, y, surrogate, rows=None) -> np.ndarray:
    """Mean of l''(-y <x, w>) x x^T for the smooth losses, its block sums
    added in block order."""
    H = np.zeros((np.shape(X)[1],) * 2)
    for Xb, _, t in _margin_blocks(w, X, y, rows):
        if surrogate.kind == "logistic":
            p = surrogate.slope(t)
            curve = p * (1.0 - p)
        else:  # squared_hinge: l'' = 2 on the active set
            curve = 2.0 * (t >= -1.0)
        H += Xb.T @ (Xb * curve[:, None])
    return H / len(y)


def reference_newton(loss, X, y, w0, gtol: float = 1e-6, max_iter: int = 500, rows=None):
    """(w, grad_norm, iterations) of damped Newton with Armijo backtracking,
    each quantity recomputed from w by the oracles above (a margin pass per
    gradient, Hessian, objective and try), over blocks of `rows` rows (all
    rows at once when None); with baselines' row blocks, the reference for
    the Newton branch of baselines.full_batch_minimize."""
    d = X.shape[1]
    w = np.asarray(w0, dtype=float).copy()
    g = convex_grad_mean(w, X, y, loss, rows)
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gtol:
            return w, gnorm, it
        H = convex_hessian_mean(w, X, y, loss, rows) + 1e-12 * np.eye(d)
        step = np.linalg.solve(H, g)
        f0 = convex_loss_mean(w, X, y, loss, rows)
        decrement = float(g @ step)
        alpha = 1.0
        while alpha > 1e-14:
            if convex_loss_mean(w - alpha * step, X, y, loss, rows) <= f0 - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        w = w - alpha * step
        g = convex_grad_mean(w, X, y, loss, rows)
    return w, float(np.linalg.norm(g)), max_iter


def reference_trial_report(spec, group, config, seed: int, kept) -> dict:
    """The data-dependent fields of the learner's report for one (model,
    opt_target, holdout_size) group, from whole holdout and evaluation sets:
    each built by one make_dataset call and scored by one zero_one_errors
    call, the gradient-norm diagnostic on the holdout's first min(2000, n)
    examples."""
    model, _, n_hold = group
    holdout = make_dataset(spec, model, n_hold, derive_seed(seed, 2))
    eval_ds = make_dataset(spec, model, config.eval_size, derive_seed(seed, 3))
    errs = (zero_one_errors(kept.reshape(-1, spec.dim), holdout) / n_hold).reshape(kept.shape[:2])
    per_sigma = []
    for sigma, vectors, width_errs in zip(config.grid, kept, errs):
        ii = int(np.argmin(width_errs))
        norms = batch_grad_norms(vectors[:: max(1, kept.shape[1] // 50)], holdout, sigma, min(2000, n_hold))
        per_sigma.append((float(width_errs[ii]), angle_between(vectors[ii], model.w_star), float(np.min(norms))))
    li, ii = np.unravel_index(int(np.argmin(errs)), errs.shape)
    w = kept[li, ii]
    return {
        "measured_noise_rate": float(np.mean(eval_ds.flipped)),
        "sigma_best": config.grid[li],
        "err01": float(zero_one_errors(w[None, :], eval_ds)[0] / len(eval_ds)),
        "angle_to_wstar": angle_between(w, model.w_star),
        "per_sigma": per_sigma,
    }
