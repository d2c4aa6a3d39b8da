"""Output checks for the benchmark workloads, computed apart from the program.

Nothing here imports halfspace_sgd: tail masses, flip radii and cone angles
come from scipy.integrate.quad of the 2D densities, and Monte Carlo
gradients from samplers and far-flip labels written here. Each check_*
function takes the CSV text one workload wrote and that workload's
parameters, and returns a list of failures, each starting with the name of
the check that failed; an empty list means the output passed. Statistical
checks allow SLACK_SE standard errors, so a correct program passes at any
workload seed.
"""

import csv
import math
import statistics

import numpy as np
from scipy import integrate, optimize, special

SLACK_SE = 5.0
ANGLE_MARGIN = 1e-9   # subtracted from the cone angle by the certification rule
REL_TOL = 1e-7        # closed forms against quadrature; observed agreement ~1e-13


def read_rows(text):
    """CSV rows as dicts, without the trailing '#' summary line."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_identical(texts):
    """Every run of one commit and seed must write the same bytes."""
    first = texts[0]
    bad = [i for i, t in enumerate(texts) if t != first]
    return [f"identical: outputs {bad} differ from output 0"] if bad else []


def good_rows(rows):
    """The rows that are not the program's FAILED marker."""
    return [r for r in rows if next(iter(r.values())) != "FAILED"]


def _rows(rows, key_of, expected):
    """(good rows, failures): no FAILED marker, and exactly the expected
    operations, each once."""
    good = good_rows(rows)
    out = []
    if len(good) < len(rows):
        out.append(f"rows: {len(rows) - len(good)} FAILED row(s)")
    keys = sorted(key_of(r) for r in good)
    if keys != sorted(expected):
        out.append(f"rows: got {keys}, expected {sorted(expected)}")
    return good, out


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# radial laws of the 2D families, by quadrature of the printed densities
# ---------------------------------------------------------------------------

class Radial:
    """Radius law of a radially symmetric 2D family, from its density
    g(r) up to a constant: pdf(r) = 2 pi r g(r) / normaliser."""

    def __init__(self, family, s=3.0):
        if family == "gaussian":
            self.g = lambda r: math.exp(-0.5 * r * r)
        elif family == "logconcave":
            c = 2.0 * math.sqrt(3.0)
            self.g = lambda r: math.exp(-c * r)
        elif family == "heavy_tailed":
            a = math.sqrt((s - 2.0) * (s - 1.0) / 3.0)  # identity covariance
            self.g = lambda r: (r / a + 1.0) ** (-(2.0 + s))
        else:
            raise ValueError(f"unknown family {family!r}")
        self.family, self.s = family, s
        self.norm = self._moment(1, 0.0, raw=True)

    def _moment(self, k, z, raw=False):
        val, _ = integrate.quad(lambda r: r**k * self.g(r), z, math.inf,
                                epsabs=0.0, epsrel=1e-13, limit=200)
        return val if raw else val / self.norm

    def tail(self, z):
        """Pr[||x|| >= z]."""
        return self._moment(1, z)

    def trunc_mean(self, z):
        """E[1{||x|| >= z} ||x||]."""
        return self._moment(2, z)

    def flip_radius(self, p):
        """Z with Pr[||x|| >= Z] = p."""
        hi = 1.0
        while self.tail(hi) > p:
            hi *= 2.0
        return optimize.brentq(lambda z: self.tail(z) - p, 0.0, hi, xtol=1e-15, rtol=1e-15)

    def cone_angle(self, z):
        """min(pi/8, E[1{r>=Z} r] / (24 E r)) minus the certification margin."""
        return min(math.pi / 8.0, self.trunc_mean(z) / (24.0 * self.trunc_mean(0.0))) - ANGLE_MARGIN

    def draw(self, n, rng):
        """n points of the family."""
        if self.family == "gaussian":
            return rng.standard_normal((n, 2))
        if self.family == "logconcave":
            r = rng.gamma(2.0, 1.0 / (2.0 * math.sqrt(3.0)), n)
        else:
            a = math.sqrt((self.s - 2.0) * (self.s - 1.0) / 3.0)
            b = rng.beta(2.0, self.s, n)
            r = a * b / (1.0 - b)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        return r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)


def mc_gradient_norm(loss, radial, Z, theta, angle, n, rng, chunk=500_000):
    """Monte Carlo ||grad C(w)|| and its standard error, for w* = e2, the
    far-flip labels at radius Z with tilt 2 theta, and w = w* rotated by
    `angle` (counterclockwise)."""
    th2 = 2.0 * theta
    w_perp = np.array([math.cos(th2), math.sin(th2)])   # <w*, w_perp> = sin(th2) >= 0
    w = np.array([-math.sin(angle), math.cos(angle)])
    total = np.zeros(2)
    second = np.zeros((2, 2))
    for lo in range(0, n, chunk):
        x = radial.draw(min(chunk, n - lo), rng)
        clean = np.where(x[:, 1] >= 0.0, 1.0, -1.0)
        in_c = x[:, 1] * (x @ w_perp) <= 0.0
        flip = (np.hypot(x[:, 0], x[:, 1]) >= Z) & ~in_c
        y = np.where(flip, -clean, clean)
        t = -y * (x @ w)
        slope = special.expit(t) if loss == "logistic" else (t >= -1.0).astype(float)
        G = (-y * slope)[:, None] * x
        total += G.sum(axis=0)
        second += G.T @ G
    mean = total / n
    cov = (second / n - np.outer(mean, mean)) * n / (n - 1)
    norm = float(np.linalg.norm(mean))
    u = mean / norm
    return norm, math.sqrt(float(u @ cov @ u) / n)


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_learn(text, p):
    """learn, Gaussian d-dim far-flip. p: opts, seeds, theta2, eval_size."""
    rows = read_rows(text)
    good, out = _rows(rows, lambda r: (int(r["seed"]), float(r["opt_target"])),
                      [(s, o) for o in p["opts"] for s in p["seeds"]])
    n = p["eval_size"]
    for r in good:
        opt, rate = float(r["opt_target"]), float(r["measured_noise_rate"])
        err, angle = float(r["err01"]), float(r["angle_to_wstar"])
        # far-flip mass under any radially symmetric law
        flip = opt * (0.5 + p["theta2"] / math.pi)
        se = math.sqrt(flip * (1.0 - flip) / n)
        if abs(rate - flip) > SLACK_SE * se:
            out.append(f"noise_rate: seed {r['seed']} opt {opt}: {rate} vs {flip} +- {SLACK_SE * se:.3g}")
        # w* errs exactly on the flipped points; w and w* disagree on angle/pi
        q = angle / math.pi
        slack = SLACK_SE * math.sqrt(max(q * (1.0 - q), 1.0 / n) / n)
        if abs(err - rate) > q + slack:
            out.append(f"err_vs_angle: seed {r['seed']} opt {opt}: |{err} - {rate}| > {q:.3g} + {slack:.3g}")
    for opt in p["opts"]:
        errs = [float(r["err01"]) for r in good if float(r["opt_target"]) == opt]
        if errs and statistics.median(errs) > 6.0 * opt + 0.02:
            out.append(f"err_scaling: opt {opt}: median err01 {statistics.median(errs)} > 6 opt + 0.02")
    return out


def check_compare(text, p):
    """compare, 2D heavy tails. p: s, opts, losses, seeds, gtol."""
    rows = read_rows(text)
    good, out = _rows(rows, lambda r: (float(r["opt"]), r["loss"], int(r["seed"])),
                      [(o, k, s) for o in p["opts"] for k in p["losses"] for s in p["seeds"]])
    radial = Radial("heavy_tailed", p["s"])
    for opt in p["opts"]:
        floor = radial.cone_angle(radial.flip_radius(opt))
        for kind in p["losses"]:
            group = [r for r in good if float(r["opt"]) == opt and r["loss"] == kind]
            if not group:
                continue
            median_sigmoid = statistics.median(float(r["sigmoid_angle"]) for r in group)
            for r in group:
                c_angle, c_norm = float(r["convex_angle"]), float(r["convex_grad_norm"])
                pf = float(r["predicted_floor"])
                where = f"opt {opt} {kind} seed {r['seed']}"
                if not c_norm <= p["gtol"]:
                    out.append(f"convex_grad_norm: {where}: {c_norm} > gtol {p['gtol']}")
                if not c_angle > pf:
                    out.append(f"convex_outside_cone: {where}: convex angle {c_angle} <= floor {pf}")
                if not c_angle >= 5.0 * median_sigmoid:
                    out.append(f"separation: {where}: convex angle {c_angle} < 5 x median sigmoid {median_sigmoid}")
                if not _close(pf, floor):
                    out.append(f"predicted_floor: {where}: {pf} vs quadrature {floor}")
    return out


def check_lowerbound(text, p, seed, mc_n=2_000_000):
    """lowerbound over (loss, family) cells. p: losses, families, s, opt, tol."""
    rows = read_rows(text)
    good, out = _rows(rows, lambda r: (r["loss"], r["family"]),
                      [(k, f) for k in p["losses"] for f in p["families"]])
    radials = {f: Radial(f, p["s"]) for f in p["families"]}
    for i, r in enumerate(good):
        where = f"{r['loss']}/{r['family']}"
        radial = radials[r["family"]]
        Z, theta = float(r["Z"]), float(r["theta"])
        gnorm, qerr = float(r["min_grad_norm"]), float(r["quad_error"])
        if r["certified"] != "1":
            out.append(f"certified: {where}: certified = {r['certified']}")
        if not qerr >= p["tol"] / 10.0:
            out.append(f"quad_error_floor: {where}: {qerr} < tol/10 = {p['tol'] / 10.0}")
        if not _close(radial.tail(Z), p["opt"]):
            out.append(f"flip_radius: {where}: tail mass at Z = {Z} is {radial.tail(Z)}, not {p['opt']}")
        if not _close(theta, radial.cone_angle(Z)):
            out.append(f"cone_angle: {where}: theta {theta} vs quadrature {radial.cone_angle(Z)}")
        rng = np.random.default_rng([seed, i])
        mc, se = mc_gradient_norm(r["loss"], radial, Z, theta, float(r["argmin_angle"]), mc_n, rng)
        if abs(mc - gnorm) > SLACK_SE * se + qerr:
            out.append(f"mc_gradient: {where}: min_grad_norm {gnorm} vs Monte Carlo {mc} +- {SLACK_SE * se:.3g}")
    return out
