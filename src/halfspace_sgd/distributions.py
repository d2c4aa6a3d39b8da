"""Samplers and closed-form radial functionals for the marginal families.

Three radially symmetric marginals are implemented:

* ``gaussian`` — standard normal in any dimension d >= 2. Radial law is the
  chi distribution with d degrees of freedom.
* ``logconcave`` — the 2D density (6/pi) * exp(-2*sqrt(3)*||x||). Implemented
  exactly as printed; its per-coordinate variance is 1/4 (it is log-concave
  and radially symmetric but NOT isotropic), and all closed forms below are
  for this exact density.
* ``heavy_tailed`` — the 2D density b_s / (||x||/a_s + 1)^(2+s) for s > 2,
  with (a_s, b_s) fixed by s so the density integrates to 1 and E||x||^2 = 2
  (identity covariance); solve_isotropic_params gives them in closed form.

Closed forms (2D, written with c = 2*sqrt(3), tail(Z) = Pr[||x|| >= Z]):

    gaussian    tail(Z) = exp(-Z^2/2)
                E[1{||x||>=Z} ||x||] = Z exp(-Z^2/2) + sqrt(pi/2) erfc(Z/sqrt2)
    logconcave  tail(Z) = (1 + c Z) exp(-c Z)
                E[1{||x||>=Z} ||x||] = exp(-c Z) (6 Z^2 + 2 sqrt3 Z + 1)/sqrt3
    heavy       tail(Z) = (1 + (1+s) u) v^-(1+s),  u = Z/a, v = 1 + u
                E[1{||x||>=Z} ||x||] =
                    a (2 + 2 (s+1) u + s (s+1) u^2) v^-(1+s) / (s-1)

Every closed form is cross-checked against adaptive quadrature of the density
in the test suite. Non-Gaussian samplers draw a uniform angle and an exact
radius: ||x|| ~ Gamma(2, scale 1/c) for logconcave, and ||x||/a_s ~
BetaPrime(2, s) = Gamma(2)/Gamma(s) for heavy_tailed. For every family, n
points drawn in blocks of any sizes equal one draw of n (SampleStream). The
tail quantile and the oracle's truncation radius invert decreasing closed
forms with one bracketing bisection, _invert_decreasing. Every family's
well-behavedness constants (U, R) are closed forms too (well_behaved_params).

numpy has no erfc, so the odd-d Gaussian tails use _erfc, an array form of
W. J. Cody's three-range rational Chebyshev approximations ("Rational
Chebyshev approximations for the error function", Math. Comp. 23, 1969), with
the coefficients of his CALERF routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistributionSpec",
    "WellBehavedParams",
    "gaussian",
    "log_concave",
    "heavy_tailed",
    "solve_isotropic_params",
    "sample",
    "SampleStream",
    "block_rows",
    "radial_density",
    "radial_tail_mass",
    "truncated_first_moment",
    "truncated_second_moment",
    "mean_norm",
    "z_for_tail_mass",
    "well_behaved_params",
]

_C_LC = 2.0 * math.sqrt(3.0)  # exponential decay rate of the log-concave family

FAMILIES = ("gaussian", "logconcave", "heavy_tailed")

BLOCK_BYTES = 1 << 20  # float64 bytes of points per row block: 65,536 rows at d = 2


@dataclass(frozen=True)
class DistributionSpec:
    """One radially symmetric marginal family; s is the heavy-tailed exponent."""

    family: str
    dim: int
    s: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if self.family != "gaussian" and self.dim != 2:
            raise ValueError(f"the {self.family} family is defined only for d = 2")
        if self.family == "heavy_tailed":
            if self.s is None:
                raise ValueError("heavy_tailed requires s > 2 (second moment diverges otherwise)")
            solve_isotropic_params(self.s)  # refuses s <= 2 and an s whose (a_s, b_s) overflow


def gaussian(dim: int = 2) -> DistributionSpec:
    return DistributionSpec("gaussian", dim)


def log_concave() -> DistributionSpec:
    return DistributionSpec("logconcave", 2)


def heavy_tailed(s: float) -> DistributionSpec:
    return DistributionSpec("heavy_tailed", 2, s=float(s))


def solve_isotropic_params(s: float) -> tuple[float, float]:
    """Scale (a_s, b_s) making the heavy-tailed density a unit-mass,
    identity-covariance 2D distribution.

    Normalization gives b_s = s(1+s)/(2 pi a_s^2), and E||x||^2 =
    6 a_s^2 / ((s-2)(s-1)) = 2 gives a_s = sqrt((s-2)(s-1)/3). An s whose
    (a_s, b_s) are not finite floats (inf, 1e300) is refused.
    """
    s = float(s)
    if not s > 2.0:
        raise ValueError("heavy_tailed requires s > 2 (second moment diverges otherwise)")
    a = math.sqrt((s - 2.0) * (s - 1.0) / 3.0)
    b = s * (1.0 + s) / (2.0 * math.pi * a * a)
    if not math.isfinite(a) or not math.isfinite(b):
        raise ValueError(f"heavy_tailed s = {s!r} gives non-finite (a_s, b_s) = ({a!r}, {b!r})")
    return a, b


# ---------------------------------------------------------------------------
# densities and radial functionals
# ---------------------------------------------------------------------------

def radial_density(spec: DistributionSpec, r):
    """2D density as a function of radius, gamma(r) (spec must be 2D)."""
    if spec.dim != 2:
        raise ValueError("radial_density is the 2D projection density; spec must have dim 2")
    r = np.asarray(r, dtype=float)
    if spec.family == "gaussian":
        out = np.exp(-r * r / 2.0) / (2.0 * math.pi)
    elif spec.family == "logconcave":
        out = (6.0 / math.pi) * np.exp(-_C_LC * r)
    else:
        a, b = solve_isotropic_params(spec.s)
        out = b * (r / a + 1.0) ** -(2.0 + spec.s)  # underflows to 0, never overflows
    return float(out) if out.ndim == 0 else out


# Cody's CALERF coefficients: erfc(x) = 1 - x R_AB(x^2) on [0, 0.46875],
# e^-x^2 R_CD(x) on (0.46875, 4], e^-x^2 (1/sqrt(pi) - R_PQ(1/x^2)/x^2)/x above
_ERFC_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
           3.20937758913846947e03, 1.85777706184603153e-1)
_ERFC_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
           2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)


def _erfc_ratio(num, den, t):
    """Cody's rational form: num has one more coefficient than den, its last
    one leading; both are evaluated by Horner's rule in t."""
    n, d = num[-1] * t, t
    for p, q in zip(num[:len(den) - 1], den[:-1]):
        n, d = (n + p) * t, (d + q) * t
    return (n + num[len(den) - 1]) / (d + den[-1])


def _exp_minus_square(y):
    """e^-y^2 as e^-k^2 e^-(y-k)(y+k), k = y rounded down to 1/16: k^2 is
    exact, so the rounding of y^2 does not scale the relative error."""
    k = np.trunc(y * 16.0) / 16.0
    return np.exp(-k * k) * np.exp(-(y - k) * (y + k))


def _erfc(x):
    """erfc(x) for x >= 0 (0-d or n-d, inf and nan pass through), within a
    few ulps of math.erfc; see the module docstring for the source. Each
    range's form runs only on the elements that lie in it."""
    x = np.asarray(x, dtype=float)
    y = np.minimum(x.ravel(), 28.0)  # erfc(28) underflows to 0, as erfc(inf)
    out = np.empty_like(y)
    low, high = y <= 0.46875, ~(y <= 4.0)  # high also takes nan
    for where, form in ((low, _erfc_low), (~(low | high), _erfc_mid), (high, _erfc_high)):
        if where.any():
            out[where] = form(y[where])
    return out.reshape(x.shape)


def _erfc_low(t):
    return 1.0 - t * _erfc_ratio(_ERFC_A, _ERFC_B, t * t)


def _erfc_mid(t):
    return _exp_minus_square(t) * _erfc_ratio(_ERFC_C, _ERFC_D, t)


def _erfc_high(t):
    u = 1.0 / (t * t)
    return _exp_minus_square(t) * ((1.0 / math.sqrt(math.pi) - u * _erfc_ratio(_ERFC_P, _ERFC_Q, u)) / t)


def _gauss_chi_tail(d: int, z):
    """Pr[chi_d >= z] = Q(d/2, z^2/2), regularized upper incomplete gamma.

    Half-integer recursion from Q(1/2, x) = erfc(sqrt(x)) and Q(1, x) = e^-x;
    Q(a+1, x) = Q(a, x) + x^a e^-x / Gamma(a+1), with terms in log space.
    """
    z = np.asarray(z, dtype=float)
    x = z * z / 2.0
    if d % 2 == 0:
        q = np.exp(-x)
        a = 1.0
    else:
        q = _erfc(np.sqrt(x))
        a = 0.5
    logx = np.log(np.maximum(x, 1e-300))
    while a < d / 2.0 - 1e-9:
        term = np.where(x > 0, np.exp(a * logx - x - math.lgamma(a + 1.0)), 0.0)
        q = q + term
        a += 1.0
    return np.minimum(q, 1.0)


def _gauss_trunc_norm(d: int, z):
    """E[1{||x|| >= z} ||x||] for the d-dim standard normal.

    Equals sqrt(2) * Gamma((d+1)/2, z^2/2) / Gamma(d/2) (upper incomplete).
    """
    z = np.asarray(z, dtype=float)
    ratio = math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))
    return math.sqrt(2.0) * ratio * _gauss_chi_tail(d + 1, z)


def radial_tail_mass(spec: DistributionSpec, Z):
    """Pr[||x|| >= Z], closed form per family."""
    Z = np.asarray(Z, dtype=float)
    if np.any(Z < 0):
        raise ValueError("Z must be >= 0")
    if spec.family == "gaussian":
        out = _gauss_chi_tail(spec.dim, Z)
    elif spec.family == "logconcave":
        out = (1.0 + _C_LC * Z) * np.exp(-_C_LC * Z)
    else:
        s, u = spec.s, Z / solve_isotropic_params(spec.s)[0]
        out = (1.0 + (1.0 + s) * u) * (1.0 + u) ** (-1.0 - s)
    return float(out) if out.ndim == 0 else out


def truncated_first_moment(spec: DistributionSpec, Z):
    """E[1{||x|| >= Z} * ||x||], closed form per family."""
    Z = np.asarray(Z, dtype=float)
    if np.any(Z < 0):
        raise ValueError("Z must be >= 0")
    if spec.family == "gaussian":
        out = _gauss_trunc_norm(spec.dim, Z)
    elif spec.family == "logconcave":
        out = np.exp(-_C_LC * Z) * (6.0 * Z * Z + 2.0 * math.sqrt(3.0) * Z + 1.0) / math.sqrt(3.0)
    else:
        a, s = solve_isotropic_params(spec.s)[0], spec.s
        u = Z / a
        out = a * (2.0 + 2.0 * (s + 1.0) * u + s * (s + 1.0) * u * u) * (1.0 + u) ** (-1.0 - s) / (s - 1.0)
    return float(out) if out.ndim == 0 else out


def truncated_second_moment(spec: DistributionSpec, Z):
    """E[1{||x|| >= Z} * ||x||^2], closed form per family.

    gaussian: d * Q(d/2 + 1, Z^2/2); logconcave: 12 e^{-cZ} (Z^3/c + 3 Z^2/c^2
    + 6 Z/c^3 + 6/c^4); heavy: s(1+s) a^2 I3(Z/a) with I3 the incomplete Beta
    expansion of int t^3 (t+1)^{-(2+s)} dt.
    """
    Z = np.asarray(Z, dtype=float)
    if np.any(Z < 0):
        raise ValueError("Z must be >= 0")
    if spec.family == "gaussian":
        d = spec.dim
        out = d * _gauss_chi_tail(d + 2, Z)
    elif spec.family == "logconcave":
        c = _C_LC
        out = 12.0 * np.exp(-c * Z) * (Z**3 / c + 3.0 * Z**2 / c**2 + 6.0 * Z / c**3 + 6.0 / c**4)
    else:
        a, s = solve_isotropic_params(spec.s)[0], spec.s
        v = Z / a + 1.0
        i3 = (
            v ** (2.0 - s) / (s - 2.0)
            - 3.0 * v ** (1.0 - s) / (s - 1.0)
            + 3.0 * v ** (-s) / s
            - v ** (-1.0 - s) / (s + 1.0)
        )
        out = s * (1.0 + s) * a * a * i3
    return float(out) if out.ndim == 0 else out


def mean_norm(spec: DistributionSpec) -> float:
    """E||x||."""
    return float(truncated_first_moment(spec, 0.0))


def _invert_decreasing(g, target: float) -> float:
    """For g decreasing on [0, inf): the upper end R of a bisection bracket
    of g = target, narrowed to relative width 1e-13, so g(R) <= target."""
    lo, hi = 0.0, 1.0
    while g(hi) > target:
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:
            raise RuntimeError(f"no finite R with g(R) <= {target:g}")
    for _ in range(200):
        if hi - lo <= 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def z_for_tail_mass(spec: DistributionSpec, p: float) -> float:
    """A radius Z with Pr[||x|| >= Z] = p to relative 1e-13, never above p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("tail mass must lie in (0, 1]")
    if p == 1.0:
        return 0.0
    return _invert_decreasing(lambda z: radial_tail_mass(spec, z), p)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def block_rows(d: int) -> int:
    """Rows of d float64 coordinates in BLOCK_BYTES, at least one: the row
    block in which the package draws, labels, scores and sums point sets, so
    that no pass over a set holds a temporary of the set's length."""
    return max(1, BLOCK_BYTES // (8 * d))


def sample(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. points; deterministic given (spec, seed) and bitwise
    equal to any split of n into consecutive SampleStream(spec, seed) takes."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    return SampleStream(spec, seed)._draw(n)


class SampleStream:
    """Seeded, chunked source of i.i.d. points; one PSGD pass consumes one stream.

    Takes are block-consistent for every family: consecutive take(k) calls
    concatenate bitwise to one sample() draw of their total size, whatever
    the k. Each component of a point comes from a generator of its own, and
    numpy's uniform, gamma and standard_normal give the same values however
    their n is split.
    """

    def __init__(self, spec: DistributionSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng(seed)
        self._rngs = (rng, *rng.spawn(2))  # spawning leaves rng's own stream as it was

    def take(self, k: int) -> np.ndarray:
        return self._draw(k)

    def _draw(self, n: int) -> np.ndarray:
        """The next n points. Gaussian: standard normal per coordinate. 2D
        radial families: a uniform angle and an exact radius, Gamma(2, scale
        1/(2 sqrt3)) for logconcave (radial density 12 r e^{-2 sqrt3 r}) and
        a_s * Gamma(2) / Gamma(s) for heavy_tailed (r/a_s ~ BetaPrime(2, s),
        density s(s+1) u (1+u)^{-(2+s)}), each gamma factor from a spawned
        child. The Gaussian and the angle read default_rng(seed) alone."""
        rng, radius, divisor = self._rngs
        if self.spec.family == "gaussian":
            return rng.standard_normal((n, self.spec.dim))
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        if self.spec.family == "logconcave":
            r = radius.gamma(2.0, 1.0 / _C_LC, n)
        else:  # scaled draw, in-place divide: one n-array temporary
            r = radius.gamma(2.0, solve_isotropic_params(self.spec.s)[0], n)
            r /= divisor.gamma(self.spec.s, 1.0, n)
        xy = np.empty((n, 2))
        np.multiply(np.cos(phi), r, out=xy[:, 0])
        np.multiply(np.sin(phi), r, out=xy[:, 1])
        return xy


# ---------------------------------------------------------------------------
# well-behavedness constants (U, R)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellBehavedParams:
    """Anti-anti-concentration radius R and envelope constant U.

    The density is >= 1/U on the disk ||x|| <= R, and the radial envelope
    t(r) = gamma(r) satisfies sup t <= U, integral of t <= U and integral of
    ||x|| t <= U. R is chosen to maximize R^4/U^3, the combination gating the
    surrogate analysis.
    """

    family: str
    U: float
    R: float


def well_behaved_params(spec: DistributionSpec) -> WellBehavedParams:
    """(U, R) of the spec's 2D projection, in closed form.

    The envelope bounds hold for U >= u0 = max(gamma(0), 1, E||x||), so the
    least U for a radius R is max(u0, 1/gamma(R)). 1/gamma increases and
    reaches u0 at R0 (R0 = 0 if 1/gamma(0) >= u0). Below R0, R^4/U^3 grows
    like R^4; above it, it is R^4 gamma(R)^3, which has a single stationary
    point R* (2/sqrt3, 2/(3 sqrt3) and 4 a_s/(3s + 2) for the three
    families). Hence R = max(R*, R0).
    """
    spec = DistributionSpec(spec.family, 2, spec.s)  # every family projects to itself
    g0 = float(radial_density(spec, 0.0))
    u0 = max(g0, 1.0, mean_norm(spec))
    q0 = max(1.0, u0 * g0)  # gamma(0)/gamma(R0)
    if spec.family == "gaussian":
        r_star, r0 = 2.0 / math.sqrt(3.0), math.sqrt(2.0 * math.log(q0))
    elif spec.family == "logconcave":
        r_star, r0 = 4.0 / (3.0 * _C_LC), math.log(q0) / _C_LC
    else:
        a = solve_isotropic_params(spec.s)[0]
        r_star, r0 = 4.0 * a / (3.0 * spec.s + 2.0), a * (q0 ** (1.0 / (2.0 + spec.s)) - 1.0)
    R = max(r_star, r0)
    return WellBehavedParams(spec.family, U=max(u0, 1.0 / float(radial_density(spec, R))), R=R)
