import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfspace_sgd import distributions as dist
from helpers import gauss_chi_tail_math_erfc, integrate_refining, radial_cdf, search_well_behaved_params

ALL_2D = lambda: (dist.gaussian(2), dist.log_concave(), dist.heavy_tailed(3.0))


def quad_tail_mass(spec, Z, tol=1e-12):
    """Independent route: integrate 2 pi r gamma(r) over [Z, inf)."""
    hi = Z + 60.0 if spec.family != "heavy_tailed" else max(Z, 1.0) * 1e7
    f = lambda r: 2.0 * math.pi * r * dist.radial_density(spec, r)
    v1, _ = integrate_refining(f, Z, max(Z, 1.0) * 2 if Z > 0 else 1.0, tol, panels=8)
    v2, _ = integrate_refining(f, max(Z, 1.0) * 2 if Z > 0 else 1.0, hi, tol, panels=8, geometric=True)
    return v1 + v2


def quad_moment(spec, k, tol=1e-12):
    if spec.family != "heavy_tailed":
        hi = 80.0
    else:
        # integrand ~ r^(k-1-s): truncation error ~ hi^(k-s) must sit below 1e-10
        hi = 10.0 ** (10.0 / (spec.s - k)) if k > 0 else 1e9
    f = lambda r: 2.0 * math.pi * r ** (k + 1) * dist.radial_density(spec, r)
    v1, _ = integrate_refining(f, 0.0, 2.0, tol, panels=8)
    v2, _ = integrate_refining(f, 2.0, hi, tol, panels=8, geometric=True, max_doublings=16)
    return v1 + v2


# --- parameters and densities ------------------------------------------------

def test_solve_isotropic_params_satisfies_both_equations():
    for s in (2.5, 3.0, 4.0):
        spec = dist.heavy_tailed(s)
        assert quad_moment(spec, 0) == pytest.approx(1.0, abs=1e-8)
        assert quad_moment(spec, 2) == pytest.approx(2.0, abs=1e-8)


def test_solve_isotropic_params_rejects_s_at_most_2():
    with pytest.raises(ValueError):
        dist.solve_isotropic_params(2.0)
    with pytest.raises(ValueError):
        dist.heavy_tailed(1.5)
    with pytest.raises(ValueError):
        dist.heavy_tailed(float("nan"))
    for s in (float("inf"), 1e300):  # (a_s, b_s) not finite
        with pytest.raises(ValueError, match="non-finite"):
            dist.heavy_tailed(s)


def test_density_values_at_origin():
    assert dist.radial_density(dist.gaussian(2), 0.0) == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)
    assert dist.radial_density(dist.log_concave(), 0.0) == pytest.approx(6.0 / math.pi, abs=1e-12)
    assert abs(dist.radial_density(dist.gaussian(2), 0.0) - 0.159154943) < 1e-9
    assert abs(dist.radial_density(dist.log_concave(), 0.0) - 1.909859317) < 1e-9


def test_each_density_integrates_to_one():
    for spec in ALL_2D():
        assert quad_moment(spec, 0) == pytest.approx(1.0, abs=1e-8)


def test_density2d_requires_2d_points():
    with pytest.raises(ValueError):
        dist.radial_density(dist.gaussian(3), 0.0)
    with pytest.raises(ValueError):
        dist.DistributionSpec("logconcave", 3)


def test_logconcave_true_moments_not_isotropic():
    # the printed density has per-coordinate variance 1/4, and is kept as is
    spec = dist.log_concave()
    assert quad_moment(spec, 2) == pytest.approx(0.5, abs=1e-10)


# --- closed-form functionals vs quadrature ------------------------------------

def test_tail_mass_is_one_at_zero():
    for spec in ALL_2D():
        assert dist.radial_tail_mass(spec, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_2d_tail_mass_inverts_cleanly():
    Z = math.sqrt(2.0 * math.log(100.0))
    assert dist.radial_tail_mass(dist.gaussian(2), Z) == pytest.approx(0.01, abs=1e-14)


# s = 200: a_s**s overflows, so the heavy-tailed closed forms are written in Z/a_s
TAIL_SPECS = lambda: ALL_2D() + (dist.heavy_tailed(200.0),)


@pytest.mark.parametrize("family_idx", [0, 1, 2, 3])
def test_tail_mass_matches_quadrature(family_idx):
    spec = TAIL_SPECS()[family_idx]
    for Z in np.linspace(0.0, 6.0, 7):
        assert dist.radial_tail_mass(spec, Z) == pytest.approx(quad_tail_mass(spec, Z), abs=1e-8)


def test_tail_mass_nonincreasing():
    grid = np.linspace(0.0, 30.0, 400)
    for spec in ALL_2D():
        vals = dist.radial_tail_mass(spec, grid)
        assert np.all(np.diff(vals) <= 1e-15)


def test_truncated_first_moment_reference_and_monotone():
    g2 = dist.gaussian(2)
    assert dist.truncated_first_moment(g2, 0.0) == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-12)
    for spec in ALL_2D():
        grid = np.linspace(0.0, 20.0, 200)
        vals = dist.truncated_first_moment(spec, grid)
        assert np.all(np.diff(vals) <= 1e-15)
        assert vals[-1] < 0.02 * vals[0]


@pytest.mark.parametrize("family_idx", [0, 1, 2, 3])
def test_truncated_moments_match_quadrature(family_idx):
    spec = TAIL_SPECS()[family_idx]
    for Z in (0.0, 0.8, 3.0):
        f1 = lambda r: 2.0 * math.pi * r * r * dist.radial_density(spec, r)
        f2 = lambda r: 2.0 * math.pi * r**3 * dist.radial_density(spec, r)
        hi = 80.0 if spec.family != "heavy_tailed" else 1e9
        m1 = sum(integrate_refining(f1, a, b, 1e-12, panels=8, geometric=a >= 1)[0]
                 for a, b in ((Z, Z + 4.0), (Z + 4.0, hi)))
        m2 = sum(integrate_refining(f2, a, b, 1e-12, panels=8, geometric=a >= 1)[0]
                 for a, b in ((Z, Z + 4.0), (Z + 4.0, hi)))
        assert dist.truncated_first_moment(spec, Z) == pytest.approx(m1, rel=1e-9, abs=1e-10)
        assert dist.truncated_second_moment(spec, Z) == pytest.approx(m2, rel=1e-8, abs=1e-9)


def test_gaussian_2d_truncated_first_moment_vs_monte_carlo():
    spec = dist.gaussian(2)
    n = 10_000_000
    norms = np.linalg.norm(dist.sample(spec, n, seed=97), axis=1)
    Z = 3.0
    vals = np.where(norms >= Z, norms, 0.0)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    assert abs(dist.truncated_first_moment(spec, Z) - est) <= 4.0 * se


def test_gaussian_general_dimension_tail_and_moment():
    # independent even-dimension formula: Q(d/2, u) = e^-u sum_{j<d/2} u^j/j!
    for d in (2, 4, 10):
        spec = dist.gaussian(d)
        for Z in (0.5, 2.0, 4.0):
            u = Z * Z / 2.0
            expected = math.exp(-u) * sum(u**j / math.factorial(j) for j in range(d // 2))
            assert dist.radial_tail_mass(spec, Z) == pytest.approx(expected, rel=1e-12)
    # d = 10 moments against Monte Carlo
    spec = dist.gaussian(10)
    norms = np.linalg.norm(dist.sample(spec, 2_000_000, seed=33), axis=1)
    assert dist.mean_norm(spec) == pytest.approx(float(np.mean(norms)), abs=4 * float(np.std(norms)) / math.sqrt(2e6))
    Z = float(np.quantile(norms, 0.98))
    assert dist.radial_tail_mass(spec, Z) == pytest.approx(0.02, abs=4 * math.sqrt(0.02 * 0.98 / 2e6))


ERFC_ULPS = 9  # largest gap of _erfc to math.erfc over 2e6 points of [0, 27]; this test's points reach 6


def _ulps(got, ref):
    return np.abs(got - ref) / np.spacing(ref)


def test_erfc_within_a_few_ulps_of_math_erfc():
    x = np.concatenate([np.linspace(0.0, 27.0, 100_001), np.random.default_rng(0).uniform(0.0, 27.0, 100_000),
                        [0.0, 5.66, 26.5, math.inf]])
    ref = np.array([math.erfc(v) for v in x])
    assert float(np.max(_ulps(dist._erfc(x), ref))) <= ERFC_ULPS
    # every range of the rational forms, in one n-d array
    np.testing.assert_array_equal(dist._erfc(x[:200_000].reshape(400, 500)), dist._erfc(x[:200_000]).reshape(400, 500))


def test_erfc_takes_0d_and_empty_input():
    for v in (0.0, 0.3, 2.0, 5.66, 26.5):
        out = dist._erfc(v)
        assert out.shape == () and float(_ulps(out, math.erfc(v))) <= ERFC_ULPS
    assert float(dist._erfc(math.inf)) == 0.0 and math.isnan(float(dist._erfc(math.nan)))
    assert dist._erfc(np.array([])).shape == (0,)
    assert dist._erfc(np.zeros((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("d", [3, 5, 11])
def test_odd_gaussian_tail_matches_math_erfc_form(d):
    z = np.concatenate([np.linspace(0.0, 12.0, 20_001), [8.0, 38.0]])
    ref = gauss_chi_tail_math_erfc(d, z)
    assert float(np.max(_ulps(dist._gauss_chi_tail(d, z), ref))) <= ERFC_ULPS
    assert float(_ulps(dist._gauss_chi_tail(d, 2.5), gauss_chi_tail_math_erfc(d, 2.5))) <= ERFC_ULPS


def test_z_for_tail_mass_roundtrip():
    for spec in (*ALL_2D(), dist.gaussian(10)):
        for p in (0.5, 0.05, 1e-3):
            Z = dist.z_for_tail_mass(spec, p)
            assert dist.radial_tail_mass(spec, Z) == pytest.approx(p, rel=1e-9)
            assert dist.radial_tail_mass(spec, Z) <= p
    with pytest.raises(ValueError):
        dist.z_for_tail_mass(dist.gaussian(2), 0.0)


# --- sampling ------------------------------------------------------------------

def test_sample_rejects_bad_requests():
    with pytest.raises(ValueError):
        dist.sample(dist.gaussian(2), 0, seed=1)


def test_sample_deterministic_per_seed():
    for spec in ALL_2D():
        a = dist.sample(spec, 512, seed=42)
        b = dist.sample(spec, 512, seed=42)
        np.testing.assert_array_equal(a, b)
        c = dist.sample(spec, 512, seed=43)
        assert not np.array_equal(a, c)


def test_sample_stream_matches_one_shot_draw_sizes():
    spec = dist.heavy_tailed(3.0)
    stream = dist.SampleStream(spec, seed=9)
    chunk = stream.take(100)
    assert chunk.shape == (100, 2)
    assert np.all(np.isfinite(chunk))
    for spec in ALL_2D() + (dist.gaussian(5),):
        np.testing.assert_array_equal(dist.SampleStream(spec, seed=9).take(300), dist.sample(spec, 300, seed=9))


@pytest.mark.parametrize("spec", [dist.gaussian(2), dist.gaussian(10), dist.log_concave(), dist.heavy_tailed(3.0)],
                         ids=["gaussian-2", "gaussian-10", "logconcave", "heavy_tailed"])
def test_stream_takes_concatenate_to_one_draw(spec):
    # the learner streams report data in blocks and PSGD in chunks; uneven
    # takes of every family give the points of one draw, and the Gaussian
    # reads default_rng(seed) alone
    stream = dist.SampleStream(spec, seed=7)
    blocks = np.vstack([stream.take(2048), stream.take(1), stream.take(2047)])
    np.testing.assert_array_equal(blocks, dist.sample(spec, 4096, seed=7))
    if spec.family == "gaussian":
        np.testing.assert_array_equal(blocks, np.random.default_rng(7).standard_normal((4096, spec.dim)))


def test_gaussian_sample_coordinate_variance():
    X = dist.sample(dist.gaussian(2), 1_000_000, seed=7)
    for j in range(2):
        assert 0.995 <= float(np.var(X[:, j])) <= 1.005


def test_heavy_tail_empirical_mass_matches_closed_form():
    spec = dist.heavy_tailed(3.0)
    n = 1_000_000
    norms = np.linalg.norm(dist.sample(spec, n, seed=11), axis=1)
    for Z in (1.0, 3.0, 8.0):
        p = dist.radial_tail_mass(spec, Z)
        emp = float(np.mean(norms >= Z))
        assert abs(emp - p) <= 4.0 * math.sqrt(p * (1 - p) / n)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20_000, 100_000),
       s=st.one_of(st.none(), st.floats(2.1, 8.0)))
def test_sampled_tail_masses_match_closed_form(seed, n, s):
    # s = None stands for the log-concave family
    spec = dist.log_concave() if s is None else dist.heavy_tailed(s)
    norms = np.linalg.norm(dist.sample(spec, n, seed), axis=1)
    for p in (0.5, 0.1, 0.01):
        emp = float(np.mean(norms >= dist.z_for_tail_mass(spec, p)))
        assert abs(emp - p) <= 5.0 * math.sqrt(p * (1 - p) / n)


def _ks_uniform(values01: np.ndarray) -> float:
    u = np.sort(values01)
    n = u.size
    d_plus = np.max(np.arange(1, n + 1) / n - u)
    d_minus = np.max(u - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


@pytest.mark.parametrize("family_idx", [0, 1, 2])
def test_radial_and_angular_fit(family_idx):
    spec = ALL_2D()[family_idx]
    n = 200_000
    X = dist.sample(spec, n, seed=123 + family_idx)
    norms = np.linalg.norm(X, axis=1)
    bound = 1.95 * 2.0 / math.sqrt(n)
    assert _ks_uniform(radial_cdf(spec, norms)) <= bound
    angles = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2.0 * math.pi) / (2.0 * math.pi)
    assert _ks_uniform(angles) <= bound


@pytest.mark.parametrize("family_idx", [0, 1, 2])
def test_sample_covariance_matches_density_covariance(family_idx):
    # analytic covariance = (E||x||^2 / 2) * I by radial symmetry
    spec = ALL_2D()[family_idx]
    n = 1_000_000
    X = dist.sample(spec, n, seed=321 + family_idx)
    target = quad_moment(spec, 2) / 2.0
    cov = (X.T @ X) / n
    if spec.family == "heavy_tailed":
        # E||x||^4 = inf at s = 3: the CLT bound does not apply. x_1^2 sits in
        # the alpha = s/2 stable domain with tail constant C = 16 a^3/(3 pi),
        # so the mean fluctuates at scale C^(2/s) n^(1/(s/2) - 1).
        alpha = spec.s / 2.0
        C = 16.0 * dist.solve_isotropic_params(spec.s)[0] ** 3 / (3.0 * math.pi)
        bound = 5.0 * C ** (1.0 / alpha) * n ** (1.0 / alpha - 1.0)
    else:
        bound = 5.0 * math.sqrt(2.0 / n)
    assert abs(cov[0, 0] - target) <= bound
    assert abs(cov[1, 1] - target) <= bound
    assert abs(cov[0, 1] - 0.0) <= bound


# --- well-behaved constants ------------------------------------------------------

def test_closed_form_constants_match_search():
    heavy = tuple(dist.heavy_tailed(s) for s in (2.1, 2.5, 3.0, 4.0, 8.0))
    for spec in (dist.gaussian(2), dist.log_concave()) + heavy:
        p = dist.well_behaved_params(spec)
        U, R = search_well_behaved_params(spec)
        assert p.U == pytest.approx(U, rel=1e-7), spec
        assert p.R == pytest.approx(R, rel=1e-7), spec


def test_constants_satisfy_definition():
    for spec in ALL_2D() + (dist.heavy_tailed(2.5), dist.heavy_tailed(8.0)):
        p = dist.well_behaved_params(spec)
        r = np.linspace(0.0, p.R, 200)
        assert np.all(dist.radial_density(spec, r) >= 1.0 / p.U - 1e-12)
        assert float(dist.radial_density(spec, 0.0)) <= p.U
        assert quad_moment(spec, 0) <= p.U            # integral of the envelope
        assert dist.mean_norm(spec) <= p.U            # integral of r * envelope
