import math

import numpy as np
import pytest

from halfspace_sgd import distributions as dist
from halfspace_sgd.geometry import rotate2d, unit_vector
from halfspace_sgd.losses import convex_surrogate
from halfspace_sgd.noise import corrupt_labels, far_flip
from halfspace_sgd.oracle import (
    QuadratureSpec,
    _e2_piece_tensor,
    admissible_theta,
    convex_population_grad,
    grad_monte_carlo,
    predicted_floor,
    scan_cone,
)
from halfspace_sgd.quadrature import QuadratureError, integrate_refining
from helpers import transverse_axis

E2 = unit_vector(2, 1)
LOGISTIC = convex_surrogate("logistic")
HINGE = convex_surrogate("hinge")
SQH = convex_surrogate("squared_hinge")


def _standard_model(spec, opt=0.01):
    Z = dist.z_for_tail_mass(spec, opt)
    theta = admissible_theta(spec, Z)
    return far_flip(E2, Z=Z, theta2=2.0 * theta), Z, theta


# --- quadrature helper ---------------------------------------------------------

def test_integrate_refining_matches_known_integral():
    v, err = integrate_refining(np.sin, 0.0, math.pi, 1e-12)
    assert v == pytest.approx(2.0, abs=1e-11)
    assert err <= 1e-12
    # successive estimates agree to the last bit here, so the raw doubling
    # difference alone would report err = 0; the roundoff floor keeps it honest
    assert err > 0.0
    assert err >= np.finfo(float).eps * abs(v)


def test_integrate_refining_explicit_failure():
    # on <= 4 panels sin(1000 x) is unresolved: estimates differ by O(1), so
    # the doubling budget runs out far above tol and its roundoff floor
    rng_bumpy = lambda x: np.sin(1000.0 * x)
    with pytest.raises(QuadratureError, match="did not reach tol"):
        integrate_refining(rng_bumpy, 0.0, 10.0, 1e-8, panels=1, max_doublings=2)


def test_integrate_refining_tol_below_roundoff_raises_at_once():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(x)

    with pytest.raises(QuadratureError, match="below the roundoff floor"):
        integrate_refining(f, 0.0, math.pi, 1e-18)
    assert len(calls) == 1  # no doubling budget spent on an unreachable tol


def test_tensor_rule_error_floored_and_unreachable_tol_raises():
    spec = dist.gaussian(2)
    v, err = _e2_piece_tensor(LOGISTIC, spec, 1.0, 1.0, 0.2, 1.3, 0.0, 3.0, QuadratureSpec(tol=1e-12))
    assert err > 0.0
    assert err >= np.finfo(float).eps * abs(v)
    with pytest.raises(QuadratureError, match="below the roundoff floor"):
        _e2_piece_tensor(LOGISTIC, spec, 1.0, 1.0, 0.2, 1.3, 0.0, 3.0, QuadratureSpec(tol=1e-18))


# --- population gradient --------------------------------------------------------

def test_clean_gradient_transverse_component_vanishes_at_wstar():
    spec = dist.gaussian(2)
    model = far_flip(E2, Z=math.inf, theta2=0.1)
    g, err, _ = convex_population_grad(LOGISTIC, E2, spec, model)
    assert abs(g[0]) <= 1e-9
    assert err <= 1e-8


@pytest.mark.parametrize("loss", [LOGISTIC, HINGE, SQH])
def test_gradient_matches_monte_carlo_gaussian(loss):
    spec = dist.gaussian(2)
    model, Z, theta = _standard_model(spec)
    w = rotate2d(E2, 0.0007) * 1.4
    g, _, _ = convex_population_grad(loss, w, spec, model)
    g_mc, se = grad_monte_carlo(loss, w, spec, model, 2_000_000, seed=19)
    assert np.all(np.abs(g - g_mc) <= 4.0 * se)


@pytest.mark.parametrize("family", ["gaussian", "logconcave", "heavy_tailed"])
@pytest.mark.parametrize("kind", ["logistic", "hinge", "squared_hinge"])
def test_gradient_matches_monte_carlo_all_pairs(kind, family):
    # full cross-oracle matrix at opt = 0.01 (the oracle does not implement
    # squared hinge on the heavy-tailed family)
    if kind == "squared_hinge" and family == "heavy_tailed":
        pytest.skip("pair not implemented; refusal covered elsewhere")
    spec = {"gaussian": dist.gaussian(2), "logconcave": dist.log_concave(),
            "heavy_tailed": dist.heavy_tailed(3.0)}[family]
    loss = convex_surrogate(kind)
    model, Z, theta = _standard_model(spec)
    w = rotate2d(E2, -0.0005)
    g, _, _ = convex_population_grad(loss, w, spec, model)
    g_mc, se = grad_monte_carlo(loss, w, spec, model, 2_000_000, seed=20)
    assert np.all(np.abs(g - g_mc) <= 4.0 * se)


def test_gradient_matches_bruteforce_tensor_rule():
    # independent route: dense midpoint grid with pointwise labels, cells
    # aligned to the label-discontinuity loci (the disk edge Z and the four
    # sector boundary angles) so the midpoint rule sees smooth integrands
    spec = dist.gaussian(2)
    model, Z, theta = _standard_model(spec)
    w = rotate2d(E2, 0.3) * 0.9
    g, _, _ = convex_population_grad(LOGISTIC, w, spec, model)

    a_star = math.atan2(model.w_star[1], model.w_star[0])
    a_tilde = math.atan2(model.w_tilde[1], model.w_tilde[0])
    bounds = np.sort(np.mod([a_star - math.pi / 2, a_star + math.pi / 2, a_tilde,
                             a_tilde + math.pi], 2 * math.pi))
    phi_cells, r_cells = [], []
    for lo, hi in zip(bounds, np.append(bounds[1:], bounds[0] + 2 * math.pi)):
        m = 2048
        phi_cells.append(lo + (np.arange(m) + 0.5) * (hi - lo) / m)
        r_cells.append(np.full(m, (hi - lo) / m))
    phi = np.concatenate(phi_cells)
    dphi = np.concatenate(r_cells)
    r_edges = np.concatenate([np.linspace(0.0, Z, 1500), np.linspace(Z, 9.0, 1500)[1:]])
    r = 0.5 * (r_edges[:-1] + r_edges[1:])
    dr = np.diff(r_edges)

    R, P = np.meshgrid(r, phi, indexing="ij")
    X = np.stack([(R * np.cos(P)).ravel(), (R * np.sin(P)).ravel()], axis=1)
    clean = np.where(X @ model.w_star >= 0, 1.0, -1.0)
    y, _ = corrupt_labels(model, X, clean)
    t = -y * (X @ w)
    weights = ((r * dist.radial_density(spec, r) * dr)[:, None] * dphi[None, :]).ravel()
    g_brute = ((-y * LOGISTIC.slope(t) * weights)[:, None] * X).sum(axis=0)
    assert np.all(np.abs(g - g_brute) <= 1e-6)


def test_region_split_adds_up_and_has_proof_sign_structure():
    spec = dist.gaussian(2)
    model, Z, theta = _standard_model(spec)
    for ang in (0.3 * theta, 0.9 * theta):
        w = rotate2d(E2, ang)  # between w* and w_tilde
        g, err, split = convex_population_grad(LOGISTIC, w, spec, model)
        np.testing.assert_allclose(split["S"] + split["Sc"], g, atol=1e-12)
        t_hat = transverse_axis(w, model)
        assert float(split["Sc"] @ t_hat) >= -1e-9
        assert float(split["S"] @ t_hat) <= 1e-9
    for ang in (-0.3 * theta, -0.9 * theta):
        w = rotate2d(E2, ang)  # outside the (w*, w_tilde) cone
        _, _, split = convex_population_grad(LOGISTIC, w, spec, model)
        t_hat = transverse_axis(w, model)
        assert float(split["Sc"] @ t_hat) <= 1e-9
        assert float(split["S"] @ t_hat) <= 1e-9


def test_gradient_stable_under_finer_initial_panels():
    spec = dist.log_concave()
    model, Z, theta = _standard_model(spec)
    w = rotate2d(E2, 0.5 * theta)
    tol = 1e-9
    g1, _, _ = convex_population_grad(LOGISTIC, w, spec, model, QuadratureSpec(tol=tol))
    g2, _, _ = convex_population_grad(
        LOGISTIC, w, spec, model, QuadratureSpec(radial_panels=8, angular_panels=8, tol=tol)
    )
    assert np.all(np.abs(g1 - g2) <= 10 * tol)


def test_gradient_rejects_bad_w_and_spec():
    spec = dist.gaussian(2)
    model, _, _ = _standard_model(spec)
    with pytest.raises(ValueError):
        convex_population_grad(LOGISTIC, np.zeros(2), spec, model)
    with pytest.raises(ValueError):
        convex_population_grad(LOGISTIC, np.ones(3), spec, model)
    with pytest.raises(ValueError):
        convex_population_grad(LOGISTIC, np.ones(2), dist.gaussian(3), model)


def test_gradient_converges_with_sub_unit_flip_radius():
    # large opt pushes Z below 1; the tail piece must still converge
    spec = dist.heavy_tailed(3.0)
    Z = dist.z_for_tail_mass(spec, 0.3)
    assert Z < 1.0
    model = far_flip(E2, Z=Z, theta2=0.3)
    for loss in (LOGISTIC, HINGE):
        g, _, _ = convex_population_grad(loss, rotate2d(E2, 0.05), spec, model)
        g_mc, se = grad_monte_carlo(loss, rotate2d(E2, 0.05), spec, model, 1_000_000, seed=77)
        assert np.all(np.abs(g - g_mc) <= 4.0 * se)


def test_gradient_tol_below_roundoff_raises():
    spec = dist.gaussian(2)
    model, _, _ = _standard_model(spec)
    with pytest.raises(QuadratureError, match="below the roundoff floor"):
        convex_population_grad(LOGISTIC, E2, spec, model, QuadratureSpec(tol=1e-18))


def test_squared_hinge_heavy_tail_divergence_is_refused():
    spec = dist.heavy_tailed(3.0)
    model, _, _ = _standard_model(spec)
    with pytest.raises(NotImplementedError):
        convex_population_grad(SQH, E2, spec, model)


# --- admissible theta / floors ---------------------------------------------------

def test_admissible_theta_full_mass_case():
    for spec in (dist.gaussian(2), dist.log_concave(), dist.heavy_tailed(3.0)):
        th = admissible_theta(spec, 0.0)
        assert th == pytest.approx(1.0 / 24.0, abs=1e-8)
        assert th < math.pi / 8.0


def test_admissible_theta_monotone_in_z():
    spec = dist.gaussian(2)
    zs = np.linspace(0.0, 6.0, 30)
    vals = [admissible_theta(spec, z) for z in zs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_predicted_floor_is_composition():
    spec = dist.gaussian(2)
    Z = math.sqrt(2.0 * math.log(100.0))
    assert predicted_floor(spec, 0.01) == pytest.approx(admissible_theta(spec, Z), rel=1e-9)
    with pytest.raises(ValueError):
        predicted_floor(spec, 0.3)


def test_predicted_floor_exponents():
    opts = np.array([1e-2, 1e-3, 1e-4])
    # heavy s=3: floor ~ opt^(2/3) so floor/opt grows with slope ~ -1/3
    heavy = dist.heavy_tailed(3.0)
    floors = np.array([predicted_floor(heavy, o) for o in opts])
    slope = np.polyfit(np.log(opts), np.log(floors / opts), 1)[0]
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.05)
    # gaussian: floor/opt ~ sqrt(log(1/opt)) increases as opt decreases
    gauss = dist.gaussian(2)
    ratios = np.array([predicted_floor(gauss, o) / o for o in opts])
    assert ratios[0] < ratios[1] < ratios[2]


# --- cone scan -----------------------------------------------------------------

def test_scan_cone_single_point_at_wstar_not_stationary():
    spec = dist.gaussian(2)
    model, Z, theta = _standard_model(spec)
    rep = scan_cone(LOGISTIC, spec, Z, theta, grid_points=1)
    assert rep.min_grad_norm > 10.0 * rep.max_quad_error
    assert rep.argmin_angle == 0.0


def test_scan_cone_reports_and_validates():
    spec = dist.log_concave()
    model, Z, theta = _standard_model(spec)
    rep = scan_cone(HINGE, spec, Z, theta, grid_points=11)
    assert rep.grid_points == 11 and rep.theta2 == pytest.approx(2 * theta)
    assert abs(rep.argmin_angle) <= theta
    assert rep.min_grad_norm > 10.0 * rep.max_quad_error
    assert abs(np.linalg.norm(rep.argmin_w) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        scan_cone(HINGE, spec, Z, theta * 1.5, grid_points=3)
    with pytest.raises(ValueError):
        scan_cone(HINGE, spec, Z, theta, grid_points=0)


@pytest.mark.parametrize("loss", [LOGISTIC, HINGE, SQH])
def test_scan_cone_matches_per_point_gradients(loss):
    # scan_cone finds the truncation radius once per scan; each point must
    # still match its own gradient, whose radius is found per call
    spec = dist.gaussian(2)
    model, Z, theta = _standard_model(spec)
    rep = scan_cone(loss, spec, Z, theta, grid_points=3)
    norms, errs = [], []
    for ang in np.linspace(-theta, theta, 3):
        g, err, _ = convex_population_grad(loss, rotate2d(E2, float(ang)), spec, model)
        norms.append(float(np.linalg.norm(g)))
        errs.append(err)
    assert rep.min_grad_norm == min(norms)
    assert rep.max_quad_error == max(errs)
