import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfspace_sgd import distributions as dist
from halfspace_sgd import oracle, quadrature
from halfspace_sgd.geometry import rotate2d, unit_vector
from halfspace_sgd.losses import convex_surrogate
from halfspace_sgd.noise import corrupt_labels, far_flip
from halfspace_sgd.oracle import (
    QuadratureSpec,
    admissible_theta,
    predicted_floor,
    scan_cone,
)
from halfspace_sgd.quadrature import QuadratureError, gl_panels
import helpers
from helpers import (
    convex_population_grad,
    grad_monte_carlo,
    integrate_refining,
    reference_population_grad,
    transverse_axis,
)

E2 = unit_vector(2, 1)
LOGISTIC = convex_surrogate("logistic")
HINGE = convex_surrogate("hinge")


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


def _tensor_cells(spec, rows, tol):
    """(values, errors) of logistic tensor cells (y, rho, p1, p2, ra, rb)
    through the oracle's batched integration."""
    rule = oracle._Rule(np.array(rows, dtype=float), partial(oracle._tensor_level, spec, tol), str)
    return oracle._integrate([rule], tol)[0]


def test_tensor_rule_error_floored_and_unreachable_tol_raises():
    spec = dist.gaussian(2)
    cell = [(1.0, 1.0, 0.2, 1.3, 0.0, 3.0)]
    (v,), (err,) = _tensor_cells(spec, cell, 1e-12)
    assert err > 0.0
    assert err >= np.finfo(float).eps * abs(v)
    with pytest.raises(QuadratureError, match="below the roundoff floor"):
        _tensor_cells(spec, cell, 1e-18)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_factored_tensor_rule_matches_elementwise_sum(k):
    # the factored value a^T S b and abs-sum a^T S |b| against the sums of
    # the elementwise integrand on the same nodes; k = 3 cells exceed one
    # stacked block, so they are also split along r
    spec = dist.heavy_tailed(3.0)
    pr, pa = oracle._RADIAL_PANELS << k, oracle._ANGULAR_PANELS << k
    rows = np.array([(1.0, 1.0, 0.2, 1.3, 0.0, 3.0), (-1.0, 2.5, 3.4, 4.6, 0.7, 40.0)])
    values, abs_sums, size = oracle._tensor_level(spec, 1e-9, rows, k)
    assert size == (16 * pr) * (16 * pa)
    for (y, rho, p1, p2, ra, rb), v, a in zip(rows, values, abs_sums):
        rn, rw = gl_panels([ra], [rb], pr, ra > 0.0)
        pn, pw = gl_panels([p1], [p2], pa, False)
        s = np.sin(pn[0])
        t = -y * rho * rn[0][:, None] * s[None, :]
        f = (rn[0] ** 2 * dist.radial_density(spec, rn[0]) * rw[0])[:, None] * (-y * s * pw[0]) * LOGISTIC.slope(t)
        assert v == pytest.approx(np.sum(f), rel=1e-14, abs=0.0)
        assert a == pytest.approx(np.sum(np.abs(f)), rel=1e-14, abs=0.0)


# --- population gradient --------------------------------------------------------

def test_clean_gradient_transverse_component_vanishes_at_wstar():
    spec = dist.gaussian(2)
    model = far_flip(E2, Z=math.inf, theta2=0.1)
    g, err, _ = convex_population_grad(LOGISTIC, E2, spec, model)
    assert abs(g[0]) <= 1e-9
    assert err <= 1e-8


@pytest.mark.parametrize("loss", [LOGISTIC, HINGE])
def test_gradient_matches_monte_carlo_gaussian(loss):
    spec = dist.gaussian(2)
    model, Z, theta = _standard_model(spec)
    w = rotate2d(E2, 0.0007) * 1.4
    g, _, _ = convex_population_grad(loss, w, spec, model)
    g_mc, se = grad_monte_carlo(loss, w, spec, model, 2_000_000, seed=19)
    assert np.all(np.abs(g - g_mc) <= 4.0 * se)


@pytest.mark.parametrize("family", ["gaussian", "logconcave", "heavy_tailed"])
@pytest.mark.parametrize("kind", oracle.ORACLE_KINDS)
def test_gradient_matches_monte_carlo_all_pairs(kind, family):
    # full cross-oracle matrix at opt = 0.01
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
    y, _ = corrupt_labels(model, X)
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


@settings(derandomize=True, max_examples=30, deadline=None)
@given(kind=st.sampled_from(["logistic", "hinge"]),
       family=st.sampled_from(["gaussian", "logconcave", "heavy_tailed"]),
       opt=st.sampled_from([0.01, 0.05]),
       alpha=st.floats(-math.pi, math.pi),
       offset=st.floats(-math.pi, math.pi),
       rho=st.floats(0.5, 3.0))
def test_gradient_rotates_with_w_and_wstar(kind, family, opt, alpha, offset, rho):
    # radial symmetry: rotating w and w* (and so the whole far-flip
    # construction) by alpha rotates the population gradient by alpha
    loss = convex_surrogate(kind)
    spec = dist.DistributionSpec(family, 2, 3.0 if family == "heavy_tailed" else None)
    model, Z, theta = _standard_model(spec, opt)
    w = rho * rotate2d(E2, offset)
    g, err, _ = convex_population_grad(loss, w, spec, model)
    rotated = far_flip(rotate2d(E2, alpha), Z=Z, theta2=2.0 * theta)
    g_rot, err_rot, _ = convex_population_grad(loss, rotate2d(w, alpha), spec, rotated)
    assert float(np.linalg.norm(g_rot - rotate2d(g, alpha))) <= err + err_rot


def test_gradient_stable_under_finer_initial_panels(monkeypatch):
    spec = dist.log_concave()
    model, Z, theta = _standard_model(spec)
    w = rotate2d(E2, 0.5 * theta)
    tol = 1e-9
    g1, _, _ = convex_population_grad(LOGISTIC, w, spec, model, QuadratureSpec(tol=tol))
    monkeypatch.setattr(oracle, "_RADIAL_PANELS", 8)
    monkeypatch.setattr(oracle, "_ANGULAR_PANELS", 8)
    g2, _, _ = convex_population_grad(LOGISTIC, w, spec, model, QuadratureSpec(tol=tol))
    assert not np.array_equal(g1, g2)  # the finer panels were used
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


def test_squared_hinge_is_refused_for_every_family():
    # its slope is unbounded, so the oracle does not integrate it at all
    squared_hinge = convex_surrogate("squared_hinge")
    for spec in (dist.gaussian(2), dist.log_concave(), dist.heavy_tailed(3.0)):
        model, Z, theta = _standard_model(spec)
        with pytest.raises(ValueError, match="not squared_hinge"):
            convex_population_grad(squared_hinge, E2, spec, model)
        with pytest.raises(ValueError, match="not squared_hinge"):
            scan_cone(squared_hinge, spec, Z, theta, grid_points=3)


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
    assert rep.grid_points == 11
    assert abs(rep.argmin_angle) <= theta
    assert rep.min_grad_norm > 10.0 * rep.max_quad_error
    with pytest.raises(ValueError):
        scan_cone(HINGE, spec, Z, theta * 1.5, grid_points=3)
    with pytest.raises(ValueError):
        scan_cone(HINGE, spec, Z, theta, grid_points=0)


@pytest.mark.parametrize("loss", [LOGISTIC, HINGE])
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


@pytest.mark.parametrize("family", ["gaussian", "logconcave", "heavy_tailed"])
@pytest.mark.parametrize("kind", oracle.ORACLE_KINDS)
def test_batched_gradient_matches_per_piece_reference(kind, family):
    # the batched half-plane oracle against one integration per piece over
    # the whole plane, at three angles and at norms across the range a scan
    # over rho would cover
    spec = {"gaussian": dist.gaussian(2), "logconcave": dist.log_concave(),
            "heavy_tailed": dist.heavy_tailed(3.0)}[family]
    loss = convex_surrogate(kind)
    model, Z, theta = _standard_model(spec)
    quad = QuadratureSpec()
    for rho in (0.05, 1.3, 20.0):
        for ang in (-theta, 0.4 * theta, 1.7):
            w = rotate2d(E2, ang) * rho
            g, err, _ = convex_population_grad(loss, w, spec, model, quad)
            g_ref, err_ref = reference_population_grad(loss, w, spec, model, quad)
            assert float(np.linalg.norm(g - g_ref)) <= err + err_ref
            assert err == pytest.approx(err_ref, rel=1e-5)  # the doubled half-plane errors are the whole plane's


def test_scan_cone_under_a_counting_driver(monkeypatch):
    # a tracer wraps refine_by_doubling with a one-argument estimate(k) and
    # sums out[2] into an int; the scan must report the same under it, and
    # spend the nodes of one integral at a time (no converged integral is
    # evaluated again); on heavy tails its integrals stop at different levels.
    # The scan integrates one half-plane and the reference the whole plane,
    # whose antipodal pieces converge at the same levels: exactly twice the nodes
    spec = dist.heavy_tailed(3.0)
    model, Z, theta = _standard_model(spec)
    plain = scan_cone(LOGISTIC, spec, Z, theta, grid_points=3)
    counts = {"calls": 0, "nodes": 0}
    refine = quadrature.refine_by_doubling

    def counted(estimate, *args, **kwargs):
        def counted_estimate(k):
            out = estimate(k)
            counts["nodes"] += out[2]
            return out

        counts["calls"] += 1
        return refine(counted_estimate, *args, **kwargs)

    monkeypatch.setattr(oracle, "refine_by_doubling", counted)
    traced = scan_cone(LOGISTIC, spec, Z, theta, grid_points=3)
    assert traced.min_grad_norm == plain.min_grad_norm
    assert traced.argmin_angle == plain.argmin_angle
    assert traced.max_quad_error == plain.max_quad_error
    assert counts["calls"] == 1
    assert type(counts["nodes"]) is int and counts["nodes"] > 0

    scan_nodes = counts["nodes"]
    counts["nodes"] = 0
    monkeypatch.setattr(helpers, "refine_by_doubling", counted)
    for ang in np.linspace(-theta, theta, 3):
        reference_population_grad(LOGISTIC, rotate2d(E2, float(ang)), spec, model, QuadratureSpec())
    assert counts["nodes"] == 2 * scan_nodes


@settings(derandomize=True, max_examples=200, deadline=None)
@given(w_angle=st.floats(-math.pi, math.pi),
       star_angle=st.floats(-math.pi, math.pi),
       theta2=st.floats(0.0, math.pi / 4.0, exclude_min=True))
def test_break_angles_are_antipodal_pairs(w_angle, star_angle, theta2):
    # the half-plane rule's premise, checked as _rule_rows checks it: four
    # distinct angles in antipodal pairs, the scalar form's angles
    model = far_flip(rotate2d(E2, star_angle), Z=2.0, theta2=theta2)
    w = rotate2d(E2, w_angle)
    shifts = np.array([math.atan2(w[1], w[0]) - math.pi / 2.0])
    brk = oracle._break_angles(model, shifts)
    assert brk.shape == (1, 4)
    assert np.all(np.diff(brk) > 0.0)
    assert np.all(np.abs(brk[:, 2:] - brk[:, :2] - math.pi) <= 1e-12)
    assert np.array_equal(brk[0], helpers.sector_break_angles(model, shifts[0]))


def test_asymmetric_break_angles_raise(monkeypatch):
    # the check holds for every point of a call: only the last point of a
    # scan gets the bad angles. np.unique merges a repeated angle, so the
    # scalar form raises on one repeat (three angles left) but takes a
    # doubly repeated pair as one antipodal pair; the array form needs four
    # distinct angles and raises on both (its rows always hold four)
    spec = dist.gaussian(2)
    model, Z, theta = _standard_model(spec)
    break_angles = oracle._break_angles
    for angles, scalar_raises in (([0.1, 1.0, 0.1 + math.pi, 1.0 + math.pi + 1e-9], True),  # a pair off by 1e-9
                                  ([0.1, 1.0, 1.0, 0.1 + math.pi], True),  # a repeated angle
                                  ([0.1, 0.1, 0.1 + math.pi, 0.1 + math.pi], False)):  # a repeated pair
        monkeypatch.setattr(oracle, "_break_angles",
                            lambda model, shifts: np.array([*break_angles(model, shifts)[:-1].tolist(), angles]))
        with pytest.raises(ValueError, match="antipodally symmetric"):
            convex_population_grad(LOGISTIC, E2, spec, model)
        with pytest.raises(ValueError, match="antipodally symmetric"):
            scan_cone(HINGE, spec, Z, theta, grid_points=3)
        monkeypatch.setattr(helpers, "sector_break_angles", lambda model, frame_shift: np.unique(angles))
        if scalar_raises:
            with pytest.raises(ValueError, match="antipodally symmetric"):
                helpers.reference_rule_rows(LOGISTIC, model, [E2], 10.0)
        else:
            helpers.reference_rule_rows(LOGISTIC, model, [E2], 10.0)


_ROW_SPECS = {"gaussian": dist.gaussian(2), "logconcave": dist.log_concave(),
              "heavy_tailed_s3": dist.heavy_tailed(3.0), "heavy_tailed_s5": dist.heavy_tailed(5.0)}


def _bitwise_equal(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("star", [0.0, 1.1])
@pytest.mark.parametrize("opt", [0.01, 0.2, 0.6])
@pytest.mark.parametrize("family", list(_ROW_SPECS))
@pytest.mark.parametrize("kind", oracle.ORACLE_KINDS)
def test_rule_rows_match_the_per_point_loop(kind, family, opt, star):
    # _rule_rows against the scalar per-point loop: every row, its
    # order and its index, bitwise, at norms from 0.05 to 1000 and angles in
    # and far outside the cone; with two annuli (Z < r_max) and with one
    spec = _ROW_SPECS[family]
    Z = dist.z_for_tail_mass(spec, opt)
    theta = admissible_theta(spec, Z)
    w_star = rotate2d(E2, star)
    model = far_flip(w_star, Z=Z, theta2=2.0 * theta)
    angles = np.array([-theta, 0.0, theta, 0.8, -1.9, 2.6, math.pi])
    ws = [rotate2d(w_star, float(ang)) * rho for ang, rho in zip(angles, np.geomspace(0.05, 1000.0, 7))]
    r_max = oracle._auto_r_max(spec, QuadratureSpec().tol)
    assert Z < r_max
    for annuli, r in ((2, r_max), (1, Z)):
        got = oracle._rule_rows(convex_surrogate(kind), model, ws, r)
        ref = helpers.reference_rule_rows(convex_surrogate(kind), model, ws, r)
        assert all(_bitwise_equal(g, f) for g, f in zip(got, ref))
        assert set(got[1] % 2) == set(range(annuli))
