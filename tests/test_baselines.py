import numpy as np
import pytest

from halfspace_sgd import distributions as dist
from halfspace_sgd.baselines import full_batch_minimize
from halfspace_sgd.geometry import angle_between, unit_vector
from halfspace_sgd.losses import convex_surrogate
from halfspace_sgd.noise import far_flip, make_dataset
from halfspace_sgd.oracle import admissible_theta
from helpers import convex_grad_mean, reference_newton

E2 = unit_vector(2, 1)


def _noisy_dataset(spec, opt, n, seed):
    Z = dist.z_for_tail_mass(spec, opt)
    model = far_flip(E2, Z=Z, theta2=2.0 * admissible_theta(spec, Z))
    return make_dataset(spec, model, n, seed)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_newton_reaches_gradient_tolerance(kind):
    loss = convex_surrogate(kind)
    ds = _noisy_dataset(dist.gaussian(2), 0.02, 200_000, seed=3)
    w, gnorm, iters = full_batch_minimize(loss, ds.x, ds.y, w0=E2, gtol=1e-6)
    assert gnorm <= 1e-6
    assert float(np.linalg.norm(convex_grad_mean(w, ds.x, ds.y, loss))) <= 1e-6
    assert iters < 100


def test_newton_heavy_tail_logistic():
    ds = _noisy_dataset(dist.heavy_tailed(3.0), 0.01, 200_000, seed=4)
    w, gnorm, _ = full_batch_minimize(convex_surrogate("logistic"), ds.x, ds.y, w0=E2)
    assert gnorm <= 1e-6
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("max_iter", [1, 2, 500])
@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_newton_margins_track_the_iterate(kind, max_iter):
    # Newton reuses the accepted try's margins for the next gradient, Hessian
    # and objective; the reported norm must be that of the gradient
    # recomputed at the returned w, and the run must equal the reference
    # that recomputes every margin pass, bitwise (max_iter = 500 converges).
    # From w0 = (5, -5) the logistic runs reject Armijo tries on the way.
    loss = convex_surrogate(kind)
    ds = _noisy_dataset(dist.heavy_tailed(3.0), 0.01, 100_000, seed=8)
    w0 = np.array([5.0, -5.0])
    w, gnorm, iters = full_batch_minimize(loss, ds.x, ds.y, w0=w0, max_iter=max_iter)
    assert gnorm == float(np.linalg.norm(convex_grad_mean(w, ds.x, ds.y, loss)))
    if max_iter < 500:
        assert iters == max_iter
    else:
        assert gnorm <= 1e-6 and iters < max_iter
    w_ref, gnorm_ref, iters_ref = reference_newton(loss, ds.x, ds.y, w0, max_iter=max_iter)
    np.testing.assert_array_equal(w, w_ref)
    assert (gnorm, iters) == (gnorm_ref, iters_ref)


def test_minimize_deterministic():
    ds = _noisy_dataset(dist.gaussian(2), 0.05, 50_000, seed=5)
    loss = convex_surrogate("logistic")
    w1, g1, _ = full_batch_minimize(loss, ds.x, ds.y, w0=E2)
    w2, g2, _ = full_batch_minimize(loss, ds.x, ds.y, w0=E2)
    np.testing.assert_array_equal(w1, w2)
    assert g1 == g2


def test_hinge_best_effort_descends():
    ds = _noisy_dataset(dist.gaussian(2), 0.05, 50_000, seed=6)
    hinge = convex_surrogate("hinge")
    w, gnorm, _ = full_batch_minimize(hinge, ds.x, ds.y, w0=E2, max_iter=50)
    start_norm = float(np.linalg.norm(convex_grad_mean(E2, ds.x, ds.y, hinge)))
    assert gnorm <= start_norm
    assert np.all(np.isfinite(w))


def test_minimizer_angle_matches_population_prediction():
    # Gaussian opt=0.01: the population logistic minimizer direction sits near
    # M_out/M_in ~ 0.0275 rad from w* (quadrature scout value)
    spec = dist.gaussian(2)
    ds = _noisy_dataset(spec, 0.01, 1_000_000, seed=777)
    w, gnorm, _ = full_batch_minimize(convex_surrogate("logistic"), ds.x, ds.y, w0=E2)
    ang = angle_between(w / np.linalg.norm(w), E2)
    assert 0.02 <= ang <= 0.04
