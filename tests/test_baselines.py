import tracemalloc

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
    # Newton recomputes each row block's margins from w in every pass; the
    # reported norm must be that of the gradient recomputed at the returned
    # w, and the run must equal the reference that recomputes every pass
    # over the same row blocks, bitwise (max_iter = 500 converges). From
    # w0 = (5, -5) the logistic runs reject Armijo tries on the way.
    loss = convex_surrogate(kind)
    rows = dist.block_rows(2)
    ds = _noisy_dataset(dist.heavy_tailed(3.0), 0.01, 100_000, seed=8)  # two blocks, the last one short
    w0 = np.array([5.0, -5.0])
    w, gnorm, iters = full_batch_minimize(loss, ds.x, ds.y, w0=w0, max_iter=max_iter)
    assert gnorm == float(np.linalg.norm(convex_grad_mean(w, ds.x, ds.y, loss, rows)))
    if max_iter < 500:
        assert iters == max_iter
    else:
        assert gnorm <= 1e-6 and iters < max_iter
    w_ref, gnorm_ref, iters_ref = reference_newton(loss, ds.x, ds.y, w0, max_iter=max_iter, rows=rows)
    np.testing.assert_array_equal(w, w_ref)
    assert (gnorm, iters) == (gnorm_ref, iters_ref)


@pytest.fixture(scope="module")
def three_block_dataset():
    return _noisy_dataset(dist.heavy_tailed(3.0), 0.01, 2 * dist.block_rows(2) + 1, seed=9)


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                         ids=["1", "block-1", "block", "block+1", "2block+1"])
@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_newton_row_blocks_match_the_whole_set(three_block_dataset, kind, blocks, extra):
    # At every block boundary the blocked run equals the blocked reference
    # bitwise, and the unblocked full-array reference to rounding: the same
    # iteration count and w within 1e-12 relative.
    rows = dist.block_rows(2)
    n = blocks * rows + extra
    X, y = three_block_dataset.x[:n], three_block_dataset.y[:n]
    loss = convex_surrogate(kind)
    w0 = np.array([5.0, -5.0])
    w, gnorm, iters = full_batch_minimize(loss, X, y, w0=w0)
    w_ref, gnorm_ref, iters_ref = reference_newton(loss, X, y, w0, rows=rows)
    np.testing.assert_array_equal(w, w_ref)
    assert (gnorm, iters) == (gnorm_ref, iters_ref)
    assert gnorm <= 1e-6
    w_full, _, iters_full = reference_newton(loss, X, y, w0)
    assert iters == iters_full
    assert np.linalg.norm(w - w_full) <= 1e-12 * np.linalg.norm(w_full)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge", "hinge"])
def test_newton_memory_does_not_grow_with_n(kind):
    # the traced peak of a fit is a few row blocks' temporaries, the same at
    # 2 and at 8 blocks of data, far below the 8 MiB of X at 8 blocks; the
    # hinge's subgradient path takes 20 steps (max_iter = 1)
    loss = convex_surrogate(kind)
    max_iter = 1 if kind == "hinge" else 500
    ds = _noisy_dataset(dist.heavy_tailed(3.0), 0.01, 8 * dist.block_rows(2), seed=10)
    peaks = []
    for blocks in (2, 8):
        X, y = ds.x[: blocks * dist.block_rows(2)], ds.y[: blocks * dist.block_rows(2)]
        tracemalloc.start()
        try:
            full_batch_minimize(loss, X, y, w0=E2, max_iter=max_iter)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 4 * dist.BLOCK_BYTES
    assert peaks[1] <= peaks[0] + dist.BLOCK_BYTES // 8


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
