import math

import numpy as np
import pytest

from halfspace_sgd import baselines
from halfspace_sgd.geometry import project_to_sphere
from halfspace_sgd.losses import convex_surrogate, sigmoid, sigmoid_slope, surrogate_grad_rows
from helpers import convex_grad_mean, convex_loss_mean, surrogate_grad_sample, surrogate_loss_sample


def convex_loss_sample(w, x, y, surrogate):
    """l(-y <x, w>) for one example, through the dataset mean of one row."""
    return convex_loss_mean(w, np.asarray(x, dtype=float)[None, :], [float(y)], surrogate)


def convex_grad_sample(w, x, y, surrogate):
    """-y x l'(-y <x, w>) for one example, through the dataset mean of one row."""
    return convex_grad_mean(w, np.asarray(x, dtype=float)[None, :], [float(y)], surrogate)


def test_sigmoid_reference_values():
    assert sigmoid(0.0, 1.0) == 0.5
    assert sigmoid(1.0, 1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_sigmoid_symmetry_identity():
    rng = np.random.default_rng(2)
    t = rng.standard_normal(100) * 10
    for sigma in (0.05, 0.3, 2.0):
        np.testing.assert_allclose(sigmoid(t, sigma) + sigmoid(-t, sigma), 1.0, atol=1e-12)


def test_sigmoid_extreme_arguments_stable():
    for t in (-1e9, -700.0, 700.0, 1e9):
        v = sigmoid(t, 0.01)
        assert 0.0 <= v <= 1.0 and np.isfinite(v)
    assert sigmoid(1e9, 0.01) == 1.0
    assert sigmoid(-1e9, 0.01) == 0.0


def test_sigmoid_strictly_increasing():
    t = np.linspace(-30, 30, 5001)
    v = sigmoid(t, 0.7)
    assert np.all(np.diff(v) >= 0)
    mid = v[(t > -5) & (t < 5)]
    assert np.all(np.diff(mid) > 0)


def test_sigmoid_rejects_bad_sigma():
    for sigma in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            sigmoid(1.0, sigma)


def test_sigmoid_slope_matches_difference_quotient():
    # atol floor: the difference quotient resolves nothing below eps/h
    rng = np.random.default_rng(4)
    for sigma in (0.1, 1.0):
        t = rng.standard_normal(50)
        h = 1e-6
        fd = (sigmoid(t + h, sigma) - sigmoid(t - h, sigma)) / (2 * h)
        np.testing.assert_allclose(sigmoid_slope(t, sigma), fd, rtol=1e-7, atol=2e-10)


def test_slope_and_gradient_finite_at_extreme_margins():
    # e = exp(-|t|/sigma) only underflows, so nothing overflows or turns NaN
    with np.errstate(over="raise", invalid="raise"):
        for sigma in (1e-3, 0.015, 1.0):
            t = np.array([-1e300, -1e9, -700.0, 0.0, 700.0, 1e9, 1e300]) * sigma
            slope = sigmoid_slope(t, sigma)
            assert np.all(np.isfinite(slope)) and np.all(slope >= 0.0)
            np.testing.assert_array_equal(slope, slope[::-1])  # even in t
            assert slope[3] == 0.25 / sigma
        W = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        X = np.array([[1e298, 1.0], [-3e297, 5e297], [2.0, -1e298]])
        G = surrogate_grad_rows(W, X, np.array([1.0, -1.0, 1.0]), 0.01)
        assert np.all(np.isfinite(G))


def test_surrogate_loss_boundary_and_scaling():
    w = np.array([1.0, 0.0])
    x = np.array([0.0, 3.0])  # margin 0
    assert surrogate_loss_sample(w, x, 1, 0.2) == 0.5
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = rng.standard_normal(4)
        x = rng.standard_normal(4)
        v = surrogate_loss_sample(w, x, -1, 0.3)
        assert surrogate_loss_sample(5.0 * w, x, -1, 0.3) == pytest.approx(v, abs=1e-12)


def test_surrogate_loss_far_correct_point_is_tiny():
    w = np.array([0.0, 1.0])
    sigma = 0.1
    x = np.array([0.0, 20.0 * sigma])  # correct with margin 20 sigma
    assert surrogate_loss_sample(w, x, 1, sigma) < 1e-6


def test_surrogate_loss_rejects_zero_w():
    with pytest.raises(ValueError):
        surrogate_loss_sample(np.zeros(3), np.ones(3), 1, 0.5)
    with pytest.raises(ValueError):
        surrogate_grad_sample(np.zeros(3), np.ones(3), 1, 0.5)


def test_surrogate_grad_orthogonal_to_unit_w():
    rng = np.random.default_rng(12)
    for _ in range(100):
        w = project_to_sphere(rng.standard_normal(5))
        x = rng.standard_normal(5)
        g = surrogate_grad_sample(w, x, 1 if rng.random() < 0.5 else -1, 0.2)
        assert abs(float(g @ w)) <= 1e-10


def test_surrogate_grad_finite_difference():
    # margins beyond ~10 sigma saturate the loss within 1 ulp of {0, 1},
    # below what a double-precision difference quotient can resolve
    rng = np.random.default_rng(21)
    for sigma in (0.05, 0.2, 1.0):
        done = 0
        while done < 40:
            w = rng.standard_normal(5) * rng.uniform(0.5, 2.0)
            x = rng.standard_normal(5)
            y = 1 if rng.random() < 0.5 else -1
            if abs(float(w @ x)) / float(np.linalg.norm(w)) > 10.0 * sigma:
                continue
            done += 1
            g = surrogate_grad_sample(w, x, y, sigma)
            h = 1e-6 * max(1.0, float(np.linalg.norm(w)))
            fd = np.empty_like(w)
            for i in range(w.size):
                e = np.zeros_like(w)
                e[i] = h
                fd[i] = (
                    surrogate_loss_sample(w + e, x, y, sigma)
                    - surrogate_loss_sample(w - e, x, y, sigma)
                ) / (2 * h)
            scale = max(float(np.linalg.norm(g)), 1e-12)
            assert float(np.linalg.norm(g - fd)) / scale <= 1e-6


def test_surrogate_grad_vanishes_for_parallel_x():
    w = project_to_sphere(np.array([1.0, 2.0, -1.0]))
    g = surrogate_grad_sample(w, 3.7 * w, 1, 0.5)
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_surrogate_grad_inverse_scaling_in_w():
    rng = np.random.default_rng(31)
    for _ in range(50):
        w = rng.standard_normal(4)
        x = rng.standard_normal(4)
        g1 = surrogate_grad_sample(w, x, -1, 0.2)
        for c in (0.5, 4.0):
            g2 = surrogate_grad_sample(c * w, x, -1, 0.2)
            np.testing.assert_allclose(g2, g1 / c, rtol=1e-9, atol=1e-15)


def test_surrogate_grad_rows_matches_per_sample():
    rng = np.random.default_rng(41)
    W = rng.standard_normal((20, 6))
    X = rng.standard_normal((20, 6))
    y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    rows = surrogate_grad_rows(W, X, y, 0.3)
    for i in range(20):
        np.testing.assert_array_equal(rows[i], surrogate_grad_sample(W[i], X[i], y[i], 0.3))


def test_surrogate_grad_rows_per_row_sigma():
    rng = np.random.default_rng(43)
    W = rng.standard_normal((3, 4))
    X = rng.standard_normal((3, 4))
    y = np.array([1.0, -1.0, 1.0])
    sigmas = np.array([0.1, 0.5, 2.0])
    rows = surrogate_grad_rows(W, X, y, sigmas)
    for i in range(3):
        np.testing.assert_array_equal(rows[i], surrogate_grad_sample(W[i], X[i], y[i], sigmas[i]))


def test_mean_surrogate_loss_in_unit_interval():
    rng = np.random.default_rng(51)
    w = rng.standard_normal(4)
    X = rng.standard_normal((500, 4))
    y = np.where(rng.random(500) < 0.5, 1.0, -1.0)
    vals = [surrogate_loss_sample(w, x, yy, 0.4) for x, yy in zip(X, y)]
    assert 0.0 <= float(np.mean(vals)) <= 1.0


def test_clean_symmetric_gradient_small_at_wstar():
    # population gradient at w* on clean radially symmetric data is zero;
    # the empirical mean should be within 5 standard errors of it
    rng = np.random.default_rng(61)
    n, d = 200_000, 4
    X = rng.standard_normal((n, d))
    w_star = np.zeros(d)
    w_star[0] = 1.0
    y = np.where(X @ w_star >= 0, 1.0, -1.0)
    W = np.broadcast_to(w_star, (n, d))
    G = surrogate_grad_rows(W, X, y, 0.3)
    mean = G.mean(axis=0)
    se = G.std(axis=0, ddof=1) / math.sqrt(n)
    assert float(np.linalg.norm(mean)) <= 5.0 * float(np.linalg.norm(se))


# --- convex surrogates ------------------------------------------------------

def test_convex_reference_values():
    hinge = convex_surrogate("hinge")
    logistic = convex_surrogate("logistic")
    w = np.array([0.0, 1.0])
    x = np.array([0.0, 2.0])
    assert convex_loss_sample(w, x, 1, hinge) == 0.0  # margin 2, flat region
    x0 = np.array([3.0, 0.0])
    assert convex_loss_sample(w, x0, 1, logistic) == pytest.approx(math.log(2.0), abs=1e-12)


def test_convex_unknown_kind_rejected():
    with pytest.raises(ValueError):
        convex_surrogate("ramp")


@pytest.mark.parametrize("kind", ["logistic", "hinge", "squared_hinge"])
def test_convexity_midpoint_inequality(kind):
    loss = convex_surrogate(kind)
    rng = np.random.default_rng(71)
    a = rng.standard_normal(1000) * 5
    b = rng.standard_normal(1000) * 5
    mid = loss.value((a + b) / 2)
    avg = (loss.value(a) + loss.value(b)) / 2
    assert np.all(mid <= avg + 1e-12)


@pytest.mark.parametrize("kind", ["logistic", "hinge", "squared_hinge"])
def test_convex_nondecreasing_nonconstant(kind):
    loss = convex_surrogate(kind)
    t = np.linspace(-40, 40, 2001)
    v = loss.value(t)
    assert np.all(np.diff(v) >= -1e-12)
    assert v[-1] > v[0]


def test_convex_grad_flat_region_zero():
    hinge = convex_surrogate("hinge")
    w = np.array([0.0, 1.0])
    x = np.array([1.0, 5.0])  # margin 5 -> t = -5 < -1
    np.testing.assert_array_equal(convex_grad_sample(w, x, 1, hinge), np.zeros(2))


def test_hinge_kink_uses_right_derivative():
    hinge = convex_surrogate("hinge")
    assert hinge.slope(-1.0) == 1.0


@pytest.mark.parametrize("kind", ["logistic", "hinge", "squared_hinge"])
def test_convex_grad_finite_difference_away_from_kinks(kind):
    loss = convex_surrogate(kind)
    rng = np.random.default_rng(81)
    checked = 0
    while checked < 40:
        w = rng.standard_normal(3)
        x = rng.standard_normal(3)
        y = 1 if rng.random() < 0.5 else -1
        t = -y * float(x @ w)
        if abs(t + 1.0) < 0.05:  # skip the hinge kink neighborhood
            continue
        g = convex_grad_sample(w, x, y, loss)
        h = 1e-6
        fd = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (convex_loss_sample(w + e, x, y, loss) - convex_loss_sample(w - e, x, y, loss)) / (2 * h)
        scale = max(float(np.linalg.norm(g)), 1.0)
        assert float(np.linalg.norm(g - fd)) / scale <= 1e-6
        checked += 1


def test_logistic_grad_norm_bounded_by_x():
    logistic = convex_surrogate("logistic")
    rng = np.random.default_rng(91)
    for _ in range(100):
        w = rng.standard_normal(4) * 3
        x = rng.standard_normal(4) * 5
        g = convex_grad_sample(w, x, 1, logistic)
        assert float(np.linalg.norm(g)) <= float(np.linalg.norm(x)) + 1e-12


def test_convex_grad_mean_matches_loop():
    logistic = convex_surrogate("logistic")
    rng = np.random.default_rng(95)
    w = rng.standard_normal(3)
    X = rng.standard_normal((100, 3))
    y = np.where(rng.random(100) < 0.5, 1.0, -1.0)
    loop = np.mean([-yy * logistic.slope(-yy * float(x @ w)) * x for x, yy in zip(X, y)], axis=0)
    np.testing.assert_allclose(convex_grad_mean(w, X, y, logistic), loop, atol=1e-14)
    # the baselines' gradient from margins is the same arithmetic
    np.testing.assert_array_equal(baselines._mean_grad(logistic, X, y, -y * (X @ w)),
                                  convex_grad_mean(w, X, y, logistic))
