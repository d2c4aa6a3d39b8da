import math

import numpy as np
import pytest

from halfspace_sgd import distributions as dist
from halfspace_sgd.geometry import angle_between, unit_vector
from halfspace_sgd.learner import zero_one_errors
from halfspace_sgd.noise import NoisyExampleStream, far_flip, make_dataset
from halfspace_sgd.losses import sigmoid_slope
from halfspace_sgd.optimizer import PsgdConfig, _slope_factor, batch_grad_norms, psgd_lockstep
from helpers import ArrayStream, clean_labels, loop_grad_norms, reference_psgd, well_behaved_params


def _solo(stream, config):
    """Every iterate of one run advanced alone."""
    return psgd_lockstep([stream], [config], keep_every=1).kept[0]


def test_config_validation():
    with pytest.raises(ValueError):
        PsgdConfig(T=0, sigma=0.1)
    with pytest.raises(ValueError):
        PsgdConfig(T=10, sigma=0.0)
    assert PsgdConfig(T=10, sigma=0.2, rho=0.5).step_size == pytest.approx(0.01)


def test_zero_gradient_stream_keeps_e1():
    # x parallel to the current iterate gives a zero update; w stays at e_1
    T = 50
    X = np.tile(np.array([2.0, 0.0, 0.0]), (T, 1))
    y = np.ones(T)
    out = _solo(ArrayStream(X, y), PsgdConfig(T=T, sigma=0.3))
    assert len(out) == T
    np.testing.assert_array_equal(out, np.tile(unit_vector(3), (T, 1)))


def test_beta_zero_keeps_e1():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 4))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    out = _solo(ArrayStream(X, y), PsgdConfig(T=40, sigma=0.3, rho=0.0))  # step (sigma rho)^2 = 0
    np.testing.assert_array_equal(out, np.tile(unit_vector(4), (40, 1)))


def test_iterates_unit_norm_and_length():
    spec = dist.gaussian(4)
    stream = NoisyExampleStream(spec, [clean_labels(unit_vector(4, 1))], seed=3)
    out = _solo(stream, PsgdConfig(T=3000, sigma=0.2))
    assert len(out) == 3000
    norms = np.linalg.norm(out, axis=1)
    assert float(np.max(np.abs(norms - 1.0))) <= 1e-12


def test_run_deterministic_per_seed():
    spec = dist.gaussian(3)
    model = clean_labels(unit_vector(3, 1))
    a = _solo(NoisyExampleStream(spec, [model], seed=11), PsgdConfig(T=500, sigma=0.2))
    b = _solo(NoisyExampleStream(spec, [model], seed=11), PsgdConfig(T=500, sigma=0.2))
    np.testing.assert_array_equal(a, b)
    c = _solo(NoisyExampleStream(spec, [model], seed=12), PsgdConfig(T=500, sigma=0.2))
    assert not np.array_equal(a, c)


def test_stream_exhaustion_raises():
    X = np.ones((10, 2))
    y = np.ones(10)
    with pytest.raises(RuntimeError):
        _solo(ArrayStream(X, y), PsgdConfig(T=11, sigma=0.2))


def test_lockstep_rows_match_solo_runs():
    seeds = (21, 22, 23)
    configs = [PsgdConfig(T=400, sigma=s) for s in (0.1, 0.25, 0.5)]
    for spec in (dist.gaussian(3), dist.log_concave(), dist.heavy_tailed(2.5)):
        model = far_flip(unit_vector(spec.dim, 1), Z=2.0, theta2=0.2)
        streams = [NoisyExampleStream(spec, [model], seed) for seed in seeds]
        out = psgd_lockstep(streams, configs, keep_every=1)
        for i, (seed, c) in enumerate(zip(seeds, configs)):
            solo = _solo(NoisyExampleStream(spec, [model], seed), c)
            np.testing.assert_array_equal(out.kept[i], solo)


_WIDTHS = (0.32, 0.1, 0.032, 0.01, 0.0032, 0.001)


@pytest.mark.parametrize("spec", [dist.gaussian(2), dist.gaussian(10), dist.log_concave(), dist.heavy_tailed(2.5)],
                         ids=["gaussian2", "gaussian10", "logconcave", "heavy_tailed"])
def test_fused_step_matches_gradient_reference(spec):
    # the fused unit-sphere step against W - beta * surrogate_grad_rows and a
    # rescale, over 2,500 steps (past the first 2,048-step chunk) at every
    # width and at beta = 0; the reference draws each stream in one take, so
    # every family's iterates do not depend on the optimizer's chunk
    T = 2500
    model = far_flip(unit_vector(spec.dim, 1), Z=dist.z_for_tail_mass(spec, 0.05), theta2=math.pi / 8)
    configs = [PsgdConfig(T=T, sigma=s) for s in _WIDTHS] + [PsgdConfig(T=T, sigma=0.1, rho=0.0)]

    def streams():
        return [NoisyExampleStream(spec, [model], seed=70 + i) for i in range(len(configs))]

    kept = psgd_lockstep(streams(), configs, keep_every=1).kept
    ref = reference_psgd(streams(), configs)
    np.testing.assert_allclose(kept, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(kept[-1], np.tile(unit_vector(spec.dim), (T, 1)))  # beta = 0 stays at e_1
    assert not any(np.allclose(w, unit_vector(spec.dim)) for w in kept[:-1, -1])  # every other row moved


@pytest.mark.parametrize("rho", [0.25, 1.0])
def test_cosh_slope_factor_matches_sigmoid_slope(rho):
    # the step's c / cosh^2(h / (2 sigma)), c = y beta / (4 sigma), against
    # y beta sigmoid_slope(h, sigma) over h / sigma in [-800, 800], past where
    # cosh^2 overflows (|h / sigma| > 711.2). Within 8 ulps wherever the
    # reference's exp(-|h| / sigma) is a normal number (|h / sigma| < 708.4);
    # beyond, both are below beta / sigma times the least normal number
    tiny = np.finfo(float).tiny
    r = np.linspace(-800.0, 800.0, 160_001)
    exact = np.abs(r) < -math.log(tiny)
    for sigma in _WIDTHS + (0.25, 2.0**-10, 3.7):
        config = PsgdConfig(T=1, sigma=sigma, rho=rho)
        h = r * sigma
        for y in (1.0, -1.0):
            ref = y * config.step_size * sigmoid_slope(h, sigma)
            with np.errstate(over="ignore"):  # as in psgd_lockstep
                got = _slope_factor(h, y * (config.step_size / (4.0 * sigma)), 2.0 * sigma)
            ulps = np.abs(got - ref)[exact] / np.spacing(np.abs(ref[exact]))
            assert float(np.max(ulps)) <= 8.0, (sigma, float(r[exact][np.argmax(ulps)]))
            floor = config.step_size / sigma * tiny
            assert float(np.max(np.abs(got[~exact]))) <= floor
            assert float(np.max(np.abs(ref[~exact]))) <= floor
            assert np.all(got[np.abs(r) > 712.0] == 0.0)  # cosh^2 overflowed


def test_steps_past_cosh_overflow_raise_no_warning():
    # margins up to |h / sigma| = 2e5 overflow cosh^2 in most steps; the
    # factor is then 0 and the run stays finite and on the sphere, with no
    # RuntimeWarning (pytest turns those into errors)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 3)) * 1e3
    X[::3] *= 1e-4  # some steps with moderate margins still move the iterate
    y = np.where(rng.random(300) < 0.5, 1.0, -1.0)
    config = PsgdConfig(T=300, sigma=0.01)
    W = _solo(ArrayStream(X, y), config)
    assert float(np.max(np.abs(X @ W.T))) / (2.0 * config.sigma) > 1e3
    assert np.all(np.isfinite(W))
    np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(W, reference_psgd([ArrayStream(X, y)], [config])[0], rtol=0.0, atol=1e-12)


def test_lockstep_strides_and_final():
    spec = dist.gaussian(2)
    stream = NoisyExampleStream(spec, [clean_labels(unit_vector(2, 1))], seed=1)
    out = psgd_lockstep([stream], [PsgdConfig(T=1005, sigma=0.2)], keep_every=100)
    assert out.kept_steps.tolist() == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1005]
    full = _solo(NoisyExampleStream(spec, [clean_labels(unit_vector(2, 1))], seed=1),
                 PsgdConfig(T=1005, sigma=0.2))
    np.testing.assert_array_equal(out.kept[0], full[out.kept_steps - 1])
    np.testing.assert_array_equal(out.kept[0][-1], full[-1])


def test_lockstep_validates_configs():
    spec = dist.gaussian(2)
    streams = [NoisyExampleStream(spec, [clean_labels(unit_vector(2, 1))], seed=s) for s in (1, 2)]
    with pytest.raises(ValueError):
        psgd_lockstep(streams, [PsgdConfig(T=10, sigma=0.1)], keep_every=1)
    with pytest.raises(ValueError):
        psgd_lockstep(streams, [PsgdConfig(T=10, sigma=0.1), PsgdConfig(T=20, sigma=0.1)])


def test_clean_gaussian_run_converges_to_wstar():
    # the worked convergence example: d=5, sigma=0.1, T=1e5, selection by
    # holdout error; the best iterate lands within 0.1 rad of +/- w*
    spec = dist.gaussian(5)
    w_star = unit_vector(5, 1)
    model = clean_labels(w_star)
    stream = NoisyExampleStream(spec, [model], seed=42)
    out = psgd_lockstep([stream], [PsgdConfig(T=100_000, sigma=0.1)], keep_every=200)
    holdout = make_dataset(spec, model, 100_000, seed=43)
    errs = zero_one_errors(out.kept[0], holdout)
    best = out.kept[0][int(np.argmin(errs))]
    ang = min(angle_between(best, w_star), angle_between(best, -w_star))
    assert ang <= 0.1


def test_min_grad_iterate_selects_planted_optimum():
    spec = dist.gaussian(3)
    w_star = unit_vector(3, 1)
    dataset = make_dataset(spec, clean_labels(w_star), 20_000, seed=9)
    rng = np.random.default_rng(10)
    others = rng.standard_normal((5, 3))
    others /= np.linalg.norm(others, axis=1)[:, None]
    vectors = np.vstack([others, w_star])
    norms = batch_grad_norms(vectors, dataset, sigma=0.3, batch=20_000)
    assert int(np.argmin(norms)) == len(vectors) - 1
    np.testing.assert_array_equal(norms, batch_grad_norms(vectors, dataset, sigma=0.3, batch=20_000))
    with pytest.raises(ValueError):
        batch_grad_norms(vectors, dataset, sigma=0.3, batch=0)
    for sigma in (0.0, -0.3, float("nan")):
        with pytest.raises(ValueError):
            batch_grad_norms(vectors, dataset, sigma=sigma, batch=20_000)


def test_batch_grad_norms_match_per_iterate_loop():
    spec = dist.gaussian(4)
    dataset = make_dataset(spec, far_flip(unit_vector(4, 1), Z=1.5, theta2=0.4), 3000, seed=11)
    rng = np.random.default_rng(12)
    unit = rng.standard_normal((40, 4))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    scaled = unit * rng.uniform(0.2, 5.0, (40, 1))  # the gradient keeps its general-w meaning
    for vectors in (unit, scaled):
        for sigma in (0.02, 0.3):
            np.testing.assert_allclose(batch_grad_norms(vectors, dataset, sigma, 2000),
                                       loop_grad_norms(vectors, dataset, sigma, 2000), rtol=1e-12, atol=0.0)


def test_heavy_tailed_steps_stay_on_sphere():
    # points of norm ~1e8, some on the boundary of e_1 where the slope peaks;
    # the fused step still matches the gradient reference there
    X = dist.sample(dist.heavy_tailed(2.5), 200, seed=21)
    X *= 1e8 / np.linalg.norm(X, axis=1)[:, None]
    X[::10, 0] = 0.0
    y = np.where(np.arange(200) % 3 == 0, -1.0, 1.0)
    config = PsgdConfig(T=200, sigma=0.015)
    with np.errstate(over="raise", invalid="raise"):
        W = _solo(ArrayStream(X, y), config)
        ref = reference_psgd([ArrayStream(X, y)], [config])[0]
    assert np.all(np.isfinite(W))
    np.testing.assert_allclose(W, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert not np.array_equal(W[-1], unit_vector(2, 1))


def test_stationarity_diagnostic_cone():
    # iterates with small empirical gradient lie near +/- w*: with the
    # closed-form constants the certified cone angle (4 sqrt2 pi U/R) sigma and floor
    # R^2/(64 U) make this a loose but faithful check; 10 seeds, 1 failure allowed
    spec = dist.gaussian(2)
    w_star = unit_vector(2, 1)
    p = well_behaved_params(spec)
    sigma = 0.01
    theta = 4.0 * math.sqrt(2.0) * math.pi * p.U / p.R * sigma
    floor = p.R**2 / (64.0 * p.U)
    Z = dist.z_for_tail_mass(spec, 1e-9)
    model = far_flip(w_star, Z=Z, theta2=math.pi / 16)
    batch = 40_000
    failures = 0
    for seed in range(10):
        stream = NoisyExampleStream(spec, [model], seed=100 + seed)
        out = psgd_lockstep([stream], [PsgdConfig(T=20_000, sigma=sigma)], keep_every=500)
        dataset = make_dataset(spec, model, batch, seed=200 + seed)
        norms = batch_grad_norms(out.kept[0], dataset, sigma, batch)
        from halfspace_sgd.losses import surrogate_grad_rows

        W0 = np.broadcast_to(out.kept[0][-1], (batch, 2))
        per_sample = surrogate_grad_rows(W0, dataset.x, dataset.y, sigma)
        stderr = math.sqrt(float(np.mean(np.sum(per_sample**2, axis=1))) / batch)
        qualify = norms <= floor - 3.0 * stderr
        ok = True
        for w in out.kept[0][qualify]:
            ang = min(angle_between(w, w_star), angle_between(w, -w_star))
            if ang > min(theta, math.pi) + 1e-9:
                ok = False
        failures += 0 if ok else 1
    assert failures <= 1
