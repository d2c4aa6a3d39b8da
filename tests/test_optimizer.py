import math

import numpy as np
import pytest

from halfspace_sgd import distributions as dist
from halfspace_sgd.geometry import angle_between, unit_vector
from halfspace_sgd.learner import zero_one_errors
from halfspace_sgd.noise import clean_labels, far_flip, make_dataset
from halfspace_sgd.optimizer import NoisyExampleStream, PsgdConfig, batch_grad_norms, psgd_lockstep
from helpers import ArrayStream


def _solo(stream, config):
    """Every iterate of one run advanced alone."""
    return psgd_lockstep([stream], config, keep_every=1).kept[0]


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
    stream = NoisyExampleStream(spec, clean_labels(unit_vector(4, 1)), seed=3)
    out = _solo(stream, PsgdConfig(T=3000, sigma=0.2))
    assert len(out) == 3000
    norms = np.linalg.norm(out, axis=1)
    assert float(np.max(np.abs(norms - 1.0))) <= 1e-12


def test_run_deterministic_per_seed():
    spec = dist.gaussian(3)
    model = clean_labels(unit_vector(3, 1))
    a = _solo(NoisyExampleStream(spec, model, seed=11), PsgdConfig(T=500, sigma=0.2))
    b = _solo(NoisyExampleStream(spec, model, seed=11), PsgdConfig(T=500, sigma=0.2))
    np.testing.assert_array_equal(a, b)
    c = _solo(NoisyExampleStream(spec, model, seed=12), PsgdConfig(T=500, sigma=0.2))
    assert not np.array_equal(a, c)


def test_stream_exhaustion_raises():
    X = np.ones((10, 2))
    y = np.ones(10)
    with pytest.raises(RuntimeError):
        _solo(ArrayStream(X, y), PsgdConfig(T=11, sigma=0.2))


def test_lockstep_rows_match_solo_runs():
    spec = dist.gaussian(3)
    model = far_flip(unit_vector(3, 1), Z=2.0, theta2=0.2)
    seeds = (21, 22, 23)
    configs = [PsgdConfig(T=400, sigma=s) for s in (0.1, 0.25, 0.5)]
    streams = [NoisyExampleStream(spec, model, seed) for seed in seeds]
    out = psgd_lockstep(streams, configs, keep_every=1)
    for i, (seed, c) in enumerate(zip(seeds, configs)):
        solo = _solo(NoisyExampleStream(spec, model, seed), c)
        np.testing.assert_array_equal(out.kept[i], solo)


def test_lockstep_strides_and_final():
    spec = dist.gaussian(2)
    stream = NoisyExampleStream(spec, clean_labels(unit_vector(2, 1)), seed=1)
    out = psgd_lockstep([stream], PsgdConfig(T=1005, sigma=0.2), keep_every=100)
    assert out.kept_steps.tolist() == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1005]
    full = _solo(NoisyExampleStream(spec, clean_labels(unit_vector(2, 1)), seed=1),
                 PsgdConfig(T=1005, sigma=0.2))
    np.testing.assert_array_equal(out.kept[0], full[out.kept_steps - 1])
    np.testing.assert_array_equal(out.kept[0][-1], full[-1])


def test_lockstep_validates_configs():
    spec = dist.gaussian(2)
    streams = [NoisyExampleStream(spec, clean_labels(unit_vector(2, 1)), seed=s) for s in (1, 2)]
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
    stream = NoisyExampleStream(spec, model, seed=42)
    out = psgd_lockstep([stream], PsgdConfig(T=100_000, sigma=0.1), keep_every=200)
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


def test_stationarity_diagnostic_cone():
    # iterates with small empirical gradient lie near +/- w*: with the
    # closed-form constants the certified cone angle (4 sqrt2 pi U/R) sigma and floor
    # R^2/(64 U) make this a loose but faithful check; 10 seeds, 1 failure allowed
    spec = dist.gaussian(2)
    w_star = unit_vector(2, 1)
    p = dist.well_behaved_params(spec)
    sigma = 0.01
    theta = 4.0 * math.sqrt(2.0) * math.pi * p.U / p.R * sigma
    floor = p.R**2 / (64.0 * p.U)
    Z = dist.z_for_tail_mass(spec, 1e-9)
    model = far_flip(w_star, Z=Z, theta2=math.pi / 16)
    batch = 40_000
    failures = 0
    for seed in range(10):
        stream = NoisyExampleStream(spec, model, seed=100 + seed)
        out = psgd_lockstep([stream], PsgdConfig(T=20_000, sigma=sigma), keep_every=500)
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
