import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfspace_sgd import distributions as dist
from halfspace_sgd.geometry import unit_vector
from halfspace_sgd.learner import (
    LearnerConfig,
    _select,
    _zero_one_errors_2d,
    c_const_for,
    default_holdout_size,
    derive_seed,
    estimate_err01,
    learn,
    learn_batch,
    zero_one_errors,
)
from halfspace_sgd.noise import LabeledDataset, clean_labels, far_flip, make_dataset
from halfspace_sgd.optimizer import NoisyExampleStream, PsgdConfig, psgd_lockstep


def _select_w(lists, holdout):
    """The vector _select picks from candidate lists scored on holdout."""
    li, ii = _select([zero_one_errors(v, holdout) for v in lists])
    return lists[li][ii]


def test_c_const_report_value():
    p = dist.well_behaved_params(dist.gaussian(2))
    assert c_const_for(dist.gaussian(2)) == pytest.approx(p.R**4 / (2**15 * p.U**3), rel=1e-12)
    assert c_const_for(dist.gaussian(2)) < 1e-6  # far below any desk-scale sigma
    assert c_const_for(dist.gaussian(10)) == c_const_for(dist.gaussian(2))  # the 2D projection
    # each heavy-tailed exponent gets its own constant, not the s = 3 one
    for s in (2.5, 4.0):
        p = dist.well_behaved_params(dist.heavy_tailed(s))
        assert c_const_for(dist.heavy_tailed(s)) == pytest.approx(p.R**4 / (2**15 * p.U**3), rel=1e-12)
        assert c_const_for(dist.heavy_tailed(s)) != pytest.approx(c_const_for(dist.heavy_tailed(3.0)), rel=0.1)


def test_default_holdout_size_formula():
    assert default_holdout_size(10, 0.01, 0.01) == max(10_000, math.ceil(math.log(10 / 1e-4) / 1e-4) * 2)
    assert default_holdout_size(2, 0.5, 0.5) == 10_000


def test_estimate_err01_reference_cases():
    spec = dist.gaussian(3)
    w_star = unit_vector(3, 1)
    ds = make_dataset(spec, clean_labels(w_star), 100_000, seed=5)
    assert estimate_err01(w_star, ds) == 0.0
    assert estimate_err01(-w_star, ds) >= 1.0 - 1e-4  # only <w*,x> = 0 points survive
    perp = unit_vector(3, 2)
    se = math.sqrt(0.25 / 100_000)
    assert abs(estimate_err01(perp, ds) - 0.5) <= 4.0 * se
    # nonempty guard: build an empty dataset directly
    from halfspace_sgd.noise import LabeledDataset

    empty = LabeledDataset(np.empty((0, 3)), np.empty(0), np.empty(0, dtype=bool))
    with pytest.raises(ValueError):
        estimate_err01(w_star, empty)


def test_zero_one_errors_matches_scalar_loop():
    spec = dist.gaussian(3)
    ds = make_dataset(spec, clean_labels(unit_vector(3, 1)), 5000, seed=6)
    rng = np.random.default_rng(7)
    W = rng.standard_normal((150, 3))  # spans several scoring chunks
    W /= np.linalg.norm(W, axis=1)[:, None]
    errs = zero_one_errors(W, ds)
    for i in range(150):
        assert errs[i] == estimate_err01(W[i], ds)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000), k=st.integers(1, 40))
def test_interval_count_equals_matmul_count(seed, n, k):
    rng = np.random.default_rng(seed)
    ds = LabeledDataset(rng.standard_normal((n, 2)), rng.choice([-1.0, 1.0], n), np.zeros(n, dtype=bool))
    W = rng.standard_normal((k, 2))
    direct = np.mean((ds.x @ W.T >= 0.0) != (ds.y[:, None] > 0.0), axis=0)
    np.testing.assert_array_equal(_zero_one_errors_2d(W, ds), direct)


def test_select_best_single_and_planted():
    spec = dist.gaussian(4)
    w_star = unit_vector(4, 1)
    model = far_flip(w_star, Z=dist.z_for_tail_mass(spec, 0.05), theta2=0.3)
    holdout = make_dataset(spec, model, 50_000, seed=8)
    np.testing.assert_array_equal(_select_w([w_star[None, :]], holdout), w_star)

    rng = np.random.default_rng(9)
    noise_vecs = rng.standard_normal((6, 4))
    noise_vecs /= np.linalg.norm(noise_vecs, axis=1)[:, None]
    planted = np.vstack([noise_vecs[:3], w_star])
    others = noise_vecs[3:]
    errs_all = zero_one_errors(np.vstack([noise_vecs, w_star]), holdout)
    gap = np.sort(errs_all)[1] - np.min(errs_all)
    hoeffding = math.sqrt(math.log(2 / 0.01) / (2 * 50_000))
    if gap > 2 * hoeffding:  # planted optimum separated: must be selected
        np.testing.assert_array_equal(_select_w([planted, others], holdout), w_star)
    a = _select_w([planted, others], holdout)
    b = _select_w([planted, others], holdout)
    np.testing.assert_array_equal(a, b)


def test_select_best_tie_breaks_by_grid_then_iterate_order():
    spec = dist.gaussian(2)
    w_star = unit_vector(2, 1)
    holdout = make_dataset(spec, clean_labels(w_star), 1000, seed=10)
    first = np.vstack([-w_star, w_star, w_star])
    second = w_star[None, :]
    errs = [zero_one_errors(first, holdout), zero_one_errors(second, holdout)]
    assert errs[0][1] == errs[0][2] == errs[1][0]
    assert _select(errs) == (0, 1)
    assert _select(errs[::-1]) == (0, 0)
    with pytest.raises(ValueError):
        _select([])


def test_run_for_sigma_full_list_length():
    spec = dist.gaussian(3)
    model = clean_labels(unit_vector(3, 1))
    out = psgd_lockstep([NoisyExampleStream(spec, model, seed=12)], PsgdConfig(T=500, sigma=0.2))
    assert out.kept.shape == (1, 500, 3)
    assert out.kept_steps.tolist() == list(range(1, 501))


def test_run_for_sigma_reaches_low_error_on_clean_data():
    spec = dist.gaussian(5)
    w_star = unit_vector(5, 1)
    model = clean_labels(w_star)
    out = psgd_lockstep([NoisyExampleStream(spec, model, seed=13)], PsgdConfig(T=30_000, sigma=0.1))
    holdout = make_dataset(spec, model, 20_000, seed=14)
    errs = zero_one_errors(out.kept[0][::50], holdout)
    assert float(np.min(errs)) <= 0.02


def test_learn_report_deterministic_per_seed():
    spec = dist.gaussian(3)
    model = far_flip(unit_vector(3, 1), Z=dist.z_for_tail_mass(spec, 0.02), theta2=math.pi / 8)
    cfg = LearnerConfig(grid=(0.2, 0.1), t_cap=4000, holdout_size=20_000, eval_size=20_000,
                        candidate_stride=50)
    r1 = learn(spec, model, cfg, seed=77, opt_target=0.02)
    r2 = learn(spec, model, cfg, seed=77, opt_target=0.02)
    for name in ("sigma_best", "err01", "angle_to_wstar", "measured_noise_rate", "holdout_size"):
        assert getattr(r1, name) == getattr(r2, name)
    assert r1.seed == 77 and r1.family == "gaussian" and r1.d == 3
    assert r1.T_used == 4000 and r1.opt_exceeds_constant
    assert len(r1.per_sigma) == 2


def test_learn_batch_matches_solo_learn():
    spec = dist.gaussian(3)
    model = far_flip(unit_vector(3, 1), Z=dist.z_for_tail_mass(spec, 0.02), theta2=math.pi / 8)
    cfg = LearnerConfig(grid=(0.25, 0.1), t_cap=2000, holdout_size=10_000, eval_size=10_000,
                        candidate_stride=100)
    seeds = [5, 6, 7]
    batch = learn_batch(spec, model, cfg, seeds, opt_target=0.02)
    for seed, rb in zip(seeds, batch):
        solo = learn(spec, model, cfg, seed, opt_target=0.02)
        assert rb.sigma_best == solo.sigma_best
        assert rb.err01 == solo.err01
        assert rb.angle_to_wstar == solo.angle_to_wstar
        for ds_b, ds_s in zip(rb.per_sigma, solo.per_sigma):
            assert ds_b.best_holdout_err == ds_s.best_holdout_err
            assert ds_b.min_grad_norm == ds_s.min_grad_norm


def test_wall_ms_is_per_trial():
    spec = dist.gaussian(3)
    model = clean_labels(unit_vector(3, 1))
    cfg = LearnerConfig(grid=(0.2, 0.1), t_cap=2000, holdout_size=10_000, eval_size=10_000,
                        candidate_stride=100)
    t0 = time.perf_counter()
    reports = learn_batch(spec, model, cfg, [1, 2, 3])
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert all(r.wall_ms > 0.0 for r in reports)
    assert sum(r.wall_ms for r in reports) <= elapsed_ms


def test_learn_clean_reaches_low_error():
    # opt = 0, epsilon = 0.02, d = 5: 10-seed median error <= 0.03
    spec = dist.gaussian(5)
    model = clean_labels(unit_vector(5, 1))
    cfg = LearnerConfig(epsilon=0.02, grid=(0.2, 0.1, 0.05), t_cap=30_000,
                        holdout_size=30_000, eval_size=50_000, candidate_stride=100)
    reports = learn_batch(spec, model, cfg, seeds=range(10))
    med = float(np.median([r.err01 for r in reports]))
    assert med <= 0.03


def test_learn_far_flip_error_tracks_opt():
    # opt target 0.01 in d = 10: median error <= 4 opt + epsilon
    spec = dist.gaussian(10)
    opt = 0.01
    model = far_flip(unit_vector(10, 1), Z=dist.z_for_tail_mass(spec, opt), theta2=math.pi / 8)
    cfg = LearnerConfig(epsilon=0.01, grid=(0.16, 0.08, 0.04), t_cap=50_000,
                        holdout_size=50_000, eval_size=100_000, candidate_stride=200)
    reports = learn_batch(spec, model, cfg, seeds=range(10), opt_target=opt)
    med = float(np.median([r.err01 for r in reports]))
    assert med <= 4 * opt + cfg.epsilon


def test_error_sandwiched_by_disagreement_plus_noise():
    # |err(w) - theta(w, w*)/pi| <= noise rate + 4 stderr for every candidate:
    # the two-sided zero-one sandwich, with disagreement = theta/pi under
    # radial symmetry
    spec = dist.gaussian(2)
    w_star = unit_vector(2, 1)
    opt = 0.03
    model = far_flip(w_star, Z=dist.z_for_tail_mass(spec, opt), theta2=math.pi / 8)
    n = 200_000
    ds = make_dataset(spec, model, n, seed=44)
    rate = ds.noise_rate
    rng = np.random.default_rng(45)
    W = rng.standard_normal((64, 2))
    W /= np.linalg.norm(W, axis=1)[:, None]
    errs = zero_one_errors(W, ds)
    for w, err in zip(W, errs):
        theta = math.acos(max(-1.0, min(1.0, float(w @ w_star))))
        p = min(max(err, 1.0 / n), 1.0 - 1.0 / n)
        stderr = math.sqrt(p * (1.0 - p) / n)
        assert abs(err - theta / math.pi) <= rate + 4.0 * stderr


def test_derive_seed_stable_and_distinct():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 1, 3)
    assert derive_seed(5, 1) != derive_seed(6, 1)


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        LearnerConfig(grid=())
    with pytest.raises(ValueError):
        LearnerConfig(grid=(0.1, -0.2))
    for bad in (dict(rho=0.0), dict(rho=-1.0), dict(rho=float("nan")), dict(t_cap=0), dict(eval_size=0),
                dict(candidate_stride=0), dict(holdout_size=0), dict(holdout_size=-5)):
        with pytest.raises(ValueError):
            LearnerConfig(**bad)
    assert LearnerConfig(holdout_size=1).holdout_size == 1
