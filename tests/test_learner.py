import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfspace_sgd import distributions as dist
from halfspace_sgd import learner
from halfspace_sgd.geometry import halfspace_labels, unit_vector
from halfspace_sgd.learner import (
    LearnerConfig,
    _zero_one_errors_2d,
    _zero_one_errors_blocked,
    default_holdout_size,
    derive_seed,
    learn,
    learn_batch,
    zero_one_errors,
)
from halfspace_sgd.noise import LabeledDataset, NoisyExampleStream, clean_labels, far_flip, make_dataset
from halfspace_sgd.optimizer import PsgdConfig, psgd_lockstep
from helpers import estimate_err01, reference_trial_report


def _seed_report(spec, model, config, seed, opt_target, kept):
    """The one-group report of learner._seed_reports for candidate lists
    `kept` (grid widths, iterates, d)."""
    [rep] = learner._seed_reports((spec, [(model, opt_target)], config, seed, kept[None], 0.0))
    return rep


def _pick(spec, model, kept):
    """(sigma_best, angle_to_wstar) of the trial report that selects from the
    candidate lists `kept` (grid widths, iterates, d); its holdout is
    _pick_holdout(spec, model)."""
    config = LearnerConfig(grid=(0.3, 0.2, 0.1)[: len(kept)], t_cap=1, holdout_size=50_000, eval_size=1_000)
    rep = _seed_report(spec, model, config, 8, float("nan"), np.asarray(kept, dtype=float))
    return rep.sigma_best, rep.angle_to_wstar


def _pick_holdout(spec, model):
    return make_dataset(spec, model, 50_000, derive_seed(8, 2))


@pytest.mark.parametrize("family, n_hold, n_eval, holdout_blocks", [
    ("gaussian", 100_001, 3_333, [43_690, 43_690, 12_621]),
    ("gaussian", 1_500, 3_333, [1500]),
    ("heavy_tailed", 5_001, 3_333, [5001]),
    ("heavy_tailed", 140_001, 3_333, [65_536, 65_536, 8_929]),
], ids=["gaussian-partial-last-block", "holdout-below-diag-batch", "heavy-tailed-one-block",
        "heavy-tailed-several-blocks"])
def test_streamed_trial_report_matches_materialised_reference(family, n_hold, n_eval, holdout_blocks):
    spec = dist.gaussian(3) if family == "gaussian" else dist.heavy_tailed(3.0)
    model = far_flip(unit_vector(spec.dim, 1), Z=dist.z_for_tail_mass(spec, 0.05), theta2=math.pi / 8)
    config = LearnerConfig(grid=(0.3, 0.2, 0.1), t_cap=1, holdout_size=n_hold, eval_size=n_eval)
    rng = np.random.default_rng(21)
    kept = model.w_star + 0.3 * rng.standard_normal((3, 60, spec.dim))
    kept /= np.linalg.norm(kept, axis=2, keepdims=True)
    blocks = list(learner._point_blocks(spec, n_hold, derive_seed(4, 2)))
    assert [len(b) for b in blocks] == holdout_blocks

    rep = _seed_report(spec, model, config, 4, 0.05, kept)
    ref = reference_trial_report(spec, model, config, 4, kept)
    assert rep.measured_noise_rate == ref["measured_noise_rate"]
    assert rep.sigma_best == ref["sigma_best"]
    assert rep.err01 == ref["err01"]
    assert rep.angle_to_wstar == ref["angle_to_wstar"]
    assert [(d.best_holdout_err, d.angle_best, d.min_grad_norm) for d in rep.per_sigma] == ref["per_sigma"]


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
    W = np.vstack([w_star, -w_star, perp])
    assert (zero_one_errors(W, ds) / len(ds)).tolist() == [estimate_err01(w, ds) for w in W]
    # nonempty guard: build an empty dataset directly
    from halfspace_sgd.noise import LabeledDataset

    empty = LabeledDataset(np.empty((0, 3)), np.empty(0), np.empty(0, dtype=bool))
    with pytest.raises(ValueError):
        estimate_err01(w_star, empty)


def test_zero_one_errors_matches_scalar_loop():
    spec = dist.gaussian(3)
    ds = make_dataset(spec, clean_labels(unit_vector(3, 1)), 5000, seed=6)
    rng = np.random.default_rng(7)
    W = rng.standard_normal((600, 3))  # spans several candidate blocks
    W /= np.linalg.norm(W, axis=1)[:, None]
    errs = zero_one_errors(W, ds) / len(ds)
    for i in range(600):
        assert errs[i] == estimate_err01(W[i], ds)


@pytest.mark.parametrize("n", [1, 511, 513, 2047, 2048, 4097])
@pytest.mark.parametrize("k", [1, 255, 256, 257])
def test_blocked_count_equals_brute_force(n, k):
    # row and candidate counts on both sides of the scored slices' edges
    rng = np.random.default_rng(n * 1000 + k)
    X = rng.standard_normal((n, 3))
    X[::5] = 0.0  # a zero score predicts +1
    W = rng.standard_normal((k, 3))
    y = -halfspace_labels(W[0], X)  # candidate 0 errs on every example: > 255 in one slice once n > 255
    ds = LabeledDataset(X, y, np.zeros(n, dtype=bool))
    brute = [int(np.count_nonzero(halfspace_labels(w, X) != y)) for w in W]
    assert brute[0] == n
    assert _zero_one_errors_blocked(W, ds).tolist() == brute


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000), k=st.integers(1, 40))
def test_interval_count_equals_matmul_count(seed, n, k):
    rng = np.random.default_rng(seed)
    ds = LabeledDataset(rng.standard_normal((n, 2)), rng.choice([-1.0, 1.0], n), np.zeros(n, dtype=bool))
    W = rng.standard_normal((k, 2))
    direct = np.count_nonzero((ds.x @ W.T >= 0.0) != (ds.y[:, None] > 0.0), axis=0)
    np.testing.assert_array_equal(_zero_one_errors_2d(W, ds), direct)


def test_select_best_single_and_planted():
    spec = dist.gaussian(4)
    w_star = unit_vector(4, 1)
    model = far_flip(w_star, Z=dist.z_for_tail_mass(spec, 0.05), theta2=0.3)
    holdout = _pick_holdout(spec, model)
    assert _pick(spec, model, [w_star[None, :]]) == (0.3, 0.0)

    rng = np.random.default_rng(9)
    noise_vecs = rng.standard_normal((6, 4))
    noise_vecs /= np.linalg.norm(noise_vecs, axis=1)[:, None]
    planted = np.vstack([noise_vecs[:3], w_star])
    others = np.vstack([noise_vecs[3:], noise_vecs[3]])
    errs_all = zero_one_errors(np.vstack([noise_vecs, w_star]), holdout) / len(holdout)
    gap = np.sort(errs_all)[1] - np.min(errs_all)
    hoeffding = math.sqrt(math.log(2 / 0.01) / (2 * 50_000))
    if gap > 2 * hoeffding:  # planted optimum separated: must be selected
        assert _pick(spec, model, [others, planted]) == (0.2, 0.0)
    assert _pick(spec, model, [planted, others]) == _pick(spec, model, [planted, others])


def test_select_best_tie_breaks_by_grid_then_iterate_order():
    spec = dist.gaussian(2)
    w_star = unit_vector(2, 1)
    model = clean_labels(w_star)
    holdout = _pick_holdout(spec, model)
    near = np.array([math.sin(1e-7), math.cos(1e-7)])  # same holdout error as w_star, nonzero angle
    first = np.vstack([-w_star, w_star, near])
    second = np.vstack([near, w_star, -w_star])
    errs = zero_one_errors(np.vstack([first, second]), holdout)
    assert errs[1] == errs[2] == errs[3] == errs[4] < errs[0]
    assert _pick(spec, model, [first, second]) == (0.3, 0.0)
    sigma, angle = _pick(spec, model, [second, first])
    assert sigma == 0.3 and angle > 0.0


def test_run_for_sigma_full_list_length():
    spec = dist.gaussian(3)
    model = clean_labels(unit_vector(3, 1))
    out = psgd_lockstep([NoisyExampleStream(spec, [model], seed=12)], [PsgdConfig(T=500, sigma=0.2)])
    assert out.kept.shape == (1, 500, 3)
    assert out.kept_steps.tolist() == list(range(1, 501))


def test_run_for_sigma_reaches_low_error_on_clean_data():
    spec = dist.gaussian(5)
    w_star = unit_vector(5, 1)
    model = clean_labels(w_star)
    out = psgd_lockstep([NoisyExampleStream(spec, [model], seed=13)], [PsgdConfig(T=30_000, sigma=0.1)])
    holdout = make_dataset(spec, model, 20_000, seed=14)
    errs = zero_one_errors(out.kept[0][::50], holdout) / len(holdout)
    assert float(np.min(errs)) <= 0.02


def test_learn_report_deterministic_per_seed():
    spec = dist.gaussian(3)
    model = far_flip(unit_vector(3, 1), Z=dist.z_for_tail_mass(spec, 0.02), theta2=math.pi / 8)
    cfg = LearnerConfig(grid=(0.2, 0.1), t_cap=4000, holdout_size=20_000, eval_size=20_000,
                        candidate_stride=50)
    r1 = learn(spec, model, cfg, seed=77, opt_target=0.02)
    r2 = learn(spec, model, cfg, seed=77, opt_target=0.02)
    for name in ("sigma_best", "err01", "angle_to_wstar", "measured_noise_rate"):
        assert getattr(r1, name) == getattr(r2, name)
    assert r1.seed == 77 and r1.family == "gaussian" and r1.d == 3
    assert r1.T_used == 4000
    assert len(r1.per_sigma) == 2


def test_learn_batch_matches_solo_learn():
    spec = dist.gaussian(3)
    model = far_flip(unit_vector(3, 1), Z=dist.z_for_tail_mass(spec, 0.02), theta2=math.pi / 8)
    cfg = LearnerConfig(grid=(0.25, 0.1), t_cap=2000, holdout_size=10_000, eval_size=10_000,
                        candidate_stride=100)
    seeds = [5, 6, 7]
    batch = learn_batch(spec, [(model, 0.02)], cfg, seeds)[0]
    for seed, rb in zip(seeds, batch):
        solo = learn(spec, model, cfg, seed, opt_target=0.02)
        assert rb.sigma_best == solo.sigma_best
        assert rb.err01 == solo.err01
        assert rb.angle_to_wstar == solo.angle_to_wstar
        for ds_b, ds_s in zip(rb.per_sigma, solo.per_sigma):
            assert ds_b.best_holdout_err == ds_s.best_holdout_err
            assert ds_b.min_grad_norm == ds_s.min_grad_norm


def test_multi_group_batch_matches_solo_group():
    # every (group, seed, sigma) row shares one lockstep batch and each seed's
    # draws; each group's reports equal those of the group run alone, bit for
    # bit (wall_ms aside). Cases: two groups; three groups on two full
    # holdout blocks (43,690 rows at d = 3); heavy tails on two blocks
    # (65,536 rows at d = 2), the last of one row; a holdout whose last block
    # is one row
    for family, opts, holdout_size in [
        ("gaussian", (0.02, 0.05), 10_000),
        ("gaussian", (0.01, 0.02, 0.05), 87_380),
        ("heavy_tailed", (0.02, 0.05), 65_537),
        ("gaussian", (0.02, 0.05), 43_691),
    ]:
        _check_groups_match_solo(family, opts, holdout_size)


def _fields(report) -> dict:
    """A TrialReport's fields, wall_ms aside."""
    out = dataclasses.asdict(report)
    del out["wall_ms"]
    return out


def _two_groups(spec):
    """Two far-flip (model, opt) groups and a small config for them."""
    w_star = unit_vector(spec.dim, 1)
    groups = [(far_flip(w_star, Z=dist.z_for_tail_mass(spec, opt), theta2=math.pi / 8), opt) for opt in (0.02, 0.05)]
    cfg = LearnerConfig(grid=(0.25, 0.1), t_cap=2000, holdout_size=5_000, eval_size=5_000, candidate_stride=100)
    return groups, cfg


def _select_fails_at(opt, monkeypatch):
    """Make _Trial.select raise for the trials of one opt_target."""
    select = learner._Trial.select

    def select_or_fail(trial, *args):
        if trial.opt_target == opt:
            raise RuntimeError("select boom")
        return select(trial, *args)

    monkeypatch.setattr(learner._Trial, "select", select_or_fail)


def _psgd_fails(monkeypatch) -> Exception:
    boom = RuntimeError("psgd boom")

    def psgd_fails(*args, **kwargs):
        raise boom

    monkeypatch.setattr(learner, "psgd_lockstep", psgd_fails)
    return boom


@pytest.mark.parametrize("workers", [1, 2])
def test_group_step_failure_fails_that_group_alone(monkeypatch, workers):
    # the failed group's entry is its exception; the other group's reports
    # equal its solo run's, at either worker count
    spec = dist.gaussian(3)
    groups, cfg = _two_groups(spec)
    seeds = [5, 6]
    solo = learn_batch(spec, groups[:1], cfg, seeds)[0]
    _select_fails_at(0.05, monkeypatch)
    reports, failure = learn_batch(spec, groups, cfg, seeds, workers=workers)
    assert isinstance(failure, RuntimeError) and str(failure) == "select boom"
    assert [_fields(r) for r in reports] == [_fields(r) for r in solo]


def test_psgd_failure_fills_every_entry(monkeypatch):
    spec = dist.gaussian(3)
    groups, cfg = _two_groups(spec)
    boom = _psgd_fails(monkeypatch)
    assert learn_batch(spec, groups, cfg, [5, 6]) == [boom, boom]


@pytest.mark.parametrize("fail", ["select", "psgd"])
def test_learn_reraises_its_failure(monkeypatch, fail):
    spec = dist.gaussian(3)
    [(model, opt), _], cfg = _two_groups(spec)
    if fail == "select":
        _select_fails_at(opt, monkeypatch)
    else:
        _psgd_fails(monkeypatch)
    with pytest.raises(RuntimeError, match=f"{fail} boom"):
        learn(spec, model, cfg, seed=5, opt_target=opt)


def _check_groups_match_solo(family, opts, holdout_size):
    spec = dist.gaussian(3) if family == "gaussian" else dist.heavy_tailed(3.0)
    w_star = unit_vector(spec.dim, 1)
    groups = [(far_flip(w_star, Z=dist.z_for_tail_mass(spec, opt), theta2=math.pi / 8), opt) for opt in opts]
    cfg = LearnerConfig(grid=(0.25, 0.1), t_cap=2000, holdout_size=holdout_size, eval_size=5_000,
                        candidate_stride=100)
    seeds = [5, 6]
    batch = learn_batch(spec, groups, cfg, seeds)
    assert len(batch) == len(groups)
    for group, reports in zip(groups, batch):
        solo = learn_batch(spec, [group], cfg, seeds)[0]
        assert [_fields(r) for r in reports] == [_fields(r) for r in solo]
    assert [[r.opt_target for r in reports] for reports in batch] == [[opt, opt] for opt in opts]


@pytest.mark.parametrize("spec", [dist.gaussian(3), dist.heavy_tailed(3.0)], ids=["gaussian", "heavy_tailed"])
def test_groups_share_every_draw(spec, monkeypatch):
    # the points sampled for a 2-opt x 2-seed batch are exactly those of the
    # same seeds' 1-opt batch: PSGD streams, holdout and eval sets are drawn
    # once per seed and labeled under each group's model
    drawn = []
    take, sample = dist.SampleStream.take, dist.sample

    def counted_take(self, k):
        out = take(self, k)
        drawn.append(out.shape[0])
        return out

    def counted_sample(*args):
        out = sample(*args)
        drawn.append(out.shape[0])
        return out

    monkeypatch.setattr(dist.SampleStream, "take", counted_take)
    monkeypatch.setattr(dist, "sample", counted_sample)
    w_star = unit_vector(spec.dim, 1)
    groups = [(far_flip(w_star, Z=dist.z_for_tail_mass(spec, opt), theta2=math.pi / 8), opt) for opt in (0.02, 0.05)]
    cfg = LearnerConfig(grid=(0.25, 0.1), t_cap=3000, holdout_size=5_000, eval_size=4_000, candidate_stride=100)
    seeds = [5, 6]

    def points(groups):
        drawn.clear()
        learn_batch(spec, groups, cfg, seeds)
        return sum(drawn)

    one = points(groups[:1])
    assert one == len(seeds) * (len(cfg.grid) * cfg.t_cap + cfg.holdout_size + cfg.eval_size)
    assert points(groups) == one


def test_wall_ms_is_per_trial():
    spec = dist.gaussian(3)
    model = clean_labels(unit_vector(3, 1))
    cfg = LearnerConfig(grid=(0.2, 0.1), t_cap=2000, holdout_size=10_000, eval_size=10_000,
                        candidate_stride=100)
    t0 = time.perf_counter()
    reports = learn_batch(spec, [(model, float("nan"))], cfg, [1, 2, 3])[0]
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert all(r.wall_ms > 0.0 for r in reports)
    assert sum(r.wall_ms for r in reports) <= elapsed_ms


def test_learn_clean_reaches_low_error():
    # opt = 0, epsilon = 0.02, d = 5: 10-seed median error <= 0.03
    spec = dist.gaussian(5)
    model = clean_labels(unit_vector(5, 1))
    cfg = LearnerConfig(epsilon=0.02, grid=(0.2, 0.1, 0.05), t_cap=30_000,
                        holdout_size=30_000, eval_size=50_000, candidate_stride=100)
    reports = learn_batch(spec, [(model, float("nan"))], cfg, seeds=range(10))[0]
    med = float(np.median([r.err01 for r in reports]))
    assert med <= 0.03


def test_learn_far_flip_error_tracks_opt():
    # opt target 0.01 in d = 10: median error <= 4 opt + epsilon
    spec = dist.gaussian(10)
    opt = 0.01
    model = far_flip(unit_vector(10, 1), Z=dist.z_for_tail_mass(spec, opt), theta2=math.pi / 8)
    cfg = LearnerConfig(epsilon=0.01, grid=(0.16, 0.08, 0.04), t_cap=50_000,
                        holdout_size=50_000, eval_size=100_000, candidate_stride=200)
    reports = learn_batch(spec, [(model, opt)], cfg, seeds=range(10))[0]
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
    rate = float(np.mean(ds.flipped))
    rng = np.random.default_rng(45)
    W = rng.standard_normal((64, 2))
    W /= np.linalg.norm(W, axis=1)[:, None]
    errs = zero_one_errors(W, ds) / n
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
