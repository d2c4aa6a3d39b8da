import math
import tracemalloc

import numpy as np
import pytest

from halfspace_sgd import distributions as dist
from halfspace_sgd.geometry import angle_between, halfspace_labels, rotate2d, unit_vector
from halfspace_sgd.noise import (
    NoisyExampleStream,
    clean_labels,
    corrupt_labels,
    far_flip,
    make_dataset,
)
from helpers import apply_noise, estimate_err01, halfspace_label, region_membership

E2 = unit_vector(2, 1)


def test_label_clean_reference_cases():
    np.testing.assert_array_equal(halfspace_labels(E2, np.array([[5.0, 1.0], [5.0, -1.0]])), [1.0, -1.0])
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 2))
    X = X[np.abs(X[:, 1]) >= 1e-12]
    np.testing.assert_array_equal(halfspace_labels(E2, X), -halfspace_labels(-E2, X))


def test_far_flip_parameter_validation():
    with pytest.raises(ValueError):
        far_flip(E2, Z=2.0, theta2=0.0)
    with pytest.raises(ValueError):
        far_flip(E2, Z=2.0, theta2=math.pi / 3)
    with pytest.raises(ValueError):
        far_flip(E2, Z=0.0, theta2=0.1)


def test_tilt_frame_geometry_2d():
    theta2 = math.pi / 7
    model = far_flip(E2, Z=2.0, theta2=theta2)
    assert angle_between(model.w_tilde, E2) == pytest.approx(theta2, abs=1e-12)
    # counterclockwise: w_tilde = Rot(+theta2) w*
    np.testing.assert_allclose(model.w_tilde, rotate2d(E2, theta2), atol=1e-15)
    assert float(model.w_tilde @ model.w_perp) == pytest.approx(0.0, abs=1e-15)
    assert float(model.w_star @ model.w_perp) == pytest.approx(math.sin(theta2), abs=1e-12)


def test_tilt_frame_geometry_high_dim():
    rng = np.random.default_rng(6)
    for d in (3, 5, 10):
        w_star = rng.standard_normal(d)
        model = far_flip(w_star, Z=3.0, theta2=0.2)
        assert angle_between(model.w_tilde, model.w_star) == pytest.approx(0.2, abs=1e-12)
        assert abs(float(model.w_tilde @ model.w_perp)) <= 1e-12
        assert float(model.w_star @ model.w_perp) >= 0.0
        assert abs(np.linalg.norm(model.w_tilde) - 1.0) <= 1e-12


def test_region_membership_spec_points():
    Z = 2.0
    model = far_flip(E2, Z=Z, theta2=math.pi / 8)
    in_c, in_s = region_membership(model, 2.0 * Z * E2)
    assert in_s and not in_c
    in_c, in_s = region_membership(model, (Z / 2.0) * E2)
    assert not in_s


def test_region_membership_against_angular_sector_oracle():
    # independent description: C is the double sector from w_tilde around to
    # the w*-boundary ray, i.e. global angles [pi/2 + theta2, pi] mod pi
    theta2 = math.pi / 8
    Z = 1.5
    model = far_flip(E2, Z=Z, theta2=theta2)
    phis = np.arange(10_000) * (2.0 * math.pi / 10_000) + 1e-7
    for r in (0.5 * Z, 2.0 * Z):
        X = r * np.stack([np.cos(phis), np.sin(phis)], axis=1)
        got = np.array([region_membership(model, x)[0] for x in X[::50]])
        lo, hi = math.pi / 2.0 + theta2, math.pi
        folded = np.mod(phis[::50], math.pi)
        expected = (folded >= lo) & (folded <= hi)
        np.testing.assert_array_equal(got, expected)


def test_apply_noise_rules():
    Z = 2.0
    model = far_flip(E2, Z=Z, theta2=math.pi / 8)
    clean = clean_labels(E2)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.standard_normal(2) * 2.0
        y = halfspace_label(E2, x)
        assert apply_noise(clean, x, y) == y
        got = apply_noise(model, x, y)
        if np.linalg.norm(x) < Z:
            assert got == y
        else:
            in_c, _ = region_membership(model, x)
            assert got == (y if in_c else -y)
    X = rng.standard_normal((200, 2)) * 2.0
    clean_y = halfspace_labels(E2, X)
    rows, _ = corrupt_labels(model, X)
    assert rows.tolist() == [apply_noise(model, x, y) for x, y in zip(X, clean_y)]


def test_far_flip_supports_higher_dimensions():
    spec = dist.gaussian(6)
    w_star = unit_vector(6, 1)
    Z = dist.z_for_tail_mass(spec, 0.05)
    model = far_flip(w_star, Z=Z, theta2=math.pi / 8)
    ds = make_dataset(spec, model, 100_000, seed=5)
    assert ds.x.shape == (100_000, 6)
    expected = 0.05 * (0.5 + (math.pi / 8) / math.pi)
    assert abs(np.mean(ds.flipped) - expected) <= 4.0 * math.sqrt(expected * (1 - expected) / 100_000)


def test_flip_mass_bounded_by_tail_mass():
    spec = dist.gaussian(2)
    n = 1_000_000
    X = dist.sample(spec, n, seed=17)
    for opt in (0.02, 0.1):
        Z = dist.z_for_tail_mass(spec, opt)
        model = far_flip(E2, Z=Z, theta2=math.pi / 8)
        _, flip = corrupt_labels(model, X)
        tail = dist.radial_tail_mass(spec, Z)
        stderr = math.sqrt(tail * (1 - tail) / n)
        assert float(np.mean(flip)) <= tail + 4.0 * stderr
        # flip set is contained in S
        assert np.all(np.linalg.norm(X[flip], axis=1) >= Z)


def test_flip_set_scale_behavior_on_rays():
    # C membership is scale-invariant; S membership changes only across Z
    model = far_flip(E2, Z=2.0, theta2=0.3)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        cs = [region_membership(model, c * u) for c in (0.5, 1.0, 1.9, 2.1, 10.0)]
        in_c = {c[0] for c in cs}
        assert len(in_c) == 1
        in_s = [c[1] for c in cs]
        assert in_s == sorted(in_s)  # monotone in the scale


def test_wstar_error_equals_flip_rate_exactly():
    spec = dist.gaussian(2)
    model = far_flip(E2, Z=dist.z_for_tail_mass(spec, 0.05), theta2=0.3)
    ds = make_dataset(spec, model, 50_000, seed=31)
    assert estimate_err01(E2, ds) == np.mean(ds.flipped)


def test_make_dataset_clean_and_deterministic():
    spec = dist.gaussian(3)
    model = clean_labels(unit_vector(3, 1))
    ds = make_dataset(spec, model, 1000, seed=7)
    assert not ds.flipped.any()
    ds2 = make_dataset(spec, model, 1000, seed=7)
    np.testing.assert_array_equal(ds.x, ds2.x)
    np.testing.assert_array_equal(ds.y, ds2.y)


@pytest.mark.parametrize("d", [2, 10])
def test_clean_labels_flip_nothing_in_datasets_and_streams(d):
    # clean_labels is the far-flip rule with Z = inf: its flip set is empty
    spec = dist.gaussian(d)
    w = np.random.default_rng(d).standard_normal(d)
    model = clean_labels(w)
    ds = make_dataset(spec, model, 20_000, seed=3)
    assert not ds.flipped.any()
    np.testing.assert_array_equal(ds.y, halfspace_labels(w, ds.x))
    X, y = NoisyExampleStream(spec, [model], seed=4).take(20_000)
    np.testing.assert_array_equal(y[:, 0], halfspace_labels(w, X))


def test_make_dataset_noise_rate_matches_sector_mass():
    # P[S \ C] = tail(Z) * (1/2 + theta2/pi) for radially symmetric marginals
    spec = dist.heavy_tailed(3.0)
    theta2 = math.pi / 8
    Z = dist.z_for_tail_mass(spec, 0.1)
    model = far_flip(E2, Z=Z, theta2=theta2)
    n = 400_000
    ds = make_dataset(spec, model, n, seed=13)
    p = 0.1 * (0.5 + theta2 / math.pi)
    assert abs(np.mean(ds.flipped) - p) <= 4.0 * math.sqrt(p * (1 - p) / n)


def test_make_dataset_dimension_mismatch():
    with pytest.raises(ValueError):
        make_dataset(dist.gaussian(3), clean_labels(E2), 10, seed=1)


@pytest.mark.parametrize("spec", [dist.gaussian(2), dist.log_concave(), dist.heavy_tailed(3.0)],
                         ids=lambda spec: spec.family)
def test_make_dataset_blocks_equal_one_draw(spec):
    # filled a row block at a time (the last block holds one row), the set
    # equals one sample() draw and its corrupt_labels, bitwise
    model = far_flip(E2, Z=dist.z_for_tail_mass(spec, 0.05), theta2=0.3)
    n = 2 * dist.block_rows(2) + 1
    ds = make_dataset(spec, model, n, seed=12)
    X = dist.sample(spec, n, seed=12)
    y, flipped = corrupt_labels(model, X)
    np.testing.assert_array_equal(ds.x, X)
    np.testing.assert_array_equal(ds.y, y)
    np.testing.assert_array_equal(ds.flipped, flipped)


def test_make_dataset_peak_is_its_output_plus_one_block():
    # beyond the arrays it returns, make_dataset holds one block's draw and
    # label temporaries (under 4 MiB), whatever n is
    spec = dist.heavy_tailed(3.0)
    model = far_flip(E2, Z=dist.z_for_tail_mass(spec, 0.05), theta2=0.3)
    for blocks in (3, 8):
        tracemalloc.start()
        try:
            ds = make_dataset(spec, model, blocks * dist.block_rows(2) + 1, seed=13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - (ds.x.nbytes + ds.y.nbytes + ds.flipped.nbytes) <= 4 * dist.BLOCK_BYTES


def test_labeled_dataset_validation():
    from halfspace_sgd.noise import LabeledDataset

    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([1.0, 0.5, -1.0]), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.inf, 0.0]]), np.array([1.0]), np.zeros(1, dtype=bool))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.ones(2), np.zeros(3, dtype=bool))
    assert len(make_dataset(dist.gaussian(2), clean_labels(E2), 5, seed=1)) == 5
