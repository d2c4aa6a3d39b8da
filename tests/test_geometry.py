import math

import numpy as np
import pytest

from halfspace_sgd.geometry import angle_between, halfspace_labels, project_to_sphere, rotate2d, unit_vector
from helpers import halfspace_label


def test_project_exact_normalization():
    np.testing.assert_allclose(project_to_sphere([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)


def test_project_identity_on_unit_vectors():
    e1 = unit_vector(4, 0)
    np.testing.assert_array_equal(project_to_sphere(e1), e1)


@pytest.mark.parametrize("bad", [[0.0, 0.0], [np.inf, 1.0], [np.nan, 0.5]])
def test_project_rejects_degenerate_input(bad):
    with pytest.raises(ValueError):
        project_to_sphere(bad)


def test_project_unit_norm_and_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.standard_normal(rng.integers(2, 9))
        u = project_to_sphere(v)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        for c in (0.001, 0.5, 3.0, 1e8):
            np.testing.assert_allclose(project_to_sphere(c * v), u, rtol=0, atol=5e-16)


def test_angle_between_reference_values():
    e1, e2 = unit_vector(3, 0), unit_vector(3, 1)
    assert angle_between(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert angle_between(e1, e1) == 0.0
    assert angle_between(e1, -e1) == pytest.approx(math.pi, abs=1e-15)


def test_angle_supplementary_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = project_to_sphere(rng.standard_normal(5))
        v = project_to_sphere(rng.standard_normal(5))
        assert angle_between(u, v) + angle_between(v, -u) == pytest.approx(math.pi, abs=1e-10)


def test_angle_clamps_collinear_roundoff():
    u = project_to_sphere(np.full(6, 1.0 / math.sqrt(6.0)))
    assert angle_between(u, u.copy()) == 0.0
    assert np.isfinite(angle_between(u, -u))


def test_halfspace_label_convention():
    e1 = unit_vector(2, 0)
    assert halfspace_label(e1, [2.0, -5.0]) == 1
    assert halfspace_label(e1, [0.0, 3.0]) == 1  # sign(0) = +1
    assert halfspace_label(e1, [-0.1, 9.0]) == -1


def test_halfspace_label_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = project_to_sphere(rng.standard_normal(4))
        x = rng.standard_normal(4)
        base = halfspace_label(w, x)
        for c in (0.01, 2.0, 1e6):
            assert halfspace_label(w, c * x) == base


def test_halfspace_label_dimension_mismatch():
    with pytest.raises(ValueError):
        halfspace_label(unit_vector(3), np.zeros(4))


def test_halfspace_labels_matches_scalar():
    rng = np.random.default_rng(5)
    w = project_to_sphere(rng.standard_normal(3))
    X = rng.standard_normal((50, 3))
    batch = halfspace_labels(w, X)
    assert batch.tolist() == [halfspace_label(w, x) for x in X]


def test_rotate2d_quarter_turn():
    np.testing.assert_allclose(rotate2d([1.0, 0.0], math.pi / 2), [0.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        rotate2d([1.0, 0.0, 0.0], 0.3)


def test_angle_between_keeps_tiny_angles():
    # arccos of the inner product reads 0 below about 1e-8 rad
    e2 = unit_vector(2, 1)
    for angle in (1e-9, 1e-8):
        assert angle_between(e2, rotate2d(e2, angle)) == pytest.approx(angle, rel=1e-14, abs=0.0)
