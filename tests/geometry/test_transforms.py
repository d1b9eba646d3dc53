"""Unit tests for homography estimation and application."""

import numpy as np
import pytest

from repro.geometry.transforms import Homography


def scalar_apply(h, x, y):
    """One point through ``h``'s matrix: the oracle for ``apply_many``."""
    vec = h.matrix @ np.array([x, y, 1.0])
    return (float(vec[0] / vec[2]), float(vec[1] / vec[2]))


def map_one(h, x, y):
    return tuple(h.apply_many(np.array([[x, y]]))[0])


def random_homography(rng):
    mat = np.eye(3) + rng.normal(0, 0.1, (3, 3))
    mat[2, :2] *= 0.001  # keep perspective mild so points stay finite
    return Homography(mat)


class TestApply:
    def test_identity(self):
        h = Homography(np.eye(3))
        assert map_one(h, 3.0, 4.0) == pytest.approx((3.0, 4.0))

    def test_translation(self):
        h = Homography(np.array([[1, 0, 5], [0, 1, -2], [0, 0, 1]], float))
        assert map_one(h, 1.0, 1.0) == pytest.approx((6.0, -1.0))

    def test_apply_many_matches_apply(self):
        rng = np.random.default_rng(0)
        h = random_homography(rng)
        pts = rng.random((10, 2)) * 100
        many = h.apply_many(pts)
        for p, m in zip(pts, many):
            assert scalar_apply(h, *p) == pytest.approx(tuple(m))

    def test_scale_normalization(self):
        h1 = Homography(np.eye(3))
        h2 = Homography(np.eye(3) * 7.0)
        assert np.allclose(h1.matrix, h2.matrix)

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError):
            Homography(np.eye(2))
        h = Homography(np.eye(3))
        with pytest.raises(ValueError):
            h.apply_many(np.zeros((3, 3)))

    def test_point_at_infinity_raises(self):
        h = Homography(np.array([[1, 0, 0], [0, 1, 0], [0.5, 0, 1]], float))
        with pytest.raises(ValueError):
            map_one(h, -2.0, 0.0)  # w = 0.5 * (-2) + 1 = 0

    def test_vanishing_scale_element_raises(self):
        with pytest.raises(ValueError):
            Homography(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1e-20]], float))


class TestFit:
    def test_exact_recovery(self):
        rng = np.random.default_rng(2)
        h = random_homography(rng)
        src = rng.random((12, 2)) * 200
        dst = h.apply_many(src)
        fitted = Homography.fit([tuple(p) for p in src], [tuple(p) for p in dst])
        assert np.allclose(fitted.apply_many(src), dst, atol=1e-6)

    def test_minimum_four_points(self):
        src = [(0, 0), (1, 0), (1, 1), (0, 1)]
        dst = [(0, 0), (2, 0), (2, 2), (0, 2)]
        fitted = Homography.fit(src, dst)
        assert map_one(fitted, 0.5, 0.5) == pytest.approx((1.0, 1.0))

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError):
            Homography.fit([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 0), (1, 1)])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            Homography.fit([(0, 0)] * 4, [(0, 0)] * 5)

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(3)
        h = random_homography(rng)
        src = rng.random((50, 2)) * 300
        dst = h.apply_many(src) + rng.normal(0, 0.5, (50, 2))
        fitted = Homography.fit([tuple(p) for p in src], [tuple(p) for p in dst])
        err = np.abs(fitted.apply_many(src) - h.apply_many(src)).mean()
        assert err < 1.0
