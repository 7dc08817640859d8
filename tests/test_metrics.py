import numpy as np
import pytest

from elliptrack import (EllipseParams, NotPSD, gwd_squared, matrix_sqrt_2x2,
                        orientation_error, rot)


def random_ellipse(rng):
    return EllipseParams(center=rng.normal(size=2) * 5,
                         theta=rng.uniform(-np.pi, np.pi),
                         semi_axes=rng.uniform(0.5, 6.0, size=2))


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_2x2(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sqrt_2x2(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            root = rng.normal(size=(2, 2)) * 3
            mat = root @ root.T
            s = matrix_sqrt_2x2(mat)
            assert np.linalg.norm(s @ s - mat) < 1e-10
            assert np.abs(s - s.T).max() < 1e-12

    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_sqrt_2x2(np.zeros((2, 2))),
                                      np.zeros((2, 2)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            matrix_sqrt_2x2(np.diag([1.0, -0.5]))


class TestGwdSquared:
    def test_identical_is_zero(self):
        e = EllipseParams([1, 2], 0.4, [3, 1])
        assert gwd_squared(e, e) == pytest.approx(0.0, abs=1e-10)

    def test_nan_center_is_not_scored_perfect(self):
        good = EllipseParams([1, 2], 0.3, [5, 2])
        bad = EllipseParams([np.nan, 0], 0.3, [5, 2])
        assert np.isnan(gwd_squared(bad, good))
        assert np.isnan(gwd_squared(good, bad))

    def test_concentric_circles(self):
        # Commuting shape matrices: d^2 = 2 (r1 - r2)^2
        a = EllipseParams([0, 0], 0.0, [1, 1])
        b = EllipseParams([0, 0], 0.0, [2, 2])
        assert gwd_squared(a, b) == pytest.approx(2.0, abs=1e-10)

    def test_pure_translation(self):
        a = EllipseParams([0, 0], 0.7, [3, 1])
        b = EllipseParams([3, 4], 0.7, [3, 1])
        assert gwd_squared(a, b) == pytest.approx(25.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = random_ellipse(rng), random_ellipse(rng)
            assert gwd_squared(a, b) == pytest.approx(gwd_squared(b, a), abs=1e-10)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = random_ellipse(rng), random_ellipse(rng)
            phi = rng.uniform(-np.pi, np.pi)
            shift = rng.normal(size=2) * 10
            ta = EllipseParams(rot(phi) @ a.center + shift, a.theta + phi, a.semi_axes)
            tb = EllipseParams(rot(phi) @ b.center + shift, b.theta + phi, b.semi_axes)
            assert gwd_squared(ta, tb) == pytest.approx(gwd_squared(a, b), abs=1e-9)

    def test_representation_invariance(self):
        # theta + pi, and axis swap with theta + pi/2, describe the same shape
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_ellipse(rng), random_ellipse(rng)
            base = gwd_squared(a, b)
            flipped = EllipseParams(a.center, a.theta + np.pi, a.semi_axes)
            assert gwd_squared(flipped, b) == pytest.approx(base, abs=1e-9)
            swapped = EllipseParams(a.center, a.theta + np.pi / 2,
                                    a.semi_axes[::-1])
            assert gwd_squared(swapped, b) == pytest.approx(base, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            assert gwd_squared(random_ellipse(rng), random_ellipse(rng)) >= 0.0


class TestOrientationError:
    def test_equal_angles(self):
        assert orientation_error(0.2, 0.2) == 0.0

    def test_pi_apart_is_zero(self):
        assert orientation_error(np.pi, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_direct_difference(self):
        assert orientation_error(0.3, -0.2) == pytest.approx(0.5)

    def test_pi_shift_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, b = rng.uniform(-10, 10, size=2)
            assert orientation_error(a + np.pi, b) == pytest.approx(
                orientation_error(a, b), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            err = orientation_error(rng.uniform(-10, 10), rng.uniform(-10, 10))
            assert 0.0 <= err <= np.pi / 2
