import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elliptrack import EllipseParams, gwd_squared, orientation_error, rot
from elliptrack.errors import NotPSD
from elliptrack.metrics import matrix_sqrt_2x2

from conftest import gwd_squared_oracle, orientation_error_oracle


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


COORDS = st.floats(-50.0, 50.0)
ANGLES = st.one_of(st.floats(-10.0, 10.0),
                   st.sampled_from([0.0, math.pi / 2, -math.pi, math.pi]))
# Semi-axes of either sign; with zeros the shape matrices are singular.
NONZERO_AXES = st.one_of(st.floats(0.5, 6.0), st.floats(-6.0, -0.5))
AXES_WITH_ZEROS = st.one_of(NONZERO_AXES, st.sampled_from([0.0, -0.0]))


@st.composite
def ellipse_pairs(draw, semi_axes):
    """Two ellipses; the second is often the first, or the first turned
    by pi, or turned by pi/2 with its axes swapped (both the same shape)."""
    def ellipse():
        return EllipseParams([draw(COORDS), draw(COORDS)], draw(ANGLES),
                             [draw(semi_axes), draw(semi_axes)])
    a = ellipse()
    b = a if draw(st.booleans()) else ellipse()
    turn = draw(st.sampled_from(["none", "half", "swap"]))
    if turn == "half":
        b = EllipseParams(b.center, b.theta + math.pi, b.semi_axes)
    elif turn == "swap":
        b = EllipseParams(b.center, b.theta + math.pi / 2, b.semi_axes[::-1])
    return a, b


class TestGwdClosedForm:
    @settings(max_examples=500)
    @given(pair=ellipse_pairs(NONZERO_AXES))
    @example(pair=(EllipseParams([1, 2], 0.4, [3, 1]),) * 2)
    @example(pair=(EllipseParams([1, -1], 0.3, [-2, 5]),
                   EllipseParams([0, 2], 0.3 + math.pi, [2, -5])))
    @example(pair=(EllipseParams([0, 0], 2.4, [6.0, 0.5]),
                   EllipseParams([0, 0], 2.4 + math.pi, [6.0, 0.5])))
    def test_equals_the_matrix_form(self, pair):
        a, b = pair
        expected = gwd_squared_oracle(a, b)
        out = gwd_squared(a, b)
        assert type(out) is float and out >= 0.0
        assert abs(out - expected) <= 1e-12 * max(1.0, abs(expected))
        assert gwd_squared(b, a) == pytest.approx(out, rel=1e-12, abs=1e-12)

    @settings(max_examples=500)
    @given(pair=ellipse_pairs(AXES_WITH_ZEROS))
    @example(pair=(EllipseParams([0, 0], 0.0, [0, 0]),
                   EllipseParams([0, 0], 1.0, [0, 0])))
    def test_zero_semi_axes_agree_with_the_matrix_form_to_its_rounding(
            self, pair):
        # A singular shape matrix makes the oracle's inner determinant zero
        # only up to rounding, about eps times its squared scale, and the
        # square root turns that into about sqrt(eps) = 1.5e-8 times the
        # scale. The closed form has no such root; the exact cases below
        # check it at 1e-12.
        a, b = pair
        scale = 1.0 + float(a.semi_axes @ a.semi_axes + b.semi_axes @ b.semi_axes)
        out = gwd_squared(a, b)
        assert out >= 0.0
        assert abs(out - gwd_squared_oracle(a, b)) <= 1e-7 * scale

    @pytest.mark.parametrize("a, b, expected", [
        # A point against an ellipse: only the centers and X_b's trace.
        (([0, 0], 0.3, [0, 0]), ([3, 4], 0.7, [3, -1]), 25.0 + 10.0),
        # Segments: l^2 + m^2 - 2 |l m cos(angle between them)|.
        (([0, 0], 1.0, [0, 1]), ([0, 0], math.pi, [1, 0]),
         2.0 - 2.0 * math.sin(1.0)),
        (([1, 1], 0.0, [2, 0]), ([1, 1], 0.5, [-3, 0]),
         13.0 - 12.0 * math.cos(0.5)),
        (([0, 0], 0.0, [2, 0]), ([0, 0], math.pi / 2, [3, 0]), 13.0),
        (([0, 0], 0.2, [0, -2]), ([0, 0], 0.2 + math.pi, [0, 2]), 0.0),
    ])
    def test_segments_and_points_are_exact(self, a, b, expected):
        out = gwd_squared(EllipseParams(*a), EllipseParams(*b))
        assert out == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("field", ["center", "theta", "semi_axes"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_input_gives_nan(self, field, side):
        fields = {"center": [1.0, 2.0], "theta": 0.3, "semi_axes": [5.0, 2.0]}
        fields[field] = (math.nan if field == "theta"
                         else [fields[field][0], math.nan])
        pair = [EllipseParams(**fields), EllipseParams([0, 1], 1.0, [4, 1])]
        assert math.isnan(gwd_squared(*pair[::1 - 2 * side]))

    def test_overflow_is_inf_not_an_error(self):
        # Squares are products: on a float, x ** 2 raises OverflowError.
        far = EllipseParams([1e300, 0.0], 0.0, [1.0, 1.0])
        assert gwd_squared(far, EllipseParams([0, 0], 0.0, [1, 1])) == math.inf


BOUNDARY_ANGLES = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2,
                   3 * math.pi / 2, 2 * math.pi, math.nextafter(math.pi / 2, 0.0),
                   math.nextafter(math.pi / 2, 4.0), 1e-300, 1e300, -1e300,
                   math.inf, math.nan]


class TestOrientationError:
    @settings(max_examples=500)
    @given(theta_est=st.one_of(st.floats(-1e3, 1e3),
                               st.sampled_from(BOUNDARY_ANGLES)),
           theta_true=st.one_of(st.floats(-1e3, 1e3),
                                st.sampled_from(BOUNDARY_ANGLES)))
    def test_matches_the_numpy_reference(self, theta_est, theta_true):
        # Both forms take the same rounded difference. Its remainder mod
        # pi is exact but for adding pi when the signs differ, half an ulp
        # of pi, and the fold subtracts pi, another half: within one ulp
        # of pi, continuous across the fold. NaN (an infinite angle) in
        # one form is NaN in the other.
        out = orientation_error(theta_est, theta_true)
        ref = orientation_error_oracle(theta_est, theta_true)
        assert type(out) is float
        assert math.isnan(out) == math.isnan(ref)
        if not math.isnan(ref):
            assert abs(out - ref) <= math.ulp(math.pi)


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
