import numpy as np
import pytest

from elliptrack import (AxisState, FilterConfig, clamp_axis_variance, predict,
                        rot, shape_matrix, symmetrize_psd, wrap_angle)
from elliptrack.simulation import builtin_scenarios
from elliptrack.state import _has_psd_pivots

from conftest import assert_symmetric_psd, symmetrize_psd_oracle


class TestRot:
    def test_zero_is_identity(self):
        assert np.array_equal(rot(0.0), np.eye(2))

    def test_quarter_turn(self):
        np.testing.assert_allclose(rot(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)

    def test_determinant_one(self):
        m = rot(0.3)
        assert abs(np.linalg.det(m) - 1.0) < 1e-14

    def test_inverse_is_negative_angle(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-50, 50, size=1000):
            np.testing.assert_allclose(rot(theta) @ rot(-theta), np.eye(2),
                                       atol=1e-13)


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_pi(self):
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi, abs=1e-12)

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)

    def test_differs_by_multiple_of_two_pi(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-40, 40, size=500):
            w = wrap_angle(theta)
            assert -np.pi < w <= np.pi
            k = (theta - w) / (2 * np.pi)
            assert abs(k - round(k)) < 1e-9


class TestShapeMatrix:
    def test_axis_aligned(self):
        np.testing.assert_allclose(shape_matrix(0.0, [2, 1]), np.diag([4, 1]))

    def test_quarter_turn_swaps_axes(self):
        np.testing.assert_allclose(shape_matrix(np.pi / 2, [2, 1]),
                                   np.diag([1, 4]), atol=1e-14)

    def test_diagonal_rotation(self):
        # R(pi/4) diag(4,1) R(pi/4)^T multiplied out by hand
        np.testing.assert_allclose(shape_matrix(np.pi / 4, [2, 1]),
                                   [[2.5, 1.5], [1.5, 2.5]], atol=1e-14)

    def test_pi_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            theta = rng.uniform(-np.pi, np.pi)
            axes = rng.uniform(0.5, 6.0, size=2)
            np.testing.assert_allclose(shape_matrix(theta + np.pi, axes),
                                       shape_matrix(theta, axes), atol=1e-12)

    def test_eigenvalues_are_squared_axes(self):
        eig = np.linalg.eigvalsh(shape_matrix(0.7, [3, 1.5]))
        np.testing.assert_allclose(sorted(eig), [1.5 ** 2, 3 ** 2], atol=1e-12)


class TestClampAxisVariance:
    def test_clamps_only_exceeding_entry(self):
        out = clamp_axis_variance(AxisState([5, 2], np.diag([1.0, 1.0])), 0.4)
        np.testing.assert_allclose(out.cov, np.diag([1.0, 0.64]))
        np.testing.assert_array_equal(out.mean, [5, 2])

    def test_zero_cov_unchanged(self):
        out = clamp_axis_variance(AxisState([5, 2], np.zeros((2, 2))), 0.4)
        np.testing.assert_array_equal(out.cov, np.zeros((2, 2)))

    def test_clamps_both(self):
        out = clamp_axis_variance(AxisState([4, 2], np.diag([4.0, 2.0])), 0.15)
        np.testing.assert_allclose(out.cov, np.diag([0.36, 0.09]))

    def test_preserves_correlation(self):
        cov = np.array([[4.0, 1.2], [1.2, 2.0]])
        rho = 1.2 / np.sqrt(4.0 * 2.0)
        out = clamp_axis_variance(AxisState([4, 2], cov), 0.15)
        new_rho = out.cov[0, 1] / np.sqrt(out.cov[0, 0] * out.cov[1, 1])
        assert new_rho == pytest.approx(rho, abs=1e-12)
        assert_symmetric_psd(out.cov)

    def test_never_increases_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            root = rng.normal(size=(2, 2))
            cov = root @ root.T
            mean = rng.uniform(0.5, 6.0, size=2)
            psi = rng.uniform(0.05, 1.0)
            out = clamp_axis_variance(AxisState(mean, cov), psi)
            assert out.cov[0, 0] <= cov[0, 0] + 1e-15
            assert out.cov[1, 1] <= cov[1, 1] + 1e-15
            np.testing.assert_array_equal(out.mean, mean)


class TestSymmetrizePsd:
    def test_identity_unchanged(self):
        assert np.array_equal(symmetrize_psd(np.eye(3)), np.eye(3))

    def test_asymmetric_input(self):
        # (M + M^T)/2 = [[1,1],[1,1]] with eigenvalues {2, 0}: no flooring
        np.testing.assert_allclose(symmetrize_psd(np.array([[1.0, 2.0], [0.0, 1.0]])),
                                   [[1, 1], [1, 1]], atol=1e-14)

    def test_floors_tiny_negative(self):
        out = symmetrize_psd(np.diag([1.0, -1e-9]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)
        assert np.linalg.eigvalsh(out).min() >= 0.0

    def test_idempotent_and_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            root = rng.normal(size=(4, 4))
            psd = root @ root.T
            once = symmetrize_psd(psd)
            np.testing.assert_allclose(once, psd, atol=1e-12)
            assert_symmetric_psd(symmetrize_psd(rng.normal(size=(3, 3))),
                                 sym_tol=1e-12, eig_tol=-1e-10)


class TestSymmetrizePsdFastPath:
    def test_block_singular_stationary_covariance_needs_no_repair(
            self, monkeypatch):
        cfg = builtin_scenarios()["stationary"]
        predicted = predict(cfg.prior, cfg.motion).kin.cov

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a PSD matrix")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for cov in (cfg.prior.kin.cov, predicted):
            assert np.array_equal(symmetrize_psd(cov), 0.5 * (cov + cov.T))

    def test_zero_pivot_with_nonzero_column_is_repaired(self):
        # [[0, 1], [1, 0]] has a zero pivot but eigenvalues {-1, 1}
        out = symmetrize_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_lapack_oracle(self, n):
        rng = np.random.default_rng(40 + n)
        repaired = 0
        for trial in range(600):
            root = rng.normal(size=(n, n))
            kind = trial % 3
            if kind == 0:       # indefinite, asymmetric
                mat = root
            elif kind == 1:     # positive definite
                mat = root @ root.T
            else:               # singular PSD, rank n - 1, with rounding
                mat = root[:, 1:] @ root[:, 1:].T
            expected = symmetrize_psd_oracle(mat)
            out = symmetrize_psd(mat)
            scale = max(1.0, np.abs(mat).max())
            assert np.abs(out - expected).max() <= 1e-12 * scale
            if kind == 1:
                assert np.array_equal(out, expected)
            repaired += not np.array_equal(out, 0.5 * (mat + mat.T))
        assert repaired >= 200

    @pytest.mark.parametrize("larger_first", [True, False])
    def test_2x2_repair_is_final_without_eigh(self, monkeypatch,
                                              larger_first):
        # indefinite 2x2 inputs, from a barely negative eigenvalue (as a
        # subtractive covariance update leaves) to a dominant one, with
        # the larger diagonal entry first or second and off-diagonal
        # entries down to 1e-9 of the scale: the closed-form repair
        # matches the eigenvalue floor, passes the pivot test exactly,
        # and so a second repair (the next predict's) changes nothing
        rng = np.random.default_rng(50 + larger_first)
        cases = []
        for trial in range(3000):
            top = 10.0 ** rng.uniform(-4.0, 3.0)
            low = -top * 10.0 ** rng.uniform(-12.0, 1.0)
            angle = (rng.uniform(-np.pi, np.pi) if trial % 2
                     else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -1))
            mat = rot(angle) @ np.diag([top, low]) @ rot(angle).T
            if (mat[0, 0] >= mat[1, 1]) != larger_first:
                mat = mat[::-1, ::-1]
            cases.append((mat, symmetrize_psd_oracle(mat)))

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a 2x2 matrix")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        worst = 0.0
        for mat, expected in cases:
            once = symmetrize_psd(mat)
            assert _has_psd_pivots(once.tolist())
            assert np.array_equal(symmetrize_psd(once), once)
            worst = max(worst, np.abs(once - expected).max()
                        / max(1.0, np.abs(mat).max()))
        print(f"worst deviation from the eigenvalue floor: {worst:.2e}")
        assert worst <= 1e-12


class TestFilterConfig:
    def test_rejects_nonpositive_scaling(self):
        with pytest.raises(ValueError):
            FilterConfig(R=np.eye(2), c=0.0)

    def test_rejects_psi_out_of_range(self):
        with pytest.raises(ValueError):
            FilterConfig(R=np.eye(2), c=0.25, psi=1.5)

    def test_accepts_valid_psi(self):
        cfg = FilterConfig(R=np.eye(2), c=0.25, psi=0.4)
        assert cfg.psi == 0.4
