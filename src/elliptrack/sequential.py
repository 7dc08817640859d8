"""Sequential filter: interleaved per-measurement updates.

Each time step predicts all three state components, then processes the
measurements one by one. Within measurement i the kinematic, axis, and
orientation updates all read the estimate frozen after measurement i-1
(the "snapshot"), so the order of the three component updates is
irrelevant. The axis and orientation updates are linear estimators on the
quadratic pseudo-measurements; their moments follow from the Gaussian
source moment match plus a first-order treatment of the orientation
uncertainty. Inside a step the estimate is carried as Python floats:
(mean, upper), the upper triangle of P row by row, (p1, p2, P11, P12,
P22) and (theta, var). A step reads the floats its prior, motion and
noise store, and its result stores the floats alone (:func:`_estimate`).

The orientation updates solve with Cov(b), b = (s1^2, s2^2, s1 s2) for
s ~ N(0, C). Isserlis' theorem fixes Cov(b) by C's entries, which are
E(b): its rows are (2 C11^2, 2 C12^2, 2 C11 C12), (2 C12^2, 2 C22^2,
2 C22 C12) and (2 C11 C12, 2 C22 C12, C11 C22 + C12^2). Its inverse is
R / d^2, d = det C, with R symmetric, rows (C22^2/2, C12^2/2, -C12 C22),
(C12^2/2, C11^2/2, -C11 C12) and (-C12 C22, -C11 C12, C11 C22 + C12^2):
row 1 of Cov(b) times column 1 of R is C11^2 C22^2 + C12^4 - 2 C11 C22
C12^2 = d^2, times column 3 it is 2 C11 C12 (C11 C22 + C12^2 - C11 C22 -
C12^2) = 0, and the other entries follow alike (:func:`_guarded_solve`).
"""

# String annotations: typing's caches would keep re-imported classes alive.
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import SingularInnovation, SingularPseudoCov
from .measurements import MeasurementSet, _centering
from .state import (AXIS_FLOOR, AxisState, DecoupledEstimate, FilterConfig,
                    MotionModel, OrientationState, _aligned_entries,
                    _axis_floats, _estimate, _psd_2x2, _psd_rows,
                    _shape_entries, clamp_axis_variance, wrap_angle)

# Condition-number guard for the linear solves replacing symbolic inverses.
COND_LIMIT = 1e12

UPDATE_ORDER = ("kinematics", "axis", "orientation")


@dataclass
class StepDiagnostics:
    """Counts of component updates skipped due to ill-conditioning."""
    skipped_kinematics: int = 0
    skipped_axis: int = 0
    skipped_orientation: int = 0

    def merge(self, other: "StepDiagnostics") -> None:
        for name, count in other.as_dict().items():
            setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AxisMoments:
    """Moments of the axis pseudo-measurement a at a given snapshot."""
    expected_a: np.ndarray  # E(a), 2-vector
    cov_aa: np.ndarray      # Cov(a), 2x2
    cross_ap: np.ndarray    # Cov(a, axes), diagonal 2x2


def _guarded_det(a: float, b: float, c: float, d: float, error,
                 message: str) -> float:
    """det(A) of A = [[a, b], [c, d]], or raise ``error(message)``.

    The adjugate is [[d, -b], [-c, a]]; callers name its entries. The
    exception is built only when the guard trips: for a non-finite entry,
    or when the Frobenius condition number kappa_F = ||A||_F ||adj A||_F
    / |det A| (between the 2-norm one and n times it) reaches
    ``COND_LIMIT``. At 2x2 both norms are ``hypot(a, b, c, d)``. A
    numerically singular matrix leaves a rounding residue as det, so
    kappa_F ~ 1/eps.
    """
    det = a * d - b * c
    norm = math.hypot(a, b, c, d)
    # A non-finite entry makes the norm inf or NaN. The comparison is
    # negated so that a NaN product (inf * 0) also raises.
    if not (math.isfinite(norm) and norm * norm < COND_LIMIT * abs(det)):
        raise error(message)
    return det


def _guarded_solve(moments: tuple, rhs: tuple, error, name: str,
                   var: float = 0.0) -> tuple:
    """(x1, x2, x3, rhs . x) for x = G^-1 rhs, G = Cov(b) - var rhs rhs^T.

    ``moments`` is E(b) = (C11, C22, C12), which fixes B = Cov(b) (module
    docstring); at ``var`` = 0, G = B. On symmetric matrices B acts as C (x)
    C, with eigenvalues 2 l1^2, 2 l2^2 and 2 l1 l2 for C's l1, l2: B is
    positive definite iff det C > 0, and kappa(B) is kappa(C)^2 <=
    kappa_F(C)^2 = (||C||_F^2 / det C)^2, within a factor 2 for the scale
    of s1 s2. With q = rhs^T B^-1 rhs, G = B^1/2 (I - var u u^T) B^1/2, u =
    B^-1/2 rhs, whose middle factor has eigenvalues 1, 1 and 1 - var q: G
    is positive definite iff var q < 1, and kappa(G) <= kappa(B) / (1 - var
    q). So ``error`` names ``name`` and "is not positive definite" unless 0
    <= var q < 1, or "is ill-conditioned" where kappa_F(C)^2 >= (1 - var q)
    ``COND_LIMIT`` or det C is not a positive normal float. x is formed as
    (R (rhs / det C)) / det C, R = det C^2 B^-1, so C and rhs scaled by
    1e-150 .. 1e150 (as C and M scale together) solve as unscaled.
    """
    c11, c22, c12 = moments
    det = c11 * c22 - c12 * c12
    norm = math.hypot(c11, c12, c12, c22)
    # NaN fails the test of det, inf makes kappa inf or NaN, and a det below
    # the smallest normal float carries too few digits to divide by.
    kappa = norm * norm / det if det >= 2.0 ** -1022 else math.inf
    if not kappa * kappa < COND_LIMIT:
        raise error(name + " is ill-conditioned")
    # det C^2 Cov(b)^-1, the Isserlis inverse of the module docstring.
    r11, r12, r13 = 0.5 * (c22 * c22), 0.5 * (c12 * c12), -(c12 * c22)
    r22, r23, r33 = 0.5 * (c11 * c11), -(c11 * c12), c11 * c22 + c12 * c12
    m1, m2, m3 = rhs
    n1, n2, n3 = m1 / det, m2 / det, m3 / det
    y1 = (r11 * n1 + r12 * n2 + r13 * n3) / det
    y2 = (r12 * n1 + r22 * n2 + r23 * n3) / det
    y3 = (r13 * n1 + r23 * n2 + r33 * n3) / det
    q = m1 * y1 + m2 * y2 + m3 * y3
    if not 0.0 <= var * q < 1.0:
        raise error(name + " is not positive definite")
    shrink = 1.0 - var * q
    if not kappa * kappa < shrink * COND_LIMIT:
        raise error(name + " is ill-conditioned")
    return y1 / shrink, y2 / shrink, y3 / shrink, q / shrink


def _predict(est: DecoupledEstimate, motion: MotionModel) -> tuple:
    """Kalman prediction of each component, as the floats of a step.

    Reads the floats of the estimate and of the motion. The kinematic
    covariance is F P F^T + Q, formed as G = F P from all 16 entries of P,
    so a prior asymmetric within rounding predicts as its arrays do, and
    then the upper triangle of G F^T + Q, entry by entry, with Q's upper
    triangle; each entry sums its four products from left to right. F is
    any 4x4. The axis transition is the identity, so only process noise
    is added there; the orientation mean is re-wrapped.
    """
    (m0, m1, m2, m3, p00, p01, p02, p03, p10, p11, p12, p13, p20, p21, p22,
     p23, p30, p31, p32, p33, a1, a2, c11, c12, c21, c22, theta,
     var) = est._floats
    (f00, f01, f02, f03, f10, f11, f12, f13, f20, f21, f22, f23, f30, f31,
     f32, f33, q00, q01, q02, q03, q11, q12, q13, q22, q23, q33, qa11, qa12,
     qa21, qa22, q_theta) = motion._floats
    g00 = f00 * p00 + f01 * p10 + f02 * p20 + f03 * p30
    g01 = f00 * p01 + f01 * p11 + f02 * p21 + f03 * p31
    g02 = f00 * p02 + f01 * p12 + f02 * p22 + f03 * p32
    g03 = f00 * p03 + f01 * p13 + f02 * p23 + f03 * p33
    g10 = f10 * p00 + f11 * p10 + f12 * p20 + f13 * p30
    g11 = f10 * p01 + f11 * p11 + f12 * p21 + f13 * p31
    g12 = f10 * p02 + f11 * p12 + f12 * p22 + f13 * p32
    g13 = f10 * p03 + f11 * p13 + f12 * p23 + f13 * p33
    g20 = f20 * p00 + f21 * p10 + f22 * p20 + f23 * p30
    g21 = f20 * p01 + f21 * p11 + f22 * p21 + f23 * p31
    g22 = f20 * p02 + f21 * p12 + f22 * p22 + f23 * p32
    g23 = f20 * p03 + f21 * p13 + f22 * p23 + f23 * p33
    g30 = f30 * p00 + f31 * p10 + f32 * p20 + f33 * p30
    g31 = f30 * p01 + f31 * p11 + f32 * p21 + f33 * p31
    g32 = f30 * p02 + f31 * p12 + f32 * p22 + f33 * p32
    g33 = f30 * p03 + f31 * p13 + f32 * p23 + f33 * p33
    kin = ((f00 * m0 + f01 * m1 + f02 * m2 + f03 * m3,
            f10 * m0 + f11 * m1 + f12 * m2 + f13 * m3,
            f20 * m0 + f21 * m1 + f22 * m2 + f23 * m3,
            f30 * m0 + f31 * m1 + f32 * m2 + f33 * m3),
           _psd_rows(
               g00 * f00 + g01 * f01 + g02 * f02 + g03 * f03 + q00,
               g00 * f10 + g01 * f11 + g02 * f12 + g03 * f13 + q01,
               g00 * f20 + g01 * f21 + g02 * f22 + g03 * f23 + q02,
               g00 * f30 + g01 * f31 + g02 * f32 + g03 * f33 + q03,
               g10 * f10 + g11 * f11 + g12 * f12 + g13 * f13 + q11,
               g10 * f20 + g11 * f21 + g12 * f22 + g13 * f23 + q12,
               g10 * f30 + g11 * f31 + g12 * f32 + g13 * f33 + q13,
               g20 * f20 + g21 * f21 + g22 * f22 + g23 * f23 + q22,
               g20 * f30 + g21 * f31 + g22 * f32 + g23 * f33 + q23,
               g30 * f30 + g31 * f31 + g32 * f32 + g33 * f33 + q33))
    axis = (a1, a2, *_psd_2x2(c11 + qa11,
                              0.5 * ((c12 + qa12) + (c21 + qa21)), c22 + qa22))
    return kin, axis, (wrap_angle(theta), var + q_theta)


def predict(est: DecoupledEstimate, motion: MotionModel) -> DecoupledEstimate:
    """Standard Kalman prediction applied to each component (:func:`_predict`)."""
    return _estimate(*_predict(est, motion))


def kalman_center_update(kin: tuple, z1: float, z2: float, noise, c: float,
                         shape: tuple, count: int = 1) -> tuple:
    """Kalman update of (mean, upper of P) with the mean of ``count`` points.

    The effective noise (R + c X) / count adds to the sensor noise R
    (entries ``noise``) the spread of sources over the extent, X the
    shape matrix (:func:`_shape_entries`). H P is the first two rows of
    P, so row j of the gain P H^T S^-1 is (u_j, v_j) = S^-1 (P_0j, P_1j),
    and the covariance is P_jk - (u_j P_0k + v_j P_1k), formed for
    j <= k only: it is symmetric by construction.
    """
    (m0, m1, m2, m3), (p00, p01, p02, p03, p11, p12, p13, p22, p23, p33) = kin
    r11, r12, r21, r22 = noise
    x11, x22, x12 = shape
    s11, s12 = p00 + (r11 + c * x11) / count, p01 + (r12 + c * x12) / count
    s21, s22 = p01 + (r21 + c * x12) / count, p11 + (r22 + c * x22) / count
    det = _guarded_det(s11, s12, s21, s22, SingularInnovation,
                       "kinematic innovation covariance is ill-conditioned")
    # S^-1 = [[s22, -s12], [-s21, s11]] / det.
    r1, r2 = z1 - m0, z2 - m1
    u0, v0 = (s22 * p00 - s12 * p01) / det, (s11 * p01 - s21 * p00) / det
    u1, v1 = (s22 * p01 - s12 * p11) / det, (s11 * p11 - s21 * p01) / det
    u2, v2 = (s22 * p02 - s12 * p12) / det, (s11 * p12 - s21 * p02) / det
    u3, v3 = (s22 * p03 - s12 * p13) / det, (s11 * p13 - s21 * p03) / det
    return ((m0 + (u0 * r1 + v0 * r2), m1 + (u1 * r1 + v1 * r2),
             m2 + (u2 * r1 + v2 * r2), m3 + (u3 * r1 + v3 * r2)),
            _psd_rows(p00 - (u0 * p00 + v0 * p01), p01 - (u0 * p01 + v0 * p11),
                      p02 - (u0 * p02 + v0 * p12), p03 - (u0 * p03 + v0 * p13),
                      p11 - (u1 * p01 + v1 * p11), p12 - (u1 * p02 + v1 * p12),
                      p13 - (u1 * p03 + v1 * p13), p22 - (u2 * p02 + v2 * p12),
                      p23 - (u2 * p03 + v2 * p13),
                      p33 - (u3 * p03 + v3 * p13)))


def _axis_moments(axis: tuple, aligned_w: tuple, c: float) -> tuple:
    """E(a), the rows of Cov(a) and the diagonal of Cov(a, axes), given
    W in the object frame, ``aligned_w`` (:func:`_aligned_entries`)."""
    p1, p2, var_1, _, var_2 = axis
    w1, w2, w12 = aligned_w
    ea1 = w1 + c * (var_1 + p1 * p1)
    ea2 = w2 + c * (var_2 + p2 * p2)
    off = 2.0 * w12 * w12
    return ((ea1, ea2), ((2.0 * ea1 * ea1, off), (off, 2.0 * ea2 * ea2)),
            (2.0 * c * p1 * var_1, 2.0 * c * p2 * var_2))


def axis_moments(axis: AxisState, orient: OrientationState,
                 w: np.ndarray, cfg: FilterConfig) -> AxisMoments:
    """Moments of a = (s1^2, s2^2) under the current estimate.

    Rotating the centered-measurement covariance into the object frame
    makes the two axes decouple: each expected square is the aligned
    noise variance plus the scaled second moment of the axis length.
    """
    theta = orient.mean
    expected, cov_aa, (d1, d2) = _axis_moments(
        _axis_floats(axis), _aligned_entries(math.cos(theta), math.sin(theta),
                                             *np.ravel(w).tolist()), cfg.c)
    return AxisMoments(np.array(expected), np.array(cov_aa),
                       np.array([[d1, 0.0], [0.0, d2]]))


def update_axis(axis: tuple, theta: float, scatter: tuple, count: int,
                w, c: float, psi: Optional[float] = None) -> tuple:
    """Linear update of (p1, p2, P11, P12, P22) from ``count`` points.

    The pseudo-measurements are the squares of the centered points in the
    object frame at ``theta``. Their sums a are the diagonal of
    R(-theta) S R(-theta)^T for the ``scatter`` S. All points share the
    moments (:func:`_axis_moments`), so the gain is that of a single row,
    the innovations add up to a - count E(a), and the covariance
    correction scales by ``count``. An indefinite result is projected
    back onto the PSD matrices in closed form (:func:`_psd_2x2`). A set
    ``psi`` then applies :func:`clamp_axis_variance` (batch variant only).
    """
    s11, s22, s12 = scatter
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    a1, a2, _ = _aligned_entries(cos_t, sin_t, s11, s12, s12, s22)
    (e1, e2), ((q11, q12), (q21, q22)), (d1, d2) = _axis_moments(
        axis, _aligned_entries(cos_t, sin_t, *w), c)
    det = _guarded_det(q11, q12, q21, q22, SingularPseudoCov,
                       "axis pseudo-measurement covariance is ill-conditioned")
    # Cov(a, axes) is a diagonal D, so the gain is D cov_aa^-1 = X^T with
    # X = cov_aa^-1 D = adj(cov_aa) D / det, adj(cov_aa) = [[q22, -q12],
    # [-q21, q11]].
    x11, x12, x21, x22 = (q22 * d1 / det, -q12 * d2 / det,
                          -q21 * d1 / det, q11 * d2 / det)
    nu1, nu2 = a1 - count * e1, a2 - count * e2
    p1, p2, c11, c12, c22 = axis
    p1, p2 = p1 + (x11 * nu1 + x21 * nu2), p2 + (x12 * nu1 + x22 * nu2)
    # max(x, floor) written out, as in update_orientation: NaN stays NaN.
    updated = (AXIS_FLOOR if AXIS_FLOOR > p1 else p1,
               AXIS_FLOOR if AXIS_FLOOR > p2 else p2,
               *_psd_2x2(c11 - count * (x11 * d1),
                         0.5 * ((c12 - count * (x21 * d2))
                                + (c12 - count * (x12 * d1))),
                         c22 - count * (x22 * d2)))
    return updated if psi is None else clamp_axis_variance(updated, psi)


def orientation_moments(shape: tuple, var_theta: float, w,
                        c: float) -> tuple:
    """E(b), the rows of Cov(b) and M = dE(b)/dtheta, for b = (s1^2, s2^2, s1*s2).

    ``shape`` is (X11, X22, X12) of the shape matrix X at the estimate
    (:func:`_shape_entries`), ``w`` the entries of W. The centered point
    is s = R(theta) diag(l) h + w with h ~ N(0, c I). Its covariance C_s
    is W plus the source spread c S S^T, S = R(theta) diag(l), plus a
    first-order angle term from the angle derivatives J of S. S S^T is X
    and J J^T = [[X22, -X12], [-X12, X11]], so with v = var(theta)

        C11 = W11 + c (X11 + v X22),  C22 = W22 + c (X22 + v X11),
        C12 = W12 + c (1 - v) X12.

    E(b) is (C11, C22, C12). For zero-mean Gaussian s, Isserlis' theorem
    gives Cov(s_i s_j, s_k s_l) = C_ik C_jl + C_il C_jk. With s_i and j_i
    the rows of S and J, M = c (2 s1.j1, 2 s2.j2, s1.j2 + s2.j1)
    = c (-2 X12, 2 X12, X11 - X22), and Cov(b, theta) = v M.
    """
    x11, x22, x12 = shape
    w11, w12, _, w22 = w
    c11 = w11 + c * (x11 + var_theta * x22)
    c22 = w22 + c * (x22 + var_theta * x11)
    c12 = w12 + c * (1.0 - var_theta) * x12
    cov_bb = ((2.0 * (c11 * c11), 2.0 * (c12 * c12), 2.0 * (c11 * c12)),
              (2.0 * (c12 * c12), 2.0 * (c22 * c22), 2.0 * (c22 * c12)),
              (2.0 * (c11 * c12), 2.0 * (c22 * c12), c11 * c22 + c12 * c12))
    return ((c11, c22, c12), cov_bb,
            (-2.0 * c * x12, 2.0 * c * x12, c * (x11 - x22)))


def update_orientation(orient: tuple, b: tuple, mom: tuple) -> tuple:
    """Linear update of (theta, var) from one pseudo-measurement b: the
    gain is var Cov(b)^-1 M (:func:`_guarded_solve`), as Cov(b, theta) =
    var M."""
    theta, var = orient
    expected, _, m = mom
    y1, y2, y3, q = _guarded_solve(expected, m, SingularPseudoCov,
                                   "orientation pseudo-measurement covariance")
    (e1, e2, e3), (b1, b2, b3) = expected, b
    var_post = var - var * var * q
    return (wrap_angle(theta + var * (y1 * (b1 - e1) + y2 * (b2 - e2)
                                      + y3 * (b3 - e3))),
            0.0 if 0.0 > var_post else var_post)


def _count_skip(diagnostics: Optional[StepDiagnostics],
                component: str) -> None:
    """Count a skipped update of ``component`` in ``diagnostics``, if given.

    Runs only for an update whose guard tripped; the steps call each
    update directly inside its own ``try``.
    """
    if diagnostics is not None:
        counter = "skipped_" + component
        setattr(diagnostics, counter, getattr(diagnostics, counter) + 1)


def step_sequential(est: DecoupledEstimate, measurements: MeasurementSet,
                    motion: MotionModel, cfg: FilterConfig,
                    order: Sequence[str] = UPDATE_ORDER,
                    diagnostics: Optional[StepDiagnostics] = None
                    ) -> DecoupledEstimate:
    """One predict/update cycle of the sequential filter.

    With no measurements the prediction is returned unchanged. Otherwise
    the centering and W are fixed once from the prediction, and each
    measurement updates all three components against the previous
    snapshot; a centered point s enters the shape updates as its scatter
    s s^T, with entries b = (s1^2, s2^2, s1*s2). ``order`` must permute
    UPDATE_ORDER (ValueError otherwise); each update reads the snapshot
    alone, so the result is identical for every order, and the updates
    run in UPDATE_ORDER. Ill-conditioned single updates are skipped and
    counted.
    """
    if order is not UPDATE_ORDER:
        try:
            valid = sorted(order) == sorted(UPDATE_ORDER)
        except TypeError:  # not iterable, or items that are not strings
            valid = False
        if not valid:
            raise ValueError(f"not a permutation of {UPDATE_ORDER}: {order!r}")
    return _sequential(est, *measurements._cols, motion, cfg, diagnostics)


def _sequential(est, col1: list, col2: list, motion, cfg, diagnostics):
    """:func:`step_sequential` past its order check, on the scan's columns."""
    kin, axis, orient = _predict(est, motion)
    if not col1:
        return _estimate(kin, axis, orient)
    noise = cfg._noise
    (c1, c2), w = _centering(col1, col2, kin, noise)
    c = cfg.c
    for z1, z2 in zip(col1, col2):
        # The snapshot's angle, variance and shape are taken first, so each
        # update below reads the snapshot alone; a skipped update leaves
        # its component there.
        theta, var = orient
        s1, s2 = z1 - c1, z2 - c2
        b = (s1 * s1, s2 * s2, s1 * s2)
        shape = _shape_entries(theta, axis[0], axis[1])
        try:
            kin = kalman_center_update(kin, z1, z2, noise, c, shape)
        except SingularInnovation:
            _count_skip(diagnostics, "kinematics")
        try:
            axis = update_axis(axis, theta, b, 1, w, c)
        except SingularPseudoCov:
            _count_skip(diagnostics, "axis")
        try:
            orient = update_orientation(orient, b,
                                        orientation_moments(shape, var, w, c))
        except SingularPseudoCov:
            _count_skip(diagnostics, "orientation")
    return _estimate(kin, axis, orient)
