"""Rotation math against independent oracles.

The axis-angle oracle builds rotations via Rodrigues' formula, entirely
separately from the Euler chain under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gazeshift import so3
from gazeshift.reasoner import scenario
from datagen_oracles import (EyePose, HeadPose, euler_to_matrix, geodesic_distance,
                             pose_angles, wrap_angle)
from net_oracles import same_bits


def rodrigues(axis, angle: float) -> np.ndarray:
    """Axis-angle rotation matrix, independent of the code under test."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    K = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def zyx_oracle(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Intrinsic Z-Y-X via three independent single-axis rotations."""
    return rodrigues([0, 0, 1], yaw) @ rodrigues([0, 1, 0], pitch) @ rodrigues([1, 0, 0], roll)


def rotation_zyx_derivs(angles: np.ndarray) -> np.ndarray:
    """Derivatives of ``so3.rotation_zyx`` in each angle, as matrix products.

    Returns shape (..., 3, 3, 3): axis -3 indexes the angle (yaw, pitch,
    roll). Each derivative differentiates one factor of Rz @ Ry @ Rx; this
    is the reference the closed-form gradient of
    ``so3.geodesic_to_reference_with_grad`` is checked against.
    """
    angles = np.asarray(angles, dtype=float)
    shape = angles.shape[:-1]
    y, p, r = angles[..., 0], angles[..., 1], angles[..., 2]
    zero = np.zeros(shape)
    one = np.ones(shape)

    def stack(rows):
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    cy, sy = np.cos(y), np.sin(y)
    cp, sp = np.cos(p), np.sin(p)
    cr, sr = np.cos(r), np.sin(r)
    Rz = stack([[cy, -sy, zero], [sy, cy, zero], [zero, zero, one]])
    Ry = stack([[cp, zero, sp], [zero, one, zero], [-sp, zero, cp]])
    Rx = stack([[one, zero, zero], [zero, cr, -sr], [zero, sr, cr]])
    dRz = stack([[-sy, -cy, zero], [cy, -sy, zero], [zero, zero, zero]])
    dRy = stack([[-sp, zero, cp], [zero, zero, zero], [-cp, zero, -sp]])
    dRx = stack([[zero, zero, zero], [zero, -sr, -cr], [zero, cr, -sr]])
    return np.stack([dRz @ Ry @ Rx, Rz @ dRy @ Rx, Rz @ Ry @ dRx], axis=-3)


def geodesic_grad_reference(angles: np.ndarray, R_ref: np.ndarray) -> np.ndarray:
    """Gradient of arccos((trace(R(angles) R_ref^T) - 1) / 2), the arccos
    derivative capped at GRAD_CAP, contracted from the matrix derivatives."""
    tr = np.einsum("...ij,...ij->...", so3.rotation_zyx(angles), R_ref)
    u = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    dd_du = -1.0 / np.sqrt(np.maximum(1.0 - u * u, 1.0 / (so3.GRAD_CAP * so3.GRAD_CAP)))
    du_dangles = 0.5 * np.einsum("...aij,...ij->...a", rotation_zyx_derivs(angles), R_ref)
    return dd_du[..., None] * du_dangles


def geodesic_with_grad_reference(angles: np.ndarray, R_ref: np.ndarray):
    """The whole-array body ``so3.geodesic_to_reference_with_grad`` had: every
    reference broadcast, ``np.clip``, and a ``.sum(axis=-1)`` per derivative."""
    angles = np.asarray(angles, dtype=float)
    y, p, r = angles[..., 0], angles[..., 1], angles[..., 2]
    cy, sy = np.cos(y), np.sin(y)
    cp, sp = np.cos(p), np.sin(p)
    cr, sr = np.cos(r), np.sin(r)
    R = np.empty(np.shape(cy) + (3, 3))
    R[..., 0, 0] = cy * cp
    R[..., 0, 1] = cy * sp * sr - sy * cr
    R[..., 0, 2] = cy * sp * cr + sy * sr
    R[..., 1, 0] = sy * cp
    R[..., 1, 1] = sy * sp * sr + cy * cr
    R[..., 1, 2] = sy * sp * cr - cy * sr
    R[..., 2, 0] = -sp
    R[..., 2, 1] = cp * sr
    R[..., 2, 2] = cp * cr
    F = np.broadcast_to(R_ref, R.shape)
    tr = np.einsum("...ij,...ij->...", R, F)
    M = np.matmul(np.swapaxes(R, -1, -2), F)
    v0 = M[..., 2, 1] - M[..., 1, 2]
    v1 = M[..., 0, 2] - M[..., 2, 0]
    v2 = M[..., 1, 0] - M[..., 0, 1]
    dist = np.arctan2(np.sqrt(v0 * v0 + v1 * v1 + v2 * v2), tr - 1.0)
    u = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    dd_du = -1.0 / np.sqrt(np.maximum(1.0 - u * u, 1.0 / (so3.GRAD_CAP * so3.GRAD_CAP)))
    dtr = np.empty(angles.shape)
    dtr[..., 0] = (R[..., 0, :] * F[..., 1, :] - R[..., 1, :] * F[..., 0, :]).sum(axis=-1)
    dtr[..., 1] = ((R[..., 2, :] * (cy[..., None] * F[..., 0, :] + sy[..., None] * F[..., 1, :]))
                   .sum(axis=-1) - cp * F[..., 2, 0] - sp * (sr * F[..., 2, 1] + cr * F[..., 2, 2]))
    dtr[..., 2] = (R[..., :, 2] * F[..., :, 1] - R[..., :, 1] * F[..., :, 2]).sum(axis=-1)
    return dist, (0.5 * dd_du)[..., None] * dtr


def check_rotation_reference(R, atol: float = scenario.ROTATION_ATOL) -> bool:
    """The original whole-array rotation check: allclose and an LU determinant."""
    try:
        R = np.asarray(R, dtype=float)
    except ValueError:  # nested lists of unequal lengths
        return False
    return (R.shape == (3, 3) and bool(np.all(np.isfinite(R)))
            and bool(np.allclose(R @ R.T, np.eye(3), atol=atol))
            and not abs(np.linalg.det(R) - 1.0) > atol)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    angle = rng.uniform(0, math.pi)
    return rodrigues(axis, angle)


# -- pose types ----------------------------------------------------------------

def test_eye_pose_fields():
    p = EyePose(0.1, -0.2)
    assert p.yaw == 0.1 and p.pitch == -0.2
    np.testing.assert_array_equal(pose_angles(p), [0.1, -0.2, 0.0])


def test_head_pose_fields():
    p = HeadPose(0.1, -0.2, 0.05)
    assert (p.yaw, p.pitch, p.roll) == (0.1, -0.2, 0.05)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_pose_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        EyePose(bad, 0.0)
    with pytest.raises(ValueError):
        HeadPose(0.0, bad, 0.0)


def test_wrap_angle_range():
    assert wrap_angle(3.5) == pytest.approx(3.5 - 2 * math.pi, abs=1e-12)
    assert wrap_angle(math.pi) == math.pi  # boundary belongs to +pi
    assert wrap_angle(-math.pi) == math.pi
    rng = np.random.default_rng(0)
    for a in rng.uniform(-20, 20, size=200):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        # same point on the circle
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# Any finite float, plus the floats within a few ulps of odd and even
# multiples of pi (small and large), where the wrap rounds.
wrappable = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda k, ulps: _nudged(k * math.pi, ulps),
              st.one_of(st.integers(-4, 4), st.integers(-10**15, 10**15)),
              st.integers(-4, 4)),
)


def test_wrap_angle_just_above_pi_stays_in_range():
    above = math.nextafter(math.pi, 4.0)
    assert wrap_angle(above) == math.pi
    assert so3.wrap_angles(np.array([above]))[0] == math.pi


@settings(max_examples=1000, deadline=None)
@given(wrappable)
def test_wrap_angle_range_idempotence_and_vector_agreement(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w
    assert so3.wrap_angles(np.array([a, w])).tolist() == [w, w]


# -- euler_to_matrix, the oracle in datagen_oracles ---------------------------

def test_euler_identity():
    np.testing.assert_allclose(euler_to_matrix(HeadPose(0, 0, 0)), np.eye(3), atol=1e-15)


def test_euler_half_turn_about_z():
    R = euler_to_matrix(HeadPose(math.pi, 0, 0))
    np.testing.assert_allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_euler_orthogonality():
    R = euler_to_matrix(HeadPose(0.3, -0.2, 0.1))
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_eye_pose_promotes_with_zero_roll():
    e = euler_to_matrix(EyePose(0.3, -0.2))
    h = euler_to_matrix(HeadPose(0.3, -0.2, 0.0))
    np.testing.assert_allclose(e, h, atol=1e-15)


def test_euler_intrinsic_zyx_order():
    rng = np.random.default_rng(1)
    for _ in range(50):
        yaw, pitch, roll = rng.uniform(-math.pi, math.pi, size=3)
        np.testing.assert_allclose(
            euler_to_matrix(HeadPose(yaw, pitch, roll)),
            zyx_oracle(yaw, pitch, roll), atol=1e-12)


def test_euler_rejects_non_pose():
    with pytest.raises(ValueError):
        euler_to_matrix((0.1, 0.2, 0.3))


# -- composing a pose with an increment ----------------------------------------

def compose_target_pose(current, delta):
    """Componentwise sum of a pose and a same-kind increment, wrapped to (-pi, pi]."""
    if type(current) is not type(delta):
        raise ValueError(
            f"cannot compose {type(current).__name__} with {type(delta).__name__}"
        )
    if isinstance(current, EyePose):
        return EyePose(
            wrap_angle(current.yaw + delta.yaw),
            wrap_angle(current.pitch + delta.pitch),
        )
    return HeadPose(
        wrap_angle(current.yaw + delta.yaw),
        wrap_angle(current.pitch + delta.pitch),
        wrap_angle(current.roll + delta.roll),
    )


def test_compose_zero_increment():
    p = compose_target_pose(EyePose(0.1, 0.2), EyePose(0.0, 0.0))
    assert (p.yaw, p.pitch) == (0.1, 0.2)


def test_compose_wraps():
    p = compose_target_pose(HeadPose(3.0, 0, 0), HeadPose(0.5, 0, 0))
    assert p.yaw == pytest.approx(3.5 - 2 * math.pi, abs=1e-12)
    assert p.yaw == pytest.approx(-2.7832, abs=5e-5)


def test_compose_cancellation():
    p = compose_target_pose(HeadPose(0.2, -0.1, 0.0), HeadPose(-0.2, 0.1, 0.0))
    assert (p.yaw, p.pitch, p.roll) == (0.0, 0.0, 0.0)


def test_compose_rejects_kind_mixing():
    with pytest.raises(ValueError):
        compose_target_pose(EyePose(0.1, 0.0), HeadPose(0.1, 0.0, 0.0))


def test_compose_then_matrix_round_trip():
    # wrapping never changes the rotation the angles denote
    rng = np.random.default_rng(2)
    for _ in range(50):
        theta = rng.uniform(-3.0, 3.0, size=3)
        delta = rng.uniform(-3.0, 3.0, size=3)
        composed = compose_target_pose(HeadPose(*theta), HeadPose(*delta))
        np.testing.assert_allclose(
            euler_to_matrix(composed),
            zyx_oracle(*(theta + delta)), atol=1e-12)


# -- geodesic distance ---------------------------------------------------------

def test_geodesic_identical():
    R = euler_to_matrix(HeadPose(0.3, 0.1, -0.2))
    assert geodesic_distance(R, R) == 0.0


def test_geodesic_antipodal():
    R = euler_to_matrix(HeadPose(math.pi, 0, 0))
    assert geodesic_distance(np.eye(3), R) == pytest.approx(math.pi, abs=1e-12)


def test_geodesic_same_axis():
    a = euler_to_matrix(HeadPose(math.radians(10), 0, 0))
    b = euler_to_matrix(HeadPose(math.radians(40), 0, 0))
    assert geodesic_distance(a, b) == pytest.approx(0.523599, abs=1e-6)


def test_geodesic_rejects_non_rotation():
    with pytest.raises(ValueError):
        geodesic_distance(np.eye(3) * 1.1, np.eye(3))
    with pytest.raises(ValueError):
        geodesic_distance(np.eye(3), np.full((3, 3), np.nan))


def test_geodesic_symmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = random_rotation(rng), random_rotation(rng)
        assert geodesic_distance(a, b) == geodesic_distance(b, a)


def test_geodesic_left_invariance():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b, q = random_rotation(rng), random_rotation(rng), random_rotation(rng)
        assert geodesic_distance(q @ a, q @ b) == pytest.approx(
            geodesic_distance(a, b), abs=1e-9)


def test_geodesic_axis_angle_agreement():
    rng = np.random.default_rng(5)
    for _ in range(300):
        axis = rng.normal(size=3)
        angle = rng.uniform(0, math.pi)
        assert geodesic_distance(np.eye(3), rodrigues(axis, angle)) == pytest.approx(
            angle, abs=1e-9)


rotation_angles = st.tuples(*[st.floats(-math.pi, math.pi, allow_nan=False)] * 3)


@st.composite
def rotation_triples(draw):
    """Three rotations anywhere, or some within 1e-6 rad per angle of the first."""
    a = draw(rotation_angles)
    near = st.tuples(*[st.floats(-1e-6, 1e-6)] * 3).map(
        lambda d: tuple(x + y for x, y in zip(a, d)))
    b, c = draw(st.one_of(rotation_angles, near)), draw(st.one_of(rotation_angles, near))
    return [so3.rotation_zyx(np.array(x)) for x in (a, b, c)]


def test_geodesic_keeps_precision_near_zero():
    # arccos of the trace reads 0, 0 and 2.1e-8 here
    Ra, Rb, Rc = (euler_to_matrix(HeadPose(y, 0.0, 0.0)) for y in (0.0, 1e-8, 2e-8))
    assert geodesic_distance(Ra, Rb) == pytest.approx(1e-8, rel=1e-6)
    assert geodesic_distance(Ra, Rc) == pytest.approx(2e-8, rel=1e-6)


@pytest.mark.parametrize("frame", [np.eye(3), so3.rotation_zyx(np.array([0.3, -1.2, 2.0]))])
def test_geodesic_rows_keeps_precision_near_zero_and_pi(frame):
    # Pairs 1e-8 and 2e-8 rad from agreeing or from antipodal, seen from a
    # plain and a turned frame; arccos of the trace reads 0 and 2.1e-8 rad,
    # and pi and pi - 2.1e-8, in the plain frame.
    yaws = np.array([1e-8, 2e-8, math.pi - 1e-8, math.pi - 2e-8])
    Rb = frame @ so3.rotation_zyx(np.stack([yaws, np.zeros(4), np.zeros(4)], axis=1))
    d = so3.geodesic_rows(np.broadcast_to(frame, Rb.shape), Rb)
    np.testing.assert_allclose(d[:2], [1e-8, 2e-8], rtol=1e-6)
    np.testing.assert_allclose(math.pi - d[2:], [1e-8, 2e-8], rtol=1e-6)


@settings(max_examples=500, deadline=None)
@given(rotation_triples())
def test_geodesic_is_a_metric_over_whole_domain(triple):
    Ra, Rb, Rc = triple
    d_ab = geodesic_distance(Ra, Rb)
    assert d_ab == geodesic_distance(Rb, Ra)
    assert 0.0 <= d_ab <= math.pi
    assert geodesic_distance(Ra, Rc) <= d_ab + geodesic_distance(Rb, Rc) + 1e-9


def test_geodesic_rows_matches_scalar():
    rng = np.random.default_rng(6)
    A = np.stack([random_rotation(rng) for _ in range(16)])
    B = np.stack([random_rotation(rng) for _ in range(16)])
    rows = so3.geodesic_rows(A, B)
    for i in range(16):
        assert rows[i] == pytest.approx(geodesic_distance(A[i], B[i]), abs=1e-12)


# -- batched rotations and the guarded gradient ---------------------------------

def test_rotation_zyx_matches_oracle():
    rng = np.random.default_rng(7)
    angles = rng.uniform(-math.pi, math.pi, size=(32, 3))
    R = so3.rotation_zyx(angles)
    assert R.shape == (32, 3, 3)
    for i in range(32):
        np.testing.assert_allclose(R[i], zyx_oracle(*angles[i]), atol=1e-12)


def test_rotation_zyx_derivs_match_fd():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(10):
        angles = rng.uniform(-1.2, 1.2, size=3)
        derivs = rotation_zyx_derivs(angles)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            fd = (so3.rotation_zyx(angles + step) - so3.rotation_zyx(angles - step)) / (2 * h)
            np.testing.assert_allclose(derivs[axis], fd, atol=1e-7)


def test_geodesic_grad_matches_fd_away_from_kinks():
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(20):
        angles = rng.uniform(-1.0, 1.0, size=3)
        ref = so3.rotation_zyx(rng.uniform(-1.0, 1.0, size=3))
        dist, grad = so3.geodesic_to_reference_with_grad(angles, ref)
        if dist < 0.1 or dist > math.pi - 0.1:
            continue  # stay clear of the metric's non-differentiable ends
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            dp, _ = so3.geodesic_to_reference_with_grad(angles + step, ref)
            dm, _ = so3.geodesic_to_reference_with_grad(angles - step, ref)
            fd = (dp - dm) / (2 * h)
            assert grad[axis] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_geodesic_grad_closed_form_matches_matrix_derivative_reference():
    rng = np.random.default_rng(10)
    angles = rng.uniform(-math.pi, math.pi, size=(1000, 3))
    ref = so3.rotation_zyx(rng.uniform(-math.pi, math.pi, size=(1000, 3)))
    for R_ref in (ref, ref[0]):  # per-row references and one broadcast reference
        dist, grad = so3.geodesic_to_reference_with_grad(angles, R_ref)
        np.testing.assert_array_equal(
            dist, so3.geodesic_rows(so3.rotation_zyx(angles), np.broadcast_to(R_ref, ref.shape)))
        np.testing.assert_allclose(grad, geodesic_grad_reference(angles, R_ref), rtol=0, atol=1e-10)


angle = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.tuples(angle, angle, angle), st.tuples(angle, angle, angle))
def test_geodesic_grad_matches_fd_over_whole_domain(angles, ref_angles):
    # Central differences anywhere in the angle domain, away from the ends
    # of the metric, where the arccos derivative diverges and GRAD_CAP acts.
    angles = np.array(angles)
    ref = so3.rotation_zyx(np.array(ref_angles))
    dist, grad = so3.geodesic_to_reference_with_grad(angles, ref)
    assume(0.05 < dist < math.pi - 0.05)
    h = 1e-6
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        dp, _ = so3.geodesic_to_reference_with_grad(angles + step, ref)
        dm, _ = so3.geodesic_to_reference_with_grad(angles - step, ref)
        assert grad[axis] == pytest.approx((dp - dm) / (2 * h), rel=1e-5, abs=1e-7), axis


@st.composite
def reference_cases(draw):
    """Angle rows over +-4 pi and references at a random, a near-zero or a near-pi distance."""
    wide = st.floats(-4 * math.pi, 4 * math.pi)
    n = draw(st.integers(1, 5))
    angles = np.array([[draw(wide) for _ in range(3)] for _ in range(n)])
    kind = draw(st.sampled_from(["random", "near 0", "near pi"]))
    if kind == "random":
        return angles, so3.rotation_zyx(np.array([[draw(wide) for _ in range(3)]
                                                  for _ in range(n)]))
    small = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-4)))
    turn = small if kind == "near 0" else math.pi - small
    axis = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    assume(np.linalg.norm(axis) > 0.1)
    return angles, so3.rotation_zyx(angles) @ rodrigues(axis, turn)


@settings(max_examples=500, deadline=None)
@given(reference_cases())
def test_geodesic_with_grad_shares_trig_bit_for_bit(case):
    angles, F = case
    dist, _ = so3.geodesic_to_reference_with_grad(angles, F)
    np.testing.assert_array_equal(dist, so3.geodesic_rows(so3.rotation_zyx(angles), F))
    y, p, r = angles.T
    np.testing.assert_array_equal(
        so3._rotation_from_trig(np.cos(y), np.sin(y), np.cos(p), np.sin(p), np.cos(r), np.sin(r)),
        so3.rotation_zyx(angles))


# Angles whose sines and cosines hold exact, signed zeros.
EXACT_ANGLES = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]


@st.composite
def reference_calls(draw):
    """Arguments of a geodesic call: angles over +-4 pi, with one (3, 3)
    reference broadcast against every row or one reference per row, each
    at a random, a near-zero or a near-pi distance, or rows and references
    built from signed zeros and right angles."""
    angles, F = draw(reference_cases())
    if draw(st.booleans()):
        exact = st.sampled_from(EXACT_ANGLES)
        angles = np.array([[draw(exact) for _ in range(3)] for _ in range(len(angles))])
        F = so3.rotation_zyx(np.array([[draw(exact) for _ in range(3)] for _ in range(len(F))]))
    if draw(st.booleans()):
        F = F[0]
    return angles, F


@settings(max_examples=500, deadline=None)
@given(reference_calls())
def test_geodesic_with_grad_matches_whole_array_reference_bit_for_bit(call):
    angles, F = call
    dist, grad = so3.geodesic_to_reference_with_grad(angles, F)
    ref_dist, ref_grad = geodesic_with_grad_reference(angles, F)
    assert same_bits(dist, ref_dist)
    assert same_bits(grad, ref_grad)


def test_geodesic_with_grad_keeps_the_sign_of_an_all_zero_derivative():
    # With signed-zero angles a derivative's three terms can all be -0.0;
    # numpy's sum starts from +0.0 and returns +0.0, and so must the
    # three-term sum that replaced it. Every pair of exact poses, at once.
    poses = np.array(list(itertools.product(EXACT_ANGLES[:4], repeat=3)))
    angles = np.repeat(poses, len(poses), axis=0)
    F = so3.rotation_zyx(np.tile(poses, (len(poses), 1)))
    dist, grad = so3.geodesic_to_reference_with_grad(angles, F)
    ref_dist, ref_grad = geodesic_with_grad_reference(angles, F)
    assert same_bits(dist, ref_dist)
    assert same_bits(grad, ref_grad)


def test_geodesic_grad_finite_at_zero_distance():
    # the exact arccos derivative diverges where the two rotations agree;
    # the guard must keep the reported gradient finite
    angles = np.array([0.3, -0.2, 0.1])
    ref = so3.rotation_zyx(angles)
    dist, grad = so3.geodesic_to_reference_with_grad(angles, ref)
    assert dist == 0.0
    assert np.all(np.isfinite(grad))
    assert np.max(np.abs(grad)) <= so3.GRAD_CAP


def test_geodesic_grad_cap_bounds_arccos_derivative():
    # 1e-6 rad of yaw from the reference, |d arccos/du| = 1/sin(1e-6) would
    # be 1e6; the cap holds it at GRAD_CAP, so the slope reads
    # GRAD_CAP * sin(1e-6) instead of 1, while the distance stays exact
    dist, grad = so3.geodesic_to_reference_with_grad(np.array([1e-6, 0.0, 0.0]), np.eye(3))
    assert dist == pytest.approx(1e-6, rel=1e-9)
    assert grad[0] == pytest.approx(so3.GRAD_CAP * math.sin(1e-6), rel=1e-6)
    assert grad[1] == grad[2] == 0.0


# -- the plain-float rotation check against the whole-array original ------------

def _near_rotation(draw):
    R = so3.rotation_zyx(np.array([draw(angle), draw(angle), draw(angle)]))
    scale = 10.0 ** draw(st.floats(-12, -2))
    noise = np.array(draw(st.lists(st.floats(-1, 1), min_size=9, max_size=9))).reshape(3, 3)
    return R + scale * noise


@st.composite
def rotation_check_inputs(draw):
    """A 3x3-ish float array, or the same entries as nested lists."""
    R = draw(_rotation_check_arrays())
    return R.tolist() if draw(st.booleans()) else R


@st.composite
def _rotation_check_arrays(draw):
    kind = draw(st.sampled_from(["near", "scaled", "reflected", "non_finite", "shape", "any"]))
    if kind == "near":
        return _near_rotation(draw)
    if kind == "scaled":
        return _near_rotation(draw) * (1.0 + draw(st.floats(-2e-5, 2e-5)))
    if kind == "reflected":
        R = _near_rotation(draw)
        R[:, draw(st.integers(0, 2))] *= -1.0
        return R
    if kind == "non_finite":
        R = _near_rotation(draw)
        R[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        return R
    if kind == "shape":  # rotation entries in the wrong shape
        R = np.eye(3)
        return draw(st.sampled_from([R[0], R[:2], R[:, :2], np.eye(4), R[None], R[..., None]]))
    return np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9))).reshape(3, 3)


@settings(max_examples=1000, deadline=None)
@given(rotation_check_inputs())
def test_check_rotation_agrees_with_whole_array_check(R):
    try:
        rows = scenario.check_rotation(R)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == check_rotation_reference(R)
    if accepted:
        assert rows == tuple(map(tuple, np.asarray(R, dtype=float).tolist()))


@pytest.mark.parametrize("R", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # ints
    [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
])
def test_check_rotation_accepts_integer_entries(R):
    assert check_rotation_reference(R)
    assert scenario.check_rotation(R) == tuple(tuple(map(float, row)) for row in R)


@pytest.mark.parametrize("R", [
    [[1, 0, 0], [0, 1], [0, 0, 1]],  # ragged
    [[1, 0, 0], [0, 1, 0]],  # 2x3
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],  # 3x4
    [[1, 0, 0], [0, 1, 0], [0, 0, "1"]],  # a string
    [[True, 0, 0], [0, 1, 0], [0, 0, 1]],  # a bool
    [[1, 0, 0], [0, 1, 0], [0, 0, None]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 10 ** 400]],  # beyond the float range
    "abc",
    5.0,
])
def test_check_rotation_rejects_what_is_not_three_rows_of_numbers(R):
    with pytest.raises(ValueError, match="rotation matrix must be 3 rows of 3 finite numbers"):
        scenario.check_rotation(R)


def test_geodesic_distance_uses_the_one_rotation_check():
    # so3 itself takes rotations on trust; the scalar oracle checks them
    # with the scenario loader's rule
    assert not hasattr(so3, "check_rotation")
    with pytest.raises(ValueError, match="3 rows of 3 finite numbers"):
        geodesic_distance(np.eye(3), [[1, 0, 0], [0, 1, 0], [0, 0, "1"]])
