"""Euler-pose rotation math for eye-head gaze control.

Conventions used throughout the toolkit:

  * Angles are radians. Wrapped angles live in (-pi, pi].
  * Euler composition is intrinsic Z-Y-X (yaw about +z, then pitch about
    the rotated +y, then roll about the twice-rotated +x), so a pose maps
    to the rotation matrix ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
  * The base frame is x forward, y left, z up. Positive yaw turns the
    forward axis left; positive Euler pitch tips it downward.
  * Eye poses have no roll axis; where a full rotation is needed they are
    promoted with roll = 0.

The distance between two rotations is the geodesic angle on SO(3), the
angle of the relative rotation R1^T R2 (Huynh 2009, "Metrics for 3D
rotations"). One helper, ``_geodesic_from_trace``, computes it for every
caller as ``atan2(|v|, tr - 1)``, with ``tr`` the relative rotation's trace,
1 + 2 cos, and ``v`` its skew part, of length 2 sin. Unlike the inverse
cosine of the trace, this keeps full precision near 0 and pi.

:func:`geodesic_to_reference_with_grad` builds R(angles) from the same
cosines and sines its gradient uses (``_rotation_from_trig``, which
:func:`rotation_zyx` runs too), so its distances equal
``geodesic_rows(rotation_zyx(angles), R_ref)`` bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# The geodesic gradient differentiates acos of the trace, unbounded as the
# distance nears 0 or pi; its magnitude is capped here so it stays finite.
GRAD_CAP = 1e4


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]; in-range values pass through exactly."""
    angles = np.asarray(angles, dtype=float)
    wrapped = np.pi - (np.pi - angles) % TWO_PI
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return np.where((angles > -np.pi) & (angles <= np.pi), angles, wrapped)


def rotation_zyx(angles: np.ndarray) -> np.ndarray:
    """Rotation matrices for intrinsic Z-Y-X Euler angles.

    ``angles`` has shape (..., 3) ordered (yaw, pitch, roll); the result has
    shape (..., 3, 3). This is the closed form of Rz @ Ry @ Rx.
    """
    angles = np.asarray(angles, dtype=float)
    y, p, r = angles[..., 0], angles[..., 1], angles[..., 2]
    return _rotation_from_trig(np.cos(y), np.sin(y), np.cos(p), np.sin(p), np.cos(r), np.sin(r))


def _rotation_from_trig(cy, sy, cp, sp, cr, sr) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) from the cosines and sines of the angles.

    ``cy * sp * sr`` is ``(cy * sp) * sr``, so the products ``cy * sp`` and
    ``sy * sp`` are computed once for the four entries that use them.
    """
    R = np.empty(np.shape(cy) + (3, 3))
    cysp, sysp = cy * sp, sy * sp
    R[..., 0, 0] = cy * cp
    R[..., 0, 1] = cysp * sr - sy * cr
    R[..., 0, 2] = cysp * cr + sy * sr
    R[..., 1, 0] = sy * cp
    R[..., 1, 1] = sysp * sr + cy * cr
    R[..., 1, 2] = sysp * cr - cy * sr
    R[..., 2, 0] = -sp
    R[..., 2, 1] = cp * sr
    R[..., 2, 2] = cp * cr
    return R


def _geodesic_from_trace(Ra: np.ndarray, Rb: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Angles atan2(|v|, tr - 1) of Ra^T Rb: ``tr`` is its trace, ``v`` its skew part.

    Ra^T Rb has the angle of Rb Ra^T, and numpy multiplies a stack whose first
    operand is transposed about 3x faster. Swapping Ra and Rb only negates v.
    """
    M = np.matmul(np.swapaxes(Ra, -1, -2), Rb)
    v0 = M[..., 2, 1] - M[..., 1, 2]
    v1 = M[..., 0, 2] - M[..., 2, 0]
    v2 = M[..., 1, 0] - M[..., 0, 1]
    return np.arctan2(np.sqrt(v0 * v0 + v1 * v1 + v2 * v2), tr - 1.0)


def geodesic_rows(Ra: np.ndarray, Rb: np.ndarray) -> np.ndarray:
    """Geodesic angles for stacks of rotations; trusted inputs, no validation."""
    return _geodesic_from_trace(Ra, Rb, np.einsum("...ij,...ij->...", Ra, Rb))


def _sum3(P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``P.sum(axis=-1)`` of a length-3 last axis, written into ``out``.

    numpy adds (0.0 + t0) + t1, then t2; the closing + 0.0 turns the -0.0
    of an all -0.0 row into that +0.0 and changes nothing else, so the bits
    are the reduction's, at a fraction of its fixed cost.
    """
    np.add(P[..., 0], P[..., 1], out)
    np.add(out, P[..., 2], out)
    return np.add(out, 0.0, out)


def geodesic_to_reference_with_grad(angles: np.ndarray, R_ref: np.ndarray):
    """Geodesic distance d(R(angles), R_ref) and its gradient in the angles.

    ``angles`` has shape (..., 3); ``R_ref`` broadcasts as (..., 3, 3).
    Returns (distance (...,), gradient (..., 3)). The gradient is that of
    acos((tr - 1) / 2), with |d acos/du| capped at ``GRAD_CAP`` so it stays
    finite at the ends of the metric, where the exact derivative diverges.
    """
    angles = np.asarray(angles, dtype=float)
    y, p, r = angles[..., 0], angles[..., 1], angles[..., 2]
    cy, sy = np.cos(y), np.sin(y)
    cp, sp = np.cos(p), np.sin(p)
    cr, sr = np.cos(r), np.sin(r)
    R = _rotation_from_trig(cy, sy, cp, sp, cr, sr)
    F = np.asarray(R_ref)
    if F.shape != R.shape:
        F = np.broadcast_to(F, R.shape)
    tr = np.einsum("...ij,...ij->...", R, F)
    dist = _geodesic_from_trace(R, F, tr)
    # |d acos/du| = 1/sqrt(1-u^2), capped at GRAD_CAP; u clipped to [-1, 1].
    u = np.minimum(np.maximum((tr - 1.0) / 2.0, -1.0), 1.0)
    dd_du = -1.0 / np.sqrt(np.maximum(1.0 - u * u, 1.0 / (GRAD_CAP * GRAD_CAP)))
    # d tr(R F^T) / d angle = sum_ij dR_ij F_ij, with dR read off the entries
    # of rotation_zyx: d/d yaw turns rows (0, 1) of R into (-row 1, row 0)
    # and leaves row 2 at zero; d/d roll turns columns (1, 2) into
    # (column 2, -column 1) and leaves column 0 at zero; d/d pitch turns
    # rows 0 and 1 into cos(yaw) and sin(yaw) times row 2 of R, and row 2
    # into -(cos p, sin p sin r, sin p cos r).
    dtr = np.empty(angles.shape)
    _sum3(R[..., 0, :] * F[..., 1, :] - R[..., 1, :] * F[..., 0, :], dtr[..., 0])
    pitch = _sum3(R[..., 2, :] * (cy[..., None] * F[..., 0, :] + sy[..., None] * F[..., 1, :]),
                  dtr[..., 1])
    dtr[..., 1] = pitch - cp * F[..., 2, 0] - sp * (sr * F[..., 2, 1] + cr * F[..., 2, 2])
    _sum3(R[..., :, 2] * F[..., :, 1] - R[..., :, 1] * F[..., :, 2], dtr[..., 2])
    return dist, (0.5 * dd_du)[..., None] * dtr
