"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ``gazeshift``. Each oracle is written from the
documented conventions, not from the program's code:

* ZYX Euler rotations, ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``, built as a
  product of the three elementary matrices; the geodesic angle
  ``arccos((trace(R1 R2^T) - 1) / 2)`` with the argument clamped.
* The gaze ray of an eye-head pose, ``R_head @ R_eye @ x_forward``.
* A plain-numpy forward pass of the conditional VQ-VAE and of the prior,
  read from checkpoint JSON, following the architecture table in the
  ``gazeshift.vqvae`` docstring.
* The set-of-mark rule: candidates sorted by category, then left box
  edge, then id; marks count from 1.
* Pinhole back-projection through ``base_from_camera``.
"""

from __future__ import annotations

import json
import math

import numpy as np

FORWARD = np.array([1.0, 0.0, 0.0])


# -- rotations ----------------------------------------------------------------

def rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation(yaw, pitch, roll=0.0):
    """Intrinsic Z-Y-X rotation as the product of its three factors."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def geodesic(R1, R2):
    """Geodesic angle between two rotations, radians in [0, pi]."""
    u = (float(np.trace(R1 @ R2.T)) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, u)))


def gaze_ray(eye_yaw, eye_pitch, head_yaw, head_pitch, head_roll):
    return rotation(head_yaw, head_pitch, head_roll) @ rotation(eye_yaw, eye_pitch) @ FORWARD


def angle_between(a, b):
    cos = float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return math.acos(min(1.0, max(-1.0, cos)))


def pose_errors_deg(C, pred, Y):
    """Per-row eye and head geodesic errors (degrees) of predicted target poses.

    Rows of ``C`` are conditions (eye yaw/pitch, head yaw/pitch/roll, target
    xyz); ``pred`` and ``Y`` are allocation rows (eye deltas, head deltas).
    The target pose is the current pose plus the allocation.
    """
    eye, head = [], []
    for c, p, y in zip(C, pred, Y):
        eye.append(geodesic(rotation(c[0] + p[0], c[1] + p[1]),
                            rotation(c[0] + y[0], c[1] + y[1])))
        head.append(geodesic(rotation(c[2] + p[2], c[3] + p[3], c[4] + p[4]),
                             rotation(c[2] + y[2], c[3] + y[3], c[4] + y[4])))
    return np.degrees(eye), np.degrees(head)


# -- networks from checkpoint JSON ---------------------------------------------

def read_params(path):
    """(name -> array, metadata) from a checkpoint JSON file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    params = {name: np.array(entry["data"], dtype=float).reshape(entry["shape"])
              for name, entry in doc["params"].items()}
    return params, doc["metadata"]


def _dense(params, prefix, x, activations):
    for i, act in enumerate(activations):
        x = x @ params[f"{prefix}{i}.W"] + params[f"{prefix}{i}.b"]
        if act == "relu":
            x = np.maximum(x, 0.0)
    return x


def _scaled(C, scale):
    X = np.array(C, dtype=float)
    X[:, 5:8] = X[:, 5:8] / scale
    return X


class VQVAEOracle:
    """Encoder, nearest code and decoder of a stage-1 checkpoint."""

    def __init__(self, path):
        self.p, meta = read_params(path)
        self.scale = meta["model"]["target_scale"]
        self.codebook = self.p["codebook"]
        self.best = meta["best"]

    def _cond(self, C):
        return _dense(self.p, "cond_encoder.", _scaled(C, self.scale), ["relu", "relu"])

    def encode(self, Y, C):
        f_y = _dense(self.p, "recon_encoder.", np.asarray(Y, dtype=float), ["relu", "relu"])
        return _dense(self.p, "fusion_in.", np.hstack([f_y, self._cond(C)]), ["identity"])

    def nearest(self, Z):
        """Nearest codebook row per latent; the smallest index wins a tie."""
        out = []
        for z in Z:
            d2 = [float(np.sum((z - e) ** 2)) for e in self.codebook]
            out.append(min(range(len(d2)), key=lambda k: (d2[k], k)))
        return np.array(out, dtype=int)

    def decode(self, Zq, C):
        h = _dense(self.p, "fusion_out.", np.hstack([Zq, self._cond(C)]), ["identity"])
        return _dense(self.p, "decoder.", h, ["relu", "relu", "identity"])

    def codes(self, Y, C):
        return self.nearest(self.encode(Y, C))


class PriorOracle:
    """Softmax over the prior network's logits, from a prior checkpoint."""

    def __init__(self, path):
        self.p, meta = read_params(path)
        self.scale = meta["model"]["target_scale"]
        self.best = meta["best"]

    def pi(self, C):
        logits = _dense(self.p, "", _scaled(C, self.scale), ["relu", "relu", "identity"])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


def tv_bound(n_draws, n_codes, delta=1e-9):
    """Total-variation radius that n i.i.d. draws exceed with probability <= delta.

    From P(TV > eps) <= 2**K * exp(-2 n eps**2) (Bretagnolle-Huber-Carol).
    """
    return math.sqrt((n_codes * math.log(2.0) + math.log(1.0 / delta)) / (2.0 * n_draws))


# -- set-of-mark and localization ------------------------------------------------

def marks(instances):
    """Mark -> instance dict; instances are dicts with id, category and box."""
    ordered = sorted(instances, key=lambda i: (i["category"], i["box"][0], i["id"]))
    return {m: inst for m, inst in enumerate(ordered, start=1)}


def mark_of(instances, instance_id):
    for m, inst in marks(instances).items():
        if inst["id"] == instance_id:
            return m
    raise KeyError(instance_id)


def localize(inst, camera, base_from_camera):
    """(point_2d, point_3d, face_fallback) for one instance dict.

    Persons are localized at the face-box center, or at the body-box
    center with ``face_fallback`` set when the face box is missing.
    """
    person = inst["category"] == "person"
    box = inst.get("face_box") if person and inst.get("face_box") else inst["box"]
    u = (box[0] + box[2]) / 2.0
    v = (box[1] + box[3]) / 2.0
    d = inst["depth"]
    p_cam = np.array([d * (u - camera["cx"]) / camera["fx"],
                      d * (v - camera["cy"]) / camera["fy"], d])
    R = np.array(base_from_camera["rotation"], dtype=float)
    t = np.array(base_from_camera["translation"], dtype=float)
    face_fallback = person and not inst.get("face_box")
    return (u, v), R @ p_cam + t, face_fallback
