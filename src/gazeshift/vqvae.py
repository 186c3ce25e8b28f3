"""Conditional VQ-VAE that splits a gaze shift between eyes and head.

Given a context c (current eye pose, current head pose, 3D target point)
and a motion allocation y (eye yaw/pitch increments, head yaw/pitch/roll
increments), the model embeds the pair, snaps the latent onto one of K
codebook vectors, and decodes the code together with the context back
into a motion allocation.

Architecture (widths from :class:`VQVAEConfig`):

    recon encoder   y (5)  -> 64 -> 64          rectifier stack
    cond  encoder   c (8)  -> 64 -> 64          rectifier stack
    fusion in       [f_y, f_c] (128) -> z_e (8) single affine layer
    codebook        K x 8 nearest-neighbour lookup
    fusion out      [z_q, f_c] (72)  -> 64      single affine layer
    decoder         64 -> 64 -> 64 -> y_hat (5)

The training objective is

    total = rec + ||sg[z_e] - z_q||^2 + beta * ||z_e - sg[z_q]||^2

where ``rec`` compares predicted and ground-truth target poses with the
geodesic rotation distance (head term weighted by ``lambda_rc``), sg[.]
is stop-gradient, and the quantisation step backpropagates as identity
(straight-through). Consequences, relied on by tests: the codebook is
updated only by the middle term, the encoder only by the first and last,
and the reconstruction term is invariant to 2*pi shifts of any angle.

Every pass (``encode_rows``, ``forward_rows``, ``decode_rows``,
``decode_codes``, ``loss_and_grads``) and the prior's take network inputs:
allocation rows and condition rows that :func:`model_inputs` or
:func:`condition_inputs` has checked for NaN and inf and normalised. Those
two functions are the only place rows are checked and normalised, so a
caller does it once per set of rows; a pass checks nothing again, apart
from ``decode_rows``' check of its latent rows.

Codes are 0-based indices into the codebook array everywhere (files,
reports, APIs).
Checkpoints record every :class:`VQVAEConfig` field (``nets.save_model``);
one that lacks a field or holds a mistyped one does not load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nets, so3
from .datagen import CONDITION_FIELDS, condition_violations


def _finite_rows(A: np.ndarray, what: str) -> np.ndarray:
    """``A`` as a float array; raises ValueError if any entry is NaN or inf.

    Allocation and latent rows are checked here, once, where they enter a
    model, and condition rows in ``condition_inputs``: the networks'
    ``forward`` does not check values again.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError(f"{what} contain non-finite values")
    return A


def condition_inputs(C: np.ndarray, target_scale: float) -> np.ndarray:
    """Condition rows as network inputs: the target columns divided by ``target_scale``.

    Every condition row of either model enters through here, and a NaN or
    inf in ``C`` raises ValueError. The pose columns are copied as they
    are, so ``X[:, :5]`` holds the bits of ``C[:, :5]``: whatever reads
    only the current poses may read them from ``X``.
    """
    X = np.array(C, dtype=float)
    if not np.isfinite(X).all():  # X is a float copy already: no _finite_rows
        raise ValueError("condition rows contain non-finite values")
    X[:, 5:8] /= target_scale
    return X


def model_inputs(Y: np.ndarray, C: np.ndarray, target_scale: float):
    """(Y, X): allocation rows checked for NaN and inf, then condition rows as network inputs.

    The inputs of the passes that read both (``encode_rows``,
    ``forward_rows``, ``loss_and_grads``); training makes them once per
    split, and ``eval`` once for its split.
    """
    return _finite_rows(Y, "allocation rows"), condition_inputs(C, target_scale)


@dataclass(frozen=True)
class SharedModelConfig:
    """The fields both models read: one value each feeds the VQ-VAE and the prior."""

    codebook_size: int = 10
    hidden_width: int = 64
    # Target coordinates are divided by this scale before entering either
    # model, bringing metres in a ~3 m workspace to order one.
    target_scale: float = 2.0

    def __post_init__(self):
        if self.codebook_size < 1:
            raise ValueError("codebook_size must be at least 1")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be at least 1")
        if not 0 < self.target_scale < float("inf"):
            raise ValueError(f"target_scale must be positive and finite, not {self.target_scale}")


@dataclass(frozen=True)
class VQVAEConfig(SharedModelConfig):
    latent_dim: int = 8
    beta: float = 0.25
    lambda_rc: float = 1.0
    # Codebook entries start uniform in [-scale, scale]^D. The default spans
    # the untrained encoder's output range; entries the data never claims
    # stay where they started (plain VQ, no usage resets), so effective code
    # usage is data-driven.
    codebook_init_scale: float = 1.5

    def __post_init__(self):
        super().__post_init__()
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be at least 1")
        if self.beta < 0 or self.lambda_rc < 0:
            raise ValueError("beta and lambda_rc must be non-negative")
        if self.codebook_init_scale <= 0:
            raise ValueError("codebook_init_scale must be positive")


@dataclass(frozen=True)
class ConditionVector:
    """One unnormalised ``CONDITION_FIELDS`` row that passes ``condition_violations``."""

    row: np.ndarray

    def __post_init__(self):
        row = np.array(self.row, dtype=float)
        if row.shape != (len(CONDITION_FIELDS),):
            raise ValueError(f"condition vector must have {len(CONDITION_FIELDS)} entries")
        [violation] = condition_violations(row[None, :])
        if violation is not None:
            raise ValueError(violation)
        object.__setattr__(self, "row", row)

    def as_input(self) -> np.ndarray:
        """The 8 inputs listed in CONDITION_FIELDS (unnormalised)."""
        return self.row

    @classmethod
    def from_input(cls, vec: np.ndarray) -> "ConditionVector":
        return cls(vec)


@dataclass(frozen=True, slots=True)
class MotionAllocation:
    """One ``ALLOCATION_FIELDS`` row (radians), held as given, without a check.

    Its one builder, ``trainer.infer``, hands it a row of its own that
    ``allocation_violations`` has passed in ``trainer.draw_allocations``.
    It stays only until the benchmark's infer loop calls ``draw_allocations``.
    """

    row: np.ndarray

    def as_vector(self) -> np.ndarray:
        return self.row


def quantize_rows(Z: np.ndarray, codebook: np.ndarray):
    """Nearest codebook entry per row; ties go to the smallest index.

    During backpropagation the lookup is treated as identity
    (straight-through); see ConditionalVQVAE.loss_and_grads.
    """
    codebook = np.asarray(codebook, dtype=float)
    if codebook.ndim != 2 or codebook.shape[0] == 0:
        raise ValueError("codebook must be a non-empty (K, D) array")
    Z = np.asarray(Z, dtype=float)
    if Z.shape[-1] != codebook.shape[1]:
        raise ValueError(
            f"latent width {Z.shape[-1]} does not match codebook width {codebook.shape[1]}"
        )
    d2 = ((Z[..., None, :] - codebook) ** 2).sum(axis=-1)
    idx = np.argmin(d2, axis=-1)  # argmin returns the first minimum on ties
    return idx, codebook[idx]


def _target_angles(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Compose allocation rows with the current poses in ``C``.

    Reads only the pose columns ``C[:, :5]``, which ``condition_inputs``
    copies as they are, so the passes hand it their network inputs. Returns
    the (n, 2, 3) Euler angles [row, eye/head]; eye angles carry roll 0.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    angles = np.empty((len(A), 2, 3))
    np.add(C[:, 0:2], A[:, 0:2], angles[:, 0, 0:2])
    angles[:, 0, 2] = 0.0
    np.add(C[:, 2:5], A[:, 2:5], angles[:, 1])
    return angles


def target_rotations(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, 2, 3, 3) rotations of the target poses of allocation rows ``A``, [row, eye/head].

    Row by row: the rotations of a subset of rows are the same bits as
    the matching rows of the whole set's rotations.
    """
    return so3.rotation_zyx(_target_angles(A, C))


def pose_errors_rows(pred: np.ndarray, C: np.ndarray, R_true: np.ndarray):
    """Geodesic error (radians) of predicted against true target poses.

    ``pred`` is composed with the current poses from ``C``, read as
    ``_target_angles`` reads them, and compared as rotations with
    ``R_true = target_rotations(Y, C)``, so the values lie in [0, pi] and
    are invariant to 2*pi shifts of any angle. Returns (d_eye, d_head).
    """
    d = so3.geodesic_rows(target_rotations(pred, C), R_true)
    return d[:, 0], d[:, 1]


def reconstruction_terms(pred: np.ndarray, true: np.ndarray, cond: np.ndarray,
                         lambda_rc: float = 1.0, R_true: np.ndarray | None = None):
    """Rotation-aware reconstruction loss per sample and its gradient.

    loss_i = d_eye_i + lambda_rc * d_head_i, the errors of
    :func:`pose_errors_rows`, with poses read from ``cond`` as
    ``_target_angles`` reads them. ``R_true`` is ``target_rotations(true, cond)``
    when a caller has it already; it is computed here otherwise. ``so3``
    gets the angles and ``R_true`` as (2n, ...) views, eye rows at even
    indices and head rows at odd ones. Returns (values (n,), grad wrt pred (n, 5)).
    """
    n = len(cond)
    if R_true is None:
        R_true = target_rotations(true, cond)
    d, g = so3.geodesic_to_reference_with_grad(_target_angles(pred, cond).reshape(-1, 3),
                                               R_true.reshape(-1, 3, 3))
    grad = np.empty((n, 5))
    grad[:, :2] = g[0::2, :2]
    np.multiply(lambda_rc, g[1::2], grad[:, 2:])
    return d[0::2] + lambda_rc * d[1::2], grad


@dataclass
class VQLossTerms:
    """Batch-mean loss terms. ``total`` applies the term weights; the
    individual fields are unweighted."""

    total: float
    rec: float
    embed: float
    commit: float


class ConditionalVQVAE:
    """Conditional VQ-VAE over motion allocations. See module docstring."""

    def __init__(self, config: VQVAEConfig = VQVAEConfig(), seed: int = 0):
        self.config = config
        H, D, K = config.hidden_width, config.latent_dim, config.codebook_size
        seeds = np.random.SeedSequence(seed).spawn(6)
        rngs = [np.random.default_rng(s) for s in seeds]
        self.recon_encoder = nets.DenseNetwork.create([5, H, H], rngs[0], ["relu", "relu"])
        self.cond_encoder = nets.DenseNetwork.create([8, H, H], rngs[1], ["relu", "relu"])
        self.fusion_in = nets.DenseNetwork.create([2 * H, D], rngs[2], ["identity"])
        scale = config.codebook_init_scale
        self.codebook = rngs[3].uniform(-scale, scale, size=(K, D))
        self.fusion_out = nets.DenseNetwork.create([D + H, H], rngs[4], ["identity"])
        self.decoder = nets.DenseNetwork.create([H, H, H, 5], rngs[5], ["relu", "relu", "identity"])
        self._sections = {
            "recon_encoder": self.recon_encoder,
            "cond_encoder": self.cond_encoder,
            "fusion_in": self.fusion_in,
            "fusion_out": self.fusion_out,
            "decoder": self.decoder,
        }
        # One flat vector holds every parameter, section by section, then
        # the codebook, and one gradient vector is laid out the same way; the
        # networks and the codebook are views into both.
        arrays = {f"{section}.{name}": p for section, net in self._sections.items()
                  for name, p in net.params().items()}
        arrays["codebook"] = self.codebook
        self.layout = nets.Layout.of(arrays)
        self.flat = self.layout.pack(arrays)
        self.grad = np.empty(self.layout.size)
        start = 0
        for net in self._sections.values():
            stop = start + net.layout.size
            net.bind(self.flat[start:stop], self.grad[start:stop])
            start = stop
        self.codebook = self.flat[start:].reshape(K, D)
        self._codebook_grad = self.grad[start:].reshape(K, D)

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        """Live views into ``flat``, keyed '<section>.<layer>.W', ..., 'codebook'."""
        return self.layout.views(self.flat)

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        self.flat[...] = self.layout.pack(params)

    # -- forward pieces ------------------------------------------------------

    def encode_rows(self, Y: np.ndarray, X: np.ndarray) -> np.ndarray:
        f_y = self.recon_encoder.forward(Y)
        f_c = self.cond_encoder.forward(X)
        return self.fusion_in.forward(np.concatenate([f_y, f_c], axis=1))

    def decode_rows(self, Zq: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Allocation rows decoded from latent rows ``Zq``; a NaN or inf in them is a ValueError."""
        Zq = _finite_rows(Zq, "latent rows")
        h = self.fusion_out.forward(np.concatenate([Zq, self.cond_encoder.forward(X)], axis=1))
        return self.decoder.forward(h)

    def decode_codes(self, X: np.ndarray) -> np.ndarray:
        """(K, n, 5): the allocation every code decodes to for every input row of ``X``.

        One ``decode_rows`` call per code, over all rows of ``X`` at once. A
        row decodes to the same bits in any batch of two or more rows, so
        each entry holds the bits a decode of any such batch gives; a lone
        row still takes numpy's matrix-vector path, under ``np.dot`` as
        under ``@``, and its last bits can differ.
        """
        return np.stack([self.decode_rows(np.broadcast_to(z_q, (len(X), len(z_q))), X)
                         for z_q in self.codebook])

    def forward_rows(self, Y: np.ndarray, X: np.ndarray):
        """Teacher-forced pass: encode (Y, X), quantise, decode.

        Runs every section once, so the cached activations serve the
        backward pass of :meth:`loss_and_grads`. Returns (idx, z_e, z_q, pred).
        """
        f_y = self.recon_encoder.forward(Y)
        f_c = self.cond_encoder.forward(X)
        z_e = self.fusion_in.forward(np.concatenate([f_y, f_c], axis=1))
        idx, z_q = quantize_rows(z_e, self.codebook)
        h = self.fusion_out.forward(np.concatenate([z_q, f_c], axis=1))
        return idx, z_e, z_q, self.decoder.forward(h)

    # -- loss ----------------------------------------------------------------

    def loss_and_grads(self, Y: np.ndarray, X: np.ndarray, *, rec_weight: float = 1.0,
                       embed_weight: float = 1.0, commit_weight: float | None = None,
                       R_true: np.ndarray | None = None):
        """Batch-mean loss terms and the flat parameter gradient (in ``layout``).

        The gradient is the model's own ``grad`` vector, which every call
        overwrites and returns: copy it to keep it across another call.
        Each network writes its stretch of it, and the codebook gradient is
        a view of its last stretch. ``R_true``, when given, is
        ``target_rotations(Y, X)``, of shape (n, 2, 3, 3): training computes
        it once for its whole split, since the true rows never change.
        ``commit_weight`` defaults to config.beta; the tests zero individual
        weights to check that gradient routing honours the stop-gradients.
        Gradients follow the straight-through convention: the quantisation
        step is skipped (identity) on the reconstruction path, the codebook
        is driven only by the embed term, the encoder additionally by the
        commitment term.
        """
        if commit_weight is None:
            commit_weight = self.config.beta
        n = len(Y)
        H = self.config.hidden_width
        D = self.config.latent_dim

        idx, z_e, z_q, pred = self.forward_rows(Y, X)
        rec_vals, rec_grad = reconstruction_terms(pred, Y, X, self.config.lambda_rc, R_true)
        diff = z_e - z_q
        vq_vals = (diff * diff).sum(axis=1)

        # float(sum) / n: the bits of mean(), without its fixed cost
        rec = float(rec_vals.sum()) / n
        embed = float(vq_vals.sum()) / n
        commit = embed  # same value; the two terms differ only in gradient routing
        total = rec_weight * rec + embed_weight * embed + commit_weight * commit
        for name, value in (("rec", rec), ("embed", embed), ("total", total)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite loss term {name!r}")
        terms = VQLossTerms(total, rec, embed, commit)

        g_pred = rec_weight * rec_grad / n
        _, g_h = self.decoder.backward(g_pred)
        _, g_d = self.fusion_out.backward(g_h)
        g_zq = g_d[:, :D]
        g_fc_dec = g_d[:, D:]
        # Straight-through: the reconstruction gradient at z_q lands on z_e
        # unchanged; the commitment term pulls z_e toward the (frozen) code.
        g_ze = g_zq + commit_weight * (2.0 / n) * diff
        self._codebook_grad[...] = 0.0
        np.add.at(self._codebook_grad, idx, embed_weight * (2.0 / n) * (-diff))
        _, g_u = self.fusion_in.backward(g_ze)
        g_fy = g_u[:, :H]
        g_fc = g_u[:, H:] + g_fc_dec
        # The encoders' input gradients would reach only the data.
        self.recon_encoder.backward(g_fy, input_grad=False)
        self.cond_encoder.backward(g_fc, input_grad=False)
        return terms, self.grad

    # -- persistence -----------------------------------------------------------

    def save(self, path, metadata: dict | None = None) -> str:
        return nets.save_model(path, self.params(), "conditional-vqvae", self.config, metadata)

    @classmethod
    def load(cls, path) -> tuple["ConditionalVQVAE", nets.Checkpoint]:
        return nets.load_model(path, cls, "conditional-vqvae", VQVAEConfig)
