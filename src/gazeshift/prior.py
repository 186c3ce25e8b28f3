"""Conditional prior over the VQ-VAE's discrete codes.

After the VQ-VAE is trained and frozen, a second network learns which
codes are plausible for a given gaze context: g(c) produces K logits,
softmax turns them into a distribution pi, and training minimises

    focal(pi, z*) + eta * mc(argmax pi, c)

where z* is the code the frozen encoder assigned to the training sample,
``focal`` is the focal loss -(1 - pi[z*])**gamma * log(pi[z*]), and ``mc``
is a motion-consistency check: decode the currently most likely code with
the frozen decoder and measure the geodesic error of the resulting target
poses against ground truth, d_eye + lambda_mc * d_head. Stage 2 looks the
errors up in tables of every code decoded for every row
(``trainer.CodeErrors``), built once because the decoder is frozen. The argmax
blocks any gradient, so mc shapes checkpoint selection and reporting but
contributes exactly zero gradient wherever the argmax index is locally
constant; no relaxation is applied.

The passes take condition rows as network inputs: ``vqvae.condition_inputs``
checks and normalises them, once per set of rows, and the same inputs feed
the VQ-VAE's passes. At inference time a code is sampled from pi (or the
argmax is taken) and decoded into a motion allocation
(``trainer.draw_allocations``). Checkpoints record every
:class:`PriorConfig` field and ``stage1_sha256``, the SHA-256 of the bytes
of the ``stage1.json`` the prior was trained against (``nets.save_model``),
which ``load`` checks. A checkpoint holding any other key of the model
record, such as the ``mc_gradient`` older builds wrote, does not load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .vqvae import SharedModelConfig

PROB_FLOOR = 1e-12  # floor on pi[z*] before the log
_DIST_ATOL = 1e-9   # tolerated deviation of sum(pi) from 1


@dataclass(frozen=True)
class PriorConfig(SharedModelConfig):
    gamma: float = 2.0
    eta: float = 1.0
    lambda_mc: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.eta < 0 or self.lambda_mc < 0:
            raise ValueError("eta and lambda_mc must be non-negative")


def check_distribution(pi: np.ndarray) -> tuple[np.ndarray, float]:
    """``(pi, pi.sum())`` for a distribution over codes; raises ValueError if it is not one.

    ``pi`` must be one row (1-D) of finite, non-negative entries whose sum
    is within ``_DIST_ATOL`` of 1. Two reductions accept it: the minimum
    (NaN and -inf fail ``>= 0``) and the sum (+inf fails the tolerance). The
    four per-rule passes run only on a refused ``pi``, to pick its message:
    "entries must be finite and non-negative" or "sums to <sum as a Python
    float>, not 1" (an empty ``pi`` sums to 0.0). The sum is handed back so
    that a caller dividing by it does not take it again.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1:
        raise ValueError(f"distribution has wrong shape {pi.shape}")
    if pi.size and pi.min() >= 0.0:
        total = pi.sum()  # no -inf here, so no inf - inf
        if abs(total - 1.0) <= _DIST_ATOL:
            return pi, total
    if not np.isfinite(pi).all() or (pi < 0).any():
        raise ValueError("distribution entries must be finite and non-negative")
    raise ValueError(f"distribution sums to {float(pi.sum())!r}, not 1")


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max for stability.

    Takes anything ``np.asarray`` reads as floats and never writes to it:
    the shifted logits are a new array, which ``exp`` and the division by
    the row sums then overwrite. The bits are those of ``e / e.sum(axis=-1,
    keepdims=True)`` with ``e = np.exp(logits - logits.max(axis=-1,
    keepdims=True))``.
    """
    logits = np.asarray(logits, dtype=float)
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def focal_loss_rows(logits: np.ndarray, labels: np.ndarray, gamma: float = 2.0):
    """Batch-mean focal loss and its gradient in the logits.

    Returns (mean loss, per-probability values (n,), dlogits (n, K)).
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, K = logits.shape
    pi = softmax_rows(logits)
    rows = np.arange(n)
    p = pi[rows, labels]
    q = np.maximum(p, PROB_FLOOR)
    one_minus = 1.0 - p
    vals = -(one_minus**gamma) * np.log(q)
    # dL/dp, with the log frozen below the floor
    live = (p >= PROB_FLOOR).astype(float)
    if gamma == 0.0:
        dval_dp = -live / q
    else:
        dval_dp = gamma * (one_minus ** (gamma - 1.0)) * np.log(q) - (one_minus**gamma) * live / q
    # dp/dlogit_j = p * (delta_j - pi_j)
    dlogits = pi * (-(dval_dp * p))[:, None] / n
    dlogits[rows, labels] += dval_dp * p / n
    return float(vals.sum()) / n, vals, dlogits  # the bits of mean(), without its fixed cost


def sample_code(pi: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` code indices from the distribution pi, as an array.

    Leaves ``rng`` where ``size`` single draws would. The draws are those of
    ``rng.choice(len(pi), size=size, p=pi / pi.sum())`` (numpy's own
    inverse-CDF search, written out), without ``choice``'s second validation
    of a ``pi`` that ``check_distribution`` has passed; ``pi`` is divided by
    the sum that check took, which has the bits of ``pi.sum()``.
    """
    pi, total = check_distribution(pi)
    cdf = (pi / total).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


class ConditionalPrior:
    """Logit network over codes, conditioned on the 8 context inputs."""

    def __init__(self, config: PriorConfig = PriorConfig(), seed: int = 0):
        self.config = config
        H, K = config.hidden_width, config.codebook_size
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        self.net = nets.DenseNetwork.create([8, H, H, K], rng, ["relu", "relu", "identity"])

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        self.net.set_params(params)

    def logits_rows(self, X: np.ndarray) -> np.ndarray:
        """The K logits of each row of ``X``, condition rows that ``condition_inputs`` has made."""
        return self.net.forward(X)

    def forward_rows(self, X: np.ndarray) -> np.ndarray:
        return softmax_rows(self.logits_rows(X))

    def save(self, path, metadata: dict | None = None,
             stage1_sha256: str | None = None) -> str:
        """Write the checkpoint, linked to the stage-1 bytes of ``stage1_sha256``."""
        return nets.save_model(path, self.params(), "conditional-prior", self.config, metadata,
                               stage1_sha256=stage1_sha256)

    @classmethod
    def load(cls, path, stage1: nets.Checkpoint | None = None):
        """The prior saved at ``path`` and its checkpoint.

        With ``stage1``, the checkpoint of the first-stage model to pair it
        with, a prior whose recorded ``stage1_sha256`` is not the SHA-256 of
        that file's bytes raises ValueError naming both files: a file equal
        in value but spelled otherwise does not pair. A prior written before
        the link was a byte hash records it under another key, an unknown
        field.
        """
        prior, ck = nets.load_model(path, cls, "conditional-prior", PriorConfig,
                                    extra={"stage1_sha256": "str | None"})
        stored = ck.metadata["model"]["stage1_sha256"]
        if stage1 is not None and stored != stage1.sha256:
            raise ValueError(
                f"{path}: prior checkpoint was trained against a different first-stage model "
                f"(stored stage1_sha256 {stored!r}; {stage1.path} has SHA-256 {stage1.sha256})"
            )
        return prior, ck
