"""Two-stage training for the gaze-shift allocator.

Stage 1 trains the conditional VQ-VAE end to end (reconstruction + codebook
terms). Stage 2 freezes it, records the code index the encoder assigns to
every training sample, and fits the conditional prior to those labels with
the focal + motion-consistency objective.

Every epoch is validated: stage 1 teacher-forced (encode the ground-truth
allocation, quantise, decode), stage 2 with the prior's argmax code. The
metric is the mean geodesic distance (MGD, degrees) between predicted and
ground-truth target poses, per component; the best checkpoint of each
stage minimises the summed eye+head validation MGD.

All randomness flows from TrainConfig.seed through named SeedSequence
spawns, so a rerun reproduces parameter trajectories bit for bit.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import nets, prior as prior_mod
from .atomic import open_atomic
from .datagen import Dataset
from .errors import ConfigError, TrainingError
from .prior import CodeLabel, ConditionalPrior, PriorConfig
from .vqvae import ConditionalVQVAE, MotionAllocation, VQVAEConfig, pose_errors_rows, quantize_rows

STAGE1_CHECKPOINT = "stage1.json"
PRIOR_CHECKPOINT = "prior.json"
METRICS_FILE = "metrics.csv"

METRICS_COLUMNS = [
    "stage", "epoch", "lr", "loss_total", "loss_rec", "loss_embed", "loss_commit",
    "loss_focal", "loss_mc", "val_eye_mgd_deg", "val_head_mgd_deg",
    "codebook_utilization", "prior_top1_acc",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for both stages; defaults are the reference recipe."""

    stage1_epochs: int = 200
    stage2_epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-4
    milestones: tuple = (100, 150)
    lr_decay: float = 0.5
    codebook_size: int = 10
    latent_dim: int = 8
    hidden_width: int = 64
    beta: float = 0.25
    lambda_rc: float = 1.0
    gamma: float = 2.0
    eta: float = 1.0
    lambda_mc: float = 1.0
    target_scale: float = 2.0
    codebook_init_scale: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.stage1_epochs < 1 or self.stage2_epochs < 1:
            raise ValueError("epoch counts must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")

    def vqvae_config(self) -> VQVAEConfig:
        return VQVAEConfig(
            codebook_size=self.codebook_size,
            latent_dim=self.latent_dim,
            hidden_width=self.hidden_width,
            beta=self.beta,
            lambda_rc=self.lambda_rc,
            target_scale=self.target_scale,
            codebook_init_scale=self.codebook_init_scale,
        )

    def prior_config(self) -> PriorConfig:
        return PriorConfig(
            codebook_size=self.codebook_size,
            hidden_width=self.hidden_width,
            gamma=self.gamma,
            eta=self.eta,
            lambda_mc=self.lambda_mc,
        )

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["milestones"] = list(self.milestones)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown training config fields: {sorted(unknown)}")
        doc = dict(doc)
        if "milestones" in doc:
            doc["milestones"] = tuple(doc["milestones"])
        try:
            return cls(**doc)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class EpochMetrics:
    stage: int
    epoch: int
    lr: float
    loss_total: float
    val_eye_mgd_deg: float
    val_head_mgd_deg: float
    loss_rec: float | None = None
    loss_embed: float | None = None
    loss_commit: float | None = None
    loss_focal: float | None = None
    loss_mc: float | None = None
    codebook_utilization: float | None = None
    prior_top1_acc: float | None = None

    def summed_mgd(self) -> float:
        return self.val_eye_mgd_deg + self.val_head_mgd_deg

    def row(self) -> list:
        doc = asdict(self)  # the fields are exactly METRICS_COLUMNS
        # float() first: the repr of a numpy scalar carries its type name
        return ["" if doc[c] is None else repr(float(doc[c])) if isinstance(doc[c], float)
                else doc[c] for c in METRICS_COLUMNS]


def dataset_arrays(dataset: Dataset, which: str):
    """(Y, C) allocation and condition rows for one split."""
    samples = dataset.subset(which)
    if not samples:
        raise TrainingError(f"dataset has no {which!r} samples")
    Y = np.stack([s.allocation.as_vector() for s in samples])
    C = np.stack([s.condition.as_input() for s in samples])
    return Y, C


def _mgd_rows(pred: np.ndarray, Y: np.ndarray, C: np.ndarray):
    """Per-component MGD (degrees) of predicted allocation rows."""
    d_eye, d_head = pose_errors_rows(pred, Y, C)
    return math.degrees(float(d_eye.mean())), math.degrees(float(d_head.mean()))


@dataclass
class StageResult:
    stage: int
    metrics: list
    best_epoch: int
    best_eye_mgd: float
    best_head_mgd: float
    best_params: np.ndarray  # flat copy, in the trained model's layout
    best_optimizer: nets.AdamState

    def best_summed(self) -> float:
        return self.best_eye_mgd + self.best_head_mgd


def _batches(n: int, batch_size: int, perm: np.ndarray):
    # Every sample is used each epoch; a short final batch is kept.
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def validate_stage1(model: ConditionalVQVAE, Yv, Cv):
    idx, _, _, pred = model.forward_rows(Yv, Cv)
    eye_mgd, head_mgd = _mgd_rows(pred, Yv, Cv)
    utilization = len(np.unique(idx)) / model.config.codebook_size
    return eye_mgd, head_mgd, utilization


def train_stage1(dataset: Dataset, config: TrainConfig = TrainConfig()):
    """Train the VQ-VAE; returns (model restored to best epoch, StageResult)."""
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    model = ConditionalVQVAE(config.vqvae_config(), seed=config.seed)
    shuffle_rng = np.random.default_rng(seeds[1])
    Y, C = dataset_arrays(dataset, "train")
    Yv, Cv = dataset_arrays(dataset, "val")
    adam = nets.AdamState.for_params(model.params(), lr=config.lr,
                                     weight_decay=config.weight_decay)
    schedule = nets.LrSchedule(config.lr, tuple(config.milestones), config.lr_decay)
    metrics = []
    best = None
    for epoch in range(config.stage1_epochs):
        adam.lr = schedule.lr_at(epoch)
        perm = shuffle_rng.permutation(len(Y))
        sums = np.zeros(4)
        for batch in _batches(len(Y), config.batch_size, perm):
            try:
                terms, grad = model.loss_and_grads(Y[batch], C[batch])
                nets.adam_step(adam, model.flat, grad)
            except (ValueError, nets.NonFiniteGradient) as exc:
                raise TrainingError(f"stage 1 epoch {epoch}: {exc}") from exc
            sums += np.array([terms.total, terms.rec, terms.embed, terms.commit]) * len(batch)
        sums /= len(Y)
        eye_mgd, head_mgd, utilization = validate_stage1(model, Yv, Cv)
        entry = EpochMetrics(
            stage=1, epoch=epoch, lr=adam.lr, loss_total=sums[0],
            loss_rec=sums[1], loss_embed=sums[2], loss_commit=sums[3],
            val_eye_mgd_deg=eye_mgd, val_head_mgd_deg=head_mgd,
            codebook_utilization=utilization,
        )
        metrics.append(entry)
        if best is None or entry.summed_mgd() < best.best_summed():
            best = StageResult(1, metrics, epoch, eye_mgd, head_mgd,
                               model.flat.copy(), adam.copy())
    model.flat[...] = best.best_params
    return model, best


def record_codes(model: ConditionalVQVAE, dataset: Dataset, which: str = "train"):
    """Code index assigned by the frozen encoder to each sample of a split."""
    Y, C = dataset_arrays(dataset, which)
    idx, _ = quantize_rows(model.encode_rows(Y, C), model.codebook)
    return [CodeLabel(int(k), i) for i, k in enumerate(idx)]


def validate_stage2(model, prior, Yv, Cv, val_labels):
    codes = np.argmax(prior.forward_rows(Cv), axis=1)
    pred = model.decode_rows(model.codebook[codes], Cv)
    eye_mgd, head_mgd = _mgd_rows(pred, Yv, Cv)
    top1 = float((codes == val_labels).mean())
    return eye_mgd, head_mgd, top1


def train_stage2(model: ConditionalVQVAE, labels, dataset: Dataset,
                 config: TrainConfig = TrainConfig()):
    """Fit the conditional prior against frozen-encoder labels.

    ``labels`` must come from record_codes on the same model and dataset.
    The VQ-VAE is treated as frozen throughout.
    """
    Y, C = dataset_arrays(dataset, "train")
    if len(labels) != len(Y):
        raise TrainingError(f"{len(labels)} labels for {len(Y)} training samples")
    label_arr = np.array([lab.index for lab in labels], dtype=int)
    if label_arr.min() < 0 or label_arr.max() >= config.codebook_size:
        raise TrainingError("code labels outside the codebook range")
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    prior = ConditionalPrior(config.prior_config(), seed=config.seed + 1,
                             target_scale=config.target_scale)
    shuffle_rng = np.random.default_rng(seeds[3])
    Yv, Cv = dataset_arrays(dataset, "val")
    val_labels = np.array([lab.index for lab in record_codes(model, dataset, "val")])
    net = prior.net
    adam = nets.AdamState.for_params(net.params(), lr=config.lr,
                                     weight_decay=config.weight_decay)
    schedule = nets.LrSchedule(config.lr, tuple(config.milestones), config.lr_decay)
    metrics = []
    best = None
    for epoch in range(config.stage2_epochs):
        adam.lr = schedule.lr_at(epoch)
        perm = shuffle_rng.permutation(len(C))
        focal_sum = 0.0
        mc_sum = 0.0
        for batch in _batches(len(C), config.batch_size, perm):
            logits = prior.logits_rows(C[batch])
            focal, _, dlogits = prior_mod.focal_loss_rows(logits, label_arr[batch], config.gamma)
            # Value-only: the argmax inside blocks any gradient.
            mc = float(prior_mod.motion_consistency_rows(
                model, logits, Y[batch], C[batch], config.lambda_mc).mean())
            if not (math.isfinite(focal) and math.isfinite(mc)):
                raise TrainingError(f"stage 2 epoch {epoch}: non-finite loss")
            try:
                grad, _ = net.backward(dlogits)
                nets.adam_step(adam, net.flat, grad)
            except (ValueError, nets.NonFiniteGradient) as exc:
                raise TrainingError(f"stage 2 epoch {epoch}: {exc}") from exc
            focal_sum += focal * len(batch)
            mc_sum += mc * len(batch)
        focal_mean = focal_sum / len(C)
        mc_mean = mc_sum / len(C)
        eye_mgd, head_mgd, top1 = validate_stage2(model, prior, Yv, Cv, val_labels)
        entry = EpochMetrics(
            stage=2, epoch=epoch, lr=adam.lr,
            loss_total=focal_mean + config.eta * mc_mean,
            loss_focal=focal_mean, loss_mc=mc_mean,
            val_eye_mgd_deg=eye_mgd, val_head_mgd_deg=head_mgd, prior_top1_acc=top1,
        )
        metrics.append(entry)
        if best is None or entry.summed_mgd() < best.best_summed():
            best = StageResult(2, metrics, epoch, eye_mgd, head_mgd,
                               net.flat.copy(), adam.copy())
    net.flat[...] = best.best_params
    return prior, best


@dataclass
class InferenceResult:
    allocation: MotionAllocation
    code: int
    pi: np.ndarray


def infer(model: ConditionalVQVAE, prior: ConditionalPrior, c, mode: str = "sample",
          rng: np.random.Generator | None = None) -> InferenceResult:
    """Draw (or argmax) a code from the prior and decode it for condition c."""
    if mode not in ("sample", "argmax"):
        raise ValueError(f"unknown inference mode {mode!r}")
    pi = prior.forward(c)
    if mode == "argmax":
        code = int(np.argmax(pi))
    else:
        code = prior_mod.sample_code(pi, rng if rng is not None else np.random.default_rng())
    allocation = model.decode(model.codebook[code], c)
    return InferenceResult(allocation, code, pi)


def write_metrics_csv(path, rows) -> None:
    """Header plus one formatted row (``EpochMetrics.row()``) per epoch."""
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        writer.writerows(rows)


def _stage1_rows(path: Path) -> list:
    """The stage-1 rows of an earlier run's metrics file, kept by a stage-2 run."""
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != METRICS_COLUMNS:
        raise TrainingError(f"{path} does not have the metrics header {METRICS_COLUMNS}")
    return [row for row in rows[1:] if row[:1] == ["1"]]


def run_training(dataset: Dataset, config: TrainConfig, out_dir, stage: str = "both") -> dict:
    """Train the requested stages and write checkpoints + metrics under out_dir.

    ``stage`` is "1", "2", or "both"; stage "2" alone expects stage1.json in
    out_dir from an earlier run. Returns a summary dict for the manifest.
    """
    if stage not in ("1", "2", "both"):
        raise ConfigError(f"unknown stage selector {stage!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset_hash = dataset.content_hash()
    t0 = time.monotonic()
    # A stage-2-only run keeps the stage-1 rows, so the file matches "both".
    rows = _stage1_rows(out / METRICS_FILE) if stage == "2" else []
    summary = {"dataset_hash": dataset_hash, "config": config.to_dict(), "stage": stage}

    model = None
    if stage in ("1", "both"):
        model, s1 = train_stage1(dataset, config)
        rows.extend(m.row() for m in s1.metrics)
        model.save(out / STAGE1_CHECKPOINT, optimizer=s1.best_optimizer, metadata={
            "stage": 1,
            "dataset_hash": dataset_hash,
            "train_config": config.to_dict(),
            "best": {"epoch": s1.best_epoch, "val_eye_mgd_deg": s1.best_eye_mgd,
                     "val_head_mgd_deg": s1.best_head_mgd},
        })
        summary["stage1"] = {
            "best_epoch": s1.best_epoch,
            "val_eye_mgd_deg": s1.best_eye_mgd,
            "val_head_mgd_deg": s1.best_head_mgd,
        }
    if stage in ("2", "both"):
        if model is None:
            ckpt_path = out / STAGE1_CHECKPOINT
            if not ckpt_path.exists():
                raise TrainingError(f"stage 2 requested but {ckpt_path} does not exist")
            model, ck = ConditionalVQVAE.load(ckpt_path)
            if ck.metadata.get("dataset_hash") != dataset_hash:
                raise TrainingError("stage-1 checkpoint was trained on a different dataset "
                                    "or records no dataset hash")
        labels = record_codes(model, dataset)
        prior, s2 = train_stage2(model, labels, dataset, config)
        rows.extend(m.row() for m in s2.metrics)
        prior.save(out / PRIOR_CHECKPOINT, optimizer=s2.best_optimizer,
                   stage1_fingerprint=model.fingerprint(), metadata={
            "stage": 2,
            "dataset_hash": dataset_hash,
            "train_config": config.to_dict(),
            "best": {"epoch": s2.best_epoch, "val_eye_mgd_deg": s2.best_eye_mgd,
                     "val_head_mgd_deg": s2.best_head_mgd},
        })
        summary["stage2"] = {
            "best_epoch": s2.best_epoch,
            "val_eye_mgd_deg": s2.best_eye_mgd,
            "val_head_mgd_deg": s2.best_head_mgd,
        }
    write_metrics_csv(out / METRICS_FILE, rows)
    summary["elapsed_s"] = time.monotonic() - t0
    summary["outputs"] = [str(out / METRICS_FILE)]
    if stage in ("1", "both"):
        summary["outputs"].append(str(out / STAGE1_CHECKPOINT))
    if stage in ("2", "both"):
        summary["outputs"].append(str(out / PRIOR_CHECKPOINT))
    return summary
