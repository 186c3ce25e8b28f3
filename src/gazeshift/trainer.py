"""Two-stage training for the gaze-shift allocator.

Stage 1 trains the conditional VQ-VAE end to end (reconstruction + codebook
terms). Stage 2 freezes it, records the code index the encoder assigns to
every sample of each split (``record_codes``), and fits the conditional
prior to the training labels with the focal + motion-consistency objective.

Both stages run through one epoch loop (``_fit``: Adam at the rate of
``TrainConfig.lr_at``, shuffle, batches, best-epoch copy of the weights
and restore); a stage supplies only its batch step and its epoch metrics.
A ValueError in a step, such as a non-finite loss or gradient, aborts the
run as a TrainingError.

Every epoch is validated: stage 1 teacher-forced (encode the ground-truth
allocation, quantise, decode), stage 2 with the prior's argmax code. With
the VQ-VAE frozen, the pose errors of a decoded code depend only on (row,
code), so stage 2 decodes every code once per row before it starts
(``CodeErrors``) and its steps and validations look the errors up. The
metric is the mean geodesic distance (MGD, degrees) between predicted and
ground-truth target poses, per component; the best checkpoint of each
stage minimises the summed eye+head validation MGD, and stage 2 breaks a
tie by the higher top-1 agreement, then the lower focal loss.

Each stage does its per-split work once, before its first epoch: it
checks each split's rows for NaN and inf and normalises their conditions
(``vqvae.model_inputs``; a bad row is a TrainingError naming the stage and
the split) and computes the rotations of the ground-truth target poses
(``vqvae.target_rotations``). Every model pass of the stage, its steps,
validations, labels and decoded tables, takes those inputs and checks
nothing again. Each epoch gathers the training rows in its shuffled order
once, and every step takes contiguous slices of them.

``_fit`` also times each epoch's phases with ``time.perf_counter``: the
batch steps (forward pass, loss and backward pass), the optimizer updates
and the end-of-epoch validation. ``run_training`` writes them to
``timings.jsonl``, one line per epoch and stage, apart from the
byte-for-byte reproducible ``metrics.csv``.

All randomness flows from TrainConfig.seed through named SeedSequence
spawns, so a rerun reproduces parameter trajectories bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import nets, prior as prior_mod
from .atomic import open_atomic
from .config import Schema, check_object, parse_json, read_config
from .datagen import Dataset, allocation_violations
from .errors import ConfigError, TrainingError
from .prior import ConditionalPrior, PriorConfig
from .vqvae import (ConditionalVQVAE, MotionAllocation, VQVAEConfig, condition_inputs,
                    model_inputs, pose_errors_rows, quantize_rows, target_rotations)

STAGE1_CHECKPOINT = "stage1.json"
PRIOR_CHECKPOINT = "prior.json"
METRICS_FILE = "metrics.csv"
TIMINGS_FILE = "timings.jsonl"
# A line of the timings file under ``config.check_object``: the keys ``_fit`` writes.
TIMINGS_SCHEMA = Schema({"stage": "int", "epoch": "int", "step_s": "float", "optimizer_s": "float",
                         "validation_s": "float"})

@dataclass(frozen=True)
class TrainConfig(PriorConfig, VQVAEConfig):
    """Hyperparameters for both stages: the model configs' fields and the loop's own."""

    stage1_epochs: int = 200
    stage2_epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-4
    milestones: tuple = (100, 150)
    lr_decay: float = 0.5
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.stage1_epochs < 1 or self.stage2_epochs < 1:
            raise ValueError("epoch counts must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.lr <= 0:
            raise ValueError("base learning rate must be positive")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("decay factor must be in (0, 1]")
        if list(self.milestones) != sorted(set(self.milestones)):
            raise ValueError("milestones must be strictly increasing")
        if self.milestones and self.milestones[0] < 0:
            raise ValueError("milestones must be non-negative")

    def lr_at(self, epoch: int) -> float:
        """The epoch's learning rate: ``lr`` times ``lr_decay`` per milestone at or below it."""
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        return self.lr * self.lr_decay ** bisect_right(self.milestones, epoch)

    def vqvae_config(self) -> VQVAEConfig:
        return VQVAEConfig(**{f.name: getattr(self, f.name) for f in fields(VQVAEConfig)})

    def prior_config(self) -> PriorConfig:
        return PriorConfig(**{f.name: getattr(self, f.name) for f in fields(PriorConfig)})

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["milestones"] = list(self.milestones)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "TrainConfig":
        return read_config(cls, doc, "training")


@dataclass(kw_only=True)
class EpochMetrics:
    """One epoch's row of ``metrics.csv``; the fields are its columns, in order."""

    stage: int
    epoch: int
    lr: float
    loss_total: float
    loss_rec: float | None = None
    loss_embed: float | None = None
    loss_commit: float | None = None
    loss_focal: float | None = None
    loss_mc: float | None = None
    val_eye_mgd_deg: float
    val_head_mgd_deg: float
    codebook_utilization: float | None = None
    prior_top1_acc: float | None = None

    def summed_mgd(self) -> float:
        return self.val_eye_mgd_deg + self.val_head_mgd_deg

    def rank(self) -> tuple:
        """Best-epoch order, lowest first: summed MGD, then higher top-1, then lower focal loss.

        Stage 1 has neither of the last two (they count as 0), so only its MGD ranks.
        """
        return self.summed_mgd(), -(self.prior_top1_acc or 0.0), self.loss_focal or 0.0

    def row(self) -> list:
        # float() first: the repr of a numpy scalar carries its type name
        return ["" if v is None else repr(float(v)) if isinstance(v, float) else v
                for v in asdict(self).values()]


METRICS_COLUMNS = [f.name for f in fields(EpochMetrics)]


def dataset_arrays(dataset: Dataset, which: str):
    """(Y, C) allocation and condition rows for one split, in file order."""
    rows = np.array(dataset.split) == which
    if not rows.any():
        raise TrainingError(f"dataset has no {which!r} samples")
    return dataset.allocations[rows], dataset.conditions[rows]


def _checked_split(stage: int, which: str, dataset: Dataset, target_scale: float):
    """``model_inputs`` of one split's rows; a NaN or inf raises a TrainingError naming both."""
    Y, C = dataset_arrays(dataset, which)
    try:
        return model_inputs(Y, C, target_scale)
    except ValueError as exc:
        raise TrainingError(f"stage {stage} {which} split: {exc}") from exc


def _mgd(d_eye: np.ndarray, d_head: np.ndarray):
    """Per-component MGD (degrees) of per-row pose errors (radians)."""
    return math.degrees(float(d_eye.mean())), math.degrees(float(d_head.mean()))


@dataclass
class StageResult:
    stage: int
    metrics: list
    best_epoch: int
    best_params: np.ndarray  # flat copy, in the trained model's layout
    # per epoch: {"stage", "epoch", "step_s", "optimizer_s", "validation_s"}
    timings: list


def _fit(stage: int, flat: np.ndarray, layout: nets.Layout, rows: tuple, epochs: int,
         rng: np.random.Generator, config: TrainConfig, step, end_epoch) -> StageResult:
    """The epoch loop of both stages; leaves ``flat`` at its best epoch.

    The best epoch is the first of lowest ``EpochMetrics.rank``.

    ``rows`` holds the stage's per-row arrays, each indexed by training
    row first. Each epoch walks a shuffle of the n training rows in batches
    (a short final batch is kept): it gathers every array of ``rows`` in
    the shuffled order once, and ``step(batch, *slices)`` gets the batch's
    row indices and the batch's contiguous ``[start:stop]`` slice of each
    gathered array, the rows ``array[batch]`` would give. It returns
    (loss-term array, flat gradient) for Adam to apply to ``flat``, the
    gradient in ``layout``, the model's own, by which Adam names a
    non-finite one's parameter; ``end_epoch(epoch, lr, means)`` turns the
    row-weighted mean terms into EpochMetrics. A ValueError from a step or
    the update (a NonFiniteGradient among them) becomes a TrainingError.
    The wall time of each epoch's steps, updates and ``end_epoch`` goes to
    the result's ``timings``.
    """
    adam = nets.AdamState(config.lr, layout, config.weight_decay)
    metrics, timings = [], []
    best_epoch, best_params = None, np.empty_like(flat)
    n = len(rows[0])
    for epoch in range(epochs):
        adam.lr = config.lr_at(epoch)
        perm = rng.permutation(n)
        shuffled = [a[perm] for a in rows]
        sums = 0.0
        step_s = optimizer_s = 0.0
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            batch = perm[start:stop]
            try:
                t0 = time.perf_counter()
                terms, grad = step(batch, *[a[start:stop] for a in shuffled])
                t1 = time.perf_counter()
                nets.adam_step(adam, flat, grad)
                t2 = time.perf_counter()
            except ValueError as exc:
                raise TrainingError(f"stage {stage} epoch {epoch}: {exc}") from exc
            step_s += t1 - t0
            optimizer_s += t2 - t1
            sums = sums + terms * len(batch)
        t0 = time.perf_counter()
        metrics.append(end_epoch(epoch, adam.lr, sums / n))
        timings.append({"stage": stage, "epoch": epoch, "step_s": step_s,
                        "optimizer_s": optimizer_s, "validation_s": time.perf_counter() - t0})
        if best_epoch is None or metrics[-1].rank() < metrics[best_epoch].rank():
            best_epoch = epoch
            best_params[...] = flat
    flat[...] = best_params
    return StageResult(stage, metrics, best_epoch, best_params, timings)


def validate_stage1(model: ConditionalVQVAE, Yv, Xv, Rv):
    """(eye MGD, head MGD, codebook utilization) of the teacher-forced pass over
    ``(Yv, Xv) = model_inputs(...)`` of a split, against its true rotations ``Rv``."""
    idx, _, _, pred = model.forward_rows(Yv, Xv)
    eye_mgd, head_mgd = _mgd(*pose_errors_rows(pred, Xv, Rv))
    utilization = len(np.unique(idx)) / model.config.codebook_size
    return eye_mgd, head_mgd, utilization


def train_stage1(dataset: Dataset, config: TrainConfig = TrainConfig()):
    """Train the VQ-VAE; returns (model restored to best epoch, StageResult)."""
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    model = ConditionalVQVAE(config.vqvae_config(), seed=config.seed)
    Y, X = _checked_split(1, "train", dataset, config.target_scale)
    Yv, Xv = _checked_split(1, "val", dataset, config.target_scale)
    R_true, Rv = target_rotations(Y, X), target_rotations(Yv, Xv)

    def step(batch, Yb, Xb, Rb):
        terms, grad = model.loss_and_grads(Yb, Xb, R_true=Rb)
        return np.array([terms.total, terms.rec, terms.embed, terms.commit]), grad

    def end_epoch(epoch, lr, means):
        total, rec, embed, commit = means.tolist()
        eye_mgd, head_mgd, utilization = validate_stage1(model, Yv, Xv, Rv)
        return EpochMetrics(
            stage=1, epoch=epoch, lr=lr, loss_total=total,
            loss_rec=rec, loss_embed=embed, loss_commit=commit,
            val_eye_mgd_deg=eye_mgd, val_head_mgd_deg=head_mgd,
            codebook_utilization=utilization,
        )

    result = _fit(1, model.flat, model.layout, (Y, X, R_true), config.stage1_epochs,
                  np.random.default_rng(seeds[1]), config, step, end_epoch)
    return model, result


def record_codes(model: ConditionalVQVAE, Y, X) -> np.ndarray:
    """Code index the frozen encoder assigns to each row of a split's ``model_inputs``, in order."""
    idx, _ = quantize_rows(model.encode_rows(Y, X), model.codebook)
    return idx


@dataclass(frozen=True)
class CodeErrors:
    """Pose errors (radians) of every code's decoded allocation: (n, K) per component."""

    eye: np.ndarray
    head: np.ndarray

    @classmethod
    def of(cls, preds: np.ndarray, X: np.ndarray, R_true: np.ndarray) -> "CodeErrors":
        """Tables for ``preds = model.decode_codes(X)`` against ``R_true``, the true rotations."""
        eye, head = zip(*(pose_errors_rows(pred, X, R_true) for pred in preds))
        return cls(np.stack(eye, axis=1), np.stack(head, axis=1))

    def at(self, rows: np.ndarray, codes: np.ndarray):
        """(d_eye, d_head) of ``codes[i]`` decoded for row ``rows[i]``."""
        return self.eye[rows, codes], self.head[rows, codes]


def validate_stage2(prior, Xv, val_errors: CodeErrors, val_labels):
    """(eye MGD, head MGD, top-1 agreement, codes) of the prior's argmax codes
    for the normalised condition rows ``Xv`` (``condition_inputs``) of a split.

    ``codes`` holds each row's argmax code, for callers that break the
    split down by code.
    """
    codes = np.argmax(prior_mod.softmax_rows(prior.logits_rows(Xv)), axis=1)
    eye_mgd, head_mgd = _mgd(*val_errors.at(np.arange(len(codes)), codes))
    top1 = float((codes == val_labels).mean())
    return eye_mgd, head_mgd, top1, codes


def train_stage2(model: ConditionalVQVAE, dataset: Dataset, config: TrainConfig = TrainConfig()):
    """Fit the conditional prior against the codes the frozen ``model`` assigns.

    A ``model`` whose ``codebook_size`` or ``target_scale`` differs from
    ``config``'s (``shared_target_scale``) raises a TrainingError naming
    both values. The labels and decoded tables come from the same split
    inputs as the prior's. The VQ-VAE is treated as frozen throughout.
    """
    try:
        scale = shared_target_scale(model, config)
    except ValueError as exc:
        raise TrainingError(f"stage 2: {exc}") from exc
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    prior = ConditionalPrior(config.prior_config(), seed=config.seed + 1)
    Y, X = _checked_split(2, "train", dataset, scale)
    Yv, Xv = _checked_split(2, "val", dataset, scale)
    labels, val_labels = record_codes(model, Y, X), record_codes(model, Yv, Xv)
    errors = CodeErrors.of(model.decode_codes(X), X, target_rotations(Y, X))
    val_errors = CodeErrors.of(model.decode_codes(Xv), Xv, target_rotations(Yv, Xv))

    def step(batch, Xb, labels_b):
        logits = prior.logits_rows(Xb)
        focal, _, dlogits = prior_mod.focal_loss_rows(logits, labels_b, config.gamma)
        # Motion consistency of the argmax code, value-only: the argmax blocks
        # any gradient.
        d_eye, d_head = errors.at(batch, np.argmax(logits, axis=1))
        # float(sum) / n: the bits of mean(), without its fixed cost
        mc = float((d_eye + config.lambda_mc * d_head).sum()) / len(batch)
        if not (math.isfinite(focal) and math.isfinite(mc)):
            raise ValueError("non-finite loss")
        grad, _ = prior.net.backward(dlogits, input_grad=False)
        return np.array([focal, mc]), grad

    def end_epoch(epoch, lr, means):
        focal, mc = means.tolist()
        eye_mgd, head_mgd, top1, _ = validate_stage2(prior, Xv, val_errors, val_labels)
        return EpochMetrics(
            stage=2, epoch=epoch, lr=lr, loss_total=focal + config.eta * mc,
            loss_focal=focal, loss_mc=mc,
            val_eye_mgd_deg=eye_mgd, val_head_mgd_deg=head_mgd, prior_top1_acc=top1,
        )

    result = _fit(2, prior.net.flat, prior.net.layout, (X, labels), config.stage2_epochs,
                  np.random.default_rng(seeds[3]), config, step, end_epoch)
    return prior, result


@dataclass(slots=True)
class InferenceResult:
    """What ``infer`` returns: the allocation, its code and pi, each holding its own data."""

    allocation: MotionAllocation
    code: int
    pi: np.ndarray


def shared_target_scale(model: ConditionalVQVAE, prior_config: PriorConfig) -> float:
    """The ``target_scale`` of the stage-1 model, which the prior must share.

    Raises ValueError naming both values if the two differ in
    ``codebook_size`` or ``target_scale``: the prior rates the model's codes,
    one normalised condition row feeds both models, and ``train`` always
    writes them equal.
    """
    for name in ("codebook_size", "target_scale"):
        ours, theirs = getattr(model.config, name), getattr(prior_config, name)
        if theirs != ours:
            raise ValueError(f"stage-1 {name} {ours!r} differs from the prior's {theirs!r}")
    return model.config.target_scale


def draw_allocations(model: ConditionalVQVAE, prior: ConditionalPrior, c: np.ndarray, mode: str,
                     rng: np.random.Generator, n: int):
    """Draw n codes from the prior for condition row c (or its argmax n times) and decode them.

    ``c`` is one unnormalised condition row (8,). Returns (pi, the n codes,
    {distinct code: allocation row (5,)}). ``pi`` and each row own their
    data: a copy of row 0 of the (1, K) softmax and of each (1, 5) decode,
    so a result that is kept does not keep those arrays alive. The draws
    leave ``rng`` where n single draws would. The condition is normalised
    once, and that row feeds both models (``shared_target_scale``). Each
    distinct code is decoded once, as one row: in a batch its last bits
    could change. The decoded rows go through ``allocation_violations`` as
    one array, and a row that breaks one of its rules raises ValueError
    naming its code, as does an unknown mode or n below 1.
    """
    if mode not in ("sample", "argmax"):
        raise ValueError(f"unknown inference mode {mode!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    x = condition_inputs(c[None, :], shared_target_scale(model, prior.config))
    pi = prior.forward_rows(x)[0].copy()
    if mode == "argmax":
        codes = np.full(n, int(np.argmax(pi)))
    else:
        codes = prior_mod.sample_code(pi, rng, size=n)
    rows = {k: model.decode_rows(model.codebook[k:k + 1], x)[0].copy()
            for k in dict.fromkeys(codes.tolist())}
    for k, violation in zip(rows, allocation_violations(np.array(list(rows.values())))):
        if violation is not None:
            raise ValueError(f"code {k} decodes to an unusable allocation: {violation}")
    return pi, codes, rows


def infer(model: ConditionalVQVAE, prior: ConditionalPrior, c, mode: str = "sample",
          rng: np.random.Generator | None = None) -> InferenceResult:
    """One code for ConditionVector c: ``draw_allocations`` with n = 1 (a new generator if none)."""
    rng = rng if rng is not None else np.random.default_rng()
    pi, _, rows = draw_allocations(model, prior, c.as_input(), mode, rng, 1)
    [(code, row)] = rows.items()
    return InferenceResult(MotionAllocation(row), code, pi)


def write_metrics_csv(path, rows) -> None:
    """Header plus one formatted row (``EpochMetrics.row()``) per epoch."""
    with open_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        writer.writerows(rows)


def _stage1_rows(path: Path) -> list:
    """The stage-1 rows of an earlier run's metrics file, kept by a stage-2 run."""
    if not path.exists():
        return []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: not UTF-8
        raise TrainingError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != METRICS_COLUMNS:
        raise TrainingError(f"{path} does not have the metrics header {METRICS_COLUMNS}")
    kept = [row for row in rows[1:] if row[:1] == ["1"]]
    if any(len(row) != len(METRICS_COLUMNS) for row in kept):
        raise TrainingError(f"{path} has a stage-1 row without {len(METRICS_COLUMNS)} cells")
    return kept


def write_timings_jsonl(path, records) -> None:
    """One JSON object per line, one line per record (``StageResult.timings``)."""
    with open_atomic(path) as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def _stage1_timings(path: Path) -> list:
    """The stage-1 records of an earlier run's timings file (``TIMINGS_SCHEMA`` lines)."""
    if not path.exists():
        return []
    try:
        with open(path, encoding="utf-8") as fh:
            records = [parse_json(line) for line in fh]
        for line_no, record in enumerate(records, start=1):
            check_object(record, TIMINGS_SCHEMA, "line {}", line_no)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or a bad record
        raise TrainingError(f"cannot read {path} as one JSON object per line: {exc}") from exc
    return [r for r in records if r["stage"] == 1]


@contextmanager
def checkpoint_errors(run_dir):
    """Report a checkpoint of ``run_dir`` that cannot be read or used as a TrainingError.

    The loaders raise OSError for a file they cannot open and ValueError
    for anything else: a damaged file, parameters that do not fit the
    model, a prior linked to other stage-1 bytes or a mismatched
    ``codebook_size`` or ``target_scale``.
    """
    try:
        yield
    except (OSError, ValueError) as exc:
        raise TrainingError(f"cannot load checkpoints from {run_dir}: {exc}") from exc


def run_training(dataset: Dataset, config: TrainConfig, out_dir, stage: str = "both") -> dict:
    """Train the requested stages and write checkpoints + metrics under out_dir.

    ``stage`` is "1", "2", or "both"; stage "2" alone expects stage1.json in
    out_dir from an earlier run on the same dataset file. Both checkpoints
    record ``dataset.sha256`` as ``dataset_hash``, and prior.json records the
    SHA-256 of stage1.json's bytes as ``stage1_sha256``. Returns ``train``'s
    manifest record: ``inputs`` (the digest of a loaded stage1.json),
    ``outputs``, ``dataset_hash`` and ``best`` (each trained stage's best
    epoch and MGDs, keyed ``stage1``/``stage2``).
    """
    if stage not in ("1", "2", "both"):
        raise ConfigError(f"unknown stage selector {stage!r}")
    out = Path(out_dir)
    dataset_hash = dataset.sha256
    # A stage-2-only run keeps the stage-1 rows, so the files match "both".
    rows = _stage1_rows(out / METRICS_FILE) if stage == "2" else []
    timings = _stage1_timings(out / TIMINGS_FILE) if stage == "2" else []
    record = {"inputs": {}, "outputs": [str(out / METRICS_FILE), str(out / TIMINGS_FILE)],
              "dataset_hash": dataset_hash, "best": {}}

    def log(result: StageResult, path: Path) -> dict:
        """Log a trained stage; returns the metadata for its checkpoint at ``path``."""
        best = result.metrics[result.best_epoch]
        mgd = {"val_eye_mgd_deg": best.val_eye_mgd_deg, "val_head_mgd_deg": best.val_head_mgd_deg}
        rows.extend(m.row() for m in result.metrics)
        timings.extend(result.timings)
        record["outputs"].append(str(path))
        record["best"][f"stage{result.stage}"] = {"best_epoch": result.best_epoch, **mgd}
        return {"stage": result.stage, "dataset_hash": dataset_hash,
                "train_config": config.to_dict(), "best": {"epoch": result.best_epoch, **mgd}}

    model = None
    if stage in ("1", "both"):
        model, s1 = train_stage1(dataset, config)
        stage1_sha256 = model.save(out / STAGE1_CHECKPOINT, log(s1, out / STAGE1_CHECKPOINT))
    if stage in ("2", "both"):
        if model is None:
            ckpt_path = out / STAGE1_CHECKPOINT
            if not ckpt_path.exists():
                raise TrainingError(f"stage 2 requested but {ckpt_path} does not exist")
            with checkpoint_errors(out):
                model, ck = ConditionalVQVAE.load(ckpt_path)
            if dataset_hash is None or ck.metadata.get("dataset_hash") != dataset_hash:
                raise TrainingError("stage-1 checkpoint was trained on a different dataset "
                                    "or records no dataset hash")
            stage1_sha256 = record["inputs"][str(ckpt_path)] = ck.sha256
        prior, s2 = train_stage2(model, dataset, config)
        prior.save(out / PRIOR_CHECKPOINT, stage1_sha256=stage1_sha256,
                   metadata=log(s2, out / PRIOR_CHECKPOINT))
    write_metrics_csv(out / METRICS_FILE, rows)
    write_timings_jsonl(out / TIMINGS_FILE, timings)
    return record


def load_models(run_dir):
    """The run's two models, and the SHA-256 of each checkpoint's bytes by path."""
    run = Path(run_dir)
    stage1_path, prior_path = run / STAGE1_CHECKPOINT, run / PRIOR_CHECKPOINT
    with checkpoint_errors(run):
        model, stage1 = ConditionalVQVAE.load(stage1_path)
        prior, ck = ConditionalPrior.load(prior_path, stage1=stage1)
        shared_target_scale(model, prior.config)
    return model, prior, {stage1_path: stage1.sha256, prior_path: ck.sha256}
