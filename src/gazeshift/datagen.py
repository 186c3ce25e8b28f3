"""Synthetic eye-head gaze-shift data.

Each sample pairs a gaze context (current eye pose, current head pose, 3D
target point in the base frame) with a motion allocation that actually
lands the combined gaze on the target. The generator mimics the two broad
strategies people use: eye-dominant shifts, where the head contributes a
small fraction of the rotation, and head-dominant shifts, where it carries
most of it. The head fraction alpha is drawn from a two-component Gaussian
mixture and the eyes pick up the exact remainder, after which a little
fixation jitter and head-roll noise keep the data realistic rather than
exactly solvable.

Draws that would exceed the mechanical limits or miss the target by more
than the consistency tolerance are rejected and resampled. Datasets are
stored as JSON lines: one header object, then one object per sample.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import so3
from .atomic import open_atomic
from .config import read_config
from .errors import ConfigError, DataError
from .so3 import EyePose, HeadPose
from .vqvae import ConditionVector, MotionAllocation

DATASET_SCHEMA = "gazeshift-dataset"
DATASET_VERSION = 1

EYE_DOMINANT = "eye-dominant"
HEAD_DOMINANT = "head-dominant"

FORWARD = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class GeneratorConfig:
    """Every knob of the synthetic generator, radians and metres.

    ``strategy_mix`` is the probability of drawing the head-dominant
    mixture component. Initial poses are sampled within half the
    mechanical limits; the limits themselves constrain the post-shift
    poses.
    """

    n_samples: int = 805
    train_fraction: float = 0.8
    # Mostly head-dominant by default: the wide target frustum makes large
    # shifts the norm, and those are executed head-first; eye-dominant
    # allocations remain as the minority strategy.
    strategy_mix: float = 0.95
    # mechanical limits (post-shift)
    eye_yaw_limit: float = math.radians(35.0)
    eye_pitch_limit: float = math.radians(25.0)
    head_yaw_limit: float = math.radians(80.0)
    head_pitch_limit: float = math.radians(40.0)
    head_roll_limit: float = math.radians(10.0)
    # target frustum (spherical, base frame)
    range_min: float = 0.5
    range_max: float = 3.0
    azimuth_limit: float = math.radians(70.0)
    elevation_limit: float = math.radians(35.0)
    # head-contribution mixture
    alpha_eye_mean: float = 0.35
    alpha_head_mean: float = 0.75
    alpha_sd: float = 0.08
    # realism noise; eyes solve the remainder exactly unless jitter is enabled
    roll_noise: float = math.radians(1.5)
    eye_jitter: float = 0.0
    # acceptance
    consistency_tol: float = math.radians(2.0)
    max_attempts: int = 100

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if not 0 <= self.strategy_mix <= 1:
            raise ValueError("strategy_mix must lie in [0, 1]")
        if self.range_min <= 0 or self.range_max <= self.range_min:
            raise ValueError("target range must satisfy 0 < range_min < range_max")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        for name in ("eye_yaw_limit", "eye_pitch_limit", "head_yaw_limit",
                     "head_pitch_limit", "head_roll_limit", "azimuth_limit",
                     "elevation_limit", "alpha_sd", "roll_noise", "eye_jitter",
                     "consistency_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "GeneratorConfig":
        return read_config(cls, doc, "generator")


@dataclass(frozen=True)
class GazeSample:
    condition: ConditionVector
    allocation: MotionAllocation
    strategy: str

    def __post_init__(self):
        if self.strategy not in (EYE_DOMINANT, HEAD_DOMINANT):
            raise ValueError(f"unknown strategy tag {self.strategy!r}")


@dataclass
class Dataset:
    samples: list
    split: list  # "train" / "val", aligned with samples
    seed: int
    config: GeneratorConfig = field(default_factory=GeneratorConfig)

    def __post_init__(self):
        if len(self.samples) != len(self.split):
            raise ValueError("split assignments must align with samples")
        for s in self.split:
            if s not in ("train", "val"):
                raise ValueError(f"unknown split tag {s!r}")

    def subset(self, which: str) -> list:
        return [s for s, tag in zip(self.samples, self.split) if tag == which]

    def content_hash(self) -> str:
        return hashlib.sha256(serialize_dataset(self).encode("utf-8")).hexdigest()


def gaze_ray(eye: EyePose, head: HeadPose) -> np.ndarray:
    """Unit gaze direction in the base frame: R_head @ R_eye @ x_forward."""
    return so3.euler_to_matrix(head) @ so3.euler_to_matrix(eye) @ FORWARD


def required_shift(target: np.ndarray) -> tuple[float, float]:
    """Absolute gaze angles that put the combined eye+head ray on ``target``.

    Returns (yaw, pitch) with yaw = atan2(t_y, t_x) and
    pitch = atan2(t_z, hypot(t_x, t_y)); positive pitch means the target
    sits above the horizontal plane. Independent of the current poses.
    """
    t = np.asarray(target, dtype=float)
    if t.shape != (3,) or not np.all(np.isfinite(t)):
        raise ValueError("target must be a finite 3-vector")
    if float(np.linalg.norm(t)) < 1e-9:
        raise ValueError("target direction is undefined at the origin")
    return math.atan2(t[1], t[0]), math.atan2(t[2], math.hypot(t[0], t[1]))


def _ray_angles(ray: np.ndarray) -> tuple[float, float]:
    return math.atan2(ray[1], ray[0]), math.atan2(ray[2], math.hypot(ray[0], ray[1]))


def angular_error(ray: np.ndarray, target: np.ndarray) -> float:
    """Angle between a gaze ray and the direction of ``target``."""
    t = np.asarray(target, dtype=float)
    denom = float(np.linalg.norm(ray) * np.linalg.norm(t))
    if denom < 1e-12:
        raise ValueError("angular error undefined for zero-length vectors")
    return math.acos(min(1.0, max(-1.0, float(np.dot(ray, t)) / denom)))


def allocate_shift(eye: EyePose, head: HeadPose, target: np.ndarray, alpha: float,
                   config: GeneratorConfig = GeneratorConfig(),
                   rng: np.random.Generator | None = None):
    """Split the shift toward ``target``: head takes ``alpha``, eyes the rest.

    The head receives alpha times the required yaw/pitch change (in gaze
    angles, so a climbing target tips the head up) plus roll noise; the eye
    increments are then solved exactly so the combined ray hits the target,
    plus fixation jitter. With ``rng`` None both noise terms are zero.
    Returns (delta_eye (2,), delta_head (3,)) without limit checks.
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    current_yaw, current_pitch = _ray_angles(gaze_ray(eye, head))
    goal_yaw, goal_pitch = required_shift(target)
    d_yaw = so3.wrap_angle(goal_yaw - current_yaw)
    d_pitch = goal_pitch - current_pitch
    roll_noise = float(rng.normal(0.0, config.roll_noise)) if rng is not None else 0.0
    # Euler pitch is positive downward, gaze pitch positive upward.
    delta_head = np.array([alpha * d_yaw, -alpha * d_pitch, roll_noise])
    new_head = HeadPose(*so3.wrap_angles(head.as_array() + delta_head))
    # Exact eye solution: aim the eye ray at the target in the new head frame.
    t = np.asarray(target, dtype=float)
    v = so3.euler_to_matrix(new_head).T @ (t / np.linalg.norm(t))
    eye_goal_yaw = math.atan2(v[1], v[0])
    eye_goal_pitch = -math.asin(min(1.0, max(-1.0, float(v[2]))))
    delta_eye = np.array([
        so3.wrap_angle(eye_goal_yaw - eye.yaw),
        so3.wrap_angle(eye_goal_pitch - eye.pitch),
    ])
    if rng is not None:
        delta_eye += rng.normal(0.0, config.eye_jitter, size=2)
    return delta_eye, delta_head


def draw_alpha(rng: np.random.Generator, config: GeneratorConfig):
    """Head-contribution ratio from the two-component mixture, clamped to [0, 1]."""
    if rng.random() < config.strategy_mix:
        strategy, mean = HEAD_DOMINANT, config.alpha_head_mean
    else:
        strategy, mean = EYE_DOMINANT, config.alpha_eye_mean
    alpha = float(np.clip(rng.normal(mean, config.alpha_sd), 0.0, 1.0))
    return alpha, strategy


def check_sample(sample: GazeSample, config: GeneratorConfig) -> str | None:
    """Return a violation description, or None if the sample is valid."""
    c, a = sample.condition, sample.allocation
    new_eye_arr = c.eye.as_array() + a.delta_eye
    new_head_arr = c.head.as_array() + a.delta_head
    checks = (
        (abs(new_eye_arr[0]), config.eye_yaw_limit, "eye yaw"),
        (abs(new_eye_arr[1]), config.eye_pitch_limit, "eye pitch"),
        (abs(new_head_arr[0]), config.head_yaw_limit, "head yaw"),
        (abs(new_head_arr[1]), config.head_pitch_limit, "head pitch"),
        (abs(new_head_arr[2]), config.head_roll_limit, "head roll"),
    )
    for value, limit, label in checks:
        if value > limit + 1e-12:
            return f"{label} limit exceeded ({value:.4f} > {limit:.4f})"
    new_eye = EyePose(*new_eye_arr)
    new_head = HeadPose(*new_head_arr)
    err = angular_error(gaze_ray(new_eye, new_head), c.target)
    if err > config.consistency_tol:
        return f"gaze misses target by {math.degrees(err):.3f} deg"
    return None


def generate_sample(rng: np.random.Generator,
                    config: GeneratorConfig = GeneratorConfig()) -> GazeSample:
    """One valid sample by rejection sampling.

    Raises DataError after ``config.max_attempts`` consecutive rejections,
    which indicates an unsatisfiable configuration.
    """
    for _ in range(config.max_attempts):
        eye = EyePose(
            rng.uniform(-config.eye_yaw_limit / 2, config.eye_yaw_limit / 2),
            rng.uniform(-config.eye_pitch_limit / 2, config.eye_pitch_limit / 2),
        )
        head = HeadPose(
            rng.uniform(-config.head_yaw_limit / 2, config.head_yaw_limit / 2),
            rng.uniform(-config.head_pitch_limit / 2, config.head_pitch_limit / 2),
            rng.uniform(-config.head_roll_limit / 2, config.head_roll_limit / 2),
        )
        r = rng.uniform(config.range_min, config.range_max)
        az = rng.uniform(-config.azimuth_limit, config.azimuth_limit)
        el = rng.uniform(-config.elevation_limit, config.elevation_limit)
        target = r * np.array([
            math.cos(el) * math.cos(az),
            math.cos(el) * math.sin(az),
            math.sin(el),
        ])
        alpha, strategy = draw_alpha(rng, config)
        delta_eye, delta_head = allocate_shift(eye, head, target, alpha, config, rng)
        if max(abs(float(x)) for x in np.concatenate([delta_eye, delta_head])) > math.pi:
            continue
        sample = GazeSample(
            ConditionVector(eye, head, target),
            MotionAllocation(delta_eye, delta_head),
            strategy,
        )
        if check_sample(sample, config) is None:
            return sample
    raise DataError(
        f"no valid sample after {config.max_attempts} consecutive attempts; "
        "generator limits are likely inconsistent"
    )


def generate_dataset(seed: int, config: GeneratorConfig = GeneratorConfig()) -> Dataset:
    """Full dataset with a deterministic train/val split.

    The first round(n * train_fraction) samples are the training split;
    samples are i.i.d. so the assignment is as good as any shuffle and it
    keeps the file layout stable.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    samples = [generate_sample(rng, config) for _ in range(config.n_samples)]
    n_train = round(config.n_samples * config.train_fraction)
    split = ["train"] * n_train + ["val"] * (config.n_samples - n_train)
    return Dataset(samples, split, seed, config)


# -- JSON lines persistence ----------------------------------------------------


def _sample_to_doc(sample: GazeSample, split: str) -> dict:
    c, a = sample.condition, sample.allocation
    return {
        "theta_e": [c.eye.yaw, c.eye.pitch],
        "theta_h": [c.head.yaw, c.head.pitch, c.head.roll],
        "target": c.target.tolist(),
        "delta_e": a.delta_eye.tolist(),
        "delta_h": a.delta_head.tolist(),
        "strategy": sample.strategy,
        "split": split,
    }


def serialize_dataset(dataset: Dataset) -> str:
    header = {
        "schema": DATASET_SCHEMA,
        "version": DATASET_VERSION,
        "seed": dataset.seed,
        "n_samples": len(dataset.samples),
        "generator": dataset.config.to_dict(),
    }
    buf = io.StringIO()
    buf.write(json.dumps(header, sort_keys=True) + "\n")
    for sample, split in zip(dataset.samples, dataset.split):
        buf.write(json.dumps(_sample_to_doc(sample, split), sort_keys=True) + "\n")
    return buf.getvalue()


def write_dataset(dataset: Dataset, path) -> None:
    with open_atomic(path) as fh:
        fh.write(serialize_dataset(dataset))


def _parse_floats(doc: dict, key: str, width: int, line_no: int) -> list[float]:
    value = doc.get(key)
    if (not isinstance(value, list) or len(value) != width
            or not all(isinstance(x, (int, float)) and math.isfinite(x) for x in value)):
        raise DataError(f"line {line_no}: field {key!r} must be {width} finite numbers")
    return [float(x) for x in value]


def read_dataset(path) -> Dataset:
    """Read and validate a dataset file.

    Every sample is re-checked against the generator invariants recorded in
    the header; any violation names the offending line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != DATASET_SCHEMA:
        raise DataError(f"{path}: missing {DATASET_SCHEMA} header")
    if header.get("version") != DATASET_VERSION:
        raise DataError(f"{path}: unsupported dataset version {header.get('version')!r}")
    try:
        config = GeneratorConfig.from_dict(header.get("generator", {}))
    except ConfigError as exc:
        raise DataError(f"{path}: bad generator header: {exc}") from exc
    samples, split = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise DataError(f"line {line_no}: blank line inside dataset")
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {line_no}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataError(f"line {line_no}: a sample must be a JSON object")
        theta_e = _parse_floats(doc, "theta_e", 2, line_no)
        theta_h = _parse_floats(doc, "theta_h", 3, line_no)
        target = _parse_floats(doc, "target", 3, line_no)
        delta_e = _parse_floats(doc, "delta_e", 2, line_no)
        delta_h = _parse_floats(doc, "delta_h", 3, line_no)
        if doc.get("strategy") not in (EYE_DOMINANT, HEAD_DOMINANT):
            raise DataError(f"line {line_no}: bad strategy tag {doc.get('strategy')!r}")
        if doc.get("split") not in ("train", "val"):
            raise DataError(f"line {line_no}: bad split tag {doc.get('split')!r}")
        try:
            sample = GazeSample(
                ConditionVector(EyePose(*theta_e), HeadPose(*theta_h), np.array(target)),
                MotionAllocation(np.array(delta_e), np.array(delta_h)),
                doc["strategy"],
            )
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
        violation = check_sample(sample, config)
        if violation is not None:
            raise DataError(f"line {line_no}: invariant violation: {violation}")
        samples.append(sample)
        split.append(doc["split"])
    if header.get("n_samples") != len(samples):
        raise DataError(
            f"{path}: header announces {header.get('n_samples')} samples, found {len(samples)}"
        )
    return Dataset(samples, split, header.get("seed", 0), config)
