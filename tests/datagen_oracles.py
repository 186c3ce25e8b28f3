"""Oracles for the gaze-shift generator and the dataset check: one sample at a time.

``generate_dataset_per_sample`` is the generator ``generate_dataset``
replaced: it draws, allocates and checks one attempt at a time with scalar
rotation math (``generate_sample``, ``allocate_shift``, ``draw_alpha``,
``check_sample``). The package draws the same random stream in chunks and
allocates and checks a chunk at a time; both must write the same bytes and
fail with the same message.

``read_dataset_per_line`` is the reader ``read_dataset`` replaced: it
checks each line as soon as it is parsed, where the package parses every
line first and checks them together. On any file both must return the same
dataset, or name the file and the same line with the same message. The
header and each sample line go through the package's one object rule,
``config.check_object``.

Both oracles build one ``GazeSample`` object per sample, as the package
did before a ``Dataset`` became rows, and convert to a row ``Dataset`` at
the end (``rows_dataset``); ``samples_of`` turns the rows back into sample
objects. ``gaze_ray`` and ``angular_error`` are the scalar geometry both
use; the acceptance test measures every stored sample against them.
``euler_to_matrix``, the rotation of one pose, is built on
``so3.rotation_zyx`` and ``pose_angles``; the package itself only rotates
rows.

The one-row types the package replaced by rows live here too, unchanged:
``EyePose`` and ``HeadPose`` (from ``so3``), ``PoseCondition`` and
``PoseAllocation`` (``vqvae.ConditionVector`` and ``MotionAllocation`` as
they were, one field per pose), and the scalar ``wrap_angle`` and
``geodesic_distance`` (from ``so3``). Their checks are the oracle of
``datagen.condition_violations`` and ``allocation_violations``: same rule,
same order, same words.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from gazeshift import so3
from gazeshift.datagen import (_MIN_TARGET_NORM, CONDITION_FIELDS, DATASET_SCHEMA,
                               DATASET_VERSION, EYE_DOMINANT, HEAD_DOMINANT, HEADER_SCHEMA,
                               SAMPLE_SCHEMA, Dataset, GeneratorConfig)
from gazeshift.config import check_object
from gazeshift.errors import ConfigError, DataError
from gazeshift.reasoner.scenario import check_rotation

FORWARD = np.array([1.0, 0.0, 0.0])


def wrap_angle(angle: float) -> float:
    """Wrap a scalar angle into (-pi, pi]; in-range values pass through exactly."""
    if not math.isfinite(angle):
        raise ValueError(f"cannot wrap non-finite angle {angle!r}")
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = math.pi - (math.pi - angle) % so3.TWO_PI
    # The modulo can round up to 2*pi, which lands on -pi.
    return math.pi if wrapped == -math.pi else wrapped


def geodesic_distance(R1: np.ndarray, R2: np.ndarray) -> float:
    """Geodesic angle between two validated rotation matrices, in [0, pi]."""
    check_rotation(R1)
    check_rotation(R2)
    return float(so3.geodesic_rows(R1, R2))


@dataclass(frozen=True)
class EyePose:
    """Coupled two-axis eye orientation (yaw, pitch), radians."""

    yaw: float
    pitch: float

    def __post_init__(self):
        if not (math.isfinite(self.yaw) and math.isfinite(self.pitch)):
            raise ValueError("eye pose angles must be finite")
        if abs(self.yaw) > math.pi + 1e-9 or abs(self.pitch) > math.pi / 2 + 1e-9:
            raise ValueError(
                f"eye pose outside representational range: yaw={self.yaw}, pitch={self.pitch}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch])


@dataclass(frozen=True)
class HeadPose:
    """Three-axis head orientation (yaw, pitch, roll), radians."""

    yaw: float
    pitch: float
    roll: float

    def __post_init__(self):
        for name in ("yaw", "pitch", "roll"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"head pose {name} must be finite")
            if abs(value) > math.pi + 1e-9:
                raise ValueError(f"head pose {name}={value} outside (-pi, pi]")

    def as_array(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch, self.roll])


@dataclass(frozen=True)
class PoseCondition:
    """Gaze context: current poses plus the 3D target point (base frame, metres)."""

    eye: EyePose
    head: HeadPose
    target: np.ndarray

    def __post_init__(self):
        target = np.asarray(self.target, dtype=float)
        if target.shape != (3,):
            raise ValueError(f"target must be a 3-vector, got shape {target.shape}")
        if not np.all(np.isfinite(target)):
            raise ValueError("target coordinates must be finite")
        if float(np.linalg.norm(target)) <= _MIN_TARGET_NORM:
            raise ValueError(
                f"target norm must exceed {_MIN_TARGET_NORM} m (got {np.linalg.norm(target):.4f})"
            )
        object.__setattr__(self, "target", target)

    def as_input(self) -> np.ndarray:
        """Flatten to the 8 inputs listed in CONDITION_FIELDS (unnormalised)."""
        return np.concatenate([self.eye.as_array(), self.head.as_array(), self.target])

    @classmethod
    def from_input(cls, vec: np.ndarray) -> "PoseCondition":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (len(CONDITION_FIELDS),):
            raise ValueError(f"condition vector must have {len(CONDITION_FIELDS)} entries")
        return cls(EyePose(vec[0], vec[1]), HeadPose(vec[2], vec[3], vec[4]), vec[5:8])


@dataclass(frozen=True)
class PoseAllocation:
    """Eye and head rotation increments realising one gaze shift (radians)."""

    delta_eye: np.ndarray
    delta_head: np.ndarray

    def __post_init__(self):
        de = np.asarray(self.delta_eye, dtype=float)
        dh = np.asarray(self.delta_head, dtype=float)
        if de.shape != (2,) or dh.shape != (3,):
            raise ValueError("delta_eye must be (2,) and delta_head (3,)")
        both = np.concatenate([de, dh])
        if not np.isfinite(both).all():
            raise ValueError("motion increments must be finite")
        if np.abs(both).max() > math.pi:
            raise ValueError("motion increments must lie within [-pi, pi]")
        object.__setattr__(self, "delta_eye", de)
        object.__setattr__(self, "delta_head", dh)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.delta_eye, self.delta_head])


@dataclass(frozen=True)
class GazeSample:
    condition: PoseCondition
    allocation: PoseAllocation
    strategy: str

    def __post_init__(self):
        if self.strategy not in (EYE_DOMINANT, HEAD_DOMINANT):
            raise ValueError(f"unknown strategy tag {self.strategy!r}")


def rows_dataset(samples: list, split: list, seed: int, config: GeneratorConfig) -> Dataset:
    """The row ``Dataset`` of ``samples``, in order."""
    return Dataset(np.array([s.condition.as_input() for s in samples]).reshape(-1, 8),
                   np.array([s.allocation.as_vector() for s in samples]).reshape(-1, 5),
                   [s.strategy for s in samples], split, seed, config)


def samples_of(dataset: Dataset) -> list:
    """One ``GazeSample`` per row of ``dataset``, in order."""
    return [GazeSample(PoseCondition.from_input(c), PoseAllocation(a[:2], a[2:]), strategy)
            for c, a, strategy in zip(dataset.conditions, dataset.allocations,
                                      dataset.strategy)]


Pose = EyePose | HeadPose


def pose_angles(pose: Pose) -> np.ndarray:
    """(yaw, pitch, roll) of a pose; an eye pose's missing roll axis is 0."""
    if isinstance(pose, EyePose):
        return np.array([pose.yaw, pose.pitch, 0.0])
    return pose.as_array()


def euler_to_matrix(pose: Pose) -> np.ndarray:
    """Rotation matrix of a pose; eye poses are promoted with roll = 0."""
    if not isinstance(pose, (EyePose, HeadPose)):
        raise ValueError(f"expected EyePose or HeadPose, got {type(pose).__name__}")
    return so3.rotation_zyx(pose_angles(pose))


def gaze_ray(eye: EyePose, head: HeadPose) -> np.ndarray:
    """Unit gaze direction in the base frame: R_head @ R_eye @ x_forward."""
    return euler_to_matrix(head) @ euler_to_matrix(eye) @ FORWARD


def required_shift(target: np.ndarray) -> tuple[float, float]:
    """Absolute gaze angles (yaw, pitch) that put the combined ray on ``target``."""
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

    With ``rng`` None both noise terms are zero. Returns
    (delta_eye (2,), delta_head (3,)) without limit checks.
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    current_yaw, current_pitch = _ray_angles(gaze_ray(eye, head))
    goal_yaw, goal_pitch = required_shift(target)
    d_yaw = wrap_angle(goal_yaw - current_yaw)
    d_pitch = goal_pitch - current_pitch
    roll_noise = float(rng.normal(0.0, config.roll_noise)) if rng is not None else 0.0
    delta_head = np.array([alpha * d_yaw, -alpha * d_pitch, roll_noise])
    new_head = HeadPose(*so3.wrap_angles(head.as_array() + delta_head))
    t = np.asarray(target, dtype=float)
    v = euler_to_matrix(new_head).T @ (t / np.linalg.norm(t))
    eye_goal_yaw = math.atan2(v[1], v[0])
    eye_goal_pitch = -math.asin(min(1.0, max(-1.0, float(v[2]))))
    delta_eye = np.array([
        wrap_angle(eye_goal_yaw - eye.yaw),
        wrap_angle(eye_goal_pitch - eye.pitch),
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
    """One valid sample by rejection sampling; DataError after max_attempts rejections."""
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
            PoseCondition(eye, head, target),
            PoseAllocation(delta_eye, delta_head),
            strategy,
        )
        if check_sample(sample, config) is None:
            return sample
    raise DataError(
        f"no valid sample after {config.max_attempts} consecutive attempts; "
        "generator limits are likely inconsistent"
    )


def generate_dataset_per_sample(seed: int,
                                config: GeneratorConfig = GeneratorConfig()) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    samples = [generate_sample(rng, config) for _ in range(config.n_samples)]
    n_train = round(config.n_samples * config.train_fraction)
    split = ["train"] * n_train + ["val"] * (config.n_samples - n_train)
    return rows_dataset(samples, split, seed, config)


def read_dataset_per_line(path) -> Dataset:
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
        config = GeneratorConfig.from_dict(header.get("generator"))
    except ConfigError as exc:
        raise DataError(f"{path}: bad generator header: {exc}") from exc
    try:
        check_object(header, HEADER_SCHEMA, "header")
        if header["seed"] < 0:
            raise ValueError(f"header seed must be non-negative, got {header['seed']}")
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    samples, split = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise DataError(f"{path}: line {line_no}: blank line inside dataset")
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {line_no}: invalid JSON: {exc}") from exc
        try:
            check_object(doc, SAMPLE_SCHEMA, "sample")
        except ValueError as exc:
            raise DataError(f"{path}: line {line_no}: {exc}") from exc
        if doc["strategy"] not in (EYE_DOMINANT, HEAD_DOMINANT):
            raise DataError(f"{path}: line {line_no}: bad strategy tag {doc['strategy']!r}")
        if doc["split"] not in ("train", "val"):
            raise DataError(f"{path}: line {line_no}: bad split tag {doc['split']!r}")
        theta_e, theta_h, target, delta_e, delta_h = (
            [float(v) for v in doc[key]]
            for key in ("theta_e", "theta_h", "target", "delta_e", "delta_h"))
        try:
            sample = GazeSample(
                PoseCondition(EyePose(*theta_e), HeadPose(*theta_h), np.array(target)),
                PoseAllocation(np.array(delta_e), np.array(delta_h)),
                doc["strategy"],
            )
        except ValueError as exc:
            raise DataError(f"{path}: line {line_no}: {exc}") from exc
        violation = check_sample(sample, config)
        if violation is not None:
            raise DataError(f"{path}: line {line_no}: invariant violation: {violation}")
        samples.append(sample)
        split.append(doc["split"])
    if header.get("n_samples") != len(samples):
        raise DataError(
            f"{path}: header announces {header.get('n_samples')} samples, found {len(samples)}"
        )
    for which in ("train", "val"):
        if which not in split:
            raise DataError(f"{path}: the split tags leave the {which} split empty")
    return rows_dataset(samples, split, header["seed"], config)
