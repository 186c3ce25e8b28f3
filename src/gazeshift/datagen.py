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
than the consistency tolerance are rejected and resampled. Attempts are
drawn, allocated and checked a chunk at a time, with the random stream read
in the order of one attempt after another, so the data do not depend on the
chunk size. A ``Dataset`` holds its samples as rows, in file order: (n, 8)
``conditions`` (eye yaw, pitch; head yaw, pitch, roll; target x, y, z) and
(n, 5) ``allocations`` (their increments, eye then head), with a strategy
and a split tag per row. Datasets are stored as JSON lines: one header
object, then one object per sample.

The value rules of those rows, ``condition_violations`` and
``allocation_violations``, live here with their column layouts; the model
layers (``vqvae``, ``trainer``) import them from here, so ``gen-data``
runs no model layer.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from . import so3
from .atomic import read_text, write_text
from .config import Schema, check_object, parse_json, read_config
from .errors import ConfigError, DataError

DATASET_SCHEMA = "gazeshift-dataset"
DATASET_VERSION = 1
# The header line under ``config.check_object``: the five keys ``serialize_dataset`` writes.
HEADER_SCHEMA = Schema({"schema": "str", "version": "int", "seed": "int", "n_samples": "int",
                        "generator": "dict"})
# A sample line under the same rule: the seven keys ``serialize_dataset`` writes.
SAMPLE_SCHEMA = Schema({"theta_e": "float[2]", "theta_h": "float[3]", "target": "float[3]",
                        "delta_e": "float[2]", "delta_h": "float[3]", "strategy": "str",
                        "split": "str"})

EYE_DOMINANT = "eye-dominant"
HEAD_DOMINANT = "head-dominant"

FORWARD = np.array([1.0, 0.0, 0.0])

# The five post-shift angles of a pose row (eye yaw and pitch, then head yaw,
# pitch and roll), each with its limit, in the order the checks report them.
POSE_LIMITS = (("eye yaw", "eye_yaw_limit"), ("eye pitch", "eye_pitch_limit"),
               ("head yaw", "head_yaw_limit"), ("head pitch", "head_pitch_limit"),
               ("head roll", "head_roll_limit"))

# At most this many attempts are drawn and checked together.
MAX_CHUNK = 4096

# Column layout of the flattened condition input.
CONDITION_FIELDS = (
    "eye_yaw",
    "eye_pitch",
    "head_yaw",
    "head_pitch",
    "head_roll",
    "target_x",
    "target_y",
    "target_z",
)

# Column layout of a flattened motion allocation.
ALLOCATION_FIELDS = (
    "delta_eye_yaw",
    "delta_eye_pitch",
    "delta_head_yaw",
    "delta_head_pitch",
    "delta_head_roll",
)

_MIN_TARGET_NORM = 0.05


# -- row value rules -------------------------------------------------------------

def _first_violations(rules: list, n: int) -> list:
    """Per row, the message of the first rule it breaks, or None. ``rules`` are (broken,
    message) pairs in check order: ``broken`` masks the n rows, ``message(i)`` words row i."""
    violations = [None] * n
    for broken, message in reversed(rules):  # an earlier rule overwrites a later one
        for i in broken.nonzero()[0].tolist():
            violations[i] = message(i)
    return violations


def condition_violations(C: np.ndarray) -> list:
    """The first value rule each (n, 8) condition row breaks, or None where it breaks none.

    In check order: the eye angles must be finite and lie within pi (yaw)
    and pi/2 (pitch); each head angle, yaw, pitch, then roll, must be finite
    and lie within pi (each range with a 1e-9 tolerance); the target must be
    finite, and its norm, ``np.linalg.norm``'s bit for bit, exceed ``_MIN_TARGET_NORM``.
    """
    C = np.asarray(C, dtype=float)
    finite, size, T = np.isfinite(C), np.abs(C), C[:, 5:8]
    with np.errstate(invalid="ignore", over="ignore"):
        norms = np.sqrt(_row_dots(T, T))
    rules = [(~finite[:, :2].all(axis=1), lambda i: "eye pose angles must be finite"),
             ((size[:, 0] > math.pi + 1e-9) | (size[:, 1] > math.pi / 2 + 1e-9),
              lambda i: (f"eye pose outside representational range: "
                         f"yaw={float(C[i, 0])}, pitch={float(C[i, 1])}"))]
    for j, name in enumerate(("yaw", "pitch", "roll"), start=2):
        rules += [(~finite[:, j], lambda i, name=name: f"head pose {name} must be finite"),
                  (size[:, j] > math.pi + 1e-9, lambda i, j=j, name=name:
                   f"head pose {name}={float(C[i, j])} outside (-pi, pi]")]
    rules += [(~finite[:, 5:8].all(axis=1), lambda i: "target coordinates must be finite"),
              (norms <= _MIN_TARGET_NORM, lambda i: (f"target norm must exceed {_MIN_TARGET_NORM}"
                                                     f" m (got {norms[i]:.4f})"))]
    return _first_violations(rules, len(C))


def allocation_violations(A: np.ndarray) -> list:
    """The first value rule each (n, 5) allocation row breaks, or None where it breaks none:
    every increment must be finite, then lie within [-pi, pi].

    One reduction clears the whole set when its largest |increment| is at most pi; a
    NaN carries through the max and fails it, so only a set with a bad row goes on
    to the per-rule scan.
    """
    size = np.abs(np.asarray(A, dtype=float))
    if size.max(initial=0.0) <= math.pi:  # initial: an empty set has no bad row
        return [None] * len(size)
    largest = size.max(axis=1)  # NaN where a row holds one
    return _first_violations([(~np.isfinite(largest), lambda i: "motion increments must be finite"),
                              (largest > math.pi,
                               lambda i: "motion increments must lie within [-pi, pi]")],
                             len(largest))


@dataclass(frozen=True)
class GeneratorConfig:
    """Every knob of the synthetic generator, radians and metres.

    ``strategy_mix`` is the probability of drawing the head-dominant
    mixture component. Initial poses are sampled within half the
    mechanical limits; the limits themselves constrain the post-shift
    poses. The eye pitch limit is at most pi/2 and the other four at most
    pi, so every pose within the limits is a valid pose, and ``range_min``
    exceeds the floor on a condition's target norm, so every drawn target
    is a valid target. The split rule, ``n_train``, leaves neither split empty.
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
        if not 0 < self.n_samples <= sys.float_info.max:  # the split rule takes it as a float
            raise ValueError("n_samples must be positive and lie within the float range")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if not 0 < self.n_train() < self.n_samples:
            raise ValueError(f"train_fraction {self.train_fraction} of {self.n_samples} samples "
                             f"leaves the {'train' if self.n_train() < 1 else 'val'} split empty")
        if not 0 <= self.strategy_mix <= 1:
            raise ValueError("strategy_mix must lie in [0, 1]")
        if self.range_min <= _MIN_TARGET_NORM:
            raise ValueError(f"range_min must exceed the minimum target norm of "
                             f"{_MIN_TARGET_NORM} m, got {self.range_min}")
        if self.range_max <= self.range_min:
            raise ValueError("target range must satisfy range_min < range_max")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        for name in ("eye_yaw_limit", "eye_pitch_limit", "head_yaw_limit",
                     "head_pitch_limit", "head_roll_limit", "azimuth_limit",
                     "elevation_limit", "alpha_sd", "roll_noise", "eye_jitter",
                     "consistency_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # A condition row's eye pitch may reach pi/2 and its other angles pi
        # (condition_violations).
        if self.eye_pitch_limit > math.pi / 2:
            raise ValueError(f"eye_pitch_limit must be at most pi/2, got {self.eye_pitch_limit}")
        for name in ("eye_yaw_limit", "head_yaw_limit", "head_pitch_limit", "head_roll_limit"):
            if getattr(self, name) > math.pi:
                raise ValueError(f"{name} must be at most pi, got {getattr(self, name)}")

    def n_train(self) -> int:
        """The split rule: the first round(n_samples * train_fraction) samples train."""
        return round(self.n_samples * self.train_fraction)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "GeneratorConfig":
        return read_config(cls, doc, "generator")


@dataclass
class Dataset:
    """Samples as rows, in file order.

    ``conditions`` (n, 8) are unnormalised ``CONDITION_FIELDS`` rows:
    eye yaw and pitch, head yaw, pitch and roll, target x, y and z (metres).
    ``allocations`` (n, 5) are ``ALLOCATION_FIELDS`` rows: eye yaw and
    pitch increments, then head yaw, pitch and roll increments.
    """

    conditions: np.ndarray
    allocations: np.ndarray
    strategy: list  # EYE_DOMINANT / HEAD_DOMINANT, as the file spells them
    split: list  # "train" / "val", as the file spells them
    seed: int
    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    sha256: str | None = None  # of the file ``read_dataset`` read; None for one made in memory

    def __post_init__(self):
        n = len(self.split)
        if (np.shape(self.conditions) != (n, 8) or np.shape(self.allocations) != (n, 5)
                or len(self.strategy) != n):
            raise ValueError("condition rows (n, 8), allocation rows (n, 5), strategy and "
                             "split tags must align")
        for s in self.strategy:
            if s not in (EYE_DOMINANT, HEAD_DOMINANT):
                raise ValueError(f"unknown strategy tag {s!r}")
        for s in self.split:
            if s not in ("train", "val"):
                raise ValueError(f"unknown split tag {s!r}")


# -- row geometry ----------------------------------------------------------------
#
# Every function here takes and returns rows. The products are numpy's
# stacked matmul, which hands each row to the same BLAS kernel as a single
# 3x3 or 3-vector product, and the inverse trigonometric functions are
# Python's ``math``, element by element: numpy's ``arctan2`` and
# ``linalg.norm(axis=1)`` round some rows differently.


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each pair of rows, each as one BLAS ``ddot``, like ``np.dot``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def gaze_rays(eye: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Unit gaze direction in the base frame of each row: R_head @ R_eye @ x_forward.

    ``eye`` holds (yaw, pitch) rows, promoted with roll 0, and ``head``
    (yaw, pitch, roll) rows; the result has one 3-vector per row.
    """
    eye = np.asarray(eye, dtype=float)
    eye_angles = np.zeros((len(eye), 3))
    eye_angles[:, :2] = eye
    rotations = np.matmul(so3.rotation_zyx(head), so3.rotation_zyx(eye_angles))
    return np.matmul(rotations, FORWARD)


def gaze_angles(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaze (yaw, pitch) of each row's direction, which need not be unit length.

    yaw = atan2(y, x) and pitch = atan2(z, hypot(x, y)); positive pitch
    points above the horizontal plane.
    """
    rows = np.asarray(directions, dtype=float).tolist()
    atan2, hypot = math.atan2, math.hypot
    return (np.array([atan2(y, x) for x, y, _ in rows]),
            np.array([atan2(z, hypot(x, y)) for x, y, z in rows]))


def angular_errors(rays: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Angle between each gaze ray and the direction of its row's target."""
    denom = np.sqrt(_row_dots(rays, rays)) * np.sqrt(_row_dots(targets, targets))
    if (denom < 1e-12).any():
        raise ValueError("angular error undefined for zero-length vectors")
    cosines = np.minimum(1.0, np.maximum(-1.0, _row_dots(rays, targets) / denom))
    return np.array([math.acos(c) for c in cosines.tolist()])


def allocate_rows(eye: np.ndarray, head: np.ndarray, targets: np.ndarray, alpha: np.ndarray,
                  roll_noise, eye_jitter):
    """Split each row's shift toward its target: the head takes ``alpha``, the eyes the rest.

    The head receives alpha times the required yaw/pitch change (in gaze
    angles, so a climbing target tips the head up) plus ``roll_noise``; the
    eye increments are then solved exactly so the combined ray hits the
    target, plus ``eye_jitter``. Rows are eye (m, 2), head (m, 3), targets
    (m, 3) and alpha (m,); the noise terms broadcast against (m,) and
    (m, 2). Returns (delta_eye (m, 2), delta_head (m, 3)) without limit
    checks.
    """
    eye, head = np.asarray(eye, dtype=float), np.asarray(head, dtype=float)
    targets, alpha = np.asarray(targets, dtype=float), np.asarray(alpha, dtype=float)
    if not ((alpha >= 0) & (alpha <= 1)).all():
        raise ValueError("alpha must lie in [0, 1]")
    current_yaw, current_pitch = gaze_angles(gaze_rays(eye, head))
    goal_yaw, goal_pitch = gaze_angles(targets)
    delta_head = np.empty((len(eye), 3))
    delta_head[:, 0] = alpha * so3.wrap_angles(goal_yaw - current_yaw)
    # Euler pitch is positive downward, gaze pitch positive upward.
    delta_head[:, 1] = -alpha * (goal_pitch - current_pitch)
    delta_head[:, 2] = roll_noise
    new_head = so3.wrap_angles(head + delta_head)
    # Exact eye solution: aim the eye ray at the target in the new head frame.
    unit = targets / np.sqrt(_row_dots(targets, targets))[:, None]
    aim = np.matmul(np.swapaxes(so3.rotation_zyx(new_head), 1, 2), unit[:, :, None])[:, :, 0]
    atan2, asin = math.atan2, math.asin
    rows = aim.tolist()
    eye_goal = np.array([(atan2(y, x), -asin(min(1.0, max(-1.0, z)))) for x, y, z in rows])
    delta_eye = so3.wrap_angles(eye_goal.reshape(-1, 2) - eye) + eye_jitter
    return delta_eye, delta_head


def check_rows(poses: np.ndarray, deltas: np.ndarray, targets: np.ndarray,
               config: GeneratorConfig) -> list:
    """The violation of each row, or None where the row is valid.

    ``poses`` and ``deltas`` are (m, 5) rows of eye yaw and pitch and head
    yaw, pitch and roll, ``targets`` (m, 3). A row is checked first against
    the limits of its post-shift angles, in ``POSE_LIMITS`` order, then for
    a combined gaze ray within ``consistency_tol`` of its target; the
    description names the first check it fails.
    """
    new = np.asarray(poses, dtype=float) + deltas
    limits = np.array([getattr(config, name) for _, name in POSE_LIMITS])
    over = np.abs(new) > limits + 1e-12
    errors = angular_errors(gaze_rays(new[:, :2], new[:, 2:]), targets)
    failed = over.any(axis=1)
    violations = [None] * len(new)
    for i in np.flatnonzero(failed | (errors > config.consistency_tol)).tolist():
        if failed[i]:
            k = int(over[i].argmax())
            violations[i] = (f"{POSE_LIMITS[k][0]} limit exceeded "
                             f"({abs(new[i, k]):.4f} > {limits[k]:.4f})")
        else:
            violations[i] = f"gaze misses target by {math.degrees(errors[i]):.3f} deg"
    return violations


def draw_attempts(rng: np.random.Generator, config: GeneratorConfig, m: int):
    """The random draws of ``m`` attempts, read from ``rng`` as ``m`` single attempts would.

    Each attempt reads nine uniform doubles and then four standard normals.
    The uniforms become the initial eye yaw and pitch and head yaw, pitch
    and roll (within half the limits), the target's range, azimuth and
    elevation, and the strategy: head-dominant below ``strategy_mix``. The
    normals become alpha around that strategy's mean (clamped to [0, 1]),
    the head-roll noise and the eye yaw and pitch jitter. Each value is
    computed as numpy's ``uniform`` and ``normal`` compute it, low + (high -
    low) * u and loc + scale * z, so the bits match those calls.

    Returns (poses (m, 5), targets (m, 3), head_dominant (m,), alpha (m,),
    roll_noise (m,), eye_jitter (m, 2)).
    """
    uniforms, normals = np.empty((m, 9)), np.empty((m, 4))
    random, standard_normal = rng.random, rng.standard_normal
    for u, z in zip(uniforms, normals):
        random(out=u)
        standard_normal(out=z)
    half = [config.eye_yaw_limit / 2, config.eye_pitch_limit / 2, config.head_yaw_limit / 2,
            config.head_pitch_limit / 2, config.head_roll_limit / 2]
    low = np.array([-h for h in half]
                   + [config.range_min, -config.azimuth_limit, -config.elevation_limit])
    high = np.array(half + [config.range_max, config.azimuth_limit, config.elevation_limit])
    drawn = low + (high - low) * uniforms[:, :8]
    cos, sin = math.cos, math.sin
    directions = [(cos(el) * cos(az), cos(el) * sin(az), sin(el))
                  for az, el in drawn[:, 6:8].tolist()]
    targets = drawn[:, 5:6] * np.array(directions).reshape(-1, 3)
    head_dominant = uniforms[:, 8] < config.strategy_mix
    mean = np.where(head_dominant, config.alpha_head_mean, config.alpha_eye_mean)
    alpha = np.clip(mean + config.alpha_sd * normals[:, 0], 0.0, 1.0)
    # A zero loc still counts: 0.0 + (-0.0) is +0.0.
    roll_noise = 0.0 + config.roll_noise * normals[:, 1]
    eye_jitter = 0.0 + config.eye_jitter * normals[:, 2:]
    return drawn[:, :5], targets, head_dominant, alpha, roll_noise, eye_jitter


def generate_dataset(seed: int, config: GeneratorConfig = GeneratorConfig()) -> Dataset:
    """Full dataset with a deterministic train/val split.

    Keeps the first ``n_samples`` valid attempts in attempt order; an
    attempt is valid when it breaks no rule of ``allocation_violations``
    (every increment finite and within [-pi, pi]) and passes
    ``check_rows``, the same rules ``read_dataset`` checks. Raises
    DataError after ``config.max_attempts`` consecutive rejections, which
    indicates an unsatisfiable configuration.
    The attempts past the last kept one in its chunk are drawn and dropped.

    The first ``config.n_train()`` samples are the training split;
    samples are i.i.d. so the assignment is as good as any shuffle and it
    keeps the file layout stable.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = config.n_samples
    conditions, allocations, strategy = [], [], []
    attempts, rejected = 0, 0
    while len(strategy) < n:
        # Enough attempts for the samples still missing at the acceptance
        # rate so far, and a few more.
        rate = (len(strategy) + 1) / (attempts + 1)
        m = min(MAX_CHUNK, int((n - len(strategy)) / rate * 1.0625) + 8)
        attempts += m
        poses, targets, head_dominant, alpha, roll_noise, eye_jitter = draw_attempts(
            rng, config, m)
        delta_eye, delta_head = allocate_rows(poses[:, :2], poses[:, 2:], targets, alpha,
                                              roll_noise, eye_jitter)
        deltas = np.concatenate([delta_eye, delta_head], axis=1)
        out_of_range = allocation_violations(deltas)
        kept = []
        for i, violation in enumerate(check_rows(poses, deltas, targets, config)):
            if out_of_range[i] is None and violation is None:
                kept.append(i)
                rejected = 0
                if len(strategy) + len(kept) == n:
                    break
            else:
                rejected += 1
                if rejected == config.max_attempts:
                    raise DataError(
                        f"no valid sample after {config.max_attempts} consecutive attempts; "
                        "generator limits are likely inconsistent"
                    )
        conditions.append(np.concatenate([poses[kept], targets[kept]], axis=1))
        allocations.append(deltas[kept])
        strategy += [HEAD_DOMINANT if h else EYE_DOMINANT for h in head_dominant[kept].tolist()]
    split = ["train"] * config.n_train() + ["val"] * (n - config.n_train())
    return Dataset(np.concatenate(conditions), np.concatenate(allocations), strategy, split,
                   seed, config)


# -- JSON lines persistence ----------------------------------------------------


def serialize_dataset(dataset: Dataset) -> str:
    header = {
        "schema": DATASET_SCHEMA,
        "version": DATASET_VERSION,
        "seed": dataset.seed,
        "n_samples": len(dataset.split),
        "generator": dataset.config.to_dict(),
    }
    buf = io.StringIO()
    buf.write(json.dumps(header, sort_keys=True) + "\n")
    for c, a, strategy, split in zip(dataset.conditions.tolist(), dataset.allocations.tolist(),
                                     dataset.strategy, dataset.split):
        doc = {"theta_e": c[0:2], "theta_h": c[2:5], "target": c[5:8],
               "delta_e": a[0:2], "delta_h": a[2:5], "strategy": strategy, "split": split}
        buf.write(json.dumps(doc, sort_keys=True) + "\n")
    return buf.getvalue()


def write_dataset(dataset: Dataset, path) -> str:
    """Write ``dataset`` to ``path``; returns the SHA-256 of the bytes written."""
    return write_text(path, serialize_dataset(dataset))


def _parse_line(line: str, path, line_no: int) -> dict:
    """One sample line: a ``SAMPLE_SCHEMA`` object with known tags. ``read_dataset``
    checks the value rules of all rows at once."""
    if not line.strip():
        raise DataError(f"{path}: line {line_no}: blank line inside dataset")
    try:
        doc = parse_json(line)
        check_object(doc, SAMPLE_SCHEMA, "sample")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {line_no}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: line {line_no}: {exc}") from exc
    if doc["strategy"] not in (EYE_DOMINANT, HEAD_DOMINANT):
        raise DataError(f"{path}: line {line_no}: bad strategy tag {doc['strategy']!r}")
    if doc["split"] not in ("train", "val"):
        raise DataError(f"{path}: line {line_no}: bad split tag {doc['split']!r}")
    return doc


def read_dataset(path) -> Dataset:
    """Read and validate a dataset file; the Dataset keeps the SHA-256 of its bytes.

    Every sample is re-checked, all lines at once: against the value rules
    of ``condition_violations`` and ``allocation_violations``, then
    against the generator invariants recorded in the header with
    ``check_rows``. Any problem names the file and the first offending line,
    as a line-by-line check would. Split tags that leave a split empty are
    refused, as a header whose split rule leaves one empty is.
    """
    try:
        text, sha256 = read_text(path)
        lines = text.splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    try:
        header = parse_json(lines[0])
    except ValueError as exc:  # a json.JSONDecodeError, or nesting too deep to parse
        raise DataError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != DATASET_SCHEMA:
        raise DataError(f"{path}: missing {DATASET_SCHEMA} header")
    if header.get("version") != DATASET_VERSION:
        raise DataError(f"{path}: unsupported dataset version {header.get('version')!r}")
    try:
        config = GeneratorConfig.from_dict(header.get("generator"))
        check_object(header, HEADER_SCHEMA, "header")
        if header["seed"] < 0:
            raise ValueError(f"header seed must be non-negative, got {header['seed']}")
    except ConfigError as exc:
        raise DataError(f"{path}: bad generator header: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    docs, unparsed = [], None
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            docs.append(_parse_line(line, path, line_no))
        except DataError as exc:
            unparsed = exc
            break
    conditions = np.array([d["theta_e"] + d["theta_h"] + d["target"] for d in docs]).reshape(-1, 8)
    allocations = np.array([d["delta_e"] + d["delta_h"] for d in docs]).reshape(-1, 5)
    strategy, split = [d["strategy"] for d in docs], [d["split"] for d in docs]
    # A row that breaks a value rule ends the rows, as a line that does not
    # parse does. The rows before it are checked first: a violation among
    # them is the first offending line.
    for i, (condition, allocation) in enumerate(zip(condition_violations(conditions),
                                                    allocation_violations(allocations))):
        if condition or allocation:
            unparsed = DataError(f"{path}: line {i + 2}: {condition or allocation}")
            conditions, allocations = conditions[:i], allocations[:i]
            break
    violations = check_rows(conditions[:, :5], allocations, conditions[:, 5:], config)
    for line_no, violation in enumerate(violations, start=2):
        if violation is not None:
            raise DataError(f"{path}: line {line_no}: invariant violation: {violation}")
    if unparsed is not None:
        raise unparsed
    if header["n_samples"] != len(split):
        raise DataError(
            f"{path}: header announces {header['n_samples']} samples, found {len(split)}"
        )
    for which in ("train", "val"):
        if which not in split:
            raise DataError(f"{path}: the split tags leave the {which} split empty")
    return Dataset(conditions, allocations, strategy, split, header["seed"], config, sha256)
