"""Synthetic gaze-shift generator: geometry, allocation, and persistence.

The binding invariant is checked exhaustively on a full default dataset:
every stored allocation composes with its condition to a combined gaze ray
within the consistency tolerance of the target, inside all mechanical
limits, and regeneration from the same seed is byte-identical. The batch
generator and reader are checked against the one-sample-at-a-time oracles
of ``datagen_oracles``: same bytes, same errors.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeshift import atomic, datagen
from gazeshift.atomic import open_atomic
from gazeshift.datagen import (EYE_DOMINANT, HEAD_DOMINANT, POSE_LIMITS, Dataset,
                               GeneratorConfig, allocate_rows, angular_errors, check_rows,
                               draw_attempts, gaze_angles, gaze_rays, generate_dataset,
                               read_dataset, serialize_dataset, write_dataset)
from gazeshift.errors import ConfigError, DataError
from datagen_oracles import (check_sample, generate_dataset_per_sample,
                             read_dataset_per_line, samples_of)

# SHA-256 of the seed-0 dataset at the shipped generator config
SEED0_DATASET_SHA256 = "a3bf48b258413f4906c048384a449dc215942c271a26dcc46b42343788e946a7"


@pytest.fixture(scope="module")
def default_dataset() -> Dataset:
    return generate_dataset(0)


def rows(dataset):
    """(poses (m, 5), deltas (m, 5), targets (m, 3)) of ``dataset``, for ``check_rows``."""
    return dataset.conditions[:, :5], dataset.allocations, dataset.conditions[:, 5:]


# -- gaze geometry -----------------------------------------------------------------

def test_gaze_ray_neutral_looks_forward():
    np.testing.assert_allclose(gaze_rays([[0.0, 0.0]], [[0.0, 0.0, 0.0]]),
                               [[1.0, 0.0, 0.0]], atol=1e-15)


def test_gaze_ray_quarter_turn():
    ray = gaze_rays([[0.0, 0.0]], [[math.pi / 2, 0.0, 0.0]])
    np.testing.assert_allclose(ray, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_gaze_ray_yaw_is_additive_without_pitch():
    ray = gaze_rays([[math.radians(30), 0.0]], [[math.radians(15), 0.0, 0.0]])
    expected = [[math.cos(math.radians(45)), math.sin(math.radians(45)), 0.0]]
    np.testing.assert_allclose(ray, expected, atol=1e-12)


def test_gaze_ray_is_unit_length():
    rng = np.random.default_rng(5)
    eye = np.column_stack([rng.uniform(-0.5, 0.5, 20), rng.uniform(-0.4, 0.4, 20)])
    head = rng.uniform(-1.0, 1.0, size=(20, 3))
    np.testing.assert_allclose(np.linalg.norm(gaze_rays(eye, head), axis=1), 1.0,
                               rtol=0, atol=1e-12)


def test_required_shift_axis_cases():
    yaw, pitch = gaze_angles(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                       [1.0, 1.0, math.sqrt(2.0)]]))
    assert (yaw[0], pitch[0]) == (0.0, 0.0)
    assert yaw[1] == pytest.approx(math.pi / 2) and pitch[1] == 0.0
    assert yaw[2] == pytest.approx(math.pi / 4, abs=1e-12)
    assert pitch[2] == pytest.approx(math.pi / 4, abs=1e-12)


def test_angular_error_cases():
    errors = angular_errors(np.array([[1.0, 0, 0], [1.0, 0, 0]]),
                            np.array([[2.0, 0, 0], [0.0, 3.0, 0]]))
    assert errors[0] == 0.0
    assert errors[1] == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        angular_errors(np.array([[1.0, 0, 0], [0.0, 0, 0]]), np.array([[1.0, 0, 0]] * 2))


# -- shift allocation ---------------------------------------------------------------

def test_allocate_alpha_zero_keeps_head_still():
    eye, head = np.array([[0.1, -0.05]]), np.array([[0.2, 0.1, 0.0]])
    target = np.array([[1.5, 0.8, 0.3]])
    delta_eye, delta_head = allocate_rows(eye, head, target, np.array([0.0]), 0.0, 0.0)
    np.testing.assert_allclose(delta_head, 0.0, atol=1e-15)
    assert angular_errors(gaze_rays(eye + delta_eye, head), target)[0] < 1e-7


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.75, 1.0])
def test_allocate_combined_ray_hits_target(alpha):
    rng = np.random.default_rng(int(alpha * 100))
    eye = np.column_stack([rng.uniform(-0.3, 0.3, 10), rng.uniform(-0.2, 0.2, 10)])
    head = rng.uniform(-0.5, 0.5, size=(10, 3))
    targets = rng.uniform(0.5, 2.0, size=(10, 1)) * np.column_stack(
        [np.ones(10), rng.uniform(-1, 1, 10), rng.uniform(-0.5, 0.5, 10)])
    delta_eye, delta_head = allocate_rows(eye, head, targets, np.full(10, alpha), 0.0, 0.0)
    errors = angular_errors(gaze_rays(eye + delta_eye, head + delta_head), targets)
    assert errors.max() < 1e-7


def test_allocate_target_on_ray_needs_no_motion():
    eye, head = np.array([[0.0, 0.0]]), np.array([[0.3, 0.0, 0.0]])
    target = 2.0 * gaze_rays(eye, head)
    delta_eye, delta_head = allocate_rows(eye, head, target, np.array([0.7]), 0.0, 0.0)
    assert np.linalg.norm(delta_eye) < math.radians(0.1)
    assert np.linalg.norm(delta_head) < math.radians(0.1)


def test_allocate_head_pitch_sign_convention():
    # a target above the horizon tips the head up: negative Euler pitch
    delta_eye, delta_head = allocate_rows([[0.0, 0.0]], [[0.0, 0.0, 0.0]],
                                          [[1.0, 0.0, 1.0]], np.array([1.0]), 0.0, 0.0)
    assert delta_head[0, 1] < 0
    assert delta_head[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_allocate_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError):
        allocate_rows([[0.0, 0.0]], [[0.0, 0.0, 0.0]], [[1.0, 0, 0]], np.array([1.5]), 0.0,
                      0.0)


def test_allocate_noise_only_with_rng():
    eye, head = np.array([[0.05, 0.0]]), np.array([[0.0, 0.0, 0.0]])
    target = np.array([[2.0, 0.5, -0.2]])
    a = allocate_rows(eye, head, target, np.array([0.6]), 0.0, 0.0)
    b = allocate_rows(eye, head, target, np.array([0.6]), 0.0, 0.0)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[1][0, 2] == 0.0
    cfg = GeneratorConfig(eye_jitter=0.01)
    *_, roll_noise, eye_jitter = draw_attempts(np.random.default_rng(0), cfg, 1)
    c = allocate_rows(eye, head, target, np.array([0.6]), roll_noise, 0.0)
    assert c[1][0, 2] == roll_noise[0] != 0.0  # roll noise entered
    d = allocate_rows(eye, head, target, np.array([0.6]), 0.0, eye_jitter)
    np.testing.assert_array_equal(d[0], a[0] + eye_jitter)
    assert eye_jitter.all()


# -- the strategy mixture ---------------------------------------------------------------

def test_draw_alpha_respects_mix_extremes():
    cfg = GeneratorConfig()
    rng = np.random.default_rng(0)
    head_only = dataclasses.replace(cfg, strategy_mix=1.0)
    eye_only = dataclasses.replace(cfg, strategy_mix=0.0)
    assert draw_attempts(rng, head_only, 50)[2].all()
    assert not draw_attempts(rng, eye_only, 50)[2].any()


def test_draw_alpha_stays_in_unit_interval():
    alphas = draw_attempts(np.random.default_rng(1), GeneratorConfig(), 2000)[3]
    assert alphas.min() >= 0.0 and alphas.max() <= 1.0


def test_alpha_distribution_is_bimodal_at_even_mix():
    cfg = GeneratorConfig(strategy_mix=0.5)
    alphas = draw_attempts(np.random.default_rng(2), cfg, 10_000)[3]
    valley = np.mean((alphas >= 0.5) & (alphas <= 0.6))
    assert valley < 0.10  # the gap between the two modes stays thin
    below = np.mean(alphas < 0.5)
    assert 0.45 < below < 0.55
    # both modes are well populated
    assert np.mean((alphas > 0.25) & (alphas < 0.45)) > 0.3
    assert np.mean((alphas > 0.65) & (alphas < 0.85)) > 0.3


def test_draw_attempts_reads_the_stream_of_single_draws():
    cfg = GeneratorConfig(eye_jitter=0.01, strategy_mix=0.5)
    poses, targets, head_dominant, alpha, roll_noise, eye_jitter = draw_attempts(
        np.random.default_rng(9), cfg, 40)
    rng = np.random.default_rng(9)
    for i in range(40):
        pose = [rng.uniform(-cfg.eye_yaw_limit / 2, cfg.eye_yaw_limit / 2),
                rng.uniform(-cfg.eye_pitch_limit / 2, cfg.eye_pitch_limit / 2),
                rng.uniform(-cfg.head_yaw_limit / 2, cfg.head_yaw_limit / 2),
                rng.uniform(-cfg.head_pitch_limit / 2, cfg.head_pitch_limit / 2),
                rng.uniform(-cfg.head_roll_limit / 2, cfg.head_roll_limit / 2)]
        r = rng.uniform(cfg.range_min, cfg.range_max)
        az = rng.uniform(-cfg.azimuth_limit, cfg.azimuth_limit)
        el = rng.uniform(-cfg.elevation_limit, cfg.elevation_limit)
        head = rng.random() < cfg.strategy_mix
        mean = cfg.alpha_head_mean if head else cfg.alpha_eye_mean
        assert poses[i].tolist() == pose
        assert targets[i].tolist() == (r * np.array([math.cos(el) * math.cos(az),
                                                     math.cos(el) * math.sin(az),
                                                     math.sin(el)])).tolist()
        assert head_dominant[i] == head
        assert alpha[i] == float(np.clip(rng.normal(mean, cfg.alpha_sd), 0.0, 1.0))
        assert roll_noise[i] == rng.normal(0.0, cfg.roll_noise)
        assert eye_jitter[i].tolist() == rng.normal(0.0, cfg.eye_jitter, size=2).tolist()


# -- sample validity ----------------------------------------------------------------------

def test_check_sample_passes_consistent_sample():
    cfg = GeneratorConfig(n_samples=3)
    assert check_rows(*rows(generate_dataset(3, cfg)), cfg) == [None] * 3


def test_check_sample_names_violated_limit():
    cfg = GeneratorConfig()
    violations = check_rows(np.zeros((1, 5)), [[cfg.eye_yaw_limit + 0.1, 0.0, 0.0, 0.0, 0.0]],
                            np.array([[1.0, 0.0, 0.0]]), cfg)
    assert violations[0] is not None and "eye yaw" in violations[0]


def test_check_sample_names_consistency_miss():
    cfg = GeneratorConfig()
    # stares straight ahead at a target on the left
    violations = check_rows(np.zeros((1, 5)), np.zeros((1, 5)), np.array([[0.0, 1.0, 0.0]]), cfg)
    assert violations[0] is not None and "misses target" in violations[0]


def test_generate_sample_raises_on_unsatisfiable_limits():
    cfg = GeneratorConfig(eye_yaw_limit=0.0, max_attempts=20)
    with pytest.raises(DataError, match="consecutive attempts"):
        generate_dataset(4, cfg)


# -- the batch generator against the per-sample oracle ------------------------------------

ORACLE_SEEDS = [*range(16), *range(101, 111)]

ORACLE_CONFIGS = {
    "default": GeneratorConfig(n_samples=60),
    "jitter_even_mix": GeneratorConfig(n_samples=60, eye_jitter=0.01, strategy_mix=0.5),
    # about half the attempts fail a limit or the consistency tolerance
    "tight": GeneratorConfig(n_samples=60, eye_yaw_limit=math.radians(20),
                             head_yaw_limit=math.radians(50),
                             consistency_tol=math.radians(1.0), eye_jitter=0.01),
    # increments beyond pi: rejected before the check
    "noisy": GeneratorConfig(n_samples=60, roll_noise=1.5, eye_jitter=1.0,
                             eye_yaw_limit=3.1, head_roll_limit=3.1, consistency_tol=3.0),
    # a zero scale still turns the normal's -0.0 into +0.0
    "no_roll_noise": GeneratorConfig(n_samples=60, roll_noise=0.0),
}


def _outcome(generate, seed, cfg):
    try:
        return serialize_dataset(generate(seed, cfg))
    except DataError as exc:
        return f"DataError: {exc}"


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_generator_writes_the_per_sample_oracles_bytes(name):
    cfg = ORACLE_CONFIGS[name]
    for seed in ORACLE_SEEDS:
        assert _outcome(generate_dataset, seed, cfg) == _outcome(
            generate_dataset_per_sample, seed, cfg), seed


def test_generator_matches_the_oracle_at_the_shipped_config(default_dataset):
    assert serialize_dataset(default_dataset) == serialize_dataset(
        generate_dataset_per_sample(0))


def test_generator_bytes_do_not_depend_on_the_chunk_size(monkeypatch):
    cfg = ORACLE_CONFIGS["tight"]
    expected = [_outcome(generate_dataset, seed, cfg) for seed in (0, 101)]
    monkeypatch.setattr(datagen, "MAX_CHUNK", 7)
    assert [_outcome(generate_dataset, seed, cfg) for seed in (0, 101)] == expected


@pytest.mark.parametrize("cfg", [
    GeneratorConfig(n_samples=5, eye_yaw_limit=0.0, max_attempts=20),
    # some samples are kept before a run of max_attempts rejections
    # (28, 141, 121 and 75 at the seeds below, across chunks)
    GeneratorConfig(n_samples=200, eye_yaw_limit=math.radians(10), max_attempts=5),
], ids=["nothing_valid", "after_some_samples"])
def test_generator_raises_the_oracles_data_error(cfg):
    for seed in (0, 1, 3, 101):
        outcome = _outcome(generate_dataset, seed, cfg)
        assert outcome.startswith("DataError: no valid sample after")
        assert outcome == _outcome(generate_dataset_per_sample, seed, cfg)


# -- full dataset invariants ----------------------------------------------------------------

def test_dataset_counts_and_split(default_dataset):
    assert default_dataset.conditions.shape == (805, 8)
    assert default_dataset.allocations.shape == (805, 5)
    assert len(default_dataset.strategy) == 805
    assert default_dataset.split == ["train"] * 644 + ["val"] * 161


def test_dataset_every_sample_valid(default_dataset):
    cfg = default_dataset.config
    assert check_rows(*rows(default_dataset), cfg) == [None] * 805
    assert all(check_sample(sample, cfg) is None for sample in samples_of(default_dataset))


def test_dataset_strategy_mix_materialises(default_dataset):
    tags = default_dataset.strategy
    head = tags.count(HEAD_DOMINANT)
    assert head / len(tags) > 0.85  # mix defaults to 0.95
    assert set(tags) <= {EYE_DOMINANT, HEAD_DOMINANT}


def test_dataset_regeneration_is_byte_identical(tmp_path, default_dataset):
    again = generate_dataset(0)
    assert serialize_dataset(again) == serialize_dataset(default_dataset)
    assert write_dataset(again, tmp_path / "dataset.jsonl") == SEED0_DATASET_SHA256


def test_dataset_seed_changes_content(default_dataset):
    other = generate_dataset(1, GeneratorConfig(n_samples=20))
    assert serialize_dataset(other) != serialize_dataset(default_dataset)


# -- persistence ------------------------------------------------------------------------------

def test_round_trip_is_byte_identical(tmp_path, default_dataset):
    path = tmp_path / "dataset.jsonl"
    digest = write_dataset(default_dataset, path)
    back = read_dataset(path)
    assert serialize_dataset(back) == serialize_dataset(default_dataset)
    assert back.sha256 == digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert default_dataset.sha256 is None  # made in memory
    assert back.seed == default_dataset.seed
    assert back.config == default_dataset.config
    assert back.split == default_dataset.split
    assert back.strategy == default_dataset.strategy
    assert back.conditions.tobytes() == default_dataset.conditions.tobytes()
    assert back.allocations.tobytes() == default_dataset.allocations.tobytes()


def test_write_dataset_failing_midway_keeps_previous_file(tmp_path, default_dataset,
                                                          monkeypatch):
    path = tmp_path / "dataset.jsonl"
    write_dataset(default_dataset, path)
    before = path.read_bytes()

    class FailingHandle:
        """Writes the first half of the text to the temporary file, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError("no space left on device")

    @contextmanager
    def failing_open_atomic(target):
        with open_atomic(target) as fh:
            yield FailingHandle(fh)

    monkeypatch.setattr(atomic, "open_atomic", failing_open_atomic)
    with pytest.raises(OSError, match="no space left"):
        write_dataset(generate_dataset(1, GeneratorConfig(n_samples=20)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.jsonl"]


def small_file(tmp_path, mutate=None):
    """A tiny valid dataset file, optionally damaged by ``mutate(lines)``."""
    dataset = generate_dataset(3, GeneratorConfig(n_samples=5))
    lines = serialize_dataset(dataset).splitlines()
    if mutate is not None:
        mutate(lines)
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_read_rejects_malformed_json_with_line_number(tmp_path):
    def damage(lines):
        lines[4] = lines[4][:-10]
    path = small_file(tmp_path, damage)
    with pytest.raises(DataError, match="line 5"):
        read_dataset(path)


def test_read_rejects_wrong_width_field(tmp_path):
    def damage(lines):
        doc = json.loads(lines[2])
        doc["theta_h"] = doc["theta_h"] + [0.0]
        lines[2] = json.dumps(doc, sort_keys=True)
    path = small_file(tmp_path, damage)
    with pytest.raises(DataError, match="theta_h"):
        read_dataset(path)


def test_read_rejects_bad_strategy_tag(tmp_path):
    def damage(lines):
        doc = json.loads(lines[1])
        doc["strategy"] = "wobbly"
        lines[1] = json.dumps(doc, sort_keys=True)
    path = small_file(tmp_path, damage)
    with pytest.raises(DataError, match="strategy"):
        read_dataset(path)


def test_read_rejects_tampered_allocation(tmp_path):
    def damage(lines):
        doc = json.loads(lines[3])
        doc["delta_h"][0] += 0.5  # breaks gaze consistency
        lines[3] = json.dumps(doc, sort_keys=True)
    path = small_file(tmp_path, damage)
    with pytest.raises(DataError, match="line 4.*invariant"):
        read_dataset(path)


def test_read_rejects_header_problems(tmp_path):
    def wrong_schema(lines):
        doc = json.loads(lines[0])
        doc["schema"] = "something-else"
        lines[0] = json.dumps(doc, sort_keys=True)
    with pytest.raises(DataError, match="header"):
        read_dataset(small_file(tmp_path, wrong_schema))

    def wrong_count(lines):
        doc = json.loads(lines[0])
        doc["n_samples"] = 99
        lines[0] = json.dumps(doc, sort_keys=True)
    with pytest.raises(DataError, match="announces 99"):
        read_dataset(small_file(tmp_path, wrong_count))


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        read_dataset(path)


# -- the batch reader against the per-line oracle -------------------------------------------

READER_CONFIG = GeneratorConfig(n_samples=12)
READER_LINES = serialize_dataset(generate_dataset(5, READER_CONFIG)).splitlines()


def _past_limit(k):
    """Damage moving post-shift angle ``k`` (POSE_LIMITS order) 0.01 rad past its limit."""
    pose, delta, j = ("theta_e", "delta_e", k) if k < 2 else ("theta_h", "delta_h", k - 2)

    def damage(doc):
        doc[delta][j] = getattr(READER_CONFIG, POSE_LIMITS[k][1]) + 0.01 - doc[pose][j]
    return damage


def _miss(doc):
    doc["target"] = [-1.0, 0.0, -1.0]  # behind and below: out of every ray's reach


def _edited(line, damage):
    doc = json.loads(line)
    damage(doc)
    return json.dumps(doc, sort_keys=True)


LINE_DAMAGES = {
    **{POSE_LIMITS[k][0]: (lambda k: lambda line: _edited(line, _past_limit(k)))(k)
       for k in range(5)},
    "consistency": lambda line: _edited(line, _miss),
    "invalid_json": lambda line: line[:-10],
    "wrong_width": lambda line: _edited(line, lambda doc: doc["theta_h"].append(0.0)),
    "bad_strategy": lambda line: _edited(line, lambda doc: doc.update(strategy="wobbly")),
    "pose_out_of_range": lambda line: _edited(
        line, lambda doc: doc["theta_e"].__setitem__(1, 2.0)),
    "head_pose_out_of_range": lambda line: _edited(
        line, lambda doc: doc["theta_h"].__setitem__(0, 4.0)),
    "target_too_close": lambda line: _edited(line, lambda doc: doc.update(target=[0.05, 0, 0])),
    # the invariant check cannot measure a ray against a zero-length target
    "target_zero": lambda line: _edited(line, lambda doc: doc.update(target=[0, 0, 0])),
    "increment_beyond_pi": lambda line: _edited(
        line, lambda doc: doc["delta_h"].__setitem__(0, 3.5)),
    "blank": lambda line: "",
    # `true` used to read as 1.0 and fail only the invariant check
    "entry_true": lambda line: _edited(line, lambda doc: doc["theta_e"].__setitem__(0, True)),
    # used to end in an OverflowError traceback and exit 1
    "entry_huge_int": lambda line: _edited(
        line, lambda doc: doc["delta_h"].__setitem__(1, 10 ** 400)),
    # a misspelled, a missing and a mistyped key: the first used to load silently
    "unknown_key": lambda line: _edited(line, lambda doc: doc.update(thta_e=[0, 0])),
    "missing_key": lambda line: _edited(line, lambda doc: doc.pop("split")),
    "strategy_number": lambda line: _edited(line, lambda doc: doc.update(strategy=1)),
}


def _both_readers(tmp_path, lines):
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcomes = []
    for read in (read_dataset, read_dataset_per_line):
        try:
            dataset = read(path)
        except DataError as exc:
            outcomes.append(f"DataError: {exc}")
        else:
            outcomes.append((serialize_dataset(dataset), dataset.split))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


# The message of each damage that fails one line, after "<path>: line 7: ".
LINE_MESSAGES = {
    **{POSE_LIMITS[k][0]: f"invariant violation: {POSE_LIMITS[k][0]} limit exceeded"
       for k in range(5)},
    "consistency": "invariant violation: gaze misses target by",
    "pose_out_of_range": "eye pose outside representational range",
    "head_pose_out_of_range": "head pose yaw=4.0 outside (-pi, pi]",
    "target_too_close": "target norm must exceed 0.05 m (got 0.0500)",
    "target_zero": "target norm must exceed 0.05 m (got 0.0000)",
    "increment_beyond_pi": "motion increments must lie within [-pi, pi]",
    "entry_true": "sample field theta_e[0] must be a finite number, got True",
    # a long number is shown as reprlib abbreviates it
    "entry_huge_int": "sample field delta_h[1] must be a finite number, got 100000000000000000...",
    "wrong_width": "sample field 'theta_h' must be 3 finite numbers, got [",
    "unknown_key": "unknown sample fields: ['thta_e']",
    "missing_key": "sample requires 'split'",
    "strategy_number": "sample field 'strategy' must be a string, got 1",
}


@pytest.mark.parametrize("name", list(LINE_MESSAGES))
def test_reader_names_the_oracles_line_and_message(tmp_path, name):
    lines = list(READER_LINES)
    lines[6] = LINE_DAMAGES[name](lines[6])
    outcome = _both_readers(tmp_path, lines)
    assert outcome.startswith(f"DataError: {tmp_path / 'dataset.jsonl'}: line 7: "
                              f"{LINE_MESSAGES[name]}")


def test_reader_reports_a_check_failure_before_a_later_parse_failure(tmp_path):
    lines = list(READER_LINES)
    lines[4] = LINE_DAMAGES["head yaw"](lines[4])
    lines[9] = LINE_DAMAGES["invalid_json"](lines[9])
    path = tmp_path / "dataset.jsonl"
    assert _both_readers(tmp_path, lines).startswith(
        f"DataError: {path}: line 5: invariant violation: head yaw limit exceeded")
    lines[2] = LINE_DAMAGES["invalid_json"](lines[2])
    assert _both_readers(tmp_path, lines).startswith(f"DataError: {path}: line 3: invalid JSON")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, len(READER_LINES) - 1),
                          st.sampled_from(list(LINE_DAMAGES))),
                max_size=3, unique_by=lambda damage: damage[0]))
def test_reader_matches_the_per_line_oracle(tmp_path_factory, damages):
    lines = list(READER_LINES)
    for index, name in damages:
        lines[index] = LINE_DAMAGES[name](lines[index])
    _both_readers(tmp_path_factory.mktemp("reader"), lines)


# -- configuration ------------------------------------------------------------------------------

def test_generator_config_round_trip():
    cfg = GeneratorConfig(n_samples=12, strategy_mix=0.5)
    assert GeneratorConfig.from_dict(cfg.to_dict()) == cfg


def test_generator_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        GeneratorConfig.from_dict({"n_sample": 10})


def test_generator_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        GeneratorConfig.from_dict({"train_fraction": 1.5})
    with pytest.raises(ValueError):
        GeneratorConfig(range_min=2.0, range_max=1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_samples=0)
    # a condition's target norm must exceed 0.05 m, so every drawn range must too
    for range_min in (0.05, 0.0):
        with pytest.raises(ValueError, match="range_min must exceed the minimum target norm"):
            GeneratorConfig(range_min=range_min, range_max=0.04)
    # the split rule, round(n_samples * train_fraction), would overflow a
    # float for these: the config names the field instead
    with pytest.raises(ValueError, match=r"^train_fraction must lie in \(0, 1\)$"):
        GeneratorConfig(n_samples=805, train_fraction=1e308)
    with pytest.raises(ValueError, match="^n_samples must be positive and lie within the float "
                                         "range$"):
        GeneratorConfig(n_samples=10**400)


def test_dataset_rejects_unknown_tags_and_misaligned_rows(default_dataset):
    d = default_dataset
    with pytest.raises(ValueError, match="unknown strategy tag 'sideways'"):
        Dataset(d.conditions, d.allocations, d.strategy[:-1] + ["sideways"], d.split, 0)
    with pytest.raises(ValueError, match="unknown split tag 'test'"):
        Dataset(d.conditions, d.allocations, d.strategy, d.split[:-1] + ["test"], 0)
    for conditions, allocations, strategy in [(d.conditions[1:], d.allocations, d.strategy),
                                              (d.conditions, d.allocations[:, :4], d.strategy),
                                              (d.conditions, d.allocations, d.strategy[1:])]:
        with pytest.raises(ValueError, match="must align"):
            Dataset(conditions, allocations, strategy, d.split, 0)


def test_generator_config_rejects_limits_beyond_valid_poses():
    # a condition row takes eye pitches up to pi/2 and other angles up to pi
    with pytest.raises(ValueError, match="eye_pitch_limit must be at most pi/2"):
        GeneratorConfig(eye_pitch_limit=math.radians(120))
    for name in ("eye_yaw_limit", "head_yaw_limit", "head_pitch_limit", "head_roll_limit"):
        with pytest.raises(ValueError, match=f"{name} must be at most pi"):
            GeneratorConfig(**{name: 3.2})
    with pytest.raises(ConfigError, match="head_yaw_limit must be at most pi"):
        GeneratorConfig.from_dict({"head_yaw_limit": 7.0, "azimuth_limit": 3.1})


def test_generator_at_the_widest_limits_keeps_valid_poses():
    cfg = GeneratorConfig(n_samples=60, eye_yaw_limit=math.pi, eye_pitch_limit=math.pi / 2,
                          head_yaw_limit=math.pi, head_pitch_limit=math.pi,
                          head_roll_limit=math.pi, azimuth_limit=3.1, elevation_limit=1.5)
    for seed in (0, 1, 2):
        outcome = _outcome(generate_dataset, seed, cfg)
        assert not outcome.startswith("DataError")
        assert outcome == _outcome(generate_dataset_per_sample, seed, cfg)
