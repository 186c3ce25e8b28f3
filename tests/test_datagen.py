"""Synthetic gaze-shift generator: geometry, allocation, and persistence.

The binding invariant is checked exhaustively on a full default dataset:
every stored allocation composes with its condition to a combined gaze ray
within the consistency tolerance of the target, inside all mechanical
limits, and regeneration from the same seed is byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from gazeshift.datagen import (EYE_DOMINANT, HEAD_DOMINANT, Dataset,
                               GazeSample, GeneratorConfig, allocate_shift,
                               angular_error, check_sample, draw_alpha,
                               gaze_ray, generate_dataset, generate_sample,
                               read_dataset, required_shift,
                               serialize_dataset, write_dataset)
from gazeshift.errors import ConfigError, DataError
from gazeshift.so3 import EyePose, HeadPose
from gazeshift.vqvae import ConditionVector, MotionAllocation


@pytest.fixture(scope="module")
def default_dataset() -> Dataset:
    return generate_dataset(0)


# -- gaze geometry -----------------------------------------------------------------

def test_gaze_ray_neutral_looks_forward():
    np.testing.assert_allclose(gaze_ray(EyePose(0, 0), HeadPose(0, 0, 0)),
                               [1.0, 0.0, 0.0], atol=1e-15)


def test_gaze_ray_quarter_turn():
    ray = gaze_ray(EyePose(0, 0), HeadPose(math.pi / 2, 0, 0))
    np.testing.assert_allclose(ray, [0.0, 1.0, 0.0], atol=1e-12)


def test_gaze_ray_yaw_is_additive_without_pitch():
    ray = gaze_ray(EyePose(math.radians(30), 0), HeadPose(math.radians(15), 0, 0))
    expected = [math.cos(math.radians(45)), math.sin(math.radians(45)), 0.0]
    np.testing.assert_allclose(ray, expected, atol=1e-12)


def test_gaze_ray_is_unit_length():
    rng = np.random.default_rng(5)
    for _ in range(20):
        eye = EyePose(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        head = HeadPose(*rng.uniform(-1.0, 1.0, size=3))
        assert np.linalg.norm(gaze_ray(eye, head)) == pytest.approx(1.0, abs=1e-12)


def test_required_shift_axis_cases():
    assert required_shift(np.array([1.0, 0.0, 0.0])) == (0.0, 0.0)
    yaw, pitch = required_shift(np.array([0.0, 1.0, 0.0]))
    assert yaw == pytest.approx(math.pi / 2) and pitch == 0.0
    yaw, pitch = required_shift(np.array([1.0, 1.0, math.sqrt(2.0)]))
    assert yaw == pytest.approx(math.pi / 4, abs=1e-12)
    assert pitch == pytest.approx(math.pi / 4, abs=1e-12)


def test_required_shift_rejects_degenerate_targets():
    with pytest.raises(ValueError):
        required_shift(np.zeros(3))
    with pytest.raises(ValueError):
        required_shift(np.array([1.0, np.nan, 0.0]))


def test_angular_error_cases():
    assert angular_error(np.array([1.0, 0, 0]), np.array([2.0, 0, 0])) == 0.0
    assert angular_error(np.array([1.0, 0, 0]),
                         np.array([0.0, 3.0, 0])) == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        angular_error(np.zeros(3), np.array([1.0, 0, 0]))


# -- shift allocation ---------------------------------------------------------------

def test_allocate_alpha_zero_keeps_head_still():
    eye, head = EyePose(0.1, -0.05), HeadPose(0.2, 0.1, 0.0)
    target = np.array([1.5, 0.8, 0.3])
    delta_eye, delta_head = allocate_shift(eye, head, target, alpha=0.0)
    np.testing.assert_allclose(delta_head, 0.0, atol=1e-15)
    new_eye = EyePose(*(eye.as_array() + delta_eye))
    assert angular_error(gaze_ray(new_eye, head), target) < 1e-7


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.75, 1.0])
def test_allocate_combined_ray_hits_target(alpha):
    rng = np.random.default_rng(int(alpha * 100))
    for _ in range(10):
        eye = EyePose(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        head = HeadPose(*rng.uniform(-0.5, 0.5, size=3))
        target = rng.uniform(0.5, 2.0) * np.array([1.0, rng.uniform(-1, 1),
                                                   rng.uniform(-0.5, 0.5)])
        delta_eye, delta_head = allocate_shift(eye, head, target, alpha)
        new_eye = EyePose(*(eye.as_array() + delta_eye))
        new_head = HeadPose(*(head.as_array() + delta_head))
        assert angular_error(gaze_ray(new_eye, new_head), target) < 1e-7


def test_allocate_target_on_ray_needs_no_motion():
    eye, head = EyePose(0.0, 0.0), HeadPose(0.3, 0.0, 0.0)
    target = 2.0 * gaze_ray(eye, head)
    delta_eye, delta_head = allocate_shift(eye, head, target, alpha=0.7)
    assert np.linalg.norm(delta_eye) < math.radians(0.1)
    assert np.linalg.norm(delta_head) < math.radians(0.1)


def test_allocate_head_pitch_sign_convention():
    # a target above the horizon tips the head up: negative Euler pitch
    delta_eye, delta_head = allocate_shift(EyePose(0, 0), HeadPose(0, 0, 0),
                                           np.array([1.0, 0.0, 1.0]), alpha=1.0)
    assert delta_head[1] < 0
    assert delta_head[0] == pytest.approx(0.0, abs=1e-12)


def test_allocate_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError):
        allocate_shift(EyePose(0, 0), HeadPose(0, 0, 0), np.array([1.0, 0, 0]), 1.5)


def test_allocate_noise_only_with_rng():
    eye, head = EyePose(0.05, 0.0), HeadPose(0.0, 0.0, 0.0)
    target = np.array([2.0, 0.5, -0.2])
    a = allocate_shift(eye, head, target, 0.6)
    b = allocate_shift(eye, head, target, 0.6)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = allocate_shift(eye, head, target, 0.6, GeneratorConfig(),
                       np.random.default_rng(0))
    assert c[1][2] != 0.0  # roll noise entered


# -- the strategy mixture ---------------------------------------------------------------

def test_draw_alpha_respects_mix_extremes():
    cfg = GeneratorConfig()
    rng = np.random.default_rng(0)
    head_only = dataclasses.replace(cfg, strategy_mix=1.0)
    eye_only = dataclasses.replace(cfg, strategy_mix=0.0)
    assert all(draw_alpha(rng, head_only)[1] == HEAD_DOMINANT
               for _ in range(50))
    assert all(draw_alpha(rng, eye_only)[1] == EYE_DOMINANT
               for _ in range(50))


def test_draw_alpha_stays_in_unit_interval():
    cfg = GeneratorConfig()
    rng = np.random.default_rng(1)
    alphas = [draw_alpha(rng, cfg)[0] for _ in range(2000)]
    assert min(alphas) >= 0.0 and max(alphas) <= 1.0


def test_alpha_distribution_is_bimodal_at_even_mix():
    cfg = GeneratorConfig(strategy_mix=0.5)
    rng = np.random.default_rng(2)
    alphas = np.array([draw_alpha(rng, cfg)[0]
                       for _ in range(10_000)])
    valley = np.mean((alphas >= 0.5) & (alphas <= 0.6))
    assert valley < 0.10  # the gap between the two modes stays thin
    below = np.mean(alphas < 0.5)
    assert 0.45 < below < 0.55
    # both modes are well populated
    assert np.mean((alphas > 0.25) & (alphas < 0.45)) > 0.3
    assert np.mean((alphas > 0.65) & (alphas < 0.85)) > 0.3


# -- sample validity ----------------------------------------------------------------------

def test_check_sample_passes_consistent_sample():
    cfg = GeneratorConfig()
    sample = generate_sample(np.random.default_rng(3), cfg)
    assert check_sample(sample, cfg) is None


def test_check_sample_names_violated_limit():
    cfg = GeneratorConfig()
    sample = GazeSample(
        ConditionVector(EyePose(0.0, 0.0), HeadPose(0, 0, 0), [1.0, 0.0, 0.0]),
        MotionAllocation([cfg.eye_yaw_limit + 0.1, 0.0], [0.0, 0.0, 0.0]),
        EYE_DOMINANT,
    )
    violation = check_sample(sample, cfg)
    assert violation is not None and "eye yaw" in violation


def test_check_sample_names_consistency_miss():
    cfg = GeneratorConfig()
    sample = GazeSample(
        ConditionVector(EyePose(0.0, 0.0), HeadPose(0, 0, 0), [0.0, 1.0, 0.0]),
        MotionAllocation([0.0, 0.0], [0.0, 0.0, 0.0]),  # stares straight ahead
        EYE_DOMINANT,
    )
    violation = check_sample(sample, cfg)
    assert violation is not None and "misses target" in violation


def test_generate_sample_raises_on_unsatisfiable_limits():
    cfg = GeneratorConfig(eye_yaw_limit=0.0, max_attempts=20)
    with pytest.raises(DataError, match="consecutive attempts"):
        generate_sample(np.random.default_rng(4), cfg)


# -- full dataset invariants ----------------------------------------------------------------

def test_dataset_counts_and_split(default_dataset):
    assert len(default_dataset.samples) == 805
    assert len(default_dataset.subset("train")) == 644
    assert len(default_dataset.subset("val")) == 161
    assert default_dataset.split[:644] == ["train"] * 644


def test_dataset_every_sample_valid(default_dataset):
    cfg = default_dataset.config
    for sample in default_dataset.samples:
        assert check_sample(sample, cfg) is None


def test_dataset_strategy_mix_materialises(default_dataset):
    tags = [s.strategy for s in default_dataset.samples]
    head = tags.count(HEAD_DOMINANT)
    assert head / len(tags) > 0.85  # mix defaults to 0.95
    assert set(tags) <= {EYE_DOMINANT, HEAD_DOMINANT}


def test_dataset_regeneration_is_byte_identical(default_dataset):
    again = generate_dataset(0)
    assert serialize_dataset(again) == serialize_dataset(default_dataset)
    assert again.content_hash() == default_dataset.content_hash()


def test_dataset_seed_changes_content(default_dataset):
    other = generate_dataset(1, GeneratorConfig(n_samples=20))
    assert other.content_hash() != default_dataset.content_hash()


# -- persistence ------------------------------------------------------------------------------

def test_round_trip_is_byte_identical(tmp_path, default_dataset):
    path = tmp_path / "dataset.jsonl"
    write_dataset(default_dataset, path)
    back = read_dataset(path)
    assert serialize_dataset(back) == serialize_dataset(default_dataset)
    assert back.seed == default_dataset.seed
    assert back.config == default_dataset.config
    assert back.split == default_dataset.split


def test_write_dataset_failing_midway_keeps_previous_file(tmp_path, default_dataset):
    path = tmp_path / "dataset.jsonl"
    write_dataset(default_dataset, path)
    before = path.read_bytes()
    broken = Dataset(default_dataset.samples[:3] + [object()], ["train"] * 4,
                     seed=default_dataset.seed, config=default_dataset.config)
    with pytest.raises(AttributeError):
        write_dataset(broken, path)
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


def test_gaze_sample_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        GazeSample(
            ConditionVector(EyePose(0, 0), HeadPose(0, 0, 0), [1.0, 0, 0]),
            MotionAllocation([0, 0], [0, 0, 0]),
            "sideways",
        )
