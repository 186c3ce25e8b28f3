"""Command-line interface: subcommands, exit codes, manifests, artifacts.

Each failure class maps to a fixed exit code: 0 success, 2 configuration,
3 data, 4 training/checkpoints, 5 backend. Subcommands run in-process via
main(argv). Two subprocess tests check the console script: one runs the
`gazeshift` entry point declared in pyproject.toml in a fresh interpreter and
runs everywhere; the other runs the `gazeshift` script found on PATH and runs
only where the package is installed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import reprlib
import shutil
import socket
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gazeshift
from gazeshift import nets
from gazeshift.cli import _LIST_CHUNK, DIVERSITY_THRESHOLD, iter_shared_items, main
from gazeshift.config import Schema, check_object, parse_json
from gazeshift.datagen import GeneratorConfig, generate_dataset, serialize_dataset
from gazeshift.errors import ConfigError, DataError
from gazeshift.prior import ConditionalPrior
from gazeshift.reasoner.backends import API_KEY_ENV, RemoteConfig
from gazeshift.trainer import METRICS_COLUMNS, TIMINGS_SCHEMA, TrainConfig, infer
from gazeshift.vqvae import ConditionalVQVAE, condition_inputs
from datagen_oracles import EyePose, HeadPose, PoseCondition, read_dataset_per_line
from json_numbers import bad_json_numbers
from json_objects import (checkpoint_objects, config_objects, dataset_objects, refused,
                          scenario_objects, timings_objects, wrong_values)
from net_oracles import SPELLINGS, write_spelled
from scenario_oracles import scenario_from_doc_per_record

SMALL_CONFIG = {
    "generator": {"n_samples": 50},
    "training": {"stage1_epochs": 6, "stage2_epochs": 4, "batch_size": 16,
                 "hidden_width": 16, "codebook_size": 4, "latent_dim": 3,
                 "milestones": [3]},
}


def write_config(directory: Path, doc=None) -> str:
    path = directory / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG if doc is None else doc),
                    encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen-data + train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root)
    data_dir = root / "data"
    run_dir = root / "run"
    assert main(["gen-data", "--config", config, "--seed", "0",
                 "--out", str(data_dir)]) == 0
    assert main(["train", "--config", config, "--seed", "0",
                 "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(run_dir)]) == 0
    return root, config, data_dir, run_dir


def read_manifest(directory: Path) -> dict:
    return json.loads((directory / "manifest.json").read_text(encoding="utf-8"))


# -- gen-data ----------------------------------------------------------------------

def test_gen_data_writes_dataset_and_manifest(pipeline, capsys):
    _, _, data_dir, _ = pipeline
    dataset_path = data_dir / "dataset.jsonl"
    assert dataset_path.exists()
    manifest = read_manifest(data_dir)
    assert manifest["subcommand"] == "gen-data"
    assert manifest["outputs"] == [str(dataset_path)]
    assert manifest["config"]["generator"]["n_samples"] == 50
    body = dataset_path.read_text(encoding="utf-8")
    assert len(body.splitlines()) == 51  # header + 50 samples


def test_gen_data_is_reproducible(tmp_path):
    config = write_config(tmp_path)
    for name in ("a", "b"):
        assert main(["gen-data", "--config", config, "--seed", "3",
                     "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "a" / "dataset.jsonl").read_bytes()
    b = (tmp_path / "b" / "dataset.jsonl").read_bytes()
    assert a == b
    assert main(["gen-data", "--config", config, "--seed", "4",
                 "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "dataset.jsonl").read_bytes() != a


def test_gen_data_reports_split_counts(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    assert "50 samples (40 train / 10 val)" in out


def test_gen_data_unsatisfiable_limits_exit_data(tmp_path, capsys):
    config = write_config(tmp_path, {"generator": {"n_samples": 5,
                                                   "eye_yaw_limit": 0.0,
                                                   "max_attempts": 10}})
    code = main(["gen-data", "--config", config, "--out", str(tmp_path / "d")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_gen_data_limits_beyond_valid_poses_exit_config(tmp_path, capsys):
    # used to end in "ValueError: head pose yaw=... outside (-pi, pi]" and exit 1
    config = write_config(tmp_path, {"generator": {"head_yaw_limit": 7.0,
                                                   "azimuth_limit": 3.1}})
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "head_yaw_limit must be at most pi" in err
    assert err.count("\n") == 1


def test_gen_data_range_min_at_or_below_the_target_norm_exit_config(tmp_path, capsys):
    # used to end in "ValueError: target norm must exceed 0.05 m" and exit 1
    config = write_config(tmp_path, {"generator": {"range_min": 0.01, "range_max": 0.04}})
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "range_min must exceed the minimum target norm of 0.05 m, got 0.01" in err


@pytest.mark.parametrize("generator, empty", [({"n_samples": 1, "train_fraction": 0.5}, "train"),
                                              ({"n_samples": 3, "train_fraction": 0.9}, "val")],
                         ids=["no_train", "no_val"])
def test_a_split_rule_that_leaves_a_split_empty_is_refused(pipeline, tmp_path, capsys,
                                                           generator, empty):
    # gen-data used to write such a dataset and exit 0, and train then
    # refused it with exit 4: "dataset has no 'train' samples"
    config, out = write_config(tmp_path, {"generator": generator}), tmp_path / "d"
    assert main(["gen-data", "--config", config, "--out", str(out)]) == 2
    message = (f"train_fraction {generator['train_fraction']} of {generator['n_samples']} "
               f"samples leaves the {empty} split empty")
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not out.exists()
    # a dataset whose header holds that config has a bad generator header
    _, train_config, data_dir, _ = pipeline
    lines = (data_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines(True)
    header = json.loads(lines[0])
    header["generator"].update(generator)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
    assert main(["train", "--config", train_config, "--dataset", str(dataset),
                 "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == f"error: {dataset}: bad generator header: {message}\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("tag, empty", [("train", "val"), ("val", "train")])
def test_split_tags_that_leave_a_split_empty_exit_data(pipeline, tmp_path, capsys, command,
                                                       tag, empty):
    # train and eval used to refuse such a file with exit 4 and a message that did
    # not name it: "dataset has no 'val' samples"
    _, train_config, data_dir, run_dir = pipeline
    header, *samples = (data_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines(True)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(header + "".join(json.dumps({**json.loads(line), "split": tag}) + "\n"
                                        for line in samples), encoding="utf-8")
    flags = ["--config", train_config] if command == "train" else ["--run", str(run_dir)]
    out = tmp_path / "out"
    assert main([command, *flags, "--dataset", str(dataset), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: {dataset}: the split tags leave the {empty} "
                                       "split empty\n")
    assert not out.exists()


# -- configuration failures ------------------------------------------------------------

def test_unknown_config_section_exit_config(tmp_path):
    config = write_config(tmp_path, {"generater": {}})
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 2


def test_unknown_generator_field_exit_config(tmp_path):
    config = write_config(tmp_path, {"generator": {"n_sample": 10}})
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 2


@pytest.mark.parametrize("section", ["abc", {"n_samples": "many"}])
def test_malformed_generator_section_exit_config(tmp_path, capsys, section):
    config = write_config(tmp_path, {"generator": section})
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 2
    # a section that is no object is refused by the config file's own schema
    assert ("config field 'generator' must be a JSON object, got 'abc'" if section == "abc"
            else "generator config field 'n_samples'") in capsys.readouterr().err


@pytest.mark.parametrize("section", [{"lr": "fast"}, [1], {"milestones": 5},
                                     {"stage1_epochs": 1.5}, {"stage2_epochs": True},
                                     {"lr": math.nan}, {"codebook_size": 0},
                                     {"lr_decay": -1.0}, {"gamma": -1.0}])
def test_malformed_training_section_exit_config(pipeline, tmp_path, capsys, section):
    _, _, data_dir, _ = pipeline
    config = write_config(tmp_path, {"training": section})
    assert main(["train", "--config", config, "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("generator", [{"n_samples": "many"}, {"n_sample": 50}, "abc"])
def test_malformed_dataset_header_exit_data(pipeline, tmp_path, capsys, generator):
    _, config, data_dir, _ = pipeline
    lines = (data_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines(True)
    header = json.loads(lines[0])
    header["generator"] = generator
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
    assert main(["train", "--config", config, "--dataset", str(dataset),
                 "--out", str(tmp_path / "run")]) == 3
    assert "bad generator header" in capsys.readouterr().err


# An int beyond the float range is not a finite number; each used to crash or,
# as a backend timeout, hold every cycle of a replay that exited 0.

def test_generator_float_field_beyond_the_float_range_exit_config(tmp_path, capsys):
    config = write_config(tmp_path, {"generator": {"range_max": 10 ** 400}})
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert "generator config field 'range_max' must be a finite number" in err
    assert err.count("\n") == 1


def test_training_float_field_beyond_the_float_range_exit_config(pipeline, tmp_path, capsys):
    _, _, data_dir, _ = pipeline
    config = write_config(tmp_path, {"training": {"lr": 10 ** 400}})
    assert main(["train", "--config", config, "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "training config field 'lr' must be a finite number" in err
    assert err.count("\n") == 1


def test_backend_float_field_beyond_the_float_range_exit_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(API_KEY_ENV, "k")
    config = write_config(tmp_path, {"backend": {
        "endpoint": "https://example.test/v1/chat/completions", "model": "m",
        "timeout": 10 ** 400}})
    assert main(["replay", "--backend", "remote", "--config", config,
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "backend config field 'timeout' must be a finite number" in err
    assert err.count("\n") == 1


# A fault inside a section names the config file, as a fault in the file's own
# object does.

def test_generator_section_fault_names_the_config_file(tmp_path, capsys):
    config = write_config(tmp_path, {"generator": {"n_samples": "ten"}})
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == (f"error: {config}: generator config field 'n_samples' "
                                       f"must be an integer, got 'ten'\n")


def test_training_section_fault_names_the_config_file(pipeline, tmp_path, capsys):
    _, _, data_dir, _ = pipeline
    config = write_config(tmp_path, {"training": {"lr": -1.0}})
    assert main(["train", "--config", config, "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {config}: base learning rate must be positive\n"


def test_negative_milestone_is_refused_before_training(pipeline, tmp_path, capsys):
    # a milestone below 0 would count as passed at epoch 0: training would start
    # at lr * lr_decay while the checkpoint records lr
    _, _, data_dir, _ = pipeline
    config = write_config(tmp_path, {"training": {"milestones": [-3, 50]}})
    assert main(["train", "--config", config, "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {config}: milestones must be non-negative\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, fault", [
    ({"endpoint": "https://example.test/v1/chat/completions"}, "requires 'model'"),
    ({}, "requires 'endpoint' and 'model'")])  # an empty section used to name no file
def test_backend_section_fault_names_the_config_file(tmp_path, monkeypatch, capsys, section,
                                                     fault):
    monkeypatch.setenv(API_KEY_ENV, "k")
    config = write_config(tmp_path, {"backend": section})
    assert main(["replay", "--backend", "remote", "--config", config,
                 "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: {config}: backend config {fault}\n"
    assert not (tmp_path / "r").exists()


def test_malformed_config_file_exit_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2


def test_config_file_not_utf8_exit_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"generator": {"n_samples": 50}} \xff\n')
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and err.count("\n") == 1


def test_missing_config_file_exit_config(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "d")]) == 2


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["polish"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -- train ---------------------------------------------------------------------------------

def test_train_writes_checkpoints_metrics_manifest(pipeline):
    _, _, data_dir, run_dir = pipeline
    for name in ("stage1.json", "prior.json", "metrics.csv", "manifest.json"):
        assert (run_dir / name).exists(), name
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    stages = [r[0] for r in rows[1:]]
    assert stages == ["1"] * 6 + ["2"] * 4
    manifest = read_manifest(run_dir)
    assert manifest["subcommand"] == "train"
    assert set(manifest["best"]) == {"stage1", "stage2"}
    dataset_path = str(data_dir / "dataset.jsonl")
    digest = hashlib.sha256((data_dir / "dataset.jsonl").read_bytes()).hexdigest()
    assert manifest["inputs"][dataset_path] == digest
    assert manifest["config"]["training"]["seed"] == 0


def test_train_is_reproducible(pipeline, tmp_path):
    root, config, data_dir, run_dir = pipeline
    again = tmp_path / "again"
    assert main(["train", "--config", config, "--seed", "0",
                 "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(again)]) == 0
    assert ((again / "metrics.csv").read_bytes()
            == (run_dir / "metrics.csv").read_bytes())
    assert read_manifest(again)["best"] == read_manifest(run_dir)["best"]


def test_train_seed_flag_overrides_config_section(pipeline, tmp_path):
    _, _, data_dir, _ = pipeline
    doc = dict(SMALL_CONFIG)
    doc["training"] = dict(SMALL_CONFIG["training"], seed=7)
    config = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["train", "--config", config, "--seed", "2",
                 "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(out)]) == 0
    assert read_manifest(out)["config"]["training"]["seed"] == 2


def test_dataset_header_limits_beyond_valid_poses_exit_data(pipeline, tmp_path, capsys):
    # A 120 deg eye pitch limit let a 100 deg post-shift eye pitch through the
    # limit check, and the eye pose built from it ended train with exit 1.
    _, config, data_dir, _ = pipeline
    lines = (data_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    header, sample = json.loads(lines[0]), json.loads(lines[1])
    header["generator"]["eye_pitch_limit"] = math.radians(120)
    sample["delta_e"][1] = math.radians(100) - sample["theta_e"][1]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join([json.dumps(header), json.dumps(sample), *lines[2:]]) + "\n",
                       encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", config, "--dataset", str(dataset),
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "bad generator header: eye_pitch_limit must be at most pi/2" in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_dataset_header_range_min_at_the_target_norm_exit_data(pipeline, tmp_path, capsys):
    _, config, data_dir, _ = pipeline
    lines = (data_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["generator"]["range_min"] = 0.05
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", config, "--dataset", str(dataset),
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "bad generator header: range_min must exceed the minimum target norm" in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_train_missing_dataset_exit_data(tmp_path):
    config = write_config(tmp_path)
    assert main(["train", "--config", config,
                 "--dataset", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "run")]) == 3


@pytest.mark.parametrize("damage, reason", [
    (lambda lines: lines[:1] + [b"[1,2,3]\n"] + lines[2:],
     "line 2: sample must be a JSON object, got list"),
    (lambda lines: lines[:3] + [lines[3].rstrip(b"\n") + b" \xff\n"] + lines[4:],
     "cannot read dataset"),
], ids=["sample_not_an_object", "not_utf8"])
def test_damaged_dataset_exit_data(pipeline, tmp_path, capsys, damage, reason):
    _, config, data_dir, _ = pipeline
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(b"".join(damage((data_dir / "dataset.jsonl").read_bytes()
                                        .splitlines(True))))
    capsys.readouterr()
    assert main(["train", "--config", config, "--dataset", str(dataset),
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err and err.count("\n") == 1


def test_train_stage2_without_stage1_exit_training(pipeline, tmp_path):
    _, config, data_dir, _ = pipeline
    assert main(["train", "--config", config, "--stage", "2",
                 "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(tmp_path / "fresh")]) == 4


def test_train_stage2_forward_value_error_exit_training(pipeline, tmp_path, capsys,
                                                      monkeypatch):
    _, config, data_dir, run_dir = pipeline
    staged = tmp_path / "staged"
    staged.mkdir()
    shutil.copy(run_dir / "stage1.json", staged / "stage1.json")

    def broken(self, X):
        raise ValueError("bad condition rows")

    monkeypatch.setattr(ConditionalPrior, "logits_rows", broken)
    assert main(["train", "--config", config, "--seed", "0", "--stage", "2",
                 "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(staged)]) == 4
    assert "stage 2 epoch 0: bad condition rows" in capsys.readouterr().err
    assert not (staged / "prior.json").exists()


@pytest.mark.parametrize("codebook_size", [5, 3])
def test_train_stage2_with_another_codebook_size_exit_training(pipeline, tmp_path, capsys,
                                                               codebook_size):
    # the run's stage1.json has 4 codes: a larger size used to end in an
    # IndexError traceback, a smaller one to train a prior that does not fit
    _, _, data_dir, run_dir = pipeline
    staged = tmp_path / "staged"
    shutil.copytree(run_dir, staged)
    before = {p.name: p.read_bytes() for p in staged.iterdir()}
    doc = dict(SMALL_CONFIG)
    doc["training"] = dict(SMALL_CONFIG["training"], codebook_size=codebook_size)
    config = write_config(tmp_path, doc)
    capsys.readouterr()
    assert main(["train", "--config", config, "--seed", "0", "--stage", "2",
                 "--dataset", str(data_dir / "dataset.jsonl"), "--out", str(staged)]) == 4
    err = capsys.readouterr().err
    assert err == ("error: stage 2: stage-1 codebook_size 4 differs from the prior's "
                   f"{codebook_size}\n")
    assert {p.name: p.read_bytes() for p in staged.iterdir()} == before


def test_train_stage2_without_dataset_hash_exit_training(pipeline, tmp_path):
    _, config, data_dir, run_dir = pipeline
    staged = tmp_path / "staged"
    staged.mkdir()
    doc = json.loads((run_dir / "stage1.json").read_text(encoding="utf-8"))
    del doc["metadata"]["dataset_hash"]
    (staged / "stage1.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["train", "--config", config, "--seed", "0", "--stage", "2",
                 "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(staged)]) == 4
    assert not (staged / "prior.json").exists()


def _append(name, data):
    return lambda run: (run / name).write_bytes((run / name).read_bytes() + data)


def _directory_instead(name):
    def damage(run):
        (run / name).unlink()
        (run / name).mkdir()
    return damage


@pytest.mark.parametrize("damage, reason", [
    (_append("metrics.csv", b"\xff"), "'utf-8' codec can't decode byte 0xff"),
    (_append("timings.jsonl", b"\xff"), "'utf-8' codec can't decode byte 0xff"),
    (_directory_instead("metrics.csv"), "Is a directory"),
    (_append("metrics.csv", b'1,"x'), "has a stage-1 row without 13 cells"),
    # the run wrote 10 timing lines (6 + 4 epochs); these two used to be dropped in silence
    (_append("timings.jsonl", b"[1, 2]\n"),
     "timings.jsonl as one JSON object per line: line 11 must be a JSON object, got list"),
    (_append("timings.jsonl", b'{"epoch": 0, "step_s": 0.1, "optimizer_s": 0.1, '
                              b'"validation_s": 0.1}\n'),
     "timings.jsonl as one JSON object per line: line 11 requires 'stage'"),
], ids=["metrics_not_utf8", "timings_not_utf8", "metrics_is_a_directory", "short_stage1_row",
        "timings_line_not_an_object", "timings_line_without_stage"])
def test_train_stage2_damaged_earlier_file_exit_training(pipeline, tmp_path, capsys,
                                                          damage, reason):
    # a stage-2 run keeps the stage-1 rows and timings of the earlier run
    _, config, data_dir, run_dir = pipeline
    damaged = tmp_path / "damaged"
    shutil.copytree(run_dir, damaged)
    damage(damaged)
    before = {p.name: p.read_bytes() if p.is_file() else None for p in damaged.iterdir()}
    capsys.readouterr()
    assert main(["train", "--config", config, "--seed", "0", "--stage", "2",
                 "--dataset", str(data_dir / "dataset.jsonl"), "--out", str(damaged)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err and err.count("\n") == 1
    assert {p.name: p.read_bytes() if p.is_file() else None
            for p in damaged.iterdir()} == before


def test_write_json_atomic_failing_midway_keeps_previous_file(tmp_path):
    from gazeshift.cli import write_json_atomic
    path = tmp_path / "report.json"
    write_json_atomic({"a": 1}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json_atomic({"a": 2, "b": object()}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_train_stage1_then_stage2_matches_both(pipeline, tmp_path):
    _, config, data_dir, run_dir = pipeline
    staged = tmp_path / "staged"
    # the repeated stage 2 replaces its own rows and keeps the stage-1 ones
    for stage in ("1", "2", "2"):
        assert main(["train", "--config", config, "--seed", "0", "--stage", stage,
                     "--dataset", str(data_dir / "dataset.jsonl"),
                     "--out", str(staged)]) == 0
    for name in ("metrics.csv", "stage1.json", "prior.json"):
        assert (staged / name).read_bytes() == (run_dir / name).read_bytes(), name


# -- eval ----------------------------------------------------------------------------------

def test_eval_writes_report(pipeline, tmp_path, capsys):
    _, _, data_dir, run_dir = pipeline
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(data_dir / "dataset.jsonl"),
                 "--run", str(run_dir), "--out", str(out)]) == 0
    report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert set(report) == {"stage1", "stage2", "per_code"}
    assert 0 < report["stage1"]["codebook_utilization"] <= 1
    assert 0 <= report["stage2"]["prior_top1_acc"] <= 1
    counts = sum(v["val_count"] for v in report["per_code"].values())
    assert counts == 10  # every val row lands on exactly one code
    for v in report["per_code"].values():
        assert 0.0 <= v["mean_head_contribution"] <= 1.0
    manifest = read_manifest(out)
    assert len(manifest["inputs"]) == 3  # dataset + both checkpoints
    assert all(len(h) == 64 for h in manifest["inputs"].values())


def test_eval_missing_run_exit_training(pipeline, tmp_path):
    _, _, data_dir, _ = pipeline
    assert main(["eval", "--dataset", str(data_dir / "dataset.jsonl"),
                 "--run", str(tmp_path / "void"), "--out", str(tmp_path / "e")]) == 4


# Each edit damages a checkpoint document in place, or returns the text to
# write instead of it.

def _drop_bias(doc):
    del doc["params"]["decoder.2.b"]


def _short_bias(doc):
    doc["params"]["decoder.0.b"] = {"shape": [1], "data": [0.5]}


def _extra_param(doc):
    doc["params"]["3.W"] = {"shape": [1, 1], "data": [0.0]}


def _huge_int_weight(doc):
    # numpy raises OverflowError on it, which ended eval and sample in a
    # traceback and exit 1
    doc["params"]["recon_encoder.0.W"]["data"][0] = 10 ** 400


def _nan_weight(doc):
    # json writes and reads NaN and Infinity, and no forward pass checks
    # parameter values, so loading must refuse them
    doc["params"]["decoder.1.W"]["data"][3] = math.nan


def _inf_bias(doc):
    doc["params"]["1.b"]["data"][0] = math.inf


def _string_weight(doc):
    # numpy reads the string "0.5" as 0.5, so this file used to sample with exit 0
    data = doc["params"]["decoder.0.W"]["data"]
    data[0] = repr(data[0])


def _true_bias(doc):
    doc["params"]["0.b"]["data"][1] = True


def _minus_inf_codebook(doc):
    doc["params"]["codebook"]["data"][2] = -math.inf


def _truncated(doc):
    text = json.dumps(doc)
    return text[:len(text) // 2]


def _no_params(doc):
    del doc["params"]


def _params_list(doc):
    doc["params"] = list(doc["params"].values())


def _text_shape(doc):
    doc["params"]["decoder.0.W"]["shape"] = "x"


def _entry_without_data(doc):
    del doc["params"]["0.b"]["data"]


def _metadata_list(doc):
    doc["metadata"] = []


def _no_gamma(doc):
    del doc["metadata"]["model"]["gamma"]


def _model_spec_list(doc):
    doc["metadata"]["model"] = []


def _target_scale_text(doc):
    doc["metadata"]["model"]["target_scale"] = "x"


def _target_scale_null(doc):
    doc["metadata"]["model"]["target_scale"] = None


def _target_scale_zero(doc):
    doc["metadata"]["model"]["target_scale"] = 0


def _target_scale_negative(doc):
    doc["metadata"]["model"]["target_scale"] = -2


def _no_target_scale(doc):
    del doc["metadata"]["model"]["target_scale"]


def _target_scale_nan(doc):
    doc["metadata"]["model"]["target_scale"] = math.nan


def _target_scale_inf(doc):
    doc["metadata"]["model"]["target_scale"] = math.inf


def _target_scale_three(doc):
    doc["metadata"]["model"]["target_scale"] = 3.0


def _codebook_size_float(doc):
    doc["metadata"]["model"]["codebook_size"] = 10.0


def _latent_dim_true(doc):
    doc["metadata"]["model"]["latent_dim"] = True


def _unknown_model_field(doc):
    doc["metadata"]["model"]["dropout"] = 0.1


@pytest.mark.parametrize("name, edit, reason", [
    ("stage1.json", _drop_bias, "missing"),
    ("stage1.json", _short_bias, "shape"),
    ("prior.json", _extra_param, "unexpected"),
    ("stage1.json", _nan_weight,
     "parameter 'decoder.1.W' field data[3] must be a finite number, got nan"),
    ("stage1.json", _huge_int_weight, "stage1.json: parameter 'recon_encoder.0.W' field "
     f"data[0] must be a finite number, got {reprlib.repr(10 ** 400)}"),
    ("stage1.json", _minus_inf_codebook,
     "parameter 'codebook' field data[2] must be a finite number, got -inf"),
    # explicit ids: these reasons changed, and ids built from them would run long
    pytest.param("prior.json", _inf_bias,
                 "parameter '1.b' field data[0] must be a finite number, got inf",
                 id="prior.json-_inf_bias"),
    ("stage1.json", _string_weight,
     "stage1.json: parameter 'decoder.0.W' field data[0] must be a finite number, got '"),
    ("prior.json", _true_bias,
     "prior.json: parameter '0.b' field data[1] must be a finite number, got True"),
    ("stage1.json", _truncated, "stage1.json: not valid JSON"),
    ("stage1.json", _no_params, "stage1.json: checkpoint requires 'params'"),
    pytest.param("prior.json", _params_list,
                 "prior.json: checkpoint field 'params' must be a JSON object, got [{",
                 id="prior.json-_params_list"),
    ("stage1.json", _text_shape,
     "stage1.json: parameter 'decoder.0.W' field 'shape' must be a list of integers, got 'x'"),
    ("prior.json", _entry_without_data, "prior.json: parameter '0.b' requires 'data'"),
    pytest.param("stage1.json", _metadata_list,
                 "stage1.json: checkpoint field 'metadata' must be a JSON object, got []",
                 id="stage1.json-_metadata_list"),
    ("prior.json", _no_gamma, "prior.json: unusable checkpoint: model config requires 'gamma'"),
    ("stage1.json", _model_spec_list,
     "stage1.json: unusable checkpoint: model config must be a JSON object, got list"),
    pytest.param("prior.json", _model_spec_list,
                 "prior.json: unusable checkpoint: model config must be a JSON object, got list",
                 id="prior.json-_model_spec_list"),
    ("prior.json", _target_scale_text, "prior.json: unusable checkpoint: "
     "model config field 'target_scale' must be a finite number, got 'x'"),
    ("prior.json", _target_scale_null, "prior.json: unusable checkpoint: "
     "model config field 'target_scale' must be a finite number, got None"),
    ("prior.json", _target_scale_zero, "target_scale must be positive and finite, not 0"),
    ("prior.json", _target_scale_negative, "target_scale must be positive and finite, not -2"),
    ("prior.json", _no_target_scale,
     "prior.json: unusable checkpoint: model config requires 'target_scale'"),
    ("prior.json", _target_scale_nan, "target_scale' must be a finite number, got nan"),
    ("stage1.json", _target_scale_nan, "target_scale' must be a finite number, got nan"),
    ("stage1.json", _target_scale_inf, "target_scale' must be a finite number, got inf"),
    # valid alone, but the two models would normalise one condition row differently
    ("stage1.json", _target_scale_three, "stage-1 target_scale 3.0 differs from the prior's 2.0"),
    # the VQ-VAE loader used to fill a missing field with its default
    ("stage1.json", _no_target_scale,
     "stage1.json: unusable checkpoint: model config requires 'target_scale'"),
    ("prior.json", _codebook_size_float,
     "model config field 'codebook_size' must be an integer, got 10.0"),
    ("stage1.json", _codebook_size_float,
     "model config field 'codebook_size' must be an integer, got 10.0"),
    ("stage1.json", _latent_dim_true,
     "model config field 'latent_dim' must be an integer, got True"),
    ("stage1.json", _unknown_model_field, "unknown model config fields: ['dropout']"),
    # the prior loader used to ignore a field it does not know
    ("prior.json", _unknown_model_field, "unknown model config fields: ['dropout']"),
])
def test_eval_damaged_checkpoint_exit_training(pipeline, tmp_path, capsys, name, edit, reason):
    # eval and sample read both checkpoints, train --stage 2 the stage-1 one
    _, config, data_dir, run_dir = pipeline
    damaged = tmp_path / "damaged"
    shutil.copytree(run_dir, damaged)
    doc = json.loads((damaged / name).read_text(encoding="utf-8"))
    text = edit(doc)
    (damaged / name).write_text(json.dumps(doc) if text is None else text, encoding="utf-8")
    dataset = str(data_dir / "dataset.jsonl")
    commands = [["eval", "--dataset", dataset, "--run", str(damaged), "--out", str(tmp_path / "e")],
                ["sample", "--run", str(damaged), "--n", "3", "--out", str(tmp_path / "s")]]
    if name == "stage1.json":
        commands.append(["train", "--config", config, "--seed", "0", "--stage", "2",
                         "--dataset", dataset, "--out", str(damaged)])
        # link the prior to the damaged bytes, so that each row meets its own
        # check rather than the link's (test_one_ulp_edit_to_stage1_is_refused)
        prior = json.loads((damaged / "prior.json").read_text(encoding="utf-8"))
        prior["metadata"]["model"]["stage1_sha256"] = hashlib.sha256(
            (damaged / name).read_bytes()).hexdigest()
        (damaged / "prior.json").write_text(json.dumps(prior), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in damaged.iterdir()}
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 4, argv[0]
        [line] = capsys.readouterr().err.splitlines()
        assert reason in line, argv[0]
    assert {p.name: p.read_bytes() for p in damaged.iterdir()} == before


DEEP_JSON = "[" * 200_000  # deeper than the parser's recursion limit


@pytest.mark.parametrize("command", ["replay", "train", "eval", "gen-data"])
def test_json_nested_too_deeply_is_one_error_line_naming_the_file(pipeline, tmp_path, capsys,
                                                                   command):
    # the parser's RecursionError used to escape the exit codes as a traceback
    _, config, data_dir, run_dir = pipeline
    dataset = data_dir / "dataset.jsonl"
    out = str(tmp_path / "out")
    if command == "replay":
        (tmp_path / "scenarios").mkdir()
        bad = tmp_path / "scenarios" / "deep.json"
        bad.write_text(DEEP_JSON, encoding="utf-8")
        argv, code = ["replay", "--scenarios", str(bad.parent), "--out", out], 3
    elif command == "train":
        bad = tmp_path / "dataset.jsonl"
        header = dataset.read_text(encoding="utf-8").splitlines()[0]
        bad.write_text(f"{header}\n{DEEP_JSON}\n", encoding="utf-8")
        argv, code = ["train", "--config", config, "--dataset", str(bad), "--out", out], 3
    elif command == "eval":
        damaged = tmp_path / "run"
        shutil.copytree(run_dir, damaged)
        bad = damaged / "stage1.json"
        bad.write_text(DEEP_JSON, encoding="utf-8")
        argv, code = ["eval", "--dataset", str(dataset), "--run", str(damaged), "--out", out], 4
    else:
        bad = tmp_path / "config.json"
        bad.write_text(DEEP_JSON, encoding="utf-8")
        argv, code = ["gen-data", "--config", str(bad), "--out", out], 2
    capsys.readouterr()
    assert main(argv) == code
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(bad) in line
    assert "JSON text nested too deeply to parse" in line


@pytest.mark.parametrize("name, edit, reason", [
    ("prior.json", lambda doc: doc.update(version=True),
     "checkpoint field 'version' must be an integer, got True"),
    ("prior.json", lambda doc: doc.update(version=1.0),
     "checkpoint field 'version' must be an integer, got 1.0"),
    ("stage1.json", lambda doc: doc.update(note="hand-made"),
     "unknown checkpoint fields: ['note']"),
    ("prior.json", lambda doc: doc["params"]["0.b"].update(dtype="float64"),
     "unknown parameter '0.b' fields: ['dtype']"),
], ids=["version_true", "version_float", "unknown_key", "unknown_param_entry_key"])
def test_checkpoint_fault_that_used_to_load_exit_training(pipeline, tmp_path, capsys, name,
                                                           edit, reason):
    _, _, data_dir, run_dir = pipeline
    damaged = tmp_path / "damaged"
    shutil.copytree(run_dir, damaged)
    doc = json.loads((damaged / name).read_text(encoding="utf-8"))
    edit(doc)
    (damaged / name).write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["sample", "--run", str(damaged), "--out", str(tmp_path / "s")]) == 4
    assert capsys.readouterr().err == (f"error: cannot load checkpoints from {damaged}: "
                                       f"{damaged / name}: {reason}\n")


def test_dataset_line_with_an_unknown_key_exit_data(tmp_path):
    # a misspelled key beside the right ones used to load without a word
    lines = list(NUMBER_LINES)
    lines[3] = json.dumps({**json.loads(lines[3]), "thta_e": [0.0, 0.0]})
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _main_err(["train", "--dataset", str(path), "--out", str(tmp_path / "run")]) == (
        3, f"error: {path}: line 4: unknown sample fields: ['thta_e']\n")


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.update(thta_e=[0.0, 0.0]), "unknown sample fields: ['thta_e']"),
    (lambda doc: doc["delta_h"].__setitem__(0, 4.0),
     "motion increments must lie within [-pi, pi]"),
    (lambda doc: doc["delta_h"].__setitem__(0, doc["delta_h"][0] + 0.5),
     "invariant violation: gaze misses target by"),
], ids=["sample_line", "value_rule", "invariant"])
def test_eval_names_the_dataset_of_a_damaged_line(pipeline, tmp_path, edit, reason):
    # a line's error used to name the line but not the file it is in
    _, _, data_dir, run_dir = pipeline
    lines = (data_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[3])
    edit(doc)
    lines[3] = json.dumps(doc)
    dataset = tmp_path / "damaged.jsonl"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = _main_err(["eval", "--dataset", str(dataset), "--run", str(run_dir),
                           "--out", str(tmp_path / "e")])
    assert code == 3
    assert err.startswith(f"error: {dataset}: line 4: {reason}") and err.count("\n") == 1


def _eval_and_sample(run: Path, dataset: Path, out: Path) -> list:
    return [main(["eval", "--dataset", str(dataset), "--run", str(run),
                  "--out", str(out / "e")]),
            main(["sample", "--run", str(run), "--n", "50", "--seed", "4",
                  "--out", str(out / "s")])]


def test_eval_and_sample_read_and_parse_each_input_once(pipeline, tmp_path, monkeypatch):
    # the digests in the manifest are those of the bytes the loaders read:
    # no input is opened again to hash it, and no checkpoint is parsed twice
    _, _, data_dir, run_dir = pipeline
    dataset = data_dir / "dataset.jsonl"
    stage1, prior = run_dir / "stage1.json", run_dir / "prior.json"
    opens, parses, real_open, real_loads = [], [], open, json.loads

    def counted_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) in (dataset, stage1, prior):
            opens.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    def counted_loads(text, *args, **kwargs):
        if isinstance(text, str) and text.startswith('{"format": "gazeshift-checkpoint"'):
            parses.append(1)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    monkeypatch.setattr(json, "loads", counted_loads)
    assert _eval_and_sample(run_dir, dataset, tmp_path) == [0, 0]
    assert opens == ["dataset.jsonl", "stage1.json", "prior.json",  # eval
                     "stage1.json", "prior.json"]  # sample
    assert len(parses) == 4


@pytest.mark.parametrize("spelling", ["%.17e", "%.17g", "integers", "indent"])
def test_respelled_stage1_loads_but_does_not_pair(pipeline, tmp_path, capsys, spelling):
    # the same weights written with other number tokens, or indented: the
    # file loads by itself, but it is not the file the prior was trained
    # against, so eval and sample refuse the pair
    _, _, data_dir, run_dir = pipeline
    model, _ = ConditionalVQVAE.load(run_dir / "stage1.json")
    prior, _ = ConditionalPrior.load(run_dir / "prior.json")
    model.codebook[0, 0] = 1.0  # a whole number: an integer token but in %.17e
    canonical, respelled = tmp_path / "canonical", tmp_path / "respelled"
    for run in (canonical, respelled):
        run.mkdir()
        prior.save(run / "prior.json", stage1_sha256=model.save(run / "stage1.json"))
    ck = nets.load_checkpoint(respelled / "stage1.json")
    if spelling == "indent":
        doc = json.loads((respelled / "stage1.json").read_text(encoding="utf-8"))
        (respelled / "stage1.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    else:
        write_spelled(respelled / "stage1.json", ck.params, SPELLINGS[spelling], ck.metadata)
    loaded, again = ConditionalVQVAE.load(respelled / "stage1.json")
    assert again.sha256 != ck.sha256
    assert all(np.array_equal(p, ck.params[name]) for name, p in loaded.params().items())

    dataset = data_dir / "dataset.jsonl"
    assert _eval_and_sample(canonical, dataset, tmp_path / "a") == [0, 0]
    capsys.readouterr()
    assert _eval_and_sample(respelled, dataset, tmp_path / "b") == [4, 4]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all("prior checkpoint was trained against a different first-stage model" in line
               for line in err)
    assert not (tmp_path / "b").exists()


def test_prior_from_before_the_byte_link_exits_training_until_retrained(pipeline, tmp_path,
                                                                         capsys):
    # A prior written when the link was a hash of the stage-1 weights' values
    # records it as stage1_fingerprint, now an unknown model field. Training
    # stage 2 again writes the byte link and re-pairs the run.
    _, config, data_dir, run_dir = pipeline
    old = tmp_path / "old"
    shutil.copytree(run_dir, old)
    doc = json.loads((old / "prior.json").read_text(encoding="utf-8"))
    spec = doc["metadata"]["model"]
    del spec["stage1_sha256"]
    spec["stage1_fingerprint"] = "5f" * 32
    (old / "prior.json").write_text(json.dumps(doc), encoding="utf-8")
    dataset = data_dir / "dataset.jsonl"
    capsys.readouterr()
    assert _eval_and_sample(old, dataset, tmp_path / "a") == [4, 4]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all("prior.json: unusable checkpoint: unknown model config fields: "
               "['stage1_fingerprint']" in line for line in err)
    assert main(["train", "--config", config, "--seed", "0", "--stage", "2",
                 "--dataset", str(dataset), "--out", str(old)]) == 0
    assert (old / "prior.json").read_bytes() == (run_dir / "prior.json").read_bytes()
    assert _eval_and_sample(old, dataset, tmp_path / "b") == [0, 0]


def test_one_ulp_edit_to_stage1_is_refused(pipeline, tmp_path, capsys):
    _, _, data_dir, run_dir = pipeline
    damaged = tmp_path / "damaged"
    shutil.copytree(run_dir, damaged)
    doc = json.loads((damaged / "stage1.json").read_text(encoding="utf-8"))
    data = doc["params"]["codebook"]["data"]
    data[3] = math.nextafter(data[3], math.inf)
    (damaged / "stage1.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert _eval_and_sample(damaged, data_dir / "dataset.jsonl", tmp_path) == [4, 4]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all("prior checkpoint was trained against a different first-stage model" in line
               for line in err)
    assert not (tmp_path / "e").exists() and not (tmp_path / "s").exists()


# -- sample --------------------------------------------------------------------------------

def reference_samples_json(run_dir: Path, seed: int, mode: str, n: int, eye: str,
                           head: str, target: str) -> bytes:
    """samples.json as the per-draw loop wrote it: ``infer`` n times, then ``json.dump``."""
    model, _ = ConditionalVQVAE.load(run_dir / "stage1.json")
    prior, _ = ConditionalPrior.load(run_dir / "prior.json")
    eye, head, target = ([float(v) for v in text.split(",")] for text in (eye, head, target))
    condition = PoseCondition(eye=EyePose(*[math.radians(v) for v in eye]),
                              head=HeadPose(*[math.radians(v) for v in head]),
                              target=np.array(target))
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        result = infer(model, prior, condition, mode=mode, rng=rng)
        row = result.allocation.as_vector()
        samples.append({
            "code": result.code,
            "delta_eye_deg": [math.degrees(v) for v in row[:2]],
            "delta_head_deg": [math.degrees(v) for v in row[2:]],
        })
    pi = prior.forward_rows(condition_inputs(condition.as_input()[None, :],
                                             prior.config.target_scale))[0]
    report = {
        "condition": {"eye_deg": eye, "head_deg": head, "target_m": target},
        "mode": mode,
        "seed": seed,
        "samples": samples,
        "pi": [float(p) for p in pi],
        "codes_above_threshold": {str(k): float(pi[k]) for k in range(len(pi))
                                  if pi[k] > DIVERSITY_THRESHOLD},
    }
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("mode", ["sample", "argmax"])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n", [1, 400])
def test_sample_writes_the_per_draw_loops_bytes(pipeline, tmp_path, mode, seed, n):
    _, _, _, run_dir = pipeline
    # a condition where the small model's prior spreads over several codes
    condition = {"eye": "4,-2", "head": "-30,5,0", "target": "0.6,-1.2,0.9"}
    out = tmp_path / "s"
    assert main(["sample", "--run", str(run_dir), "--seed", str(seed), "--mode", mode,
                 "--n", str(n), "--out", str(out)]
                + [f"--{k}={v}" for k, v in condition.items()]) == 0
    written = (out / "samples.json").read_bytes()
    assert written == reference_samples_json(run_dir, seed, mode, n, **condition)
    codes = {s["code"] for s in json.loads(written)["samples"]}
    if mode == "sample" and n > 1:
        assert len(codes) >= 3
    else:
        assert len(codes) == 1


def test_sample_reads_a_value_with_a_leading_minus_after_a_space(pipeline, tmp_path):
    _, _, _, run_dir = pipeline
    condition = {"eye": "-4,-2", "head": "-30,5,0", "target": "-.6,-1.2,0.9"}
    joined = [f"--{k}={v}" for k, v in condition.items()]
    spaced = [token for k, v in condition.items() for token in (f"--{k}", v)]
    written = []
    for name, flags in (("joined", joined), ("spaced", spaced)):
        out = tmp_path / name
        assert main(["sample", "--run", str(run_dir), "--n", "50", *flags,
                     "--out", str(out)]) == 0
        written.append((out / "samples.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["condition"] == {
        "eye_deg": [-4.0, -2.0], "head_deg": [-30.0, 5.0, 0.0], "target_m": [-0.6, -1.2, 0.9]}


def test_sample_with_an_allocation_outside_pi_exit_training(pipeline, tmp_path, capsys):
    # the model produced the unusable output, not the flags: exit 4, nothing written
    _, _, _, run_dir = pipeline
    broken = tmp_path / "broken"
    broken.mkdir()
    model, _ = ConditionalVQVAE.load(run_dir / "stage1.json")
    prior, _ = ConditionalPrior.load(run_dir / "prior.json")
    model.decoder.biases[-1][0] = 100.0  # every decoded eye yaw increment, far past pi
    prior.save(broken / "prior.json", stage1_sha256=model.save(broken / "stage1.json"))
    out = tmp_path / "s"
    for mode in ("sample", "argmax"):
        assert main(["sample", "--run", str(broken), "--n", "3", "--mode", mode,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: cannot sample from .*: code \d+ decodes to an unusable "
                            r"allocation: motion increments must lie within \[-pi, pi\]\n", err)
        assert not out.exists()


def test_sample_with_a_prior_that_is_not_a_distribution_exit_training(pipeline, tmp_path,
                                                                      capsys, monkeypatch):
    # the error line prints the sum as a Python float, not as np.float64(0.9)
    _, _, _, run_dir = pipeline

    def off_by_a_tenth(self, X):
        pi = np.zeros((len(X), self.config.codebook_size))
        pi[:, :2] = [0.5, 0.4]
        return pi

    monkeypatch.setattr(ConditionalPrior, "forward_rows", off_by_a_tenth)
    out = tmp_path / "s"
    assert main(["sample", "--run", str(run_dir), "--n", "3", "--out", str(out)]) == 4
    assert capsys.readouterr().err == (f"error: cannot sample from {run_dir}: "
                                       f"distribution sums to 0.9, not 1\n")
    assert not out.exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
SHARED = {"code": 2, "delta_eye_deg": [1.5, -0.25], "note": "a\nb \u00e9"}
OTHER = {"code": 0, "nested": {"z": [], "a": {}}}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), st.one_of(
    json_values,
    # a list that repeats a few objects by reference, as samples.json does
    st.tuples(st.lists(json_values, min_size=1, max_size=3), st.lists(st.integers(0, 2)))
    .map(lambda pool_picks: [pool_picks[0][i % len(pool_picks[0])] for i in pool_picks[1]]),
), max_size=5))
@example({})
@example({"samples": [SHARED, OTHER, SHARED, SHARED, OTHER], "seed": 3, "empty": [],
          "condition": {"eye_deg": [0.0, 0.0]}, "mode": "sample", "none": None})
@example({"z": [[1, [2, 3]], [1, [2, 3]]], "\u00e9": [SHARED] * 3, "a": "x"})
# lists longer than two chunks, exactly one chunk, and one item past it
@example({"samples": [(SHARED, OTHER, [0.5])[i % 3] for i in range(2500)], "seed": 1})
@example({"a": [OTHER] * _LIST_CHUNK, "b": [SHARED, OTHER] * (_LIST_CHUNK // 2) + [SHARED]})
def test_iter_shared_items_matches_json_dumps(doc):
    assert "".join(iter_shared_items(doc)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_sample_argmax_is_constant(pipeline, tmp_path):
    _, _, _, run_dir = pipeline
    out = tmp_path / "s"
    assert main(["sample", "--run", str(run_dir), "--mode", "argmax",
                 "--n", "5", "--out", str(out)]) == 0
    report = json.loads((out / "samples.json").read_text(encoding="utf-8"))
    assert len(report["samples"]) == 5
    assert len({json.dumps(s, sort_keys=True) for s in report["samples"]}) == 1
    assert report["samples"][0]["code"] == int(np.argmax(report["pi"]))


def test_sample_report_tracks_diversity_threshold(pipeline, tmp_path):
    _, _, _, run_dir = pipeline
    out = tmp_path / "s"
    assert main(["sample", "--run", str(run_dir), "--seed", "1",
                 "--eye", "2,-1", "--head", "10,0,0", "--target", "1.2,0.4,0.1",
                 "--out", str(out)]) == 0
    report = json.loads((out / "samples.json").read_text(encoding="utf-8"))
    pi = report["pi"]
    assert report["codes_above_threshold"] == {
        str(k): pi[k] for k in range(len(pi)) if pi[k] > 0.05}
    assert abs(sum(pi) - 1.0) < 1e-9
    for s in report["samples"]:
        assert 0 <= s["code"] < len(pi)


def test_sample_same_seed_same_draws(pipeline, tmp_path):
    _, _, _, run_dir = pipeline
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sample", "--run", str(run_dir), "--seed", "9",
                     "--out", str(out)]) == 0
        reports.append((out / "samples.json").read_bytes())
    assert reports[0] == reports[1]


def _condition_message(eye: str = "0,0", head: str = "0,0,0", target: str = "1.5,0.8,0.2"):
    """The oracle classes' message for a condition given as ``sample`` flags, or None."""
    eye, head, target = ([float(v) for v in text.split(",")] for text in (eye, head, target))
    try:
        PoseCondition(EyePose(*map(math.radians, eye)), HeadPose(*map(math.radians, head)),
                      np.array(target))
    except ValueError as exc:
        return str(exc)
    return None


def test_sample_rejects_malformed_condition(pipeline, tmp_path, capsys):
    _, _, _, run_dir = pipeline
    assert main(["sample", "--run", str(run_dir), "--eye", "1,2,3",
                 "--out", str(tmp_path / "s")]) == 2
    # one condition per value rule, each with the oracle classes' message
    for flag, value in [("eye", "nan,0"),
                        ("eye", "0,91"),  # eye pitch past 90 deg
                        ("head", "0,0,181"),  # head roll past 180 deg
                        ("target", "1,nan,0"),
                        ("target", "0,0,0"),
                        ("target", "0.05,0,0")]:  # norm not above 0.05 m
        message = _condition_message(**{flag: value})
        assert message is not None
        capsys.readouterr()
        assert main(["sample", "--run", str(run_dir), f"--{flag}={value}",
                     "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sample_rejects_non_positive_n(pipeline, tmp_path, capsys, n):
    _, _, _, run_dir = pipeline
    out = tmp_path / "s"
    assert main(["sample", "--run", str(run_dir), "--n", n, "--out", str(out)]) == 2
    assert "--n must be at least 1" in capsys.readouterr().err
    assert not (out / "samples.json").exists()


# -- negative seeds ------------------------------------------------------------------------

def test_gen_data_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen-data", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rejects_negative_seed(pipeline, tmp_path, capsys):
    _, _, _, run_dir = pipeline
    out = tmp_path / "s"
    assert main(["sample", "--run", str(run_dir), "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_training_config_rejects_negative_seed(pipeline, tmp_path, capsys):
    _, _, data_dir, _ = pipeline
    config = write_config(tmp_path, {"training": {"seed": -1}})
    out = tmp_path / "run"
    assert main(["train", "--config", config, "--dataset", str(data_dir / "dataset.jsonl"),
                 "--out", str(out)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


# -- --seed and --config only where they are read ---------------------------------------

@pytest.mark.parametrize("subcommand, flag", [
    pytest.param("replay", "--seed", id="replay"),
    pytest.param("eval", "--seed", id="eval"),
    pytest.param("eval", "--config", id="eval-config"),
    pytest.param("sample", "--config", id="sample-config"),
])
def test_seed_is_a_usage_error_where_nothing_is_random(pipeline, tmp_path, capsys,
                                                       subcommand, flag):
    """So is --config where no config section is read: the flag must not pass unread."""
    _, config, data_dir, run_dir = pipeline
    out = tmp_path / "o"
    argv = {"replay": ["replay", "--backend", "scripted"],
            "eval": ["eval", "--dataset", str(data_dir / "dataset.jsonl"),
                     "--run", str(run_dir)],
            "sample": ["sample", "--run", str(run_dir)]}[subcommand]
    value = {"--seed": "7", "--config": config}[flag]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, value, "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--out", str(out)]) == 0


# -- replay --------------------------------------------------------------------------------

def test_replay_scripted_bundle(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["replay", "--backend", "scripted", "--out", str(out)]) == 0
    table = (out / "success_table.csv").read_text(encoding="utf-8")
    assert table.splitlines()[0] == "regularity,clips,correct,success_rate"
    for group in ("H1", "H2", "H3", "H4"):
        assert f"{group},3,3,100.0" in table
    lines = (out / "cycles.jsonl").read_text().splitlines()
    assert len(lines) == 70  # 12 bundled scenarios, all cycles logged
    manifest = read_manifest(out)
    assert manifest["excluded"] == []
    assert len(manifest["inputs"]) == 12


def test_replay_adversarial_scores_zero(tmp_path):
    out = tmp_path / "r"
    assert main(["replay", "--backend", "adversarial", "--out", str(out)]) == 0
    table = (out / "success_table.csv").read_text(encoding="utf-8")
    for group in ("H1", "H2", "H3", "H4"):
        assert f"{group},3,0,0.0" in table


def test_replay_empty_scenarios_value_exit_config(tmp_path, capsys):
    # only a missing --scenarios selects the bundled corpus; an empty value used to
    # replay it and exit 0
    out = tmp_path / "r"
    assert main(["replay", "--scenarios", "", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --scenarios must name a scenario directory, got ''\n"
    assert not out.exists()


def test_replay_empty_scenario_dir_exit_data(tmp_path):
    assert main(["replay", "--scenarios", str(tmp_path),
                 "--out", str(tmp_path / "r")]) == 3


def _set_box_entry(doc):
    doc["cycles"][0]["instances"][0]["box"][0] = "60"


def _set_instance_id(doc):
    doc["cycles"][0]["instances"][0]["id"] = 5


def _rotation(doc):
    return doc["base_from_camera"]["rotation"]


def _translation(doc):
    return doc["base_from_camera"]["translation"]


_ROTATION_REASON = "base_from_camera rotation matrix must be 3 rows of 3 finite numbers, not "
_TRANSLATION_REASON = "base_from_camera translation must be 3 finite numbers, not "


@pytest.mark.parametrize("damage, reason", [
    (b"[]", ": scenario must be a JSON object, got list"),
    (lambda doc: doc.update(responses=[1]),
     "scenario field 'responses' must be an object of strings, got [1]"),
    (b'{"schema": "gazeshift-scenario", "description": "\xff"}', "can't decode byte 0xff"),
    (_set_box_entry, "cycles[0].instances[0] field box[0] must be a finite number, got '60'"),
    (_set_instance_id, "cycles[0].instances[0] field 'id' must be a string, got 5"),
    (lambda doc: doc["cycles"][1].update(semantics=7),
     "cycles[1] field 'semantics' must be a string, got 7"),
    (lambda doc: doc["cycles"][1].update(cue_onset="false"),
     "cycles[1] field 'cue_onset' must be true or false, got 'false'"),
    # the clip used to replay and silently score 0
    (lambda doc: doc["cycles"][2].update(expected_instance="nobody"),
     "cycle 2: expected_instance 'nobody' is not an instance of the cycle"),
    (lambda doc: doc["cycles"][2].update(expected_instance=5),
     "cycles[2] field 'expected_instance' must be a string, got 5"),
    # the replay used to score 100% and log "point_3d": [NaN, NaN, NaN]
    (lambda doc: doc["camera"].update(cx=math.nan),
     "camera field 'cx' must be a finite number, got nan"),
    # a NaN image size switched off the box checks: a box reaching x = 5000 scored 100%
    (lambda doc: (doc["camera"].update(width=math.nan, height=math.nan),
                  doc["cycles"][0]["instances"][0]["box"].__setitem__(2, 5000)),
     "camera field 'height' must be an integer, got nan"),
    (lambda doc: doc["camera"].update(height=True),
     "camera field 'height' must be an integer, got True"),
    # a text or true rotation entry used to load as 1.0
    (lambda doc: _rotation(doc)[0].__setitem__(2, "1"), _ROTATION_REASON + "[[0.0, 0.0, '1']"),
    (lambda doc: _rotation(doc)[0].__setitem__(2, True), _ROTATION_REASON + "[[0.0, 0.0, True]"),
    (lambda doc: _rotation(doc)[1].__setitem__(0, None), _ROTATION_REASON),
    (lambda doc: _rotation(doc)[2].__setitem__(1, math.nan), _ROTATION_REASON),
    (lambda doc: _rotation(doc)[1].pop(), _ROTATION_REASON),
    (lambda doc: _rotation(doc).pop(), _ROTATION_REASON),
    (lambda doc: _rotation(doc)[0].__setitem__(2, 2.0),
     "base_from_camera rotation matrix is not orthogonal within tolerance"),
    (lambda doc: _translation(doc).__setitem__(0, "0"), _TRANSLATION_REASON + "['0', 0.0, 0.0]"),
    (lambda doc: _translation(doc).__setitem__(1, False), _TRANSLATION_REASON),
    (lambda doc: _translation(doc).__setitem__(2, math.inf), _TRANSLATION_REASON),
    (lambda doc: _translation(doc).pop(), _TRANSLATION_REASON + "[0.0, 0.0]"),
    # int() read "02" as cycle 2, and the later of two such keys won
    (lambda doc: doc["responses"].update({"02": "TARGET: 1"}),
     "canned response key '02' is not a cycle index"),
    # names the one bad response, not the whole object
    (lambda doc: doc["responses"].update({"0": 3}),
     "scenario field responses['0'] must be a string, got 3\n"),
    # the id used to load and be written into cycles.jsonl as it was
    (lambda doc: doc.update(scenario_id=5), "scenario field 'scenario_id' must be a string, got 5"),
    (lambda doc: doc.update(scenario_id=["a", 1]),
     "scenario field 'scenario_id' must be a string, got ['a', 1]"),
    # each of these used to load: no canned answers, an ignored key, no face box
    (lambda doc: doc.update(respones=doc.pop("responses")),
     "unknown scenario fields: ['respones']"),
    (lambda doc: doc["cycles"][1]["instances"][2].update(dpeth=1.2),
     "unknown cycles[1].instances[2] fields: ['dpeth']"),
    (lambda doc: doc["cycles"][0]["instances"][0].update(
        face_bx=doc["cycles"][0]["instances"][0].pop("face_box")),
     "unknown cycles[0].instances[0] fields: ['face_bx']"),
    (lambda doc: doc.update(description=5), "scenario field 'description' must be a string, got 5"),
    (lambda doc: doc["cycles"][3].update(image_ref=3),
     "cycles[3] field 'image_ref' must be a string, got 3"),
    # the replay used to exit 0 and log "point_3d": [NaN, NaN, NaN] for anna
    (lambda doc: (doc["camera"].update(fx=10.0, fy=10.0),
                  [inst.update(depth=1.7e308) for c in doc["cycles"] for inst in c["instances"]]),
     "cycle 0 instance anna: gaze point is not finite (pixel (135.0, "),
], ids=["not_an_object", "responses_list", "not_utf8", "box_entry_text", "id_number",
        "semantics_number", "cue_onset_text", "expected_absent", "expected_number",
        "camera_cx_nan", "camera_size_nan", "camera_height_true", "rotation_text",
        "rotation_true", "rotation_null", "rotation_nan", "rotation_ragged", "rotation_2x3",
        "rotation_not_orthogonal", "translation_text", "translation_false", "translation_inf",
        "translation_two_entries", "response_key_padded", "response_number",
        "scenario_id_number", "scenario_id_list", "responses_misspelled", "depth_misspelled",
        "face_box_misspelled", "description_number", "image_ref_number", "depth_overflows"])
def test_replay_damaged_scenario_file_exit_data(tmp_path, capsys, damage, reason):
    bundled = Path(gazeshift.__file__).parent / "scenarios"
    shutil.copytree(bundled, tmp_path / "s")
    damaged = tmp_path / "s" / "h1_point_cup.json"
    if callable(damage):
        doc = json.loads(damaged.read_text(encoding="utf-8"))
        damage(doc)
        damage = json.dumps(doc).encode("utf-8")
    damaged.write_bytes(damage)
    assert main(["replay", "--scenarios", str(tmp_path / "s"),
                 "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {damaged}") and reason in err and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_replay_refuses_a_scenario_id_two_files_share(tmp_path, capsys):
    # two runs of one id's cycles used to land in cycles.jsonl under that id
    bundled = Path(gazeshift.__file__).parent / "scenarios"
    shutil.copytree(bundled, tmp_path / "s")
    first, copy = tmp_path / "s" / "h2_greeting.json", tmp_path / "s" / "h2_greeting_copy.json"
    shutil.copy(first, copy)
    assert main(["replay", "--scenarios", str(tmp_path / "s"), "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err == (f"error: {copy}: scenario_id 'h2_greeting' is already "
                                       f"that of {first}\n")
    assert not (tmp_path / "r").exists()


_SCENARIO_BYTES = (Path(gazeshift.__file__).parent / "scenarios" / "h1_point_cup.json").read_bytes()


def _is_scenario(data: bytes) -> bool:
    """Whether the per-record oracle reads ``data`` as a scenario."""
    try:
        scenario_from_doc_per_record(parse_json(data.decode("utf-8")))
    except (ValueError, DataError):  # not UTF-8 or not JSON are ValueErrors too
        return False
    return True


def _leaves(value, path=()):
    """The key path of every number, string, bool and null in a parsed JSON document."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else None)
    if items is None:
        yield path
        return
    for key, item in items:
        yield from _leaves(item, (*path, key))


BYTE_FAULTS = ("truncated", "flipped", "inserted", "nested", "long_int")
TEXT_FAULTS = BYTE_FAULTS[:3]  # the faults of a file that is not JSON


def _byte_fault(draw, data: bytes, faults=BYTE_FAULTS) -> tuple:
    """(fault, ``data`` with it): the bytes of a file truncated, a byte flipped or inserted,
    or, in a JSON file, one value replaced by nested lists or by an integer of 5,000 digits."""
    fault = draw(st.sampled_from(faults))
    if fault == "truncated":  # short of the last byte before the line ends: a JSON file's "}"
        return fault, data[:draw(st.integers(0, len(data.rstrip(b"\r\n")) - 1))]
    if fault in ("flipped", "inserted"):
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: fault == "inserted" or b != data[at]))
        return fault, data[:at] + bytes([byte]) + data[at + (fault == "flipped"):]
    doc = json.loads(data)
    *parents, key = draw(st.sampled_from(list(_leaves(doc))))
    parent = doc
    for step in parents:
        parent = parent[step]
    parent[key] = "@fault@"  # a text no leaf of the file holds, replaced below
    if fault == "nested":
        depth = draw(st.sampled_from([1, 50, 100_000]))  # the last is past the parser's limit
        value = "[" * depth + "]" * depth
    else:
        value = "9" * 5000
    return fault, json.dumps(doc).replace('"@fault@"', value).encode("utf-8")


@st.composite
def _scenario_byte_faults(draw):
    """A bundled scenario file's bytes with one ``_byte_fault`` that leaves no scenario."""
    fault, damaged = _byte_fault(draw, _SCENARIO_BYTES)
    if fault in ("flipped", "inserted"):
        assume(not _is_scenario(damaged))  # a byte in a text may leave a valid file
    return damaged


@settings(max_examples=200, deadline=None)
@given(_scenario_byte_faults())
def test_scenario_file_byte_fault_is_one_error_line_and_keeps_the_last_run(tmp_path_factory,
                                                                           damaged):
    root = tmp_path_factory.mktemp("bytes")
    (root / "s").mkdir()
    path, out = root / "s" / "h1_point_cup.json", root / "out"
    path.write_bytes(_SCENARIO_BYTES)
    argv = ["replay", "--scenarios", str(path.parent), "--out", str(out)]
    assert _main_err(argv) == (0, "")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"cycles.jsonl", "success_table.csv", "manifest.json"} <= before.keys()
    path.write_bytes(damaged)
    code, err = _main_err(argv)
    assert code == 3
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and err.endswith("\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _checkpoint_pair_refused(files: dict) -> bool:
    """Whether a reference reading refuses the run's two checkpoints, ``{name: bytes}``:
    a file is not UTF-8 JSON, one of its ``checkpoint_objects`` breaks its schema, or the
    prior's ``stage1_sha256`` is not the SHA-256 of the stage-1 bytes."""
    docs = {}
    for name, data in files.items():
        try:
            docs[name] = doc = json.loads(data.decode("utf-8"))
            for _, label, obj, schema in checkpoint_objects(doc, name):
                check_object(obj, schema, label)
        except (ValueError, RecursionError, KeyError, TypeError):  # no object where one is read
            return True
    link = docs["prior.json"]["metadata"]["model"]["stage1_sha256"]
    return link != hashlib.sha256(files["stage1.json"]).hexdigest()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["stage1.json", "prior.json"]), st.data())
def test_checkpoint_byte_fault_is_one_error_line_and_keeps_the_last_run(pipeline,
                                                                         tmp_path_factory,
                                                                         name, data):
    _, _, data_dir, run_dir = pipeline
    files = {n: (run_dir / n).read_bytes() for n in ("stage1.json", "prior.json")}
    _, damaged = _byte_fault(data.draw, files[name])
    # a byte in a text, or a value in metadata no load reads, may leave a pair that loads
    assume(_checkpoint_pair_refused({**files, name: damaged}))
    root = tmp_path_factory.mktemp("checkpoint-bytes")
    run, out = root / "run", root / "eval"
    shutil.copytree(run_dir, run)
    argv = ["eval", "--dataset", str(data_dir / "dataset.jsonl"), "--run", str(run),
            "--out", str(out)]
    assert _main_err(argv) == (0, "")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"eval.json", "manifest.json"} <= before.keys()
    (run / name).write_bytes(damaged)
    code, err = _main_err(argv)
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert str(run / name) in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _dataset_refused(path) -> bool:
    """Whether the line-by-line reference reader refuses the dataset file at ``path``."""
    try:
        read_dataset_per_line(path)
    except (DataError, ValueError, RecursionError):  # a 5,000-digit int is a ValueError
        return True
    return False


@pytest.fixture(scope="module")
def one_epoch_run(tmp_path_factory):
    """(config, run): ``NUMBER_LINES`` trained one epoch per stage, so that a damaged
    dataset that still loads would train quickly too."""
    root = tmp_path_factory.mktemp("one-epoch")
    config = write_config(root, {"training": {**SMALL_CONFIG["training"], "stage1_epochs": 1,
                                              "stage2_epochs": 1, "milestones": []}})
    dataset = root / "dataset.jsonl"
    dataset.write_text("".join(line + "\n" for line in NUMBER_LINES), encoding="utf-8")
    assert _main_err(["train", "--config", config, "--dataset", str(dataset),
                      "--out", str(root / "run")]) == (0, "")
    return config, root / "run"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dataset_byte_fault_is_one_error_line_and_keeps_the_last_run(one_epoch_run,
                                                                      tmp_path_factory, data):
    config, run_dir = one_epoch_run
    lines = [line.encode("utf-8") for line in NUMBER_LINES]
    at = data.draw(st.integers(0, len(lines) - 1), label="line")  # 0 is the header
    _, lines[at] = _byte_fault(data.draw, lines[at])
    root = tmp_path_factory.mktemp("dataset-bytes")
    path, out = root / "dataset.jsonl", root / "run"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    # a byte in a text, or a digit for a digit, may leave a file that loads
    assume(_dataset_refused(path))
    shutil.copytree(run_dir, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, err = _main_err(["train", "--config", config, "--dataset", str(path),
                           "--out", str(out)])
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert str(path) in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _stage1_log_refused(name: str, data: bytes) -> bool:
    """Whether a reference reading refuses the bytes ``data`` of an earlier run's ``name``
    as ``train --stage 2`` reads it: ``metrics.csv`` must be UTF-8 CSV under the
    ``METRICS_COLUMNS`` header with one cell per column in each stage-1 row, and
    ``timings.jsonl`` one JSON object per line that ``TIMINGS_SCHEMA`` takes."""
    try:
        text = data.decode("utf-8")
        if name == "metrics.csv":
            header, *rows = csv.reader(io.StringIO(text, newline=""))  # none: a ValueError
            return header != METRICS_COLUMNS or any(
                len(row) != len(METRICS_COLUMNS) for row in rows if row[:1] == ["1"])
        for line in text.splitlines():
            check_object(json.loads(line), TIMINGS_SCHEMA, "line")
    except (ValueError, RecursionError, csv.Error):  # a 5,000-digit int is a ValueError
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["metrics.csv", "timings.jsonl"]), st.data())
def test_stage1_log_byte_fault_is_one_error_line_and_keeps_the_last_run(one_epoch_run,
                                                                         tmp_path_factory,
                                                                         name, data):
    config, run_dir = one_epoch_run
    good = (run_dir / name).read_bytes()
    if name == "metrics.csv":
        _, damaged = _byte_fault(data.draw, good, TEXT_FAULTS)
    else:  # one line's JSON object, as the dataset test damages one line
        lines = good.splitlines()
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        _, lines[at] = _byte_fault(data.draw, lines[at])
        damaged = b"".join(line + b"\n" for line in lines)
    # a digit for a digit, or a cut between rows, may leave a file that reads
    assume(_stage1_log_refused(name, damaged))
    out = tmp_path_factory.mktemp("stage1-log-bytes") / "run"
    shutil.copytree(run_dir, out)
    (out / name).write_bytes(damaged)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, err = _main_err(["train", "--config", config, "--stage", "2", "--dataset",
                           str(Path(config).parent / "dataset.jsonl"), "--out", str(out)])
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert str(out / name) in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# The class each --config section is read as.
CONFIG_SECTIONS = {"generator": GeneratorConfig, "training": TrainConfig, "backend": RemoteConfig}


def _config_refused(data: bytes, section: str) -> bool:
    """Whether a reference reading refuses a --config file of bytes ``data`` for the
    command that reads ``section``: it is not UTF-8 JSON, not an object whose every value
    is an object under a known section name, or ``from_dict`` refuses the section."""
    try:
        doc = json.loads(data.decode("utf-8"))
        if not (isinstance(doc, dict) and doc.keys() <= CONFIG_SECTIONS.keys()
                and all(isinstance(value, dict) for value in doc.values())):
            return True
        CONFIG_SECTIONS[section].from_dict(doc.get(section, {}))
    except (ValueError, RecursionError, ConfigError):  # a 5,000-digit int is a ValueError
        return True
    return False


@pytest.fixture(scope="module")
def config_runs(one_epoch_run, tmp_path_factory):
    """Per section: (the bytes of a --config file holding only it, the argv of the command
    that reads it, short of --config and --out, and the --out of an earlier run). Training's
    earlier run is ``one_epoch_run``'s; a scripted replay's stands in for the remote one's,
    and its endpoint is a closed loopback port, which a refused file never reaches."""
    config, run_dir = one_epoch_run
    root = tmp_path_factory.mktemp("config-runs")
    sections = {"generator": {"n_samples": 8, "strategy_mix": 0.5},
                "training": json.loads(Path(config).read_text(encoding="utf-8"))["training"],
                "backend": {"endpoint": "http://127.0.0.1:9/v1/chat/completions",
                            "model": "m", "timeout": 0.5}}
    argv = {"generator": ["gen-data"],
            "training": ["train", "--dataset", str(Path(config).parent / "dataset.jsonl")],
            "backend": ["replay", "--backend", "remote"]}
    files = {section: json.dumps({section: doc}).encode("utf-8")
             for section, doc in sections.items()}
    (root / "generator.json").write_bytes(files["generator"])
    assert _main_err(["gen-data", "--config", str(root / "generator.json"),
                      "--out", str(root / "generator")]) == (0, "")
    shutil.copytree(run_dir, root / "training")
    assert _main_err(["replay", "--out", str(root / "backend")]) == (0, "")
    return {section: (files[section], argv[section], root / section) for section in sections}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONFIG_SECTIONS)), st.data())
def test_config_byte_fault_is_one_error_line_and_keeps_the_last_run(config_runs,
                                                                     tmp_path_factory, section,
                                                                     data):
    good, argv, earlier = config_runs[section]
    _, damaged = _byte_fault(data.draw, good)
    # a byte in a text, or a digit for a digit, may leave a file that reads
    assume(_config_refused(damaged, section))
    root = tmp_path_factory.mktemp("config-bytes")
    path, out = root / "config.json", root / "out"
    path.write_bytes(damaged)
    shutil.copytree(earlier, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, err = _main_err([*argv, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert str(path) in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# -- one rule for a JSON number --------------------------------------------------------

def _main_err(argv) -> tuple:
    """``(exit code, stderr)`` of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


NUMBER_FIELDS = {"theta_e": 2, "theta_h": 3, "target": 3, "delta_e": 2, "delta_h": 3}
NUMBER_LINES = serialize_dataset(generate_dataset(5, GeneratorConfig(n_samples=8))).splitlines()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, len(NUMBER_LINES) - 1), st.sampled_from(sorted(NUMBER_FIELDS)),
       st.data())
def test_dataset_entry_that_is_no_number_exit_data(tmp_path_factory, index, key, data):
    # `true` used to read as 1.0, and an int beyond the float range to exit 1
    lines = list(NUMBER_LINES)
    doc = json.loads(lines[index])
    at, value = data.draw(st.integers(0, NUMBER_FIELDS[key] - 1)), data.draw(bad_json_numbers())
    doc[key][at] = value
    lines[index] = json.dumps(doc, sort_keys=True)
    root = tmp_path_factory.mktemp("numbers")
    (root / "dataset.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = _main_err(["train", "--dataset", str(root / "dataset.jsonl"),
                           "--out", str(root / "run")])
    assert code == 3
    assert err == (f"error: {root / 'dataset.jsonl'}: line {index + 1}: sample field "
                   f"{key}[{at}] must be a finite number, got {reprlib.repr(value)}\n")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scenario_box_entry_that_is_no_number_exit_data(tmp_path_factory, data):
    # an int beyond the float range used to give "int too large to convert to float"
    doc = json.loads((Path(gazeshift.__file__).parent / "scenarios" / "h1_point_cup.json")
                     .read_text(encoding="utf-8"))
    instance = data.draw(st.sampled_from(
        [inst for cycle in doc["cycles"] for inst in cycle["instances"]]))
    key = data.draw(st.sampled_from([k for k in ("box", "face_box") if instance.get(k)]))
    at, value = data.draw(st.integers(0, 3)), data.draw(bad_json_numbers())
    instance[key][at] = value
    root = tmp_path_factory.mktemp("numbers")
    (root / "s").mkdir()
    damaged = root / "s" / "damaged.json"
    damaged.write_text(json.dumps(doc), encoding="utf-8")
    code, err = _main_err(["replay", "--scenarios", str(root / "s"), "--out", str(root / "r")])
    assert code == 3
    position, slot = next((p, q) for p, cycle in enumerate(doc["cycles"])
                          for q, inst in enumerate(cycle["instances"]) if inst is instance)
    assert err == (f"error: {damaged}: cycles[{position}].instances[{slot}] field {key}[{at}] "
                   f"must be a finite number, got {reprlib.repr(value)}\n")
    assert not (root / "r").exists()


# -- one rule for a JSON object -------------------------------------------------------

def _object_fault(data, objects, fixed) -> tuple:
    """Put one fault into one of ``objects`` (see ``json_objects``): an unknown key, a missing
    required key or a value of the wrong JSON type, on a key ``fixed`` does not keep from the
    rule for the object's label; returns the start and the end of the error's text."""
    schema = data.draw(st.sampled_from(list({id(o[3]): o[3] for o in objects}.values())))
    prefix, label, obj, _ = data.draw(st.sampled_from([o for o in objects if o[3] is schema]))
    keys = [k for k in schema.types if k not in fixed.get(label, ())]
    required = [k for k in schema.required if k in obj and k in keys]
    fault = data.draw(st.sampled_from(["unknown", "mistyped"] + ["missing"] * bool(required)))
    if fault == "unknown":
        key = data.draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in schema.types))
        obj[key] = data.draw(st.sampled_from([1, "x", None, [], {}]))
        return f"{prefix}unknown {label} fields: [{key!r}]", ""
    if fault == "missing":
        key = data.draw(st.sampled_from(required))
        del obj[key]
        return f"{prefix}{label} requires {key!r}", ""
    key = data.draw(st.sampled_from([k for k in obj if k in keys]))
    obj[key] = data.draw(st.sampled_from(wrong_values(schema.types[key])))
    where, shown = refused(key, obj[key], schema.types[key])
    return f"{prefix}{label} field {where} must be ", f", got {reprlib.repr(shown)}"


_SCENARIO_DOC = (Path(gazeshift.__file__).parent / "scenarios" / "h1_point_cup.json").read_text(
    encoding="utf-8")


def _scenario_file(pipeline, root):
    doc, path = json.loads(_SCENARIO_DOC), root / "s" / "damaged.json"

    def run():
        path.parent.mkdir()
        path.write_text(json.dumps(doc), encoding="utf-8")
        return ["replay", "--scenarios", str(path.parent), "--out", str(root / "out")], 3, ""
    return scenario_objects(doc, path), {}, run


def _dataset_file(pipeline, root):
    docs, path = [json.loads(line) for line in NUMBER_LINES], root / "dataset.jsonl"

    def run():
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        return ["train", "--dataset", str(path), "--out", str(root / "out")], 3, ""
    # the header's schema, version and generator keep their own checks, which come first
    return dataset_objects(docs, path), {"header": ("schema", "version", "generator")}, run


def _checkpoint_file(name):
    def objects(pipeline, root):
        run_dir, out = pipeline[3], root / "run"
        doc, path = json.loads((run_dir / name).read_text(encoding="utf-8")), out / name

        def run():
            shutil.copytree(run_dir, out)
            path.write_text(json.dumps(doc), encoding="utf-8")
            return (["sample", "--run", str(out), "--n", "1", "--out", str(root / "out")], 4,
                    f"cannot load checkpoints from {out}: ")
        return checkpoint_objects(doc, path), {}, run
    return objects


def _config_file(pipeline, root):
    doc = {**SMALL_CONFIG, "backend": {"endpoint": "http://127.0.0.1:9/v1", "model": "m"}}
    path = root / "config.json"

    def run():
        path.write_text(json.dumps(doc), encoding="utf-8")
        return ["gen-data", "--config", str(path), "--out", str(root / "out")], 2, ""
    return config_objects(doc, path), {}, run


def _timings_file(pipeline, root):
    _, config, data_dir, run_dir = pipeline
    path = root / "run" / "timings.jsonl"
    records = [json.loads(line) for line in (run_dir / "timings.jsonl").read_text(
        encoding="utf-8").splitlines()]

    def run():
        shutil.copytree(run_dir, path.parent)
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return ["train", "--config", config, "--stage", "2", "--dataset",
                str(data_dir / "dataset.jsonl"), "--out", str(path.parent)], 4, ""
    return timings_objects(records, path), {}, run


# Each file the package reads JSON objects from: its objects, the keys whose own checks
# come before the rule, and how to write the file and run the CLI on it.
_JSON_FILES = {"scenario": _scenario_file, "dataset": _dataset_file,
               "stage1.json": _checkpoint_file("stage1.json"),
               "prior.json": _checkpoint_file("prior.json"), "config": _config_file,
               "timings": _timings_file}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_JSON_FILES)), st.data())
def test_each_json_object_refuses_unknown_missing_and_mistyped_keys(pipeline, tmp_path_factory,
                                                                      kind, data):
    root = tmp_path_factory.mktemp("objects")
    objects, fixed, run = _JSON_FILES[kind](pipeline, root)
    head, tail = _object_fault(data, objects, fixed)
    argv, exit_code, context = run()
    code, err = _main_err(argv)
    assert code == exit_code
    assert err.startswith(f"error: {context}{head}") and err.endswith(f"{tail}\n")
    assert err.count("\n") == 1 and not (root / "out").exists()


def test_every_module_schema_is_under_the_injection_test(pipeline, tmp_path):
    # a reader whose schema no file above lists would miss the injection test unnoticed
    schemas = {}
    for info in pkgutil.walk_packages(gazeshift.__path__, "gazeshift."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if isinstance(value, Schema):
                schemas.setdefault(id(value), f"{info.name}.{name}")
    assert len(schemas) >= 11
    covered = {id(obj[3]) for kind, objects in _JSON_FILES.items()
               for obj in objects(pipeline, tmp_path / kind)[0]}
    assert sorted(schemas[k] for k in schemas.keys() - covered) == []


@pytest.mark.parametrize("edit, reason", [
    (lambda h: h.update(seed="x"), "header field 'seed' must be an integer, got 'x'"),
    (lambda h: h.update(seed=-1), "header seed must be non-negative, got -1"),
    (lambda h: h.update(comment="hand-made"), "unknown header fields: ['comment']"),
    (lambda h: h.pop("seed"), "header requires 'seed'"),
    (lambda h: h.update(n_samples=7.0), "header field 'n_samples' must be an integer, got 7.0"),
], ids=["seed_text", "seed_negative", "unknown_key", "seed_missing", "n_samples_float"])
def test_dataset_header_under_the_object_rule_exit_data(tmp_path, edit, reason):
    # a text seed and an unknown header key used to load
    header = json.loads(NUMBER_LINES[0])
    edit(header)
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join([json.dumps(header), *NUMBER_LINES[1:]]) + "\n", encoding="utf-8")
    assert _main_err(["train", "--dataset", str(path), "--out", str(tmp_path / "run")]) == (
        3, f"error: {path}: {reason}\n")


def test_replay_remote_requires_backend_section(tmp_path):
    assert main(["replay", "--backend", "remote",
                 "--out", str(tmp_path / "r")]) == 2


def test_replay_remote_fails_fast_without_key(tmp_path, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    config = write_config(tmp_path, {"backend": {
        "endpoint": "https://example.test/v1/chat/completions", "model": "m"}})
    assert main(["replay", "--backend", "remote", "--config", config,
                 "--out", str(tmp_path / "r")]) == 5


def test_replay_remote_fails_fast_on_dead_deadline(tmp_path, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k")
    config = write_config(tmp_path, {"backend": {
        "endpoint": "https://example.test/v1/chat/completions", "model": "m",
        "timeout": 0.0}})
    assert main(["replay", "--backend", "remote", "--config", config,
                 "--out", str(tmp_path / "r")]) == 5


def test_replay_remote_fails_fast_on_a_timeout_no_socket_takes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(API_KEY_ENV, "k")
    config = write_config(tmp_path, {"backend": {
        "endpoint": "https://example.test/v1/chat/completions", "model": "m",
        "timeout": 1e300}})
    out = tmp_path / "r"
    assert main(["replay", "--backend", "remote", "--config", config, "--out", str(out)]) == 5
    assert "longer than a socket can wait" in capsys.readouterr().err
    assert not out.exists()


def test_replay_remote_fails_fast_on_non_http_endpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(API_KEY_ENV, "k")
    config = write_config(tmp_path, {"backend": {"endpoint": "example.test/v1", "model": "m"}})
    out = tmp_path / "r"
    assert main(["replay", "--backend", "remote", "--config", config, "--out", str(out)]) == 5
    assert "is not an http or https URL" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, fault", [
    ("max_tokens", 0, "max_tokens must be at least 1, got 0"),
    ("max_tokens", -1, "max_tokens must be at least 1, got -1"),
    ("model", "", "model must not be empty")], ids=["max_tokens_0", "max_tokens_-1", "model_empty"])
def test_replay_remote_refuses_a_request_field_before_any_connection(tmp_path, monkeypatch, capsys,
                                                                     field, value, fault):
    # such a request went out every cycle: an endpoint that refused it held
    # every cycle, and the replay scored 0% and exited 0
    monkeypatch.setenv(API_KEY_ENV, "k")
    out = tmp_path / "r"
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.setblocking(False)
        endpoint = f"http://127.0.0.1:{server.getsockname()[1]}/v1/chat/completions"
        config = write_config(tmp_path, {"backend": {"endpoint": endpoint, "model": "m",
                                                     "timeout": 0.01, field: value}})
        assert main(["replay", "--backend", "remote", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {config}: {fault}\n"
        with pytest.raises(BlockingIOError):  # nothing connected
            server.accept()
    assert not out.exists()


# -- manifest integrity ----------------------------------------------------------------------

def test_manifest_inputs_are_the_sha256_of_each_file(pipeline, tmp_path):
    _, _, data_dir, run_dir = pipeline
    dataset = data_dir / "dataset.jsonl"
    assert _eval_and_sample(run_dir, dataset, tmp_path) == [0, 0]
    assert main(["replay", "--out", str(tmp_path / "r")]) == 0
    expected = {
        data_dir: [],
        run_dir: [dataset],
        tmp_path / "e": [dataset, run_dir / "stage1.json", run_dir / "prior.json"],
        tmp_path / "s": [run_dir / "stage1.json", run_dir / "prior.json"],
        tmp_path / "r": sorted((Path(gazeshift.__file__).parent / "scenarios").glob("*.json")),
    }
    for directory, inputs in expected.items():
        assert read_manifest(directory)["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}, directory
    assert read_manifest(run_dir)["dataset_hash"] == read_manifest(data_dir)["dataset_hash"]


def test_stage2_manifest_names_the_stage1_bytes_it_loaded(pipeline, tmp_path):
    # the manifest used to name only the dataset, though stage 2 links the prior to stage1.json
    _, config, data_dir, run_dir = pipeline
    staged = tmp_path / "staged"
    shutil.copytree(run_dir, staged)
    dataset = data_dir / "dataset.jsonl"
    assert main(["train", "--config", config, "--seed", "0", "--stage", "2",
                 "--dataset", str(dataset), "--out", str(staged)]) == 0
    assert read_manifest(staged)["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (dataset,
                                                                      staged / "stage1.json")}
    assert (staged / "prior.json").read_bytes() == (run_dir / "prior.json").read_bytes()


def test_replay_reads_each_scenario_file_once(tmp_path, monkeypatch):
    # the manifest's digests are those of the bytes the loader read
    bundled = sorted((Path(gazeshift.__file__).parent / "scenarios").glob("*.json"))
    reads, real_open, real_path_open = [], open, Path.open

    def counted_path_open(self, *args, **kwargs):  # read_bytes and read_text open here too
        reads.append(self)
        return real_path_open(self, *args, **kwargs)

    def counted_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            reads.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted_path_open)
    monkeypatch.setattr("builtins.open", counted_open)
    assert main(["replay", "--out", str(tmp_path / "r")]) == 0
    assert sorted(p for p in reads if p.suffix == ".json" and p.parent == bundled[0].parent) == (
        bundled)
    assert read_manifest(tmp_path / "r")["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in bundled}


SUBCOMMANDS = ("gen-data", "train", "eval", "sample", "replay")


def _subcommand_argv(pipeline, subcommand: str, out: Path) -> list:
    """The argv of a small run of ``subcommand`` into ``out``, on ``pipeline``'s files."""
    _, config, data_dir, run_dir = pipeline
    dataset = str(data_dir / "dataset.jsonl")
    return {"gen-data": ["gen-data", "--config", config, "--seed", "3"],
            "train": ["train", "--config", config, "--dataset", dataset, "--stage", "1"],
            "eval": ["eval", "--dataset", dataset, "--run", str(run_dir)],
            "sample": ["sample", "--run", str(run_dir), "--n", "5", "--head", "-30,5,0"],
            "replay": ["replay", "--backend", "scripted"]}[subcommand] + ["--out", str(out)]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_manifest_records_the_argv_main_was_given(pipeline, tmp_path, monkeypatch, subcommand):
    # an in-process run used to record sys.argv[1:], the host process's arguments
    monkeypatch.setattr(sys, "argv", ["host", "--host-flag"])
    argv = _subcommand_argv(pipeline, subcommand, tmp_path / "out")
    assert main(argv) == 0
    manifest = read_manifest(tmp_path / "out")
    assert manifest["argv"] == argv  # "--head", "-30,5,0" as given, not joined by "="
    assert manifest["subcommand"] == argv[0]


def test_main_without_argv_runs_and_records_sys_argv(tmp_path, monkeypatch):
    argv = ["replay", "--out", str(tmp_path / "r")]
    monkeypatch.setattr(sys, "argv", ["gazeshift", *argv])
    assert main() == 0
    assert read_manifest(tmp_path / "r")["argv"] == argv


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_out_naming_a_file_is_one_error_line_naming_it(pipeline, tmp_path, subcommand):
    # each command used to end in a FileExistsError traceback
    out = tmp_path / "afile"
    out.write_bytes(b"not a directory\n")
    code, err = _main_err(_subcommand_argv(pipeline, subcommand, out))
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert out.read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("failing", ["gen-data", "train-stage2"])
def test_failed_command_is_one_error_line_and_leaves_no_out(pipeline, tmp_path, failing):
    # --out comes into being with a command's first file, so a command that fails first leaves none
    _, config, data_dir, _ = pipeline
    out = tmp_path / "new" / "run"
    if failing == "gen-data":
        limits = write_config(tmp_path, {"generator": {"eye_yaw_limit": 0.0001,
                                                       "head_yaw_limit": 0.0001}})
        argv = ["gen-data", "--config", limits, "--out", str(out)]
        expected, reason = 3, "no valid sample after 100 consecutive attempts"
    else:
        argv = ["train", "--config", config, "--stage", "2",
                "--dataset", str(data_dir / "dataset.jsonl"), "--out", str(out)]
        expected, reason = 4, f"stage 2 requested but {out / 'stage1.json'} does not exist"
    code, err = _main_err(argv)
    assert code == expected
    assert err.startswith("error: ") and reason in err and err.count("\n") == 1
    assert not (tmp_path / "new").exists()


def test_manifests_name_only_existing_outputs(pipeline):
    root, _, data_dir, run_dir = pipeline
    for directory in (data_dir, run_dir):
        manifest = read_manifest(directory)
        for out in manifest["outputs"]:
            assert Path(out).exists(), out
        assert manifest["version"]
        assert manifest["elapsed_s"] >= 0


# -- console script ----------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def read_pyproject() -> dict:
    # Imported here so that only the console-script tests skip without tomli.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` in a fresh interpreter that imports this gazeshift package."""
    package_root = str(Path(gazeshift.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root,
                                               os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})


def assert_prints_version(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == gazeshift.__version__
    assert proc.stdout.strip() == read_pyproject()["project"]["version"]


def test_installed_entry_point_runs():
    """The declared `gazeshift` script runs as pip's wrapper would run it."""
    value = read_pyproject()["project"]["scripts"]["gazeshift"]
    entry = EntryPoint(name="gazeshift", value=value, group="console_scripts")
    wrapper = (f"import sys; from {entry.module} import {entry.attr}; "
               f"sys.exit({entry.attr}())")
    assert_prints_version(fresh_python(wrapper, "--version"))


@pytest.mark.skipif(shutil.which("gazeshift") is None,
                    reason="gazeshift console script not installed")
def test_console_script_on_path_runs():
    proc = subprocess.run(["gazeshift", "--version"],
                          capture_output=True, text=True)
    assert_prints_version(proc)


# -- dependencies --------------------------------------------------------------------------

def test_cli_import_pulls_in_no_http_library():
    """The CLI, remote backend included, needs only numpy and the standard library,
    and loads the standard library's HTTP and TLS modules only for a remote backend."""
    probe = ("import sys, gazeshift.cli; "
             "print(sorted({'requests', 'urllib3', 'ssl', 'http.client', 'urllib.request'}"
             " & set(sys.modules)))")
    proc = fresh_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert read_pyproject()["project"]["dependencies"] == ["numpy>=1.24"]


# Every model layer imports numpy, so a run that leaves numpy unloaded ran none of them.
# The remote transport is a lazy module: until it runs, its class is not a plain module's.
# Atomic writes name their temporary files without uuid, which imports platform.
REPLAY_WITHOUT_NUMPY = """
import contextlib, json, sys, types
from gazeshift import cli
assert "hashlib" not in sys.modules  # atomic imports it when it reads or writes a digest
backends = sys.modules["gazeshift.reasoner.backends"]
def loaded():
    names = [name for name in ("numpy", "uuid", "platform") if name in sys.modules]
    return names + ["backends"] * (type(backends) is types.ModuleType)
out = sys.argv[1]
seen = [loaded()]
with contextlib.redirect_stdout(sys.stderr):
    for backend in ("scripted", "oracle"):
        assert cli.main(["replay", "--backend", backend, "--out", out + "/" + backend]) == 0
        seen.append(loaded())
    for flag in ("--version", "--help"):
        try:
            cli.main([flag])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    seen.append(loaded())
    # bench/tracing.py patches the class it finds on the lazy module: replay must use it.
    queries = []
    query = backends.ScriptedBackend.query
    def counted(self, *args):
        queries.append(args)
        return query(self, *args)
    backends.ScriptedBackend.query = counted
    assert cli.main(["replay", "--backend", "scripted", "--out", out + "/patched"]) == 0
print(json.dumps({"loaded": seen, "queries": len(queries)}))
"""


def test_replay_version_and_help_load_no_numpy(tmp_path):
    proc = fresh_python(REPLAY_WITHOUT_NUMPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [[]] * 4, "queries": 70}
    for backend in ("scripted", "oracle", "patched"):
        assert (tmp_path / backend / "success_table.csv").read_text(encoding="utf-8") == (
            "regularity,clips,correct,success_rate\n"
            "H1,3,3,100.0\nH2,3,3,100.0\nH3,3,3,100.0\nH4,3,3,100.0\n")


# The CLI import registers each layer and the remote transport, as one module object
# each, without running them.
LAZY_LAYERS = """
import sys, types
import gazeshift.cli
for name in ("so3", "nets", "vqvae", "prior", "datagen", "trainer"):
    assert sys.modules["gazeshift." + name] is getattr(gazeshift, name)
backends = sys.modules["gazeshift.reasoner.backends"]
assert backends is gazeshift.reasoner.backends
assert type(backends) is not types.ModuleType
from gazeshift.reasoner.backends import RemoteBackend, ScriptedBackend
assert type(backends) is types.ModuleType and backends.RemoteBackend is RemoteBackend
assert ScriptedBackend is gazeshift.reasoner.replay.ScriptedBackend
from gazeshift import so3
assert "numpy" not in sys.modules
assert so3.wrap_angles(-0.2) == -0.2
assert "numpy" in sys.modules
from gazeshift.trainer import infer
import gazeshift.trainer
assert gazeshift.trainer.infer is infer
print(gazeshift.trainer.run_training.__module__)
"""


def test_model_layers_load_on_first_use():
    proc = fresh_python(LAZY_LAYERS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "gazeshift.trainer"


# Running the rotation layer runs no part of the reasoner.
SO3_ALONE = """
import sys
from gazeshift import so3
assert so3.rotation_zyx([0.0, 0.0, 0.0]).shape == (3, 3)
print(sorted(name for name in sys.modules if name.startswith("gazeshift.reasoner")))
"""


def test_so3_runs_without_the_reasoner():
    proc = fresh_python(SO3_ALONE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# A command runs only the layers it reads. Before and after each command, the gazeshift
# modules still of the lazy module class, that is, registered and never run.
MODEL_COMMANDS_RUN_THEIR_OWN_LAYERS = """
import contextlib, json, sys, types
from gazeshift import cli
def unexecuted():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("gazeshift.") and type(module) is not types.ModuleType)
config, out = sys.argv[1], sys.argv[2]
dataset = out + "/data/dataset.jsonl"
seen = [unexecuted()]
with contextlib.redirect_stdout(sys.stderr):
    for argv in (["gen-data", "--config", config, "--out", out + "/data"],
                 ["train", "--config", config, "--stage", "1", "--dataset", dataset,
                  "--out", out + "/run"],
                 ["train", "--config", config, "--stage", "2", "--dataset", dataset,
                  "--out", out + "/run"],
                 ["eval", "--dataset", dataset, "--run", out + "/run", "--out", out + "/eval"],
                 ["sample", "--run", out + "/run", "--n", "5", "--out", out + "/sample"]):
        assert cli.main(argv) == 0, argv
        seen.append(unexecuted())
print(json.dumps(seen))
"""

def test_model_commands_run_no_part_of_the_reasoner(tmp_path):
    """gen-data runs `datagen` and `so3` only; one-epoch training, eval and sample
    run every model layer and leave each reasoner module unexecuted."""
    config = write_config(tmp_path, {**SMALL_CONFIG, "training": {
        **SMALL_CONFIG["training"], "stage1_epochs": 1, "stage2_epochs": 1, "milestones": []}})
    proc = fresh_python(MODEL_COMMANDS_RUN_THEIR_OWN_LAYERS, config, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    imported, *after = json.loads(proc.stdout)
    reasoner = [f"gazeshift.reasoner.{name}" for name in ("backends", "pipeline", "replay",
                                                          "scenario")]
    untouched_by_gen_data = [f"gazeshift.{name}" for name in ("nets", "prior", "trainer", "vqvae")]
    assert imported == sorted(reasoner + untouched_by_gen_data
                              + ["gazeshift.datagen", "gazeshift.so3"])
    assert after[0] == sorted(reasoner + untouched_by_gen_data)
    assert after[1:] == [reasoner] * 4
