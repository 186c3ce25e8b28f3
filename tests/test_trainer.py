"""Two-stage training loop: metrics, checkpoint selection, inference.

Runs here use a deliberately small dataset and network so the whole file
stays fast; the full-size training quality bars live in the acceptance
suite. What is asserted here is definitional: validation metrics recompute
from public pieces, the best checkpoint is the first epoch of lowest rank
(summed error, then in stage 2 top-1 agreement and focal loss), and the
first stage is bit-frozen while the second trains.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest

from gazeshift import nets, prior as prior_module, trainer as trainer_module, vqvae as vqvae_module
from gazeshift.datagen import (Dataset, GeneratorConfig, generate_dataset, read_dataset,
                               write_dataset)
from gazeshift.errors import ConfigError, TrainingError
from gazeshift.prior import ConditionalPrior, PriorConfig
from gazeshift.trainer import (METRICS_COLUMNS, METRICS_FILE,
                               PRIOR_CHECKPOINT, STAGE1_CHECKPOINT, TIMINGS_FILE,
                               CodeErrors, EpochMetrics, TrainConfig, _checked_split, _fit,
                               dataset_arrays, draw_allocations, infer, record_codes,
                               run_training, train_stage1, train_stage2, validate_stage1,
                               validate_stage2, write_metrics_csv)
from gazeshift.vqvae import (ConditionalVQVAE, ConditionVector, VQVAEConfig, condition_inputs,
                             model_inputs, quantize_rows, target_rotations)
from datagen_oracles import EyePose, HeadPose, euler_to_matrix, geodesic_distance, samples_of
from net_oracles import same_bits
from trainer_oracles import stage1_reference, stage2_reference

SMALL_GEN = GeneratorConfig(n_samples=60)
SMALL_TRAIN = TrainConfig(stage1_epochs=8, stage2_epochs=6, batch_size=16,
                          hidden_width=16, codebook_size=4, latent_dim=3,
                          milestones=(4,), seed=0)


def mgd(predicted, ground_truth, component: str) -> float:
    """Mean geodesic distance between pose lists, in degrees.

    A per-pose reference built on the validated scalar oracles; the trainer's
    batch path must agree with it. ``component`` is "eye" or "head" and
    must match the pose kinds.
    """
    if component not in ("eye", "head"):
        raise ValueError(f"unknown component {component!r}")
    if len(predicted) != len(ground_truth):
        raise ValueError("pose lists must have equal length")
    if not predicted:
        raise ValueError("mgd of empty pose lists is undefined")
    kind = EyePose if component == "eye" else HeadPose
    total = 0.0
    for p, g in zip(predicted, ground_truth):
        if not (isinstance(p, kind) and isinstance(g, kind)):
            raise ValueError(f"{component} mgd expects {kind.__name__} entries")
        total += geodesic_distance(euler_to_matrix(p), euler_to_matrix(g))
    return math.degrees(total / len(predicted))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory) -> Dataset:
    """The seed-11 dataset read back from its file, so it carries the file's SHA-256."""
    path = tmp_path_factory.mktemp("data") / "dataset.jsonl"
    write_dataset(generate_dataset(11, SMALL_GEN), path)
    return read_dataset(path)


@pytest.fixture(scope="module")
def trained(small_dataset):
    model, s1 = train_stage1(small_dataset, SMALL_TRAIN)
    labels = record_codes(model, *model_inputs(*dataset_arrays(small_dataset, "train"),
                                               SMALL_TRAIN.target_scale))
    prior, s2 = train_stage2(model, small_dataset, SMALL_TRAIN)
    return model, s1, labels, prior, s2


@pytest.fixture(scope="module")
def val_conditions(small_dataset):
    return [ConditionVector.from_input(c) for c in dataset_arrays(small_dataset, "val")[1]]


# -- mean geodesic distance ------------------------------------------------------------

def test_mgd_zero_for_identical_poses():
    poses = [HeadPose(0.2, -0.1, 0.05), HeadPose(0.0, 0.3, 0.0)]
    assert mgd(poses, list(poses), "head") == pytest.approx(0.0, abs=1e-6)


def test_mgd_single_axis_oracle():
    a = [HeadPose(0.0, 0.0, 0.0)]
    b = [HeadPose(math.radians(30.0), 0.0, 0.0)]
    assert mgd(b, a, "head") == pytest.approx(30.0, abs=1e-9)


def test_mgd_averages():
    a = [EyePose(0, 0), EyePose(0, 0)]
    b = [EyePose(math.radians(10), 0), EyePose(math.radians(20), 0)]
    assert mgd(b, a, "eye") == pytest.approx(15.0, abs=1e-9)


def test_mgd_validation():
    with pytest.raises(ValueError):
        mgd([], [], "eye")
    with pytest.raises(ValueError):
        mgd([EyePose(0, 0)], [], "eye")
    with pytest.raises(ValueError):
        mgd([EyePose(0, 0)], [HeadPose(0, 0, 0)], "eye")
    with pytest.raises(ValueError):
        mgd([EyePose(0, 0)], [EyePose(0, 0)], "gaze")


# -- configuration -----------------------------------------------------------------------

def test_train_config_round_trip():
    cfg = TrainConfig(stage1_epochs=3, milestones=(1, 2))
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_train_config_rejects_unknown_and_bad_fields():
    with pytest.raises(ConfigError, match="unknown"):
        TrainConfig.from_dict({"stage_one_epochs": 5})
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"lr": 0.0})
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_lr_at_reference_points():
    config = TrainConfig(lr=1e-3, milestones=(100, 150), lr_decay=0.5)
    assert config.lr_at(0) == 1e-3
    assert config.lr_at(99) == 1e-3
    assert config.lr_at(100) == 5e-4
    assert config.lr_at(149) == 5e-4
    assert config.lr_at(150) == 2.5e-4
    assert config.lr_at(199) == 2.5e-4


def test_lr_fields_validation():
    with pytest.raises(ValueError, match="base learning rate must be positive"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="milestones must be strictly increasing"):
        TrainConfig(milestones=(100, 100))
    with pytest.raises(ValueError, match="milestones must be strictly increasing"):
        TrainConfig(milestones=(150, 100))
    with pytest.raises(ValueError, match=re.escape("decay factor must be in (0, 1]")):
        TrainConfig(milestones=(), lr_decay=0.0)
    with pytest.raises(ValueError, match="epoch must be non-negative"):
        TrainConfig().lr_at(-1)


def test_train_config_fields_keep_their_order_and_defaults():
    # checkpoints record train_config in this order: the fields both models
    # share, the VQ-VAE's own, the prior's own, then the training loop's
    expected = [
        ("codebook_size", "int", 10), ("hidden_width", "int", 64),
        ("target_scale", "float", 2.0), ("latent_dim", "int", 8), ("beta", "float", 0.25),
        ("lambda_rc", "float", 1.0), ("codebook_init_scale", "float", 1.5),
        ("gamma", "float", 2.0), ("eta", "float", 1.0), ("lambda_mc", "float", 1.0),
        ("stage1_epochs", "int", 200), ("stage2_epochs", "int", 100),
        ("batch_size", "int", 32), ("lr", "float", 1e-3), ("weight_decay", "float", 1e-4),
        ("milestones", "tuple", (100, 150)), ("lr_decay", "float", 0.5), ("seed", "int", 0),
    ]
    # repr tells an int default from an equal float
    assert [(f.name, f.type, repr(f.default)) for f in dataclasses.fields(TrainConfig)] == [
        (name, kind, repr(default)) for name, kind, default in expected]
    assert list(TrainConfig().to_dict()) == [name for name, _, _ in expected]


@pytest.mark.parametrize("field, value, message", [
    ("codebook_size", 0, "codebook_size must be at least 1"),
    ("hidden_width", 0, "hidden_width must be at least 1"),
    ("target_scale", 0, "target_scale must be positive and finite, not 0"),
])
def test_shared_model_checks_read_alike_in_every_config(field, value, message):
    for config_cls in (VQVAEConfig, PriorConfig):
        with pytest.raises(ValueError) as raised:
            config_cls(**{field: value})
        assert str(raised.value) == message
    with pytest.raises(ConfigError) as raised:
        TrainConfig.from_dict({field: value})
    assert str(raised.value) == message


def test_train_config_propagates_to_model_configs():
    cfg = TrainConfig(codebook_size=7, latent_dim=5, hidden_width=24, beta=0.4, lambda_rc=0.6,
                      gamma=1.25, eta=0.3, lambda_mc=2.5, target_scale=3.0,
                      codebook_init_scale=0.9, lr=2e-3, seed=4)
    # the hand-written mappings TrainConfig used before it copied fields by name
    assert cfg.vqvae_config() == VQVAEConfig(
        codebook_size=cfg.codebook_size, latent_dim=cfg.latent_dim,
        hidden_width=cfg.hidden_width, beta=cfg.beta, lambda_rc=cfg.lambda_rc,
        target_scale=cfg.target_scale, codebook_init_scale=cfg.codebook_init_scale)
    assert cfg.prior_config() == PriorConfig(
        codebook_size=cfg.codebook_size, hidden_width=cfg.hidden_width, gamma=cfg.gamma,
        eta=cfg.eta, lambda_mc=cfg.lambda_mc, target_scale=cfg.target_scale)
    assert cfg.vqvae_config() != VQVAEConfig() and cfg.prior_config() != PriorConfig()


def test_metrics_columns_keep_their_order():
    # metrics.csv's bytes follow this order, which EpochMetrics' fields set
    assert METRICS_COLUMNS == [
        "stage", "epoch", "lr", "loss_total", "loss_rec", "loss_embed", "loss_commit",
        "loss_focal", "loss_mc", "val_eye_mgd_deg", "val_head_mgd_deg",
        "codebook_utilization", "prior_top1_acc",
    ]


def test_epoch_metrics_row_layout():
    entry = EpochMetrics(stage=1, epoch=0, lr=1e-3, loss_total=2.0,
                         val_eye_mgd_deg=5.0, val_head_mgd_deg=7.0)
    row = entry.row()
    assert len(row) == len(METRICS_COLUMNS)
    assert row[METRICS_COLUMNS.index("prior_top1_acc")] == ""
    assert entry.summed_mgd() == 12.0


# -- dataset plumbing -----------------------------------------------------------------------

def test_dataset_arrays_targets(small_dataset):
    Y, C = dataset_arrays(small_dataset, "train")
    assert Y.shape == (48, 5) and C.shape == (48, 8)
    train = [s for s, tag in zip(samples_of(small_dataset), small_dataset.split)
             if tag == "train"]
    np.testing.assert_array_equal(Y, [s.allocation.as_vector() for s in train])
    np.testing.assert_array_equal(C, [s.condition.as_input() for s in train])


def test_dataset_arrays_rejects_missing_split(small_dataset):
    all_train = Dataset(small_dataset.conditions, small_dataset.allocations,
                        small_dataset.strategy, ["train"] * 60,
                        small_dataset.seed, small_dataset.config)
    with pytest.raises(TrainingError, match="no 'val'"):
        dataset_arrays(all_train, "val")


# -- stage 1 ------------------------------------------------------------------------------------

def test_validate_stage1_recomputes_from_public_pieces(trained, small_dataset):
    model = trained[0]
    Yv, Cv = dataset_arrays(small_dataset, "val")
    eye_v, head_v = Cv[:, 0:2] + Yv[:, 0:2], Cv[:, 2:5] + Yv[:, 2:5]
    inputs = model_inputs(Yv, Cv, 2.0)
    eye_mgd, head_mgd, util = validate_stage1(model, *inputs, target_rotations(Yv, Cv))
    idx, z_q = quantize_rows(model.encode_rows(*inputs), model.codebook)
    pred = model.decode_rows(z_q, inputs[1])
    eye_poses = [EyePose(*(Cv[i, 0:2] + pred[i, 0:2])) for i in range(len(Cv))]
    eye_ref = [EyePose(*eye_v[i]) for i in range(len(Cv))]
    head_poses = [HeadPose(*(Cv[i, 2:5] + pred[i, 2:5])) for i in range(len(Cv))]
    head_ref = [HeadPose(*head_v[i]) for i in range(len(Cv))]
    assert eye_mgd == pytest.approx(mgd(eye_poses, eye_ref, "eye"), abs=1e-6)
    assert head_mgd == pytest.approx(mgd(head_poses, head_ref, "head"), abs=1e-6)
    assert util == len(set(idx)) / model.config.codebook_size
    assert 0 < util <= 1


def test_stage1_restores_best_epoch(trained, small_dataset):
    model, s1 = trained[0], trained[1]
    summed = [m.summed_mgd() for m in s1.metrics]
    assert len(summed) == SMALL_TRAIN.stage1_epochs
    assert s1.best_epoch == int(np.argmin(summed))
    assert summed[s1.best_epoch] == pytest.approx(min(summed), abs=1e-12)
    # the model's flat weights validate to the best epoch's metrics, bit for bit, on
    # the inputs training validated them on
    Yv, Xv = _checked_split(1, "val", small_dataset, SMALL_TRAIN.target_scale)
    best = s1.metrics[s1.best_epoch]
    assert validate_stage1(model, Yv, Xv, target_rotations(Yv, Xv)) == (
        best.val_eye_mgd_deg, best.val_head_mgd_deg, best.codebook_utilization)


def test_stage1_is_deterministic(small_dataset, trained):
    model_again, s1_again = train_stage1(small_dataset, SMALL_TRAIN)
    assert same_bits(model_again.flat, trained[0].flat)
    assert s1_again.best_epoch == trained[1].best_epoch


def test_record_codes_matches_quantizer(trained, small_dataset):
    model, labels = trained[0], trained[2]
    Y, C = dataset_arrays(small_dataset, "train")
    idx, _ = quantize_rows(model.encode_rows(*model_inputs(Y, C, 2.0)), model.codebook)
    assert labels.shape == (48,) and labels.dtype.kind == "i"
    np.testing.assert_array_equal(labels, idx)
    assert labels.min() >= 0 and labels.max() < SMALL_TRAIN.codebook_size


@pytest.mark.parametrize("stage, name", [(1, "decoder.2.b"), (2, "2.b")],
                         ids=["stage1", "stage2"])
def test_non_finite_gradient_names_stage_epoch_and_parameter(trained, small_dataset, monkeypatch,
                                                             stage, name):
    # a NaN in the "2.b" stretch of the one three-layer network a stage
    # backpropagates: the message names that parameter by the layout of the
    # model in training, which _fit hands to Adam
    real = nets.DenseNetwork.backward

    def poisoned(self, *args, **kw):
        grad, grad_in = real(self, *args, **kw)
        if "2.b" in self.layout.spans:
            grad[self.layout.spans["2.b"][0]] = np.nan
        return grad, grad_in

    monkeypatch.setattr(nets.DenseNetwork, "backward", poisoned)
    message = f"stage {stage} epoch 0: non-finite gradient for parameter '{name}'"
    with pytest.raises(TrainingError, match=f"^{re.escape(message)}$"):
        if stage == 1:
            train_stage1(small_dataset, SMALL_TRAIN)
        else:
            train_stage2(trained[0], small_dataset, SMALL_TRAIN)


@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("which", ["train", "val"])
@pytest.mark.parametrize("rows, column", [("condition", 6), ("allocation", 2)])
def test_a_non_finite_row_is_refused_before_the_first_epoch(trained, small_dataset, monkeypatch,
                                                          stage, which, rows, column):
    # each split is checked once, before any epoch: a NaN row used to leak a
    # bare ValueError from stage 2 and from stage 1's validation split
    model = trained[0]
    conditions, allocations = small_dataset.conditions.copy(), small_dataset.allocations.copy()
    (conditions if rows == "condition" else allocations)[small_dataset.split.index(which),
                                                         column] = math.nan
    bad = Dataset(conditions, allocations, small_dataset.strategy, small_dataset.split,
                  small_dataset.seed, small_dataset.config)

    def no_epoch(*args):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(trainer_module, "_fit", no_epoch)
    message = f"^stage {stage} {which} split: {rows} rows contain non-finite values$"
    with pytest.raises(TrainingError, match=message):
        if stage == 1:
            train_stage1(bad, SMALL_TRAIN)
        else:
            train_stage2(model, bad, SMALL_TRAIN)


def test_per_split_work_stays_out_of_the_step(trained, small_dataset, monkeypatch):
    """The checks and the normalisation run as often at any epoch count."""
    model = trained[0]
    calls = []
    for module, name in [(vqvae_module, "condition_inputs"), (vqvae_module, "_finite_rows"),
                         (trainer_module, "condition_inputs")]:
        def counted(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    for stage in (1, 2):
        counts = []
        for epochs in (1, 3):
            calls.clear()
            config = dataclasses.replace(SMALL_TRAIN, stage1_epochs=epochs, stage2_epochs=epochs)
            if stage == 1:
                train_stage1(small_dataset, config)
            else:
                train_stage2(model, small_dataset, config)
            counts.append(sorted(calls))
        assert counts[0] == counts[1] and "condition_inputs" in counts[0], stage


def test_each_command_normalises_each_split_once(tmp_path, monkeypatch):
    """``train`` normalises each split's condition rows once per stage, and ``eval`` once.

    On the default dataset (644 training and 161 validation rows) and
    model (10 codes), one epoch per stage: the counts do not depend on the
    epoch count (``test_per_split_work_stays_out_of_the_step``). The
    labels, the decoded tables and the validations reuse those rows.
    """
    from gazeshift import cli
    data, run = tmp_path / "data", tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"training": {"stage1_epochs": 1, "stage2_epochs": 1}}),
                      encoding="utf-8")
    assert cli.main(["gen-data", "--out", str(data)]) == 0
    rows, real = [], vqvae_module.condition_inputs

    def counted(C, target_scale):
        rows.append(len(C))
        return real(C, target_scale)

    for module in [m for name, m in sys.modules.items() if name.startswith("gazeshift.")]:
        if getattr(module, "condition_inputs", None) is real:
            monkeypatch.setattr(module, "condition_inputs", counted)
    dataset = str(data / "dataset.jsonl")
    assert cli.main(["train", "--config", str(config), "--dataset", dataset,
                     "--out", str(run)]) == 0
    assert rows == [644, 161, 644, 161]  # stage 1 train and val, then stage 2's
    rows.clear()
    assert cli.main(["eval", "--dataset", dataset, "--run", str(run),
                     "--out", str(tmp_path / "eval")]) == 0
    assert rows == [161]


@pytest.mark.parametrize("epochs, batch_size", [(2, 20), (36, 5)],
                         ids=["two-epochs", "past-step-356"])
def test_training_matches_the_per_batch_oracle_bit_for_bit(small_dataset, monkeypatch,
                                                           epochs, batch_size):
    # 48 training rows: batches of 20 leave a short last batch of 8; 36
    # epochs of 10 batches run Adam past the step where 1 - 0.9**t is 1.0
    config = dataclasses.replace(SMALL_TRAIN, stage1_epochs=epochs, stage2_epochs=epochs,
                                 batch_size=batch_size, milestones=(1,))
    after_epoch = []  # the parameters each validation sees, after its epoch's steps
    for name in ("validate_stage1", "validate_stage2"):
        def recorded(net, *args, real=getattr(trainer_module, name)):
            after_epoch.append((net.net if isinstance(net, ConditionalPrior) else net).flat.copy())
            return real(net, *args)

        monkeypatch.setattr(trainer_module, name, recorded)
    model, s1 = train_stage1(small_dataset, config)
    reference = stage1_reference(small_dataset, config)
    assert len(after_epoch) == len(reference) == epochs
    for flat, metrics, (ref_flat, ref_terms) in zip(after_epoch, s1.metrics, reference):
        assert same_bits(flat, ref_flat)
        assert [metrics.loss_total, metrics.loss_rec, metrics.loss_embed,
                metrics.loss_commit] == ref_terms.tolist()
    assert same_bits(model.flat, reference[s1.best_epoch][0])

    after_epoch.clear()
    prior, s2 = train_stage2(model, small_dataset, config)
    reference = stage2_reference(model, small_dataset, config)
    assert len(after_epoch) == len(reference) == epochs
    for flat, metrics, (ref_flat, ref_terms) in zip(after_epoch, s2.metrics, reference):
        assert same_bits(flat, ref_flat)
        assert [metrics.loss_focal, metrics.loss_mc] == ref_terms.tolist()
    assert same_bits(prior.net.flat, reference[s2.best_epoch][0])


# -- stage 2 ------------------------------------------------------------------------------------

def test_stage2_leaves_stage1_frozen(small_dataset):
    model, _ = train_stage1(small_dataset, SMALL_TRAIN)
    before = model.flat.copy()
    train_stage2(model, small_dataset, SMALL_TRAIN)
    assert same_bits(model.flat, before)


def test_stage2_decodes_as_often_at_any_epoch_count(trained, small_dataset, monkeypatch):
    """Stage 2 decodes its tables once; no step or validation decodes again."""
    model = trained[0]
    real = ConditionalVQVAE.decode_rows
    calls = []

    def counted(self, Zq, X):
        calls.append(len(X))
        return real(self, Zq, X)

    monkeypatch.setattr(ConditionalVQVAE, "decode_rows", counted)
    counts = []
    for epochs in (1, 3):
        calls.clear()
        train_stage2(model, small_dataset, dataclasses.replace(SMALL_TRAIN, stage2_epochs=epochs))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_validate_stage2_recomputes_from_public_pieces(trained, small_dataset):
    model, prior = trained[0], trained[3]
    Yv, Cv = dataset_arrays(small_dataset, "val")
    eye_v, head_v = Cv[:, 0:2] + Yv[:, 0:2], Cv[:, 2:5] + Yv[:, 2:5]
    Xv = condition_inputs(Cv, 2.0)
    val_labels = record_codes(model, *model_inputs(Yv, Cv, 2.0))
    val_errors = CodeErrors.of(model.decode_codes(Xv), Xv, target_rotations(Yv, Cv))
    eye_mgd, head_mgd, top1, got_codes = validate_stage2(prior, Xv, val_errors, val_labels)
    codes = np.argmax(prior.forward_rows(Xv), axis=1)
    assert np.array_equal(got_codes, codes)
    pred = model.decode_rows(model.codebook[codes], Xv)
    eye_poses = [EyePose(*(Cv[i, 0:2] + pred[i, 0:2])) for i in range(len(Cv))]
    head_poses = [HeadPose(*(Cv[i, 2:5] + pred[i, 2:5])) for i in range(len(Cv))]
    assert eye_mgd == pytest.approx(
        mgd(eye_poses, [EyePose(*r) for r in eye_v], "eye"), abs=1e-6)
    assert head_mgd == pytest.approx(
        mgd(head_poses, [HeadPose(*r) for r in head_v], "head"), abs=1e-6)
    assert top1 == float((codes == val_labels).mean())
    assert 0.0 <= top1 <= 1.0


def test_stage2_best_selection_and_gap(trained):
    s1, s2 = trained[1], trained[4]
    summed = [m.summed_mgd() for m in s2.metrics]
    assert len(summed) == SMALL_TRAIN.stage2_epochs
    ranks = [m.rank() for m in s2.metrics]
    assert s2.best_epoch == ranks.index(min(ranks))
    assert summed[s2.best_epoch] == min(summed)
    # decoding the prior's argmax code can trail teacher-forced quantisation,
    # but not beat it by more than the selection slack
    assert summed[s2.best_epoch] >= s1.metrics[s1.best_epoch].summed_mgd() - 0.5


def _fit_with_stub_metrics(stage: int, epochs: list):
    """Run ``_fit`` on a 2-vector whose every step moves it; epoch e reports ``epochs[e]``.

    Each entry is (summed MGD, top-1, focal loss); stage 1 reports only the
    MGD. Returns the result, the final vector and its value after each epoch.
    """
    flat = np.zeros(2)
    after_epoch = []

    def step(batch, rows):
        return np.array([0.0]), np.ones(2)

    def end_epoch(epoch, lr, means):
        after_epoch.append(flat.copy())
        summed, top1, focal = epochs[epoch]
        extra = {} if stage == 1 else {"loss_focal": focal, "loss_mc": 0.0,
                                       "prior_top1_acc": top1}
        return EpochMetrics(stage=stage, epoch=epoch, lr=lr, loss_total=focal,
                            val_eye_mgd_deg=summed / 2, val_head_mgd_deg=summed / 2, **extra)

    result = _fit(stage, flat, nets.Layout.of({"w": flat}), (np.zeros(4),), len(epochs),
                  np.random.default_rng(0), TrainConfig(batch_size=2), step, end_epoch)
    return result, flat, after_epoch


def test_fit_breaks_validation_ties_in_stage2_only():
    # every epoch validates to the same summed MGD: in stage 2 a later epoch
    # with a lower loss wins, a lower top-1 loses whatever its loss, and of
    # two equal epochs the first is kept
    epochs = [(10.0, 1.0, 0.9), (10.0, 1.0, 0.2), (10.0, 1.0, 0.5),
              (10.0, 0.5, 0.1), (10.0, 1.0, 0.2)]
    result, flat, after_epoch = _fit_with_stub_metrics(2, epochs)
    assert result.best_epoch == 1
    np.testing.assert_array_equal(flat, after_epoch[1])
    assert not np.array_equal(after_epoch[0], after_epoch[1])
    # a lower summed MGD still comes first
    epochs[3] = (9.0, 0.0, 5.0)
    assert _fit_with_stub_metrics(2, epochs)[0].best_epoch == 3
    # stage 1 reports no top-1 or focal loss, so its first tied epoch stays
    result, flat, after_epoch = _fit_with_stub_metrics(1, [(10.0, None, 0.9), (10.0, None, 0.2)])
    assert result.best_epoch == 0
    np.testing.assert_array_equal(flat, after_epoch[0])


def test_stage2_loss_total_composes_terms(trained, small_dataset):
    # the logged stage-2 objective is focal + eta * mc, epoch by epoch
    model, s2 = trained[0], trained[4]
    for m in s2.metrics:
        assert m.loss_total == m.loss_focal + SMALL_TRAIN.eta * m.loss_mc
        assert m.loss_focal > 0 and m.loss_mc > 0
    # eta = 0 leaves the focal term alone
    _, s2_focal = train_stage2(model, small_dataset, dataclasses.replace(SMALL_TRAIN, eta=0.0))
    for m in s2_focal.metrics:
        assert m.loss_total == m.loss_focal


def test_stage2_non_finite_focal_loss_names_stage_and_epoch(trained, small_dataset,
                                                           monkeypatch):
    model = trained[0]
    real = prior_module.focal_loss_rows

    def poisoned(logits, labels, gamma):
        _, vals, dlogits = real(logits, labels, gamma)
        return math.nan, vals, dlogits

    monkeypatch.setattr(prior_module, "focal_loss_rows", poisoned)
    with pytest.raises(TrainingError, match="stage 2 epoch 0: non-finite loss"):
        train_stage2(model, small_dataset, SMALL_TRAIN)


# -- inference ------------------------------------------------------------------------------------

def test_infer_argmax_is_deterministic(trained, val_conditions):
    model, prior = trained[0], trained[3]
    c = val_conditions[0]
    a = infer(model, prior, c, mode="argmax")
    b = infer(model, prior, c, mode="argmax")
    assert a.code == b.code == int(np.argmax(a.pi))
    np.testing.assert_array_equal(a.allocation.as_vector(), b.allocation.as_vector())
    np.testing.assert_array_equal(a.pi, b.pi)


def test_infer_sampling_follows_pi(trained, val_conditions):
    model, prior = trained[0], trained[3]
    c = val_conditions[1]
    pi = prior.forward_rows(condition_inputs(c.as_input()[None, :], 2.0))[0]
    rng = np.random.default_rng(17)
    draws = np.array([infer(model, prior, c, mode="sample", rng=rng).code
                      for _ in range(1000)])
    freq = np.bincount(draws, minlength=len(pi)) / draws.size
    assert 0.5 * np.abs(freq - pi).sum() <= 0.05  # total variation


@pytest.mark.parametrize("mode", ["sample", "argmax"])
def test_infer_equals_forward_sample_and_decode(trained, val_conditions, mode):
    # infer must give the bits of the public pieces it stands for: the
    # prior and the decoder on one condition row, and one draw of size 1
    model, prior = trained[0], trained[3]
    rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
    for c in val_conditions:
        result = infer(model, prior, c, mode=mode, rng=rng)
        x = condition_inputs(c.as_input()[None, :], 2.0)
        pi = prior.forward_rows(x)[0]
        draw = np.argmax(pi) if mode == "argmax" else prior_module.sample_code(pi, ref_rng, 1)[0]
        code = int(draw)
        pred = model.decode_rows(model.codebook[code][None, :], x)[0]
        assert type(result.code) is int and result.code == code
        assert result.pi.tobytes() == pi.tobytes()
        assert result.allocation.as_vector().tobytes() == pred.tobytes()
    assert rng.random() == ref_rng.random()


def test_draw_allocations_refuses_models_that_scale_targets_differently(trained, val_conditions):
    # one normalised condition row feeds both models, so their scales must agree
    model, prior = trained[0], trained[3]
    other = ConditionalPrior(dataclasses.replace(prior.config, target_scale=3.0))
    other.set_params(prior.params())
    c = val_conditions[0]
    with pytest.raises(ValueError, match="stage-1 target_scale 2.0 differs from the prior's 3.0"):
        draw_allocations(model, other, c.as_input(), "sample", np.random.default_rng(0), 5)


@pytest.mark.parametrize("mode", ["sample", "argmax"])
def test_infer_is_draw_allocations_of_one(trained, mode):
    # infer wraps draw_allocations with n = 1: the same code, pi and row bits,
    # and the generator left in the same state. The fixture's own validation
    # split is short, so the conditions come from a second dataset's.
    model, prior = trained[0], trained[3]
    _, Cv = dataset_arrays(generate_dataset(12, GeneratorConfig(n_samples=120)), "val")
    assert len(Cv) >= 20
    rng, ref_rng = np.random.default_rng(37), np.random.default_rng(37)
    for c in Cv:
        result = infer(model, prior, ConditionVector.from_input(c), mode=mode, rng=rng)
        pi, codes, rows = draw_allocations(model, prior, c, mode, ref_rng, 1)
        assert codes.tolist() == [result.code] and list(rows) == [result.code]
        assert result.pi.tobytes() == pi.tobytes()
        assert result.allocation.as_vector().tobytes() == rows[result.code].tobytes()
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("mode", ["sample", "argmax"])
@pytest.mark.parametrize("n", [0, -2])
def test_draw_allocations_refuses_fewer_than_one_draw(trained, val_conditions, mode, n):
    model, prior = trained[0], trained[3]
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
        draw_allocations(model, prior, val_conditions[0].as_input(), mode, rng, n)
    assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("mode", ["sample", "argmax"])
def test_draw_allocations_equals_n_infer_calls(trained, val_conditions, mode):
    model, prior = trained[0], trained[3]
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    for c in val_conditions:
        pi, codes, allocations = draw_allocations(model, prior, c.as_input(), mode, rng, 25)
        results = [infer(model, prior, c, mode=mode, rng=ref_rng) for _ in range(25)]
        assert codes.tolist() == [r.code for r in results]
        assert list(allocations) == list(dict.fromkeys(codes.tolist()))
        for r in results:
            assert r.pi.tobytes() == pi.tobytes()
            assert allocations[r.code].tobytes() == r.allocation.as_vector().tobytes()
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("mode", ["sample", "argmax"])
@pytest.mark.parametrize("n", [1, 20000])
def test_draw_allocations_arrays_own_the_bits_of_their_passes(trained, val_conditions, mode, n):
    # pi and every row are arrays of their own, not views of the (1, K)
    # softmax or a (1, 5) decode, and hold the bits of those passes made
    # beside them
    model, prior = trained[0], trained[3]
    rng = np.random.default_rng(43)
    for c in val_conditions:
        pi, codes, rows = draw_allocations(model, prior, c.as_input(), mode, rng, n)
        x = condition_inputs(c.as_input()[None, :], model.config.target_scale)
        assert pi.base is None and pi.tobytes() == prior.forward_rows(x)[0].tobytes()
        assert len(codes) == n and list(rows) == list(dict.fromkeys(codes.tolist()))
        for k, row in rows.items():
            assert row.base is None
            assert row.tobytes() == model.decode_rows(model.codebook[k:k + 1], x)[0].tobytes()


def test_infer_result_is_slotted_and_owns_its_arrays(trained, val_conditions):
    model, prior = trained[0], trained[3]
    result = infer(model, prior, val_conditions[0], mode="sample", rng=np.random.default_rng(47))
    assert not hasattr(result, "__dict__") and not hasattr(result.allocation, "__dict__")
    assert result.pi.base is None and result.allocation.as_vector().base is None


def test_infer_names_the_code_of_an_allocation_outside_pi(trained, val_conditions):
    model = ConditionalVQVAE(trained[0].config)
    model.set_params(trained[0].params())
    model.decoder.biases[-1][0] = 100.0  # the eye yaw increment, far past pi
    c = val_conditions[0]
    message = r"code \d+ decodes to an unusable allocation: motion increments must lie within"
    with pytest.raises(ValueError, match=message):
        infer(model, trained[3], c, mode="argmax")
    with pytest.raises(ValueError, match=message):
        draw_allocations(model, trained[3], c.as_input(), "sample", np.random.default_rng(0), 9)


def test_infer_rejects_unknown_mode(trained, val_conditions):
    model, prior = trained[0], trained[3]
    with pytest.raises(ValueError):
        infer(model, prior, val_conditions[0], mode="map")


# -- persistence of runs -----------------------------------------------------------------------------

def test_metrics_csv_layout(tmp_path, trained):
    s1, s2 = trained[1], trained[4]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [m.row() for m in s1.metrics + s2.metrics])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == METRICS_COLUMNS
    assert len(rows) == 1 + SMALL_TRAIN.stage1_epochs + SMALL_TRAIN.stage2_epochs
    stage_col = METRICS_COLUMNS.index("stage")
    assert [r[stage_col] for r in rows[1:]] == (
        ["1"] * SMALL_TRAIN.stage1_epochs + ["2"] * SMALL_TRAIN.stage2_epochs)
    # stage-1 rows carry no prior columns, stage-2 rows no vq columns
    top1_col = METRICS_COLUMNS.index("prior_top1_acc")
    rec_col = METRICS_COLUMNS.index("loss_rec")
    assert rows[1][top1_col] == "" and rows[1][rec_col] != ""
    last = rows[-1]
    assert last[top1_col] != "" and last[rec_col] == ""


def test_run_training_writes_everything(tmp_path, small_dataset):
    out = tmp_path / "run"
    summary = run_training(small_dataset, SMALL_TRAIN, out)
    assert (out / STAGE1_CHECKPOINT).exists()
    assert (out / PRIOR_CHECKPOINT).exists()
    assert (out / METRICS_FILE).exists()
    assert summary["dataset_hash"] == small_dataset.sha256
    stage1 = nets.load_checkpoint(out / STAGE1_CHECKPOINT)
    prior = nets.load_checkpoint(out / PRIOR_CHECKPOINT)
    assert stage1.metadata["dataset_hash"] == prior.metadata["dataset_hash"] == small_dataset.sha256
    assert prior.metadata["model"]["stage1_sha256"] == stage1.sha256
    assert list(summary["best"]) == ["stage1", "stage2"]
    for stage in ("stage1", "stage2"):
        assert set(summary["best"][stage]) == {"best_epoch", "val_eye_mgd_deg",
                                               "val_head_mgd_deg"}
    assert all(str(out) in p for p in summary["outputs"])
    # the prior checkpoint refuses to load against a different first stage
    other = ConditionalVQVAE(SMALL_TRAIN.vqvae_config(), seed=99)
    other.save(tmp_path / "other.json")
    with pytest.raises(ValueError, match="different first-stage"):
        ConditionalPrior.load(out / PRIOR_CHECKPOINT,
                              stage1=nets.load_checkpoint(tmp_path / "other.json"))
    _, stage1 = ConditionalVQVAE.load(out / STAGE1_CHECKPOINT)
    prior, _ = ConditionalPrior.load(out / PRIOR_CHECKPOINT, stage1=stage1)
    assert prior.config.codebook_size == SMALL_TRAIN.codebook_size


def test_run_training_metrics_cells_are_plain_numbers(tmp_path, small_dataset):
    # numpy scalars used to reach the file as "np.float64(...)"
    out = tmp_path / "run"
    run_training(small_dataset, SMALL_TRAIN, out)
    with open(out / METRICS_FILE, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cells = [cell for row in rows for cell in row if cell]
    assert len(cells) > len(rows)
    assert all(math.isfinite(float(cell)) for cell in cells)


def test_write_metrics_csv_failing_midway_keeps_previous_file(tmp_path, trained):
    path = tmp_path / METRICS_FILE
    write_metrics_csv(path, [m.row() for m in trained[1].metrics])
    before = path.read_bytes()

    def rows():
        yield trained[4].metrics[0].row()
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_metrics_csv(path, rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [METRICS_FILE]


def test_run_training_is_reproducible(tmp_path, small_dataset):
    a = run_training(small_dataset, SMALL_TRAIN, tmp_path / "a")
    b = run_training(small_dataset, SMALL_TRAIN, tmp_path / "b")
    assert a["best"]["stage1"] == b["best"]["stage1"]
    assert a["best"]["stage2"] == b["best"]["stage2"]
    assert ((tmp_path / "a" / METRICS_FILE).read_bytes()
            == (tmp_path / "b" / METRICS_FILE).read_bytes())


def test_run_training_writes_one_timing_line_per_epoch_per_stage(tmp_path, small_dataset):
    out = tmp_path / "run"
    run_training(small_dataset, SMALL_TRAIN, out, stage="1")
    # a stage-2 run keeps the stage-1 lines, as it keeps the stage-1 metrics rows
    summary = run_training(small_dataset, SMALL_TRAIN, out, stage="2")
    assert str(out / TIMINGS_FILE) in summary["outputs"]
    records = [json.loads(line) for line in
               (out / TIMINGS_FILE).read_text(encoding="utf-8").splitlines()]
    assert [(r["stage"], r["epoch"]) for r in records] == (
        [(1, e) for e in range(SMALL_TRAIN.stage1_epochs)]
        + [(2, e) for e in range(SMALL_TRAIN.stage2_epochs)])
    for r in records:
        assert set(r) == {"stage", "epoch", "step_s", "optimizer_s", "validation_s"}
        assert all(r[k] > 0 for k in ("step_s", "optimizer_s", "validation_s"))
    with open(out / METRICS_FILE, newline="") as fh:
        assert next(csv.reader(fh)) == METRICS_COLUMNS
    (out / TIMINGS_FILE).write_text("{not json\n", encoding="utf-8")
    with pytest.raises(TrainingError, match="one JSON object per line"):
        run_training(small_dataset, SMALL_TRAIN, out, stage="2")


def test_run_training_stage2_rejects_foreign_metrics_file(tmp_path, small_dataset):
    out = tmp_path / "run"
    run_training(small_dataset, SMALL_TRAIN, out, stage="1")
    (out / METRICS_FILE).write_text("epoch,loss\n0,1.0\n", encoding="utf-8")
    with pytest.raises(TrainingError, match="metrics header"):
        run_training(small_dataset, SMALL_TRAIN, out, stage="2")


def test_run_training_stage2_needs_stage1(tmp_path, small_dataset):
    with pytest.raises(TrainingError, match="does not exist"):
        run_training(small_dataset, SMALL_TRAIN, tmp_path / "empty", stage="2")


def test_run_training_stage2_checks_dataset_hash(tmp_path, small_dataset):
    out = tmp_path / "run"
    run_training(small_dataset, SMALL_TRAIN, out, stage="1")
    other = generate_dataset(99, SMALL_GEN)
    # a dataset made in memory has no file digest, not even the same one
    for unread in (other, generate_dataset(11, SMALL_GEN)):
        with pytest.raises(TrainingError, match="different dataset"):
            run_training(unread, SMALL_TRAIN, out, stage="2")
    other_path = tmp_path / "other.jsonl"
    write_dataset(other, other_path)
    with pytest.raises(TrainingError, match="different dataset"):
        run_training(read_dataset(other_path), SMALL_TRAIN, out, stage="2")


def test_run_training_stage2_requires_recorded_dataset_hash(tmp_path, small_dataset):
    out = tmp_path / "run"
    run_training(small_dataset, SMALL_TRAIN, out, stage="1")
    doc = json.loads((out / STAGE1_CHECKPOINT).read_text(encoding="utf-8"))
    del doc["metadata"]["dataset_hash"]
    (out / STAGE1_CHECKPOINT).write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(TrainingError, match="no dataset hash"):
        run_training(small_dataset, SMALL_TRAIN, out, stage="2")


def test_run_training_rejects_bad_stage(tmp_path, small_dataset):
    with pytest.raises(ConfigError):
        run_training(small_dataset, SMALL_TRAIN, tmp_path, stage="3")
