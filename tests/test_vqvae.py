"""Conditional VQ-VAE: quantisation, loss terms, and gradient routing.

The straight-through convention makes the raw quantised loss
non-differentiable, so finite differences are checked against term-isolated
surrogates: the reconstruction path uses a frozen quantisation offset
(z_q* - z_e* held constant), and the embed term is probed directly through
the codebook entries while the code assignment is stable. Fixtures assert a
margin to the nearest rectifier kink and codebook decision boundary first.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gazeshift.datagen import allocation_violations, condition_violations
from gazeshift.vqvae import (ConditionalVQVAE, ConditionVector, VQVAEConfig, condition_inputs,
                             model_inputs, pose_errors_rows, quantize_rows, reconstruction_terms,
                             target_rotations)
from datagen_oracles import (EyePose, HeadPose, PoseAllocation, PoseCondition, euler_to_matrix,
                             geodesic_distance)
from net_oracles import preactivations, same_bits

FD_H = 1e-6
FD_REL = 1e-4


def small_model(seed: int = 0) -> ConditionalVQVAE:
    return ConditionalVQVAE(VQVAEConfig(codebook_size=4, latent_dim=3, hidden_width=8),
                            seed=seed)


def fixture_batch(rng: np.random.Generator, n: int = 3):
    Y = rng.uniform(-0.4, 0.4, size=(n, 5))
    C = np.concatenate([
        rng.uniform(-0.3, 0.3, size=(n, 2)),   # eye yaw, pitch
        rng.uniform(-0.5, 0.5, size=(n, 3)),   # head yaw, pitch, roll
        rng.uniform(0.5, 2.0, size=(n, 3)),    # target, metres
    ], axis=1)
    return Y, C


def assignment_margin(model: ConditionalVQVAE, Y, X) -> float:
    """Distance gap between the chosen code and the runner-up, per batch min."""
    z_e = model.encode_rows(Y, X)
    d2 = ((z_e[:, None, :] - model.codebook) ** 2).sum(axis=2)
    d2.sort(axis=1)
    return float((d2[:, 1] - d2[:, 0]).min())


def kink_margin(model: ConditionalVQVAE, Y, X) -> float:
    """Smallest |pre-activation| over every rectified layer in the model."""
    f_y = model.recon_encoder.forward(Y)
    f_c = model.cond_encoder.forward(X)
    z_e = model.fusion_in.forward(np.concatenate([f_y, f_c], axis=1))
    _, z_q = quantize_rows(z_e, model.codebook)
    h = model.fusion_out.forward(np.concatenate([z_q, f_c], axis=1))
    margins = []
    for net, x in ((model.recon_encoder, Y), (model.cond_encoder, X),
                   (model.decoder, h)):
        for z, act in zip(preactivations(net, x), net.activations):
            if act == "relu":
                margins.append(float(np.abs(z).min()))
    return min(margins)


def stable_fixture(seed_start: int = 0):
    """A (model, Y, X) fixture with safe margins for finite differencing;
    (Y, X) are the ``model_inputs`` of a ``fixture_batch``."""
    for seed in range(seed_start, seed_start + 50):
        rng = np.random.default_rng(seed)
        model = small_model(seed)
        Y, X = model_inputs(*fixture_batch(rng), model.config.target_scale)
        if assignment_margin(model, Y, X) < 1e-3:
            continue
        if kink_margin(model, Y, X) < 1e-4:
            continue
        # geodesic distances must stay away from the metric's kinks at 0, pi
        pred = model.decode_rows(quantize_rows(model.encode_rows(Y, X), model.codebook)[1], X)
        vals, _ = reconstruction_terms(pred, Y, X, 1.0)
        if vals.min() < 0.05 or vals.max() > math.pi - 0.1:
            continue
        return model, Y, X
    raise AssertionError("no stable fixture found")


# -- domain types ----------------------------------------------------------------

def test_condition_vector_flattens_in_documented_order():
    c = PoseCondition(EyePose(0.1, 0.2), HeadPose(0.3, 0.4, 0.5), [1.0, 2.0, 2.5])
    np.testing.assert_array_equal(c.as_input(), [0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 2.0, 2.5])
    back = ConditionVector.from_input(c.as_input())
    np.testing.assert_array_equal(back.as_input(), c.as_input())


def test_condition_vector_rejects_degenerate_target():
    with pytest.raises(ValueError, match=r"target norm must exceed 0.05 m \(got 0.0100\)"):
        ConditionVector([0, 0, 0, 0, 0, 0.0, 0.0, 0.01])
    with pytest.raises(ValueError, match="target coordinates must be finite"):
        ConditionVector([0, 0, 0, 0, 0, 1.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="condition vector must have 8 entries"):
        ConditionVector([0, 0, 0, 0, 0, 1.0, 0.0])


# The value rules of condition and allocation rows against the one-row oracle
# classes: angles across and at each range bound (pi and pi/2, each 1e-9 and
# one ulp either side of the tolerance), NaN and +-inf; targets across, at
# and one ulp either side of norm 0.05, and at the origin.
def _around(bound: float) -> list:
    edge = bound + 1e-9
    return [bound - 1e-9, bound, edge, math.nextafter(edge, 0.0), math.nextafter(edge, 4.0)]


NON_FINITE = [math.nan, math.inf, -math.inf]
BOUND_ANGLES = [sign * x for sign in (1.0, -1.0) for x in _around(math.pi) + _around(math.pi / 2)]
ROW_ANGLES = st.one_of(st.floats(-1.5, 1.5), st.floats(-4.0, 4.0),
                       st.sampled_from(BOUND_ANGLES + NON_FINITE))
NORMS = [0.05, math.nextafter(0.05, 0.0), math.nextafter(0.05, 1.0), 0.0]
ROW_TARGETS = st.one_of(
    st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0] + NON_FINITE)),
             min_size=3, max_size=3),
    st.builds(lambda direction, norm: (np.array(direction) / np.linalg.norm(direction)
                                       * norm).tolist(),
              st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
                  lambda d: np.linalg.norm(d) > 1e-3),
              st.sampled_from(NORMS)),
    st.builds(lambda k, norm: [norm if j == k else 0.0 for j in range(3)],
              st.integers(0, 2), st.sampled_from(NORMS)),
)
INCREMENTS = st.one_of(st.floats(-3.0, 3.0), st.floats(-4.0, 4.0),
                       st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 4.0),
                                        -math.nextafter(math.pi, 4.0)] + NON_FINITE))


def _oracle_message(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.lists(ROW_ANGLES, min_size=5, max_size=5), ROW_TARGETS,
                          st.lists(INCREMENTS, min_size=5, max_size=5)),
                min_size=1, max_size=6))
def test_row_violations_match_the_oracle_classes(rows):
    C = np.array([angles + target for angles, target, _ in rows])
    A = np.array([increments for _, _, increments in rows])
    for (angles, target, increments), condition, allocation in zip(
            rows, condition_violations(C), allocation_violations(A)):
        expected = _oracle_message(lambda: PoseCondition(EyePose(*angles[:2]),
                                                         HeadPose(*angles[2:]), target))
        assert condition == expected
        assert _oracle_message(lambda: ConditionVector(angles + target)) == expected
        expected = _oracle_message(lambda: PoseAllocation(increments[:2], increments[2:]))
        assert allocation == expected


def test_row_violations_of_no_rows():
    assert condition_violations(np.empty((0, 8))) == []
    assert allocation_violations(np.empty((0, 5))) == []


# -- quantize --------------------------------------------------------------------

# Where rows enter a model, and which rows: neither DenseNetwork.forward nor
# a model pass checks values, so each entry point must refuse a NaN or inf
# row itself.
_ENTRY_POINTS = {
    "condition_inputs": ("C", lambda m, Y, C, Z: condition_inputs(C, 2.0)),
    "model_inputs-Y": ("Y", lambda m, Y, C, Z: model_inputs(Y, C, 2.0)),
    "model_inputs-C": ("C", lambda m, Y, C, Z: model_inputs(Y, C, 2.0)),
    # one row, as trainer.draw_allocations decodes each code
    "decode": ("Z", lambda m, Y, C, Z: m.decode_rows(Z[1:2], condition_inputs(C[1:2], 2.0))),
    "decode_rows": ("Z", lambda m, Y, C, Z: m.decode_rows(Z, condition_inputs(C, 2.0))),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_reject_non_finite_rows(entry, bad):
    model = small_model(5)
    Y, C = fixture_batch(np.random.default_rng(23))
    rows = {"Y": Y, "C": C, "Z": model.codebook[:3].copy()}
    poisoned, call = _ENTRY_POINTS[entry]
    rows[poisoned][1, -1] = bad
    with pytest.raises(ValueError, match="contain non-finite values"):
        call(model, **rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 4, 7])
def test_condition_inputs_refuses_a_non_finite_entry_and_leaves_its_rows(bad, column):
    _, C = fixture_batch(np.random.default_rng(23))
    C[2, column] = bad
    before = C.copy()
    with pytest.raises(ValueError, match="^condition rows contain non-finite values$"):
        condition_inputs(C, 2.0)
    with pytest.raises(ValueError, match="^condition rows contain non-finite values$"):
        condition_inputs(C.tolist(), 2.0)
    assert np.array_equal(C, before, equal_nan=True)


def test_quantize_nearest_neighbor():
    book = np.array([[0.0, 0.0], [1.0, 1.0]])
    idx, z_q = quantize_rows(np.array([[0.1, 0.2]]), book)
    assert idx[0] == 0  # nearest entry is the first one
    np.testing.assert_array_equal(z_q[0], [0.0, 0.0])


def test_quantize_exact_hit():
    book = np.array([[0.0, 0.0], [1.0, 1.0]])
    idx, z_q = quantize_rows(np.array([[1.0, 1.0]]), book)
    assert idx[0] == 1
    np.testing.assert_array_equal(z_q[0], [1.0, 1.0])


def test_quantize_tie_breaks_to_smallest_index():
    book = np.array([[0.0, 0.0], [1.0, 0.0]])
    idx, _ = quantize_rows(np.array([[0.5, 0.0]]), book)  # exactly equidistant
    assert idx[0] == 0


def test_quantize_exhaustive_against_oracle():
    rng = np.random.default_rng(21)
    book = rng.normal(size=(7, 4))
    Z = rng.normal(size=(50, 4))
    idx, z_q = quantize_rows(Z, book)
    for i in range(50):
        d2 = [float(((Z[i] - e) ** 2).sum()) for e in book]
        assert idx[i] == int(np.argmin(d2))
        np.testing.assert_array_equal(z_q[i], book[idx[i]])


def test_quantize_idempotent():
    rng = np.random.default_rng(22)
    book = rng.normal(size=(5, 3))
    idx, z_q = quantize_rows(rng.normal(size=(6, 3)), book)
    again, _ = quantize_rows(z_q, book)
    np.testing.assert_array_equal(again, idx)


def test_quantize_validates_inputs():
    with pytest.raises(ValueError):
        quantize_rows(np.zeros((1, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        quantize_rows(np.zeros((1, 3)), np.zeros((4, 2)))


# -- encode / decode ---------------------------------------------------------------

def test_encode_shape_and_determinism():
    c = PoseCondition(EyePose(0.1, 0.0), HeadPose(0.2, -0.1, 0.0), [1.5, 0.3, 0.2])
    y = PoseAllocation([0.05, 0.02], [0.2, -0.1, 0.0])
    Y, X = model_inputs(y.as_vector()[None, :], c.as_input()[None, :], 2.0)
    a = ConditionalVQVAE(VQVAEConfig(), seed=5).encode_rows(Y, X)
    b = ConditionalVQVAE(VQVAEConfig(), seed=5).encode_rows(Y, X)
    assert a.shape == (1, VQVAEConfig().latent_dim) == (1, 8)
    np.testing.assert_array_equal(a, b)


def test_forward_rows_matches_encode_quantize_decode():
    rng = np.random.default_rng(26)
    model = small_model(3)
    Y, X = model_inputs(*fixture_batch(rng, n=7), model.config.target_scale)
    idx, z_e, z_q, pred = model.forward_rows(Y, X)
    np.testing.assert_array_equal(z_e, model.encode_rows(Y, X))
    idx_ref, z_q_ref = quantize_rows(z_e, model.codebook)
    np.testing.assert_array_equal(idx, idx_ref)
    np.testing.assert_array_equal(z_q, z_q_ref)
    np.testing.assert_array_equal(pred, model.decode_rows(z_q, X))


def test_decode_shape_and_split():
    model = small_model()
    x = condition_inputs(
        PoseCondition(EyePose(0, 0), HeadPose(0, 0, 0), [1.0, 0.0, 0.0]).as_input()[None, :], 2.0)
    assert model.decode_rows(np.zeros((1, 3)), x).shape == (1, 5)
    with pytest.raises(ValueError):
        model.decode_rows(np.zeros((1, 5)), x)


def test_encode_input_gradients_match_fd():
    # chain the per-net input gradients through the fusion and compare with
    # finite differences of encode_rows coordinates
    model, Y, X = stable_fixture(30)
    H = model.config.hidden_width
    D = model.config.latent_dim
    for coord in range(D):
        z0 = model.encode_rows(Y, X)
        upstream = np.zeros_like(z0)
        upstream[:, coord] = 1.0
        _, g_u = model.fusion_in.backward(upstream)
        _, g_y = model.recon_encoder.backward(g_u[:, :H])
        for i in (0, 1):
            for j in range(5):
                step = np.zeros_like(Y)
                step[i, j] = FD_H
                fd = (model.encode_rows(Y + step, X)[i, coord]
                      - model.encode_rows(Y - step, X)[i, coord]) / (2 * FD_H)
                assert g_y[i, j] == pytest.approx(fd, rel=FD_REL, abs=1e-9)


# -- reconstruction loss ------------------------------------------------------------

def test_reconstruction_zero_for_exact_prediction():
    rng = np.random.default_rng(23)
    Y, C = fixture_batch(rng)
    vals, _ = reconstruction_terms(Y, Y, C, 1.0)
    np.testing.assert_array_equal(vals, 0.0)


def test_reconstruction_nonnegative():
    rng = np.random.default_rng(24)
    Y, C = fixture_batch(rng, n=20)
    pred = Y + rng.normal(scale=0.2, size=Y.shape)
    vals, _ = reconstruction_terms(pred, Y, C, 1.0)
    assert np.all(vals >= 0)


def test_reconstruction_invariant_to_wrapped_targets():
    # the loss compares rotations, so a 2*pi shift in a true angle is invisible
    rng = np.random.default_rng(25)
    Y, C = fixture_batch(rng)
    shifted = Y.copy()
    shifted[:, 2] += 2 * math.pi
    a, _ = reconstruction_terms(Y + 0.1, Y, C, 1.0)
    b, _ = reconstruction_terms(Y + 0.1, shifted, C, 1.0)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_reconstruction_same_axis_value():
    # 30 degree head-yaw error, eyes exact -> loss = pi/6 with lambda_rc = 1
    Y = np.zeros((1, 5))
    C = np.zeros((1, 8))
    C[0, 5] = 1.0  # any valid target; unused by the loss
    pred = Y.copy()
    pred[0, 2] = math.radians(30)
    vals, _ = reconstruction_terms(pred, Y, C, 1.0)
    assert vals[0] == pytest.approx(math.radians(30), abs=1e-12)


def test_reconstruction_lambda_scales_head_term():
    Y = np.zeros((1, 5))
    C = np.zeros((1, 8))
    C[0, 5] = 1.0
    pred = Y.copy()
    pred[0, 0] = 0.2   # eye yaw error
    pred[0, 2] = 0.3   # head yaw error
    v1, _ = reconstruction_terms(pred, Y, C, 1.0)
    v2, _ = reconstruction_terms(pred, Y, C, 2.0)
    assert v2[0] - v1[0] == pytest.approx(0.3, abs=1e-12)


# -- pose errors: the one value path for the geodesic metric --------------------------

def _pose_reference(a, c):
    """Target eye and head poses of allocation row ``a`` from condition row ``c``."""
    return (EyePose(*(c[0:2] + a[0:2])), HeadPose(*(c[2:5] + a[2:5])))


ANGLES = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(pred=arrays(float, (4, 5), elements=ANGLES),
       Y=arrays(float, (4, 5), elements=ANGLES),
       cond=arrays(float, (4, 5), elements=st.floats(-0.5, 0.5, allow_nan=False)),
       shifts=arrays(np.int64, (4, 5), elements=st.integers(-3, 3)))
def test_pose_errors_rows_properties(pred, Y, cond, shifts):
    C = np.concatenate([cond, np.ones((4, 3))], axis=1)
    R_true = target_rotations(Y, C)
    d_eye, d_head = pose_errors_rows(pred, C, R_true)
    for d in (d_eye, d_head):
        assert d.shape == (4,)
        assert np.all((d >= 0.0) & (d <= math.pi))
    # exactly zero on an exact prediction
    for d in pose_errors_rows(Y, C, R_true):
        np.testing.assert_array_equal(d, 0.0)
    # rotations ignore 2*pi shifts of any predicted angle
    for a, b in zip(pose_errors_rows(pred + 2 * math.pi * shifts, C, R_true), (d_eye, d_head)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    # each row matches the validated scalar path
    for i in range(4):
        eye_p, head_p = _pose_reference(pred[i], C[i])
        eye_t, head_t = _pose_reference(Y[i], C[i])
        assert d_eye[i] == pytest.approx(geodesic_distance(
            euler_to_matrix(eye_p), euler_to_matrix(eye_t)), rel=0, abs=1e-12)
        assert d_head[i] == pytest.approx(geodesic_distance(
            euler_to_matrix(head_p), euler_to_matrix(head_t)), rel=0, abs=1e-12)


def test_reconstruction_values_are_pose_errors():
    rng = np.random.default_rng(27)
    Y, C = fixture_batch(rng, n=12)
    pred = Y + rng.normal(scale=0.3, size=Y.shape)
    d_eye, d_head = pose_errors_rows(pred, C, target_rotations(Y, C))
    vals, _ = reconstruction_terms(pred, Y, C, 1.7)
    np.testing.assert_array_equal(vals, d_eye + 1.7 * d_head)


# -- vq loss: values ------------------------------------------------------------------

def test_vq_loss_zero_at_perfect_reconstruction():
    model = small_model()
    zeros = {name: np.zeros_like(p) for name, p in model.params().items()}
    model.set_params(zeros)  # zero nets and zero codebook: z_e = z_q = pred = 0
    c = PoseCondition(EyePose(0.1, 0.0), HeadPose(0.2, 0.0, 0.0), [1.0, 0.2, 0.1])
    y = PoseAllocation([0.0, 0.0], [0.0, 0.0, 0.0])
    terms, _ = model.loss_and_grads(*model_inputs(y.as_vector()[None, :],
                                                  c.as_input()[None, :], 2.0))
    assert terms.total == pytest.approx(0.0, abs=1e-12)
    assert terms.rec == pytest.approx(0.0, abs=1e-12)
    assert terms.embed == terms.commit == pytest.approx(0.0, abs=1e-12)


def test_vq_loss_beta_weighs_only_commit():
    model, Y, X = stable_fixture(40)
    terms, _ = model.loss_and_grads(Y, X)
    beta = model.config.beta
    assert terms.commit == terms.embed  # same value, different gradient routing
    assert terms.total == pytest.approx(terms.rec + (1 + beta) * terms.embed, rel=1e-12)


# -- vq loss: gradient routing and finite differences ----------------------------------

def fd_probe(model, Y, X, name, j, weights, h=FD_H):
    """Central difference of the weighted loss in one parameter coordinate."""
    p = model.params()[name].ravel()
    orig = p[j]
    rec_w, embed_w, commit_w = weights
    p[j] = orig + h
    up, _ = model.loss_and_grads(Y, X, rec_weight=rec_w, embed_weight=embed_w,
                                 commit_weight=commit_w)
    p[j] = orig - h
    down, _ = model.loss_and_grads(Y, X, rec_weight=rec_w, embed_weight=embed_w,
                                   commit_weight=commit_w)
    p[j] = orig
    return (up.total - down.total) / (2 * h)


def test_codebook_gradient_comes_only_from_embed_term():
    model, Y, X = stable_fixture(50)
    # rec + commit active, embed off: codebook gradient must vanish exactly
    grads = model.layout.views(model.loss_and_grads(Y, X, rec_weight=1.0, embed_weight=0.0)[1])
    assert np.all(grads["codebook"] == 0.0)
    # embed alone: codebook gradient matches finite differences of the real
    # loss while the code assignment is stable
    grads = model.layout.views(model.loss_and_grads(Y, X, rec_weight=0.0, embed_weight=1.0,
                                                    commit_weight=0.0)[1].copy())
    idx, _ = quantize_rows(model.encode_rows(Y, X), model.codebook)
    flat = grads["codebook"].ravel()
    D = model.config.latent_dim
    for j in range(model.codebook.size):
        fd = fd_probe(model, Y, X, "codebook", j, (0.0, 1.0, 0.0))
        assert flat[j] == pytest.approx(fd, rel=FD_REL, abs=1e-9), j
    # entries never selected receive exactly zero
    unused = set(range(model.config.codebook_size)) - set(int(k) for k in idx)
    for k in unused:
        assert np.all(grads["codebook"][k] == 0.0)


def test_encoder_gradient_blocked_on_embed_term():
    model, Y, X = stable_fixture(60)
    grads = model.layout.views(model.loss_and_grads(Y, X, rec_weight=0.0, embed_weight=1.0,
                                                    commit_weight=0.0)[1])
    for name, g in grads.items():
        if name != "codebook":
            assert np.all(g == 0.0), name


def test_commit_gradient_reaches_encoder_not_codebook():
    model, Y, X = stable_fixture(70)
    beta = model.config.beta
    grads = model.layout.views(model.loss_and_grads(Y, X, rec_weight=0.0, embed_weight=0.0,
                                                    commit_weight=beta)[1].copy())
    assert np.all(grads["codebook"] == 0.0)
    # decoder is behind the stop-gradient too
    for name, g in grads.items():
        if name.startswith(("decoder.", "fusion_out.")):
            assert np.all(g == 0.0), name
    # encoder-path gradients match finite differences of the real commit
    # loss: with the assignment stable, e_idx acts as the frozen constant
    # that sg[z_q] denotes
    some = 0
    for name in ("recon_encoder.0.W", "cond_encoder.0.W", "fusion_in.0.W"):
        g = grads[name].ravel()
        p = model.params()[name].ravel()
        rng = np.random.default_rng(hash(name) % (2**32))
        for j in rng.choice(p.size, size=6, replace=False):
            fd = fd_probe(model, Y, X, name, int(j), (0.0, 0.0, beta))
            assert g[j] == pytest.approx(fd, rel=FD_REL, abs=1e-9), (name, j)
            some += 1
    assert some > 0


def test_rec_gradients_match_straight_through_surrogate():
    """All non-codebook gradients of the reconstruction term against FD.

    The surrogate fixes the quantisation offset (z_q* - z_e*) at the fixture
    point and decodes z_e + offset, which is exactly the function whose true
    gradient the straight-through estimator reports.
    """
    model, Y, X = stable_fixture(80)
    z_e0 = model.encode_rows(Y, X)
    _, z_q0 = quantize_rows(z_e0, model.codebook)
    offset = z_q0 - z_e0  # frozen

    def surrogate() -> float:
        f_c = model.cond_encoder.forward(X)
        f_y = model.recon_encoder.forward(Y)
        z_e = model.fusion_in.forward(np.concatenate([f_y, f_c], axis=1))
        h = model.fusion_out.forward(np.concatenate([z_e + offset, f_c], axis=1))
        pred = model.decoder.forward(h)
        vals, _ = reconstruction_terms(pred, Y, X, model.config.lambda_rc)
        return float(vals.mean())

    grads = model.layout.views(model.loss_and_grads(Y, X, rec_weight=1.0, embed_weight=0.0,
                                                    commit_weight=0.0)[1])
    assert np.all(grads["codebook"] == 0.0)
    checked = 0
    for name, g in grads.items():
        if name == "codebook":
            continue
        p = model.params()[name].ravel()
        gf = g.ravel()
        rng = np.random.default_rng(checked + 1)
        picks = rng.choice(p.size, size=min(8, p.size), replace=False)
        for j in picks:
            orig = p[j]
            p[j] = orig + FD_H
            up = surrogate()
            p[j] = orig - FD_H
            down = surrogate()
            p[j] = orig
            fd = (up - down) / (2 * FD_H)
            assert gf[j] == pytest.approx(fd, rel=FD_REL, abs=1e-9), (name, j)
            checked += 1
    assert checked >= 40


def test_total_gradient_is_sum_of_term_gradients():
    model, Y, X = stable_fixture(90)
    beta = model.config.beta
    g_total = model.layout.views(model.loss_and_grads(Y, X)[1].copy())
    g_rec = model.layout.views(model.loss_and_grads(Y, X, rec_weight=1.0, embed_weight=0.0,
                                                    commit_weight=0.0)[1].copy())
    g_embed = model.layout.views(model.loss_and_grads(Y, X, rec_weight=0.0, embed_weight=1.0,
                                                      commit_weight=0.0)[1].copy())
    g_commit = model.layout.views(model.loss_and_grads(Y, X, rec_weight=0.0, embed_weight=0.0,
                                                       commit_weight=beta)[1].copy())
    for name in g_total:
        np.testing.assert_allclose(
            g_total[name], g_rec[name] + g_embed[name] + g_commit[name],
            atol=1e-12, err_msg=name)


def test_precomputed_true_rotations_give_the_same_bits():
    # training computes the true rows' rotations once for its whole split and
    # hands each batch its rows of them
    model = ConditionalVQVAE(VQVAEConfig(hidden_width=16), seed=3)
    rng = np.random.default_rng(41)
    Y, X = model_inputs(*fixture_batch(rng, n=40), model.config.target_scale)
    R_split = target_rotations(Y, X)
    for batch in (np.arange(40), rng.permutation(40)[:32], np.array([7])):
        terms, grad = model.loss_and_grads(Y[batch], X[batch])
        grad = grad.copy()
        given_terms, given_grad = model.loss_and_grads(
            Y[batch], X[batch], R_true=R_split[batch])
        assert given_terms == terms
        np.testing.assert_array_equal(given_grad, grad)
        vals, g = reconstruction_terms(Y[batch] + 0.1, Y[batch], X[batch], 0.5)
        given_vals, given_g = reconstruction_terms(Y[batch] + 0.1, Y[batch], X[batch], 0.5,
                                                   R_split[batch])
        np.testing.assert_array_equal(given_vals, vals)
        np.testing.assert_array_equal(given_g, g)


def test_loss_and_grads_overwrites_and_returns_the_models_own_gradient():
    # stale contents of ``grad`` must not leak into a call: every element is
    # written, the codebook's unclaimed entries included
    # (a fresh model, an equal one to reuse, rows): the fixture, then the shipped widths
    cases = [(stable_fixture(110)[0], *stable_fixture(110)),
             (ConditionalVQVAE(seed=0), ConditionalVQVAE(seed=0),
              *model_inputs(*fixture_batch(np.random.default_rng(3), 32), 2.0))]
    for fresh, model, Y, X in cases:
        terms, expected = fresh.loss_and_grads(Y, X)
        model.grad[...] = np.nan
        given_terms, grad = model.loss_and_grads(Y, X)
        assert grad is model.grad and given_terms == terms and same_bits(grad, expected)
        model.loss_and_grads(Y[:2], X[:2])  # leaves another gradient in ``grad``
        again_terms, again = model.loss_and_grads(Y, X)
        assert again is grad and again_terms == terms and same_bits(again, expected)


def test_each_network_writes_its_stretch_of_the_models_gradient():
    model = small_model(7)
    model.grad[...] = np.arange(model.layout.size)  # each network sees its stretch, in order
    start = 0
    for net in (model.recon_encoder, model.cond_encoder, model.fusion_in, model.fusion_out,
                model.decoder):
        np.testing.assert_array_equal(net.grad, np.arange(start, start + net.layout.size))
        start += net.layout.size
    assert start + model.codebook.size == model.layout.size
    rng = np.random.default_rng(8)
    model.grad[...] = np.nan
    for net in (model.recon_encoder, model.fusion_in, model.decoder):
        for n in (5, 1):
            net.forward(rng.normal(size=(n, net.sizes[0])))
            grad, _ = net.backward(rng.normal(size=(n, net.sizes[-1])))
            assert grad is net.grad and np.isfinite(grad).all()
    # the other sections and the codebook keep what they held
    assert np.isnan(model.cond_encoder.grad).all() and np.isnan(model.fusion_out.grad).all()
    assert np.isnan(model.grad[start:]).all()


# -- persistence ----------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model, Y, X = stable_fixture(100)
    path = tmp_path / "model.json"
    digest = model.save(path, metadata={"note": "fixture"})
    loaded, ck = ConditionalVQVAE.load(path)
    assert loaded.config == model.config
    assert ck.sha256 == digest
    assert all(same_bits(loaded.params()[name], p) for name, p in model.params().items())
    assert ck.metadata["note"] == "fixture"
    np.testing.assert_array_equal(loaded.codebook, model.codebook)
    terms_a, _ = model.loss_and_grads(Y, X)
    terms_b, _ = loaded.loss_and_grads(Y, X)
    assert terms_a.total == terms_b.total


def test_params_are_views_of_one_flat_vector():
    model = small_model(5)
    params = model.params()
    assert list(params) == list(model.layout.shapes)
    assert list(params)[-1] == "codebook"
    start = 0
    for name, p in params.items():  # back to back, in key order
        assert p.base is model.flat or p.base is model.flat.base, name
        np.testing.assert_array_equal(p.ravel(), model.flat[start:start + p.size])
        start += p.size
    assert start == model.flat.size
    # the networks and the codebook read the same storage
    model.flat[:] = np.arange(model.flat.size, dtype=float)
    np.testing.assert_array_equal(model.decoder.weights[0], params["decoder.0.W"])
    np.testing.assert_array_equal(model.codebook, params["codebook"])
    params["fusion_in.0.b"][:] = -1.0
    assert np.all(model.fusion_in.biases[0] == -1.0)


def test_adam_names_the_non_finite_parameter_of_the_flat_vector():
    from gazeshift import nets
    model = small_model(6)
    adam = nets.AdamState(1e-3, model.layout)
    before = model.flat.copy()
    grad = np.zeros(model.flat.size)
    grad[model.layout.spans["decoder.2.b"][0].start + 1] = np.inf
    with pytest.raises(nets.NonFiniteGradient) as err:
        nets.adam_step(adam, model.flat, grad)
    assert err.value.name == "decoder.2.b"
    np.testing.assert_array_equal(model.flat, before)
    assert adam.step_count == 0


def test_checkpoint_round_trip_keeps_params_per_key(tmp_path):
    from gazeshift import nets
    model, Y, X = stable_fixture(110)
    adam = nets.AdamState(1e-3, model.layout, 1e-4)
    for _ in range(3):
        _, grad = model.loss_and_grads(Y, X)
        nets.adam_step(adam, model.flat, grad)
    path = tmp_path / "model.json"
    model.save(path)
    loaded, ck = ConditionalVQVAE.load(path)
    assert list(ck.params) == list(model.params())
    for name, p in model.params().items():
        np.testing.assert_array_equal(ck.params[name], p)
        np.testing.assert_array_equal(loaded.params()[name], p)
    np.testing.assert_array_equal(loaded.flat, model.flat)


def test_load_rejects_missing_or_misshapen_params(tmp_path):
    # a missing bias used to keep its initialisation and a short one to broadcast
    model = small_model(4)
    path = tmp_path / "model.json"
    for edit, match in ((lambda p: p.pop("decoder.2.b"), "missing"),
                        (lambda p: p.update({"decoder.0.b": {"shape": [1], "data": [0.5]}}),
                         "shape"),
                        (lambda p: p.update({"decoder.9.b": {"shape": [1], "data": [0.5]}}),
                         "unexpected")):
        model.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc["params"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            ConditionalVQVAE.load(path)


def test_load_rejects_other_checkpoints(tmp_path):
    from gazeshift import nets
    path = tmp_path / "other.json"
    nets.save_checkpoint(path, {"w": np.zeros(2)}, metadata={"model": {"kind": "foo"}})
    with pytest.raises(ValueError):
        ConditionalVQVAE.load(path)
