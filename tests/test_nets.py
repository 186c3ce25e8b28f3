"""Dense-network building blocks against finite-difference and closed-form oracles."""

from __future__ import annotations

import hashlib
import json
import math
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazeshift import nets
from gazeshift.nets import AdamState, DenseNetwork, NonFiniteGradient
from gazeshift.prior import ConditionalPrior
from gazeshift.vqvae import ConditionalVQVAE
from json_numbers import bad_json_numbers
from net_oracles import (SPELLINGS, adam_whole_array, backward_reference, encode_params,
                         forward_reference, preactivations, same_bits, write_spelled)

FD_H = 1e-5
FD_REL = 1e-4
# two-sided differences are meaningless on top of a rectifier kink; every
# finite-difference fixture must keep its pre-activations at least this far
# from zero
KINK_MARGIN = 1e-3


def kink_safe_input(net: DenseNetwork, rng: np.random.Generator) -> np.ndarray:
    for _ in range(100):
        x = rng.normal(size=(1, net.sizes[0]))
        margin = min(
            (np.abs(z).min() for z, act in zip(preactivations(net, x), net.activations)
             if act == "relu"),
            default=1.0,
        )
        if margin > KINK_MARGIN:
            return x
    raise AssertionError("could not find a kink-safe input")


def loss_and_grads(net: DenseNetwork, x: np.ndarray, w: np.ndarray):
    """Scalar probe loss sum(w * net(x)) and its analytic parameter grads."""
    out = net.forward(x)
    grads, grad_in = net.backward(w)
    return float(np.sum(w * out)), net.layout.views(grads), grad_in


# -- forward -------------------------------------------------------------------

def test_forward_zero_net_is_zero_map():
    net = DenseNetwork([np.zeros((3, 2))], [np.zeros(2)], ["identity"])
    np.testing.assert_array_equal(net.forward(np.array([[1.0, -2.0, 3.0]])), np.zeros((1, 2)))


def test_forward_identity_layer():
    net = DenseNetwork([np.eye(4)], [np.zeros(4)], ["identity"])
    x = np.array([[0.5, -1.0, 2.0, 0.0]])
    np.testing.assert_array_equal(net.forward(x), x)


def test_forward_matches_hand_computed_chain():
    rng = np.random.default_rng(11)
    net = DenseNetwork.create([3, 4, 2], rng, ["relu", "identity"])
    x = rng.normal(size=(1, 3))
    expected = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
    expected = expected @ net.weights[1] + net.biases[1]
    np.testing.assert_allclose(net.forward(x), expected, atol=1e-15)


def test_forward_batch_rows_match_single():
    rng = np.random.default_rng(12)
    net = DenseNetwork.create([4, 8, 3], rng)
    X = rng.normal(size=(5, 4))
    batch = net.forward(X)
    for i in range(5):
        np.testing.assert_allclose(net.forward(X[i:i + 1]), batch[i:i + 1], atol=1e-15)


def test_forward_rejects_wrong_width():
    net = DenseNetwork.create([3, 2], np.random.default_rng(0))
    # a wrong width, and inputs that are not (n, d) rows: one vector, a 3-D stack
    for x in (np.zeros((1, 4)), np.zeros(3), np.zeros((2, 1, 3))):
        with pytest.raises(ValueError, match="is not rows of width 3"):
            net.forward(x)


def test_create_same_seed_identical():
    a = DenseNetwork.create([5, 7, 2], np.random.default_rng(42))
    b = DenseNetwork.create([5, 7, 2], np.random.default_rng(42))
    for Wa, Wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(Wa, Wb)


def test_create_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DenseNetwork.create([4], np.random.default_rng(0))
    with pytest.raises(ValueError):
        DenseNetwork([np.zeros((2, 2))], [np.zeros(2)], ["sigmoid"])


# -- backward ------------------------------------------------------------------

def test_backward_identity_passes_gradient_through():
    net = DenseNetwork([np.eye(3)], [np.zeros(3)], ["identity"])
    net.forward(np.array([[1.0, 2.0, 3.0]]))
    upstream = np.array([[0.3, -0.7, 0.1]])
    _, grad_in = net.backward(upstream)
    np.testing.assert_array_equal(grad_in, upstream)


def test_backward_zero_upstream_zero_grads():
    rng = np.random.default_rng(13)
    net = DenseNetwork.create([3, 5, 2], rng)
    net.forward(rng.normal(size=(1, 3)))
    grads, grad_in = net.backward(np.zeros((1, 2)))
    assert all(np.all(g == 0) for g in net.layout.views(grads).values())
    np.testing.assert_array_equal(grad_in, np.zeros((1, 3)))


def test_backward_requires_forward():
    net = DenseNetwork.create([2, 2], np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        net.backward(np.zeros((1, 2)))


@pytest.mark.parametrize("sizes,acts", [
    ([3, 4, 2], ["relu", "identity"]),
    ([5, 8, 8, 3], ["relu", "relu", "identity"]),
    ([2, 6, 1], ["relu", "identity"]),
    ([4, 4], ["identity"]),
])
def test_backward_matches_finite_differences(sizes, acts):
    rng = np.random.default_rng(sum(sizes))
    net = DenseNetwork.create(sizes, rng, acts)
    x = kink_safe_input(net, rng)
    w = rng.normal(size=(1, sizes[-1]))
    _, grads, grad_in = loss_and_grads(net, x, w)
    params = net.params()
    for name, p in params.items():
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + FD_H
            up = float(np.sum(w * net.forward(x)))
            flat[j] = orig - FD_H
            down = float(np.sum(w * net.forward(x)))
            flat[j] = orig
            fd = (up - down) / (2 * FD_H)
            analytic = grads[name].ravel()[j]
            assert analytic == pytest.approx(fd, rel=FD_REL, abs=1e-8), (name, j)
    # input gradient too
    for j in range(x.size):
        step = np.zeros_like(x)
        step[0, j] = FD_H
        fd = (float(np.sum(w * net.forward(x + step)))
              - float(np.sum(w * net.forward(x - step)))) / (2 * FD_H)
        assert grad_in[0, j] == pytest.approx(fd, rel=FD_REL, abs=1e-8)


def test_backward_sums_over_batch_rows():
    rng = np.random.default_rng(14)
    net = DenseNetwork.create([3, 4, 2], rng)
    X = rng.normal(size=(6, 3))
    W_up = rng.normal(size=(6, 2))
    net.forward(X)
    batch_grads = net.layout.views(net.backward(W_up)[0].copy())
    summed = None
    for i in range(6):
        net.forward(X[i:i + 1])
        g = net.layout.views(net.backward(W_up[i:i + 1])[0])
        if summed is None:
            summed = {k: v.copy() for k, v in g.items()}
        else:
            for k in summed:
                summed[k] += g[k]
    for k in summed:
        np.testing.assert_allclose(batch_grads[k], summed[k], atol=1e-12)


# -- passes against the allocating oracle ------------------------------------------

# The stage-1 networks at their shipped widths, and the prior's.
SHIPPED_NETS = [
    ([5, 64, 64], ["relu", "relu"]),
    ([8, 64, 64], ["relu", "relu"]),
    ([128, 8], ["identity"]),
    ([72, 64], ["identity"]),
    ([64, 64, 64, 5], ["relu", "relu", "identity"]),
    ([8, 64, 64, 10], ["relu", "relu", "identity"]),
]


def random_bias_net(sizes, acts, seed):
    """A network whose biases are random, so that zero input rows give both signs."""
    rng = np.random.default_rng(seed)
    net = DenseNetwork.create(sizes, rng, acts)
    net.flat[...] = rng.normal(scale=0.3, size=net.layout.size)
    return net


def rows_for(net, n, rng):
    """n input rows; some are exact zeros, so a pre-activation equals its bias."""
    x = rng.normal(size=(n, net.sizes[0]))
    x[::3] = 0.0
    return x


def check_pass(net, x, g, input_grad=True):
    """Forward and backward of ``net`` give the oracle's bits; returns the output."""
    out = net.forward(x)
    ref_out, cache = forward_reference(net, x)
    assert same_bits(out, ref_out)
    grad, grad_in = net.backward(g, input_grad=input_grad)
    ref_grad, ref_in = backward_reference(net, cache, g)
    assert same_bits(grad, ref_grad)
    if input_grad:
        assert same_bits(grad_in, ref_in)
    else:
        assert grad_in is None
    return out


@pytest.mark.parametrize("sizes,acts", SHIPPED_NETS)
@pytest.mark.parametrize("n", [1, 2, 4, 32, 161, 644])  # 644: record_codes' pass
def test_workspace_passes_match_allocating_oracle_bit_for_bit(sizes, acts, n):
    net = random_bias_net(sizes, acts, seed=n + sum(sizes))
    rng = np.random.default_rng(n)
    for _ in range(2):  # the second pass overwrites the first one's gradient
        check_pass(net, rows_for(net, n, rng), rng.normal(size=(n, sizes[-1])))
    wide = rng.normal(size=(n, sizes[0] + 3))
    check_pass(net, wide[:, 1:-2], rng.normal(size=(n, sizes[-1])))  # a column-sliced input
    check_pass(net, rows_for(net, n, rng)[:1], rng.normal(size=(1, sizes[-1])))  # then one row


def test_workspace_interleaved_row_counts_match_oracle():
    net = random_bias_net([64, 64, 64, 5], ["relu", "relu", "identity"], seed=3)
    rng = np.random.default_rng(4)
    kept = []
    for n in (32, 161, 32, 4, 161, 1, 32):
        x = rows_for(net, n, rng)
        kept.append((net.forward(x), forward_reference(net, x)[0]))
    # the cache is the last forward's, whatever row counts came before
    x = rows_for(net, 32, rng)
    net.forward(rows_for(net, 161, rng))
    check_pass(net, x, rng.normal(size=(32, 5)))
    for out, ref in kept:  # no later pass wrote into an array forward returned
        assert same_bits(out, ref)


def test_backward_twice_on_one_cache_gives_the_same_bits():
    net = random_bias_net([5, 64, 64], ["relu", "relu"], seed=5)
    rng = np.random.default_rng(6)
    x, g = rows_for(net, 32, rng), rng.normal(size=(32, 64))
    net.forward(x)
    ref_grad, ref_in = backward_reference(net, forward_reference(net, x)[1], g)
    first, first_in = net.backward(g)
    second, second_in = net.backward(g)
    for grad, grad_in in ((first, first_in), (second, second_in)):
        assert same_bits(grad, ref_grad) and same_bits(grad_in, ref_in)
    assert not np.shares_memory(first_in, second_in)


@pytest.mark.parametrize("n", [1, 32, 161])
def test_backward_overwrites_and_returns_the_networks_own_gradient(n):
    # stale contents of ``grad`` must not leak into a pass: every element is
    # written, whatever the last pass left there
    net = random_bias_net([64, 64, 64, 5], ["relu", "relu", "identity"], seed=13)
    rng = np.random.default_rng(14)
    for input_grad in (True, False):
        net.grad[...] = np.nan
        x, g = rows_for(net, n, rng), rng.normal(size=(n, 5))
        net.forward(x)
        ref_grad, _ = backward_reference(net, forward_reference(net, x)[1], g)
        grad, _ = net.backward(g, input_grad=input_grad)
        assert grad is net.grad and same_bits(grad, ref_grad)
        again, _ = net.backward(g, input_grad=input_grad)
        assert again is grad and same_bits(again, ref_grad)


@pytest.mark.parametrize("sizes,acts", SHIPPED_NETS)
def test_backward_without_input_gradient_keeps_the_parameter_gradient(sizes, acts):
    net = random_bias_net(sizes, acts, seed=7)
    rng = np.random.default_rng(8)
    for n in (1, 32):
        check_pass(net, rows_for(net, n, rng), rng.normal(size=(n, sizes[-1])), input_grad=False)


def test_forward_output_survives_a_later_forward_of_the_same_rows():
    net = random_bias_net([8, 64, 64, 10], ["relu", "relu", "identity"], seed=9)
    rng = np.random.default_rng(10)
    for n in (1, 32):
        first = net.forward(rng.normal(size=(n, 8)))
        kept = first.copy()
        second = net.forward(rng.normal(size=(n, 8)))
        assert not np.shares_memory(first, second)
        assert same_bits(first, kept)


def test_rectifier_masks_match_oracle_on_non_finite_values():
    # a NaN pre-activation is not > 0, in the cached output as in z; an
    # infinite upstream gradient times a closed mask is NaN, not 0
    net = random_bias_net([5, 64, 64], ["relu", "relu"], seed=11)
    rng = np.random.default_rng(12)
    x = rows_for(net, 32, rng)
    x[5, 2] = np.nan
    g = rng.normal(size=(32, 64))
    g[0, :] = np.inf  # row 0 is all zeros, so some of its outputs are masked
    with np.errstate(invalid="ignore"):
        check_pass(net, x, g)


# -- adam ----------------------------------------------------------------------

def test_adam_zero_grad_zero_decay_is_identity():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState(1e-3, nets.Layout.of(params))
    nets.adam_step(state, params["w"], np.zeros(2))
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])


def test_adam_single_step_scalar():
    params = {"w": np.array([1.0])}
    state = AdamState(1e-3, nets.Layout.of(params))
    nets.adam_step(state, params["w"], np.array([1.0]))
    delta = params["w"][0] - 1.0
    assert delta < 0  # moves against the gradient
    assert abs(delta) <= 1e-3 * (1 + 1e-6)


def test_adam_bias_correction_step_size_independent_of_scale():
    # after one step from zeroed moments the update is lr * g/(|g| + eps),
    # i.e. lr in magnitude once |g| dwarfs eps
    for scale in (1e-3, 1.0, 1e6):
        params = {"w": np.array([0.0])}
        state = AdamState(1e-3, nets.Layout.of(params))
        nets.adam_step(state, params["w"], np.array([scale]))
        assert abs(params["w"][0]) == pytest.approx(1e-3, rel=1e-4)


def test_adam_decoupled_decay_closed_form():
    params = {"w": np.array([2.0])}
    state = AdamState(1e-3, nets.Layout.of(params), 0.1)
    nets.adam_step(state, params["w"], np.array([0.0]))
    assert params["w"][0] == pytest.approx(2.0 * (1 - 1e-3 * 0.1), abs=1e-15)


def test_adam_rejects_non_finite_gradient_without_touching_params():
    flat = np.array([1.0, 2.0])
    params = {"a": flat[:1], "b": flat[1:]}
    state = AdamState(1e-3, nets.Layout.of(params))
    with pytest.raises(NonFiniteGradient) as err:
        nets.adam_step(state, flat, np.array([0.5, np.nan]))
    assert err.value.name == "b"
    np.testing.assert_array_equal(params["a"], [1.0])  # whole step rejected
    np.testing.assert_array_equal(params["b"], [2.0])
    assert state.step_count == 0


def test_adam_rejects_missing_or_misshapen_gradient():
    params = {"w": np.zeros((2, 2))}
    state = AdamState(1e-3, nets.Layout.of(params))
    # a flat gradient has no keys to miss: a missing one is a short vector
    with pytest.raises(ValueError):
        nets.adam_step(state, params["w"].ravel(), np.zeros(0))
    with pytest.raises(ValueError):
        nets.adam_step(state, params["w"].ravel(), np.zeros(3))


def test_adam_matches_reference_trajectory():
    # independent reference implementation of Adam + decoupled decay
    rng = np.random.default_rng(15)
    p0 = rng.normal(size=4)
    grads = [rng.normal(size=4) for _ in range(5)]
    lr, wd, b1, b2, eps = 1e-2, 1e-2, 0.9, 0.999, 1e-8

    ref = p0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        ref *= 1 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

    params = {"w": p0.copy()}
    state = AdamState(lr, nets.Layout.of(params), wd)
    for g in grads:
        nets.adam_step(state, params["w"], g)
    np.testing.assert_allclose(params["w"], ref, atol=1e-15)
    assert state.step_count == 5


def test_adam_matches_whole_array_expressions_bit_for_bit():
    rng = np.random.default_rng(16)
    p0 = rng.normal(size=1000)
    params = {"a": p0[:600].copy(), "b": p0[600:].copy()}
    flat = np.concatenate(list(params.values()))
    state = AdamState(1e-3, nets.Layout.of(params), 1e-4)
    ref_params = p0.copy()
    ref = {"lr": 1e-3, "weight_decay": 1e-4, "m": np.zeros(1000), "v": np.zeros(1000), "t": 0}
    for step in range(12):
        if step == 6:  # a schedule milestone
            state.lr = ref["lr"] = 5e-4
        g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=1000)
        g[rng.integers(0, 1000, size=50)] = 0.0
        nets.adam_step(state, flat, g)
        adam_whole_array(ref, ref_params, g)
        np.testing.assert_array_equal(flat, ref_params)
        np.testing.assert_array_equal(state.m, ref["m"])
        np.testing.assert_array_equal(state.v, ref["v"])
    assert state.step_count == 12


def test_adam_matches_whole_array_expressions_across_the_end_of_bias_correction():
    # 1 - 0.9**t rounds to exactly 1.0 from step 356 on, where adam_step
    # skips dividing m by it: steps 350-370 cross that step with moments,
    # decay and a learning-rate change
    assert 1.0 - 0.9**355 != 1.0 and 1.0 - 0.9**356 == 1.0
    rng = np.random.default_rng(17)
    p0 = rng.normal(size=1000)
    m0, v0 = rng.normal(scale=1e-2, size=1000), rng.uniform(0.0, 1e-3, size=1000)
    flat = p0.copy()
    state = AdamState(1e-3, nets.Layout.of({"w": flat}), 1e-4)
    state.m[...], state.v[...], state.step_count = m0, v0, 349
    ref_params = p0.copy()
    ref = {"lr": 1e-3, "weight_decay": 1e-4, "m": m0.copy(), "v": v0.copy(), "t": 349}
    for step in range(350, 371):
        if step == 360:  # a schedule milestone
            state.lr = ref["lr"] = 5e-4
        g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=1000)
        g[rng.integers(0, 1000, size=50)] = 0.0
        nets.adam_step(state, flat, g)
        adam_whole_array(ref, ref_params, g)
        np.testing.assert_array_equal(flat, ref_params)
        np.testing.assert_array_equal(state.m, ref["m"])
        np.testing.assert_array_equal(state.v, ref["v"])
    assert state.step_count == 370


def test_adam_steps_when_finite_elements_overflow_their_sum():
    # the sum is inf although every element is finite: the element scan finds
    # nothing, and the step goes ahead
    params = {"w": np.array([1.0, -1.0])}
    state = AdamState(1e-3, nets.Layout.of(params))
    grad = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):  # here, and in v = ((1 - beta2) * g) * g
        assert np.sum(grad) == np.inf
        nets.adam_step(state, params["w"], grad)
    assert state.step_count == 1
    np.testing.assert_array_equal(state.m, (1.0 - 0.9) * grad)
    assert np.isfinite(params["w"]).all()


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                         ids=["nan", "+inf", "-inf", "inf-inf"])
def test_adam_non_finite_gradient_leaves_everything_untouched(bad):
    flat = np.array([1.0, 2.0, 3.0, 4.0])
    params = {"a": flat[:1], "b": flat[1:3], "c": flat[3:]}
    state = AdamState(1e-3, nets.Layout.of(params), 1e-2)
    nets.adam_step(state, flat, np.array([0.1, -0.2, 0.3, -0.4]))  # non-zero moments
    before = flat.copy(), state.m.copy(), state.v.copy()
    grad = np.array([0.5, 0.5, 0.5, 0.5])
    grad[1:1 + len(bad)] = bad  # the first non-finite element lies in "b"
    with pytest.raises(NonFiniteGradient) as err:
        nets.adam_step(state, flat, grad)
    assert err.value.name == "b"
    for now, then in zip((flat, state.m, state.v), before):
        np.testing.assert_array_equal(now, then)
    assert state.step_count == 1


# -- checkpoints ---------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(16)
    net = DenseNetwork.create([3, 5, 2], rng)
    params = net.params()
    state = AdamState(1e-3, nets.Layout.of(params), 1e-4)
    # a few steps so the weights leave their initialisation
    for _ in range(3):
        net.forward(rng.normal(size=(4, 3)))
        grad, _ = net.backward(rng.normal(size=(4, 2)))
        nets.adam_step(state, net.flat, grad)
    path = tmp_path / "net.json"
    digest = nets.save_checkpoint(path, params, metadata={"epoch": 3})
    ck = nets.load_checkpoint(path)
    assert ck.metadata == {"epoch": 3}
    for name in params:
        np.testing.assert_array_equal(ck.params[name], params[name])
    # the loaded arrays write the same bytes again
    assert nets.save_checkpoint(tmp_path / "again.json", ck.params, ck.metadata) == digest


@pytest.mark.parametrize("make", [ConditionalVQVAE, ConditionalPrior], ids=["vqvae", "prior"])
def test_checkpoint_bytes_are_those_of_one_whole_document_dump(tmp_path, make):
    # the file is the bytes of json.dumps(doc) + "\n", key order and spelling included
    model = make()
    rng = np.random.default_rng(22)
    model.set_params({name: rng.normal(size=p.shape) for name, p in model.params().items()})
    metadata = {"stage": 1, "best": {"epoch": 3, "val_eye_mgd_deg": 1.25},
                "note": "caf\u00e9 \"q\"", "none": None, "list": [1.5, -0.0, 1e-300]}
    params = dict(model.params(), **{"\u00e9 \"odd\" name": np.array([[-0.0, 2.5e-308]])})
    path = tmp_path / "model.json"
    nets.save_checkpoint(path, params, metadata=metadata)
    doc = {"format": nets.CHECKPOINT_FORMAT, "version": nets.CHECKPOINT_VERSION,
           "params": encode_params(params), "metadata": metadata}
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode("utf-8")
    model.save(path, metadata=metadata)
    doc = {"format": nets.CHECKPOINT_FORMAT, "version": nets.CHECKPOINT_VERSION,
           "params": encode_params(model.params()),
           "metadata": nets.load_checkpoint(path).metadata}
    assert doc["metadata"]["note"] == metadata["note"]
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode("utf-8")
    nets.save_checkpoint(path, {})
    assert path.read_text(encoding="utf-8") == json.dumps(
        {"format": nets.CHECKPOINT_FORMAT, "version": nets.CHECKPOINT_VERSION,
         "params": {}, "metadata": {}}) + "\n"


def test_checkpoint_holds_only_what_a_load_uses(tmp_path):
    net = DenseNetwork.create([3, 5, 2], np.random.default_rng(20))
    path = tmp_path / "net.json"
    nets.save_checkpoint(path, net.params(), metadata={"epoch": 1})
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"format", "version", "params", "metadata"}
    assert doc["version"] == nets.CHECKPOINT_VERSION == 1


def test_checkpoint_with_optimizer_entry_is_refused(tmp_path):
    # earlier builds stored the Adam moments beside the weights; no code
    # reads them, so the key is unknown and such a file does not load
    net = DenseNetwork.create([3, 5, 2], np.random.default_rng(21))
    path = tmp_path / "net.json"
    nets.save_checkpoint(path, net.params(), metadata={"epoch": 2})
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert "optimizer" not in doc
    moments = encode_params({k: np.zeros_like(v) for k, v in net.params().items()})
    doc["optimizer"] = {"lr": 1e-3, "weight_decay": 1e-4, "beta1": 0.9, "beta2": 0.999,
                        "eps": 1e-8, "step_count": 2, "m": moments, "v": moments}
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(doc), encoding="utf-8")
    assert nets.load_checkpoint(path).metadata == {"epoch": 2}
    with pytest.raises(ValueError, match=r"legacy.json: unknown checkpoint fields: \['optimizer"):
        nets.load_checkpoint(legacy)


def test_params_and_gradients_share_one_flat_layout():
    rng = np.random.default_rng(18)
    net = DenseNetwork.create([3, 5, 2], rng)
    params = net.params()
    assert list(params) == ["0.W", "0.b", "1.W", "1.b"]
    for name, p in params.items():
        assert np.shares_memory(p, net.flat), name
        start = net.layout.spans[name][0].start
        np.testing.assert_array_equal(p.ravel(), net.flat[start:start + p.size])
    params["1.b"][:] = 7.0
    assert np.all(net.biases[1] == 7.0)
    net.forward(rng.normal(size=(4, 3)))
    net.grad[...] = np.nan
    grad, _ = net.backward(rng.normal(size=(4, 2)))
    assert grad is net.grad and np.all(np.isfinite(grad))


def test_set_params_requires_exact_keys_and_shapes():
    rng = np.random.default_rng(17)
    net = DenseNetwork.create([3, 5, 2], rng)
    before = {k: v.copy() for k, v in net.params().items()}
    good = {k: np.full_like(v, 0.5) for k, v in before.items()}
    missing = {k: v for k, v in good.items() if k != "1.b"}
    short = dict(good, **{"0.b": np.array([0.5])})  # would broadcast
    extra = dict(good, **{"2.W": np.zeros((2, 2))})
    for bad, match in ((missing, "missing"), (short, "shape"), (extra, "unexpected")):
        with pytest.raises(ValueError, match=match):
            net.set_params(bad)
        for k, v in net.params().items():  # a refused set touches nothing
            np.testing.assert_array_equal(v, before[k])
    net.set_params(good)
    assert all(np.all(v == 0.5) for v in net.params().values())


def test_checkpoint_write_failing_midway_keeps_previous_file(tmp_path):
    net = DenseNetwork.create([3, 5, 2], np.random.default_rng(19))
    path = tmp_path / "net.json"
    nets.save_checkpoint(path, net.params(), metadata={"epoch": 1})
    before = path.read_bytes()
    net.flat[:] = 0.0
    # the metadata does not serialise, so the write fails before the file is replaced
    with pytest.raises(TypeError):
        nets.save_checkpoint(path, net.params(), metadata={"epoch": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["net.json"]


def test_checkpoint_file_gets_plain_open_permissions(tmp_path):
    # the temporary file renamed into place must not be owner-only
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    path = tmp_path / "net.json"
    nets.save_checkpoint(path, {"w": np.zeros(2)})
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        nets.load_checkpoint(path)
    path.write_text('{"format": "gazeshift-checkpoint", "version": 99}')
    with pytest.raises(ValueError):
        nets.load_checkpoint(path)


# -- a checkpoint's identity: the SHA-256 of its bytes ------------------------------

# Values whose repr is short, long, signed, subnormal or in exponent form.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                  1e-5, 1e-7, 0.1, 1.0, -3.0, 1e16, 1e22, 123456789012345678.0,
                  1.7976931348623157e308, -1e300, 4.9406564584124654e-310]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)


@st.composite
def param_dicts(draw):
    names = draw(st.lists(st.text(max_size=6), max_size=4, unique=True))
    params = {}
    for name in names:
        shape = draw(st.lists(st.integers(0, 3), max_size=3))
        data = draw(st.lists(finite_floats, min_size=math.prod(shape), max_size=math.prod(shape)))
        params[name] = np.array(data, dtype=float).reshape(shape)
    return params


@settings(max_examples=200, deadline=None)
@given(param_dicts())
@example({"w": np.array(SPECIAL_FLOATS)})
@example({})
@example({"\u00e9 \"q\"": np.zeros((2, 0)), "s": np.array(1.5), "m": np.array([[1e16, -0.0]])})
def test_saved_checkpoint_sha256_is_that_of_its_bytes(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.json"
        digest = nets.save_checkpoint(path, params, metadata={"note": 0.1})
        written = path.read_bytes()
        ck = nets.load_checkpoint(path)
    assert digest == ck.sha256 == hashlib.sha256(written).hexdigest()
    assert ck.metadata == {"note": 0.1}  # metadata floats stay floats
    assert list(ck.params) == list(params)
    assert all(same_bits(ck.params[name], p) for name, p in params.items())


@settings(max_examples=200, deadline=None)
@given(param_dicts(), st.sampled_from(sorted(SPELLINGS)))
@example({"w": np.array(SPECIAL_FLOATS)}, "%.17g")
@example({"w": np.array([[1.0, 2.5], [-0.0, 3.0]])}, "integers")
def test_respelled_checkpoint_loads_equal_values_under_its_own_sha256(params, spelling):
    # The digest is of the bytes, not the values: a file spelled as
    # save_checkpoint spells it (repr) is the saved one, and a file spelled
    # otherwise is another checkpoint that loads the same values.
    with tempfile.TemporaryDirectory() as tmp:
        saved, spelled = Path(tmp) / "saved.json", Path(tmp) / "spelled.json"
        digest = nets.save_checkpoint(saved, params)
        write_spelled(spelled, params, SPELLINGS[spelling])
        written = spelled.read_bytes()
        same_bytes = written == saved.read_bytes()
        ck = nets.load_checkpoint(spelled)
    assert ck.sha256 == hashlib.sha256(written).hexdigest()
    assert (ck.sha256 == digest) == same_bytes
    assert same_bytes or spelling != "repr"
    for name, p in params.items():
        np.testing.assert_array_equal(ck.params[name], p)  # "integers" spells -0.0 as 0


def _write_checkpoint(path, data, shape) -> None:
    """A checkpoint whose parameter ``w`` holds the JSON texts ``data`` and ``shape``."""
    path.write_text('{"format": "gazeshift-checkpoint", "version": 1, '
                    f'"params": {{"ok": {{"shape": [1], "data": [0.5]}}, '
                    f'"w": {{"shape": {shape}, "data": {data}}}}}}}', encoding="utf-8")


def test_load_checkpoint_reads_and_parses_the_file_once(tmp_path, monkeypatch):
    path = tmp_path / "ck.json"
    digest = nets.save_checkpoint(path, {"w": np.array([0.1, -2.0])})
    parses, real_loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: parses.append(k) or real_loads(*a, **k))
    opens, real_open = [], open
    monkeypatch.setattr("builtins.open", lambda *a, **k: opens.append(a) or real_open(*a, **k))
    ck = nets.load_checkpoint(path)
    assert opens == [(path, "rb")]
    assert parses == [{}]
    assert ck.sha256 == digest


@settings(max_examples=200, deadline=None)
@given(bad_json_numbers(), st.integers(0, 2))
@example(True, 0)
@example("0.5", 1)
@example(None, 2)
def test_checkpoint_data_entries_must_be_json_numbers(value, at):
    # config.finite_float's rule: a bool, a numeric string or null is not
    # read as a number, and a huge int or a non-finite float is not finite
    data = [0.5, -1.25, 2.0]
    data[at] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.json"
        _write_checkpoint(path, json.dumps(data), "[3]")
        with pytest.raises(ValueError) as raised:
            nets.load_checkpoint(path)
    assert str(raised.value).startswith(f"{path}: parameter 'w' "), raised.value


@pytest.mark.parametrize("data, shape, refused", [
    ('"1.5"', "[]", "'1.5'"),
    ("null", "[]", "None"),
    ("[[1.5], [2.5]]", "[2, 1]", "[1.5]"),
    ('{"0": 1.5}', "[1]", "{'0': 1.5}"),
])
def test_checkpoint_data_must_be_one_flat_list(tmp_path, data, shape, refused):
    path = tmp_path / "ck.json"
    _write_checkpoint(path, data, shape)
    with pytest.raises(ValueError) as raised:
        nets.load_checkpoint(path)
    # a nested list is refused at its first entry, anything else as a whole
    where, rule = ("data[0]", "a finite number") if data.startswith("[") else (
        "'data'", "a list of finite numbers")
    assert str(raised.value) == f"{path}: parameter 'w' field {where} must be {rule}, got {refused}"
