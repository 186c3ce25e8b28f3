"""Oracles on dense networks: pre-activations for the finite-difference tests,
the allocating forward and backward passes the networks' passes must match,
Adam as whole-array expressions, the checkpoint ``params`` document as one
dict, and a checkpoint writer that spells each number as told."""

from __future__ import annotations

import json

import numpy as np

from gazeshift import nets


def preactivations(net, x) -> list[np.ndarray]:
    """Pre-activation values per layer of ``net`` for ``x``, as rows.

    Recomputed from the weights with the operations of ``forward``.
    Finite-difference tests use this to confirm a fixture keeps clear of
    rectifier kinks, where two-sided differences are meaningless.
    """
    h = np.asarray(x, dtype=float)
    out = []
    for W, b, act in zip(net.weights, net.biases, net.activations):
        z = h @ W + b
        out.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else z
    return out


def forward_reference(net, x):
    """The allocating forward pass ``DenseNetwork.forward`` replaced.

    Returns (output, cache): a new array per layer, ``h @ W + b`` and then
    ``np.maximum(z, 0.0)``; the cache holds the layer inputs and
    pre-activations for :func:`backward_reference`.
    """
    h = np.asarray(x, dtype=float)
    inputs, preacts = [], []
    for W, b, act in zip(net.weights, net.biases, net.activations):
        inputs.append(h)
        z = h @ W + b
        preacts.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else z
    return h, (inputs, preacts)


def backward_reference(net, cache, grad_out):
    """(flat parameter gradient, input gradient) of the allocating backward pass.

    Each rectifier multiplies by the boolean ``preacts > 0``; every product
    is a new array.
    """
    inputs, preacts = cache
    g = np.asarray(grad_out, dtype=float)
    grad = np.empty(net.layout.size)
    for i in range(len(net.weights) - 1, -1, -1):
        if net.activations[i] == "relu":
            g = g * (preacts[i] > 0.0)
        w_span, w_shape = net.layout.spans[f"{i}.W"]
        b_span, b_shape = net.layout.spans[f"{i}.b"]
        np.matmul(inputs[i].T, g, out=grad[w_span].reshape(w_shape))
        np.add.reduce(g, axis=0, out=grad[b_span].reshape(b_shape))
        g = g @ net.weights[i].T
    return grad, g


def adam_whole_array(state: dict, params: np.ndarray, grad: np.ndarray) -> None:
    """Adam with decoupled decay as whole-array expressions: the oracle ``adam_step``
    must match bit for bit. ``state`` holds lr, weight_decay, m, v and t.

    It divides ``m`` by ``bc1`` at every step, also once ``bc1`` is exactly 1.0."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    bc1 = 1.0 - b1**state["t"]
    bc2 = 1.0 - b2**state["t"]
    if state["weight_decay"]:
        params *= 1.0 - state["lr"] * state["weight_decay"]
    m, v = state["m"], state["v"]
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    params -= state["lr"] * (m / bc1) / (np.sqrt(v / bc2) + eps)


def same_bits(a, b) -> bool:
    """Equal shapes and bit patterns: tells -0.0 from 0.0 and compares NaNs."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.int64),
                                                 np.ascontiguousarray(b).view(np.int64))


def encode_params(params: dict) -> dict:
    """The ``params`` document of a checkpoint of ``params``, whole: one
    ``{"shape", "data"}`` entry per parameter, in order."""
    return {name: {"shape": list(np.shape(p)), "data": np.asarray(p, dtype=float).ravel().tolist()}
            for name, p in params.items()}


# Number spellings other than the repr that ``save_checkpoint`` writes.
SPELLINGS = {
    "repr": repr,
    "%.17g": lambda v: "%.17g" % v,  # 0.1 -> 0.10000000000000001, 1.0 -> 1, -0.0 -> -0
    "%.17e": lambda v: "%.17e" % v,  # a float token, never repr
    "integers": lambda v: str(int(v)) if v.is_integer() else repr(v),
}


def write_spelled(path, params: dict, spell, metadata: dict | None = None) -> None:
    """A checkpoint of ``params`` whose every value is written as ``spell(value)``."""
    entries = ", ".join(
        f'{json.dumps(name)}: {{"shape": {json.dumps(list(np.shape(p)))}, '
        f'"data": [{", ".join(spell(v) for v in np.ravel(p).tolist())}]}}'
        for name, p in params.items())
    path.write_text(f'{{"format": {json.dumps(nets.CHECKPOINT_FORMAT)}, '
                    f'"version": {nets.CHECKPOINT_VERSION}, "params": {{{entries}}}, '
                    f'"metadata": {json.dumps(metadata or {})}}}\n', encoding="utf-8")
