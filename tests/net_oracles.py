"""Oracles on dense networks shared by the finite-difference tests."""

from __future__ import annotations

import numpy as np


def preactivations(net, x) -> list[np.ndarray]:
    """Pre-activation values per layer of ``net`` for ``x``, as rows.

    Recomputed from the weights with the operations of ``forward``.
    Finite-difference tests use this to confirm a fixture keeps clear of
    rectifier kinks, where two-sided differences are meaningless.
    """
    h = np.atleast_2d(np.asarray(x, dtype=float))
    out = []
    for W, b, act in zip(net.weights, net.biases, net.activations):
        z = h @ W + b
        out.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else z
    return out
