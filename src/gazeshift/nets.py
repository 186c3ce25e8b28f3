"""Dense networks with explicit reverse-mode gradients.

Deliberately minimal: affine layers with rectifier or identity
activations, a hand-written backward pass, Adam with decoupled weight
decay, and versioned JSON checkpoints. Everything is plain float64 numpy
so that a fixed seed reproduces training bit for bit and checkpoints
round-trip exactly.

A model keeps all of its parameters back to back in one flat float64
vector; a :class:`Layout` names the stretches of it (``"0.W"``, ``"0.b"``,
...). ``params()`` returns named views into that vector, gradients and
the Adam moments are flat vectors in the same layout (an :class:`AdamState`
holds the model's own ``layout``), and the optimizer updates the whole
vector in place with a few whole-array operations. The moments live only
in memory while a stage trains: a checkpoint holds the weights and their
metadata, which is all a load uses. A model's config goes into
``metadata["model"]`` through ``save_model`` and comes back through
``load_model``; ``config.check_object`` checks every object of a checkpoint.

Each ``DenseNetwork`` multiplies with ``np.dot``, which gives the bits
of ``@`` (``np.matmul``) without its per-call dispatch. Its passes
allocate their activations, masks and input gradients as the plain
expressions would. It owns one gradient vector, laid out like its
parameters and bound beside them by ``bind``, and every ``backward``
overwrites it: a caller that keeps a gradient across passes copies it.
``adam_step`` checks the gradient with one element-wise ``np.isfinite``;
it runs the update's per-element expressions, in their usual operand
order, through two scratch vectors its :class:`AdamState` owns, so a
step allocates nothing but that check's mask. Its rates are the fixed
``BETA1``, ``BETA2`` and ``EPS``. Once the first moment's bias
correction ``1 - BETA1**t`` has rounded to exactly 1.0 (from step 356),
the step skips its division by it, which would leave every bit as it is.

A checkpoint's identity is the SHA-256 of its bytes (``atomic``):
``save_checkpoint`` writes the text of one ``json.dumps`` of the whole
document and returns the digest of those bytes, and ``load_checkpoint``
returns the digest of the bytes it read, so a file equal in value but
spelled otherwise is another checkpoint.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields

import numpy as np

from .atomic import read_text, write_text
from .config import Schema, check_object, parse_json

CHECKPOINT_FORMAT = "gazeshift-checkpoint"
CHECKPOINT_VERSION = 1
# A checkpoint and each params entry under ``config.check_object``.
CHECKPOINT_SCHEMA = Schema({"format": "str", "version": "int", "params": "dict"},
                           {"metadata": "dict"})
PARAM_SCHEMA = Schema({"shape": "tuple", "data": "list[float]"})

_ACTIVATIONS = ("relu", "identity")
# Adam's moment decay rates and epsilon: Kingma & Ba's (2015) defaults.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class NonFiniteGradient(ValueError):
    """A gradient contained NaN or inf; carries the offending parameter name."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient for parameter {name!r}")
        self.name = name


class Layout:
    """Names and shapes of parameters stored back to back in one flat vector."""

    def __init__(self, shapes):
        self.shapes = {name: tuple(shape) for name, shape in shapes}
        # name -> (slice of the flat vector, shape): flat[sl].reshape(shape)
        # is the parameter's view.
        self.spans = {}
        size = 0
        for name, shape in self.shapes.items():
            self.spans[name] = (slice(size, size + math.prod(shape)), shape)
            size += math.prod(shape)
        self.size = size

    @classmethod
    def of(cls, arrays: dict) -> "Layout":
        return cls((name, np.shape(a)) for name, a in arrays.items())

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``flat``; writing through a view writes ``flat``."""
        return {name: flat[sl].reshape(shape) for name, (sl, shape) in self.spans.items()}

    def pack(self, arrays: dict) -> np.ndarray:
        """A new flat vector holding ``arrays``.

        Raises ValueError unless ``arrays`` has exactly the keys and shapes
        of the layout: a parameter must not keep its initialisation or
        broadcast.
        """
        missing = sorted(set(self.shapes) - set(arrays))
        extra = sorted(set(arrays) - set(self.shapes))
        if missing or extra:
            raise ValueError(f"parameter keys differ: missing {missing}, unexpected {extra}")
        for name, shape in self.shapes.items():
            if np.shape(arrays[name]) != shape:
                raise ValueError(f"parameter {name!r} has shape {list(np.shape(arrays[name]))}, "
                                 f"expected {list(shape)}")
        flat = np.empty(self.size)
        for name, view in self.views(flat).items():
            view[...] = arrays[name]
        return flat

    def name_at(self, index: int) -> str:
        """Name of the parameter that holds flat position ``index``."""
        starts = [sl.start for sl, _ in self.spans.values()]
        return list(self.spans)[bisect_right(starts, index) - 1]


class DenseNetwork:
    """Fully connected network: y = act(x @ W + b) per layer.

    Inputs are row batches (n, d), one row being (1, d). ``forward``
    caches each layer's input and output; ``backward`` reads the most
    recent cache, without changing it, and returns parameter gradients
    summed over the batch rows together with the gradient at the input.
    A rectifier's mask is built from its cached output: ``out > 0`` holds
    exactly where ``z > 0`` does, NaN included. ``forward`` checks the input
    shape but not its values: the models' rows are checked once, where they
    enter (``vqvae.model_inputs``, ``vqvae.condition_inputs``, and
    ``decode_rows`` for latent rows), and ``load_checkpoint`` refuses
    non-finite parameters.

    Every pass allocates: ``forward`` returns a new array and caches new
    arrays for each layer, and ``backward`` a new input gradient, so a
    caller may keep them across later passes; ``backward`` reads a
    rectifier output layer's mask from the array ``forward`` returned, so
    leave it unchanged until then. The parameter gradient is the one
    exception: ``backward`` overwrites ``grad``, the vector ``bind`` bound,
    and returns it, so copy it to keep it across another ``backward``.

    ``bind`` builds each layer's ``(W, b, W.T, relu, grad_W, grad_b)``
    tuple and the input width once, and the passes do only the array work
    of their expressions. Every product is an ``np.dot`` and gives the bits
    of ``np.matmul`` at every row count the models use, one included.
    """

    def __init__(self, weights, biases, activations):
        if not (len(weights) == len(biases) == len(activations)):
            raise ValueError("layer lists must have equal length")
        if not weights:
            raise ValueError("network needs at least one layer")
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.activations = list(activations)
        arrays = {}
        for i, (W, b) in enumerate(zip(weights, biases)):
            arrays[f"{i}.W"] = np.asarray(W, dtype=float)
            arrays[f"{i}.b"] = np.asarray(b, dtype=float)
        self.layout = Layout.of(arrays)
        self.bind(self.layout.pack(arrays), np.empty(self.layout.size))
        self._cache = None

    def bind(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Keep the parameters in ``flat`` and their gradient in ``grad`` from now on.

        ``flat``'s values become the parameters; ``grad``, laid out like
        ``flat``, is what every ``backward`` overwrites and returns. A model
        made of several networks binds each to a stretch of its own flat
        vector and of its own gradient vector, so one vector of each holds
        the whole model.
        """
        self.flat, self.grad = flat, grad
        self.weights, self.biases = self._layer_views(flat)
        # Per layer (W, b, W.T, relu, grad_W, grad_b): the passes' operands, built once here.
        self._layers = tuple(zip(self.weights, self.biases, [W.T for W in self.weights],
                                 [act == "relu" for act in self.activations],
                                 *self._layer_views(grad)))
        self._width = self.weights[0].shape[0]

    def _layer_views(self, flat: np.ndarray):
        """(W views, b views): per layer, its weight and bias in the flat vector ``flat``."""
        views = self.layout.views(flat)
        layers = range(len(self.activations))
        return [views[f"{i}.W"] for i in layers], [views[f"{i}.b"] for i in layers]

    @classmethod
    def create(cls, sizes, rng, activations=None):
        """He-style uniform fan-in initialisation, biases at zero.

        ``sizes`` is the width sequence [in, h1, ..., out]. Hidden layers
        default to rectifiers with an identity output layer.
        """
        if len(sizes) < 2:
            raise ValueError("sizes must list at least input and output widths")
        n_layers = len(sizes) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["identity"]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, activations)

    @property
    def sizes(self):
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]

    def params(self) -> dict[str, np.ndarray]:
        """Live views into ``flat``, keyed '0.W', '0.b', '1.W', ..."""
        return self.layout.views(self.flat)

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        self.flat[...] = self.layout.pack(params)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=float)
        if h.ndim != 2 or h.shape[1] != self._width:
            raise ValueError(f"input of shape {h.shape} is not rows of width {self._width}")
        acts = [h]
        for W, b, _, relu, _, _ in self._layers:
            h = np.dot(h, W)
            h += b
            if relu:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        self._cache = acts
        return h

    def backward(self, grad_out: np.ndarray, input_grad: bool = True):
        """Backprop the cached forward pass.

        Returns (grad, grad_in). ``grad`` is the network's own ``self.grad``,
        overwritten with the parameter gradients summed over the batch rows;
        scale the upstream gradient when a mean is wanted. ``grad_in``, the
        gradient at the input, is a new array, or None when ``input_grad``
        is false and its product is skipped. ``backward`` leaves the cache
        as it is, so it may run again on it.
        """
        if self._cache is None:
            raise RuntimeError("backward called before any forward pass")
        acts = self._cache
        g = np.asarray(grad_out, dtype=float)
        if g.shape != acts[-1].shape:
            raise ValueError(f"upstream gradient has wrong shape {g.shape}")
        for i in range(len(self._layers) - 1, -1, -1):
            _, _, WT, relu, grad_W, grad_b = self._layers[i]
            if relu:
                # g * (z > 0): a layer's rectified output is > 0 exactly where
                # its pre-activation is.
                g = g * (acts[i + 1] > 0.0)
            np.dot(acts[i].T, g, grad_W)
            np.add.reduce(g, axis=0, out=grad_b)
            if i == 0 and not input_grad:
                return self.grad, None
            g = np.dot(g, WT)
        return self.grad, g


class AdamState:
    """Zeroed flat Adam moments in ``layout``, a model's own, with the learning
    rate and weight decay of the update.

    ``scratch`` holds two vectors shaped like the moments; ``adam_step``
    writes its intermediate results there instead of allocating them.
    Their contents mean nothing between steps.
    """

    def __init__(self, lr: float, layout: Layout, weight_decay: float = 0.0):
        self.lr, self.layout, self.weight_decay, self.step_count = lr, layout, weight_decay, 0
        self.m, self.v = np.zeros(layout.size), np.zeros(layout.size)
        self.scratch = (np.empty(layout.size), np.empty(layout.size))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray):
    """One Adam update with decoupled weight decay, mutating params in place.

    ``params`` and ``grad`` are flat vectors in ``state.layout``. The whole
    step is rejected (no parameter touched) if any gradient is non-finite,
    so a bad batch cannot corrupt the model. One element-wise finite check
    decides it and names the parameter of the first non-finite element;
    finite elements whose sum would overflow are finite, and the step goes
    ahead.

    After the decoupled decay, ``params *= 1 - lr * weight_decay`` at every
    step (by exactly 1.0 at a decay of 0), the update is the whole-array form

        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + ((1 - BETA2) * grad) * grad
        params -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)

    evaluated with the same ufuncs in the same operand order, writing its
    temporaries into ``state.scratch``, so the bits are those of the
    whole-array expressions. Where ``bc1`` is exactly 1.0 (every step
    from the 356th at ``BETA1`` = 0.9) the step computes ``lr * m``, skipping
    ``m / bc1``: dividing by 1.0 returns its operand unchanged. ``bc2``
    stays near 1 far longer (until step 37,412) and is always divided by.
    """
    if np.shape(grad) != np.shape(params) or np.shape(params) != state.m.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} and parameter shape "
                         f"{np.shape(params)} must both be {state.m.shape}")
    grad = np.asarray(grad, dtype=float)
    finite = np.isfinite(grad)
    if not finite.all():
        raise NonFiniteGradient(state.layout.name_at(int(np.argmin(finite))))
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    params *= 1.0 - state.lr * state.weight_decay
    m, v = state.m, state.v
    a, b = state.scratch
    m *= BETA1
    np.multiply(1.0 - BETA1, grad, out=a)
    m += a
    v *= BETA2
    np.multiply(1.0 - BETA2, grad, out=a)
    np.multiply(a, grad, out=a)
    v += a
    if bc1 == 1.0:
        np.multiply(state.lr, m, out=a)
    else:
        np.divide(m, bc1, out=a)
        np.multiply(state.lr, a, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    np.add(b, EPS, out=b)
    np.divide(a, b, out=a)
    params -= a
    return params


def _encode_param(p) -> dict:
    """JSON-safe encoding; float64 via repr round-trips bit-exactly."""
    return {"shape": list(np.shape(p)), "data": np.asarray(p, dtype=float).ravel().tolist()}


def decode_params(doc) -> dict[str, np.ndarray]:
    """The arrays of a checkpoint's ``params``: ``PARAM_SCHEMA`` objects whose ``data``
    fills their ``shape``; anything else raises ValueError naming the parameter."""
    out = {}
    for name, entry in doc.items():
        check_object(entry, PARAM_SCHEMA, "parameter {!r}", name)
        shape, data = entry["shape"], entry["data"]
        if min(shape, default=0) < 0 or math.prod(shape) != len(data):
            raise ValueError(f"parameter {name!r}: {len(data)} entries do not fill shape {shape}")
        out[name] = np.fromiter(data, float, len(data)).reshape(shape)
    return out


@dataclass
class Checkpoint:
    """A loaded checkpoint: its arrays, its metadata, the SHA-256 of its bytes and its path."""

    params: dict
    metadata: dict
    sha256: str
    path: str


def save_checkpoint(path, params, metadata: dict | None = None) -> str:
    """Write ``params`` and ``metadata`` to ``path`` as a checkpoint; returns the bytes' SHA-256.

    The file holds the text of ``json.dumps(doc) + "\n"`` for the document
    ``{"format", "version", "params", "metadata"}``. ``json.dumps`` runs the
    C encoder; ``json.dump`` to a file would run the pure-Python one.
    """
    doc = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
           "params": {name: _encode_param(p) for name, p in params.items()},
           "metadata": metadata or {}}
    return write_text(path, json.dumps(doc) + "\n")


def load_checkpoint(path) -> Checkpoint:
    """Read ``path``; any file that is not a whole, finite checkpoint raises ValueError.

    The bytes are read once, then hashed, decoded and parsed; a file that
    cannot be read raises OSError. The document is a ``CHECKPOINT_SCHEMA``
    object, so the ``optimizer`` entry that older builds wrote is an unknown
    field. Metadata floats stay floats.
    """
    try:
        text, sha256 = read_text(path)
        doc = parse_json(text)
        check_object(doc, CHECKPOINT_SCHEMA, "checkpoint")
        if doc["format"] != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
        if doc["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {doc['version']!r}")
        params = decode_params(doc["params"])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return Checkpoint(params, doc.get("metadata", {}), sha256, str(path))


def save_model(path, params, kind: str, config, metadata: dict | None = None, **extra) -> str:
    """Save a checkpoint whose ``metadata["model"]`` records ``kind``, ``config`` and ``extra``.

    Returns the SHA-256 of the bytes written (``save_checkpoint``).
    """
    model = {"kind": kind, **asdict(config), **extra}
    return save_checkpoint(path, params, metadata={**(metadata or {}), "model": model})


def load_model(path, model_cls, kind: str, config_cls, extra=None):
    """``model_cls(config)`` holding the weights of a ``save_model`` file, and its checkpoint.

    ``metadata["model"]`` holds ``kind``, every ``config_cls`` field and the ``extra`` keys
    (key: type name), and nothing else, and the parameters are exactly the model's names
    and shapes; any fault raises ValueError naming ``path``.
    """
    ck = load_checkpoint(path)
    spec, types = ck.metadata.get("model"), {f.name: f.type for f in fields(config_cls)}
    try:
        check_object(spec, Schema({"kind": "str", **types, **(extra or {})}),
                     "model config")
        if spec["kind"] != kind:
            raise ValueError(f"model config kind is {spec['kind']!r}, not {kind!r}")
        model = model_cls(config_cls(**{name: spec[name] for name in types}))
        model.set_params(ck.params)
    except ValueError as exc:
        raise ValueError(f"{path}: unusable checkpoint: {exc}") from exc
    return model, ck
