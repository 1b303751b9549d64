"""Differentiable MLP backbone with a single-layer classifier head.

The backbone is a stack of affine layers with ReLU between them; the final
affine layer emits raw F-dimensional features with no activation. Two
branches leave the backbone: the head consumes the *raw* features and
produces class logits, while the contrast branch consumes the row-wise
l2-normalized features. ``backward`` propagates upstream gradients from both
branches, including the normalization Jacobian

    d(f/|f|)^T g = (g - (fhat.g) fhat) / |f|

for the contrast side; it is skipped when g is +0.0 in every entry. Training
uses plain SGD with a half-cycle cosine learning-rate schedule and a linear warm-up ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .centroids import row_norms
from .codec import read_rows, write_file
from .data import CELL_BUDGET
from .errors import StateError


@dataclass
class _Layers:
    """Backbone affine layers plus the one-layer head, held in one float64
    vector ``flat``. Each layer is a (fan_in + 1) x fan_out block of it: the
    weight rows, then the bias row, in ``save_model``'s order; ``layers`` pairs
    them, the head last. The tensors are C-contiguous views into the blocks, so
    update them in place: assigning a new array to one detaches it. The
    constructor copies its arrays in."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("backbone needs matching, non-empty weight/bias lists")
        layers = [*zip(self.weights, self.biases), (self.head_weight, self.head_bias)]
        for i, (w, b) in enumerate(layers):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i} has inconsistent shapes {w.shape} / {b.shape}")
        self._bind([w.shape for w, _ in layers])
        for block, (w, b) in zip(self.blocks, layers):
            block[:-1], block[-1] = w, b

    def __reduce__(self):  # copied or pickled one by one, the views would leave ``flat``
        return type(self), (self.weights, self.biases, self.head_weight, self.head_bias)

    @classmethod
    def zeros(cls, shapes):
        """Zeroed layers of these (fan_in, fan_out) shapes, the head's last."""
        layers = cls.__new__(cls)
        layers._bind(shapes)
        return layers

    def _bind(self, shapes) -> None:
        """Allocate a zeroed ``flat`` and point every tensor at its block."""
        self.shapes, self.blocks, end = tuple(shapes), [], 0
        self.flat = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in self.shapes))
        for fan_in, fan_out in self.shapes:
            start, end = end, end + (fan_in + 1) * fan_out
            self.blocks.append(self.flat[start:end].reshape(fan_in + 1, fan_out))
        self.layers = [(block[:-1], block[-1]) for block in self.blocks]
        *backbone, (self.head_weight, self.head_bias) = self.layers
        self.weights, self.biases = [w for w, _ in backbone], [b for _, b in backbone]
        self.raw_layer = len(backbone) - 1  # outputs the raw features; a ReLU follows each before it


@dataclass
class ModelParams(_Layers):
    """The network's parameters.

    ``version`` counts in-place SGD updates so a stale forward cache can be
    detected in ``backward``.
    """

    version: int = field(default=0, compare=False)

    def __post_init__(self):
        super().__post_init__()
        for i, ((_, out), (fan_in, _)) in enumerate(zip(self.shapes, self.shapes[1:]), 1):
            if fan_in != out:  # each layer (the head last) consumes the one before
                raise ValueError(f"layer {i} input dim {fan_in} does not chain from {out}")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def num_classes(self) -> int:
        return self.head_weight.shape[1]

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights[:-1])


@dataclass
class Gradients(_Layers):
    """Same layout as ModelParams, holding d(total loss)/d(parameter)."""


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, consumed by ``backward``. ``layer_inputs``
    is each layer's input: ``x``, each hidden ReLU output (also its mask), and
    last the raw features, which both the head and the contrast branch read."""

    layer_inputs: list[np.ndarray]
    norms: np.ndarray
    normalized: np.ndarray
    params_version: int


def init_params(
    input_dim: int,
    hidden_dims: tuple[int, ...],
    feature_dim: int,
    num_classes: int,
    rng: np.random.Generator | int,
) -> ModelParams:
    """Seeded initialization: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(rng)  # a Generator comes back unaltered
    sizes = [int(input_dim), *[int(h) for h in hidden_dims], int(feature_dim), int(num_classes)]
    if any(s < 1 for s in sizes) or num_classes < 2:
        raise ValueError(f"layer sizes must be positive and classes >= 2, got {sizes}")
    if sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:])) > CELL_BUDGET:  # in Python ints
        raise ValueError(f"layer sizes {sizes} hold more than {CELL_BUDGET} parameters")
    params = ModelParams.zeros(list(zip(sizes[:-1], sizes[1:])))
    for w, _ in params.layers:
        bound = 1.0 / math.sqrt(w.shape[0])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return params


def forward(
    params: ModelParams, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ForwardCache]:
    """Run the network on a batch.

    Returns (raw_features, normalized_features, logits, cache). Raises
    DegenerateVectorError when any raw feature row has a near-zero or
    overflowing norm, since the contrast branch cannot normalize it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input shape {x.shape} does not match D={params.input_dim}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    layer_inputs = []
    a = x
    for i, (w, b) in enumerate(params.layers):
        layer_inputs.append(a)
        a = a @ w  # a new buffer per layer: the caller's x is never written
        a += b
        if i < params.raw_layer:
            np.maximum(a, 0.0, out=a)
    raw = layer_inputs[-1]
    norms = row_norms(raw)
    normalized = raw / norms[:, None]
    cache = ForwardCache(layer_inputs, norms, normalized, params.version)
    return raw, normalized, a, cache  # a is the head's output, the logits


def backward(
    params: ModelParams,
    cache: ForwardCache,
    d_normalized: np.ndarray,
    d_logits: np.ndarray,
    out: Gradients | None = None,
) -> Gradients:
    """Exact parameter gradients from the two branch gradients, written over ``out`` if given.

    ``d_normalized`` is d(loss)/d(normalized features) and ``d_logits`` is
    d(loss)/d(logits). One loop runs from the head down; the contrast term joins
    the head's gradient at the layer that outputs the raw features, where the
    branches meet. A hidden ReLU's mask is its output > 0, which holds exactly
    where its pre-activation is > 0 (NaN: False both ways).
    """
    if cache.params_version != params.version:
        raise StateError(
            f"stale forward cache (params version {params.version}, "
            f"cache version {cache.params_version})"
        )
    d_normalized = np.asarray(d_normalized, dtype=np.float64)
    d_logits = np.asarray(d_logits, dtype=np.float64)
    if d_normalized.shape != cache.normalized.shape:
        raise ValueError(f"d_normalized shape {d_normalized.shape} mismatches forward batch")
    if d_logits.shape != (len(cache.normalized), params.num_classes):
        raise ValueError(f"d_logits shape {d_logits.shape} mismatches forward batch")
    if out is not None and out.shapes != params.shapes:
        raise ValueError(f"gradient layers {out.shapes} do not match parameters {params.shapes}")

    jacobian = 0.0  # its term, in every entry, when every entry of d_normalized is +0.0
    if d_normalized.view(np.uint64).any():  # -0.0 and NaN entries take this path
        inner = np.add.reduce(cache.normalized * d_normalized, axis=1, keepdims=True)
        jacobian = (d_normalized - inner * cache.normalized) / cache.norms[:, None]

    grads = Gradients.zeros(params.shapes) if out is None else out
    upstream = d_logits
    for i in reversed(range(len(params.layers))):
        if i == params.raw_layer:  # upstream is d(loss)/d(raw features) from both branches
            upstream = jacobian + upstream
        elif i < params.raw_layer:
            upstream = upstream * (cache.layer_inputs[i + 1] > 0.0)
        grad_w, grad_b = grads.layers[i]
        np.matmul(cache.layer_inputs[i].T, upstream, out=grad_w)
        np.add.reduce(upstream, axis=0, out=grad_b)
        if i > 0:
            upstream = upstream @ params.layers[i][0].T
    return grads


def sgd_step(params: ModelParams, grads: Gradients, lr: float) -> ModelParams:
    """In-place p <- p - lr * g over every parameter; returns the same object."""
    if not 0.0 <= lr < math.inf:  # NaN fails both comparisons
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
    if grads.shapes != params.shapes:
        raise ValueError(f"gradient layers {grads.shapes} do not match parameters {params.shapes}")
    params.flat -= lr * grads.flat
    params.version += 1
    return params


def lr_at(step: int, base_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Half-cycle cosine schedule with a linear warm-up ramp from 0.

    During warm-up: base_lr * step / warmup_steps. Afterwards:
    base_lr * 0.5 * (1 + cos(pi * progress)) with progress spanning the
    post-warm-up steps, so the rate is base_lr right after warm-up and ~0 at
    the final step.
    """
    step = int(step)
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside schedule [0, {total_steps}]")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    span = total_steps - warmup_steps
    if span == 0:
        return base_lr
    progress = (step - warmup_steps) / span
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def save_model(params: ModelParams, path) -> None:
    """Checkpoint as flat text: dims header, then row-major layer tensors.

    Line 1: "D F K L" (L = backbone layer count); line 2: the L backbone
    output sizes. Then per backbone layer the weight rows followed by one
    bias line, and finally the head weight rows and head bias. %.17g floats
    round-trip float64 exactly.
    """
    dims = f"{params.input_dim} {params.feature_dim} {params.num_classes} {len(params.weights)}\n"
    sizes = " ".join(str(w.shape[1]) for w in params.weights) + "\n"
    write_file(path, " ", "\n", dims + sizes, *((block,) for block in params.blocks))


def load_model(path) -> ModelParams:
    """Read a ``save_model`` checkpoint; any malformed, truncated or non-finite
    content raises StateError naming the file, and a bad cell's line."""
    head, rows = read_rows(path, 2, "model")
    try:
        input_dim, feature_dim, num_classes, n_layers = (int(t) for t in head[0])
        out_sizes = [int(t) for t in head[1]]
    except ValueError as exc:
        raise StateError(f"model file {path} has a malformed header") from exc
    # (fan_in, fan_out) per backbone layer, then the head
    shapes = list(zip([input_dim, *out_sizes], [*out_sizes, num_classes]))
    if len(out_sizes) != n_layers or out_sizes[-1] != feature_dim or min(map(min, shapes)) < 1:
        raise StateError(f"model file {path} header is inconsistent")
    # each tensor is fan_in weight rows, then one bias row, all fan_out wide
    if len(rows) != sum(fan_in + 1 for fan_in, _ in shapes) or (
        [row.size for row in rows] != [out for fan_in, out in shapes for _ in range(fan_in + 1)]
    ):
        raise StateError(f"model file {path} does not hold the tensors its header names")
    params = ModelParams.zeros(shapes)
    params.flat[:] = np.concatenate(rows)
    return params
