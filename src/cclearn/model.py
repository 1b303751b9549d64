"""Differentiable MLP backbone with a single-layer classifier head.

The backbone is a stack of affine layers with ReLU between them; the final
affine layer emits raw F-dimensional features with no activation. Two
branches leave the backbone: the head consumes the *raw* features and
produces class logits, while the contrast branch consumes the row-wise
l2-normalized features. ``backward`` propagates upstream gradients from both
branches, including the normalization Jacobian

    d(f/|f|)^T g = (g - (fhat.g) fhat) / |f|

for the contrast side. Training uses plain SGD with a half-cycle cosine
learning-rate schedule and a linear warm-up ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .centroids import normalize_rows
from .codec import floats, read_rows, write_rows
from .errors import StateError


@dataclass
class _Layers:
    """Backbone affine layers plus the one-layer head."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The backbone's (weight, bias) pairs, then the head's."""
        return [*zip(self.weights, self.biases), (self.head_weight, self.head_bias)]


@dataclass
class ModelParams(_Layers):
    """The network's parameters.

    ``version`` counts in-place SGD updates so a stale forward cache can be
    detected in ``backward``.
    """

    version: int = field(default=0, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("backbone needs matching, non-empty weight/bias lists")
        fan_in = None  # each layer (the head last) consumes the one before
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i} has inconsistent shapes {w.shape} / {b.shape}")
            if fan_in is not None and w.shape[0] != fan_in:
                raise ValueError(f"layer {i} input dim {w.shape[0]} does not chain from {fan_in}")
            fan_in = w.shape[1]

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
    """Intermediates of one forward pass, consumed by ``backward``."""

    x: np.ndarray
    pre_activations: list[np.ndarray]
    layer_inputs: list[np.ndarray]
    raw: np.ndarray
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
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    if input_dim < 1 or feature_dim < 1 or num_classes < 2:
        raise ValueError(
            f"bad dims: input={input_dim}, feature={feature_dim}, classes={num_classes}"
        )
    sizes = [int(input_dim), *[int(h) for h in hidden_dims], int(feature_dim)]
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    bound = 1.0 / math.sqrt(feature_dim)
    head_w = rng.uniform(-bound, bound, size=(feature_dim, num_classes))
    return ModelParams(weights, biases, head_w, np.zeros(num_classes))


def forward(
    params: ModelParams, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ForwardCache]:
    """Run the network on a batch.

    Returns (raw_features, normalized_features, logits, cache). Raises
    DegenerateVectorError when any raw feature row has near-zero norm, since
    the contrast branch cannot normalize it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input shape {x.shape} does not match D={params.input_dim}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    last = len(params.weights) - 1
    layer_inputs = [x]
    pre_activations = []
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        pre_activations.append(z)
        a = np.maximum(z, 0.0) if i < last else z
        if i < last:
            layer_inputs.append(a)
    raw = a
    norms = np.linalg.norm(raw, axis=1)
    normalized = normalize_rows(raw)
    logits = raw @ params.head_weight + params.head_bias
    cache = ForwardCache(x, pre_activations, layer_inputs, raw, norms, normalized, params.version)
    return raw, normalized, logits, cache


def backward(
    params: ModelParams,
    cache: ForwardCache,
    d_normalized: np.ndarray,
    d_logits: np.ndarray,
) -> Gradients:
    """Exact parameter gradients from the two branch gradients.

    ``d_normalized`` is d(loss)/d(normalized features) and ``d_logits`` is
    d(loss)/d(logits); both branches are merged at the raw features and
    propagated through the backbone.
    """
    if cache.params_version != params.version:
        raise StateError(
            f"stale forward cache (params version {params.version}, "
            f"cache version {cache.params_version})"
        )
    d_normalized = np.asarray(d_normalized, dtype=np.float64)
    d_logits = np.asarray(d_logits, dtype=np.float64)
    batch = cache.raw.shape[0]
    if d_normalized.shape != cache.normalized.shape:
        raise ValueError(f"d_normalized shape {d_normalized.shape} mismatches forward batch")
    if d_logits.shape != (batch, params.num_classes):
        raise ValueError(f"d_logits shape {d_logits.shape} mismatches forward batch")

    fhat = cache.normalized
    inner = (fhat * d_normalized).sum(axis=1, keepdims=True)
    d_raw = (d_normalized - inner * fhat) / cache.norms[:, None]
    d_raw = d_raw + d_logits @ params.head_weight.T

    g_head_w = cache.raw.T @ d_logits
    g_head_b = d_logits.sum(axis=0)

    g_weights: list[np.ndarray | None] = [None] * len(params.weights)
    g_biases: list[np.ndarray | None] = [None] * len(params.weights)
    upstream = d_raw
    for i in range(len(params.weights) - 1, -1, -1):
        if i < len(params.weights) - 1:
            upstream = upstream * (cache.pre_activations[i] > 0.0)
        g_weights[i] = cache.layer_inputs[i].T @ upstream
        g_biases[i] = upstream.sum(axis=0)
        if i > 0:
            upstream = upstream @ params.weights[i].T
    return Gradients(g_weights, g_biases, g_head_w, g_head_b)


def sgd_step(params: ModelParams, grads: Gradients, lr: float) -> ModelParams:
    """In-place p <- p - lr * g over every parameter; returns the same object."""
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    layers, grad_layers = params.layers, grads.layers
    if len(grads.weights) != len(params.weights) or len(grad_layers) != len(layers):
        raise ValueError("gradient structure does not match parameters")
    pairs = [(p, g) for layer in zip(layers, grad_layers) for p, g in zip(*layer)]
    for p, g in pairs:  # every check runs before any parameter changes
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    for p, g in pairs:
        p -= lr * g
    params.version += 1
    return params


@dataclass
class OptimState:
    """Learning-rate schedule bookkeeping; ``step`` is the next global step."""

    base_lr: float
    warmup_epochs: int
    total_epochs: int
    steps_per_epoch: int
    step: int = 0

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch

    @property
    def warmup_steps(self) -> int:
        return self.warmup_epochs * self.steps_per_epoch


def lr_at(opt: OptimState, step: int) -> float:
    """Half-cycle cosine schedule with a linear warm-up ramp from 0.

    During warm-up: base_lr * step / warmup_steps. Afterwards:
    base_lr * 0.5 * (1 + cos(pi * progress)) with progress spanning the
    post-warm-up steps, so the rate is base_lr right after warm-up and ~0 at
    the final step.
    """
    step = int(step)
    if not 0 <= step <= opt.total_steps:
        raise ValueError(f"step {step} outside schedule [0, {opt.total_steps}]")
    warm = opt.warmup_steps
    if step < warm:
        return opt.base_lr * step / warm
    span = opt.total_steps - warm
    if span == 0:
        return opt.base_lr
    progress = (step - warm) / span
    return opt.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def save_model(params: ModelParams, path) -> None:
    """Checkpoint as flat text: dims header, then row-major layer tensors.

    Line 1: "D F K L" (L = backbone layer count); line 2: the L backbone
    output sizes. Then per backbone layer the weight rows followed by one
    bias line, and finally the head weight rows and head bias. %.17g floats
    round-trip float64 exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{params.input_dim} {params.feature_dim} {params.num_classes} {len(params.weights)}\n"
            + " ".join(str(w.shape[1]) for w in params.weights) + "\n"
        )
        for w, b in params.layers:
            row = floats(w.shape[1], " ") + "\n"
            write_rows(fh, row, w)
            write_rows(fh, row, b[None])


def load_model(path) -> ModelParams:
    """Read a ``save_model`` checkpoint; any malformed, truncated or non-finite
    content raises StateError naming the file."""
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
    if [row.size for row in rows] != [out for fan_in, out in shapes for _ in range(fan_in + 1)]:
        raise StateError(f"model file {path} does not hold the tensors its header names")
    tensors, pos = [], 0
    for fan_in, _ in shapes:
        tensors.append((np.array(rows[pos : pos + fan_in]), rows[pos + fan_in]))
        pos += fan_in + 1
    head_w, head_b = tensors.pop()
    return ModelParams([w for w, _ in tensors], [b for _, b in tensors], head_w, head_b)
