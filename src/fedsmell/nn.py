"""From-scratch LSTM + dense classifier over 16 tabular code metrics.

The network is a single-timestep LSTM cell (16 hidden units, zero initial
state) feeding a relu dense stack (72, 50, 36, 28) and a 2-way softmax
head. Everything is plain numpy float64. Parameters travel between
federation nodes as one flat vector with a fixed canonical layout, so
model exchange and aggregation reduce to vector arithmetic; the
structured parameters are views onto that vector.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructuralError

INPUT_DIM = 16
HIDDEN_DIM = 16
DENSE_UNITS = (72, 50, 36, 28)
NUM_CLASSES = 2

# Probability clamp applied inside the cross-entropy; wide enough to never
# disturb reported losses, tight enough to keep log() finite.
PROB_CLAMP = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _layout() -> tuple[tuple[int, ...], ...]:
    # Canonical order: gates f, i, o, c (weights then bias each), then the
    # dense stack in depth order, then the head; row-major throughout.
    shapes = [(HIDDEN_DIM, HIDDEN_DIM + INPUT_DIM), (HIDDEN_DIM,)] * 4
    fan_in = HIDDEN_DIM
    for units in DENSE_UNITS + (NUM_CLASSES,):
        shapes += [(units, fan_in), (units,)]
        fan_in = units
    return tuple(shapes)


LAYOUT = _layout()
PARAM_COUNT = sum(math.prod(shape) for shape in LAYOUT)


@dataclass
class LstmCellParams:
    """Gate parameters of one LSTM cell acting on [h_prev, x] vectors.

    All four weight matrices are (HIDDEN_DIM, HIDDEN_DIM + INPUT_DIM), the
    h_prev columns first; all four biases are (HIDDEN_DIM,). Gate order
    everywhere is forget, input, output, candidate, and the fields follow
    the flat layout order. The initial state is zero, so the forget gate
    and the h_prev columns never reach the output: they keep their place
    in the flat layout but never train.
    """

    w_f: np.ndarray
    b_f: np.ndarray
    w_i: np.ndarray
    b_i: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    w_c: np.ndarray
    b_c: np.ndarray


@dataclass
class DenseLayerParams:
    """One fully-connected layer: weights @ x + bias."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)


@dataclass
class ModelParams:
    """Full parameter set: LSTM cell, relu dense stack, softmax head.

    Every array is a view onto `values`, the canonical flat vector.
    """

    values: np.ndarray
    lstm: LstmCellParams
    dense: tuple[DenseLayerParams, ...]
    output: DenseLayerParams


@dataclass(frozen=True)
class Hyperparams:
    """Local-training knobs shared by centralized and federated runs."""

    learning_rate: float = 0.001
    batch_size: int = 32
    local_epochs: int = 1

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise StructuralError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise StructuralError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise StructuralError("local_epochs must be >= 1")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # The tanh form cannot overflow, so no split by sign is needed.
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ForwardCache:
    """Intermediates of a batched forward pass, consumed by the backward pass."""

    i: np.ndarray
    o: np.ndarray
    g: np.ndarray
    tanh_c: np.ndarray
    dense_inputs: list  # input activation of each dense layer, head included
    dense_pre: list  # pre-activation of each relu layer
    probs: np.ndarray


def forward_batch(X, p: ModelParams):
    """Forward pass over a (n, 16) feature batch.

    Each row is treated as a single-timestep sequence with zero initial
    hidden and cell state, so only the input, output and candidate gates
    act, each on x alone, and the cell state is input * candidate.
    Returns (probs, cache) with probs of shape (n, 2) summing to 1 per row.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != INPUT_DIM:
        raise StructuralError(f"feature batch must be (n, {INPUT_DIM}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NumericError("feature batch contains non-finite values")

    lstm = p.lstm
    i = _sigmoid(X @ lstm.w_i[:, HIDDEN_DIM:].T + lstm.b_i)
    o = _sigmoid(X @ lstm.w_o[:, HIDDEN_DIM:].T + lstm.b_o)
    g = np.tanh(X @ lstm.w_c[:, HIDDEN_DIM:].T + lstm.b_c)
    tanh_c = np.tanh(i * g)
    a = o * tanh_c

    dense_inputs = []
    dense_pre = []
    for layer in p.dense:
        dense_inputs.append(a)
        pre = a @ layer.weights.T + layer.bias
        dense_pre.append(pre)
        a = np.maximum(pre, 0.0)
    dense_inputs.append(a)

    logits = a @ p.output.weights.T + p.output.bias
    probs = _softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise NumericError("forward pass produced non-finite probabilities")

    cache = ForwardCache(i=i, o=o, g=g, tanh_c=tanh_c, dense_inputs=dense_inputs,
                         dense_pre=dense_pre, probs=probs)
    return probs, cache


def mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean clamp-protected cross-entropy over a batch of (n, 2) probabilities."""
    labels = np.asarray(labels)
    if len(labels) == 0 or not np.all((labels == 0) | (labels == 1)):
        raise StructuralError("labels must be a nonempty batch of 0/1 values")
    picked = probs[np.arange(len(labels)), labels]
    picked = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-np.log(picked)))


def loss_and_gradient(X, y, p: ModelParams):
    """Mean batch loss and its gradient in canonical flat layout.

    Backpropagates softmax cross-entropy through the head, the relu
    stack and the live LSTM gates. The initial state is zero, so the
    forget gate and the h_prev columns receive exactly zero gradient;
    that is the correct derivative, not an omission.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    probs, cache = forward_batch(X, p)
    n = len(y)
    if y.shape != (n,) or probs.shape[0] != n:
        raise StructuralError("labels must align with the feature batch")
    loss = mean_cross_entropy(probs, y)

    grad = np.zeros(PARAM_COUNT)
    gp = unflatten_params(grad)

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    gp.output.weights[...] = dlogits.T @ cache.dense_inputs[-1]
    gp.output.bias[...] = dlogits.sum(axis=0)
    da = dlogits @ p.output.weights

    for layer, g_layer, pre, a_in in zip(reversed(p.dense), reversed(gp.dense),
                                         reversed(cache.dense_pre),
                                         reversed(cache.dense_inputs[:-1])):
        dpre = da * (pre > 0)
        g_layer.weights[...] = dpre.T @ a_in
        g_layer.bias[...] = dpre.sum(axis=0)
        da = dpre @ layer.weights

    dh = da
    da_o = dh * cache.tanh_c * cache.o * (1.0 - cache.o)
    dc = dh * cache.o * (1.0 - cache.tanh_c ** 2)
    da_i = dc * cache.g * cache.i * (1.0 - cache.i)
    da_c = dc * cache.i * (1.0 - cache.g ** 2)
    for w, b, da_gate in ((gp.lstm.w_i, gp.lstm.b_i, da_i), (gp.lstm.w_o, gp.lstm.b_o, da_o),
                          (gp.lstm.w_c, gp.lstm.b_c, da_c)):
        w[:, HIDDEN_DIM:] = da_gate.T @ X
        b[...] = da_gate.sum(axis=0)

    if not np.all(np.isfinite(grad)):
        raise NumericError("backward pass produced non-finite gradients")
    return loss, grad


def adam_update(values: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                step: int, learning_rate: float) -> None:
    """One bias-corrected Adam step, in place on `values` and the moments `m`, `v`.

    `step` is the 1-based number of this step since the moments were zero.
    """
    if not values.shape == grad.shape == m.shape == v.shape:
        raise StructuralError("gradient/moment length does not match parameter vector")
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    values -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def flatten_params(p: ModelParams) -> np.ndarray:
    """The canonical flat float64 vector behind the parameters (not a copy)."""
    return p.values


def _blocks(values: np.ndarray) -> list[np.ndarray]:
    """Views of `values` shaped as the LAYOUT blocks, in order."""
    blocks = []
    cursor = 0
    for shape in LAYOUT:
        size = math.prod(shape)
        blocks.append(values[cursor:cursor + size].reshape(shape))
        cursor += size
    return blocks


def unflatten_params(values) -> ModelParams:
    """Structured views onto a canonical flat vector; nothing is copied.

    Writing through a returned array writes the vector, and the other way
    round. Input that is not already float64 is converted first.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size != PARAM_COUNT:
        raise StructuralError(f"parameter vector must have length {PARAM_COUNT}, got {values.size}")
    blocks = _blocks(values)
    layers = [DenseLayerParams(w, b) for w, b in zip(blocks[8::2], blocks[9::2])]
    return ModelParams(values=values, lstm=LstmCellParams(*blocks[:8]),
                       dense=tuple(layers[:-1]), output=layers[-1])


def init_params(seed: int) -> ModelParams:
    """Fresh parameters: Glorot-uniform weights, zero biases, seeded.

    Weight matrices draw from one generator in canonical layout order.
    """
    rng = np.random.default_rng(seed)
    values = np.zeros(PARAM_COUNT)
    for block in _blocks(values):
        if block.ndim == 2:
            out_dim, in_dim = block.shape
            limit = math.sqrt(6.0 / (in_dim + out_dim))
            block[...] = rng.uniform(-limit, limit, size=block.shape)
    return unflatten_params(values)


def save_weights(path, values) -> None:
    """Write a flat weight vector as a .fwv checkpoint.

    Format: little-endian uint32 value count, then the values as
    little-endian float64 in canonical layout order.
    """
    arr = np.ascontiguousarray(np.asarray(values, dtype="<f8").ravel())
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", arr.size))
        fh.write(arr.tobytes())


def load_weights(path) -> np.ndarray:
    """Read a .fwv checkpoint back into a flat float64 vector."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise StructuralError("checkpoint file is truncated")
    (count,) = struct.unpack_from("<I", raw)
    if len(raw) != 4 + 8 * count:
        raise StructuralError(
            f"checkpoint declares {count} values but holds {(len(raw) - 4) // 8}"
        )
    return np.frombuffer(raw, dtype="<f8", offset=4).astype(float)
