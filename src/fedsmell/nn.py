"""From-scratch LSTM + dense classifier over 16 tabular code metrics.

The network is a single-timestep LSTM cell (16 hidden units, zero initial
state) feeding a relu dense stack (72, 50, 36, 28) and a 2-way softmax
head. Everything is plain numpy float64. Parameters travel between
federation nodes as one flat vector with a fixed canonical layout, so
model exchange and aggregation reduce to vector arithmetic.
`unflatten_params` is the one place that knows the layout: it hands the
forward and backward passes views of the vector's live slots.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

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
# (start, stop) of each LAYOUT block in the flat vector, computed once
_ENDS = list(itertools.accumulate((math.prod(shape) for shape in LAYOUT), initial=0))
_SPANS = tuple(itertools.pairwise(_ENDS))
PARAM_COUNT = _ENDS[-1]


@dataclass
class ModelParams:
    """Views of the live slots of a canonical flat vector.

    `gates` holds (weights, bias) for the input, output and candidate
    gates, each weights view only that gate's x-columns (HIDDEN_DIM,
    INPUT_DIM); `layers` holds (weights, bias) for each relu layer, then
    for the head. The initial LSTM state is zero, so the forget gate and
    the h_prev columns never reach the output: they keep their place in
    the flat layout, but no view covers them and they never train.
    """

    gates: tuple[tuple[np.ndarray, np.ndarray], ...]
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class Hyperparams:
    """Local-training knobs shared by centralized and federated runs."""

    learning_rate: float = 0.001
    batch_size: int = 32
    local_epochs: int = 1

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise StructuralError("learning_rate must be finite and >= 0")
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


# Rows per scoring block; one 5k-row pass ran about 2x slower (its (n, 72)
# intermediates likely leave the cache). Fixed, so reruns score bit for bit.
EVAL_BLOCK = 512


def _forward(X: np.ndarray, p: ModelParams):
    """Forward pass over a (n, 16) batch; returns (probs, cache).

    Each row is treated as a single-timestep sequence with zero initial
    hidden and cell state, so only the input, output and candidate gates
    act, each on x alone, and the cell state is input * candidate.
    probs has shape (n, 2) and sums to 1 per row. Nothing is checked here:
    `Dataset` owns the batch's shape, finiteness and labels.
    """
    (w_i, b_i), (w_o, b_o), (w_c, b_c) = p.gates
    i = _sigmoid(X @ w_i.T + b_i)
    o = _sigmoid(X @ w_o.T + b_o)
    g = np.tanh(X @ w_c.T + b_c)
    tanh_c = np.tanh(i * g)
    a = o * tanh_c

    dense_inputs = []
    dense_pre = []
    for weights, bias in p.layers[:-1]:
        dense_inputs.append(a)
        pre = a @ weights.T + bias
        dense_pre.append(pre)
        a = np.maximum(pre, 0.0)
    dense_inputs.append(a)

    weights, bias = p.layers[-1]
    probs = _softmax(a @ weights.T + bias)
    return probs, ForwardCache(i=i, o=o, g=g, tanh_c=tanh_c, dense_inputs=dense_inputs,
                               dense_pre=dense_pre)


def forward_batch(X: np.ndarray, p: ModelParams) -> np.ndarray:
    """Class probabilities (n, 2) of a feature batch, in EVAL_BLOCK-row blocks."""
    return np.concatenate([_forward(X[start:start + EVAL_BLOCK], p)[0]
                           for start in range(0, len(X), EVAL_BLOCK)])


def mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean clamp-protected cross-entropy over (n, 2) probabilities and 0/1 labels."""
    picked = probs[np.arange(len(labels)), labels]
    picked = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-np.log(picked)))


def loss_and_gradient(X: np.ndarray, y: np.ndarray, p: ModelParams,
                      grad: np.ndarray | None = None, gp: ModelParams | None = None):
    """Mean batch loss and its gradient in canonical flat layout.

    Backpropagates softmax cross-entropy through the head, the relu
    stack and the live LSTM gates. The initial state is zero, so the
    forget gate and the h_prev columns receive exactly zero gradient;
    that is the correct derivative, not an omission.

    The gradient is written through `gp`, the views of `grad`, and `grad`
    is returned. Only the live slots are written, so a reused buffer keeps
    its dead slots at 0; with no buffer, a fresh zeroed one is allocated.
    """
    if grad is None:
        grad = np.zeros(PARAM_COUNT)
    if gp is None:
        gp = unflatten_params(grad)
    probs, cache = _forward(X, p)
    n = len(y)
    loss = mean_cross_entropy(probs, y)

    # Head first, then each relu layer: dpre is the gradient of layer k's
    # pre-activation. For the head's logits it is (probs - onehot(y)) / n,
    # built in place, as probs is not needed again.
    dpre = probs
    dpre[np.arange(n), y] -= 1.0
    dpre /= n
    for k in reversed(range(len(p.layers))):
        g_weights, g_bias = gp.layers[k]
        np.matmul(dpre.T, cache.dense_inputs[k], out=g_weights)
        dpre.sum(axis=0, out=g_bias)
        da = dpre @ p.layers[k][0]
        if k:
            dpre = da * (cache.dense_pre[k - 1] > 0)

    dh = da
    da_o = dh * cache.tanh_c * cache.o * (1.0 - cache.o)
    dc = dh * cache.o * (1.0 - cache.tanh_c ** 2)
    da_i = dc * cache.g * cache.i * (1.0 - cache.i)
    da_c = dc * cache.i * (1.0 - cache.g ** 2)
    for (g_weights, g_bias), da_gate in zip(gp.gates, (da_i, da_o, da_c)):
        np.matmul(da_gate.T, X, out=g_weights)
        da_gate.sum(axis=0, out=g_bias)
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


def _blocks(values: np.ndarray) -> list[np.ndarray]:
    """Views of `values` shaped as the LAYOUT blocks, in order."""
    return [values[start:stop].reshape(shape) for (start, stop), shape in zip(_SPANS, LAYOUT)]


def unflatten_params(values) -> ModelParams:
    """Views of the live slots of a canonical flat vector; nothing is copied.

    Writing through a returned array writes the vector, and the other way
    round. Input that is not already float64 is converted first.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size != PARAM_COUNT:
        raise StructuralError(f"parameter vector must have length {PARAM_COUNT}, got {values.size}")
    blocks = _blocks(values)
    # blocks[0:2] is the forget gate; the h_prev columns lead each gate matrix.
    gates = tuple((w[:, HIDDEN_DIM:], b) for w, b in zip(blocks[2:8:2], blocks[3:8:2]))
    return ModelParams(gates=gates, layers=tuple(zip(blocks[8::2], blocks[9::2])))


def init_params(seed: int) -> np.ndarray:
    """A fresh canonical flat vector: Glorot-uniform weights, zero biases.

    Weight matrices draw from one seeded generator in canonical layout
    order, the dead slots included.
    """
    rng = np.random.default_rng(seed)
    values = np.zeros(PARAM_COUNT)
    for (start, stop), shape in zip(_SPANS, LAYOUT):
        if len(shape) == 2:  # a weight matrix; (fan_out, fan_in), row-major
            limit = math.sqrt(6.0 / sum(shape))
            values[start:stop] = rng.uniform(-limit, limit, size=stop - start)
    return values


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
