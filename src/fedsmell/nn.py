"""From-scratch LSTM + dense classifier over 16 tabular code metrics.

The network is a single-timestep LSTM cell (16 hidden units, zero initial
state) feeding a relu dense stack (72, 50, 36, 28) and a 2-way softmax
head. Everything is plain numpy float64. Parameters travel between
federation nodes as one flat vector with a fixed canonical layout, so
model exchange and aggregation reduce to vector arithmetic.
`unflatten_params` is the one place that knows the layout: it hands the
forward and backward passes views of the vector's live slots, the three
live LSTM gates as one stacked view that each pass runs as one matmul.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import binary
from .errors import ConfigError, DataError, check_field_types

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

    `values` is the flat vector itself, the array every view writes
    through. `gates` is one (weights, bias) pair stacking the input, output
    and candidate gates: weights (3, HIDDEN_DIM, INPUT_DIM) holds their
    x-columns, bias (3, HIDDEN_DIM). Each gate's block, a (16, 32) matrix
    then 16 biases, is 33 rows of 16 with the x-columns in the odd rows and
    the biases last. `layers` holds (weights, bias) for each relu layer,
    then for the head. The initial LSTM state is zero, so the forget gate
    and the h_prev columns never reach the output: they keep their place
    in the flat layout, but no view covers them and they never train.
    """

    values: np.ndarray
    gates: tuple[np.ndarray, np.ndarray]
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class Hyperparams:
    """Local-training knobs shared by centralized and federated runs."""

    learning_rate: float = 0.001
    batch_size: int = 32
    local_epochs: int = 1

    def __post_init__(self):
        check_field_types(self)
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 + 0.5 * tanh(0.5 * x) on one fresh array; it cannot overflow.
    out = 0.5 * x
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of (n, 2) logits, in place; row max and sum act on the two columns."""
    logits -= np.maximum(logits[:, :1], logits[:, 1:])
    np.exp(logits, out=logits)
    logits /= logits[:, :1] + logits[:, 1:]
    return logits


@dataclass
class ForwardCache:
    """Intermediates of a batched forward pass, consumed by the backward pass."""

    io: np.ndarray  # input and output gates, (2, n, HIDDEN_DIM)
    g: np.ndarray
    tanh_c: np.ndarray
    dense_inputs: list  # input activation of each dense layer, head included


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
    weights, bias = p.gates
    pre = X @ weights.transpose(0, 2, 1)  # (3, n, HIDDEN_DIM): input, output, candidate
    pre += bias[:, None]
    io = _sigmoid(pre[:2])
    g = np.tanh(pre[2], out=pre[2])
    tanh_c = np.tanh(io[0] * g)
    a = io[1] * tanh_c

    dense_inputs = []
    for weights, bias in p.layers[:-1]:
        dense_inputs.append(a)
        a = a @ weights.T
        np.maximum(np.add(a, bias, out=a), 0.0, out=a)
    dense_inputs.append(a)

    weights, bias = p.layers[-1]
    logits = a @ weights.T
    logits += bias
    return _softmax(logits), ForwardCache(io=io, g=g, tanh_c=tanh_c, dense_inputs=dense_inputs)


def forward_batch(X: np.ndarray, p: ModelParams) -> np.ndarray:
    """Class probabilities (n, 2) of a feature batch, in EVAL_BLOCK-row blocks."""
    return np.concatenate([_forward(X[start:start + EVAL_BLOCK], p)[0]
                           for start in range(0, len(X), EVAL_BLOCK)])


def mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean clamp-protected cross-entropy over (n, 2) probabilities and 0/1 labels."""
    labels = binary(labels, "labels")
    if labels.ndim != 1 or not labels.size or probs.shape != (len(labels), NUM_CLASSES):
        raise DataError(f"probabilities must be (n, {NUM_CLASSES}) for 1-D labels, n >= 1")
    picked = probs[np.arange(len(labels)), labels]
    picked = np.minimum(np.maximum(picked, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return float((-np.log(picked)).sum() / len(labels))


def loss_and_gradient(X: np.ndarray, y: np.ndarray, p: ModelParams, gp: ModelParams):
    """Mean batch loss and its gradient in canonical flat layout.

    Backpropagates softmax cross-entropy through the head, the relu
    stack and the live LSTM gates. The initial state is zero, so the
    forget gate and the h_prev columns receive exactly zero gradient;
    that is the correct derivative, not an omission.

    The gradient is written through `gp` and `gp.values` is returned. Only
    the live slots are written, so a reused buffer keeps its dead slots at 0.
    """
    probs, cache = _forward(X, p)
    n = len(y)
    loss = mean_cross_entropy(probs, y)

    # Head first, then each relu layer: dpre is the gradient of layer k's
    # pre-activation. For the head's logits it is (probs - onehot(y)) / n,
    # built in place, as probs is not needed again; the loss checked y.
    dpre = probs
    dpre[:, 0] -= 1 - y
    dpre[:, 1] -= y
    dpre /= n
    for k in reversed(range(len(p.layers))):
        g_weights, g_bias = gp.layers[k]
        np.matmul(dpre.T, cache.dense_inputs[k], out=g_weights)
        dpre.sum(axis=0, out=g_bias)
        da = dpre @ p.layers[k][0]
        if k:
            # Layer k's input is relu(pre) of layer k - 1, positive where pre is.
            dpre = da * (cache.dense_inputs[k] > 0)

    # da is the LSTM output's gradient; the gate pre-activation gradients stack like p.gates.
    (i, o), g, tanh_c = cache.io, cache.g, cache.tanh_c
    dc = da * o * (1.0 - tanh_c ** 2)
    dpre = np.empty((3, n, HIDDEN_DIM))
    np.multiply(dc * g * i, 1.0 - i, out=dpre[0])
    np.multiply(da * tanh_c * o, 1.0 - o, out=dpre[1])
    np.multiply(dc * i, 1.0 - g ** 2, out=dpre[2])
    np.matmul(dpre.transpose(0, 2, 1), X, out=gp.gates[0])
    dpre.sum(axis=1, out=gp.gates[1])
    return loss, gp.values


def adam_update(values: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                step: int, learning_rate: float) -> None:
    """One bias-corrected Adam step, in place on `values` and the moments `m`, `v`.

    `step` is the 1-based number of this step since the moments were zero.
    """
    if not values.shape == grad.shape == m.shape == v.shape:
        raise DataError("gradient/moment length does not match parameter vector")
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    values -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def weight_vector(values) -> np.ndarray:
    """`values` as a float64 array, checked to be one canonical flat vector."""
    values = np.asarray(values, dtype=float)
    if values.shape != (PARAM_COUNT,):
        raise DataError(f"parameter vector must have length {PARAM_COUNT}, "
                        f"got shape {values.shape}")
    return values


def unflatten_params(values) -> ModelParams:
    """Views of the live slots of a canonical flat vector; nothing is copied.

    Writing through a returned array writes the vector, and the other way
    round. Input that is not already float64 is converted first; the
    result's `values` is the array its views write through.
    """
    values = weight_vector(values)
    # LAYOUT[0:2] is the forget gate; the live gates' blocks follow, 33 rows
    # of 16 each (HIDDEN_DIM == INPUT_DIM), x-columns in the odd rows.
    rows = values[_ENDS[2]:_ENDS[8]].reshape(3, 2 * HIDDEN_DIM + 1, INPUT_DIM)
    gates = (rows[:, 1:2 * HIDDEN_DIM:2], rows[:, 2 * HIDDEN_DIM])
    dense = [values[start:stop].reshape(shape)
             for (start, stop), shape in zip(_SPANS[8:], LAYOUT[8:])]
    return ModelParams(values=values, gates=gates, layers=tuple(zip(dense[::2], dense[1::2])))


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

    Format: little-endian uint32 value count, always PARAM_COUNT, then
    the values as little-endian float64 in canonical layout order.
    """
    raw = struct.pack("<I", PARAM_COUNT) + weight_vector(values).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(raw)


def load_weights(path) -> np.ndarray:
    """Read a .fwv checkpoint back into a flat float64 vector."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise DataError("checkpoint file is truncated")
    (count,) = struct.unpack_from("<I", raw)
    if len(raw) != 4 + 8 * count:
        raise DataError(
            f"checkpoint declares {count} values but holds {(len(raw) - 4) // 8}"
        )
    return weight_vector(np.frombuffer(raw, dtype="<f8", offset=4).astype(float))
