"""Classifier core: forward passes, loss, Adam, layout, init, checkpoints."""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsmell.data import Dataset
from fedsmell.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, DENSE_UNITS, EVAL_BLOCK,
                         HIDDEN_DIM, INPUT_DIM, NUM_CLASSES, PARAM_COUNT, PROB_CLAMP, _forward,
                         _sigmoid, _softmax, adam_update, forward_batch, init_params,
                         load_weights, loss_and_gradient, mean_cross_entropy, save_weights,
                         unflatten_params)

from util import child_env, dead_slot_mask, grad_buffer, layout_blocks


def zero_params():
    return unflatten_params(np.zeros(PARAM_COUNT))


def seeded_params(seed):
    return unflatten_params(init_params(seed))


def forward_one(x, p):
    """Probabilities of a single feature vector and the batched pass's other
    outputs (io, g, tanh_c, dense_inputs)."""
    probs, *rest = _forward(np.asarray(x, dtype=float)[None, :], p)
    return probs[0], rest


def test_param_count_recomputed_from_layer_shapes():
    # Recompute the flat length independently from the architecture.
    z_dim = HIDDEN_DIM + INPUT_DIM
    expected = 4 * (HIDDEN_DIM * z_dim + HIDDEN_DIM)
    fan_in = HIDDEN_DIM
    for units in (72, 50, 36, 28, 2):
        expected += units * fan_in + units
        fan_in = units
    assert expected == 9916
    assert PARAM_COUNT == 9916


# ---------------------------------------------------------------- LSTM cell

def test_lstm_forward_zero_params_gives_half_gates_and_zero_state():
    x = np.linspace(-1, 1, INPUT_DIM)
    _, (io, g, tanh_c, dense_inputs) = forward_one(x, zero_params())
    assert np.array_equal(io[:, 0], np.full((2, HIDDEN_DIM), 0.5))
    assert np.array_equal(g[0], np.zeros(HIDDEN_DIM))
    assert np.array_equal(tanh_c[0], np.zeros(HIDDEN_DIM))
    assert np.array_equal(dense_inputs[0][0], np.zeros(HIDDEN_DIM))


def _sign_split_sigmoid(x):
    """Logistic function split by sign so that exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_sign_split_oracle_without_floating_point_errors():
    x = np.concatenate([np.linspace(-800.0, 800.0, 200_001),
                        np.random.default_rng(3).uniform(-40.0, 40.0, 100_000)])
    with np.errstate(all="raise"):
        got = _sigmoid(x)
    assert np.max(np.abs(got - _sign_split_sigmoid(x))) <= 2.3e-16
    assert np.array_equal(_sigmoid(np.array([-800.0, 0.0, 800.0])), [0.0, 0.5, 1.0])


def _lstm_scalar_oracle(x, h_prev, c_prev, values):
    """Straight-line scalar-loop reimplementation of the cell update.

    Reads all four gates, each on [h_prev, x], straight from the layout.
    """
    w_f, b_f, w_i, b_i, w_o, b_o, w_c, b_c = layout_blocks(values)[:8]
    hidden = len(h_prev)
    z = list(h_prev) + list(x)
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for r in range(hidden):
        a_f = sum(w_f[r][j] * z[j] for j in range(len(z))) + b_f[r]
        a_i = sum(w_i[r][j] * z[j] for j in range(len(z))) + b_i[r]
        a_o = sum(w_o[r][j] * z[j] for j in range(len(z))) + b_o[r]
        a_c = sum(w_c[r][j] * z[j] for j in range(len(z))) + b_c[r]
        f = 1.0 / (1.0 + math.exp(-a_f))
        i = 1.0 / (1.0 + math.exp(-a_i))
        o = 1.0 / (1.0 + math.exp(-a_o))
        g = math.tanh(a_c)
        c[r] = f * c_prev[r] + i * g
        h[r] = o * math.tanh(c[r])
    return h, c


def test_lstm_forward_matches_scalar_loop_oracle():
    # The oracle uses every gate and column; random values in the forget
    # gate and the h_prev columns must not matter with a zero initial state.
    rng = np.random.default_rng(7)
    values = rng.standard_normal(PARAM_COUNT) * 0.5
    x = rng.standard_normal(INPUT_DIM)
    _, (_, _, tanh_c, dense_inputs) = forward_one(x, unflatten_params(values))
    h_ref, c_ref = _lstm_scalar_oracle(x, np.zeros(HIDDEN_DIM), np.zeros(HIDDEN_DIM), values)
    assert np.max(np.abs(dense_inputs[0][0] - h_ref)) <= 1e-12
    assert np.max(np.abs(tanh_c[0] - np.tanh(c_ref))) <= 1e-12


# --------------------------------------------------------------- full model

def test_model_forward_zero_params_is_uniform():
    probs, _ = forward_one(np.arange(16.0), zero_params())
    assert np.array_equal(probs, [0.5, 0.5])


def test_model_forward_normalizes_for_random_params():
    for seed in range(5):
        p = seeded_params(seed)
        x = np.random.default_rng(seed).standard_normal(INPUT_DIM) * 3
        probs, _ = forward_one(x, p)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.all(probs > 0) and np.all(probs < 1)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_model_forward_normalizes_for_extreme_inputs(seed, scale):
    p = seeded_params(seed % 7)
    x = np.random.default_rng(seed).standard_normal(INPUT_DIM) * scale
    probs, _ = forward_one(x, p)
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.all(probs > 0) and np.all(probs < 1)


def _dense_oracle(a, weights, bias, activation):
    out = np.array([sum(weights[r][j] * a[j] for j in range(len(a))) + bias[r]
                    for r in range(len(bias))])
    if activation == "relu":
        return np.maximum(out, 0.0)
    e = np.exp(out - out.max())
    return e / e.sum()


def test_model_forward_matches_composed_per_layer_oracle():
    values = init_params(0)
    x = np.ones(INPUT_DIM)
    h, _ = _lstm_scalar_oracle(x, np.zeros(HIDDEN_DIM), np.zeros(HIDDEN_DIM), values)
    a = h
    blocks = layout_blocks(values)
    for weights, bias in zip(blocks[8:-2:2], blocks[9:-2:2]):
        a = _dense_oracle(a, weights, bias, "relu")
    expected = _dense_oracle(a, blocks[-2], blocks[-1], "softmax")
    probs, _ = forward_one(x, unflatten_params(values))
    assert np.max(np.abs(probs - expected)) <= 1e-12


# --------------------------------------------------------------------- loss

def cross_entropy(probs, label):
    return mean_cross_entropy(np.array([probs], dtype=float), np.array([label]))


def test_cross_entropy_closed_forms():
    assert cross_entropy([1.0, 0.0], 0) <= 1e-11
    assert cross_entropy([0.5, 0.5], 0) == pytest.approx(math.log(2), abs=1e-12)
    assert cross_entropy([0.5, 0.5], 1) == pytest.approx(math.log(2), abs=1e-12)
    assert cross_entropy([0.25, 0.75], 1) == pytest.approx(math.log(4 / 3), abs=1e-12)


def test_loss_nonnegative_after_clamp():
    assert cross_entropy([0.0, 1.0], 1) >= 0.0
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert mean_cross_entropy(probs, np.array([0, 1])) >= 0.0


def test_float_0_1_labels_give_the_int_labels_loss_and_gradient_bytes():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((32, INPUT_DIM))
    y = rng.integers(0, 2, 32)
    p = seeded_params(8)
    loss, grad = loss_and_gradient(X, y, p, grad_buffer())
    # The loss indexes with its labels unchecked; Dataset stores them as int64.
    data = Dataset("float", X, y.astype(float))
    float_loss, float_grad = loss_and_gradient(data.features, data.labels, p, grad_buffer())
    assert float_loss == loss
    assert float_grad.tobytes() == grad.tobytes()


# ----------------------------------------------------------------- backward

def test_backward_duplicated_sample_equals_single():
    p = seeded_params(3)
    x = np.random.default_rng(3).standard_normal(INPUT_DIM)
    _, single = loss_and_gradient(x[None, :], np.array([1]), p, grad_buffer())
    _, doubled = loss_and_gradient(np.stack([x, x]), np.array([1, 1]), p, grad_buffer())
    assert np.allclose(single, doubled, atol=1e-15)


def test_backward_into_reused_buffer_equals_fresh_allocation_bitwise():
    rng = np.random.default_rng(21)
    values = init_params(2)
    p = unflatten_params(values)
    grad = np.zeros(PARAM_COUNT)
    gp = unflatten_params(grad)
    dead = dead_slot_mask()
    assert np.count_nonzero(dead) == 1296
    # 20 batches, the last one short, with the weights moving between them.
    for n in [1, 7, 32] * 6 + [32, 5]:
        X = rng.standard_normal((n, INPUT_DIM))
        y = rng.integers(0, 2, n)
        fresh_loss, fresh = loss_and_gradient(X, y, p, grad_buffer())
        loss, returned = loss_and_gradient(X, y, p, gp)
        assert returned is gp.values is grad
        assert loss == fresh_loss
        assert grad.tobytes() == fresh.tobytes()
        assert np.all(grad[dead] == 0.0)
        values -= 0.05 * fresh


def test_backward_dead_relu_unit_gets_zero_gradient():
    p = seeded_params(5)
    dead = 7
    p.layers[0][1][dead] = -50.0  # pre-activation negative for any bounded input
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, INPUT_DIM))
    y = rng.integers(0, 2, 6)
    _, grad = loss_and_gradient(X, y, p, grad_buffer())

    # Locate the dead unit's incoming parameters via a marker vector.
    marker = np.zeros(PARAM_COUNT)
    first_weights, first_bias = layout_blocks(marker)[8:10]
    first_weights[dead, :] = 1.0
    first_bias[dead] = 1.0
    mask = marker != 0
    assert np.all(grad[mask] == 0.0)


def test_dead_slots_get_exactly_zero_gradient():
    dead = dead_slot_mask()
    assert dead.sum() == 1296
    for seed in range(5):
        rng = np.random.default_rng(20 + seed)
        X = rng.standard_normal((32, 16))
        y = rng.integers(0, 2, 32)
        params = unflatten_params(rng.standard_normal(PARAM_COUNT) * 0.3)
        _, grad = loss_and_gradient(X, y, params, grad_buffer())
        assert np.all(grad[dead] == 0.0)


# --------------------------------------------------------------------- adam

def reference_adam(values, grad, m, v, step, learning_rate):
    """Out-of-place bias-corrected Adam: returns (new values, m, v)."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    return values - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), m, v


def test_adam_in_place_matches_reference_bitwise():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(PARAM_COUNT)
    m, v = np.zeros(PARAM_COUNT), np.zeros(PARAM_COUNT)
    ref_values, ref_m, ref_v = values.copy(), m.copy(), v.copy()
    for step in range(1, 61):
        # Magnitudes from 1e-6 to 10 with random signs.
        grad = (10.0 ** rng.uniform(-6, 1, PARAM_COUNT)) * rng.choice([-1.0, 1.0], PARAM_COUNT)
        assert adam_update(values, grad, m, v, step, 0.001) is None
        ref_values, ref_m, ref_v = reference_adam(ref_values, grad, ref_m, ref_v, step, 0.001)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(m, ref_m)
        assert np.array_equal(v, ref_v)


def test_adam_zero_gradient_is_noop():
    values = init_params(1)
    before = values.copy()
    adam_update(values, np.zeros(PARAM_COUNT), np.zeros(PARAM_COUNT), np.zeros(PARAM_COUNT),
                1, 0.001)
    assert np.array_equal(values, before)


def test_adam_first_step_moves_by_learning_rate():
    values = np.zeros(3)
    grad = np.array([0.1, -0.2, 0.0])
    adam_update(values, grad, np.zeros(3), np.zeros(3), 1, 0.001)
    assert values[0] == pytest.approx(-0.001, rel=1e-5)
    assert values[1] == pytest.approx(0.001, rel=1e-5)
    assert values[2] == 0.0


def test_adam_quadratic_descent_is_monotone_after_step_two():
    # Scalar run on f(x) = x^2 from x = 1 with lr 0.1.
    x, m, v = np.array([1.0]), np.zeros(1), np.zeros(1)
    losses = []
    for step in range(1, 11):
        adam_update(x, 2.0 * x, m, v, step, 0.1)
        losses.append(float(x[0] ** 2))
    assert all(losses[i + 1] < losses[i] for i in range(1, len(losses) - 1))
    assert losses[-1] < losses[0]


def test_sgd_descent_sanity_over_seeds():
    # One small full-batch gradient step must not increase the batch loss.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((16, INPUT_DIM))
        y = rng.integers(0, 2, 16)
        values = init_params(seed)
        loss0, grad = loss_and_gradient(X, y, unflatten_params(values), grad_buffer())
        stepped = unflatten_params(values - 1e-3 * grad)
        loss1, _ = loss_and_gradient(X, y, stepped, grad_buffer())
        assert loss1 <= loss0 + 1e-6


# ------------------------------------------- bitwise reference kernels
# The per-gate kernels the stacked ones replaced, kept as written then. The
# stacked kernels are exact reformulations, so they must agree to the bit.

def reference_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_cross_entropy(probs, labels):
    picked = probs[np.arange(len(labels)), labels]
    picked = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-np.log(picked)))


def reference_forward(X, values):
    """(probs, i, o, g, tanh_c, dense_inputs) through one chain per gate."""
    blocks = layout_blocks(values)
    (w_i, b_i), (w_o, b_o), (w_c, b_c) = [(w[:, HIDDEN_DIM:], b)
                                          for w, b in zip(blocks[2:8:2], blocks[3:8:2])]
    i = 0.5 + 0.5 * np.tanh(0.5 * (X @ w_i.T + b_i))
    o = 0.5 + 0.5 * np.tanh(0.5 * (X @ w_o.T + b_o))
    g = np.tanh(X @ w_c.T + b_c)
    tanh_c = np.tanh(i * g)
    a = o * tanh_c
    dense_inputs = []
    for weights, bias in zip(blocks[8:-2:2], blocks[9:-2:2]):
        dense_inputs.append(a)
        a = np.maximum(a @ weights.T + bias, 0.0)
    dense_inputs.append(a)
    probs = reference_softmax(a @ blocks[-2].T + blocks[-1])
    return probs, i, o, g, tanh_c, dense_inputs


def reference_loss_and_gradient(X, y, values):
    probs, i, o, g, tanh_c, dense_inputs = reference_forward(X, values)
    n = len(y)
    loss = reference_cross_entropy(probs, y)
    grad = np.zeros(PARAM_COUNT)
    blocks, g_blocks = layout_blocks(values), layout_blocks(grad)
    dpre = probs
    dpre[np.arange(n), y] -= 1.0
    dpre /= n
    for k in reversed(range(len(dense_inputs))):
        np.matmul(dpre.T, dense_inputs[k], out=g_blocks[8 + 2 * k])
        dpre.sum(axis=0, out=g_blocks[9 + 2 * k])
        da = dpre @ blocks[8 + 2 * k]
        if k:
            dpre = da * (dense_inputs[k] > 0)
    dh = da
    da_o = dh * tanh_c * o * (1.0 - o)
    dc = dh * o * (1.0 - tanh_c ** 2)
    da_i = dc * g * i * (1.0 - i)
    da_c = dc * i * (1.0 - g ** 2)
    for k, da_gate in zip((2, 4, 6), (da_i, da_o, da_c)):
        np.matmul(da_gate.T, X, out=g_blocks[k][:, HIDDEN_DIM:])
        da_gate.sum(axis=0, out=g_blocks[k + 1])
    return loss, grad


# Logits that stress the softmax and the loss clamp.
SPECIAL_LOGITS = np.array([0.0, -0.0, 700.0, -700.0, 1.0, -1.0])


@settings(derandomize=True)
@given(n=st.integers(1, 600), scale=st.sampled_from([0.3, 3.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, scale=0.3, seed=0)
@example(n=32, scale=3.0, seed=1)
@example(n=511, scale=0.3, seed=2)
@example(n=512, scale=3.0, seed=3)
@example(n=513, scale=0.3, seed=4)
def test_stacked_kernels_match_per_gate_references_bitwise(n, scale, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(PARAM_COUNT) * scale
    X = rng.standard_normal((n, INPUT_DIM)) * 2.0
    y = rng.integers(0, 2, n)
    p = unflatten_params(values)

    blocks = [reference_forward(X[s:s + EVAL_BLOCK], values)[0] for s in range(0, n, EVAL_BLOCK)]
    assert forward_batch(X, p).tobytes() == np.concatenate(blocks).tobytes()
    loss, grad = loss_and_gradient(X, y, p, grad_buffer())
    ref_loss, ref_grad = reference_loss_and_gradient(X, y, values)
    assert loss.hex() == ref_loss.hex()
    assert grad.tobytes() == ref_grad.tobytes()

    # Ties, saturating logits and signed zeros straight into the head.
    logits = rng.standard_normal((n, NUM_CLASSES)) * 3.0
    special = rng.random((n, NUM_CLASSES)) < 0.3
    logits[special] = rng.choice(SPECIAL_LOGITS, np.count_nonzero(special))
    tied = rng.random(n) < 0.2
    logits[tied, 1] = logits[tied, 0]
    probs = _softmax(logits.copy())
    ref_probs = reference_softmax(logits)
    assert probs.tobytes() == ref_probs.tobytes()
    assert mean_cross_entropy(probs, y).hex() == reference_cross_entropy(ref_probs, y).hex()


# ----------------------------------------------------------- layout / init

def test_unflatten_returns_views_onto_the_flat_vector():
    v = np.zeros(PARAM_COUNT)
    p = unflatten_params(v)
    # Head bias is the last block; the first dense layer follows the gates.
    p.layers[-1][1][1] = 2.5
    p.layers[0][0][0, 0] = -1.0
    assert v[-1] == 2.5
    assert v[4 * (HIDDEN_DIM * (HIDDEN_DIM + INPUT_DIM) + HIDDEN_DIM)] == -1.0
    # The input gate's first x-column sits after the forget gate and the
    # input gate's h_prev columns.
    v[HIDDEN_DIM * (HIDDEN_DIM + INPUT_DIM) + HIDDEN_DIM + HIDDEN_DIM] = 7.0
    assert p.gates[0][0][0, 0] == 7.0
    assert np.count_nonzero(v) == 3


def test_unflatten_views_cover_exactly_the_live_slots_once():
    v = np.zeros(PARAM_COUNT)
    p = unflatten_params(v)
    assert p.gates[0].shape == (3, HIDDEN_DIM, INPUT_DIM)
    for weights, bias in (p.gates, *p.layers):
        weights += 1.0
        bias += 1.0
    assert np.array_equal(v != 0, ~dead_slot_mask())
    assert np.all(v[v != 0] == 1.0)
    assert np.count_nonzero(v) == 8620


def test_init_deterministic_per_seed():
    assert np.array_equal(init_params(17), init_params(17))


def test_init_values_frozen_by_digest():
    # Pins the layout and the generator's draw order: sha256 over the
    # little-endian float64 vectors of seeds 0-4, concatenated.
    digest = hashlib.sha256()
    for seed in range(5):
        digest.update(init_params(seed).astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "c4a1df795862a89839c5ba07756dc68b845069bea65c6878882ccce5f486503c")


def test_init_seeds_differ_in_all_weight_coordinates():
    # Biases are zero for every seed (252 of 9916 coordinates); all weight
    # coordinates must differ between seeds. Frozen from a derivation run:
    # the differing fraction is exactly 9664/9916 ~ 0.9746.
    v0 = init_params(0)
    v1 = init_params(1)
    differ = v0 != v1
    assert differ.mean() >= 0.97
    assert np.all(v0[~differ] == 0.0)


def test_init_glorot_bounds_per_matrix():
    blocks = layout_blocks(init_params(23))
    matrices = [(w, HIDDEN_DIM + INPUT_DIM, HIDDEN_DIM) for w in blocks[0:8:2]]
    fan_in = HIDDEN_DIM
    for weights, units in zip(blocks[8::2], DENSE_UNITS + (NUM_CLASSES,)):
        matrices.append((weights, fan_in, units))
        fan_in = units
    for weights, n_in, n_out in matrices:
        limit = math.sqrt(6.0 / (n_in + n_out))
        assert np.all(np.abs(weights) <= limit)


# -------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_and_format(tmp_path):
    v = np.random.default_rng(2).standard_normal(PARAM_COUNT)
    path = tmp_path / "model.fwv"
    save_weights(path, v)
    assert np.array_equal(load_weights(path), v)

    raw = path.read_bytes()
    assert int.from_bytes(raw[:4], "little") == PARAM_COUNT
    assert len(raw) == 4 + 8 * PARAM_COUNT
    first = np.frombuffer(raw, dtype="<f8", offset=4, count=1)[0]
    assert first == v[0]


def test_checkpoint_fifo_is_refused_without_blocking(tmp_path):
    # A FIFO with no writer would block the read; the child runs under a timeout.
    os.mkfifo(tmp_path / "model.fwv")
    code = ("from fedsmell.errors import DataError\nfrom fedsmell.nn import load_weights\n"
            "try:\n    load_weights('model.fwv')\nexcept DataError as exc:\n    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), timeout=60,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "cannot read: model.fwv is not a regular file\n", "")


