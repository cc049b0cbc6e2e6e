"""Gradient checking against central finite differences."""

import numpy as np

from fedsmell.nn import (PARAM_COUNT, forward_batch, init_params, loss_and_gradient,
                         mean_cross_entropy, unflatten_params)

from util import dead_slot_mask

DELTA = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def fd_gradient(base, X, y, coords):
    """Central finite differences of the mean batch loss at the given coordinates."""
    def loss_of(vec):
        probs = forward_batch(X, unflatten_params(vec))
        return mean_cross_entropy(probs, y)

    vec = base.copy()
    out = np.zeros(len(coords))
    for pos, j in enumerate(coords):
        original = vec[j]
        vec[j] = original + DELTA
        plus = loss_of(vec)
        vec[j] = original - DELTA
        minus = loss_of(vec)
        vec[j] = original
        out[pos] = (plus - minus) / (2.0 * DELTA)
    return out


def assert_gradients_match(analytic, numeric, coords):
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    bad = diff > np.maximum(ABS_FLOOR, REL_TOL * scale)
    assert not bad.any(), (
        f"gradient mismatch at coordinates {np.asarray(coords)[bad][:5]}: "
        f"analytic {analytic[bad][:5]} vs finite-difference {numeric[bad][:5]}"
    )


def test_gradient_matches_finite_differences_sampled_coordinates():
    forget_block = np.arange(0, 16 * 32 + 16)  # zero-gradient block, checked too
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((8, 16))
        y = rng.integers(0, 2, 8)
        base = init_params(seed)
        _, analytic = loss_and_gradient(X, y, unflatten_params(base))

        sampled = rng.choice(PARAM_COUNT, size=300, replace=False)
        coords = np.unique(np.concatenate([sampled, rng.choice(forget_block, 40)]))
        numeric = fd_gradient(base, X, y, coords)
        assert_gradients_match(analytic[coords], numeric, coords)


def test_forget_gate_gradient_exactly_zero_with_zero_initial_cell():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 16))
    y = rng.integers(0, 2, 8)
    _, grad = loss_and_gradient(X, y, unflatten_params(init_params(11)))
    assert np.all(grad[:16 * 32 + 16] == 0.0)


def test_dead_slots_get_exactly_zero_gradient():
    dead = dead_slot_mask()
    assert dead.sum() == 1296
    for seed in range(5):
        rng = np.random.default_rng(20 + seed)
        X = rng.standard_normal((32, 16))
        y = rng.integers(0, 2, 32)
        params = unflatten_params(rng.standard_normal(PARAM_COUNT) * 0.3)
        _, grad = loss_and_gradient(X, y, params)
        assert np.all(grad[dead] == 0.0)
