"""Shared fixture builders for the test suite."""

import math

import numpy as np

from fedsmell.data import NUM_FEATURES, Dataset
from fedsmell.nn import HIDDEN_DIM, LAYOUT, PARAM_COUNT, unflatten_params


def make_dataset(features, labels, name="fixture") -> Dataset:
    return Dataset(name, np.asarray(features, dtype=float), np.asarray(labels, dtype=int))


def random_dataset(n, n_positive, seed, name="fixture") -> Dataset:
    """Gaussian features with an exact positive count, shuffled deterministically."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=int)
    labels[:n_positive] = 1
    rng.shuffle(labels)
    return Dataset(name, rng.standard_normal((n, NUM_FEATURES)), labels)


def rows_multiset(d: Dataset):
    """Sorted (features..., label) tuples for multiset comparisons."""
    rows = [tuple(d.features[i]) + (int(d.labels[i]),) for i in range(len(d))]
    return sorted(rows)


def grad_buffer():
    """Views of a fresh zero vector, the gradient buffer loss_and_gradient writes."""
    return unflatten_params(np.zeros(PARAM_COUNT))


def layout_blocks(values):
    """Views of a flat vector shaped as the nn.LAYOUT blocks, in order.

    Built from the layout table alone, so oracles can reach every slot
    (the forget gate and the h_prev columns too) without going through
    unflatten_params. Blocks 0-7 are the weights and bias of the forget,
    input, output and candidate gates, each weight matrix acting on
    [h_prev, x]; then weights and bias of each dense layer, head last.
    """
    assert values.shape == (PARAM_COUNT,)
    blocks, cursor = [], 0
    for shape in LAYOUT:
        size = math.prod(shape)
        blocks.append(values[cursor:cursor + size].reshape(shape))
        cursor += size
    return blocks


def dead_slot_mask():
    """Flat mask of the parameters a zero initial state keeps out of the model.

    These are the whole forget gate and the h_prev columns of the input,
    output and candidate gates.
    """
    marker = np.zeros(PARAM_COUNT)
    blocks = layout_blocks(marker)
    blocks[0][...] = 1.0
    blocks[1][...] = 1.0
    for w in blocks[2:8:2]:
        w[:, :HIDDEN_DIM] = 1.0
    return marker != 0
