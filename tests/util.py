"""Shared fixture builders for the test suite."""

import math
import os
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fedsmell import experiments, federation
from fedsmell.config import ExperimentConfig
from fedsmell.data import NUM_FEATURES, Dataset, domain_shift, save_csv, synth_generate
from fedsmell.errors import ConfigError, DataError, NumericError
from fedsmell.federation import (ClientNode, FederationTopology, ModelUpdate, RoundConfig,
                                 iter_rounds)
from fedsmell.metrics import ConfusionMatrix
from fedsmell.nn import HIDDEN_DIM, LAYOUT, PARAM_COUNT, Hyperparams, unflatten_params


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra) -> dict:
    """os.environ with PYTHONPATH set to the repo's src/, plus extra: the
    environment of a child process that imports fedsmell from this tree."""
    return {**os.environ, "PYTHONPATH": str(SRC), **extra}


def make_dataset(features, labels, name="fixture") -> Dataset:
    return Dataset(name, np.asarray(features, dtype=float), np.asarray(labels, dtype=int))


def random_dataset(n, n_positive, seed, name="fixture") -> Dataset:
    """Gaussian features with an exact positive count, shuffled deterministically."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=int)
    labels[:n_positive] = 1
    rng.shuffle(labels)
    return Dataset(name, rng.standard_normal((n, NUM_FEATURES)), labels)


_CLIENT = {"id": 0, "local_data": random_dataset(4, 2, seed=0), "hyper": Hyperparams(),
           "combiner_id": 0}
# Each dataclass that checks its fields through errors.check_field_types, the
# error class it raises, and the arguments it needs to build.
CHECKED_CLASSES = (
    (ExperimentConfig, ConfigError, {"kind": "federated", "datasets": ("a.csv",)}),
    (RoundConfig, ConfigError, {}), (Hyperparams, ConfigError, {}),
    (ClientNode, DataError, _CLIENT),
    (ModelUpdate, DataError, {"client_id": 0, "weights": np.zeros(3), "sample_count": 1}),
    (FederationTopology, DataError, {"combiners": (0,), "clients": (ClientNode(**_CLIENT),)}),
    (ConfusionMatrix, DataError, {"tp": 1, "tn": 1, "fp": 0, "fn": 0}),
)


# The label that starts the one stderr line of each nonzero exit code; 130 is a stop.
LABELS = {**{cls.exit_code: cls.label for cls in (ConfigError, DataError, NumericError)},
          130: "INTERRUPTED"}


def line_fits_code(code, err: str) -> bool:
    """Whether a CLI run's stderr is what its exit code says: nothing for 0, else one
    line that starts with the code's label."""
    if code == 0:
        return err == ""
    return (code in LABELS and err.startswith(f"{LABELS[code]}: ") and err.endswith("\n")
            and len(err.splitlines()) == 1)


def _own_handler(signum, frame):
    pass


@contextmanager
def sigterm_handler_kept(exempt=False):
    """Run the block with a Python SIGTERM handler set and check that the block puts it
    back, unless `exempt`; the handler found before the block is restored either way."""
    found = signal.signal(signal.SIGTERM, _own_handler)
    try:
        yield
    finally:
        handler = signal.signal(signal.SIGTERM, found)
    assert exempt or handler is _own_handler, handler


def run_rounds(topology, config, test_set):
    """Walk iter_rounds to its end: (round logs, final global weights)."""
    logs, final = [], None
    for log, final in iter_rounds(topology, config, test_set):
        logs.append(log)
    return logs, final


def count_training_passes(monkeypatch) -> list:
    """Record every client update, centralized or federated."""
    calls = []
    for module in (experiments, federation):
        monkeypatch.setattr(module, "client_update", lambda *args, update=module.client_update:
                            calls.append(args) or update(*args))
    return calls


def synth_csv(tmp_path, name, shift_magnitude=0.0, n=700, seed=0) -> str:
    """Write a synth dataset of n rows to tmp_path/<name>.csv; return its path."""
    dataset = synth_generate(n, 0.5, domain_shift(shift_magnitude), seed=seed, name=name)
    path = tmp_path / f"{name}.csv"
    save_csv(dataset, path)
    return str(path)


def huge_column(dataset: Dataset) -> Dataset:
    """The dataset with its fourth column times 1e200: finite values whose std overflows."""
    features = dataset.features.copy()
    features[:, 3] *= 1e200
    return Dataset(dataset.name, features, dataset.labels)


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
