"""Hierarchical federated training: clients, combiners, reducer, rounds.

One communication round broadcasts the global weights, runs a local
training pass on every sampled client, aggregates each combiner's client
updates as a sample-count-weighted mean, and reduces the combiner models
into the next global model. Everything is driven by derived seeds, so a
whole run replays bit-for-bit.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, NumericError, check_field_types, error_context
from .metrics import MetricReport, evaluate_model
from .nn import (Hyperparams, PARAM_COUNT, adam_update, init_params, loss_and_gradient,
                 unflatten_params, weight_vector)
from .seeds import SAMPLING_SLOT, derive_seed

PLAIN = "plain"
SMOOTHED = "smoothed"
REDUCER_MODES = (PLAIN, SMOOTHED)


@dataclass
class ClientNode:
    """One simulated company: private data plus training knobs."""

    id: int
    local_data: Dataset
    hyper: Hyperparams
    combiner_id: int

    def __post_init__(self):
        check_field_types(self, DataError)
        if self.id < 0:
            raise DataError(f"client ids must be non-negative ints, not {self.id!r}")


@dataclass(frozen=True)
class ModelUpdate:
    """A client's trained weights plus the sample count behind them."""

    client_id: int
    weights: np.ndarray
    sample_count: int

    def __post_init__(self):
        check_field_types(self, DataError)
        if self.sample_count < 1:
            raise DataError("sample_count must be positive")


@dataclass
class FederationTopology:
    """Reducer (implicit singleton), combiner ids, and client assignments."""

    combiners: tuple[int, ...]
    clients: tuple[ClientNode, ...]

    def __post_init__(self):
        check_field_types(self, DataError)
        if not self.combiners or not self.clients:
            raise DataError("topology needs at least one combiner and one client")
        self._by_id = {c.id: c for c in self.clients}
        if len(self._by_id) != len(self.clients):
            raise DataError("client ids must be unique")
        known = set(self.combiners)
        if len(known) != len(self.combiners):
            raise DataError("combiner ids must be unique")
        for client in self.clients:
            if client.combiner_id not in known:
                raise DataError(
                    f"client {client.id} maps to unknown combiner {client.combiner_id}"
                )
        if {c.combiner_id for c in self.clients} != known:
            raise DataError("every combiner must have at least one client")

    def client_by_id(self, client_id: int) -> ClientNode:
        return self._by_id[client_id]


@dataclass(frozen=True)
class RoundConfig:
    rounds: int = 100
    client_fraction: float = 1.0
    seed: int = 0
    reducer_mode: str = PLAIN

    def __post_init__(self):
        check_field_types(self)
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ConfigError("client_fraction must be in (0, 1]")
        if self.reducer_mode not in REDUCER_MODES:
            raise ConfigError(f"reducer_mode must be one of {REDUCER_MODES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class RoundLog:
    """Global-model health after one communication round."""

    round: int
    weights_checksum: str
    report: MetricReport
    participants: tuple[int, ...]


def weights_checksum(values: np.ndarray) -> str:
    return hashlib.sha256(weight_vector(values).astype("<f8", copy=False).tobytes()).hexdigest()


def client_update(client: ClientNode, weights, update_seed: int) -> ModelUpdate:
    """One local training pass: shuffle once, batch once, run the epochs.

    The incoming weights are copied once, the local data is shuffled with
    the round-scoped seed and partitioned into batches (final short batch
    kept), and each batch triggers one in-place Adam step on the copy per
    local epoch. The gradient buffer and the Adam moments are allocated once
    per pass; optimizer state starts fresh and only weights leave the client.
    """
    values = np.array(weights, dtype=float)
    params = unflatten_params(values)  # checks the length
    data = client.local_data
    hyper = client.hyper
    order = np.random.default_rng(update_seed).permutation(len(data))
    features, labels = data.features[order], data.labels[order]
    batches = [(features[start:start + hyper.batch_size], labels[start:start + hyper.batch_size])
               for start in range(0, len(data), hyper.batch_size)]

    grad, m, v = np.zeros((3, PARAM_COUNT))
    grad_views = unflatten_params(grad)
    epochs = (batch for _ in range(hyper.local_epochs) for batch in batches)
    for step, (X, y) in enumerate(epochs, start=1):
        loss_and_gradient(X, y, params, grad_views)
        adam_update(values, grad, m, v, step, hyper.learning_rate)
    if not np.all(np.isfinite(values)):  # an overflow while float errors are ignored
        raise NumericError(f"client {client.id}: training produced non-finite weights")
    return ModelUpdate(client_id=client.id, weights=values, sample_count=len(data))


def _weighted_mean(vectors, weights) -> np.ndarray:
    """Weighted mean of equal-length vectors, accumulated in the given order.

    The sum is clipped into the coordinatewise input envelope: the exact
    weighted mean always lies inside it, so the clip only removes float
    rounding, and identical inputs come back bit for bit.
    """
    if not vectors:
        raise DataError("cannot average zero weight vectors")
    if any(v.shape != vectors[0].shape for v in vectors):
        raise DataError("all weight vectors must share one length")
    total = sum(weights)
    acc = (weights[0] / total) * vectors[0]
    low, high = vectors[0].copy(), vectors[0].copy()
    for vector, weight in zip(vectors[1:], weights[1:]):
        acc += (weight / total) * vector
        np.minimum(low, vector, out=low)
        np.maximum(high, vector, out=high)
    return np.clip(acc, low, high, out=acc)


def combiner_aggregate(updates) -> np.ndarray:
    """Sample-count-weighted mean of client updates, in client-id order,
    so arrival order never matters."""
    updates = sorted(updates, key=lambda u: u.client_id)
    return _weighted_mean([u.weights for u in updates], [u.sample_count for u in updates])


def reducer_reduce(combiner_models, prev_global, t: int, mode: str = PLAIN) -> np.ndarray:
    """Compose combiner models into the next global weights.

    `plain` takes the unweighted mean (combiners already applied sample
    weighting internally), through the same mean as the combiners.
    `smoothed` additionally blends it into the previous global model as a
    streaming average: prev + (mean - prev)/t.
    """
    if t < 1:
        raise DataError("round index t must be >= 1")
    if mode not in REDUCER_MODES:
        raise DataError(f"unknown reducer mode {mode!r}")
    models = list(combiner_models)
    mean = _weighted_mean(models, [1] * len(models))
    if mode == PLAIN:
        return mean
    prev = np.asarray(prev_global, dtype=float)
    if prev.shape != mean.shape:
        raise DataError("previous global weights must match model length")
    return prev + (mean - prev) / t


def sample_clients(topology: FederationTopology, fraction: float, round_seed: int) -> list[int]:
    """Pick max(1, round(fraction * N)) client ids uniformly, sorted."""
    if not 0.0 < fraction <= 1.0:
        raise DataError("fraction must be in (0, 1]")
    ids = sorted(c.id for c in topology.clients)
    count = max(1, int(math.floor(fraction * len(ids) + 0.5)))
    rng = np.random.default_rng(round_seed)
    chosen = rng.choice(len(ids), size=count, replace=False)
    return sorted(ids[i] for i in chosen)


def run_federation(topology: FederationTopology, config: RoundConfig, test_set: Dataset):
    """Drive the round loop; returns (round logs, final global weights).

    Per round: sample clients; each combiner in ascending id trains its
    sampled clients on the broadcast weights and averages them before the
    next one starts; then reduce, and score the new global model on the
    held-out test set. Combiners with no sampled client skip the round.
    Any error aborts the run with the round attached.
    """
    values = init_params(config.seed)
    logs: list[RoundLog] = []
    for t in range(1, config.rounds + 1):
        with error_context(f"round {t}"):
            selected = sample_clients(
                topology, config.client_fraction, derive_seed(config.seed, t, SAMPLING_SLOT)
            )
            clients = sorted(map(topology.client_by_id, selected), key=lambda c: c.combiner_id)
            combiner_models = [
                combiner_aggregate([client_update(c, values, derive_seed(config.seed, t, c.id))
                                    for c in group])
                for _, group in itertools.groupby(clients, key=lambda c: c.combiner_id)]
            values = reducer_reduce(combiner_models, values, t, config.reducer_mode)
            report = evaluate_model(values, test_set)
        logs.append(RoundLog(round=t, weights_checksum=weights_checksum(values),
                             report=report, participants=tuple(selected)))
    return logs, values
