"""Hierarchical federated training: clients, combiners, reducer, rounds.

One communication round broadcasts the global weights, runs a local
training pass on every sampled client, aggregates each combiner's client
updates as a sample-count-weighted mean, and reduces the combiner models
into the next global model. Everything is driven by derived seeds, so a
whole run replays bit-for-bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import FedsmellError, StructuralError
from .metrics import MetricReport, evaluate_model
from .nn import (Hyperparams, PARAM_COUNT, adam_update, flatten_params, init_params,
                 loss_and_gradient, unflatten_params)
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
        if self.id < 0:
            raise StructuralError("client ids must be non-negative")
        if len(self.local_data) == 0:
            raise StructuralError(f"client {self.id} has no local data")


@dataclass(frozen=True)
class ModelUpdate:
    """A client's trained weights plus the sample count behind them."""

    client_id: int
    weights: np.ndarray
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise StructuralError("sample_count must be positive")


@dataclass
class FederationTopology:
    """Reducer (implicit singleton), combiner ids, and client assignments."""

    combiners: tuple[int, ...]
    clients: tuple[ClientNode, ...]

    def __post_init__(self):
        self.combiners = tuple(self.combiners)
        self.clients = tuple(self.clients)
        if not self.combiners or not self.clients:
            raise StructuralError("topology needs at least one combiner and one client")
        ids = [c.id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise StructuralError("client ids must be unique")
        known = set(self.combiners)
        if len(known) != len(self.combiners):
            raise StructuralError("combiner ids must be unique")
        used = set()
        for client in self.clients:
            if client.combiner_id not in known:
                raise StructuralError(
                    f"client {client.id} maps to unknown combiner {client.combiner_id}"
                )
            used.add(client.combiner_id)
        if used != known:
            raise StructuralError("every combiner must have at least one client")
        self._by_id = {c.id: c for c in self.clients}

    def client_by_id(self, client_id: int) -> ClientNode:
        return self._by_id[client_id]

    def client_ids(self) -> list[int]:
        return sorted(self._by_id)


@dataclass(frozen=True)
class RoundConfig:
    rounds: int = 100
    client_fraction: float = 1.0
    seed: int = 0
    reducer_mode: str = PLAIN

    def __post_init__(self):
        if self.rounds < 1:
            raise StructuralError("rounds must be >= 1")
        if not 0.0 < self.client_fraction <= 1.0:
            raise StructuralError("client_fraction must be in (0, 1]")
        if self.reducer_mode not in REDUCER_MODES:
            raise StructuralError(f"reducer_mode must be one of {REDUCER_MODES}")
        if self.seed < 0:
            raise StructuralError("seed must be >= 0")


@dataclass(frozen=True)
class RoundLog:
    """Global-model health after one communication round."""

    round: int
    weights_checksum: str
    report: MetricReport
    participants: tuple[int, ...]


def weights_checksum(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def client_update(client: ClientNode, weights, update_seed: int) -> ModelUpdate:
    """One local training pass: shuffle once, batch once, run the epochs.

    The incoming weights are copied once, the local data is shuffled with
    the round-scoped seed and partitioned into batches (final short batch
    kept), and each batch triggers one in-place Adam step on the copy per
    local epoch. Optimizer state starts fresh; only weights leave the client.
    """
    values = np.array(weights, dtype=float)
    if values.shape != (PARAM_COUNT,):
        raise StructuralError(
            f"weight vector must have length {PARAM_COUNT}, got shape {values.shape}"
        )
    data = client.local_data
    hyper = client.hyper
    order = np.random.default_rng(update_seed).permutation(len(data))
    batches = [order[start:start + hyper.batch_size]
               for start in range(0, len(data), hyper.batch_size)]

    params = unflatten_params(values)
    m = np.zeros(PARAM_COUNT)
    v = np.zeros(PARAM_COUNT)
    for step, batch_idx in enumerate(batches * hyper.local_epochs, start=1):
        _, grad = loss_and_gradient(data.features[batch_idx], data.labels[batch_idx], params)
        adam_update(values, grad, m, v, step, hyper.learning_rate)
    return ModelUpdate(client_id=client.id, weights=values, sample_count=len(data))


def combiner_aggregate(updates) -> np.ndarray:
    """Sample-count-weighted mean of client updates.

    Accumulates in client-id order so arrival order never matters, then
    clips into the coordinatewise input envelope: the exact weighted mean
    always lies inside it, so the clip only removes float rounding.
    """
    updates = sorted(updates, key=lambda u: u.client_id)
    if not updates:
        raise StructuralError("cannot aggregate zero updates")
    length = updates[0].weights.shape
    for u in updates:
        if u.weights.shape != length:
            raise StructuralError("all update weight vectors must share one length")
    total = sum(u.sample_count for u in updates)
    acc = (updates[0].sample_count / total) * updates[0].weights
    for u in updates[1:]:
        acc = acc + (u.sample_count / total) * u.weights
    if len(updates) == 1:
        return acc
    stacked = np.array([u.weights for u in updates])
    return np.clip(acc, stacked.min(axis=0), stacked.max(axis=0))


def reducer_reduce(combiner_models, prev_global, t: int, mode: str = PLAIN) -> np.ndarray:
    """Compose combiner models into the next global weights.

    `plain` takes the unweighted mean (combiners already applied sample
    weighting internally). `smoothed` additionally blends it into the
    previous global model as a streaming average: prev + (mean - prev)/t.
    """
    models = list(combiner_models)
    if not models:
        raise StructuralError("cannot reduce zero combiner models")
    if t < 1:
        raise StructuralError("round index t must be >= 1")
    if mode not in REDUCER_MODES:
        raise StructuralError(f"unknown reducer mode {mode!r}")
    shape = models[0].shape
    for m in models:
        if m.shape != shape:
            raise StructuralError("combiner models must share one length")
    mean = models[0] if len(models) == 1 else np.sum(models, axis=0) / len(models)
    mean = np.asarray(mean, dtype=float)
    if mode == PLAIN:
        return mean
    prev = np.asarray(prev_global, dtype=float)
    if prev.shape != shape:
        raise StructuralError("previous global weights must match model length")
    return prev + (mean - prev) / t


def sample_clients(topology: FederationTopology, fraction: float, round_seed: int) -> list[int]:
    """Pick max(1, round(fraction * N)) client ids uniformly, sorted."""
    if not 0.0 < fraction <= 1.0:
        raise StructuralError("fraction must be in (0, 1]")
    ids = topology.client_ids()
    count = max(1, int(math.floor(fraction * len(ids) + 0.5)))
    if count >= len(ids):
        return ids
    rng = np.random.default_rng(round_seed)
    chosen = rng.choice(len(ids), size=count, replace=False)
    return sorted(ids[i] for i in chosen)


def run_federation(topology: FederationTopology, config: RoundConfig, test_set: Dataset):
    """Drive the round loop; returns (round logs, final global weights).

    Per round: sample clients, run their local updates on the broadcast
    weights, aggregate per combiner, reduce, and score the new global
    model on the held-out test set. Combiners with no sampled client skip
    the round. Any error aborts the run with the round attached.
    """
    if len(test_set) == 0:
        raise StructuralError("test set must be nonempty")
    values = flatten_params(init_params(config.seed))
    logs: list[RoundLog] = []
    for t in range(1, config.rounds + 1):
        try:
            selected = sample_clients(
                topology, config.client_fraction, derive_seed(config.seed, t, SAMPLING_SLOT)
            )
            by_combiner: dict[int, list[ModelUpdate]] = {}
            for client_id in selected:
                client = topology.client_by_id(client_id)
                update = client_update(client, values, derive_seed(config.seed, t, client_id))
                by_combiner.setdefault(client.combiner_id, []).append(update)
            combiner_models = [combiner_aggregate(by_combiner[cid])
                               for cid in sorted(by_combiner)]
            values = reducer_reduce(combiner_models, values, t, config.reducer_mode)
            report = evaluate_model(values, test_set)
        except FedsmellError as exc:
            raise type(exc)(f"round {t}: {exc}") from exc
        logs.append(RoundLog(round=t, weights_checksum=weights_checksum(values),
                             report=report, participants=tuple(selected)))
    return logs, values
