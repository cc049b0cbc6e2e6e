"""Experiment runners: centralized baseline, cross-evaluation, federation, synth.

Each runner consumes a resolved ExperimentConfig and produces a summary
table; the federated runner additionally produces per-round logs and the
final global weights. `run_experiment` dispatches and writes all outputs
(rounds.csv, summary.json, config.resolved.json, model.fwv).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as datamod
from .config import CENTRALIZED, CROSS_EVAL, FEDERATED, SYNTH, ExperimentConfig
from .errors import ConfigError, FedsmellError
from .federation import (ClientNode, FederationTopology, RoundConfig, client_update,
                         run_federation)
from .metrics import MetricReport, evaluate_model
from .nn import Hyperparams, flatten_params, init_params, save_weights
from .seeds import derive_seed

# Preprocessing stages draw from round slot 0, which the round loop never
# uses (rounds are 1-based); the offsets keep the stages independent.
_SPLIT_OFFSET = 100
_REBALANCE_OFFSET = 200
_PARTITION_OFFSET = 300
_SYNTH_OFFSET = 400


@dataclass
class SummaryTable:
    """Accuracy cells, one row per (train_source, eval_source) pair."""

    rows: list[dict] = field(default_factory=list)

    def add(self, train_source: str, eval_source: str, accuracy_pct: float) -> None:
        self.rows.append({
            "train_source": train_source,
            "eval_source": eval_source,
            "accuracy_pct": accuracy_pct,
        })


@dataclass
class PreparedSource:
    """One ingested dataset: normalized train/test splits plus raw form."""

    name: str
    raw: datamod.Dataset
    train: datamod.Dataset  # rebalanced + normalized
    test: datamod.Dataset  # normalized with the train stats
    stats: datamod.NormalizationStats


@dataclass
class RunResult:
    config: ExperimentConfig
    table: SummaryTable
    round_logs: list = field(default_factory=list)
    final_weights: np.ndarray | None = None
    final_report: MetricReport | None = None
    wall_clock_seconds: float = 0.0


def _hyper(cfg: ExperimentConfig) -> Hyperparams:
    return Hyperparams(learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
                       local_epochs=cfg.local_epochs)


def prepare_source(path, cfg: ExperimentConfig, index: int) -> PreparedSource:
    """Load, split, rebalance the train side, and z-score with train stats."""
    raw = datamod.load_csv(path)
    train, test = datamod.split_train_test(
        raw, cfg.test_fraction, derive_seed(cfg.seed, 0, _SPLIT_OFFSET + index)
    )
    train = datamod.rebalance(
        train, cfg.rebalance, derive_seed(cfg.seed, 0, _REBALANCE_OFFSET + index)
    )
    stats = datamod.fit_normalizer(train)
    return PreparedSource(
        name=raw.name,
        raw=raw,
        train=datamod.apply_normalizer(train, stats),
        test=datamod.apply_normalizer(test, stats),
        stats=stats,
    )


def train_centralized(train: datamod.Dataset, hyper: Hyperparams, passes: int,
                      seed: int) -> np.ndarray:
    """Repeated single-node training passes; returns the final flat weights.

    Each pass is one client-update call, so a one-client federation and
    this loop walk the exact same parameter trajectory.
    """
    client = ClientNode(id=0, local_data=train, hyper=hyper, combiner_id=0)
    values = flatten_params(init_params(seed))
    for t in range(1, passes + 1):
        values = client_update(client, values, derive_seed(seed, t, 0)).weights
    return values


def run_centralized(cfg: ExperimentConfig) -> SummaryTable:
    """Train one model per dataset and score it on that dataset's test split."""
    table = SummaryTable()
    hyper = _hyper(cfg)
    for index, path in enumerate(cfg.datasets):
        try:
            source = prepare_source(path, cfg, index)
            weights = train_centralized(source.train, hyper, cfg.rounds, cfg.seed)
            report = evaluate_model(weights, source.test)
        except FedsmellError as exc:
            raise type(exc)(f"dataset {path}: {exc}") from exc
        table.add(source.name, source.name, report.accuracy_pct)
    return table


def run_cross_eval(cfg: ExperimentConfig) -> SummaryTable:
    """Train per dataset, evaluate each model on the two other full datasets.

    Foreign datasets are normalized with the *trainer's* statistics; their
    own statistics are never consulted.
    """
    if len(cfg.datasets) != 3:
        raise ConfigError("cross_eval requires exactly 3 datasets")
    hyper = _hyper(cfg)
    sources = []
    models = []
    for index, path in enumerate(cfg.datasets):
        try:
            source = prepare_source(path, cfg, index)
            models.append(train_centralized(source.train, hyper, cfg.rounds, cfg.seed))
        except FedsmellError as exc:
            raise type(exc)(f"dataset {path}: {exc}") from exc
        sources.append(source)

    table = SummaryTable()
    for i, trainer in enumerate(sources):
        for j, other in enumerate(sources):
            if i == j:
                continue
            try:
                foreign = datamod.apply_normalizer(other.raw, trainer.stats)
                report = evaluate_model(models[i], foreign)
            except FedsmellError as exc:
                raise type(exc)(f"dataset {cfg.datasets[j]}: {exc}") from exc
            table.add(trainer.name, other.name, report.accuracy_pct)
    return table


def build_federated_clients(sources, cfg: ExperimentConfig):
    """Partition each source's train split into chunks and assign combiners."""
    hyper = _hyper(cfg)
    chunk_sets = []
    for index, source in enumerate(sources):
        plan = datamod.partition_chunks(
            source.train, cfg.chunks[index], derive_seed(cfg.seed, 0, _PARTITION_OFFSET + index)
        )
        chunk_sets.extend(datamod.extract_chunks(source.train, plan))

    assignment = []
    for combiner_id, count in enumerate(cfg.combiner_clients):
        assignment.extend([combiner_id] * count)
    clients = tuple(
        ClientNode(id=i, local_data=chunk, hyper=hyper, combiner_id=assignment[i])
        for i, chunk in enumerate(chunk_sets)
    )
    return FederationTopology(combiners=tuple(range(len(cfg.combiner_clients))), clients=clients)


def run_federated(cfg: ExperimentConfig):
    """Full federated run; returns (table, round logs, final weights, report).

    Clients are the shuffled chunks of each dataset's train split; the
    global model is scored every round on the pooled union of the
    per-dataset test splits.
    """
    sources = []
    for index, path in enumerate(cfg.datasets):
        try:
            sources.append(prepare_source(path, cfg, index))
        except FedsmellError as exc:
            raise type(exc)(f"dataset {path}: {exc}") from exc

    topology = build_federated_clients(sources, cfg)
    pooled_test = datamod.concat_datasets("pooled-test", [s.test for s in sources])
    round_config = RoundConfig(rounds=cfg.rounds, client_fraction=cfg.client_fraction,
                               seed=cfg.seed, reducer_mode=cfg.reducer_mode)
    logs, final_weights = run_federation(topology, round_config, pooled_test)
    report = evaluate_model(final_weights, pooled_test)

    table = SummaryTable()
    table.add("federated", pooled_test.name, report.accuracy_pct)
    return table, logs, final_weights, report


def run_synth(cfg: ExperimentConfig) -> SummaryTable:
    """Generate the configured synthetic company datasets as CSV files."""
    out_dir = Path(cfg.out_dir)
    table = SummaryTable()
    for index, name in enumerate(cfg.datasets):
        dataset = datamod.synth_generate(
            cfg.synth_samples,
            cfg.synth_positive_rate,
            datamod.domain_shift(cfg.synth_shifts[index]),
            derive_seed(cfg.seed, 0, _SYNTH_OFFSET + index),
            name=name,
        )
        datamod.save_csv(dataset, out_dir / f"{name}.csv")
        _, positives = dataset.class_counts()
        table.add(name, str(out_dir / f"{name}.csv"), 100.0 * positives / len(dataset))
    return table


def write_rounds_csv(logs, path) -> None:
    """Experiment-level round CSV with the extra kappa_pct column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "loss", "accuracy", "kappa", "kappa_pct",
                         "roc_auc", "participants"])
        for log in logs:
            writer.writerow([
                log.round, repr(log.loss), repr(log.accuracy), repr(log.kappa),
                repr(log.kappa * 100.0), repr(log.roc_auc),
                ";".join(str(i) for i in log.participants),
            ])


def emit_outputs(out_dir, result: RunResult) -> None:
    """Write config.resolved.json, summary.json, and federated artifacts."""
    out_dir = Path(out_dir)
    with open(out_dir / "config.resolved.json", "w", encoding="utf-8") as fh:
        json.dump(result.config.to_resolved_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary = {
        "experiment": result.config.kind,
        "cells": result.table.rows,
        "final": result.final_report.to_json() if result.final_report else None,
        "wall_clock_seconds": result.wall_clock_seconds,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.round_logs:
        write_rounds_csv(result.round_logs, out_dir / "rounds.csv")
    if result.final_weights is not None:
        save_weights(out_dir / "model.fwv", result.final_weights)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Create the output directory, run the experiment, and write all outputs."""
    try:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    started = time.perf_counter()
    if cfg.kind == CENTRALIZED:
        result = RunResult(config=cfg, table=run_centralized(cfg))
    elif cfg.kind == CROSS_EVAL:
        result = RunResult(config=cfg, table=run_cross_eval(cfg))
    elif cfg.kind == FEDERATED:
        table, logs, weights, report = run_federated(cfg)
        result = RunResult(config=cfg, table=table, round_logs=logs,
                           final_weights=weights, final_report=report)
    elif cfg.kind == SYNTH:
        result = RunResult(config=cfg, table=run_synth(cfg))
    else:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    result.wall_clock_seconds = time.perf_counter() - started
    emit_outputs(cfg.out_dir, result)
    return result
