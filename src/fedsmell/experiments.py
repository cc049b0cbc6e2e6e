"""Experiment runners: centralized baseline, cross-evaluation, federation, synth.

Each runner consumes a resolved ExperimentConfig and returns a RunResult:
its accuracy cells and, for the federated runner, the per-round logs and
the final global weights. Training runners prepare every source before any
training starts. `run_experiment` dispatches and writes all outputs
(rounds.csv, summary.json, config.resolved.json, model.fwv).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import data as datamod
from .config import CENTRALIZED, CROSS_EVAL, FEDERATED, SYNTH, ExperimentConfig
from .errors import ConfigError, DataError, error_context
from .federation import ClientNode, FederationTopology, client_update, run_federation
from .metrics import evaluate_model
from .nn import Hyperparams, init_params, save_weights
from .seeds import derive_seed

# Preprocessing stages draw from round slot 0, which the round loop never
# uses (rounds are 1-based); the offsets keep the stages independent.
_SPLIT_OFFSET = 100
_REBALANCE_OFFSET = 200
_PARTITION_OFFSET = 300
_SYNTH_OFFSET = 400


@dataclass
class PreparedSource:
    """One ingested dataset: normalized train/test splits plus raw form."""

    raw: datamod.Dataset
    train: datamod.Dataset  # rebalanced + normalized
    test: datamod.Dataset  # normalized with the train stats
    stats: datamod.NormalizationStats


@dataclass
class RunResult:
    """A runner's outputs: accuracy cells, one per (train_source,
    eval_source) pair, plus the federated run's rounds and final model."""

    config: ExperimentConfig
    rows: list[dict]
    round_logs: list = field(default_factory=list)
    final_weights: np.ndarray | None = None
    wall_clock_seconds: float = 0.0


def _cell(train_source: str, eval_source: str, accuracy_pct: float) -> dict:
    return {"train_source": train_source, "eval_source": eval_source,
            "accuracy_pct": accuracy_pct}


def _require_both_classes(test: datamod.Dataset) -> None:
    """Kappa and ROC need both classes in a scored set; check before training."""
    for cls, count in enumerate(test.class_counts()):
        if count == 0:
            raise DataError(f"test set {test.name!r} has no samples of class {cls}, "
                            "so it cannot be scored")


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
        raw=raw,
        train=datamod.apply_normalizer(train, stats),
        test=datamod.apply_normalizer(test, stats),
        stats=stats,
    )


def _prepare_all(cfg: ExperimentConfig, score_tests: bool) -> list[PreparedSource]:
    """Prepare every source before any training; with `score_tests`, also
    require each test split to hold both classes."""
    sources = []
    for index, path in enumerate(cfg.datasets):
        with error_context(f"dataset {path}"):
            source = prepare_source(path, cfg, index)
            if score_tests:
                _require_both_classes(source.test)
        sources.append(source)
    return sources


def train_centralized(train: datamod.Dataset, hyper: Hyperparams, passes: int,
                      seed: int) -> np.ndarray:
    """Repeated single-node training passes; returns the final flat weights.

    Each pass is one client-update call, so a one-client federation and
    this loop walk the exact same parameter trajectory.
    """
    client = ClientNode(id=0, local_data=train, hyper=hyper, combiner_id=0)
    values = init_params(seed)
    for t in range(1, passes + 1):
        values = client_update(client, values, derive_seed(seed, t, 0)).weights
    return values


def _train_each(cfg: ExperimentConfig, sources) -> list[np.ndarray]:
    hyper = cfg.hyperparams()
    models = []
    for path, source in zip(cfg.datasets, sources):
        with error_context(f"dataset {path}"):
            models.append(train_centralized(source.train, hyper, cfg.rounds, cfg.seed))
    return models


def run_centralized(cfg: ExperimentConfig) -> RunResult:
    """Train one model per dataset and score it on that dataset's test split."""
    sources = _prepare_all(cfg, score_tests=True)
    rows = []
    for path, source, weights in zip(cfg.datasets, sources, _train_each(cfg, sources)):
        with error_context(f"dataset {path}"):
            report = evaluate_model(weights, source.test)
        rows.append(_cell(source.raw.name, source.raw.name, report.accuracy_pct))
    return RunResult(cfg, rows)


def run_cross_eval(cfg: ExperimentConfig) -> RunResult:
    """Train per dataset, evaluate each model on the other full datasets.

    Foreign datasets are normalized with the *trainer's* statistics; their
    own statistics are never consulted.
    """
    sources = _prepare_all(cfg, score_tests=False)
    models = _train_each(cfg, sources)
    rows = []
    for trainer, weights in zip(sources, models):
        for path, other in zip(cfg.datasets, sources):
            if other is trainer:
                continue
            with error_context(f"dataset {path}"):
                foreign = datamod.apply_normalizer(other.raw, trainer.stats)
                report = evaluate_model(weights, foreign)
            rows.append(_cell(trainer.raw.name, other.raw.name, report.accuracy_pct))
    return RunResult(cfg, rows)


def build_federated_clients(sources, cfg: ExperimentConfig):
    """Partition each source's train split into chunks and assign combiners."""
    hyper = cfg.hyperparams()
    chunk_sets = []
    for index, (path, source) in enumerate(zip(cfg.datasets, sources)):
        with error_context(f"dataset {path}"):
            chunks = datamod.partition_chunks(source.train, cfg.chunks[index],
                                              derive_seed(cfg.seed, 0, _PARTITION_OFFSET + index))
        chunk_sets.extend(datamod.extract_chunks(source.train, chunks))

    assignment = []
    for combiner_id, count in enumerate(cfg.combiner_clients):
        assignment.extend([combiner_id] * count)
    clients = tuple(
        ClientNode(id=i, local_data=chunk, hyper=hyper, combiner_id=assignment[i])
        for i, chunk in enumerate(chunk_sets)
    )
    return FederationTopology(combiners=tuple(range(len(cfg.combiner_clients))), clients=clients)


def run_federated(cfg: ExperimentConfig) -> RunResult:
    """Full federated run: round logs and final weights.

    Clients are the shuffled chunks of each dataset's train split; the
    global model is scored every round on the pooled union of the
    per-dataset test splits, so the last round's report is the final one.
    """
    sources = _prepare_all(cfg, score_tests=False)
    topology = build_federated_clients(sources, cfg)
    pooled_test = datamod.concat_datasets("pooled-test", [s.test for s in sources])
    del sources  # the clients and the pooled test own copies of what training needs
    _require_both_classes(pooled_test)
    logs, final_weights = run_federation(topology, cfg.round_config(), pooled_test)
    return RunResult(cfg, [_cell("federated", pooled_test.name, logs[-1].report.accuracy_pct)],
                     round_logs=logs, final_weights=final_weights)


def run_synth(cfg: ExperimentConfig) -> RunResult:
    """Generate the configured synthetic company datasets as CSV files."""
    out_dir = Path(cfg.out_dir)
    rows = []
    for index, name in enumerate(cfg.datasets):
        try:
            dataset = datamod.synth_generate(
                cfg.synth_samples,
                cfg.synth_positive_rate,
                datamod.domain_shift(cfg.synth_shifts[index]),
                derive_seed(cfg.seed, 0, _SYNTH_OFFSET + index),
                name=name,
            )
        except (ValueError, MemoryError) as exc:  # numpy cannot allocate that many rows
            raise ConfigError(f"cannot generate {cfg.synth_samples} synth samples: {exc}") from exc
        _write_whole(out_dir / f"{name}.csv", lambda temp: datamod.save_csv(dataset, temp))
        _, positives = dataset.class_counts()
        rows.append(_cell(name, str(out_dir / f"{name}.csv"), 100.0 * positives / len(dataset)))
    return RunResult(cfg, rows)


def write_rounds_csv(logs, path) -> None:
    """Experiment-level round CSV with the extra kappa_pct column, CRLF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("round,loss,accuracy,kappa,kappa_pct,roc_auc,participants\r\n")
        for log in logs:
            r = log.report
            fh.write("{},{!r},{!r},{!r},{!r},{!r},{}\r\n".format(
                log.round, r.mean_loss, r.accuracy_pct, r.kappa, r.kappa * 100.0, r.roc_auc,
                ";".join(map(str, log.participants))))


def _write_whole(path: Path, write) -> None:
    """Make `path` through `write(temp)` on a temp name beside it and one
    os.replace, so the file is whole or absent; a failed write removes the
    temp file."""
    temp = path.with_name(f".{path.name}.tmp")
    try:
        write(temp)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_outputs(out_dir, result: RunResult) -> None:
    """Write the federated rounds.csv and model.fwv, then summary.json, each
    file whole or not at all: a summary.json marks a finished run."""
    out_dir = Path(out_dir)
    if result.round_logs:
        _write_whole(out_dir / "rounds.csv", lambda temp: write_rounds_csv(result.round_logs, temp))
    if result.final_weights is not None:
        _write_whole(out_dir / "model.fwv", lambda temp: save_weights(temp, result.final_weights))
    summary = {
        "experiment": result.config.kind,
        "cells": result.rows,
        "final": asdict(result.round_logs[-1].report) if result.round_logs else None,
        "wall_clock_seconds": result.wall_clock_seconds,
    }
    _write_whole(out_dir / "summary.json", lambda temp: _write_json(summary, temp))


_RUNNERS = {CENTRALIZED: run_centralized, CROSS_EVAL: run_cross_eval,
            FEDERATED: run_federated, SYNTH: run_synth}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Create the output directory, write config.resolved.json first, so out_dir
    describes the last run attempted, then run and write the other outputs; a
    directory that cannot be made or written to is a ConfigError."""
    try:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    started = time.perf_counter()
    try:
        # A summary.json marks a finished run, so no earlier run's output may survive into this one.
        for name in ("summary.json", "rounds.csv", "model.fwv"):
            (Path(cfg.out_dir) / name).unlink(missing_ok=True)
        _write_whole(Path(cfg.out_dir) / "config.resolved.json",
                     lambda temp: _write_json(asdict(cfg), temp))
        result = _RUNNERS[cfg.kind](cfg)
        result.wall_clock_seconds = time.perf_counter() - started
        emit_outputs(cfg.out_dir, result)
    except OSError as exc:  # datasets are read through load_csv, which raises DataError
        raise ConfigError(f"cannot write outputs to {cfg.out_dir}: {exc}") from exc
    return result
