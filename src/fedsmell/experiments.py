"""Experiment runners: centralized baseline, cross-evaluation, federation, synth.

Each runner consumes a resolved ExperimentConfig and returns a RunResult:
its accuracy cells and, for the federated runner, the per-round logs and
the final global weights. Training runners prepare every source before any
training starts. `run_experiment` dispatches and writes all outputs
(rounds.csv, summary.json, config.resolved.json, model.fwv).
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import data as datamod
from .config import CENTRALIZED, CROSS_EVAL, FEDERATED, SYNTH, ExperimentConfig
from .errors import ConfigError, DataError, error_context, temp_name, write_output
from .federation import ClientNode, FederationTopology, client_update, iter_rounds
from .metrics import evaluate_model
from .nn import Hyperparams, init_params, save_weights
from .seeds import PARTITION_SLOT, REBALANCE_SLOT, SPLIT_SLOT, SYNTH_SLOT, derive_seed


@dataclass
class PreparedSource:
    """One ingested dataset: normalized train/test splits plus raw form."""

    raw: datamod.Dataset
    train: datamod.Dataset  # rebalanced + normalized
    test: datamod.Dataset  # normalized with the train stats
    stats: datamod.NormalizationStats


@dataclass
class RunResult:
    """What a run determined: accuracy cells, one per (train_source,
    eval_source) pair, plus the federated run's rounds and final model."""

    rows: list[dict]
    round_logs: list = field(default_factory=list)
    final_weights: np.ndarray | None = None


def _cell(train_source: str, eval_source: str, accuracy_pct: float) -> dict:
    return {"train_source": train_source, "eval_source": eval_source,
            "accuracy_pct": accuracy_pct}


def _require_both_classes(test: datamod.Dataset) -> None:
    """ROC needs both classes in a scored set, kappa does not; check before training."""
    for cls, count in enumerate(test.class_counts()):
        if count == 0:
            raise DataError(f"test set {test.name!r} has no samples of class {cls}, "
                            "so it cannot be scored")


def prepare_source(path, cfg: ExperimentConfig, index: int) -> PreparedSource:
    """Load, split, rebalance the train side, and z-score with train stats,
    all in the `dataset <path>` stage."""
    with error_context(f"dataset {path}"):
        raw = datamod.load_csv(path)
        train, test = datamod.split_train_test(raw, cfg.test_fraction,
                                               derive_seed(cfg.seed, 0, SPLIT_SLOT + index))
        train = datamod.rebalance(train, cfg.rebalance,
                                  derive_seed(cfg.seed, 0, REBALANCE_SLOT + index))
        stats = datamod.fit_normalizer(train)
        return PreparedSource(raw=raw, train=datamod.apply_normalizer(train, stats),
                              test=datamod.apply_normalizer(test, stats), stats=stats)


def _prepare_all(cfg: ExperimentConfig) -> list[PreparedSource]:
    """Prepare every source before any training."""
    return [prepare_source(path, cfg, index) for index, path in enumerate(cfg.datasets)]


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


def run_centralized(cfg: ExperimentConfig) -> RunResult:
    """Train one model per dataset and score it on that dataset's test split."""
    sources = _prepare_all(cfg)
    for path, source in zip(cfg.datasets, sources):
        with error_context(f"dataset {path}"):
            _require_both_classes(source.test)
    rows = []
    for path, source in zip(cfg.datasets, sources):
        with error_context(f"dataset {path}"):
            weights = train_centralized(source.train, cfg, cfg.rounds, cfg.seed)
            report = evaluate_model(weights, source.test)
        rows.append(_cell(source.raw.name, source.raw.name, report.accuracy_pct))
    return RunResult(rows)


def run_cross_eval(cfg: ExperimentConfig) -> RunResult:
    """Train per dataset, evaluate each model on the other full datasets.

    Foreign datasets are normalized with the *trainer's* statistics; their
    own statistics are never consulted.
    """
    sources = _prepare_all(cfg)
    rows = []
    for trainer_path, trainer in zip(cfg.datasets, sources):
        with error_context(f"dataset {trainer_path}"):
            weights = train_centralized(trainer.train, cfg, cfg.rounds, cfg.seed)
        for path, other in zip(cfg.datasets, sources):
            if other is trainer:
                continue
            with error_context(f"dataset {path}"):
                foreign = datamod.apply_normalizer(other.raw, trainer.stats)
                report = evaluate_model(weights, foreign)
            rows.append(_cell(trainer.raw.name, other.raw.name, report.accuracy_pct))
    return RunResult(rows)


def build_federated_clients(sources, cfg: ExperimentConfig):
    """Partition each source's train split into chunks and assign combiners."""
    chunk_sets = []
    for index, (path, source) in enumerate(zip(cfg.datasets, sources)):
        with error_context(f"dataset {path}"):
            chunks = datamod.partition_chunks(source.train, cfg.chunks[index],
                                              derive_seed(cfg.seed, 0, PARTITION_SLOT + index))
        chunk_sets.extend(datamod.extract_chunks(source.train, chunks))

    assignment = []
    for combiner_id, count in enumerate(cfg.combiner_clients):
        assignment.extend([combiner_id] * count)
    clients = tuple(
        ClientNode(id=i, local_data=chunk, hyper=cfg, combiner_id=assignment[i])
        for i, chunk in enumerate(chunk_sets)
    )
    return FederationTopology(combiners=tuple(range(len(cfg.combiner_clients))), clients=clients)


def run_federated(cfg: ExperimentConfig) -> RunResult:
    """Full federated run: round logs and final weights.

    Clients are the shuffled chunks of each dataset's train split; the
    global model is scored every round on the pooled union of the
    per-dataset test splits, so the last round's report is the final one.
    """
    sources = _prepare_all(cfg)
    topology = build_federated_clients(sources, cfg)
    pooled_test = datamod.concat_datasets("pooled-test", [s.test for s in sources])
    del sources  # the clients and the pooled test own copies of what training needs
    _require_both_classes(pooled_test)
    logs, final_weights = [], None
    for log, final_weights in iter_rounds(topology, cfg, pooled_test):
        logs.append(log)
    return RunResult([_cell("federated", pooled_test.name, logs[-1].report.accuracy_pct)],
                     round_logs=logs, final_weights=final_weights)


def run_synth(cfg: ExperimentConfig) -> RunResult:
    """Generate the configured synthetic company datasets as CSV files."""
    out_dir = Path(cfg.out_dir)
    rows = []
    for index, name in enumerate(cfg.datasets):
        try:
            dataset = datamod.synth_generate(
                cfg.synth_samples, cfg.synth_positive_rate,
                datamod.domain_shift(cfg.synth_shifts[index]),
                derive_seed(cfg.seed, 0, SYNTH_SLOT + index), name=name)
        except (ValueError, MemoryError) as exc:  # numpy cannot allocate that many rows
            raise ConfigError(f"cannot generate {cfg.synth_samples} synth samples: {exc}") from exc
        datamod.save_csv(dataset, out_dir / f"{name}.csv")
        _, positives = dataset.class_counts()
        rows.append(_cell(name, str(out_dir / f"{name}.csv"), 100.0 * positives / len(dataset)))
    return RunResult(rows)


def write_rounds_csv(logs, path) -> None:
    """Experiment-level round CSV with the extra kappa_pct column, CRLF line ends."""
    lines = ["round,loss,accuracy,kappa,kappa_pct,roc_auc,participants\r\n"] + [
        "{},{!r},{!r},{!r},{!r},{!r},{}\r\n".format(
            log.round, log.report.mean_loss, log.report.accuracy_pct, log.report.kappa,
            log.report.kappa * 100.0, log.report.roc_auc, ";".join(map(str, log.participants)))
        for log in logs]
    write_output(path, lambda fh: fh.writelines(lines))


def _write_json(obj, path) -> None:
    write_output(path, lambda fh: fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n"))


def emit_outputs(cfg: ExperimentConfig, result: RunResult) -> None:
    """Write the federated rounds.csv and model.fwv, then summary.json, into
    cfg.out_dir, each whole or not at all: a summary.json marks a finished run."""
    out_dir = Path(cfg.out_dir)
    if result.round_logs:  # a federated run, which also set final_weights
        write_rounds_csv(result.round_logs, out_dir / "rounds.csv")
        save_weights(out_dir / "model.fwv", result.final_weights)
    summary = {
        "experiment": cfg.kind,
        "cells": result.rows,
        "final": asdict(result.round_logs[-1].report) if result.round_logs else None,
    }
    _write_json(summary, out_dir / "summary.json")


_RUNNERS = {CENTRALIZED: run_centralized, CROSS_EVAL: run_cross_eval,
            FEDERATED: run_federated, SYNTH: run_synth}
# What a run replaces in out_dir, summary first: a summary.json marks a
# finished run, so no earlier run's output may survive into this one.
_OUTPUTS = ("summary.json", "config.resolved.json", "rounds.csv", "model.fwv")


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Refuse a dataset among the outputs or at their temp names, create the output
    directory and lock it for this run, clear the earlier outputs (and the CSVs a synth
    run writes) and write config.resolved.json first, so out_dir describes the last run
    attempted, then run and write the other outputs; a directory that cannot be made,
    locked or written to is a ConfigError."""
    out_dir = Path(cfg.out_dir)
    outputs = [out_dir / name for name in _OUTPUTS]
    replaced = {os.path.realpath(path) for output in outputs
                for path in (output, temp_name(output))}
    # synth writes each dataset to out_dir, and clears it with the outputs
    written = [out_dir / f"{entry}.csv" for entry in cfg.datasets] if cfg.kind == SYNTH else []
    for path in written if cfg.kind == SYNTH else cfg.datasets:  # the file each dataset names
        if os.path.realpath(path) in replaced:
            raise ConfigError(f"dataset {path} is an output that this run replaces")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        lock = os.open(out_dir, os.O_RDONLY)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    try:
        try:  # held until the run ends; released when the fd is closed
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as exc:
            raise ConfigError(f"output directory {cfg.out_dir} is in use by another run") from exc
        try:
            for path in outputs + written:
                path.unlink(missing_ok=True)
        except BaseException:  # stopped or failed part way: once no summary.json
            if not os.path.lexists(out_dir / "summary.json"):  # marks a run, try each again
                for path in outputs + written:
                    with suppress(OSError):
                        path.unlink(missing_ok=True)
            raise
        _write_json(asdict(cfg), out_dir / "config.resolved.json")
        result = _RUNNERS[cfg.kind](cfg)
        emit_outputs(cfg, result)
    except OSError as exc:  # datasets are read through load_csv, which raises DataError
        raise ConfigError(f"cannot write outputs to {cfg.out_dir}: {exc}") from exc
    finally:
        os.close(lock)
    return result
