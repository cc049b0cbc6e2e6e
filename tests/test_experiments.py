"""Experiment runners: centralized, cross-eval, federated, synth, outputs."""

import ast
import contextlib
import errno
import fcntl
import functools
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedsmell import cli, errors, experiments, federation, nn
from fedsmell import data as datamod
from fedsmell.cli import main
from fedsmell.config import ExperimentConfig, parse_config
from fedsmell.data import load_csv, save_csv
from fedsmell.errors import DataError, NumericError, error_context
from fedsmell.experiments import (prepare_source, run_centralized, run_cross_eval,
                                  run_experiment, run_federated, train_centralized)
from fedsmell.metrics import evaluate_model
from fedsmell.nn import Hyperparams, init_params
from fedsmell.seeds import SAMPLING_SLOT, derive_seed
from test_cli_errors import CLI_ERRORS, tree, write_inputs
from util import (child_env, count_training_passes, huge_column, line_fits_code, random_dataset,
                  sigterm_handler_kept, synth_csv)


def cfg_for(kind, datasets, out_dir, **overrides):
    base = dict(kind=kind, datasets=tuple(datasets), out_dir=str(out_dir),
                rounds=20, seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


# -------------------------------------------------------------- centralized

def test_centralized_learns_easy_synthetic_data(tmp_path):
    path = synth_csv(tmp_path, "easy", n=900, seed=1)
    cfg = cfg_for("centralized", [path], tmp_path / "out", rounds=25)
    table = run_centralized(cfg)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["train_source"] == "easy"
    assert row["eval_source"] == "easy"
    assert row["accuracy_pct"] >= 95.0


def test_centralized_trained_model_reaches_excellent_roc_band(tmp_path):
    path = synth_csv(tmp_path, "sep", n=900, seed=11)
    cfg = cfg_for("centralized", [path], tmp_path / "out", rounds=25)
    source = prepare_source(path, cfg, 0)
    weights = train_centralized(source.train, Hyperparams(), passes=25, seed=cfg.seed)
    report = evaluate_model(weights, source.test)
    assert report.accuracy_pct >= 95.0
    assert report.roc_band == "Excellent"


def test_prepare_source_normalizes_test_with_train_stats_only(tmp_path):
    path = synth_csv(tmp_path, "leak", n=400, seed=12)
    cfg = cfg_for("centralized", [path], tmp_path / "out")
    source = prepare_source(path, cfg, 0)

    # Rebuild the raw test split and transform it with the returned (train-
    # fitted) stats; the pipeline's test features must match exactly.
    from fedsmell.data import apply_normalizer, rebalance, split_train_test
    from fedsmell.seeds import REBALANCE_SLOT, SPLIT_SLOT
    raw = load_csv(path)
    train_raw, test_raw = split_train_test(
        raw, cfg.test_fraction, derive_seed(cfg.seed, 0, SPLIT_SLOT))
    assert np.array_equal(apply_normalizer(test_raw, source.stats).features,
                          source.test.features)
    # And the stats really come from the rebalanced train split, not the test.
    from fedsmell.data import fit_normalizer
    train_rb = rebalance(train_raw, cfg.rebalance, derive_seed(cfg.seed, 0, REBALANCE_SLOT))
    assert np.array_equal(fit_normalizer(train_rb).mean, source.stats.mean)


def test_centralized_zero_learning_rate_reports_frozen_model_accuracy(tmp_path):
    path = synth_csv(tmp_path, "frozen", n=400, seed=2)
    cfg = cfg_for("centralized", [path], tmp_path / "out", rounds=5, learning_rate=0.0)
    table = run_centralized(cfg)

    # lr = 0 leaves every weight at its seed value; the reported accuracy
    # must equal the untrained model's accuracy on the same test split.
    source = prepare_source(path, cfg, 0)
    frozen = init_params(cfg.seed)
    expected = evaluate_model(frozen, source.test).accuracy_pct
    assert table.rows[0]["accuracy_pct"] == expected

    trained = train_centralized(source.train, Hyperparams(learning_rate=0.0),
                                passes=5, seed=cfg.seed)
    assert np.array_equal(trained, frozen)


# --------------------------------------------------------------- cross-eval

def test_cross_eval_emits_six_off_diagonal_cells(tmp_path):
    paths = [synth_csv(tmp_path, name, seed=s)
             for name, s in (("p", 1), ("q", 2), ("r", 3))]
    cfg = cfg_for("cross_eval", paths, tmp_path / "out", rounds=15)
    table = run_cross_eval(cfg)
    assert len(table.rows) == 6
    pairs = {(row["train_source"], row["eval_source"]) for row in table.rows}
    assert pairs == {("p", "q"), ("p", "r"), ("q", "p"), ("q", "r"), ("r", "p"), ("r", "q")}


def test_cross_eval_same_distribution_matches_centralized(tmp_path):
    # Three draws from one distribution: foreign accuracy should track the
    # in-distribution centralized accuracy closely.
    paths = [synth_csv(tmp_path, f"same{i}", n=900, seed=30 + i) for i in range(3)]
    cfg = cfg_for("cross_eval", paths, tmp_path / "out", rounds=25)
    cross = run_cross_eval(cfg)
    central = run_centralized(cfg_for("centralized", paths, tmp_path / "out2", rounds=25))
    central_by_name = {row["train_source"]: row["accuracy_pct"] for row in central.rows}
    for row in cross.rows:
        assert abs(row["accuracy_pct"] - central_by_name[row["train_source"]]) <= 2.0


def test_cross_eval_normalizes_foreign_data_with_trainer_stats(tmp_path, monkeypatch):
    # Record every normalization call: each foreign evaluation must reuse the
    # exact stats object fitted on the trainer's train split.
    import fedsmell.experiments as exp
    calls = []
    original = exp.datamod.apply_normalizer

    def recording(dataset, stats):
        calls.append((dataset.name, stats))
        return original(dataset, stats)

    monkeypatch.setattr(exp.datamod, "apply_normalizer", recording)
    paths = [synth_csv(tmp_path, name, n=120, seed=80 + i)
             for i, name in enumerate(("t0", "t1", "t2"))]
    run_cross_eval(cfg_for("cross_eval", paths, tmp_path / "out", rounds=1))

    # First six calls: (train, test) per source, sharing one stats object.
    trainer_stats = {}
    for i in range(3):
        train_call, test_call = calls[2 * i], calls[2 * i + 1]
        assert train_call[1] is test_call[1]
        trainer_stats[train_call[0].removesuffix("-train")] = train_call[1]
    # Remaining calls: foreign datasets normalized with the trainer's object.
    foreign = calls[6:]
    assert len(foreign) == 6
    expected_trainers = ["t0", "t0", "t1", "t1", "t2", "t2"]
    for (name, stats), trainer in zip(foreign, expected_trainers):
        assert stats is trainer_stats[trainer]
        assert name != trainer


def test_cross_eval_cells_score_the_centralized_models_on_their_peers(tmp_path):
    # Each trainer's model is the one a centralized run of the same config
    # trains, bit for bit, scored on each peer under the trainer's stats.
    paths = [synth_csv(tmp_path, f"peer{i}", n=200, seed=40 + i, shift_magnitude=i)
             for i in range(3)]
    cfg = cfg_for("cross_eval", paths, tmp_path / "out", rounds=3)
    sources, expected = [prepare_source(path, cfg, i) for i, path in enumerate(paths)], []
    for i, trainer in enumerate(sources):
        weights = train_centralized(trainer.train, cfg, cfg.rounds, cfg.seed)
        for j, path in enumerate(paths):
            if j != i:
                peer = datamod.apply_normalizer(load_csv(path), trainer.stats)
                expected.append({"train_source": f"peer{i}", "eval_source": f"peer{j}",
                                 "accuracy_pct": evaluate_model(weights, peer).accuracy_pct})
    assert run_cross_eval(cfg).rows == expected


# ---------------------------------------------------------------- federated

def test_federated_clients_are_the_chunks_in_order_filling_the_combiners_in_order(tmp_path):
    # Client i is the i-th chunk, datasets in config order; combiner_clients
    # (1, 2) gives the first client to combiner 0 and the next two to combiner 1.
    paths = [synth_csv(tmp_path, f"d{i}", n=120, seed=i) for i in range(2)]
    cfg = cfg_for("federated", paths, tmp_path / "out", chunks=(2, 1), combiner_clients=(1, 2))
    sources = [prepare_source(path, cfg, i) for i, path in enumerate(paths)]
    topology = experiments.build_federated_clients(sources, cfg)
    assert [(c.id, c.combiner_id, c.local_data.name) for c in topology.clients] == [
        (0, 0, "d0-train-chunk0"), (1, 1, "d0-train-chunk1"), (2, 1, "d1-train-chunk0")]


def test_federated_single_client_single_round_equals_one_pass(tmp_path):
    path = synth_csv(tmp_path, "solo", n=300, seed=5)
    cfg = cfg_for("federated", [path], tmp_path / "out", rounds=1,
                  chunks=(1,), combiner_clients=(1,))
    result = run_federated(cfg)
    assert len(result.round_logs) == 1

    source = prepare_source(path, cfg, 0)
    expected = train_centralized(source.train, Hyperparams(), passes=1, seed=cfg.seed)
    assert np.array_equal(result.final_weights, expected)


def test_federated_run_emits_outputs_and_improves(tmp_path):
    paths = [synth_csv(tmp_path, f"c{i}", n=500, seed=60 + i, shift_magnitude=m)
             for i, m in enumerate((0.0, 3.0, 0.0))]
    out = tmp_path / "fed"
    cfg = cfg_for("federated", paths, out, rounds=8)
    result = run_experiment(cfg)

    assert (out / "rounds.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "config.resolved.json").exists()
    assert (out / "model.fwv").exists()

    lines = (out / "rounds.csv").read_text().strip().splitlines()
    assert lines[0] == "round,loss,accuracy,kappa,kappa_pct,roc_auc,participants"
    assert len(lines) == 9
    first = float(lines[1].split(",")[2])
    last = float(lines[-1].split(",")[2])
    assert last >= first

    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "federated"
    assert summary["final"]["accuracy_pct"] == result.round_logs[-1].report.accuracy_pct
    # The final report is the last round's: same loss, accuracy, kappa, AUC.
    final = summary["final"]
    loss, accuracy, kappa, _, auc = (float(v) for v in lines[-1].split(",")[1:6])
    assert (loss, accuracy, kappa, auc) == (final["mean_loss"], final["accuracy_pct"],
                                            final["kappa"], final["roc_auc"])

    from fedsmell.nn import load_weights
    assert np.array_equal(load_weights(out / "model.fwv"), result.final_weights)


def test_federated_run_scores_each_model_once(tmp_path, monkeypatch):
    # Every round scores its global model; the last round's report is the
    # final one, so the runner never scores the final weights again.
    import fedsmell.experiments as exp

    def rescoring(*args):
        raise AssertionError("final weights scored a second time")

    monkeypatch.setattr(exp, "evaluate_model", rescoring)
    paths = [synth_csv(tmp_path, f"once{i}", n=300, seed=74 + i) for i in range(2)]
    run_experiment(cfg_for("federated", paths, tmp_path / "out", rounds=2,
                           client_fraction=0.5, reducer_mode="smoothed"))


def test_federated_run_keeps_no_prepared_source_while_training(tmp_path, monkeypatch):
    # Once the clients and the pooled test exist, the raw tables, splits and
    # stats of every source are garbage before the first round starts.
    prepared, checked = [], []
    real_prepare, real_rounds = experiments.prepare_source, experiments.iter_rounds

    def tracked_prepare(*args):
        source = real_prepare(*args)
        prepared.append(weakref.ref(source))
        return source

    def checked_rounds(*args):
        checked.append(sum(ref() is not None for ref in prepared))
        yield from real_rounds(*args)

    monkeypatch.setattr(experiments, "prepare_source", tracked_prepare)
    monkeypatch.setattr(experiments, "iter_rounds", checked_rounds)
    paths = [synth_csv(tmp_path, f"gone{i}", n=300, seed=90 + i) for i in range(2)]
    run_federated(cfg_for("federated", paths, tmp_path / "out", rounds=1))
    assert checked == [0]


def test_rerun_from_resolved_config_reproduces_run(tmp_path):
    from fedsmell.config import parse_config
    paths = [synth_csv(tmp_path, "d1", n=300, seed=71)]
    out_a = tmp_path / "orig"
    run_experiment(cfg_for("federated", paths, out_a, rounds=3, chunks=(2,),
                           combiner_clients=(2,)))
    replay_cfg = parse_config(out_a / "config.resolved.json")
    from dataclasses import replace
    out_b = tmp_path / "replay"
    run_experiment(replace(replay_cfg, out_dir=str(out_b)))
    for name in ("rounds.csv", "model.fwv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_last_round_checksum_is_the_checkpoint_hash(tmp_path):
    # Resuming from model.fwv and a weights_sha256 column in rounds.csv both
    # rest on this: the logged checksum hashes the checkpoint's value bytes.
    paths = [synth_csv(tmp_path, "d2", n=300, seed=72)]
    out = tmp_path / "out"
    result = run_experiment(cfg_for("federated", paths, out, rounds=3, chunks=(3,),
                                    combiner_clients=(2, 1), reducer_mode="smoothed"))
    digest = hashlib.sha256((out / "model.fwv").read_bytes()[4:]).hexdigest()
    assert result.round_logs[-1].weights_checksum == digest


def test_directly_built_federated_config_runs_like_its_ini(tmp_path):
    # No chunks or combiners given: the config fills (5, 1, 4) and (5, 5)
    # when built, so a library caller gets the same run as the CLI.
    paths = [synth_csv(tmp_path, name, n=300, seed=80 + i, shift_magnitude=m)
             for i, (name, m) in enumerate((("alpha", 0.0), ("beta", 3.0), ("gamma", 0.0)))]
    cfg = ExperimentConfig(kind="federated", datasets=tuple(paths), rounds=1,
                           out_dir=str(tmp_path / "lib"))
    result = run_experiment(cfg)
    assert len(result.round_logs) == 1
    assert result.round_logs[0].participants == tuple(range(10))

    ini = tmp_path / "fed.ini"
    ini.write_text(f"[experiment]\ndatasets = {', '.join(paths)}\n"
                   "[federation]\nrounds = 1\n", encoding="utf-8")
    assert main(["federated", "--config", str(ini), "--out", str(tmp_path / "cli")]) == 0
    for name in ("rounds.csv", "model.fwv", "summary.json"):
        assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


# -------------------------------------------------------------------- synth

def test_directly_built_synth_config_fills_its_shifts(tmp_path):
    out = tmp_path / "gen"
    cfg = ExperimentConfig(kind="synth", datasets=("alpha", "beta"), synth_samples=40,
                           out_dir=str(out))
    assert cfg.synth_shifts == (0.0, 0.0)
    run_experiment(cfg)
    assert [len(load_csv(out / f"{name}.csv")) for name in ("alpha", "beta")] == [40, 40]


def test_synth_experiment_writes_loadable_csvs(tmp_path):
    out = tmp_path / "gen"
    cfg = cfg_for("synth", ["left", "right"], out, synth_samples=120,
                  synth_shifts=(0.0, 2.0))
    names = [row["train_source"] for row in run_experiment(cfg).rows]
    assert names == ["left", "right"]
    for name in names:
        loaded = load_csv(out / f"{name}.csv")
        assert len(loaded) == 120


def test_synth_cell_is_its_datasets_positive_share(tmp_path, capsys, monkeypatch):
    # A synth run trains nothing: each dataset's cell holds the positive-class
    # share of the CSV written for it, in summary.json and in its printed line.
    monkeypatch.chdir(tmp_path)
    Path("s.ini").write_text("[experiment]\ndatasets = u, v\n"
                             "[synth]\nsamples = 50\npositive_rate = 0.3\n", encoding="utf-8")
    assert main(["synth", "--config", "s.ini", "--out", "o"]) == 0
    cells = json.loads(Path("o/summary.json").read_text(encoding="utf-8"))["cells"]
    *lines, last = capsys.readouterr().out.splitlines()
    assert [cell["train_source"] for cell in cells] == ["u", "v"] and last == "outputs written to o"
    for cell, line in zip(cells, lines, strict=True):
        name = cell["train_source"]
        share = 100.0 * load_csv(f"o/{name}.csv").class_counts()[1] / 50
        assert cell["accuracy_pct"] == share
        assert line == f"{name} -> o/{name}.csv: {share:.2f}%"


# ---------------------------------------------------------------------- CLI

def test_cli_full_synth_then_federated_flow(tmp_path, capsys):
    synth_ini = tmp_path / "synth.ini"
    synth_ini.write_text(
        "[experiment]\ndatasets = u, v\nseed = 3\n"
        f"out_dir = {tmp_path / 'data'}\n"
        "[synth]\nsamples = 200\nshifts = 0, 1\n",
        encoding="utf-8",
    )
    assert main(["synth", "--config", str(synth_ini)]) == 0

    fed_ini = tmp_path / "fed.ini"
    fed_ini.write_text(
        "[experiment]\n"
        f"datasets = {tmp_path / 'data' / 'u.csv'}, {tmp_path / 'data' / 'v.csv'}\n"
        f"seed = 3\nout_dir = {tmp_path / 'run'}\n"
        "[data]\nchunks = 2, 2\n"
        "[federation]\nrounds = 2\n",
        encoding="utf-8",
    )
    assert main(["federated", "--config", str(fed_ini)]) == 0
    assert (tmp_path / "run" / "rounds.csv").exists()
    out = capsys.readouterr().out
    assert "pooled-test" in out


def test_cli_seed_and_out_overrides(tmp_path):
    path = synth_csv(tmp_path, "ov", n=200, seed=9)
    ini = tmp_path / "c.ini"
    ini.write_text(
        f"[experiment]\nkind = centralized\ndatasets = {path}\nseed = 1\n"
        f"out_dir = {tmp_path / 'ignored'}\n[federation]\nrounds = 2\n",
        encoding="utf-8",
    )
    out = tmp_path / "chosen"
    assert main(["centralized", "--config", str(ini), "--seed", "5",
                 "--out", str(out)]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["seed"] == 5
    assert resolved["out_dir"] == str(out)
    assert not (tmp_path / "ignored").exists()


def test_cli_federation_pools_the_positives_a_centralized_run_lacks(tmp_path, monkeypatch):
    # The class-missing-centralized row's inputs with rare.csv listed first: its own test
    # split holds no positive, but a federation scores the pooled test set, which holds
    # the later source common.csv's.
    passes = count_training_passes(monkeypatch)
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path, CLI_ERRORS["class-missing-centralized"].inputs)
    (tmp_path / "c.ini").write_text("[experiment]\ndatasets = rare.csv, common.csv\n"
                                    "[data]\ntest_fraction = 0.2\n[federation]\nrounds = 1\n")
    assert main(["federated", "--config", "c.ini", "--out", "out"]) == 0
    assert passes


def run_cli_centralized(tmp_path, name, datasets):
    ini = tmp_path / f"{name}.ini"
    ini.write_text(f"[experiment]\nkind = centralized\ndatasets = {datasets}\n"
                   "[federation]\nrounds = 1\n", encoding="utf-8")
    return main(["centralized", "--config", str(ini), "--out", str(tmp_path / name)])


def test_library_run_raises_the_cli_numeric_error(tmp_path, monkeypatch):
    # Under numpy's default float settings, run_experiment stops at the same
    # fault with the same message as the CLI, not with a wrong value.
    for case, row in CLI_ERRORS.items():
        if row.code == 4:  # each row's inputs, in a directory of its own
            (tmp_path / case).mkdir()
            monkeypatch.chdir(tmp_path / case)
            write_inputs(tmp_path / case, row.inputs)
            config = row.argv[row.argv.index("--config") + 1]
            with pytest.raises(NumericError) as raised:
                run_experiment(parse_config(config, kind=row.argv[0], out_dir="library"))
            assert f"NUMERIC_ERROR: {raised.value}" == row.line, case


# Direct calls that run outside any stage, each with a float fault and its NumericError.
UNSTAGED_FAULTS = {
    "client_update": (lambda data: federation.client_update(federation.ClientNode(
        7, data, Hyperparams(learning_rate=1e300), 0), init_params(0), update_seed=1),
        "client 7: training produced non-finite weights"),
    "train_centralized": (lambda data: train_centralized(
        data, Hyperparams(learning_rate=1e300), 2, 0),
        "client 0: training produced non-finite weights"),
    "evaluate_model": (lambda data: evaluate_model(np.full(nn.PARAM_COUNT, 1e300), data),
                       "prediction scores contain non-finite values"),
    "fit_normalizer": (lambda data: datamod.fit_normalizer(huge_column(data)),
                       "dataset 'fixture': feature standard deviation overflows"),
}


@pytest.mark.parametrize("case", UNSTAGED_FAULTS)
def test_a_direct_call_follows_numpys_settings_and_warns_before_its_numeric_error(case):
    # The README's float paragraph: numpy's default settings warn, so the
    # caller sees RuntimeWarnings, the overflow first, then the one error.
    call, message = UNSTAGED_FAULTS[case]
    with np.errstate(over="warn", invalid="warn", divide="warn", under="ignore"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as raised:
                call(random_dataset(40, 20, seed=0))
    assert str(raised.value) == message
    assert caught and {w.category for w in caught} == {RuntimeWarning}, caught
    assert str(caught[0].message).startswith("overflow encountered in "), caught


def test_a_failed_rerun_leaves_its_own_resolved_config(tmp_path, capsys):
    # config.resolved.json is written before training, so a rerun that fails
    # in training leaves out_dir describing that rerun, not the earlier run.
    path = synth_csv(tmp_path, "d", n=120, seed=1)
    ini = tmp_path / "fed.ini"
    ini.write_text(f"[experiment]\nkind = federated\ndatasets = {path}\n"
                   "[federation]\nrounds = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["federated", "--config", str(ini), "--out", str(out), "--seed", "1"]) == 0
    with open(ini, "a", encoding="utf-8") as fh:
        fh.write("[training]\nlearning_rate = 1e300\n")
    assert main(["federated", "--config", str(ini), "--out", str(out), "--seed", "2"]) == 4
    assert capsys.readouterr().err.startswith("NUMERIC_ERROR: round 1: overflow")
    resolved = json.loads((out / "config.resolved.json").read_text(encoding="utf-8"))
    assert (resolved["seed"], resolved["learning_rate"]) == (2, 1e300)
    assert not (out / "summary.json").exists()


def test_error_context_restores_the_callers_float_settings():
    with np.errstate(over="ignore", under="raise"):
        before = np.geterr()
        with error_context("stage"):
            assert np.geterr()["under"] == "raise"
        assert np.geterr() == before
        with pytest.raises(DataError, match="^stage: inner$"):
            with error_context("stage"):
                raise DataError("inner")
        assert np.geterr() == before


# Each verb's INI body and the files it writes, in the order it writes them.
OUTPUT_FILES = {
    "synth": ("[synth]\nsamples = 20\n", ("config.resolved.json", "a.csv", "b.csv",
                                          "summary.json")),
    "centralized": ("", ("config.resolved.json", "summary.json")),
    "cross-eval": ("", ("config.resolved.json", "summary.json")),
    "federated": ("", ("config.resolved.json", "rounds.csv", "model.fwv", "summary.json")),
}


def _write_verb_ini(tmp_path, verb):
    body, _ = OUTPUT_FILES[verb]
    if verb == "synth":
        datasets = "a, b"
    else:
        count = 3 if verb == "cross-eval" else 1
        datasets = ", ".join(synth_csv(tmp_path, f"{verb}{i}", n=120, seed=i)
                             for i in range(count))
    ini = tmp_path / f"{verb}.ini"
    ini.write_text(f"[experiment]\ndatasets = {datasets}\n[federation]\nrounds = 1\n{body}",
                   encoding="utf-8")
    return ini


def test_cli_fifo_at_a_temp_name_does_not_block_the_write(tmp_path):
    # Opening a FIFO with no reader for writing would block until a signal;
    # the child runs under a timeout.
    _write_verb_ini(tmp_path, "synth")
    os.mkdir(tmp_path / "out")
    os.mkfifo(tmp_path / "out" / ".summary.json.tmp")
    proc = run_cli_process(tmp_path, ["synth", "--config", "synth.ini", "--out", "out"],
                           capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(entry.name for entry in (tmp_path / "out").iterdir()) == [
        "a.csv", "b.csv", "config.resolved.json", "summary.json"]
    assert (tmp_path / "out" / "summary.json").is_file()


def _operations(verb):
    """A run's file operations under out_dir, in order: the directory, its lock, the clearing,
    and each write_output call's temp removal, write, replace and temp cleanup."""
    cleared = ("summary.json", "config.resolved.json", "rounds.csv", "model.fwv") + (
        ("a.csv", "b.csv") if verb == "synth" else ())
    return [("mkdir", "out"), ("open", "out"), ("flock", "out"),
            *(("unlink", name) for name in cleared),
            *(operation for name in OUTPUT_FILES[verb][1] for operation in (
                ("unlink", f".{name}.tmp"), ("write", name), ("replace", name),
                ("unlink", f".{name}.tmp")))]


# The faults tried at each operation. A write fails or is stopped part way. Any other
# operation fails with ENOSPC once, or on every later call on its file too, or is stopped
# before it and, if it changes the directory, right after it. The lock is also found held
# by another run, and right after the first removal of each temp name a symlink to a file
# outside out_dir is put there.
OTHERS = ("ENOSPC", "persistent", "interrupt-before")
FAULTS = {"write": ("ENOSPC", "interrupt"), "mkdir": OTHERS, "open": OTHERS,
          "flock": OTHERS + ("held",), "unlink": OTHERS + ("interrupt-after",),
          "replace": OTHERS + ("interrupt-after",)}
SWEEP = [pytest.param(verb, point, fault, id="-".join((
             verb, operation + ("2" if (operation, name) in ops[:point] else ""), name, fault)))
         for verb in OUTPUT_FILES for ops in [_operations(verb)]
         for point, (operation, name) in enumerate(ops) for fault in FAULTS[operation] + (
             ("plant",) if name.endswith(".tmp") and (operation, name) not in ops[:point] else ())]
NO_SPACE = (errno.ENOSPC, "No space left on device")
INTERRUPTED = "INTERRUPTED: stopped by a signal before the run finished\n"
# The line each fault that is not a stop ends the run with; {} is the faulted file's name.
LINES = {**dict.fromkeys(("ENOSPC", "persistent"), r"CONFIG_ERROR: cannot [a-z ]+ out: "
                         r"\[Errno 28\] No space left on device\n"),
         "held": "CONFIG_ERROR: output directory out is in use by another run\n",
         "plant": r"CONFIG_ERROR: cannot write outputs to out: \[Errno 17\] File exists: "
                  r"'out/{}'\n"}


class _FailingFile:
    """A file whose first write goes through and then fails with ENOSPC, or for the
    `interrupt` fault is stopped."""

    def __init__(self, fh, fault):
        self.fh, self.fault = fh, fault

    def write(self, text):
        self.fh.write(text)
        self.fh.flush()
        raise KeyboardInterrupt if self.fault == "interrupt" else OSError(*NO_SPACE)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    @property
    def buffer(self):
        return _FailingFile(self.fh.buffer, self.fault)


@functools.cache
def _main_lines():
    """From the AST of cli.main: its `try:` and `return <constant>` lines, and the lines of
    its `finally:` blocks."""
    module = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [main_def] = [node for node in module.body
                  if isinstance(node, ast.FunctionDef) and node.name == "main"]
    nodes = list(ast.walk(main_def))
    tries = [node for node in nodes if isinstance(node, ast.Try)]
    return {node.lineno for node in nodes if isinstance(node, ast.Try) or (
        isinstance(node, ast.Return) and isinstance(node.value, ast.Constant))}, {
        line for node in tries for statement in node.finalbody
        for line in range(statement.lineno, statement.end_lineno + 1)}


def _rerun(directory, verb, ini, before, point=None, fault=None, stop=None):
    """Run `verb` at seed 1 into a copy of the finished run `before` at directory/out, with a
    Python SIGTERM handler set that main must put back and a file directory/victim that no
    write may reach. Record each file operation under out and apply `fault` at index `point`
    of them. Trace cli.main and, with `stop` given, stop the run at the first execution of
    its line `stop`: (exit code, or "escaped" for a stop main let out, the operations, main's
    lines in run order)."""
    shutil.rmtree(directory / "out", ignore_errors=True)
    shutil.copytree(before, directory / "out", symlinks=True)
    victim = directory / "victim"
    victim.write_text("keep\n", encoding="utf-8")
    done, ran = [], []

    def hit(operation, path):  # whether this is the faulted operation
        done.append((operation, Path(path).name))
        if fault == "persistent" and point < len(done) - 1 and done[-1][1] == done[point][1]:
            raise OSError(*NO_SPACE)
        return len(done) - 1 == point

    def wrap(operation, real, target):
        def call(*args, **kwargs):
            path = target(*args)
            if path is None or not Path(os.path.abspath(path)).is_relative_to(out) or not hit(
                    operation, path):
                return real(*args, **kwargs)
            if fault == "interrupt-before":
                raise KeyboardInterrupt
            if fault in ("ENOSPC", "persistent"):
                raise OSError(*NO_SPACE)
            result = real(*args, **kwargs)  # a held lock makes the flock fail by itself
            if fault == "plant":
                Path(path).symlink_to(victim)
            if fault == "interrupt-after":
                raise KeyboardInterrupt
            return result
        return call

    def write_output(path, write):
        def recorded(fh):
            if hit("write", path):
                fh = _FailingFile(fh, fault)
            write(fh)
        errors.write_output(path, recorded)

    def trace(frame, event, arg):
        if frame.f_code is not cli.main.__code__:
            return None
        if event == "line" and frame.f_lineno not in ran:
            ran.append(frame.f_lineno)
            if frame.f_lineno == stop:
                raise KeyboardInterrupt
        return trace

    with pytest.MonkeyPatch.context() as patch, sigterm_handler_kept(stop in _main_lines()[1]):
        patch.chdir(directory)
        out = Path.cwd() / "out"
        if fault == "held":  # another run's lock, held until this run ends
            held = os.open(out, os.O_RDONLY)
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        for module in (datamod, nn, experiments):
            patch.setattr(module, "write_output", write_output)
        patch.setattr(Path, "mkdir", wrap("mkdir", Path.mkdir, lambda path, *_: path))
        patch.setattr(os, "open", wrap("open", os.open, lambda path, *_: path))
        patch.setattr(fcntl, "flock", wrap("flock", fcntl.flock, lambda fd, _: out if (
            os.path.samestat(os.fstat(fd), os.stat(out))) else None))
        patch.setattr(Path, "unlink", wrap("unlink", Path.unlink, lambda path, *_: path))
        patch.setattr(os, "replace", wrap("replace", os.replace, lambda _, path, *__: path))
        outer = sys.gettrace()
        sys.settrace(trace)
        try:
            code = main([verb, "--config", str(ini), "--out", "out", "--seed", "1"])
        except KeyboardInterrupt:
            code = "escaped"
        finally:
            sys.settrace(outer)
            if fault == "held":
                os.close(held)
    assert victim.read_text(encoding="utf-8") == "keep\n"
    return code, done, ran


def _earlier_or_whole(directory, fresh, earlier, kept=None):
    """Whether directory/out ends as the README's Outputs section says: the earlier run,
    untouched, or whole files of this run and no temp file nor link, summary.json last,
    beside at most the earlier run's file `kept`, which a persistent fault kept."""
    left, whole, before = tree(directory / "out"), tree(fresh), tree(earlier)
    return left in (before, whole) or "summary.json" not in left and all(
        (name, data) in whole.items() or name == kept and (name, data) in before.items()
        for name, data in left.items())


@pytest.fixture(scope="module")
def finished_runs(tmp_path_factory):
    """Each verb's INI and its finished runs at seeds 1 and 2, each made with --out out."""
    base, runs = tmp_path_factory.mktemp("finished"), {}
    with pytest.MonkeyPatch.context() as patch:
        for verb in OUTPUT_FILES:
            ini = _write_verb_ini(base, verb)
            for seed in (1, 2):
                (base / f"{verb}-seed{seed}").mkdir()
                patch.chdir(base / f"{verb}-seed{seed}")
                assert main([verb, "--config", str(ini), "--out", "out", "--seed", str(seed)]) == 0
            runs[verb] = ini, base / f"{verb}-seed1" / "out", base / f"{verb}-seed2" / "out"
    return runs


@pytest.mark.parametrize("before", ["own", "federated", "linked"])
@pytest.mark.parametrize("verb", OUTPUT_FILES)
def test_rerun_into_a_finished_run_leaves_exactly_a_fresh_runs_files(tmp_path, finished_runs,
                                                                     verb, before):
    # Into a finished run of its verb at seed 2, of a federated run, or of its verb with a
    # symlink left at each temp name, a seed-1 run makes the listed operations and leaves
    # exactly a seed-1 run's files made elsewhere, byte for byte: no earlier file survives,
    # no link is followed or kept, and each output depends on the config and seed alone.
    ini, fresh, earlier = finished_runs[verb]
    assert sorted(tree(fresh)) == sorted(OUTPUT_FILES[verb][1])
    assert not tree(fresh).items() & tree(earlier).items()  # the sweep tells them apart
    if before == "linked":
        shutil.copytree(earlier, tmp_path / "linked")
        for name in OUTPUT_FILES[verb][1]:
            (tmp_path / "linked" / f".{name}.tmp").symlink_to(tmp_path / "victim")
    before = {"own": earlier, "federated": finished_runs["federated"][2],
              "linked": tmp_path / "linked"}[before]
    assert _rerun(tmp_path, verb, ini, before)[:2] == (0, _operations(verb))
    assert tree(tmp_path / "out") == tree(fresh)


@pytest.mark.parametrize("verb, point, fault", SWEEP)
def test_cli_file_operation_fault_leaves_the_earlier_run_or_whole_files(
        tmp_path, capsys, finished_runs, verb, point, fault):
    # ALICE's crash-point sweep: each file operation of a rerun into a finished run fails,
    # is stopped, finds out_dir locked by another run or has a link put at its temp name,
    # in turn. The run ends with its one line and closes what it opened. A held lock leaves
    # the earlier run untouched, a link exactly the files replaced before its write, and any
    # other fault leaves out_dir as the README says.
    ini, fresh, earlier = finished_runs[verb]
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    capsys.readouterr()
    code, done, _ = _rerun(tmp_path, verb, ini, earlier, point, fault)
    assert done[:point + 1] == _operations(verb)[:point + 1]  # the fault hit its operation
    assert fds is None or len(os.listdir("/proc/self/fd")) == fds
    out, err = capsys.readouterr()
    stopped, name = "interrupt" in fault, done[point][1]
    assert (code, out) == (130 if stopped else 2, "")
    assert (err == INTERRUPTED) if stopped else re.fullmatch(
        LINES[fault].format(re.escape(name)), err), err
    left = tree(tmp_path / "out")
    if fault == "held":
        assert left == tree(earlier)
    elif fault == "plant":
        assert left == {entry: data for entry, data in tree(fresh).items() if (
            "replace", entry) in _operations(verb)[:point]}
    else:
        assert _earlier_or_whole(tmp_path, fresh, earlier,
                                 name if fault == "persistent" else None)


@pytest.mark.parametrize("verb", OUTPUT_FILES)
def test_cli_stop_on_any_line_of_main_ends_with_one_line(tmp_path, capsys, finished_runs,
                                                        verb):
    # A signal's KeyboardInterrupt may surface on any line. A rerun into a finished run is
    # stopped at the first execution of each line of cli.main in turn, and must end as a
    # stop in the crash-point sweep does, with the SIGTERM handler main found, unless the
    # stop landed in the finally that puts it back. A `try:` or `return <constant>` line is
    # not tried: CPython takes no signal at its NOP, or at its LOAD_CONST and RETURN_VALUE,
    # which 3.11 puts outside every handler, so a trace-made stop there escapes any layout.
    ini, fresh, earlier = finished_runs[verb]
    untried, _ = _main_lines()
    code, _, ran = _rerun(tmp_path, verb, ini, earlier)
    assert code == 0 and tree(tmp_path / "out") == tree(fresh)
    for line in (line for line in ran if line not in untried):
        capsys.readouterr()
        code, _, _ = _rerun(tmp_path, verb, ini, earlier, stop=line)
        assert (code, capsys.readouterr().err) == (130, INTERRUPTED), line
        assert _earlier_or_whole(tmp_path, fresh, earlier), line


def test_cli_bom_prefixed_csv_runs_like_its_plain_copy(tmp_path, capsys):
    source = synth_csv(tmp_path, "s", n=120, seed=5)
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "s.csv").write_bytes(prefix + Path(source).read_bytes())
        assert run_cli_centralized(tmp_path, f"out-{name}", tmp_path / name / "s.csv") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    plain, bom = ((tmp_path / f"out-{name}" / "summary.json").read_bytes()
                  for name in ("plain", "bom"))
    assert plain == bom


# A span of a valid dataset CSV (start, length) replaced by a few bytes,
# often ones that keep it a CSV of numbers.
CSV_BYTES = st.text(alphabet='0123456789,.-+eE"\r\n ', max_size=12).map(str.encode)
SPAN_MUTATIONS = st.lists(st.tuples(st.integers(0, 2 ** 31), st.integers(0, 40),
                                    st.one_of(CSV_BYTES, st.binary(max_size=12))),
                          min_size=1, max_size=3)


@settings(derandomize=True, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(SPAN_MUTATIONS, st.binary(max_size=400)))
def test_cli_fuzzed_dataset_bytes_end_silently_or_with_the_line_of_their_exit_code(
        tmp_path, capsys, mutation):
    path = tmp_path / "fuzz.csv"
    save_csv(random_dataset(24, 12, seed=5), path)
    content = path.read_bytes()
    if isinstance(mutation, bytes):
        content = mutation
    else:
        for start, length, replacement in mutation:
            start %= len(content) + 1
            content = content[:start] + replacement + content[start + length:]
    path.write_bytes(content)
    code = run_cli_centralized(tmp_path, "fuzz", path)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and line_fits_code(code, err), (code, err)


# A federated run that marks its first client update with a file named
# `training`, so a signal can be sent while it trains.
_MARKED_RUN = """
import sys
from pathlib import Path
from fedsmell import cli, federation
update = federation.client_update
def marked(*args):
    Path("training").touch()
    return update(*args)
federation.client_update = marked
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_cli_signal_while_training_ends_with_one_interrupted_line(tmp_path, signum):
    path = synth_csv(tmp_path, "d", n=120, seed=1)
    (tmp_path / "c.ini").write_text(f"[experiment]\ndatasets = {path}\n"
                                    "[federation]\nrounds = 100000\n", encoding="utf-8")
    with subprocess.Popen([sys.executable, "-X", "faulthandler", "-c", _MARKED_RUN, "federated",
                           "--config", "c.ini", "--out", "out"], cwd=tmp_path, env=child_env(),
                          text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            deadline = time.monotonic() + 60
            while not (tmp_path / "training").exists() and proc.poll() is None:
                if time.monotonic() > deadline:
                    raise subprocess.TimeoutExpired(proc.args, 60)
                time.sleep(0.02)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGABRT)  # faulthandler prints each thread's stack
            pytest.fail("the run did not start training, or did not stop:\n"
                        + proc.communicate(timeout=60)[1])
        finally:
            proc.kill()
    assert proc.returncode == 130 and line_fits_code(130, err), err
    # The stop leaves no summary.json and no temp file.
    assert {entry.name for entry in (tmp_path / "out").iterdir()} <= {"config.resolved.json",
                                                                     "rounds.csv", "model.fwv"}


def test_cli_main_leaves_the_sigterm_handler_as_it_found_it(tmp_path):
    # Off the main thread no handler can be set, so main leaves it alone. On the main thread
    # each rerun of the crash-point sweep and each CLI_ERRORS row checks that it puts it back.
    synth, returned = _write_verb_ini(tmp_path, "synth"), []
    worker = threading.Thread(target=lambda: returned.append(
        main(["synth", "--config", str(synth), "--out", str(tmp_path / "c")])))
    with sigterm_handler_kept():
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive() and returned == [0]


@pytest.mark.parametrize("stdout", ["/dev/full", "a pipe with its read end closed"])
def test_cli_unwritable_stdout_ends_a_finished_run_with_one_config_error_line(tmp_path, stdout):
    # Every output is written before the first line goes to stdout, so the
    # run stays finished; the failure is one line and exit 2, not a traceback.
    if stdout == "/dev/full":
        if not os.path.exists(stdout):
            pytest.skip("this system has no /dev/full")
        fd, code = os.open(stdout, os.O_WRONLY), errno.ENOSPC
    else:
        read_end, fd = os.pipe()
        os.close(read_end)
        code = errno.EPIPE
    (tmp_path / "s.ini").write_text("[experiment]\ndatasets = a\n[synth]\nsamples = 20\n",
                                    encoding="utf-8")
    try:
        proc = run_cli_process(tmp_path, ["synth", "--config", "s.ini", "--out", "out"],
                               stdout=fd, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(fd)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"CONFIG_ERROR: cannot write to stdout: "
                           f"[Errno {code}] {os.strerror(code)}\n")
    assert (tmp_path / "out" / "summary.json").is_file()


def run_cli_process(cwd, argv, **streams):
    """Run the CLI in a child process under a timeout, so that a run that
    blocks fails the test instead of hanging it."""
    return subprocess.run([sys.executable, "-m", "fedsmell.cli", *argv], cwd=cwd, env=child_env(),
                          timeout=60, **streams)


@pytest.mark.parametrize("encoding, out, shown", [("utf-8", "p\udcff", "p\\udcff"),
                                                  ("ascii", "q\xe9", "q\\xe9")],
                         ids=["utf-8", "ascii"])
def test_cli_stdout_that_cannot_encode_a_character_writes_its_escape(tmp_path, monkeypatch,
                                                                    encoding, out, shown):
    # A strict UTF-8 stdout (as under a UTF-8 locale) cannot write the undecodable byte of
    # --out p$'\xff', nor an ASCII one é: each goes out as its escape, as stderr writes it.
    monkeypatch.setenv("PYTHONIOENCODING", encoding)
    (tmp_path / "s.ini").write_text("[experiment]\ndatasets = a\n[synth]\nsamples = 20\n",
                                    encoding="utf-8")
    proc = run_cli_process(tmp_path, ["synth", "--config", "s.ini", "--out", out],
                           capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
    first, last = proc.stdout.decode("ascii").splitlines()
    assert re.fullmatch(rf"a -> {re.escape(shown)}/a\.csv: \d+\.\d\d%", first), first
    assert last == f"outputs written to {shown}"


def test_cli_stdout_of_str_gets_each_line_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("s.ini").write_text("[experiment]\ndatasets = a\n[synth]\nsamples = 20\n",
                             encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["synth", "--config", "s.ini", "--out", "p\udcff"]) == 0
    first, last = stdout.getvalue().splitlines()
    assert first.startswith("a -> p\udcff/a.csv: ") and last == "outputs written to p\udcff"


# (verb, INI text, exit code, stdout on /dev/full too): a config error, a
# data error, a numeric error, and a finished run whose stdout is dead.
DEAD_STDERR_CASES = {
    "config error": ("synth", "[experiment]\ndatasets = a\n[synth]\nsamples = x\n", 2, False),
    "data error": ("centralized", "[experiment]\ndatasets = missing.csv\n", 3, False),
    "numeric error": ("centralized", "[experiment]\ndatasets = plain.csv\n[federation]\n"
                      "rounds = 1\n[training]\nlearning_rate = 1e300\n", 4, False),
    "dead stdout": ("synth", "[experiment]\ndatasets = a\n[synth]\nsamples = 20\n", 2, True),
}


@pytest.mark.parametrize("case", DEAD_STDERR_CASES.values(), ids=DEAD_STDERR_CASES.keys())
def test_cli_unwritable_stderr_keeps_the_documented_exit_code(tmp_path, case):
    # With no stream left, the exit code is all a caller sees, so a line
    # that cannot be written must not turn 2, 3 or 4 into 1.
    if not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    verb, text, code, dead_stdout = case
    synth_csv(tmp_path, "plain", n=120, seed=4)
    (tmp_path / "c.ini").write_text(text, encoding="utf-8")
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = run_cli_process(tmp_path, [verb, "--config", "c.ini", "--out", "out"],
                               stdout=full if dead_stdout else subprocess.PIPE, stderr=full)
    assert proc.returncode == code
    assert not proc.stdout


@pytest.mark.parametrize("what, kind", [("dataset", "fifo"), ("dataset", "directory"),
                                        ("config", "fifo")])
def test_cli_input_that_is_not_a_regular_file_is_one_error_line(tmp_path, what, kind):
    # A FIFO with no writer would block the read until a signal.
    name = "in.ini" if what == "config" else "in.csv"
    if kind == "fifo":
        os.mkfifo(tmp_path / name)
    else:
        (tmp_path / name).mkdir()
    config = name
    if what == "dataset":
        config = "c.ini"
        (tmp_path / config).write_text(f"[experiment]\ndatasets = {name}\n", encoding="utf-8")
    proc = run_cli_process(tmp_path, ["centralized", "--config", config, "--out", "out"],
                           capture_output=True, text=True)
    label, code = ("DATA_ERROR", 3) if what == "dataset" else ("CONFIG_ERROR", 2)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == f"{label}: {what} {name}: cannot read: {name} is not a regular file\n"
    assert proc.stdout == ""


def test_no_two_stages_of_a_run_draw_the_same_stream(tmp_path, monkeypatch):
    # The stream table in fedsmell.seeds: within a run every round-0
    # (preprocessing) slot is drawn once, and within a federated round the
    # sampling slot and each sampled client's slot are distinct.
    drawn = []

    def recording(master, round_, slot):
        drawn.append((round_, slot))
        return derive_seed(master, round_, slot)

    monkeypatch.setattr(experiments, "derive_seed", recording)
    monkeypatch.setattr(federation, "derive_seed", recording)
    names = ("a", "b", "c")
    paths = [str(tmp_path / "data" / f"{name}.csv") for name in names]
    runs = ((cfg_for("synth", names, tmp_path / "data", synth_samples=300), 3),
            (cfg_for("centralized", paths, tmp_path / "c", rounds=2), 6),
            (cfg_for("cross_eval", paths, tmp_path / "x", rounds=2), 6),
            (cfg_for("federated", paths, tmp_path / "f", rounds=3, client_fraction=0.5), 9))
    for cfg, preprocessing in runs:
        drawn.clear()
        run_experiment(cfg)
        slots = {}
        for round_, slot in drawn:
            slots.setdefault(round_, []).append(slot)
        assert len(set(slots[0])) == len(slots[0]) == preprocessing, (cfg.kind, slots[0])
        if cfg.kind == "federated":
            assert sorted(slots) == [0, 1, 2, 3]
            for t in (1, 2, 3):
                assert SAMPLING_SLOT in slots[t] and len(slots[t]) == 1 + 5, slots[t]
                assert len(set(slots[t])) == len(slots[t]), slots[t]
