"""Experiment runners: centralized, cross-eval, federated, synth, outputs."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedsmell import cli, experiments
from fedsmell.cli import main
from fedsmell.config import ExperimentConfig, parse_config
from fedsmell.data import (FEATURE_NAMES, LABEL_COLUMN, domain_shift, load_csv,
                           save_csv, synth_generate)
from fedsmell.errors import DataError, NumericError, error_context
from fedsmell.experiments import (prepare_source, run_centralized, run_cross_eval,
                                  run_experiment, run_federated, train_centralized)
from fedsmell.metrics import evaluate_model
from fedsmell.nn import Hyperparams, init_params
from fedsmell.seeds import derive_seed
from util import random_dataset


def synth_csv(tmp_path, name, shift_magnitude=0.0, n=700, seed=0):
    dataset = synth_generate(n, 0.5, domain_shift(shift_magnitude), seed=seed, name=name)
    path = tmp_path / f"{name}.csv"
    save_csv(dataset, path)
    return str(path)


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
    from fedsmell.experiments import _REBALANCE_OFFSET, _SPLIT_OFFSET
    raw = load_csv(path)
    train_raw, test_raw = split_train_test(
        raw, cfg.test_fraction, derive_seed(cfg.seed, 0, _SPLIT_OFFSET))
    assert np.array_equal(apply_normalizer(test_raw, source.stats).features,
                          source.test.features)
    # And the stats really come from the rebalanced train split, not the test.
    from fedsmell.data import fit_normalizer
    train_rb = rebalance(train_raw, cfg.rebalance, derive_seed(cfg.seed, 0, _REBALANCE_OFFSET))
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


def test_centralized_attaches_dataset_name_to_errors(tmp_path):
    cfg = cfg_for("centralized", [str(tmp_path / "missing.csv")], tmp_path / "out")
    with pytest.raises(DataError, match="missing.csv"):
        run_centralized(cfg)


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


def test_cross_eval_shifted_dataset_drops_accuracy(tmp_path):
    paths = [synth_csv(tmp_path, "home", n=900, seed=40),
             synth_csv(tmp_path, "moved", n=900, seed=41, shift_magnitude=3.0),
             synth_csv(tmp_path, "peer", n=900, seed=42)]
    cfg = cfg_for("cross_eval", paths, tmp_path / "out", rounds=25)
    cross = {(r["train_source"], r["eval_source"]): r["accuracy_pct"]
             for r in run_cross_eval(cfg).rows}
    central = run_centralized(cfg_for("centralized", [paths[0]], tmp_path / "out2", rounds=25))
    in_dist = central.rows[0]["accuracy_pct"]
    assert cross[("home", "moved")] <= in_dist - 10.0
    assert cross[("home", "peer")] >= in_dist - 5.0


# ---------------------------------------------------------------- federated

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
    assert summary["wall_clock_seconds"] > 0
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
    real_prepare, real_federation = experiments.prepare_source, experiments.run_federation

    def tracked_prepare(*args):
        source = real_prepare(*args)
        prepared.append(weakref.ref(source))
        return source

    def checked_federation(*args):
        checked.append(sum(ref() is not None for ref in prepared))
        return real_federation(*args)

    monkeypatch.setattr(experiments, "prepare_source", tracked_prepare)
    monkeypatch.setattr(experiments, "run_federation", checked_federation)
    paths = [synth_csv(tmp_path, f"gone{i}", n=300, seed=90 + i) for i in range(2)]
    run_federated(cfg_for("federated", paths, tmp_path / "out", rounds=1))
    assert checked == [0]


def test_rounds_csv_is_byte_identical_across_runs(tmp_path):
    paths = [synth_csv(tmp_path, "d0", n=300, seed=70)]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg_for("federated", paths, out_a, rounds=3, chunks=(2,),
                           combiner_clients=(2,)))
    run_experiment(cfg_for("federated", paths, out_b, rounds=3, chunks=(2,),
                           combiner_clients=(2,)))
    assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()


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
    assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
    assert (out_a / "model.fwv").read_bytes() == (out_b / "model.fwv").read_bytes()


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
    for name in ("rounds.csv", "model.fwv"):
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


def count_training_passes(monkeypatch):
    """Record every client update, centralized or federated."""
    import fedsmell.experiments as exp
    import fedsmell.federation as fed
    calls = []
    for module in (exp, fed):
        original = module.client_update
        monkeypatch.setattr(module, "client_update",
                            lambda *args, original=original: calls.append(args) or original(*args))
    return calls


def test_cli_bad_second_dataset_fails_before_any_training(tmp_path, monkeypatch, capsys):
    passes = count_training_passes(monkeypatch)
    good = synth_csv(tmp_path, "good", n=200, seed=8)
    bad = tmp_path / "bad.csv"
    bad.write_text("TLOC,is_god_class\n1,0\n", encoding="utf-8")
    ini = tmp_path / "c.ini"
    ini.write_text(f"[experiment]\nkind = centralized\ndatasets = {good}, {bad}\n",
                   encoding="utf-8")
    assert main(["centralized", "--config", str(ini), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"DATA_ERROR: dataset {bad}:")
    assert len(err.strip().splitlines()) == 1
    assert passes == []


def test_cli_scored_set_lacking_a_class_fails_before_training(tmp_path, monkeypatch, capsys):
    # 2 positive rows and test_fraction 0.2 leave no positive in the test split.
    rare = tmp_path / "rare.csv"
    save_csv(random_dataset(60, 2, seed=3, name="rare"), rare)
    common = synth_csv(tmp_path, "common", n=200, seed=6)
    passes = count_training_passes(monkeypatch)

    def run(verb, datasets):
        ini = tmp_path / f"{verb}.ini"
        ini.write_text(f"[experiment]\nkind = {verb}\ndatasets = {datasets}\n"
                       "[data]\ntest_fraction = 0.2\n[federation]\nrounds = 1\n",
                       encoding="utf-8")
        return main([verb, "--config", str(ini), "--out", str(tmp_path / verb)])

    # Centralized scores each source's test split, federated the pooled one.
    for verb, datasets in (("centralized", f"{common}, {rare}"), ("federated", rare)):
        assert run(verb, datasets) == 3, verb
        err = capsys.readouterr().err
        assert err.startswith("DATA_ERROR:") and "class 1" in err, err
        assert len(err.strip().splitlines()) == 1
    assert passes == []
    # The other source supplies the pooled positives, so the federation runs.
    assert run("federated", f"{rare}, {common}") == 0
    assert passes


def centralized_ini(tmp_path, name, datasets, training=""):
    ini = tmp_path / f"{name}.ini"
    ini.write_text(f"[experiment]\nkind = centralized\ndatasets = {datasets}\n"
                   f"[federation]\nrounds = 1\n{training}", encoding="utf-8")
    return ini


def run_cli_centralized(tmp_path, name, datasets, training=""):
    ini = centralized_ini(tmp_path, name, datasets, training)
    return main(["centralized", "--config", str(ini), "--out", str(tmp_path / name)])


def float_fault_cases(tmp_path):
    """The README's float faults as (start of the error, verb, config).

    A huge learning rate overflows the first forward pass after one step;
    a column of finite values near 1e200 overflows the z-score's std. The
    error names the dataset, or the round of a federated run.
    """
    plain = synth_csv(tmp_path, "plain", n=120, seed=4)
    huge = load_csv(plain)
    huge.features[:, 3] *= 1e200
    save_csv(huge, tmp_path / "huge.csv")
    lr = "[training]\nlearning_rate = 1e300\n"
    fed_ini = tmp_path / "fed.ini"
    fed_ini.write_text(f"[experiment]\nkind = federated\ndatasets = {plain}\n"
                       f"[federation]\nrounds = 2\n{lr}", encoding="utf-8")
    return (
        (f"dataset {plain}: overflow", "centralized", centralized_ini(tmp_path, "lr", plain, lr)),
        (f"dataset {tmp_path / 'huge.csv'}: overflow", "centralized",
         centralized_ini(tmp_path, "huge", tmp_path / "huge.csv")),
        ("round 1: overflow", "federated", fed_ini),
    )


def test_cli_floating_point_faults_exit_4_with_one_line(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for context, verb, ini in float_fault_cases(tmp_path):
            assert main([verb, "--config", str(ini), "--out", str(tmp_path / ini.stem)]) == 4
            err = capsys.readouterr().err
            assert err.startswith(f"NUMERIC_ERROR: {context}"), err
            assert len(err.splitlines()) == 1, err


def test_library_run_raises_the_cli_numeric_error(tmp_path, capsys):
    # Under numpy's default float settings, run_experiment stops at the same
    # fault with the same message as the CLI, not with a wrong value.
    for context, verb, ini in float_fault_cases(tmp_path):
        with pytest.raises(NumericError) as raised:
            run_experiment(parse_config(ini, out_dir=str(tmp_path / "library")))
        assert str(raised.value).startswith(context), raised.value
        assert main([verb, "--config", str(ini), "--out", str(tmp_path / "cli")]) == 4
        assert capsys.readouterr().err == f"NUMERIC_ERROR: {raised.value}\n"


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


def test_cli_partition_error_names_its_dataset(tmp_path, capsys):
    first = synth_csv(tmp_path, "first", n=120, seed=2)
    second = synth_csv(tmp_path, "second", n=120, seed=3)
    ini = tmp_path / "fed.ini"
    ini.write_text(f"[experiment]\nkind = federated\ndatasets = {first}, {second}\n"
                   "[data]\nchunks = 2, 900\n[federation]\nrounds = 1\n", encoding="utf-8")
    assert main(["federated", "--config", str(ini), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"DATA_ERROR: dataset {second}: cannot split "), err
    assert len(err.splitlines()) == 1, err


# Each verb's INI body and the files it writes, summary.json last.
OUTPUT_FILES = {
    "synth": ("[synth]\nsamples = 20\n", ("a.csv", "b.csv", "config.resolved.json")),
    "centralized": ("", ("config.resolved.json",)),
    "cross-eval": ("", ("config.resolved.json",)),
    "federated": ("", ("config.resolved.json", "rounds.csv", "model.fwv")),
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


def _assert_unfinished(out, err, outputs):
    assert err.startswith(f"CONFIG_ERROR: cannot write outputs to {out}: "), err
    assert len(err.splitlines()) == 1, err
    assert not (out / "summary.json").is_file()
    # Only output names are left: no temp file survives the failed write.
    assert {entry.name for entry in out.iterdir()} <= set(outputs)


def test_cli_failed_output_write_exits_2_with_one_line(tmp_path, capsys):
    # A directory where an output file belongs makes that write fail, for
    # each file of each verb; the run leaves no summary.json and no temp file.
    for verb, (_, files) in OUTPUT_FILES.items():
        ini = _write_verb_ini(tmp_path, verb)
        outputs = files + ("summary.json",)
        for blocked in outputs:
            out = tmp_path / f"{verb}-{blocked}"
            (out / blocked).mkdir(parents=True)
            assert main([verb, "--config", str(ini), "--out", str(out)]) == 2, (verb, blocked)
            _assert_unfinished(out, capsys.readouterr().err, outputs)
        out = tmp_path / verb
        assert main([verb, "--config", str(ini), "--out", str(out)]) == 0
        assert sorted(entry.name for entry in out.iterdir()) == sorted(outputs)


def test_cli_failed_rerun_leaves_no_earlier_summary(tmp_path, capsys):
    # A rerun that fails after replacing some outputs must not leave the
    # first run's summary.json beside files it no longer describes.
    for verb, (_, files) in OUTPUT_FILES.items():
        ini = _write_verb_ini(tmp_path, verb)
        out = tmp_path / verb
        assert main([verb, "--config", str(ini), "--out", str(out)]) == 0
        blocked = out / files[-1]
        blocked.unlink()
        blocked.mkdir()
        assert main([verb, "--config", str(ini), "--out", str(out), "--seed", "7"]) == 2, verb
        _assert_unfinished(out, capsys.readouterr().err, files + ("summary.json",))


def test_a_run_leaves_no_earlier_runs_outputs(tmp_path):
    # Each verb run into a federated run's directory leaves only its own
    # files: no rounds.csv or model.fwv beside a summary.json it did not write.
    federated = _write_verb_ini(tmp_path, "federated")
    for verb, (_, files) in OUTPUT_FILES.items():
        ini = _write_verb_ini(tmp_path, verb)
        out = tmp_path / f"after-{verb}"
        assert main(["federated", "--config", str(federated), "--out", str(out)]) == 0
        assert main([verb, "--config", str(ini), "--out", str(out)]) == 0
        assert sorted(entry.name for entry in out.iterdir()) == sorted(files + ("summary.json",))


def test_cli_write_failing_midway_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    def failing_save(path, values):
        Path(path).write_bytes(b"\x00" * 100)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(experiments, "save_weights", failing_save)
    ini = _write_verb_ini(tmp_path, "federated")
    out = tmp_path / "out"
    assert main(["federated", "--config", str(ini), "--out", str(out)]) == 2
    _assert_unfinished(out, capsys.readouterr().err, ("config.resolved.json", "rounds.csv"))


def test_cli_bom_prefixed_csv_runs_like_its_plain_copy(tmp_path, capsys):
    source = synth_csv(tmp_path, "s", n=120, seed=5)
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "s.csv").write_bytes(prefix + Path(source).read_bytes())
        assert run_cli_centralized(tmp_path, f"out-{name}", tmp_path / name / "s.csv") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    summaries = [json.loads((tmp_path / f"out-{name}" / "summary.json").read_text())
                 for name in ("plain", "bom")]
    for summary in summaries:
        summary.pop("wall_clock_seconds")
    assert summaries[0] == summaries[1]


# A span of a valid dataset CSV (start, length) replaced by a few bytes,
# often ones that keep it a CSV of numbers.
CSV_BYTES = st.text(alphabet='0123456789,.-+eE"\r\n ', max_size=12).map(str.encode)
SPAN_MUTATIONS = st.lists(st.tuples(st.integers(0, 2 ** 31), st.integers(0, 40),
                                    st.one_of(CSV_BYTES, st.binary(max_size=12))),
                          min_size=1, max_size=3)


@settings(derandomize=True, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(SPAN_MUTATIONS, st.binary(max_size=400)))
def test_cli_fuzzed_dataset_bytes_exit_cleanly_with_at_most_one_line(tmp_path, capsys,
                                                                     mutation):
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
    assert code in (0, 2, 3, 4), err
    assert len(err.splitlines()) <= 1, err


def test_cli_header_only_csv_is_one_data_error_line(tmp_path, capsys):
    path = tmp_path / "header.csv"
    path.write_text(",".join(FEATURE_NAMES + (LABEL_COLUMN,)) + "\r\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli_centralized(tmp_path, "header", path) == 3
    assert caught == []
    assert capsys.readouterr().err == f"DATA_ERROR: dataset {path}: no data rows\n"


_HEADER = ",".join(FEATURE_NAMES + (LABEL_COLUMN,)) + "\r\n"


@pytest.mark.parametrize("content", [
    _HEADER + ",".join(["1.0"] * 15 + ["x", "0"]) + "\r\n",  # a bad cell
    "",  # an empty file
    "TLOC,is_god_class\r\n1,0\r\n",  # missing columns
    _HEADER,  # no data rows
    None,  # no file
], ids=["bad-cell", "empty", "missing-column", "header-only", "missing-file"])
def test_cli_dataset_error_names_its_csv_once(tmp_path, capsys, content):
    path = tmp_path / "input.csv"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert run_cli_centralized(tmp_path, "once", path) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"DATA_ERROR: dataset {path}: ") and len(err.splitlines()) == 1, err
    # The OS's own message for a missing file quotes the path; no stage repeats it.
    assert err.count(f"{path}:") == 1, err


@pytest.mark.parametrize("verb, count", [("centralized", 1), ("cross-eval", 3),
                                         ("federated", 1)])
@pytest.mark.parametrize("fraction, side", [(0.01, "test"), (0.99, "training")])
def test_cli_empty_split_names_its_side(tmp_path, capsys, verb, count, fraction, side):
    paths = [synth_csv(tmp_path, f"d{i}", n=40, seed=i) for i in range(count)]
    ini = tmp_path / "c.ini"
    ini.write_text(f"[experiment]\ndatasets = {', '.join(paths)}\n"
                   f"[data]\ntest_fraction = {fraction}\n", encoding="utf-8")
    assert main([verb, "--config", str(ini), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (f"DATA_ERROR: dataset {paths[0]}: dataset 'd0': "
                                       f"test_fraction {fraction} leaves the {side} split empty\n")


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
    env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parent.parent)}
    proc = subprocess.Popen([sys.executable, "-c", _MARKED_RUN, "federated", "--config", "c.ini",
                             "--out", "out"], cwd=tmp_path, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not (tmp_path / "training").exists() and proc.poll() is None:
            assert time.monotonic() < deadline, "the run never started training"
            time.sleep(0.02)
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, err
    assert err.startswith("INTERRUPTED: ") and len(err.splitlines()) == 1, err
    # The stop leaves no summary.json and no temp file.
    assert {entry.name for entry in (tmp_path / "out").iterdir()} <= {"config.resolved.json",
                                                                     "rounds.csv", "model.fwv"}


def test_cli_main_leaves_the_sigterm_handler_as_it_found_it(tmp_path, capsys, monkeypatch):
    def own_handler(signum, frame):
        pass

    def interrupted(cfg):
        assert signal.getsignal(signal.SIGTERM) is signal.default_int_handler
        raise KeyboardInterrupt

    ini = _write_verb_ini(tmp_path, "centralized")
    previous = signal.signal(signal.SIGTERM, own_handler)
    try:
        assert main(["centralized", "--config", str(ini), "--out", str(tmp_path / "a")]) == 0
        assert signal.getsignal(signal.SIGTERM) is own_handler
        assert main(["centralized", "--config", str(tmp_path / "none.ini")]) == 2
        assert signal.getsignal(signal.SIGTERM) is own_handler
        monkeypatch.setattr(cli, "run_experiment", interrupted)
        assert main(["centralized", "--config", str(ini), "--out", str(tmp_path / "b")]) == 130
        assert signal.getsignal(signal.SIGTERM) is own_handler
    finally:
        signal.signal(signal.SIGTERM, previous)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("CONFIG_ERROR: ") and err[1].startswith(
        "INTERRUPTED: "), err
