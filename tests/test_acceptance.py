"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criteria 1-7 are unconditional and need no external data. Criteria 8-10
run only when the three benchmark CSVs are available; point
FEDSMELL_DATA_DIR at a directory holding dataset1.csv, dataset2.csv and
dataset3.csv (first/second/third benchmark set) to enable them.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from fedsmell.cli import main
from fedsmell.config import ExperimentConfig
from fedsmell.data import concat_datasets, load_csv
from fedsmell.experiments import (prepare_source, run_centralized, run_cross_eval,
                                  run_experiment, run_federated, train_centralized)
from fedsmell.federation import (ClientNode, FederationTopology, ModelUpdate,
                                 RoundConfig, client_update, combiner_aggregate,
                                 reducer_reduce)
from fedsmell.metrics import (ConfusionMatrix, cohen_kappa, evaluate_model,
                              interpret_kappa, interpret_roc, roc_auc)
from fedsmell.nn import (Hyperparams, PARAM_COUNT, forward_batch, init_params,
                         loss_and_gradient, mean_cross_entropy, unflatten_params)
from fedsmell.seeds import derive_seed
from test_metrics import auc_pair_oracle, kappa_oracle
from util import grad_buffer, random_dataset, run_rounds, synth_csv


def report(criterion: str, body):
    try:
        body()
    except BaseException:
        print(f"[{criterion}] FAIL")
        raise
    print(f"[{criterion}] PASS")


def cfg_for(kind, datasets, out_dir, **overrides):
    base = dict(kind=kind, datasets=tuple(datasets), out_dir=str(out_dir))
    base.update(overrides)
    return ExperimentConfig(**base)


# --------------------------------------------------------------- criterion 1

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


def test_criterion_1_gradient_oracle():
    def body():
        coords = np.arange(PARAM_COUNT)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((8, 16))
            y = rng.integers(0, 2, 8)
            base = init_params(seed)
            _, analytic = loss_and_gradient(X, y, unflatten_params(base), grad_buffer())
            numeric = fd_gradient(base, X, y, coords)
            assert_gradients_match(analytic, numeric, coords)

    report("criterion 1: full-model gradients match central finite differences "
           "(delta 1e-5, 1e-4 relative, 5 seeds x 8 samples)", body)


# --------------------------------------------------------------- criterion 2

def test_criterion_2_aggregation_oracles():
    def body():
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 12))
            dim = int(rng.integers(1, 40))
            updates = [ModelUpdate(i, rng.standard_normal(dim) * 10.0 ** rng.integers(-2, 3),
                                   int(rng.integers(1, 10_000)))
                       for i in range(k)]
            total = sum(u.sample_count for u in updates)
            expected = np.array([
                math.fsum(u.sample_count / total * u.weights[j] for u in updates)
                for j in range(dim)
            ])
            got = combiner_aggregate(updates)
            assert np.max(np.abs(got - expected)) <= 1e-12

        # Accumulation error stays below 1e-12 out to 100 clients.
        rng100 = np.random.default_rng(99)
        updates = [ModelUpdate(i, rng100.standard_normal(25), int(rng100.integers(1, 5000)))
                   for i in range(100)]
        total = sum(u.sample_count for u in updates)
        expected = np.array([
            math.fsum(u.sample_count / total * u.weights[j] for u in updates)
            for j in range(25)
        ])
        assert np.max(np.abs(combiner_aggregate(updates) - expected)) <= 1e-12

        # Plain reducer: the unweighted mean of 2 to 8 combiner models.
        rng_k = np.random.default_rng(7)
        for k in range(2, 9):
            models = [rng_k.standard_normal(30) * 10.0 ** rng_k.integers(-2, 3)
                      for _ in range(k)]
            expected = np.array([math.fsum(m[j] / k for m in models) for j in range(30)])
            got = reducer_reduce(models, None, t=1, mode="plain")
            assert np.max(np.abs(got - expected)) <= 1e-12

        # Smoothed reducer against an independent scalar streaming average.
        for trial in range(20):
            rng2 = np.random.default_rng(1000 + trial)
            dim = int(rng2.integers(1, 20))
            current = rng2.standard_normal(dim)
            oracle = current.copy()
            for t in range(1, 50):
                mean = rng2.standard_normal(dim)
                current = reducer_reduce([mean], current, t=t, mode="smoothed")
                for j in range(dim):
                    oracle[j] = oracle[j] + (mean[j] - oracle[j]) / t
                assert np.max(np.abs(current - oracle)) <= 1e-12

    report("criterion 2: combiner weighted mean, plain and smoothed reducer match "
           "brute-force oracles to 1e-12", body)


# --------------------------------------------------------------- criterion 3

def test_criterion_3_single_client_equivalence():
    def body():
        local = random_dataset(90, 35, seed=3, name="local")
        client = ClientNode(0, local, Hyperparams(), 0)
        topology = FederationTopology((0,), (client,))
        test_set = random_dataset(40, 16, seed=4, name="test")
        config = RoundConfig(rounds=10, client_fraction=1.0, seed=11, reducer_mode="plain")

        _, federated = run_rounds(topology, config, test_set)

        weights = init_params(config.seed)
        for t in range(1, config.rounds + 1):
            weights = client_update(client, weights, derive_seed(config.seed, t, 0)).weights

        assert np.array_equal(federated, weights), "federated weights diverged bitwise"

    report("criterion 3: 1-client/1-combiner plain federation reproduces "
           "centralized training bitwise over 10 rounds", body)


# --------------------------------------------------------------- criterion 4

def test_criterion_4_metric_oracles_and_bands():
    def body():
        rng = np.random.default_rng(7)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 200, 4))
            if tp + tn + fp + fn == 0:
                tn = 1
            cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
            assert abs(cohen_kappa(cm) - kappa_oracle(cm)) <= 1e-12

        for trial in range(200):
            rng2 = np.random.default_rng(5000 + trial)
            n = int(rng2.integers(4, 40))
            scores = np.round(rng2.random(n), int(rng2.integers(1, 4)))
            labels = rng2.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(roc_auc(scores, labels) - auc_pair_oracle(scores, labels)) <= 1e-12

        assert interpret_kappa(0.79) == "Substantial"
        assert interpret_kappa(1.0) == "Almost perfect"
        assert interpret_kappa(0.81) == "Almost perfect"
        assert interpret_kappa(0.19) == "Poor"
        assert interpret_kappa(0.21) == "Fair"
        assert interpret_kappa(0.41) == "Moderate"
        assert interpret_kappa(0.61) == "Substantial"
        for gap_value, lower_band in ((0.20, "Poor"), (0.40, "Fair"),
                                      (0.60, "Moderate"), (0.80, "Substantial")):
            assert interpret_kappa(gap_value) == lower_band
        assert interpret_roc(0.95) == "Excellent"
        assert interpret_roc(0.55) == "Fail"
        assert interpret_roc(0.65) == "Poor"
        assert interpret_roc(0.75) == "Fair"
        assert interpret_roc(0.85) == "Good"
        assert interpret_roc(0.5) == "Fail (<=0.5)"

    report("criterion 4: kappa and ROC-AUC match brute-force oracles to 1e-12 "
           "on 200 randomized cases; interpretation bands verbatim", body)


# --------------------------------------------------------------- criterion 5

def test_criterion_5_synthetic_cross_evaluation_drop(tmp_path):
    def body():
        for seed in (0, 1, 2):
            home = synth_csv(tmp_path, f"home{seed}", 0.0, n=800, seed=100 + seed)
            moved = synth_csv(tmp_path, f"moved{seed}", 3.0, n=800, seed=200 + seed)
            peer = synth_csv(tmp_path, f"peer{seed}", 0.0, n=800, seed=300 + seed)

            central = run_centralized(
                cfg_for("centralized", [home], tmp_path / f"c{seed}", rounds=20, seed=seed)
            )
            in_dist = central.rows[0]["accuracy_pct"]

            cross = run_cross_eval(
                cfg_for("cross_eval", [home, moved, peer], tmp_path / f"x{seed}",
                        rounds=20, seed=seed)
            )
            cells = {(r["train_source"], r["eval_source"]): r["accuracy_pct"]
                     for r in cross.rows}
            shifted_cell = cells[(f"home{seed}", f"moved{seed}")]
            assert shifted_cell <= in_dist - 10.0, (
                f"seed {seed}: cross {shifted_cell:.2f} vs in-dist {in_dist:.2f}"
            )

    report("criterion 5: 3-sigma domain shift drops cross-evaluation accuracy "
           ">= 10 points below in-distribution, over 3 seeds", body)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_federation_beats_single_source_baselines(tmp_path):
    def body():
        for seed in (0, 1, 2):
            paths = [
                synth_csv(tmp_path, f"s{seed}a", 0.0, n=1200, seed=400 + seed),
                synth_csv(tmp_path, f"s{seed}b", 3.0, n=1200, seed=500 + seed),
                synth_csv(tmp_path, f"s{seed}c", 0.0, n=1200, seed=600 + seed),
            ]
            cfg = cfg_for("federated", paths, tmp_path / f"f{seed}", rounds=30, seed=seed)
            logs = run_federated(cfg).round_logs
            federated_best = max(log.report.accuracy_pct for log in logs)
            assert logs[-1].report.accuracy_pct >= logs[0].report.accuracy_pct

            sources = [prepare_source(p, cfg, i) for i, p in enumerate(paths)]
            pooled = concat_datasets("pool", [s.test for s in sources])
            best_central = 0.0
            for source in sources:
                weights = train_centralized(source.train, Hyperparams(), 30, cfg.seed)
                best_central = max(best_central,
                                   evaluate_model(weights, pooled).accuracy_pct)

            assert federated_best >= best_central - 2.0, (
                f"seed {seed}: federated {federated_best:.2f} vs "
                f"best centralized {best_central:.2f}"
            )

    report("criterion 6: 10-client heterogeneous federation reaches pooled accuracy "
           ">= best single-source centralized - 2 points within 30 rounds, 3 seeds", body)


# --------------------------------------------------------------- criterion 7

def test_criterion_7_byte_identical_round_logs(tmp_path):
    def body():
        data_path = synth_csv(tmp_path, "det", 0.0, n=400, seed=77)
        ini = tmp_path / "fed.ini"
        ini.write_text(
            f"[experiment]\nkind = federated\ndatasets = {data_path}\nseed = 13\n"
            "[data]\nchunks = 3\n[topology]\ncombiner_clients = 2, 1\n"
            "[federation]\nrounds = 4\n",
            encoding="utf-8",
        )
        out_a, out_b = tmp_path / "runA", tmp_path / "runB"
        assert main(["federated", "--config", str(ini), "--out", str(out_a)]) == 0
        assert main(["federated", "--config", str(ini), "--out", str(out_b)]) == 0
        for name in ("rounds.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    report("criterion 7: identical config and seed produce byte-identical "
           "rounds.csv and summary.json across two sequential runs", body)


# -------------------------------------------------- data-conditional 8 - 10

def benchmark_paths():
    root = os.environ.get("FEDSMELL_DATA_DIR")
    if not root:
        return None
    paths = [Path(root) / f"dataset{i}.csv" for i in (1, 2, 3)]
    if not all(p.exists() for p in paths):
        return None
    return [str(p) for p in paths]


needs_benchmark_data = pytest.mark.skipif(
    benchmark_paths() is None,
    reason="benchmark CSVs not provided (set FEDSMELL_DATA_DIR)",
)

# Reference accuracies reported for the three benchmark sets, +-3 points.
REFERENCE_CENTRAL = (98.90, 92.30, 99.15)


@needs_benchmark_data
def test_criterion_8_centralized_reference_accuracies(tmp_path):
    def body():
        paths = benchmark_paths()
        third = load_csv(paths[2])
        assert len(third) == 12_587
        assert int(third.labels.sum()) == 485

        table = run_centralized(cfg_for("centralized", paths, tmp_path / "c",
                                        rounds=100, seed=0))
        for row, expected in zip(table.rows, REFERENCE_CENTRAL):
            assert abs(row["accuracy_pct"] - expected) <= 3.0, (
                f"{row['train_source']}: {row['accuracy_pct']:.2f} vs {expected}"
            )

    report("criterion 8: centralized accuracies within +-3 points of the "
           "reference per-dataset results", body)


@needs_benchmark_data
def test_criterion_9_cross_evaluation_ordering(tmp_path):
    def body():
        paths = benchmark_paths()
        table = run_cross_eval(cfg_for("cross_eval", paths, tmp_path / "x",
                                       rounds=100, seed=0))
        names = [load_csv(p).name for p in paths]
        cells = {(r["train_source"], r["eval_source"]): r["accuracy_pct"]
                 for r in table.rows}
        d1, d2, d3 = names
        # Reference ordering, ascending: (1->2) < (3->2) < (2->1) < (2->3) < (1->3) < (3->1)
        reference_order = [(d1, d2), (d3, d2), (d2, d1), (d2, d3), (d1, d3), (d3, d1)]
        observed_order = [pair for pair, _ in sorted(cells.items(), key=lambda kv: kv[1])]
        assert observed_order == reference_order

        involving_second = [v for (tr, ev), v in cells.items() if d2 in (tr, ev)]
        between_first_third = [cells[(d1, d3)], cells[(d3, d1)]]
        assert max(involving_second) <= min(between_first_third) - 10.0

    report("criterion 9: cross-evaluation reproduces the reference cell ordering; "
           "second-dataset cells trail the first/third cells by >= 10 points", body)


@needs_benchmark_data
def test_criterion_10_federated_reference_run(tmp_path):
    def body():
        paths = benchmark_paths()
        cfg = cfg_for("federated", paths, tmp_path / "f", rounds=100, seed=0)
        result = run_experiment(cfg)
        final = result.round_logs[-1].report
        assert final.accuracy_pct >= 96.0
        assert final.kappa_band in ("Substantial", "Almost perfect")

    report("criterion 10: 10-client/2-combiner/100-round federation reaches "
           ">= 96% pooled accuracy with kappa band Substantial or better", body)
