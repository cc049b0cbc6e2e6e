"""Tests of the benchmark itself: python3 -m pytest bench -q

Small variants of the workloads (two rounds per federated invocation)
keep these quick; the inputs and the output checks are the real ones.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

SMALL = {name: replace(w, name=f"test-{name}", rounds=min(w.rounds, 2))
         for name, w in bench.WORKLOADS.items()}


def run_small(capsys, name, seed, trace):
    code = bench.run(SMALL[name], seed, seconds=0.1, trace=trace)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0, result
    return result


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_small_run_passes_output_check(capsys, name):
    result = run_small(capsys, name, seed=5, trace=False)
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_counts_repeat_exactly_across_runs(capsys, name):
    first = run_small(capsys, name, seed=6, trace=True)["metrics"]
    second = run_small(capsys, name, seed=6, trace=True)["metrics"]
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert set(first) == {m["name"] for m in declared["per_layer"]}
    for count in bench.COUNT_METRICS:
        assert first[count] == second[count], count
    assert first["nn.grad_zero_share"]["value"] >= 1296 / 9916
    assert first["data.rows_ingested"]["value"] == {
        "federated": 3000 + 1500 + 12587, "cross-eval": 3 * 6000}[SMALL[name].verb]


def test_bytes_moved_matches_formula_on_paper_fed(capsys):
    metrics = run_small(capsys, "paper-fed", seed=7, trace=True)["metrics"]
    assert metrics["federation.clients_per_round"]["value"] == 10
    assert metrics["federation.bytes_moved_per_round"]["value"] == 2 * (10 + 2) * 9916 * 8


def test_changed_workload_definition_is_not_a_determinism_failure(capsys):
    run_small(capsys, "paper-fed", seed=8, trace=False)
    one_round = replace(SMALL["paper-fed"], rounds=1)
    assert bench.run(one_round, 8, seconds=0.1, trace=False) == 0, capsys.readouterr().out


def _span(name, start, end, parent=-1, value=None):
    return [name, start, end, end, parent, value]


def test_layer_metrics_from_spans():
    # One round: two clients (2 and 1 steps) under one combiner, then the reducer.
    spans = [
        _span("experiments.run_experiment", 0.0, 10.0),
        _span("federation.sample_clients", 1.0, 1.5, 0, 2),
        _span("federation.client_update", 2.0, 4.0, 0),
        _span("nn.unflatten", 2.0, 2.1, 2),
        _span("nn.loss_and_gradient", 2.5, 3.0, 2, 9916),
        _span("nn.adam_update", 3.0, 3.1, 2),
        _span("nn.loss_and_gradient", 3.1, 3.6, 2, 0),
        _span("federation.client_update", 4.0, 5.0, 0),
        _span("nn.loss_and_gradient", 4.0, 4.5, 7, 0),
        _span("federation.combiner_aggregate", 5.0, 5.5, 0),
        _span("federation.reducer_reduce", 5.5, 6.0, 0),
        _span("metrics.evaluate_model", 6.0, 7.0, 0, 100),
        _span("nn.forward_eval", 6.1, 6.3, 11),
        _span("metrics.roc_auc", 6.5, 6.6, 11),
        _span("federation.checksum", 7.0, 7.1, 0),
    ]
    metrics = bench.layer_metrics([spans])
    assert metrics["nn.steps"][0] == 3
    assert metrics["nn.grad_zero_share"][0] == pytest.approx(1 / 3)
    assert metrics["federation.clients_per_round"][0] == 2
    assert metrics["federation.step_imbalance"][0] == pytest.approx(2 / 1.5)
    assert metrics["federation.bytes_moved_per_round"][0] == 2 * (2 + 1) * 9916 * 8
    # Self time excludes the nn children: (2.0 - 1.2) and (1.0 - 0.5) seconds.
    assert metrics["federation.client_update_self_ms"][0] == pytest.approx(1e3 * 0.65)
    assert metrics["nn.busy_share"][0] == pytest.approx(1.9 / 10)
    assert metrics["metrics.busy_share"][0] == pytest.approx((0.7 + 0.1) / 10)
    assert metrics["metrics.rows_scored"][0] == 100
    assert bench.traced_round_durations(bench.kept_spans([spans])) == [6.0]


def test_probe_spans_only_fill_missing_functions():
    spans = [
        _span("federation.client_update", 0.0, 1.0),
        _span("probe", 2.0, 4.0),
        _span("federation.client_update", 2.0, 3.0, 1),
        _span("experiments.train_centralized", 2.0, 3.5, 1),
    ]
    kept = [s["name"] for s in bench.kept_spans([spans])]
    assert kept == ["federation.client_update", "experiments.train_centralized"]


def test_tail_leaves_ten_samples_beyond():
    assert bench.tail(list(range(100))) == (89, 90.0, 10)
    value, percentile, beyond = bench.tail(list(range(40)))
    assert (value, beyond) == (29, 10) and percentile == 75.0
    assert bench.tail(list(range(12)))[0] == 5  # never below the median


def test_exact_source_has_exact_positives():
    sys.path.insert(0, str(bench.SRC))  # as bench.run does
    source = bench.exact_source(12587, 485, 0.0, bench.input_seed(1, "gamma"), "gamma")
    assert len(source) == 12587 and source.class_counts() == (12102, 485)
    again = bench.exact_source(12587, 485, 0.0, bench.input_seed(1, "gamma"), "gamma")
    assert (again.features == source.features).all()


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/bench.py", "--workload", "paper-fed",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
