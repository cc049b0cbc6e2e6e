"""The benchmark's hooks into the program, on tiny inputs.

bench/child.py wraps named fedsmell functions where their callers look
them up; a renamed or reshaped function breaks the benchmark only at
run time. These runs drive the child in each mode the benchmark uses,
through the same verbs, and feed its trace records to the benchmark's
own per-layer reducer.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedsmell.config import FEDERATED, parse_config
from fedsmell.experiments import build_federated_clients, prepare_source

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))
import bench  # noqa: E402

SYNTH_INI = """\
[experiment]
datasets = alpha, beta, gamma
seed = 4
[synth]
samples = 120
positive_rate = 0.4
shifts = 0, 2, 0
"""

CROSS_INI = """\
[experiment]
datasets = data/alpha.csv, data/beta.csv, data/gamma.csv
seed = 4
[data]
rebalance = undersample
[federation]
rounds = 1
"""

FED_INI = """\
[experiment]
datasets = data/alpha.csv, data/beta.csv, data/gamma.csv
seed = 4
[data]
chunks = 2, 1, 2
[topology]
combiner_clients = 3, 2
[federation]
rounds = 2
client_fraction = 0.6
reducer_mode = smoothed
"""


def child(mode, argv, work):
    """Run bench/child.py as the benchmark does; return its record."""
    record = work / f"{mode}-{argv[0]}.record.json"
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), mode, str(record), *argv],
                          cwd=work, env=dict(os.environ, **bench.CHILD_ENV),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), (mode, argv)
    return json.loads(record.read_text(encoding="utf-8"))


SYNTH = ["synth", "--config", "synth.ini", "--out", "data"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory with the three INIs and the synth CSVs they read."""
    work = tmp_path_factory.mktemp("bench-surface")
    for name, text in (("synth.ini", SYNTH_INI), ("cross.ini", CROSS_INI),
                       ("fed.ini", FED_INI)):
        (work / name).write_text(text, encoding="utf-8")
    child("run", SYNTH, work)
    return work


def test_synth_and_cross_eval_hooks(work):
    cross = ["cross-eval", "--config", "cross.ini", "--out", "cross"]
    clocked = child("run", cross, work)
    assert len(clocked["eval_losses"]) == 6
    assert len(clocked["rounds"]) == 3

    traces = [child("trace", argv, work)["spans"] for argv in (SYNTH, cross)]
    metrics = bench.layer_metrics(traces)
    assert metrics["data.rows_ingested"][0] == 3 * 120
    assert metrics["nn.steps"][0] > 0


def expected_steps(work, monkeypatch):
    """(rounds, training steps) of the federated run: one step per batch of
    each client that rounds.csv lists, per local epoch."""
    monkeypatch.chdir(work)
    cfg = parse_config("fed.ini", kind=FEDERATED)
    sources = [prepare_source(path, cfg, i) for i, path in enumerate(cfg.datasets)]
    topology = build_federated_clients(sources, cfg)
    with open(work / "fed" / "rounds.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    steps = 0
    for row in rows:
        for client_id in row["participants"].split(";"):
            client = topology.client_by_id(int(client_id))
            steps += (math.ceil(len(client.local_data) / client.hyper.batch_size)
                      * client.hyper.local_epochs)
    return len(rows), steps


def test_federated_hooks(work, monkeypatch):
    fed = ["federated", "--config", "fed.ini", "--out", "fed"]
    child("setup", fed, work)
    clocked = child("run", fed, work)
    assert len(clocked["rounds"]) == 2 and all(rows > 0 for _, _, rows in clocked["rounds"])

    spans = child("trace", fed, work)["spans"]
    names = [span[0] for span in spans]
    metrics = bench.layer_metrics([spans])
    rounds, steps = expected_steps(work, monkeypatch)
    # One blocked forward call per scoring, one traced step per batch.
    assert names.count("nn.forward_eval") == names.count("metrics.evaluate_model") == rounds
    assert names.count("federation.checksum") == rounds  # hooked where iter_rounds looks it up
    assert metrics["nn.steps"][0] == steps
    assert metrics["federation.clients_per_round"][0] == 3
    assert metrics["nn.grad_zero_share"][0] >= 1296 / 9916
    assert metrics["metrics.rows_scored"][0] > 0
