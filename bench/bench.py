"""fedsmell benchmark: end-to-end run metrics and a traced per-layer run.

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from `src/` next to this
directory. Each run writes its inputs from the seed, then drives the
workload through `fedsmell.cli.main` in a closed loop, one child process
per user invocation and one in flight at a time, for S seconds. Every
invocation's outputs are checked. The last stdout line is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics from traced invocations. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PARAM_COUNT = 9916
FWV_BYTES = 4 + PARAM_COUNT * 8
ROUNDS_HEADER = "round,loss,accuracy,kappa,kappa_pct,roc_auc,participants"
CHILD_TIMEOUT_S = 120
CHILD_ENV = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}

# Paper-scale sources: (name, rows, positive rows, shift). gamma has the
# third benchmark set's size and positive count from the README.
PAPER_SOURCES = (("alpha", 3000, 1500, 0.0), ("beta", 1500, 750, 3.0),
                 ("gamma", 12587, 485, 0.0))


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    rounds: int
    sections: str  # INI sections after [experiment]


# Rounds per invocation are few so that one run holds 15-25 invocations:
# run_s_min needs many chances at an uncontended stretch of the machine.
WORKLOADS = {
    # nn steps dominate: ~20k oversampled train rows in 10 clients.
    "paper-fed": Workload("paper-fed", "federated", 2, """\
[data]
rebalance = oversample
chunks = 5, 1, 4
[topology]
combiner_clients = 5, 5
[federation]
rounds = {rounds}
client_fraction = 1.0
reducer_mode = plain
"""),
    # Per-client overhead and scoring dominate: 100 clients of ~38 rows,
    # half sampled per round, four combiners, smoothed reducer.
    "many-clients": Workload("many-clients", "federated", 15, """\
[data]
rebalance = undersample
chunks = 40, 20, 40
[topology]
combiner_clients = 25, 25, 25, 25
[federation]
rounds = {rounds}
client_fraction = 0.5
reducer_mode = smoothed
"""),
    # CSV write and parse plus foreign-set scoring; no federation rounds.
    "ingest-eval": Workload("ingest-eval", "cross-eval", 1, """\
[data]
rebalance = undersample
[federation]
rounds = {rounds}
"""),
}

SYNTH_INI = """\
[experiment]
datasets = alpha, beta, gamma
seed = {seed}
[synth]
samples = 6000
positive_rate = 0.25
shifts = 0, 3, 0
"""


class BenchError(Exception):
    """A check on the program's outputs failed."""


# ------------------------------------------------------------------ inputs

def input_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"fedsmell-bench:{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def exact_source(n: int, positives: int, shift: float, seed: int, name: str):
    """A synth_generate sample of n rows with exactly `positives` positive.

    synth_generate draws Bernoulli labels, so draw a larger pool and keep
    the first `positives` positive and `n - positives` negative rows,
    in pool order.
    """
    import numpy as np
    from fedsmell import data

    pool_n = 4 * n
    while True:
        pool = data.synth_generate(pool_n, positives / n, data.domain_shift(shift), seed, name)
        pos = np.flatnonzero(pool.labels == 1)[:positives]
        neg = np.flatnonzero(pool.labels == 0)[:n - positives]
        if len(pos) == positives and len(neg) == n - positives:
            return pool.subset(np.sort(np.concatenate([pos, neg])), name)
        pool_n *= 2


def write_inputs(workload: Workload, seed: int, work: Path) -> None:
    """Write the workload's CSV and INI files into `work`."""
    head = f"[experiment]\nseed = {seed}\n"
    body = workload.sections.format(rounds=workload.rounds)
    if workload.verb == "federated":
        from fedsmell import data

        for name, rows, positives, shift in PAPER_SOURCES:
            source = exact_source(rows, positives, shift, input_seed(seed, name), name)
            data.save_csv(source, work / f"{name}.csv")
        head += "datasets = alpha.csv, beta.csv, gamma.csv\n"
    else:
        (work / "synth.ini").write_text(SYNTH_INI.format(seed=seed), encoding="utf-8")
        head += "datasets = data/alpha.csv, data/beta.csv, data/gamma.csv\n"
    (work / "workload.ini").write_text(head + body, encoding="utf-8")


# ---------------------------------------------------------------- children

@dataclass
class Child:
    ok: bool
    wall_s: float
    rss_mb: float
    record: dict
    error: str = ""


def spawn(mode: str, argv: list, cwd: Path, tag: str) -> Child:
    """Run bench/child.py in its own process; wall time spans start to exit."""
    record_path = cwd / f"{tag}.record.json"
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(record_path), *argv]
    env = dict(os.environ, **CHILD_ENV)
    with open(cwd / f"{tag}.stdout", "wb") as out, open(cwd / f"{tag}.stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    stderr = (cwd / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or stderr:
        error = f"{mode} {' '.join(argv)}: exit {proc.returncode}: {stderr.strip()[:300]}"
        return Child(False, wall, rss_mb, {}, error)
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return Child(False, wall, rss_mb, {}, f"{mode} {' '.join(argv)}: no record: {exc}")
    return Child(True, wall, rss_mb, record)


# ----------------------------------------------------------- output checks

def check_rounds_csv(path: Path, rounds: int) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != ROUNDS_HEADER:
        raise BenchError(f"{path}: header {lines[:1]} != {ROUNDS_HEADER!r}")
    if len(lines) != rounds + 1:
        raise BenchError(f"{path}: {len(lines) - 1} rows for {rounds} rounds")
    rows = []
    for t, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        values = [float(v) for v in cells[1:6]]
        if int(cells[0]) != t or not all(map(math.isfinite, values)) or not cells[6]:
            raise BenchError(f"{path}: bad row {t}: {line[:120]}")
        rows.append(values)
    return rows


def check_fwv(path: Path) -> None:
    raw = path.read_bytes()
    if len(raw) != FWV_BYTES or struct.unpack_from("<I", raw)[0] != PARAM_COUNT:
        raise BenchError(f"{path}: {len(raw)} bytes, expected {FWV_BYTES}")
    values = struct.unpack_from(f"<{PARAM_COUNT}d", raw, 4)
    if not all(map(math.isfinite, values)):
        raise BenchError(f"{path}: non-finite weights")


def check_cells(path: Path) -> list:
    cells = json.loads(path.read_text(encoding="utf-8"))["cells"]
    accuracies = [cell["accuracy_pct"] for cell in cells]
    if len(cells) != 6 or not all(math.isfinite(a) and 0 <= a <= 100 for a in accuracies):
        raise BenchError(f"{path}: expected six finite accuracy cells, got {accuracies}")
    return cells


def check_synth(data_dir: Path) -> bytes:
    blob = b""
    for name in ("alpha", "beta", "gamma"):
        raw = (data_dir / f"{name}.csv").read_bytes()
        if raw.count(b"\n") != 6001:
            raise BenchError(f"{data_dir / name}.csv: expected 6000 rows")
        blob += raw
    return blob


# ------------------------------------------------------------- invocations

@dataclass
class Invocation:
    ok: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    rounds: list = field(default_factory=list)  # [start, end, rows]
    spans: list = field(default_factory=list)
    final_loss: float = 0.0
    final_accuracy_pct: float = 0.0
    digest: str = ""
    error: str = ""


def invoke(workload: Workload, work: Path, index: int, mode: str) -> Invocation:
    """One user invocation (ingest-eval: synth then cross-eval), checked."""
    out = f"inv{index}"
    children = []
    blob = b""
    try:
        if workload.verb == "cross-eval":
            synth = spawn(mode, ["synth", "--config", "synth.ini", "--out", "data"],
                          work, f"{out}-synth")
            children.append(synth)
            if synth.ok:
                blob += check_synth(work / "data")
        if all(c.ok for c in children):
            children.append(spawn(mode, [workload.verb, "--config", "workload.ini", "--out", out],
                                  work, out))
        failed = [c.error for c in children if not c.ok]
        if failed:
            return Invocation(False, error="; ".join(failed))
        inv = Invocation(True, wall_s=sum(c.wall_s for c in children),
                         rss_mb=max(c.rss_mb for c in children))
        record = children[-1].record
        if workload.verb == "federated":
            rows = check_rounds_csv(work / out / "rounds.csv", workload.rounds)
            check_fwv(work / out / "model.fwv")
            blob += (work / out / "rounds.csv").read_bytes() + (work / out / "model.fwv").read_bytes()
            inv.final_loss, inv.final_accuracy_pct = rows[-1][0], rows[-1][1]
        else:
            cells = check_cells(work / out / "summary.json")
            blob += json.dumps(cells, sort_keys=True).encode()
            inv.final_accuracy_pct = statistics.fmean(c["accuracy_pct"] for c in cells)
            losses = record.get("eval_losses", [])
            if mode == "run":
                if len(losses) != 6:
                    raise BenchError(f"{out}: {len(losses)} evaluations, expected 6")
                inv.final_loss = statistics.fmean(losses)
        inv.digest = hashlib.sha256(blob).hexdigest()
        inv.rounds = record.get("rounds", [])
        if mode == "trace":
            inv.spans = [c.record["spans"] for c in children]
        return inv
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        return Invocation(False, error=f"{out}: {exc}")
    finally:
        shutil.rmtree(work / out, ignore_errors=True)


# ------------------------------------------------------ end-to-end metrics

def tail(values: list):
    """(value, percentile, samples beyond): the highest percentile up to
    p90 that leaves at least ten samples beyond it (nearest rank), and
    never below the median."""
    xs = sorted(values)
    n = len(xs)
    k = max(math.ceil(0.5 * n) - 1, min(math.ceil(0.9 * n) - 1, n - 11))
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def round_durations(invocations: list) -> list:
    return [end - start for inv in invocations for start, end, _ in inv.rounds]


def end_to_end(invocations: list, setups: list) -> tuple[dict, list]:
    """Run-level metrics. Times are best-of-run: on a shared machine the
    median round moves with other tenants' load (see README), the fastest
    round and invocation do not."""
    durations = round_durations(invocations)
    throughputs = [rows / (end - start) for inv in invocations for start, end, rows in inv.rounds]
    p90, percentile, beyond = tail(durations)
    last = invocations[-1]
    metrics = {
        "setup_s": (statistics.median(c.wall_s for c in setups), "s"),
        "run_s_min": (min(inv.wall_s for inv in invocations), "s"),
        "round_s_min": (min(durations), "s"),
        "rows_per_s_max": (max(throughputs), "1/s"),
        "peak_rss_mb": (statistics.median(inv.rss_mb for inv in invocations), "MB"),
    }
    firsts = [inv.rounds[0][1] - inv.rounds[0][0] for inv in invocations]
    notes = [
        f"invocations {len(invocations)}, setups {len(setups)}, rounds {len(durations)}",
        f"run_s median {statistics.median(inv.wall_s for inv in invocations):.4f}, "
        f"round_s median {statistics.median(durations):.4f}, "
        f"tail p{percentile:.1f} {p90:.4f} ({beyond} rounds beyond it)",
        f"warm-up: first-round median {statistics.median(firsts):.4f} s",
        f"final_loss {last.final_loss!r}, final_accuracy_pct {last.final_accuracy_pct!r}",
    ]
    return metrics, notes


# ------------------------------------------------------- per-layer metrics

def kept_spans(children: list) -> list:
    """Merge one invocation's span lists (one per child process).

    A span inside the probe is kept only when no span of its name ran
    outside the probe, so the probe fills in layer functions the verb never
    calls and adds nothing to the rest. Each span gets its self time:
    duration minus the time its child spans cover.
    """
    merged = []
    for spans in children:
        offset = len(merged)
        for name, start, end, cover, parent, value in spans:
            parent = parent + offset if parent >= 0 else -1
            merged.append({"id": len(merged), "name": name, "start": start, "end": end,
                           "cover": cover - start, "parent": parent, "value": value,
                           "probe": name == "probe" or (parent >= 0 and merged[parent]["probe"])})
    for s in merged:
        s["dur"] = s["self"] = s["end"] - s["start"]
    for s in merged:
        if s["parent"] >= 0:
            merged[s["parent"]]["self"] -= s["cover"]
    main_names = {s["name"] for s in merged if not s["probe"]}
    return [s for s in merged
            if not s["probe"] or (s["name"] not in main_names and s["name"] != "probe")]


def traced_round_durations(spans: list) -> list:
    """Same rounds as the round clock: sampling to scoring, or one training pass."""
    starts = [s["start"] for s in spans
              if s["name"] == "federation.sample_clients" and not s["probe"]]
    if not starts:
        return [s["dur"] for s in spans if s["name"] == "federation.client_update"]
    ends = sorted(s["end"] for s in spans if s["name"] == "metrics.evaluate_model")
    return [min(e for e in ends if e > start) - start for start in starts]


def layer_metrics(children: list) -> dict:
    """Per-layer values of one traced invocation.

    `_ms` values are medians per call; `_s` values are totals per
    invocation; shares divide a layer's self time by the invocation's time
    inside fedsmell.cli.run_experiment.
    """
    spans = kept_spans(children)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def median_ms(name, key="dur"):
        return 1e3 * statistics.median(s[key] for s in calls(name))

    def total(name):
        return sum(s["dur"] for s in calls(name))

    def busy(layer):
        return sum(s["self"] for s in spans if s["name"].startswith(layer + ".")) / wall

    wall = total("experiments.run_experiment")
    steps = calls("nn.loss_and_gradient")
    client_steps = {}
    for s in steps:
        client_steps[s["parent"]] = client_steps.get(s["parent"], 0) + 1
    # A round is the client updates and combiner calls before each reducer call.
    rounds, clients, combiners = [], [], 0
    for s in spans:
        if s["name"] == "federation.client_update":
            clients.append(client_steps.get(s["id"], 0))
        elif s["name"] == "federation.combiner_aggregate":
            combiners += 1
        elif s["name"] == "federation.reducer_reduce":
            rounds.append((clients, combiners))
            clients, combiners = [], 0
    return {
        "nn.steps": (len(steps), "count"),
        "nn.unflatten_ms": (median_ms("nn.unflatten"), "ms"),
        "nn.loss_and_gradient_ms": (median_ms("nn.loss_and_gradient"), "ms"),
        "nn.adam_update_ms": (median_ms("nn.adam_update"), "ms"),
        "nn.forward_eval_ms": (median_ms("nn.forward_eval"), "ms"),
        "nn.grad_zero_share": (sum(s["value"] for s in steps) / (len(steps) * PARAM_COUNT),
                               "ratio"),
        "nn.busy_share": (busy("nn"), "ratio"),
        "federation.client_update_self_ms": (median_ms("federation.client_update", "self"), "ms"),
        "federation.combiner_aggregate_ms": (median_ms("federation.combiner_aggregate"), "ms"),
        "federation.reducer_reduce_ms": (median_ms("federation.reducer_reduce"), "ms"),
        "federation.sample_clients_ms": (median_ms("federation.sample_clients"), "ms"),
        "federation.checksum_ms": (median_ms("federation.checksum"), "ms"),
        "federation.clients_per_round": (
            statistics.fmean(len(c) for c, _ in rounds), "count"),
        "federation.step_imbalance": (
            statistics.fmean(max(c) / statistics.fmean(c) for c, _ in rounds), "ratio"),
        "federation.bytes_moved_per_round": (
            statistics.fmean(2 * (len(c) + k) * PARAM_COUNT * 8 for c, k in rounds), "B"),
        "federation.busy_share": (busy("federation"), "ratio"),
        "metrics.evaluate_model_ms": (median_ms("metrics.evaluate_model"), "ms"),
        "metrics.roc_auc_ms": (median_ms("metrics.roc_auc"), "ms"),
        "metrics.rows_scored": (sum(s["value"] for s in calls("metrics.evaluate_model")), "count"),
        "metrics.busy_share": (busy("metrics"), "ratio"),
        "data.load_csv_s": (total("data.load_csv"), "s"),
        "data.save_csv_s": (total("data.save_csv"), "s"),
        "data.prepare_s": (total("data.prepare_source") - total("data.load_csv"), "s"),
        "data.partition_s": (total("data.partition_chunks") + total("data.extract_chunks"), "s"),
        "data.rows_ingested": (sum(s["value"] for s in calls("data.load_csv")), "count"),
        "experiments.emit_outputs_s": (total("experiments.emit_outputs"), "s"),
        "experiments.train_centralized_s": (total("experiments.train_centralized"), "s"),
    }


COUNT_METRICS = ("nn.steps", "nn.grad_zero_share", "federation.clients_per_round",
                 "federation.step_imbalance", "federation.bytes_moved_per_round",
                 "metrics.rows_scored", "data.rows_ingested")


def per_layer(untraced: list, traced: list) -> tuple[dict, list]:
    per_inv = [layer_metrics(inv.spans) for inv in traced]
    metrics = {}
    for name, (_, unit) in per_inv[0].items():
        values = [m[name][0] for m in per_inv]
        if name in COUNT_METRICS and len(set(values)) != 1:
            raise BenchError(f"count {name} differs across invocations: {values}")
        metrics[name] = (values[0] if name in COUNT_METRICS else statistics.median(values), unit)
    traced_rounds = [d for inv in traced for d in traced_round_durations(kept_spans(inv.spans))]
    untraced_rounds = round_durations(untraced)
    metrics["metrics.final_loss"] = (untraced[-1].final_loss, "nat")
    metrics["metrics.final_accuracy_pct"] = (untraced[-1].final_accuracy_pct, "%")
    metrics["trace.overhead_s"] = (min(traced_rounds) - min(untraced_rounds), "s")
    notes = [f"traced invocations {len(traced)}, untraced {len(untraced)}; fastest round "
             f"untraced {min(untraced_rounds):.4f} s, traced {min(traced_rounds):.4f} s"]
    return metrics, notes


# -------------------------------------------------------------- the run

def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "git_sha": sha, "src_sha256": src_digest(), "child_env": CHILD_ENV}


def check_determinism(workload: Workload, seed: int, invocations: list, src: str) -> None:
    """Every invocation's outputs equal each other and earlier runs' of this
    source tree, workload definition and seed."""
    digests = {inv.digest for inv in invocations}
    if len(digests) != 1:
        raise BenchError(f"outputs differ across invocations: {sorted(digests)}")
    store = WORK / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    spec = hashlib.sha256(repr(workload).encode()).hexdigest()[:16]
    key = f"{workload.name}:{spec}:{seed}:{src}"
    digest = digests.pop()
    if known.setdefault(key, digest) != digest:
        raise BenchError(f"outputs differ from an earlier run of {key}")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(store)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    machine = machine_record()
    work = WORK / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    attempted, errors, setups, untraced, traced = 0, [], [], [], []
    try:
        write_inputs(workload, seed, work)
        print(f"# machine {json.dumps(machine, sort_keys=True)}")
        print(f"# workload {workload.name} seed {seed} seconds {seconds} trace {int(trace)}")
        # Untraced runs follow each invocation with one setup child, so the
        # setup_s median samples the whole run; traced runs alternate
        # untraced and traced invocations.
        modes = ("run", "trace") if trace else ("run",)
        started = time.perf_counter()
        while not errors:
            for mode in modes:
                inv = invoke(workload, work, attempted, mode)
                attempted += 1
                if not inv.ok:
                    errors.append(inv.error)
                    break
                (traced if mode == "trace" else untraced).append(inv)
            if not trace and not errors:
                child = spawn("setup", [workload.verb, "--config", "workload.ini"],
                              work, f"setup{attempted}")
                attempted += 1
                if child.ok:
                    setups.append(child)
                else:
                    errors.append(child.error)
            elapsed = time.perf_counter() - started
            loops = len(untraced)
            if loops >= 2 and elapsed * (loops + 1) / loops > seconds:
                break

        if not errors:
            try:
                check_determinism(workload, seed, untraced + traced, machine["src_sha256"])
                metrics, notes = (per_layer(untraced, traced) if trace
                                  else end_to_end(untraced, setups))
            except BenchError as exc:
                errors.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in errors:
        print(f"# FAILED {error}")
    if errors:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": len(errors), "metrics": {}}))
        return 1
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fedsmell" / "__init__.py").is_file():
        print(f"fedsmell sources not found under {SRC}", file=sys.stderr)
        return 2
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
