"""Child process of the fedsmell benchmark: one user invocation per process.

Usage: python3 child.py MODE RECORD fedsmell-CLI-arguments...

MODE is one of
  setup  parse the config and build everything a run needs before round 1
         (prepare_source per dataset; federated: clients and pooled test);
  run    call fedsmell.cli.main with a round clock only: two timestamps per
         federation round (or per training pass in cross-eval);
  trace  call fedsmell.cli.main with a span around every public layer
         function, looked up where its caller looks it up, then run the
         probe for layer functions the verb never calls.

The record (JSON) is written at exit; the probe writes next to it.
Nothing is printed, so any stderr output comes from the program under test.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import fedsmell
import fedsmell.cli as cli
import fedsmell.data as data
import fedsmell.experiments as experiments
import fedsmell.federation as federation
import fedsmell.metrics as metrics
from fedsmell.config import FEDERATED, parse_config
from fedsmell.nn import Hyperparams

perf_counter = time.perf_counter


def hook(module, attr, before=None, after=None):
    """Replace module.attr by a wrapper calling before(args) / after(args, result)."""
    fn = getattr(module, attr)

    def wrapper(*args, **kwargs):
        if before:
            before(args)
        result = fn(*args, **kwargs)
        if after:
            after(args, result)
        return result

    setattr(module, attr, wrapper)


class Tracer:
    """In-memory spans: [name, start, end, cover_end, parent, value].

    `end` closes the wrapped call; `cover_end` also covers the wrapper's
    own bookkeeping, so a parent's self time (duration minus its children's
    cover) never absorbs tracing cost. `value` is an optional count taken
    from the call (rows, zero gradient entries, ...).
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        span = [name, 0.0, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, module, attr, name, value=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if value is not None:
                span[5] = value(args, result)
            span[3] = perf_counter()
            return result

        setattr(module, attr, traced)

    def probe(self, body):
        """Run body() under a top-level `probe` span."""
        span = self._open("probe")
        try:
            body()
        finally:
            self._close(span)
            span[3] = span[2]


def run_setup(argv):
    cfg = parse_config(argv[argv.index("--config") + 1], kind=argv[0].replace("-", "_"))
    sources = [experiments.prepare_source(path, cfg, i) for i, path in enumerate(cfg.datasets)]
    if cfg.kind == FEDERATED:
        experiments.build_federated_clients(sources, cfg)
        data.concat_datasets("pooled-test", [s.test for s in sources])
    return 0, {}


def run_clocked(argv):
    """Round clock: start/end stamps and training rows per round (or pass)."""
    rounds, losses = [], []

    def start(args):
        rounds.append([perf_counter(), 0.0, 0])

    def finish(args, result):
        rounds[-1][1] = perf_counter()

    def count_round_rows(args, selected):
        topology = args[0]
        rounds[-1][2] = sum(len(topology.client_by_id(i).local_data)
                            * topology.client_by_id(i).hyper.local_epochs for i in selected)

    def pass_rows(args, result):
        client = args[0]
        rounds[-1][1] = perf_counter()
        rounds[-1][2] = len(client.local_data) * client.hyper.local_epochs

    hook(federation, "sample_clients", start, count_round_rows)
    hook(federation, "evaluate_model", after=finish)
    hook(experiments, "client_update", start, pass_rows)
    hook(experiments, "evaluate_model", after=lambda args, report: losses.append(report.mean_loss))
    code = cli.main(argv)
    return code, {"rounds": rounds, "eval_losses": losses}


def run_traced(argv, probe_dir):
    tracer = Tracer()
    zero_entries = lambda args, result: int(result[1].size - np.count_nonzero(result[1]))
    rows = lambda args, result: len(result)
    for module, attr, name in (
        (federation, "unflatten_params", "nn.unflatten"),
        (federation, "adam_update", "nn.adam_update"),
        (metrics, "unflatten_params", "nn.unflatten_eval"),
        (metrics, "forward_batch", "nn.forward_eval"),
        (federation, "combiner_aggregate", "federation.combiner_aggregate"),
        (federation, "reducer_reduce", "federation.reducer_reduce"),
        (federation, "weights_checksum", "federation.checksum"),
        (metrics, "roc_auc", "metrics.roc_auc"),
        (data, "save_csv", "data.save_csv"),
        (data, "partition_chunks", "data.partition_chunks"),
        (data, "extract_chunks", "data.extract_chunks"),
        (experiments, "prepare_source", "data.prepare_source"),
        (experiments, "emit_outputs", "experiments.emit_outputs"),
        (cli, "run_experiment", "experiments.run_experiment"),
    ):
        tracer.wrap(module, attr, name)
    tracer.wrap(federation, "loss_and_gradient", "nn.loss_and_gradient", zero_entries)
    tracer.wrap(federation, "sample_clients", "federation.sample_clients", rows)
    tracer.wrap(data, "load_csv", "data.load_csv", rows)
    for module in (federation, experiments):
        tracer.wrap(module, "client_update", "federation.client_update")
        tracer.wrap(module, "evaluate_model", "metrics.evaluate_model",
                    lambda args, result: len(args[1]))

    captured = {"sources": [], "models": [], "topology": None}
    hook(experiments, "prepare_source", after=lambda a, r: captured["sources"].append(r))
    hook(experiments, "train_centralized", after=lambda a, r: captured["models"].append(r))
    hook(experiments, "build_federated_clients",
         after=lambda a, r: captured.__setitem__("topology", r))
    tracer.wrap(experiments, "train_centralized", "experiments.train_centralized")

    code = cli.main(argv)
    if code == 0:
        tracer.probe(lambda: _probe(captured, probe_dir))
    return code, {"spans": tracer.spans}


def _probe(captured, probe_dir):
    """Call the layer functions this verb never calls, on this run's values.

    Federated runs train client 0 for one centralized pass and write the
    first source back to CSV. Cross-eval closes with one FedAvg round over
    its three single-source models: sample, aggregate, reduce, checksum,
    plus a one-chunk partition of each source.
    """
    sources, topology = captured["sources"], captured["topology"]
    if topology is not None:
        client = topology.clients[0]
        experiments.train_centralized(client.local_data, client.hyper, 1, 0)
        data.save_csv(sources[0].raw, probe_dir / "probe.csv")
        return
    models = captured["models"]
    if not models:
        return
    hyper = Hyperparams()
    clients = tuple(federation.ClientNode(i, s.train, hyper, 0) for i, s in enumerate(sources))
    topology = federation.FederationTopology((0,), clients)
    federation.sample_clients(topology, 1.0, 0)
    updates = [federation.ModelUpdate(i, w, len(s.train))
               for i, (s, w) in enumerate(zip(sources, models))]
    mean = federation.combiner_aggregate(updates)
    federation.weights_checksum(federation.reducer_reduce([mean], models[0], 1))
    for s in sources:
        data.extract_chunks(s.train, data.partition_chunks(s.train, 1, 0))


def main():
    mode, record_path, *argv = sys.argv[1:]
    record_path = Path(record_path)
    root_src = Path(__file__).resolve().parent.parent / "src"
    if root_src not in Path(fedsmell.__file__).resolve().parents:
        raise SystemExit(f"fedsmell imported from {fedsmell.__file__}, not {root_src}")
    if mode == "setup":
        code, record = run_setup(argv)
    elif mode == "run":
        code, record = run_clocked(argv)
    elif mode == "trace":
        code, record = run_traced(argv, record_path.parent)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
