"""Command-line entry point: fedsmell <verb> --config <path> [--seed N] [--out DIR]."""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from .config import EXPERIMENT_KINDS, parse_config
from .errors import ConfigError, FedsmellError, NumericError
from .experiments import run_experiment

_VERBS = {kind.replace("_", "-"): kind for kind in EXPERIMENT_KINDS}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedsmell",
        description="Federated god-class code-smell detection experiments",
    )
    parser.add_argument("verb", choices=_VERBS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    # For the length of the call SIGTERM stops a run as SIGINT does (main thread only).
    previous = (signal.signal(signal.SIGTERM, signal.default_int_handler)
                if threading.current_thread() is threading.main_thread() else None)
    try:
        args = _build_parser().parse_args(argv)
        cfg = parse_config(args.config, kind=_VERBS[args.verb], seed=args.seed,
                           out_dir=args.out)
        result = run_experiment(cfg)
    except (FedsmellError, FloatingPointError) as exc:
        error = exc if isinstance(exc, FedsmellError) else NumericError(exc)
        print(f"{error.label}: {' '.join(str(error).split())}", file=sys.stderr)
        return error.exit_code
    except KeyboardInterrupt:
        print("INTERRUPTED: stopped by a signal before the run finished", file=sys.stderr)
        return 130
    finally:
        if previous is not None:  # None: the handler was not set from Python
            signal.signal(signal.SIGTERM, previous)

    try:
        for row in result.rows:
            print(f"{row['train_source']} -> {row['eval_source']}: "
                  f"{row['accuracy_pct']:.2f}%")
        print(f"outputs written to {cfg.out_dir}", flush=True)
    except OSError as exc:  # a full disk or a closed pipe, after every output was written
        # Point fd 1 at devnull, so Python's flush of stdout at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"CONFIG_ERROR: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
