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


def _say(stream, line: str) -> OSError | None:
    """Print one line with a flush, each character that the stream's encoding and error
    handler cannot write as a backslash escape, as stderr writes it. On an OSError (a full
    disk, a closed pipe) point the stream's fd at devnull, so the flush at exit cannot fail
    again; return the error."""
    while encoding := getattr(stream, "encoding", None):  # None: a stream of str
        try:
            line.encode(encoding, getattr(stream, "errors", None) or "strict")
            break
        except UnicodeEncodeError as exc:
            escaped = line[exc.start:exc.end].encode("ascii", "backslashreplace").decode()
            line = line[:exc.start] + escaped + line[exc.end:]
    try:
        print(line, file=stream, flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def main(argv=None) -> int:
    try:  # everything that runs is inside, so a stop on any line ends with the one line
        # For the length of the call SIGTERM stops a run as SIGINT does. None: not the main
        # thread, or a handler not set from Python, which could not be put back.
        previous = (signal.getsignal(signal.SIGTERM)
                    if threading.current_thread() is threading.main_thread() else None)
        try:
            if previous is not None:
                signal.signal(signal.SIGTERM, signal.default_int_handler)
            args = _build_parser().parse_args(argv)
            cfg = parse_config(args.config, kind=_VERBS[args.verb], seed=args.seed,
                               out_dir=args.out)
            result = run_experiment(cfg)
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
        for line in [*(f"{row['train_source']} -> {row['eval_source']}: "
                       f"{row['accuracy_pct']:.2f}%" for row in result.rows),
                     f"outputs written to {cfg.out_dir}"]:
            if (failed := _say(sys.stdout, line)) is not None:
                raise ConfigError(f"cannot write to stdout: {failed}")
        return 0
    except (FedsmellError, FloatingPointError) as exc:
        error = exc if isinstance(exc, FedsmellError) else NumericError(exc)
        _say(sys.stderr, f"{error.label}: {' '.join(str(error).split())}")
        return error.exit_code
    except KeyboardInterrupt:
        _say(sys.stderr, "INTERRUPTED: stopped by a signal before the run finished")
        return 130


if __name__ == "__main__":
    sys.exit(main())
