"""Command-line entry point: fedsmell <verb> --config <path> [--seed N] [--out DIR]."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import CENTRALIZED, CROSS_EVAL, FEDERATED, SYNTH, parse_config
from .errors import ConfigError, DataError, NumericError, StructuralError
from .experiments import run_experiment

_VERBS = {
    "centralized": CENTRALIZED,
    "cross-eval": CROSS_EVAL,
    "federated": FEDERATED,
    "synth": SYNTH,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsmell",
        description="Federated god-class code-smell detection experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        verb_parser = sub.add_parser(verb, help=f"run the {verb} experiment")
        verb_parser.add_argument("--config", required=True, help="experiment config file")
        verb_parser.add_argument("--seed", type=int, default=None, help="override master seed")
        verb_parser.add_argument("--out", default=None, help="override output directory")
    return parser


def _one_line(message: str) -> str:
    return " ".join(str(message).split())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # A float overflow, invalid operation or division by zero is a
        # numeric error, not a warning next to a silently wrong value.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cfg = parse_config(args.config, kind=_VERBS[args.verb], seed=args.seed,
                               out_dir=args.out)
            result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"CONFIG_ERROR: {_one_line(exc)}", file=sys.stderr)
        return 2
    except (DataError, StructuralError) as exc:
        print(f"DATA_ERROR: {_one_line(exc)}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"NUMERIC_ERROR: {_one_line(exc)}", file=sys.stderr)
        return 4

    for row in result.rows:
        print(f"{row['train_source']} -> {row['eval_source']}: "
              f"{row['accuracy_pct']:.2f}%")
    print(f"outputs written to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
