"""Command-line entry point: fedsmell <verb> --config <path> [--seed N] [--out DIR]."""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENT_KINDS, parse_config
from .errors import ConfigError, DataError, NumericError, StructuralError
from .experiments import run_experiment

_VERBS = {kind.replace("_", "-"): kind for kind in EXPERIMENT_KINDS}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error; subparsers inherit this
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = _build_parser().parse_args(argv)
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
