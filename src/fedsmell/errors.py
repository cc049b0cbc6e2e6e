"""Exception taxonomy shared across the package: one class per CLI exit code."""

from contextlib import contextmanager

import numpy as np


class FedsmellError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FedsmellError):
    """An experiment configuration or setting is invalid (CLI exit code 2)."""


class DataError(FedsmellError):
    """A dataset, array or checkpoint is unreadable or malformed (CLI exit code 3)."""


class NumericError(FedsmellError):
    """A computation produced or received non-finite values (CLI exit code 4)."""


@contextmanager
def error_context(context: str):
    """Run the block with float overflow, invalid operations and division by zero
    raising (underflow keeps the caller's setting), and prefix any package error or
    float fault raised in it with `<context>: `, a float fault as a NumericError."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FedsmellError, FloatingPointError) as exc:
        kind = type(exc) if isinstance(exc, FedsmellError) else NumericError
        raise kind(f"{context}: {exc}") from exc
