"""Exception taxonomy: one class per CLI exit code, carrying that code and its label."""

from contextlib import contextmanager

import numpy as np


class FedsmellError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FedsmellError):
    """An experiment configuration or setting is invalid."""
    exit_code, label = 2, "CONFIG_ERROR"


class DataError(FedsmellError):
    """A dataset, array or checkpoint is unreadable or malformed."""
    exit_code, label = 3, "DATA_ERROR"


class NumericError(FedsmellError):
    """A computation produced or received non-finite values."""
    exit_code, label = 4, "NUMERIC_ERROR"


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
