"""Exception taxonomy shared across the package."""

from contextlib import contextmanager

import numpy as np


class FedsmellError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(FedsmellError):
    """A value violates a structural contract (shape, emptiness, domain)."""


class NumericError(FedsmellError):
    """A computation produced or received non-finite values."""


class DataError(FedsmellError):
    """A dataset could not be read or fails its invariants."""


class SchemaError(DataError):
    """A CSV header is missing a required column."""


class ParseError(DataError):
    """A dataset cell could not be parsed."""


class ConfigError(FedsmellError):
    """An experiment configuration is invalid."""


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
