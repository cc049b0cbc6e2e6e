"""One error class per CLI exit code, and the field-type rule of every checked dataclass."""

import functools
import typing
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


@functools.cache
def field_types(cls) -> dict:
    """A dataclass's {field: (element type, is a list)}; `tuple[T, ...]` is a list of T."""
    return {name: (typing.get_args(hint)[0], True) if typing.get_origin(hint) is tuple
            else (hint, False)
            for name, hint in typing.get_type_hints(cls).items()}


def check_field_types(instance, error: type[FedsmellError] = ConfigError) -> None:
    """Store each field of a (maybe frozen) dataclass instance as its own type,
    or raise `error` naming the field."""
    for name, (element, is_list) in field_types(type(instance)).items():
        value = getattr(instance, name)
        try:
            object.__setattr__(instance, name, _typed(element, is_list, value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"bad value for {name}: {value!r} ({exc})") from exc


def _scalar(element: type, value):
    """A field value of its own type: a bool is not an int, a float field
    takes any number and stores a float, a string holds no NUL, and a field
    of any other class holds an instance of it, stored as is."""
    accepted = (int, float) if element is float else element
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeError(f"expected {element.__name__}")
    if element is str and "\0" in value:
        raise ValueError("contains a NUL character")
    return element(value) if element in (int, float, str) else value


def _typed(element: type, is_list: bool, value):
    """Check a value against its field; a list field is stored as a tuple."""
    if not is_list:
        return _scalar(element, value)
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of {element.__name__}")
    return tuple(_scalar(element, item) for item in value)
