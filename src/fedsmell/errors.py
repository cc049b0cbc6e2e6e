"""Exception taxonomy shared across the package."""


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
