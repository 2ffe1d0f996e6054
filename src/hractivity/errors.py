"""Exception hierarchy shared across the toolkit.

Three families map onto the CLI exit codes: ConfigError (2), DataError (3)
and InternalError (4). The message says what went wrong. Two subclasses of
DataError exist because code catches them by type to add context.
"""


class HrActivityError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HrActivityError):
    """Invalid configuration file, flag value or spec object."""


class DataError(HrActivityError):
    """Input data violates a documented contract."""


class InternalError(HrActivityError):
    """A runtime invariant the toolkit guarantees was violated."""


class TooFewVectors(DataError):
    """k-means was asked for more clusters than it has vectors."""


class GramTooLarge(DataError):
    """An SVM machine has too many training rows for its dense Gram matrix."""
