"""Exception hierarchy shared across the toolkit.

Three families map onto the CLI exit codes: ConfigError (2), DataError (3)
and InternalError (4).
"""


class HrActivityError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HrActivityError):
    """Invalid configuration file, flag value or spec object."""


class DataError(HrActivityError):
    """Input data violates a documented contract."""


class InternalError(HrActivityError):
    """A runtime invariant the toolkit guarantees was violated."""


# -- ingest ------------------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, column: str, path: str = ""):
        super().__init__(f"missing column {column!r}" + (f" in {path}" if path else ""))
        self.column = column


class UnknownLabel(DataError):
    def __init__(self, label: str):
        super().__init__(f"unknown activity label {label!r}")
        self.label = label


class NonMonotonicTimestamps(DataError):
    """Duplicate timestamps carry conflicting labels, so the series cannot be
    sorted into a valid order."""


class OutOfRangeBpm(DataError):
    def __init__(self, bpm: float):
        super().__init__(f"bpm {bpm} outside the accepted (20, 250) range")
        self.bpm = bpm


class MalformedRow(DataError):
    """A CSV row has a missing cell or a cell that does not parse."""


class TimestampFormatError(DataError):
    """Timestamp column mixes formats within a file or is unparseable."""


class EmptySeries(DataError):
    pass


class InvalidResamplePeriod(DataError):
    """A resampling period that is not a finite positive number of seconds."""


class InvalidSpec(ConfigError):
    """Synthetic cohort spec violates its invariants."""


# -- preprocess --------------------------------------------------------------

class DegenerateSeries(DataError):
    """Series has (near-)zero variance and cannot be standardized."""


class DimensionMismatch(DataError):
    pass


# -- features ----------------------------------------------------------------

class WindowTooShort(DataError):
    def __init__(self, needed: int, got: int):
        super().__init__(f"window of {got} samples, need at least {needed}")


# -- clustering --------------------------------------------------------------

class MissingActivity(DataError):
    def __init__(self, subject_id: str, activity: str):
        super().__init__(f"subject {subject_id!r} has no {activity} windows")
        self.subject_id = subject_id
        self.activity = activity


class TooFewVectors(DataError):
    pass


class NoWindows(DataError):
    pass


# -- svm ---------------------------------------------------------------------

class SingleClassInput(DataError):
    pass


class NonFiniteFeature(DataError):
    pass


# -- neuralnet ---------------------------------------------------------------

class InvalidConfig(ConfigError):
    pass


class ShapeMismatch(DataError):
    pass


class EmptyDataset(DataError):
    pass


# -- evaluation --------------------------------------------------------------

class EmptyCluster(DataError):
    pass


class ClusterTooSmall(DataError):
    pass


class SeriesTooShort(DataError):
    pass
