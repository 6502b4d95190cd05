"""Exception types shared across the package."""


class PitchMbcError(Exception):
    """Base class for all package errors."""


class IngestError(PitchMbcError):
    """Base class for data ingestion problems."""


class MissingColumn(IngestError):
    """A required logical field has no matching column in the input."""

    def __init__(self, field, column):
        self.field = field
        self.column = column
        super().__init__(f"required field {field!r} (column {column!r}) not found in header")


class MalformedRow(IngestError):
    """A row could not be parsed into a valid record."""

    def __init__(self, row_number, reason):
        self.row_number = row_number
        self.reason = reason
        super().__init__(f"row {row_number}: {reason}")


class EmptyDataset(IngestError):
    """No valid records remain after parsing or filtering."""

    def __init__(self, message, rejected=()):
        self.rejected = tuple(rejected)
        super().__init__(message)


class FitError(PitchMbcError):
    """Base class for mixture-fitting problems."""


class SingularCovariance(FitError):
    """A component covariance collapsed or could not be factorized."""


class EmptyCluster(FitError):
    """A responsibility column collapsed to (numerically) zero total mass."""


class TooFewPoints(FitError):
    """The dataset cannot support the requested number of clusters."""


class AllRestartsDegenerate(FitError):
    """Every EM restart ended in a degenerate state."""


class NoViableK(FitError):
    """Every candidate cluster count failed to fit."""


class DimensionMismatch(PitchMbcError):
    """Two assignments, or a fit and its data, do not describe the same points."""


class ArchiveError(PitchMbcError):
    """Base class for model archive problems."""


class ArchiveVersionMismatch(ArchiveError):
    """The archive was written with an unsupported format version."""

    def __init__(self, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(f"archive format version {found} not supported (expected {supported})")
