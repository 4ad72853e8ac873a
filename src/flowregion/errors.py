"""Exception hierarchy shared across the package."""


class FlowRegionError(Exception):
    """Base class for every package-specific error."""


# -- series preprocessing ----------------------------------------------------

class MissingData(FlowRegionError):
    """A date gap or NaN value where a complete daily record is required."""


class NonFinite(FlowRegionError, ValueError):
    """An infinite value in a series, or a non-finite feature value."""


class TooShort(FlowRegionError):
    """A series shorter than the operation requires."""


class ZeroVariance(FlowRegionError):
    """A constant series that cannot be standardized or correlated."""


# -- feature computation -----------------------------------------------------

class LagTooLarge(FlowRegionError):
    """Requested autocorrelation lag is not smaller than the series length."""


class NumericalSingularity(FlowRegionError):
    """Durbin-Levinson denominator collapsed below tolerance."""


class DegenerateRange(FlowRegionError):
    """max(x) == min(x) where a nonzero value range is required."""


class SingularDesign(FlowRegionError):
    """Rank-deficient regression design matrix."""


class SingularFit(FlowRegionError):
    """All weights vanished inside a local regression window."""


class DegenerateVariance(FlowRegionError):
    """A variance ratio in the decomposition features is undefined."""


class NonIntegral(FlowRegionError, ValueError):
    """A count-valued feature with a fractional value."""


class ExtractionFailed(FlowRegionError):
    """Feature extraction failed; carries the feature name(s) involved."""

    def __init__(self, feature, cause=None):
        self.feature = feature
        self.cause = cause
        super().__init__(f"{feature}: {cause}" if cause is not None else str(feature))


# -- forest ------------------------------------------------------------------

class DegenerateTarget(FlowRegionError):
    """Constant regression target."""


class EmptyPredictors(FlowRegionError):
    """Design matrix has no predictor columns."""


class ColumnMismatch(FlowRegionError):
    """Prediction rows do not match the training columns."""


class NoOobCoverage(FlowRegionError):
    """No row has out-of-bag predictions."""


class KernelBuildError(FlowRegionError):
    """The compiled tree kernel could not be built; carries the compiler's stderr."""

    def __init__(self, message, stderr=""):
        self.stderr = stderr
        super().__init__(f"{message}\n{stderr}" if stderr else message)


# -- regionalization ---------------------------------------------------------

class ConstantVector(FlowRegionError):
    """Spearman correlation is undefined for a constant vector."""


class LengthMismatch(FlowRegionError):
    """Paired vectors of unequal length."""


class BadK(FlowRegionError):
    """Invalid fold count for a k-fold split."""


class ParseError(FlowRegionError):
    """Malformed input file content; message names the file and line."""


class IncompleteRecord(FlowRegionError):
    """A catchment lacking complete series coverage over the window."""


class UnknownAttribute(FlowRegionError):
    """Unexpected column in the static-attributes file."""


class ConfigError(FlowRegionError):
    """Invalid run configuration value."""
