"""Exception taxonomy shared across the toolkit.

Every error raised by the library derives from WifiInoutError so callers
(and the CLI) can catch domain failures in one place.
"""


class WifiInoutError(Exception):
    """Base class for all toolkit errors."""


# --- ingest ---------------------------------------------------------------

class FormatError(WifiInoutError):
    """Malformed BSSID, scan record, or data file."""


def first_non_int64(values):
    """Index of the first value that is not an int (bools are not) within
    int64, or None."""
    return next((i for i, v in enumerate(values)
                 if type(v) is not int or not -2**63 <= v < 2**63), None)


def require_int64(values, what: str) -> None:
    """Raise FormatError unless every value is an int (not a bool) within int64."""
    if first_non_int64(values) is not None:
        raise FormatError(f"{what} must be integers within int64")


def require_number(values, what: str) -> None:
    """Raise FormatError unless every value is a JSON number: an int or a
    float, not a bool or a string."""
    if not all(type(v) in (int, float) for v in values):
        raise FormatError(f"{what} must be numbers")


class MixedDeviceError(WifiInoutError):
    """A scan stream contains records from more than one device."""


class OrderError(WifiInoutError):
    """Scan sequence numbers have a gap, or timestamps regress."""


class DuplicateApError(WifiInoutError):
    """The same BSSID appears twice within one scan record."""


# --- index / clustering ---------------------------------------------------

class IndexRangeError(WifiInoutError):
    """Fingerprint index out of range for a region query."""


class ConfigError(WifiInoutError):
    """Invalid configuration value (eps, min_pts, world spec, ...)."""


class CoverageError(WifiInoutError):
    """A cluster assignment does not cover every fingerprint."""


class NodeRangeError(WifiInoutError):
    """Graph node id out of range."""


# --- features / learner ---------------------------------------------------

class RankDeficiencyError(WifiInoutError):
    """Regression design leaves no residual degree of freedom once constant
    and aliased columns are dropped."""


class DegenerateLabelsError(WifiInoutError):
    """An operation requiring both classes saw only one."""


class InsufficientDataError(WifiInoutError):
    """Too few training instances to fit a model."""


class FeatureMismatchError(WifiInoutError):
    """Feature names at prediction time differ from the trained model's."""


# --- evaluation -----------------------------------------------------------

class NoLabelsError(WifiInoutError):
    """Evaluation requested but no fingerprint carries a ground-truth label."""


class NoTransitionsError(WifiInoutError):
    """Switch-latency analysis requires at least one label transition."""


class SingleLocationError(WifiInoutError):
    """Location-based cross-validation needs >= 2 distinct location tags."""


class EmptyPrefixError(WifiInoutError):
    """Warm-up evaluation found no fingerprints in the first minute."""
