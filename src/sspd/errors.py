"""Exception hierarchy shared by all sspd modules.

CLI exit-code mapping: ConfigError -> 2, DataError -> 3, anything else -> 4.
"""


class SspdError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SspdError, ValueError):
    """Invalid argument or inconsistent configuration."""


class DataError(SspdError):
    """Malformed or incompatible input data."""


class FrameError(DataError):
    """Base class for sketch-frame parse failures."""


class FrameMagicError(FrameError):
    pass


class FrameVersionError(FrameError):
    pass


class FrameTruncatedError(FrameError):
    pass


class FrameChecksumError(FrameError):
    pass


class MergeError(DataError):
    """Frames cannot be merged (config/window mismatch or missing kind)."""


class UndefinedMetricError(DataError):
    """Accuracy metrics are undefined (empty ground-truth set)."""
