"""Desk-scale laboratory for label-smoothed neural code summarization."""

from .errors import (ConfigurationError, DataError, MiniParseError,
                     NumericError, SmoothsumError)
from .smoothing import (TargetDistribution, cross_entropy, loss_floor,
                        smooth_targets)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DataError", "MiniParseError", "NumericError",
    "SmoothsumError", "TargetDistribution", "cross_entropy", "loss_floor",
    "smooth_targets", "__version__",
]
