"""Vertical track height forecasting toolkit.

Windowed multivariate forecasting of rail height measurements:
synthetic data generation, preprocessing, linear/ARIMAX and neural
one-step forecasters, ensembles, and a batch CLI.
"""

from .core import (
    MetricsPair,
    RawTable,
    SplitSet,
    WindowedDataset,
    evaluate_metrics,
    pearson,
)
from .errors import (
    ConfigError,
    DataFormatError,
    IllPosedError,
    IntegrityError,
    InvalidArgumentError,
    NumericDivergenceError,
    SchemaError,
    TrackcastError,
    UnsupportedVersionError,
)

__version__ = "0.1.0"

__all__ = [
    "MetricsPair",
    "RawTable",
    "SplitSet",
    "WindowedDataset",
    "evaluate_metrics",
    "pearson",
    "TrackcastError",
    "InvalidArgumentError",
    "IllPosedError",
    "ConfigError",
    "SchemaError",
    "DataFormatError",
    "NumericDivergenceError",
    "IntegrityError",
    "UnsupportedVersionError",
    "__version__",
]
