"""Vertical track height forecasting toolkit.

Windowed multivariate forecasting of rail height measurements:
synthetic data generation, preprocessing, linear/ARIMAX and neural
one-step forecasters, ensembles, and a batch CLI.

Importing the package loads neither numpy nor any module that needs it,
and leaves the environment alone: the ``core`` names below load
``core`` on first use.  So the CLI's entry points, ``python -m
trackcast.cli`` and the ``trackcast`` console script
(``trackcast.__main__``), can still set ``OPENBLAS_NUM_THREADS`` before
numpy starts OpenBLAS.
"""

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

_CORE_NAMES = frozenset(
    {"MetricsPair", "RawTable", "SplitSet", "WindowedDataset", "evaluate_metrics", "pearson"}
)


def __getattr__(name):
    if name in _CORE_NAMES:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
