"""Shared data types, error metrics, and the type rule for JSON values.

Tables hold raw rows straight from a CSV; windowed datasets mark the
fixed-length slices the forecasters consume.  Both are immutable after
construction (their arrays are marked read-only).  Config files and
artifact manifests check each decoded value against its declared type
with one rule, ``checked``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from types import UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import IllPosedError, InvalidArgumentError

TINY = np.finfo(np.float64).tiny  # the smallest normal float64


@dataclass(frozen=True)
class RawTable:
    """A numeric table plus bookkeeping for identifier and target columns.

    ``id_columns`` holds the (mileage, meters) column indices in that
    order.  Identifier columns never participate in modeling; they mark
    where contiguous stretches of track begin and end.
    """

    column_names: tuple[str, ...]
    rows: np.ndarray
    id_columns: tuple[int, int]
    target_column: int

    def __post_init__(self):
        names = tuple(str(n) for n in self.column_names)
        object.__setattr__(self, "column_names", names)
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise InvalidArgumentError("rows must be a 2-d array")
        if rows.shape[1] != len(names):
            raise InvalidArgumentError(
                f"rows have {rows.shape[1]} columns but {len(names)} names were given"
            )
        if len(set(names)) != len(names):
            raise InvalidArgumentError("column names must be unique")
        ids = tuple(int(i) for i in self.id_columns)
        if len(ids) != 2:
            raise InvalidArgumentError("id_columns must name exactly two columns")
        tgt = int(self.target_column)
        for idx in (*ids, tgt):
            if not 0 <= idx < len(names):
                raise InvalidArgumentError(f"column index {idx} out of range")
        if len({*ids, tgt}) != 3:
            raise InvalidArgumentError("id and target columns must be distinct")
        if rows.size and not np.isfinite(rows).all():
            raise InvalidArgumentError("table values must be finite")
        rows = np.ascontiguousarray(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "id_columns", ids)
        object.__setattr__(self, "target_column", tgt)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_columns(self) -> int:
        return self.rows.shape[1]

    def column(self, index: int) -> np.ndarray:
        return self.rows[:, index]

    def non_id_indices(self) -> list[int]:
        """Indices of every modeling column (target included), table order."""
        return [i for i in range(self.n_columns) if i not in self.id_columns]

    def feature_indices(self) -> list[int]:
        """Indices of candidate feature columns: neither id nor target."""
        return [i for i in self.non_id_indices() if i != self.target_column]

    def without_columns(self, drop: Sequence[int]) -> "RawTable":
        """A new table with the given columns removed; ids and the target
        must survive, and their indices are remapped."""
        drop_set = {int(i) for i in drop}
        forbidden = {*self.id_columns, self.target_column}
        if drop_set & forbidden:
            raise InvalidArgumentError("cannot drop identifier or target columns")
        keep = [i for i in range(self.n_columns) if i not in drop_set]
        remap = {old: new for new, old in enumerate(keep)}
        return RawTable(
            column_names=tuple(self.column_names[i] for i in keep),
            rows=np.take(self.rows, keep, axis=1),  # one C-ordered copy
            id_columns=(remap[self.id_columns[0]], remap[self.id_columns[1]]),
            target_column=remap[self.target_column],
        )


@dataclass(frozen=True, init=False)
class WindowedDataset:
    """Fixed-length windows over one shared table, and their one-step-ahead
    targets.

    ``rows`` is a read-only, C-ordered (T, n) table over n modeling
    features; window i is the l consecutive rows from ``starts[i]`` on, and
    ``targets[i]`` its target.  Subsets, splits and resamples index
    ``starts`` and share ``rows``, so no stage copies the windowed set,
    which is l times the table; ``windows`` gathers the (m, l, n) array
    when it is read.  Built from explicit windows, the dataset takes the
    same form: ``rows`` is ``windows.reshape(m * l, n)`` and ``starts``
    is ``arange(m) * l``.  ``target_feature`` is the position of the
    forecast target within the feature axis, so forecasters can tell the
    endogenous channel from the exogenous ones.
    """

    rows: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    l: int
    n: int
    target_feature: int = 0

    def __init__(self, windows=None, targets=None, l=None, n=None, target_feature=0, *,
                 rows=None, starts=None):
        l, n = int(l), int(n)
        if l < 2:
            raise InvalidArgumentError("window length l must be at least 2")
        if n < 1:
            raise InvalidArgumentError("feature count n must be at least 1")
        if (windows is None) == (rows is None) or (rows is None) != (starts is None):
            raise InvalidArgumentError("give either windows, or rows and starts")
        if windows is not None:
            w = np.asarray(windows, dtype=np.float64)
            if w.ndim != 3 or w.shape[1:] != (l, n):
                raise InvalidArgumentError(f"windows must have shape (m, {l}, {n})")
            rows, starts = w.reshape(-1, n), np.arange(w.shape[0], dtype=np.int64) * l
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        t = np.ascontiguousarray(targets, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != n:
            raise InvalidArgumentError(f"rows must have shape (T, {n})")
        if starts.ndim != 1 or (starts.size and not (
                starts.min() >= 0 and starts.max() <= rows.shape[0] - l)):
            raise InvalidArgumentError(f"starts must index windows of {l} rows")
        if t.ndim != 1 or t.shape[0] != starts.shape[0]:
            raise InvalidArgumentError("targets must align one-to-one with windows")
        tf = int(target_feature)
        if not 0 <= tf < n:
            raise InvalidArgumentError("target_feature out of range")
        for name, arr in (("rows", rows), ("starts", starts), ("targets", t)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "target_feature", tf)

    @classmethod
    def of(cls, data) -> "WindowedDataset":
        """A dataset as it is, or an (m, l, n) array of windows as a dataset
        over its own rows with zero targets (no copy when the array is
        float64 and C-ordered): the one way windows enter a predictor."""
        if isinstance(data, cls):
            return data
        w = np.asarray(data, dtype=np.float64)
        if w.ndim != 3:
            raise InvalidArgumentError("windows must have shape (m, l, n)")
        return cls(windows=w, targets=np.zeros(w.shape[0]), l=w.shape[1], n=w.shape[2])

    @property
    def m(self) -> int:
        return self.starts.shape[0]

    @property
    def windows(self) -> np.ndarray:
        """The (m, l, n) windows, gathered from ``rows`` on each read into a
        new read-only, C-ordered array."""
        w = self.gather()
        w.setflags(write=False)
        return w

    def gather(self, indices=slice(None)) -> np.ndarray:
        """Windows ``indices`` as a new C-ordered (k, l, n) array: the values
        of ``windows[indices]``, with no other window gathered."""
        return self._every_window()[self.starts[indices]]

    def row(self, k: int) -> np.ndarray:
        """Row ``k`` of every window, shape (m, n): the values of
        ``windows[:, k]``; a negative ``k`` counts from the window's end."""
        return self.rows[self.starts + k % self.l]

    def feature(self, j: int) -> np.ndarray:
        """In-window values of feature ``j``, shape (m, l): the values of
        ``windows[:, :, j]``, C-ordered."""
        return self._every_window()[self.starts, :, j]

    def _every_window(self) -> np.ndarray:
        """The window at every row of ``rows``, overlapping: a read-only
        (T - l + 1, l, n) view.  Indexing it copies each window as one
        block, twice as fast as indexing ``rows`` row by row."""
        step, col = self.rows.strides
        shape = (max(self.rows.shape[0] - self.l + 1, 0), self.l, self.n)
        return as_strided(self.rows, shape, (step, step, col), writeable=False)

    def subset(self, indices) -> "WindowedDataset":
        """The windows at ``indices``, over the same ``rows``."""
        idx = np.asarray(indices, dtype=np.int64)
        return WindowedDataset(rows=self.rows, starts=self.starts[idx],
                               targets=self.targets[idx], l=self.l, n=self.n,
                               target_feature=self.target_feature)


@dataclass(frozen=True)
class SplitSet:
    """Train/test/validation partition of a windowed dataset; the parts
    share one window shape.  ``PreprocessConfig`` holds the rule for the
    split fractions, and ``shuffle_split`` sizes the parts from them;
    later train-side filtering may shrink the train part."""

    train: WindowedDataset
    test: WindowedDataset
    val: WindowedDataset

    def __post_init__(self):
        if len({(p.l, p.n) for p in (self.train, self.test, self.val)}) != 1:
            raise InvalidArgumentError("split parts must share window shape")


@dataclass(frozen=True)
class MetricsPair:
    """Mean squared error and mean absolute error over one prediction set."""

    mse: float
    mae: float

    def __post_init__(self):
        mse, mae = float(self.mse), float(self.mae)
        if not (np.isfinite(mse) and np.isfinite(mae)):
            raise InvalidArgumentError("metrics must be finite")
        if mse < 0.0 or mae < 0.0:
            raise InvalidArgumentError("metrics must be non-negative")
        # Cauchy-Schwarz: mean|e| squared never exceeds mean e^2
        if mae * mae > mse * (1.0 + 1e-9) + 1e-15:
            raise InvalidArgumentError("mae^2 cannot exceed mse")
        object.__setattr__(self, "mse", mse)
        object.__setattr__(self, "mae", mae)


def evaluate_metrics(y_true, y_pred) -> MetricsPair:
    """MSE and MAE of predictions against ground truth.

    Sums run sequentially in index order, so a fixed input order always
    reproduces the same bits.
    """
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.ndim != 1 or yp.ndim != 1:
        raise InvalidArgumentError("metric inputs must be 1-d")
    if yt.shape[0] != yp.shape[0]:
        raise InvalidArgumentError(
            f"length mismatch: {yt.shape[0]} true values vs {yp.shape[0]} predictions"
        )
    if yt.shape[0] == 0:
        raise InvalidArgumentError("metric inputs must be non-empty")
    if not (np.isfinite(yt).all() and np.isfinite(yp).all()):
        raise InvalidArgumentError("metric inputs must be finite")
    n = yt.shape[0]
    # cumsum adds in index order, one element at a time; an overflow
    # gives inf, which MetricsPair rejects
    with np.errstate(over="ignore"):
        r = yt - yp
        sq, ab = np.cumsum(r * r)[-1], np.cumsum(np.abs(r))[-1]
    return MetricsPair(mse=sq / n, mae=ab / n)


def pearson(x, y) -> float:
    """Pearson correlation coefficient; exactly 0.0 when either input
    has zero variance (a constant column carries no signal).

    r does not change when x or y is scaled, so when a centred sum
    overflows, or a sum of squares falls below the normal float range
    for an input that is not constant, each input is brought to a
    largest magnitude of 1 (all zeros stay zeros) and summed again."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape[0] != ya.shape[0]:
        raise InvalidArgumentError("pearson inputs must be 1-d of equal length")
    if xa.shape[0] < 2:
        raise IllPosedError("pearson needs at least two points")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise InvalidArgumentError("pearson inputs must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy, sxy = _centered_sums(xa, ya)
        overflowed = not np.isfinite([sx, sy, sxy, np.sqrt(sx) * np.sqrt(sy)]).all()
    # squares of deviations below about 1e-154 underflow, so a column
    # that varies can sum to 0 and read as constant
    underflowed = any(s < TINY and (a != a[0]).any() for s, a in ((sx, xa), (sy, ya)))
    if overflowed or underflowed:
        sx, sy, sxy = _centered_sums(*(a / (np.abs(a).max() or 1.0) for a in (xa, ya)))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    r = sxy / (np.sqrt(sx) * np.sqrt(sy))
    return float(min(1.0, max(-1.0, r)))


def _centered_sums(xa: np.ndarray, ya: np.ndarray) -> tuple[float, float, float]:
    """Sums of squares and of products of the deviations from the means."""
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    return float(dx @ dx), float(dy @ dy), float(dx @ dy)


def field_types(cls) -> dict:
    """Field name -> declared type of a dataclass."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _float_holds(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def accepts(hint, value) -> bool:
    """Whether a decoded JSON value has the type a field declares: an
    integer (not a boolean) for int, a float or an integer that a float
    can hold for float, a list of the right length for a tuple."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(accepts(a, value) for a in args)
    if origin is list:
        return isinstance(value, list) and all(accepts(args[0], v) for v in value)
    if origin is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(accepts(a, v) for a, v in zip(args, value)))
    if hint is float:
        return type(value) is float or type(value) is int and _float_holds(value)
    return type(value) is hint


def checked(hint, value, what: str):
    """``value``, if ``accepts(hint, value)``; else TypeError naming ``what``."""
    if not accepts(hint, value):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise TypeError(f"{what} must be {name}, got {json.dumps(value)}")
    return value
