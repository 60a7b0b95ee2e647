"""Cleansing, feature selection, scaling, windowing, splitting, filtering.

The pipeline order is fixed: constant-feature drop, z-score outlier
removal on the target, correlation-based feature selection, min-max
scaling, sliding windows, shuffled split, then optional proportional
filtering of the train part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import TINY, RawTable, SplitSet, WindowedDataset, pearson
from .errors import IllPosedError, InvalidArgumentError
from .ingest import METERS_STEP

# guard against representation error in floor(fraction * count); decimal
# fractions times realistic counts never sit within 1e-9 of an integer
# from below
_FLOOR_EPS = 1e-9


def _exact_floor(x: float) -> int:
    return int(math.floor(x + _FLOOR_EPS))


@dataclass(frozen=True)
class PreprocessConfig:
    """Pipeline settings; scaling is always to [0, 1].  The rules for the
    values live here (NaN fails each), and the stage functions trust them."""

    zscore_threshold: float = 4.0
    correlation_threshold: float | None = None  # None: drop |r| below the mean |r|
    window_width: int = 8
    split_fractions: tuple[float, float, float] = (0.85, 0.10, 0.05)
    shuffle_seed: int = 0

    def __post_init__(self):
        if not float(self.zscore_threshold) > 0.0:
            raise InvalidArgumentError("zscore_threshold must be positive")
        if self.correlation_threshold is not None and not float(self.correlation_threshold) >= 0.0:
            raise InvalidArgumentError("correlation_threshold must be non-negative")
        if int(self.window_width) < 2:
            raise InvalidArgumentError("window_width must be at least 2")
        fr = tuple(float(f) for f in self.split_fractions)
        if len(fr) != 3 or not all(0.0 <= f <= 1.0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise InvalidArgumentError("split_fractions must be three shares summing to 1")
        if int(self.shuffle_seed) < 0:
            raise InvalidArgumentError("shuffle_seed must be non-negative")
        object.__setattr__(self, "split_fractions", fr)


@dataclass(frozen=True)
class FilterConfig:
    """Proportional variance filter settings."""

    variance_threshold: float = 0.2
    discard_proportion: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(float(self.variance_threshold)):
            raise InvalidArgumentError("variance_threshold must be finite")
        p = float(self.discard_proportion)
        if not 0.0 <= p <= 1.0:
            raise InvalidArgumentError("discard_proportion must lie in [0, 1]")
        if int(self.seed) < 0:
            raise InvalidArgumentError("filter seed must be non-negative")


@dataclass(frozen=True)
class ScalingParams:
    """Per-column (min, max) observed on the fit table.  ``fit_scaler``
    builds it, so it holds aligned columns with max >= min and checks
    nothing again; ``apply_scaler`` checks each column is in its table."""

    columns: tuple[int, ...]
    mins: np.ndarray
    maxs: np.ndarray


def drop_constant_features(table: RawTable) -> tuple[RawTable, list[int]]:
    """Remove candidate feature columns with a single unique value.

    Identifier and target columns are never dropped.  Returns the new
    table and the dropped column indices relative to the input table.
    """
    dropped = []
    for idx in table.feature_indices():
        col = table.column(idx)
        if col.shape[0] == 0 or np.all(col == col[0]):
            dropped.append(idx)
    if not dropped:
        return table, []
    return table.without_columns(dropped), dropped


def remove_outliers_zscore(table: RawTable, threshold: float) -> tuple[RawTable, np.ndarray]:
    """Drop rows whose target z-score magnitude exceeds ``threshold``,
    which ``PreprocessConfig`` keeps positive.

    Mean and standard deviation come from the table once (single pass,
    no re-iteration), with the sample convention (ddof=1) for sigma.
    A zero-variance target leaves the table unchanged.  z does not change
    with the target's scale, so where a sum overflows, or a varying
    target's squared deviations underflow, it is first scaled to a
    largest magnitude of 1.
    """
    if table.n_rows < 2:
        raise IllPosedError("outlier removal needs at least two rows")
    target = table.column(table.target_column)
    with np.errstate(over="ignore", invalid="ignore"):
        mu, var = float(target.mean()), float(target.var(ddof=1))
    if not np.isfinite(var) or var < TINY and (target != target[0]).any():
        target = target / np.abs(target).max()
        mu, var = float(target.mean()), float(target.var(ddof=1))
    if var == 0.0:
        return table, np.empty(0, dtype=np.int64)
    z = (target - mu) / math.sqrt(var)
    removed = np.flatnonzero(np.abs(z) > float(threshold))
    if removed.size == 0:
        return table, removed
    keep = np.setdiff1d(np.arange(table.n_rows), removed, assume_unique=True)
    return replace(table, rows=table.rows[keep]), removed


def select_features(table: RawTable, threshold: float | None = None) -> tuple[RawTable, dict]:
    """Keep feature columns that correlate with the target strongly enough.

    With no explicit threshold, columns whose |r| falls strictly below
    the mean |r| over all candidates are dropped; ties survive.  The
    identifier and target columns always survive.  A constant target
    makes every correlation zero, in which case everything is kept and
    a warning is set.  ``PreprocessConfig`` holds the threshold's rule.
    Returns the new table and the audit's ``correlation`` record, with
    ``per_feature_r`` keyed by column index.
    """
    candidates = table.feature_indices()
    target = table.column(table.target_column)
    rs = {idx: pearson(target, table.column(idx)) for idx in candidates}
    warning = None
    target_constant = table.n_rows > 0 and bool(np.all(target == target[0]))
    if target_constant and candidates:
        warning = "target column is constant; correlations are all zero"
    mean = sum(abs(r) for r in rs.values()) / len(rs) if rs else 0.0
    record = {"per_feature_r": rs, "mean_abs_r": mean, "warning": warning}
    cut = mean if threshold is None else float(threshold)
    dropped = [idx for idx in candidates if abs(rs[idx]) < cut]
    return (table.without_columns(dropped) if dropped else table), record


def fit_scaler(table: RawTable) -> ScalingParams:
    """Observe per-column min/max on every modeling column (target included)."""
    if table.n_rows < 1:
        raise IllPosedError("cannot fit a scaler on an empty table")
    cols = table.non_id_indices()
    mins = np.array([table.column(c).min() for c in cols])
    maxs = np.array([table.column(c).max() for c in cols])
    return ScalingParams(columns=tuple(cols), mins=mins, maxs=maxs)


def apply_scaler(table: RawTable, params: ScalingParams) -> RawTable:
    """Map each scaled column through (x - min) / (max - min).

    Applied to its own fit table every value lands in [0, 1]; unseen
    data may fall outside, which is allowed.  A constant column
    (max == min) maps to 0.  Where max - min overflows, every term is
    halved first, which is exact there.
    """
    rows = np.array(table.rows)
    for col, lo, hi in zip(params.columns, params.mins, params.maxs):
        if not 0 <= col < table.n_columns:
            raise InvalidArgumentError(f"scaler column {col} not present in table")
        span = float(hi) - float(lo)  # inf, not a warning, on overflow
        if span == 0.0:
            rows[:, col] = 0.0
        elif math.isinf(span):
            rows[:, col] = (rows[:, col] / 2 - lo / 2) / (hi / 2 - lo / 2)
        else:
            rows[:, col] = (rows[:, col] - lo) / span
    return replace(table, rows=rows)


def _run_bounds(table: RawTable) -> list[tuple[int, int]]:
    """Maximal contiguous stretches: same mileage, meters advancing by
    exactly one 0.25 m sampling step.  Removed rows break a stretch."""
    m = table.n_rows
    if m == 0:
        return []
    mil = table.column(table.id_columns[0])
    met = table.column(table.id_columns[1])
    with np.errstate(over="ignore"):  # an overflowing step is no 0.25 m step
        breaks = np.flatnonzero((mil[1:] != mil[:-1]) | (met[1:] - met[:-1] != METERS_STEP))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [m]))
    return list(zip(starts.tolist(), ends.tolist()))


def make_windows(table: RawTable, l: int) -> WindowedDataset:
    """Cut sliding windows of ``l`` rows with the next row's target value.

    A contiguous run of R rows yields R - l windows; windows never
    straddle run boundaries (mileage changes or gaps left by removed
    rows).  Window features are every modeling column in table order,
    past target values included.  The dataset holds the feature table
    once and each window as the row it starts at: no window is copied.
    ``PreprocessConfig`` and ``WindowedDataset`` hold the rule l >= 2.
    """
    l = int(l)
    feat_cols = table.non_id_indices()
    tf = feat_cols.index(table.target_column)
    feats = np.take(table.rows, feat_cols, axis=1)  # one C-ordered copy
    starts = np.concatenate([np.empty(0, dtype=np.int64)] + [
        np.arange(start, end - l) for start, end in _run_bounds(table) if end - start > l
    ])
    return WindowedDataset(rows=feats, starts=starts, targets=feats[starts + l, tf],
                           l=l, n=len(feat_cols), target_feature=tf)


def shuffle_split(ds: WindowedDataset, fractions, seed: int) -> SplitSet:
    """Shuffle deterministically, then slice train/test/val.

    ``fractions`` are (train, test, val) shares; ``PreprocessConfig``
    holds the rule that they lie in [0, 1] and sum to 1.  Train and test
    sizes round down; validation takes the remainder.  Fewer than 3
    windows is a fault of the data: IllPosedError.
    """
    m = ds.m
    if m < 3:
        raise IllPosedError(f"need at least 3 windows to split, got {m}")
    perm = np.random.default_rng(int(seed)).permutation(m)
    n_train = _exact_floor(float(fractions[0]) * m)
    n_test = _exact_floor(float(fractions[1]) * m)
    return SplitSet(
        train=ds.subset(perm[:n_train]),
        test=ds.subset(perm[n_train : n_train + n_test]),
        val=ds.subset(perm[n_train + n_test :]),
    )


def proportional_filter(
    ds: WindowedDataset, cfg: FilterConfig, target_feature_index: int
) -> tuple[WindowedDataset, int]:
    """Discard a share of the low-variance windows.

    Candidates are windows whose past-target variance (population
    convention, over the l in-window values) falls strictly below the
    threshold; exactly floor(proportion * candidate_count) of them go,
    chosen uniformly by the seed.  Windows at or above the threshold
    always survive.
    """
    tf = int(target_feature_index)
    if not 0 <= tf < ds.n:
        raise InvalidArgumentError("target feature index out of range")
    variances = ds.feature(tf).var(axis=1)
    candidates = np.flatnonzero(variances < float(cfg.variance_threshold))
    k = _exact_floor(float(cfg.discard_proportion) * candidates.size)
    if k == 0:
        return ds, 0
    chosen = np.random.default_rng(int(cfg.seed)).choice(candidates, size=k, replace=False)
    keep = np.ones(ds.m, dtype=bool)
    keep[chosen] = False
    return ds.subset(np.flatnonzero(keep)), k


@dataclass(frozen=True)
class PreprocessAudit:
    """What the pipeline did, in the run report's layout: the report's
    ``audit`` section is ``dataclasses.asdict`` of it."""

    dropped_constant_columns: tuple[str, ...]
    outlier_rows_removed: int
    sigma_convention: str
    correlation: dict  # per_feature_r (column name -> r), mean_abs_r, warning
    selected_features: tuple[str, ...]
    dropped_features: tuple[str, ...]
    scaler: dict[str, tuple[float, float]]  # column name -> (min, max)
    window_width: int
    windows_total: int
    split_sizes: dict[str, int]  # train, test, val
    # variance_threshold, discard_proportion, candidates, discarded
    filter: dict | None = None


def run_preprocess(
    table: RawTable,
    cfg: PreprocessConfig,
    filter_cfg: FilterConfig | None = None,
) -> tuple[SplitSet, PreprocessAudit]:
    """Run the full pipeline in its fixed order.

    The proportional filter, when configured, applies to the train part
    only; test and validation windows stay untouched.

    ``table`` is held only until its constant columns are dropped.  So
    where the caller keeps no reference of its own, as ``cli``'s ``run``
    does, the raw table is freed before the outlier stage copies rows.
    With the raw table alive, that stage set a bagged run's memory peak.
    (Before CPython 3.11, a call's arguments stay on the caller's stack
    until it returns, so the table lives to the end.)
    """
    # each stage's table goes as soon as the next stage holds what it
    # needs; the audit keeps names and counts
    stage, const_dropped = drop_constant_features(table)
    const_names = tuple(table.column_names[i] for i in const_dropped)
    del table

    stage, removed_rows = remove_outliers_zscore(stage, cfg.zscore_threshold)
    candidate_names = stage.column_names
    candidates = [candidate_names[idx] for idx in stage.feature_indices()]

    stage, correlation = select_features(stage, cfg.correlation_threshold)
    kept_names = stage.column_names

    scaler = fit_scaler(stage)
    stage = apply_scaler(stage, scaler)

    ds = make_windows(stage, cfg.window_width)
    del stage
    windows_total = ds.m
    split = shuffle_split(ds, cfg.split_fractions, cfg.shuffle_seed)

    filter_audit = None
    if filter_cfg is not None:
        variances = split.train.feature(split.train.target_feature).var(axis=1)
        filtered, discarded = proportional_filter(
            split.train, filter_cfg, split.train.target_feature
        )
        split = replace(split, train=filtered)
        filter_audit = {
            "variance_threshold": float(filter_cfg.variance_threshold),
            "discard_proportion": float(filter_cfg.discard_proportion),
            "candidates": int(np.count_nonzero(variances < float(filter_cfg.variance_threshold))),
            "discarded": discarded,
        }

    audit = PreprocessAudit(
        dropped_constant_columns=const_names,
        outlier_rows_removed=int(removed_rows.size),
        sigma_convention="sample",
        correlation=dict(correlation, per_feature_r={
            candidate_names[idx]: r for idx, r in correlation["per_feature_r"].items()
        }),
        selected_features=tuple(name for name in candidates if name in kept_names),
        dropped_features=tuple(name for name in candidates if name not in kept_names),
        scaler={
            kept_names[c]: (float(lo), float(hi))
            for c, lo, hi in zip(scaler.columns, scaler.mins, scaler.maxs)
        },
        window_width=int(cfg.window_width),
        windows_total=windows_total,
        split_sizes={"train": split.train.m, "test": split.test.m, "val": split.val.m},
        filter=filter_audit,
    )
    return split, audit
