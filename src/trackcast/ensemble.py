"""Bagging, thresholded sequential boosting, and stacking over the
neural base learners.

Base learners are always networks; the combined prediction is either
the arithmetic mean of the members or a linear stack (weights + bias)
fit on validation data.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import WindowedDataset
from .errors import IllPosedError, InvalidArgumentError, NumericDivergenceError
from .neural import NetworkConfig, NetworkParams, TrainTrace, predict_batch, train
from .pool import forked_map
from .rng import derive_seed

_COND_LIMIT = 1e12
_METHODS = ("bagging", "boosting")
ENSEMBLE_METHODS = ("none", *_METHODS)
RESIDUAL_SCOPES = ("original", "current")


@dataclass(frozen=True)
class EnsembleConfig:
    """How a run trains each network: alone (method "none"), or as
    ``members`` bagged or boosted members, optionally stacked."""

    method: str = "none"
    members: int = 5
    boost_threshold: float = 0.15
    boost_residual_scope: str = "original"
    stack: bool = False

    def __post_init__(self):
        if self.method not in ENSEMBLE_METHODS:
            raise InvalidArgumentError(
                f"ensemble method must be one of {', '.join(ENSEMBLE_METHODS)}")
        if int(self.members) < 1:
            raise InvalidArgumentError("ensemble members must be positive")
        if not float(self.boost_threshold) > 0.0:
            raise InvalidArgumentError("ensemble boost_threshold must be positive")
        if self.boost_residual_scope not in RESIDUAL_SCOPES:
            raise InvalidArgumentError(
                f"boost_residual_scope must be one of {', '.join(RESIDUAL_SCOPES)}")


@dataclass(frozen=True)
class Combiner:
    """How member predictions are merged: plain mean, or weights + bias.

    ``fallback_reason`` is set when a stacker fit degraded to the mean.
    """

    kind: str
    weights: tuple[float, ...] = ()
    bias: float = 0.0
    fallback_reason: str | None = None

    def __post_init__(self):
        if self.kind not in ("mean", "stacker"):
            raise InvalidArgumentError("combiner kind must be 'mean' or 'stacker'")
        if self.kind == "stacker" and len(self.weights) == 0:
            raise InvalidArgumentError("stacker combiner needs weights")


@dataclass(frozen=True)
class BoostTrace:
    """Selection record for sequential boosting: for each round, the
    train-set indices (into the original train set) that survived into
    the NEXT round's train set."""

    selected_indices: tuple[tuple[int, ...], ...]
    stopped_early: bool


@dataclass(frozen=True)
class EnsembleModel:
    members: tuple[NetworkParams, ...]
    combiner: Combiner
    method: str
    boost_threshold: float | None = None
    member_traces: tuple[TrainTrace, ...] = ()
    boost_trace: BoostTrace | None = None
    retried_members: tuple[int, ...] = ()

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidArgumentError(f"method must be one of {_METHODS}")
        if len(self.members) < 1:
            raise InvalidArgumentError("an ensemble needs at least one member")
        if self.combiner.kind == "stacker" and len(self.combiner.weights) != len(self.members):
            raise InvalidArgumentError("stacker weight count must equal member count")
        object.__setattr__(self, "members", tuple(self.members))


def bootstrap_sample(ds: WindowedDataset, n_prime: int, seed: int) -> WindowedDataset:
    """Uniform with-replacement resample of n_prime windows; the sample
    indexes ``ds.rows`` and copies no window."""
    if ds.m == 0:
        raise IllPosedError("cannot bootstrap an empty dataset")
    if int(n_prime) < 1:
        raise InvalidArgumentError("n_prime must be positive")
    rng = np.random.default_rng(int(seed))
    idx = rng.integers(0, ds.m, size=int(n_prime))
    return ds.subset(idx)


def _train_member(cfg: NetworkConfig, seed: int, train_ds, val_ds):
    return train(replace(cfg, seed=seed), train_ds, val_ds)


def _train_bagging_member(cfg, member_index, ds, val_ds):
    """One bagging member: bootstrap resample plus training, with a
    single retry on numeric divergence."""
    for attempt in (0, 1):
        seed = derive_seed(cfg.seed, member_index, attempt)
        sample = bootstrap_sample(ds, ds.m, derive_seed(seed, 0))
        try:
            return (*_train_member(cfg, seed, sample, val_ds), attempt == 1)
        except NumericDivergenceError:
            if attempt == 1:
                raise


def train_bagging(
    cfg: NetworkConfig,
    m: int,
    ds: WindowedDataset,
    val_ds: WindowedDataset,
) -> EnsembleModel:
    """m independently seeded members on m bootstrap resamples, mean
    combined.  ``EnsembleConfig`` holds the rule that m is positive;
    ``EnsembleModel`` rejects zero members.  The members train on
    ``pool.forked_map``; a member is a function of its seed and the data
    alone, so the model is the one-after-another loop's bytes.
    """
    m = int(m)
    results = forked_map(lambda i: _train_bagging_member(cfg, i, ds, val_ds), m)
    members = tuple(r[0] for r in results)
    traces = tuple(r[1] for r in results)
    retried = tuple(i for i, r in enumerate(results) if r[2])
    return EnsembleModel(
        members=members,
        combiner=Combiner(kind="mean"),
        method="bagging",
        member_traces=traces,
        retried_members=retried,
    )


def train_boosting(
    cfg: NetworkConfig,
    m: int,
    threshold: float,
    ds: WindowedDataset,
    val_ds: WindowedDataset,
    residual_scope: str = "original",
) -> EnsembleModel:
    """Sequential boosting: each round keeps only the samples the
    just-trained learner misses by more than ``threshold`` (strictly)
    as the next round's train set.

    ``residual_scope`` picks which pool the residual rule filters:
    "original" re-scores the full starting train set every round,
    "current" filters the shrinking per-round set.  Stops early when
    the next set is empty or smaller than one minibatch.  ``EnsembleConfig``
    holds the rules for m, ``threshold`` and ``residual_scope``, and this
    trusts them; ``EnsembleModel`` still rejects zero members.
    """
    m = int(m)
    threshold = float(threshold)

    members: list[NetworkParams] = []
    traces: list[TrainTrace] = []
    selections: list[tuple[int, ...]] = []
    stopped_early = False
    current = ds
    # absolute positions (into ds) of the current round's samples
    current_idx = np.arange(ds.m)
    for round_no in range(m):
        params, trace = _train_member(cfg, derive_seed(cfg.seed, round_no), current, val_ds)
        members.append(params)
        traces.append(trace)
        if round_no == m - 1:
            break
        if residual_scope == "original":
            pool_ds, pool_idx = ds, np.arange(ds.m)
        else:
            pool_ds, pool_idx = current, current_idx
        resid = np.abs(pool_ds.targets - predict_batch(params, pool_ds))
        keep = resid > threshold
        next_abs = pool_idx[keep]
        selections.append(tuple(int(k) for k in next_abs))
        if next_abs.shape[0] == 0 or next_abs.shape[0] < cfg.batch_size:
            stopped_early = True
            break
        current = ds.subset(next_abs)
        current_idx = next_abs
    return EnsembleModel(
        members=tuple(members),
        combiner=Combiner(kind="mean"),
        method="boosting",
        boost_threshold=threshold,
        member_traces=tuple(traces),
        boost_trace=BoostTrace(
            selected_indices=tuple(selections), stopped_early=stopped_early
        ),
    )


def member_predictions(members, windows) -> np.ndarray:
    """Column j holds member j's predictions for ``windows``, an
    (m, l, n) array or a ``WindowedDataset`` (see ``predict_batch``),
    predicted on ``pool.forked_map``."""
    run = lambda j: predict_batch(members[j], windows)
    return np.stack(forked_map(run, len(members)), axis=1)


def fit_stacker(preds: np.ndarray, targets: np.ndarray) -> Combiner:
    """Least-squares combiner over member prediction columns on
    validation data: ``preds`` is ``member_predictions(members, val_ds)``
    and ``targets`` is ``val_ds.targets``.

    A numerically singular prediction matrix (e.g. identical members)
    falls back to the mean; a merely rank-deficient regression (columns
    independent but collinear with the intercept) takes the minimum-norm
    solution.
    """
    if 0 in np.shape(preds):
        raise InvalidArgumentError("stacker needs at least one member and one validation window")
    gram = preds.T @ preds
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        return Combiner(kind="mean", fallback_reason="singular member prediction matrix")
    design = np.concatenate([np.ones((preds.shape[0], 1)), preds], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
    return Combiner(
        kind="stacker",
        weights=tuple(float(w) for w in coef[1:]),
        bias=float(coef[0]),
    )


def ensemble_predict_batch(model: EnsembleModel, windows, member_preds=None) -> np.ndarray:
    """Combined prediction for an (m, l, n) stack of windows or a
    ``WindowedDataset``.

    ``member_preds``, when given, must be
    ``member_predictions(model.members, windows)``; passing columns
    already computed saves a second prediction pass, and ``windows`` is
    then not read.
    """
    preds = member_predictions(model.members, windows) if member_preds is None else member_preds
    if model.combiner.kind == "mean":
        return preds.mean(axis=1)
    w = np.asarray(model.combiner.weights, dtype=np.float64)
    return preds @ w + model.combiner.bias

