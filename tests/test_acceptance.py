"""End-to-end acceptance checks.

Each test states one externally meaningful guarantee of the toolkit and
prints a PASS line with the measured numbers, so a full run doubles as
a short verification report.
"""
import json
import math
import time

import numpy as np
import pytest

from conftest import ACCEPT_WINDOW, FILTER_SEED, SWEEP_VARIANCE_THRESHOLD
from trackcast.cli import EXIT_OK, main
from trackcast.core import WindowedDataset, evaluate_metrics
from trackcast.ensemble import (
    bootstrap_sample,
    ensemble_predict_batch,
    train_bagging,
    train_boosting,
)
from trackcast.linear import fit_arimax, fit_linear, predict_arimax_batch, predict_linear_batch
from trackcast.neural import (
    EarlyStopper,
    NetworkConfig,
    dataset_mse,
    grad_check,
    predict_batch,
    train,
)
from trackcast.preprocess import FilterConfig, proportional_filter


def test_01_gradient_correctness():
    """Analytic gradients of all three network kinds agree with central
    finite differences to better than 1e-4 at small sizes."""
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(6, 6, 4))
    targets = rng.normal(size=6)
    t0 = time.perf_counter()
    worst = {}
    for arch in ("lstm", "gru", "cnn"):
        cfg = NetworkConfig(arch=arch, hidden_size=8, kernel_count=4,
                            kernel_width=3, l2_lambda=1e-4, seed=0)
        worst[arch] = grad_check(cfg, windows, targets, step=1e-5)
        assert worst[arch] < 1e-4, f"{arch} gradient mismatch {worst[arch]:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS gradients: " + ", ".join(f"{a}={v:.2e}" for a, v in worst.items())
          + f" ({elapsed:.1f}s)")


def test_02_autoregressive_recovery_and_linear_equivalence():
    """The windowed time-series estimator recovers known AR(2)
    coefficients, and its order-(0,0,0) special case is numerically the
    plain linear regression."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n_pts, l = 5000, 8
    x = np.zeros(n_pts)
    eps = rng.normal(0, 0.1, n_pts)
    for t in range(2, n_pts):
        x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + eps[t]
    wins = np.lib.stride_tricks.sliding_window_view(x, l)[:-1]
    ds = WindowedDataset(windows=wins[:, :, None], targets=x[l:],
                         l=l, n=1, target_feature=0)
    model = fit_arimax(ds, 2, 0, 0)
    err = (abs(model.phi[0] - 0.5), abs(model.phi[1] + 0.3))
    assert err[0] < 0.05 and err[1] < 0.05

    rng2 = np.random.default_rng(7)
    exog_ds = WindowedDataset(windows=rng2.normal(size=(200, 6, 4)),
                              targets=rng2.normal(size=200), l=6, n=4,
                              target_feature=1)
    gap = np.max(np.abs(
        predict_arimax_batch(fit_arimax(exog_ds, 0, 0, 0), exog_ds.windows)
        - predict_linear_batch(fit_linear(exog_ds), exog_ds.windows)
    ))
    assert gap < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS estimator: phi errors ({err[0]:.3f}, {err[1]:.3f}),"
          f" order-zero gap {gap:.2e} ({elapsed:.1f}s)")


def test_03_bagging_never_loses_to_average_member(acceptance_split):
    """Mean-combined 5-member bagging: ensemble test MSE is at most the
    average of the members' test MSEs (convexity of squared error)."""
    split, audit = acceptance_split
    assert audit.windows_total >= 20000
    cfg = NetworkConfig(arch="cnn", kernel_count=5, kernel_width=5,
                        batch_size=128, max_epochs=4, patience=2, seed=1)
    model = train_bagging(cfg, 5, split.train, split.val)
    preds = ensemble_predict_batch(model, split.test.windows)
    ens_mse = float(np.mean((preds - split.test.targets) ** 2))
    member_mses = [
        float(np.mean((predict_batch(p, split.test.windows) - split.test.targets) ** 2))
        for p in model.members
    ]
    assert ens_mse <= np.mean(member_mses) + 1e-12
    print(f"PASS bagging: ensemble {ens_mse:.6f} <= member mean {np.mean(member_mses):.6f}"
          f" over {audit.windows_total} windows")


def test_04_bootstrap_unique_fraction():
    """A same-size with-replacement resample keeps about 63.2% distinct
    samples at n = 100000."""
    n = 100000
    ds = WindowedDataset(windows=np.zeros((n, 2, 1)),
                         targets=np.arange(n, dtype=np.float64),
                         l=2, n=1, target_feature=0)
    out = bootstrap_sample(ds, n, seed=0)
    frac = np.unique(out.targets).size / n
    assert 0.622 <= frac <= 0.642
    print(f"PASS bootstrap: unique fraction {frac:.5f} in [0.622, 0.642]")


def test_05_boosting_selection_law(acceptance_split):
    """Every sample promoted to the next boosting round has absolute
    residual strictly above the threshold under the round's learner,
    and no qualifying sample is left behind; checked sample by sample
    on a 2000-window run."""
    split, _ = acceptance_split
    sub = split.train.subset(np.arange(2000))
    threshold = 0.05
    cfg = NetworkConfig(arch="cnn", kernel_count=5, kernel_width=5,
                        batch_size=64, max_epochs=3, seed=2)
    model = train_boosting(cfg, 3, threshold, sub, split.val)
    trace = model.boost_trace
    assert len(trace.selected_indices) >= 1
    checked = 0
    for round_no, selected in enumerate(trace.selected_indices):
        resid = np.abs(sub.targets - predict_batch(model.members[round_no], sub.windows))
        selected_set = set(selected)
        for i in range(sub.m):
            if i in selected_set:
                assert resid[i] > threshold
            else:
                assert resid[i] <= threshold
            checked += 1
    print(f"PASS boosting: {len(model.members)} learners,"
          f" selections {[len(s) for s in trace.selected_indices]},"
          f" {checked} sample checks")


def test_06_proportional_filter_counting(acceptance_split):
    """Discard counts follow floor(proportion x candidate_count)
    exactly at threshold 0.2."""
    split, _ = acceptance_split
    tr = split.train
    variances = tr.windows[:, :, tr.target_feature].var(axis=1)
    candidates = int((variances < 0.2).sum())
    # the scaled targets are calm enough that every window qualifies
    assert candidates == tr.m == 25254
    expected = {0.0: 0, 0.2: 5050, 0.5: 12627, 0.8: 20203, 1.0: 25254}
    for prop, want in expected.items():
        cfg = FilterConfig(variance_threshold=0.2, discard_proportion=prop,
                           seed=FILTER_SEED)
        filtered, discarded = proportional_filter(tr, cfg, tr.target_feature)
        assert discarded == want == math.floor(prop * candidates)
        assert filtered.m == tr.m - want
    print(f"PASS filter counting: candidates {candidates},"
          f" discards {list(expected.values())} for props {list(expected)}")


def test_07_early_stopping_and_best_restore():
    """Three consecutive validation rises stop training, and the
    returned weights reproduce the best epoch's validation loss
    bit for bit."""
    stopper = EarlyStopper(patience=3)
    stops = [stopper.update(v)[1] for v in (0.5, 0.4, 0.41, 0.42, 0.43)]
    assert stops == [False, False, False, False, True]
    assert stopper.best_epoch == 2

    rng = np.random.default_rng(4)
    tr = WindowedDataset(windows=rng.normal(size=(24, 5, 3)),
                         targets=rng.normal(size=24), l=5, n=3, target_feature=0)
    va = WindowedDataset(windows=rng.normal(size=(16, 5, 3)),
                         targets=rng.normal(size=16) * 5.0, l=5, n=3, target_feature=0)
    cfg = NetworkConfig(arch="gru", hidden_size=8, batch_size=8, max_epochs=60,
                        patience=2, learning_rate=3e-2, l2_lambda=0.0, seed=1)
    params, trace = train(cfg, tr, va)
    assert trace.restored and trace.stopped_epoch < cfg.max_epochs
    restored_val = dataset_mse(params, va)
    assert restored_val == trace.val_losses[trace.best_epoch - 1]
    print(f"PASS early stop: sequence stops at epoch 5;"
          f" real run stopped {trace.stopped_epoch}, best {trace.best_epoch},"
          f" restored val loss matches exactly")


def test_08_pipeline_reproducibility(cli_workspace, tmp_path):
    """Two identical pipeline invocations write identical reports apart
    from wall-clock timings."""
    docs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code = main(["run", "--config", cli_workspace["config"],
                     "--data", cli_workspace["data"],
                     "--models", "lr,cnn",
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        with open(out_dir / "report.json", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    for doc in docs:
        assert doc.pop("timings")
    a, b = (json.dumps(d, sort_keys=True) for d in docs)
    assert a == b
    print(f"PASS reproducibility: reports byte-identical outside timings"
          f" ({len(a)} bytes compared)")


def test_09_filtering_degrades_train_fit(acceptance_csv, tmp_path):
    """Removing calm windows leaves the harder ones, so train MSE must
    not decrease as the discard proportion grows (test MSE is reported
    for information; it depends on the data)."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "preprocess": {"window_width": ACCEPT_WINDOW},
        "filter": {"variance_threshold": SWEEP_VARIANCE_THRESHOLD,
                   "seed": FILTER_SEED},
        "model": {"models": ["lr"]},
    }))
    out = tmp_path / "sweep.json"
    code = main(["filter-sweep", "--config", str(cfg_path),
                 "--data", acceptance_csv,
                 "--proportions", "0,0.5,0.8",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = json.loads(out.read_text())["sweep"]
    train_mses = [r["train_mse"] for r in rows]
    test_mses = [r["test_mse"] for r in rows]
    assert all(b >= a for a, b in zip(train_mses, train_mses[1:])), train_mses
    print(f"PASS filter sweep: train MSE {train_mses} non-decreasing;"
          f" test MSE {test_mses} (informational)")


def test_10_metric_definitions():
    """Reported MSE/MAE equal the hand-written definitions on twenty
    random prediction vectors."""
    rng = np.random.default_rng(123)
    for trial in range(20):
        n = int(rng.integers(1, 50))
        truth = rng.normal(size=n)
        preds = rng.normal(size=n)
        pair = evaluate_metrics(truth, preds)
        mse = sum((truth[i] - preds[i]) ** 2 for i in range(n)) / n
        mae = sum(abs(truth[i] - preds[i]) for i in range(n)) / n
        assert pair.mse == pytest.approx(mse, abs=1e-12, rel=1e-12)
        assert pair.mae == pytest.approx(mae, abs=1e-12, rel=1e-12)
    print("PASS metrics: 20 random vectors match hand-computed MSE/MAE to 1e-12")
