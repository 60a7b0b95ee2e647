import math
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcast import preprocess as pp
from trackcast.core import RawTable, WindowedDataset
from trackcast.ensemble import bootstrap_sample
from trackcast.errors import IllPosedError, InvalidArgumentError
from trackcast.ingest import SynthConfig, generate_synthetic
from trackcast.neural import NetworkConfig
from trackcast.preprocess import (
    FilterConfig,
    PreprocessConfig,
    _exact_floor,
    apply_scaler,
    drop_constant_features,
    fit_scaler,
    make_windows,
    proportional_filter,
    remove_outliers_zscore,
    run_preprocess,
    select_features,
    shuffle_split,
)


def table_from(columns: dict, target="h"):
    names = tuple(columns)
    rows = np.column_stack([np.asarray(v, dtype=np.float64) for v in columns.values()])
    return RawTable(
        column_names=names,
        rows=rows,
        id_columns=(names.index("mileage"), names.index("meters")),
        target_column=names.index(target),
    )


def ids(n):
    return {
        "mileage": np.full(n, 100.0),
        "meters": np.arange(n) * 0.25,
    }


def random_ds(m=40, l=5, n=3, seed=0):
    rng = np.random.default_rng(seed)
    return WindowedDataset(
        windows=rng.uniform(0, 1, size=(m, l, n)),
        targets=rng.uniform(0, 1, size=m),
        l=l,
        n=n,
        target_feature=0,
    )


class TestExactFloor:
    def test_representation_error_guard(self):
        # 0.29 * 100 is 28.999999999999996 in float64; the intended
        # product is exactly 29
        assert math.floor(0.29 * 100) == 28
        assert _exact_floor(0.29 * 100) == 29

    def test_plain_floor_otherwise(self):
        assert _exact_floor(28.5) == 28
        assert _exact_floor(29.0) == 29


class TestDropConstants:
    def test_drops_only_constant_features(self):
        t = table_from({**ids(4), "h": [1, 2, 3, 4], "c": [7, 7, 7, 7], "v": [1, 2, 1, 2]})
        out, dropped = drop_constant_features(t)
        assert dropped == [3]
        assert out.column_names == ("mileage", "meters", "h", "v")

    def test_constant_target_survives(self):
        t = table_from({**ids(3), "h": [5, 5, 5], "v": [1, 2, 3]})
        out, dropped = drop_constant_features(t)
        assert dropped == []
        assert "h" in out.column_names


class TestOutlierRemoval:
    def test_frozen_zscore_example(self):
        """Target [0,0,0,0,100]: sample sigma is sqrt(2000), so the
        spike's z is 80/44.72... = 1.7889.  A 1.5 threshold removes it,
        a 2.0 threshold keeps it."""
        t = table_from({**ids(5), "h": [0.0, 0.0, 0.0, 0.0, 100.0]})
        z_spike = 80.0 / math.sqrt(2000.0)
        assert z_spike == pytest.approx(1.78885438, abs=1e-8)

        kept, removed = remove_outliers_zscore(t, 1.5)
        assert list(removed) == [4]
        assert kept.n_rows == 4

        kept2, removed2 = remove_outliers_zscore(t, 2.0)
        assert removed2.size == 0
        assert kept2.n_rows == 5

    def test_zero_variance_target_unchanged(self):
        t = table_from({**ids(4), "h": [3.0, 3.0, 3.0, 3.0]})
        kept, removed = remove_outliers_zscore(t, 1.0)
        assert removed.size == 0
        assert np.array_equal(kept.rows, t.rows)

    def test_one_row_is_ill_posed(self):
        t = table_from({**ids(1), "h": [1.0]})
        with pytest.raises(IllPosedError, match="at least two rows"):
            remove_outliers_zscore(t, 4.0)

    def test_single_pass_statistics(self):
        # both spikes measured against the same (mu, sigma); removing
        # one must not re-trigger on the remainder
        vals = [0.0] * 20 + [50.0, 60.0]
        t = table_from({**ids(22), "h": vals})
        mu, sigma = np.mean(vals), np.std(vals, ddof=1)
        expected = np.flatnonzero(np.abs((np.array(vals) - mu) / sigma) > 2.0)
        kept, removed = remove_outliers_zscore(t, 2.0)
        assert np.array_equal(removed, expected)
        assert kept.n_rows == 22 - expected.size

    @pytest.mark.parametrize("scale", [2.0**1000, 2.0**-1060])
    def test_scale_free_where_sums_overflow_or_squares_underflow(self, scale):
        """z does not change with the target's scale, so the same rows go
        and no floating-point warning is raised."""
        vals = np.array([0.0] * 20 + [50.0, 60.0, 1.0, 3.0])
        _, expected = remove_outliers_zscore(table_from({**ids(24), "h": vals}), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, removed = remove_outliers_zscore(table_from({**ids(24), "h": vals * scale}), 2.0)
        assert expected.tolist() == [20, 21] and removed.tolist() == [20, 21]


class TestFeatureSelection:
    def test_mean_rule_drops_weak_feature(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=200)
        strong = 2.0 * h + 0.01 * rng.normal(size=200)
        weak = rng.normal(size=200)
        t = table_from({**ids(200), "h": h, "strong": strong, "weak": weak})
        out, report = select_features(t, None)
        assert "strong" in out.column_names
        assert "weak" not in out.column_names
        assert abs(report["per_feature_r"][3]) > 0.99

    def test_explicit_threshold(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=100)
        mid = h + rng.normal(size=100)  # |r| around 0.7
        t = table_from({**ids(100), "h": h, "mid": mid})
        out_keep, _ = select_features(t, 0.3)
        assert "mid" in out_keep.column_names
        out_drop, _ = select_features(t, 0.99)
        assert "mid" not in out_drop.column_names

    def test_ties_at_cut_survive(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=50)
        t = table_from({**ids(50), "h": h, "copy": h.copy()})
        out, report = select_features(t, None)
        # single candidate: |r| equals the mean |r|, not strictly below
        assert "copy" in out.column_names

    def test_constant_target_warns_and_keeps_all(self):
        t = table_from({**ids(10), "h": np.ones(10), "x": np.arange(10.0)})
        out, report = select_features(t, None)
        assert report["warning"] is not None
        assert "x" in out.column_names
        assert report["mean_abs_r"] == 0.0


class TestScaler:
    def test_fit_apply_unit_range(self):
        rng = np.random.default_rng(4)
        t = table_from({**ids(50), "h": rng.normal(size=50), "x": rng.uniform(-3, 9, 50)})
        params = fit_scaler(t)
        scaled = apply_scaler(t, params)
        for col in scaled.non_id_indices():
            assert scaled.column(col).min() == 0.0
            assert scaled.column(col).max() == 1.0
        # identifiers untouched
        assert np.array_equal(scaled.column(0), t.column(0))
        assert np.array_equal(scaled.column(1), t.column(1))

    def test_constant_column_maps_to_zero(self):
        t = table_from({**ids(5), "h": np.arange(5.0), "c": np.full(5, 2.5)})
        scaled = apply_scaler(t, fit_scaler(t))
        assert np.all(scaled.column(3) == 0.0)

    def test_unseen_data_may_leave_unit_interval(self):
        t_fit = table_from({**ids(3), "h": [0.0, 1.0, 2.0]})
        t_new = table_from({**ids(3), "h": [-1.0, 1.0, 5.0]})
        params = fit_scaler(t_fit)
        out = apply_scaler(t_new, params)
        assert out.column(2).min() < 0.0
        assert out.column(2).max() > 1.0

    def test_empty_table_is_ill_posed(self):
        t = table_from({**ids(0), "h": []})
        with pytest.raises(IllPosedError, match="empty table"):
            fit_scaler(t)

    def test_scaler_formula(self):
        t = table_from({**ids(3), "h": [2.0, 4.0, 10.0]})
        out = apply_scaler(t, fit_scaler(t))
        assert np.allclose(out.column(2), [0.0, 0.25, 1.0])

    def test_range_past_the_float_limit(self):
        """max - min overflows; halving every term first is exact."""
        t = table_from({**ids(4), "h": [-(2.0**1023), 2.0**1023, 0.0, 2.0**1022]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_scaler(t, fit_scaler(t))
        assert out.column(2).tolist() == [0.0, 1.0, 0.5, 0.75]


class TestMakeWindows:
    def test_tiny_oracle(self):
        # single 5-row run, l=3: windows start at rows 0 and 1
        t = table_from({**ids(5), "h": [10.0, 11, 12, 13, 14], "x": [0.0, 1, 2, 3, 4]})
        ds = make_windows(t, 3)
        assert ds.m == 2
        assert ds.n == 2
        assert ds.target_feature == 0
        assert np.array_equal(ds.windows[0], [[10, 0], [11, 1], [12, 2]])
        assert np.array_equal(ds.windows[1], [[11, 1], [12, 2], [13, 3]])
        assert np.array_equal(ds.targets, [13.0, 14.0])

    def test_mileage_change_breaks_run(self):
        cols = ids(8)
        cols["mileage"] = np.array([100.0] * 5 + [101.0] * 3)
        cols["meters"] = np.array([0, 0.25, 0.5, 0.75, 1.0, 0, 0.25, 0.5])
        t = table_from({**cols, "h": np.arange(8.0)})
        ds = make_windows(t, 3)
        # run1 gives 5-3=2 windows, run2 gives 0
        assert ds.m == 2
        assert np.all(ds.windows[:, :, 0] < 5)

    def test_meters_gap_breaks_run(self):
        cols = ids(8)
        # a removed row leaves a 0.5 m jump after index 3
        cols["meters"] = np.array([0, 0.25, 0.5, 0.75, 1.25, 1.5, 1.75, 2.0])
        t = table_from({**cols, "h": np.arange(8.0)})
        ds = make_windows(t, 3)
        # two 4-row runs, each 4-3=1 window
        assert ds.m == 2
        assert ds.targets[0] == 3.0
        assert ds.targets[1] == 7.0

    def test_short_run_yields_nothing(self):
        t = table_from({**ids(3), "h": [1.0, 2.0, 3.0]})
        ds = make_windows(t, 3)
        assert ds.m == 0

    def test_target_feature_position_respects_column_order(self):
        cols = {**ids(5), "a": np.arange(5.0), "h": np.arange(5.0) * 2}
        t = table_from(cols)
        ds = make_windows(t, 2)
        assert ds.target_feature == 1


class TestShuffleSplit:
    def test_three_window_worked_example(self):
        ds = random_ds(m=3)
        split = shuffle_split(ds, (0.85, 0.10, 0.05), seed=0)
        assert (split.train.m, split.test.m, split.val.m) == (2, 0, 1)

    def test_floor_floor_remainder_sizes(self):
        ds = random_ds(m=1234)
        split = shuffle_split(ds, (0.85, 0.10, 0.05), seed=1)
        assert split.train.m == math.floor(0.85 * 1234)
        assert split.test.m == math.floor(0.10 * 1234)
        assert split.val.m == 1234 - split.train.m - split.test.m

    def test_deterministic(self):
        ds = random_ds(m=50)
        a = shuffle_split(ds, (0.85, 0.10, 0.05), seed=9)
        b = shuffle_split(ds, (0.85, 0.10, 0.05), seed=9)
        assert np.array_equal(a.train.windows, b.train.windows)
        assert np.array_equal(a.val.targets, b.val.targets)

    def test_seed_changes_assignment(self):
        ds = random_ds(m=50)
        a = shuffle_split(ds, (0.85, 0.10, 0.05), seed=1)
        b = shuffle_split(ds, (0.85, 0.10, 0.05), seed=2)
        assert not np.array_equal(a.train.targets, b.train.targets)

    @given(st.integers(3, 300), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, m, seed):
        ds = random_ds(m=m, seed=seed % 17)
        split = shuffle_split(ds, (0.85, 0.10, 0.05), seed=seed)
        assert split.train.m + split.test.m + split.val.m == m
        recombined = np.sort(
            np.concatenate([split.train.targets, split.test.targets, split.val.targets])
        )
        assert np.array_equal(recombined, np.sort(ds.targets))

    def test_too_few_windows(self):
        with pytest.raises(InvalidArgumentError):
            shuffle_split(random_ds(m=2, l=3), (0.85, 0.10, 0.05), 0)

    def test_too_few_windows_is_ill_posed(self):
        # a fault of the data, which the CLI reports as such (exit 3)
        with pytest.raises(IllPosedError, match="need at least 3 windows to split, got 2"):
            shuffle_split(random_ds(m=2, l=3), (0.85, 0.10, 0.05), 0)


class TestProportionalFilter:
    def test_exact_count_law(self):
        ds = random_ds(m=200, seed=5)
        thr = float(np.median(ds.windows[:, :, 0].var(axis=1)))
        candidates = int(np.count_nonzero(ds.windows[:, :, 0].var(axis=1) < thr))
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):
            cfg = FilterConfig(variance_threshold=thr, discard_proportion=p, seed=3)
            out, k = proportional_filter(ds, cfg, 0)
            assert k == math.floor(p * candidates + 1e-9)
            assert out.m == ds.m - k

    def test_zero_proportion_is_identity(self):
        ds = random_ds(m=30)
        out, k = proportional_filter(ds, FilterConfig(discard_proportion=0.0), 0)
        assert k == 0
        assert np.array_equal(out.windows, ds.windows)
        assert np.array_equal(out.targets, ds.targets)

    def test_high_variance_windows_always_survive(self):
        ds = random_ds(m=100, seed=8)
        v = ds.windows[:, :, 0].var(axis=1)
        thr = float(np.quantile(v, 0.6))
        cfg = FilterConfig(variance_threshold=thr, discard_proportion=1.0, seed=2)
        out, k = proportional_filter(ds, cfg, 0)
        assert out.m == ds.m - k
        assert np.all(out.windows[:, :, 0].var(axis=1) >= thr)

    def test_threshold_is_strict(self):
        w = np.zeros((4, 3, 1))
        w[:, :, 0] = [[0, 1, 2]] * 4  # all windows have identical variance
        ds = WindowedDataset(windows=w, targets=np.zeros(4), l=3, n=1)
        v = float(ds.windows[0, :, 0].var())
        _, k_at = proportional_filter(
            ds, FilterConfig(variance_threshold=v, discard_proportion=1.0), 0
        )
        assert k_at == 0  # var == threshold is not a candidate
        _, k_above = proportional_filter(
            ds, FilterConfig(variance_threshold=v + 1e-9, discard_proportion=1.0), 0
        )
        assert k_above == 4

    def test_deterministic(self):
        ds = random_ds(m=60, seed=2)
        cfg = FilterConfig(variance_threshold=0.1, discard_proportion=0.5, seed=4)
        a, _ = proportional_filter(ds, cfg, 0)
        b, _ = proportional_filter(ds, cfg, 0)
        assert np.array_equal(a.windows, b.windows)


class TestRunPreprocess:
    def test_audit_structure(self, small_table):
        split, audit = run_preprocess(small_table, PreprocessConfig(window_width=8))
        assert audit.sigma_convention == "sample"
        assert audit.split_sizes == {"train": split.train.m, "test": split.test.m,
                                     "val": split.val.m}
        assert audit.windows_total == sum(audit.split_sizes.values())
        assert audit.window_width == 8
        assert set(audit.dropped_constant_columns) == {"f1", "f2"}
        assert audit.filter is None

    def test_scaled_windows_in_unit_cube(self, small_split):
        for part in (small_split.train, small_split.test, small_split.val):
            assert part.windows.min() >= 0.0
            assert part.windows.max() <= 1.0

    def test_filter_touches_train_only(self, small_table):
        cfg = PreprocessConfig(window_width=8)
        fcfg = FilterConfig(variance_threshold=0.002, discard_proportion=0.5, seed=11)
        plain, _ = run_preprocess(small_table, cfg)
        filtered, audit = run_preprocess(small_table, cfg, fcfg)
        assert filtered.train.m == plain.train.m - audit.filter["discarded"]
        assert np.array_equal(filtered.test.windows, plain.test.windows)
        assert np.array_equal(filtered.val.windows, plain.val.windows)
        assert audit.filter["discarded"] == math.floor(0.5 * audit.filter["candidates"] + 1e-9)

    def test_deterministic_end_to_end(self, small_table):
        cfg = PreprocessConfig(window_width=8)
        a, _ = run_preprocess(small_table, cfg)
        b, _ = run_preprocess(small_table, cfg)
        assert np.array_equal(a.train.windows, b.train.windows)
        assert np.array_equal(a.test.targets, b.test.targets)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the bytes it allocated meanwhile."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestMemory:
    """Peak allocations as multiples of the windows' bytes: the windows
    are l times the table, so every copy of them counts."""

    @pytest.fixture(scope="class")
    def table(self):
        return generate_synthetic(SynthConfig(n_rows=3000, seed=3))

    def test_make_windows_writes_the_windows_once(self, table):
        ds, peak = traced_peak(make_windows, table, 8)
        assert ds.m > 0
        assert peak <= 1.3 * ds.windows.nbytes

    def test_run_preprocess_holds_one_transient_copy(self, table):
        fcfg = FilterConfig(variance_threshold=0.002, discard_proportion=0.2, seed=11)
        (split, audit), peak = traced_peak(
            run_preprocess, table, PreprocessConfig(window_width=8), fcfg)
        assert audit.filter["discarded"] > 0
        windows_bytes = audit.windows_total * split.train.l * split.train.n * 8
        assert peak <= 2.6 * windows_bytes

    def test_run_preprocess_copies_no_windows(self, table):
        """Every part indexes one shared feature table, so the peak is set
        by the table stages, below one copy of the windows."""
        fcfg = FilterConfig(variance_threshold=0.002, discard_proportion=0.2, seed=11)
        (split, audit), peak = traced_peak(
            run_preprocess, table, PreprocessConfig(window_width=8), fcfg)
        assert audit.filter["discarded"] > 0
        assert all(part.rows is split.train.rows for part in (split.test, split.val))
        windows_bytes = audit.windows_total * split.train.l * split.train.n * 8
        assert peak <= 0.8 * windows_bytes

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 a call's arguments stay on the caller's stack")
    def test_raw_table_goes_before_the_outlier_stage(self, monkeypatch, table):
        """A table no caller holds is freed once its constant columns are
        dropped, before the outlier stage copies its rows."""
        refs, alive = [], []
        real_drop, real_outliers = pp.drop_constant_features, pp.remove_outliers_zscore

        def drop(raw):
            refs.append(weakref.ref(raw))
            return real_drop(raw)

        def outliers(stage, threshold):
            alive.append(refs[0]() is not None)
            return real_outliers(stage, threshold)

        monkeypatch.setattr(pp, "drop_constant_features", drop)
        monkeypatch.setattr(pp, "remove_outliers_zscore", outliers)
        run_preprocess(replace(table), PreprocessConfig(window_width=8))
        assert alive == [False]

    def test_bootstrap_sample_shares_the_rows(self, table):
        split, _ = run_preprocess(table, PreprocessConfig(window_width=8))
        train = split.train
        sample, peak = traced_peak(bootstrap_sample, train, train.m, 5)
        assert sample.rows is train.rows
        assert peak <= 0.1 * train.windows.nbytes

    def test_drop_constant_features_copies_the_kept_columns_once(self):
        table = generate_synthetic(SynthConfig(n_rows=30000, seed=20))
        (out, dropped), peak = traced_peak(drop_constant_features, table)
        assert dropped
        assert out.rows.flags.c_contiguous
        assert peak <= 1.2 * out.rows.nbytes

    def test_explicit_windows_come_back_bit_for_bit(self):
        w = np.random.default_rng(4).normal(size=(6, 4, 3))
        w[0, 0] = [-0.0, np.inf, np.nan]
        w[5, 3] = [5e-324, -np.inf, -np.nan]
        ds = WindowedDataset(windows=w, targets=np.zeros(6), l=4, n=3)
        assert ds.rows.shape == (24, 3) and ds.starts.tolist() == [0, 4, 8, 12, 16, 20]
        back = ds.windows
        assert back.shape == w.shape and back.flags.c_contiguous
        assert back.tobytes() == w.tobytes()


class TestConfigValidation:
    def test_fraction_sum(self):
        with pytest.raises(InvalidArgumentError):
            PreprocessConfig(split_fractions=(0.5, 0.3, 0.3))

    def test_window_width_minimum(self):
        with pytest.raises(InvalidArgumentError):
            PreprocessConfig(window_width=1)

    def test_filter_proportion_range(self):
        with pytest.raises(InvalidArgumentError):
            FilterConfig(discard_proportion=1.5)

    @pytest.mark.parametrize("make", [
        lambda: PreprocessConfig(zscore_threshold=math.nan),
        lambda: PreprocessConfig(correlation_threshold=math.nan),
        lambda: PreprocessConfig(split_fractions=(math.nan, 0.5, 0.5)),
        lambda: NetworkConfig(arch="lstm", learning_rate=math.nan),
        lambda: NetworkConfig(arch="lstm", l2_lambda=math.nan),
    ], ids=["zscore_threshold", "correlation_threshold", "split_fractions",
            "learning_rate", "l2_lambda"])
    def test_nan_is_rejected(self, make):
        """Library callers can pass NaN, which JSON configs cannot; each
        rule is written so that NaN fails it."""
        with pytest.raises(InvalidArgumentError):
            make()
