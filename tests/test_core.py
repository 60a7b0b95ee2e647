import statistics
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trackcast.core import (
    MetricsPair,
    RawTable,
    SplitSet,
    WindowedDataset,
    accepts,
    checked,
    evaluate_metrics,
    pearson,
)
from trackcast.errors import IllPosedError, InvalidArgumentError


def _table(rows, names=("mileage", "meters", "a", "b"), target="a"):
    return RawTable(
        rows=np.asarray(rows, dtype=np.float64),
        column_names=tuple(names),
        id_columns=(names.index("mileage"), names.index("meters")),
        target_column=names.index(target),
    )


class TestRawTable:
    def test_basic_shape(self):
        t = _table([[100, 0.0, 1.0, 2.0], [100, 0.25, 3.0, 4.0]])
        assert t.n_rows == 2
        assert t.n_columns == 4

    def test_rows_are_read_only(self):
        t = _table([[100, 0.0, 1.0, 2.0]])
        with pytest.raises(ValueError):
            t.rows[0, 0] = 5.0

    def test_non_id_and_feature_indices(self):
        t = _table([[100, 0.0, 1.0, 2.0]])
        assert t.non_id_indices() == [2, 3]
        # target is excluded from feature indices
        assert t.feature_indices() == [3]

    def test_without_columns_refuses_target(self):
        t = _table([[100, 0.0, 1.0, 2.0]])
        with pytest.raises(InvalidArgumentError):
            t.without_columns([2])

    def test_without_columns_remaps_target(self):
        t = _table([[100, 0.0, 1.0, 2.0, 3.0]], names=("mileage", "meters", "a", "b", "c"), target="c")
        out = t.without_columns([2])
        assert out.column_names == ("mileage", "meters", "b", "c")
        assert out.column_names[out.target_column] == "c"
        assert np.array_equal(out.rows, [[100, 0.0, 2.0, 3.0]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidArgumentError):
            _table([[100, 0.0, 1.0, 2.0]], names=("mileage", "meters", "a", "a"))


class TestWindowedDataset:
    def _ds(self, m=5, l=4, n=3, tf=0):
        rng = np.random.default_rng(0)
        return WindowedDataset(
            windows=rng.normal(size=(m, l, n)),
            targets=rng.normal(size=m),
            l=l,
            n=n,
            target_feature=tf,
        )

    def test_m_property(self):
        assert self._ds(m=7).m == 7

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgumentError):
            WindowedDataset(
                windows=rng.normal(size=(5, 4, 3)),
                targets=rng.normal(size=6),
                l=4,
                n=3,
            )

    def test_declared_dims_must_match(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgumentError):
            WindowedDataset(
                windows=rng.normal(size=(5, 4, 3)),
                targets=rng.normal(size=5),
                l=3,
                n=3,
            )

    def test_target_feature_range(self):
        with pytest.raises(InvalidArgumentError):
            self._ds(tf=3)

    def test_subset_picks_rows(self):
        ds = self._ds(m=6)
        sub = ds.subset(np.array([4, 0, 4]))
        assert sub.m == 3
        assert np.array_equal(sub.windows[0], ds.windows[4])
        assert np.array_equal(sub.windows[1], ds.windows[0])
        assert sub.targets[2] == ds.targets[4]

    def test_empty_allowed(self):
        ds = WindowedDataset(
            windows=np.empty((0, 4, 3)), targets=np.empty(0), l=4, n=3
        )
        assert ds.m == 0

    def test_rows_and_starts_read_like_the_windows(self):
        rows = np.random.default_rng(1).normal(size=(9, 3))
        starts = np.array([4, 0, 5, 4])
        ds = WindowedDataset(rows=rows, starts=starts, targets=np.zeros(4), l=4, n=3)
        want = np.stack([rows[s : s + 4] for s in starts])
        assert np.array_equal(ds.windows, want) and ds.windows.flags.c_contiguous
        assert np.array_equal(ds.gather(np.array([3, 1])), want[[3, 1]])
        assert np.array_equal(ds.row(-1), want[:, -1]) and np.array_equal(ds.row(1), want[:, 1])
        assert np.array_equal(ds.feature(2), want[:, :, 2])
        assert ds.subset([2, 2]).rows is ds.rows

    @pytest.mark.parametrize("starts", [[-1], [6], [[0]]])
    def test_starts_must_index_whole_windows(self, starts):
        with pytest.raises(InvalidArgumentError):
            WindowedDataset(rows=np.zeros((9, 3)), starts=starts, targets=np.zeros(1), l=4, n=3)

    def test_windows_read_only(self):
        ds = self._ds()
        with pytest.raises(ValueError):
            ds.windows[0, 0, 0] = 1.0

    def test_of_returns_a_dataset_as_it_is(self):
        ds = self._ds(tf=2)
        assert WindowedDataset.of(ds) is ds

    def test_of_wraps_an_array_without_a_copy(self):
        w = np.random.default_rng(2).normal(size=(5, 4, 3))
        ds = WindowedDataset.of(w)
        assert (ds.m, ds.l, ds.n, ds.target_feature) == (5, 4, 3, 0)
        assert np.shares_memory(ds.rows, w) and not ds.targets.any()
        assert np.array_equal(ds.windows, w)

    @pytest.mark.parametrize("make", [lambda w: w.astype(np.float32),
                                      lambda w: np.asfortranarray(w),
                                      lambda w: w.tolist()])
    def test_of_copies_other_layouts(self, make):
        w = np.random.default_rng(3).normal(size=(5, 4, 3))
        ds = WindowedDataset.of(make(w))
        assert ds.rows.flags.c_contiguous
        assert np.array_equal(ds.windows, np.asarray(make(w), dtype=np.float64))

    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3, 1), ()])
    def test_of_rejects_an_array_that_is_not_3d(self, shape):
        with pytest.raises(InvalidArgumentError, match=r"\(m, l, n\)"):
            WindowedDataset.of(np.zeros(shape))


class TestJsonTypes:
    @pytest.mark.parametrize("hint,value,ok", [
        (int, 3, True), (int, True, False), (int, 3.0, False), (int, "3", False),
        (float, 3, True), (float, 2.5, True), (float, False, False), (float, "nan", False),
        (bool, False, True), (bool, 0, False), (str, "a", True), (str, None, False),
        (float | None, None, True), (float | None, "0.2", False),
        (list[int], [1, 2], True), (list[int], [1.0], False), (list[int], 1, False),
        (tuple[int, int], [1, 2], True), (tuple[int, int], [1], False),
        (dict, {}, True), (dict, [], False),
    ])
    def test_accepts(self, hint, value, ok):
        assert accepts(hint, value) is ok

    def test_checked_names_the_field(self):
        assert checked(int, 3, "p") == 3
        with pytest.raises(TypeError, match=r'^model\.p must be int, got "3"$'):
            checked(int, "3", "model.p")


class TestSplitSet:
    def test_mismatched_window_shapes_rejected(self):
        a = WindowedDataset(np.zeros((2, 3, 2)), np.zeros(2), 3, 2)
        b = WindowedDataset(np.zeros((2, 4, 2)), np.zeros(2), 4, 2)
        with pytest.raises(InvalidArgumentError):
            SplitSet(train=a, test=b, val=a)


class TestMetrics:
    def test_hand_computed_example(self):
        # (1,1): 0; (2,1): 1; (3,4): 1  ->  mse = mae = 2/3
        pair = evaluate_metrics([1.0, 2.0, 3.0], [1.0, 1.0, 4.0])
        assert pair.mse == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert pair.mae == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_perfect_prediction(self):
        pair = evaluate_metrics([1.5, -2.0], [1.5, -2.0])
        assert pair.mse == 0.0
        assert pair.mae == 0.0

    def test_sequential_summation_is_reproducible(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=257)
        p = rng.normal(size=257)
        # oracle: explicit left-to-right accumulation
        se = 0.0
        ae = 0.0
        for yi, pi in zip(y, p):
            se += (yi - pi) ** 2
            ae += abs(yi - pi)
        pair = evaluate_metrics(y, p)
        assert pair.mse == se / len(y)
        assert pair.mae == ae / len(y)

    @given(st.integers(1, 21796), st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bits_equal_the_python_loop(self, n, scale, seed):
        """The reference is a plain Python loop in index order.  It
        squares with ``r * r``: ``r ** 2`` (C ``pow``) does not always
        give the same last bit."""
        rng = np.random.default_rng(seed)
        y = rng.normal(scale=scale, size=n)
        p = rng.normal(scale=scale, size=n)
        acc_sq = 0.0
        acc_abs = 0.0
        for a, b in zip(y.tolist(), p.tolist()):
            r = a - b
            acc_sq += r * r
            acc_abs += abs(r)
        pair = evaluate_metrics(y, p)
        assert (pair.mse, pair.mae) == (acc_sq / n, acc_abs / n)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            evaluate_metrics([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            evaluate_metrics([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            evaluate_metrics([1.0, float("nan")], [1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            evaluate_metrics([1.0, 2.0], [1.0, float("inf")])

    def test_metrics_pair_invariant_enforced(self):
        # mae^2 > mse is impossible for any real residual vector
        with pytest.raises(InvalidArgumentError):
            MetricsPair(mse=0.01, mae=0.5)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mae_squared_never_exceeds_mse(self, ys, seed):
        preds = np.random.default_rng(seed).uniform(-1e6, 1e6, size=len(ys))
        pair = evaluate_metrics(np.array(ys), preds)
        assert pair.mae**2 <= pair.mse * (1.0 + 1e-9) + 1e-15


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_constant_input_returns_zero(self):
        """Zero variance on either side is defined as exactly 0."""
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson([0.0, 0.0, 0.0], [1e308, -1e308, 1e308]) == 0.0
            assert pearson([1e308] * 3, [1.0, 2.0, 3.0]) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(InvalidArgumentError):
            pearson([1.0], [1.0])

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_points_is_ill_posed(self, n):
        with pytest.raises(IllPosedError, match="at least two points"):
            pearson([1.0] * n, [2.0] * n)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 40))
    @settings(max_examples=200, deadline=None)
    def test_bounded(self, seed, n):
        rng = np.random.default_rng(seed)
        r = pearson(rng.normal(size=n), rng.normal(size=n))
        assert -1.0 <= r <= 1.0

    def test_tiny_deviations_keep_their_correlation(self):
        """Squares of deviations below about 1e-154 underflow to 0; the
        column still varies, so it must not read as constant."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson([0.0, 2.46e-239], [0.0, 1.0]) == pytest.approx(1.0)
            assert pearson([1.0, 2.0, 4.0], [0.0, 5e-324, 1e-323]) == pytest.approx(
                pearson([1.0, 2.0, 4.0], [0.0, 1.0, 2.0]))
            assert pearson([1e-160] * 3, [1.0, 2.0, 3.0]) == 0.0

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(-1074, 1023),
        st.integers(-1074, 1023),
    )
    @settings(max_examples=300, deadline=None)
    def test_large_finite_values_keep_their_correlation(self, u, seed, ju, jv):
        """r does not change when an input is scaled, so the reference is r
        of the scaled inputs brought to a largest magnitude of 1.  2**1023
        puts every sum past the float64 range; below about 2**-511 the
        squares of the deviations underflow."""
        scaled = []
        v = np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(u))
        for w, j in ((np.array(u), ju), (v, jv)):
            w = w * 2.0**j  # exact, unless it lands among the subnormals
            top = np.abs(w).max()
            assume(top > 0.0 and np.ptp(w / top) > 1e-3)  # well conditioned
            scaled.append(w)
        x, y = scaled
        want = statistics.correlation(x / np.abs(x).max(), y / np.abs(y).max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson(x, y)
        assert r == pytest.approx(want, rel=1e-9, abs=1e-9)

