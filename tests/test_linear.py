import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FILTER_SEED, SWEEP_VARIANCE_THRESHOLD
from trackcast.core import WindowedDataset
from trackcast.errors import IllPosedError, InvalidArgumentError
from trackcast import linear as lin
from trackcast.ingest import SynthConfig, generate_synthetic
from trackcast.preprocess import FilterConfig, PreprocessConfig, run_preprocess
from trackcast.linear import (
    _css_parts,
    _residual_jacobian,
    _window_diff_parts,
    fit_arimax,
    fit_linear,
    predict_arimax_batch,
    predict_linear_batch,
    undifference,
)


def ds_from(windows, targets, tf=0):
    w = np.asarray(windows, dtype=np.float64)
    return WindowedDataset(
        windows=w, targets=np.asarray(targets, dtype=np.float64),
        l=w.shape[1], n=w.shape[2], target_feature=tf,
    )


def random_ds(m=60, l=8, n=4, tf=1, seed=0):
    rng = np.random.default_rng(seed)
    return ds_from(rng.normal(size=(m, l, n)), rng.normal(size=m), tf=tf)


def ar_series_ds(phi, sigma, n_pts, l, seed):
    """Windows cut from one simulated AR(len(phi)) series."""
    rng = np.random.default_rng(seed)
    p = len(phi)
    x = np.zeros(n_pts)
    eps = rng.normal(0, sigma, n_pts)
    for t in range(p, n_pts):
        x[t] = sum(phi[i] * x[t - 1 - i] for i in range(p)) + eps[t]
    wins = np.lib.stride_tricks.sliding_window_view(x, l)[:-1]
    return ds_from(wins[:, :, None], x[l:]), x


class TestFitLinear:
    def test_exact_affine_recovery(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(50, 6, 4))
        true_w = np.array([2.0, -1.0, 0.5])
        # target feature at 1; exogenous columns are 0, 2, 3
        y = 3.0 + w[:, -1, [0, 2, 3]] @ true_w
        model = fit_linear(ds_from(w, y, tf=1))
        assert model.bias == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(model.weights, true_w, atol=1e-9)
        assert not model.ridge_fallback
        preds = predict_linear_batch(model, w)
        assert np.allclose(preds, y, atol=1e-9)

    def test_single_window_prediction_matches_batch(self):
        # a batch of one is a dot product, not a row of the full matvec,
        # so the last bits may differ
        ds = random_ds()
        model = fit_linear(ds)
        batch = predict_linear_batch(model, ds.windows)
        assert predict_linear_batch(model, ds.windows[3:4])[0] == pytest.approx(batch[3])

    def test_only_newest_row_matters(self):
        ds = random_ds()
        model = fit_linear(ds)
        w = np.array(ds.windows[0])
        w[:-1] = 123.456  # older rows are ignored by the linear path
        assert (predict_linear_batch(model, w[None])[0]
                == predict_linear_batch(model, ds.windows[:1])[0])

    def test_ill_posed_when_windows_scarce(self):
        with pytest.raises(IllPosedError):
            fit_linear(random_ds(m=3, n=4))

    def test_ridge_fallback_on_duplicate_features(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(40, 5, 4))
        w[:, :, 3] = w[:, :, 2]  # exact collinearity
        model = fit_linear(ds_from(w, rng.normal(size=40), tf=0))
        assert model.ridge_fallback
        assert np.all(np.isfinite(predict_linear_batch(model, w)))

    def test_deterministic(self):
        ds = random_ds(seed=5)
        a, b = fit_linear(ds), fit_linear(ds)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias


class TestDifferencing:
    def test_undifference_d1(self):
        # last level 6, differenced forecast 4 -> next level 10
        assert undifference([6.0], 4.0, 1) == 10.0

    def test_undifference_d2(self):
        # levels ..., a, b with second-difference forecast f -> f + 2b - a
        a, b, f = 3.0, 7.0, 1.5
        assert undifference([a, b], f, 2) == f + 2 * b - a

    def test_undifference_needs_d_values(self):
        with pytest.raises(InvalidArgumentError):
            undifference([1.0], 0.5, 2)

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=12),
        st.integers(1, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_difference_undifference_identity(self, values, d):
        x = np.asarray(values, dtype=np.float64)
        z = np.diff(x, n=d)
        rebuilt = undifference(x[:-1][len(x) - 1 - d :], float(z[-1]), d)
        assert rebuilt == pytest.approx(float(x[-1]), abs=1e-9)


class TestArimaxValidation:
    def test_negative_orders(self):
        with pytest.raises(InvalidArgumentError):
            fit_arimax(random_ds(), -1, 0, 0)

    def test_differencing_cap(self):
        with pytest.raises(InvalidArgumentError):
            fit_arimax(random_ds(), 0, 3, 0)

    def test_window_must_exceed_p_plus_d(self):
        with pytest.raises(InvalidArgumentError):
            fit_arimax(random_ds(l=4), 3, 1, 0)

    def test_ma_needs_room_for_residual_bootstrap(self):
        # q > 0 requires l >= p + q + d + 3
        with pytest.raises(InvalidArgumentError):
            fit_arimax(random_ds(l=5), 1, 0, 2)

    def test_ill_posed_when_too_few_windows(self):
        with pytest.raises(IllPosedError):
            fit_arimax(random_ds(m=4, n=4), 1, 0, 0)

    def test_prediction_window_length_check(self):
        ds = random_ds(l=8)
        model = fit_arimax(ds, 2, 1, 0)
        short = np.zeros((1, 2, ds.n))
        with pytest.raises(InvalidArgumentError):
            predict_arimax_batch(model, short)


class TestArimaxEstimation:
    def test_ar2_coefficient_recovery(self):
        """Simulated AR(2), phi = (0.5, -0.3), sigma 0.1, 5000 points:
        the fitted coefficients land within 0.05 of the truth."""
        ds, _ = ar_series_ds([0.5, -0.3], 0.1, 5000, 8, seed=42)
        model = fit_arimax(ds, 2, 0, 0)
        assert abs(model.phi[0] - 0.5) < 0.05
        assert abs(model.phi[1] + 0.3) < 0.05

    def test_pure_ar_equals_direct_least_squares(self):
        # with q = 0 the fit is a plain regression on lagged values; solve
        # the same normal problem directly and compare exactly
        ds, x = ar_series_ds([0.5, -0.3], 0.1, 3000, 8, seed=42)
        model = fit_arimax(ds, 2, 0, 0)
        l = ds.l
        y = ds.targets
        design = np.column_stack([np.ones(ds.m), x[l - 1 : -1][: ds.m], x[l - 2 : -2][: ds.m]])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert model.c == pytest.approx(coef[0], abs=1e-10)
        assert np.allclose(model.phi, coef[1:], atol=1e-10)

    def test_order_zero_with_exog_matches_linear_path(self):
        """p = q = d = 0 plus exogenous features degenerates to the
        linear regression path; the two separate implementations must
        agree numerically."""
        ds = random_ds(m=200, l=6, n=4, tf=1, seed=7)
        lm = fit_linear(ds)
        am = fit_arimax(ds, 0, 0, 0)
        pl = predict_linear_batch(lm, ds.windows)
        pa = predict_arimax_batch(am, ds.windows)
        assert np.max(np.abs(pl - pa)) < 1e-6

    def test_d1_matches_manual_differenced_regression(self):
        ds = random_ds(m=120, l=7, n=3, tf=0, seed=9)
        model = fit_arimax(ds, 0, 1, 0)
        zy = ds.targets - ds.windows[:, -1, 0]
        design = np.hstack([np.ones((ds.m, 1)), ds.windows[:, -1, 1:]])
        coef, *_ = np.linalg.lstsq(design, zy, rcond=None)
        manual = design @ coef + ds.windows[:, -1, 0]
        assert np.allclose(predict_arimax_batch(model, ds.windows), manual, atol=1e-9)

    def test_ma1_theta_recovery(self):
        rng = np.random.default_rng(10)
        n_pts = 8000
        eps = rng.normal(0, 0.1, n_pts)
        x = np.empty(n_pts)
        x[0] = eps[0]
        x[1:] = eps[1:] + 0.5 * eps[:-1]
        wins = np.lib.stride_tricks.sliding_window_view(x, 10)[:-1]
        ds = ds_from(wins[:, :, None], x[10:])
        model = fit_arimax(ds, 0, 0, 1)
        assert abs(model.theta[0] - 0.5) < 0.1
        assert not model.css_warning

    def test_refinement_never_worsens_css(self):
        ds = random_ds(m=80, l=9, n=3, seed=11)
        model = fit_arimax(ds, 1, 0, 1)
        assert model.css_final <= model.css_initial + 1e-12

    def test_deterministic(self):
        ds = random_ds(m=70, l=9, n=3, seed=13)
        a = fit_arimax(ds, 1, 0, 1)
        b = fit_arimax(ds, 1, 0, 1)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.theta, b.theta)
        assert a.css_final == b.css_final

    def test_predict_single_matches_batch(self):
        ds = random_ds(m=50, l=8, n=3, seed=15)
        model = fit_arimax(ds, 2, 1, 0)
        batch = predict_arimax_batch(model, ds.windows)
        assert predict_arimax_batch(model, ds.windows[7:8])[0] == pytest.approx(batch[7])

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_undifferencing_bit_identical_to_per_window(self, d):
        ds = random_ds(m=300, l=9, n=3, tf=2, seed=17)
        model = fit_arimax(ds, 2, d, 1)
        forward = lin._arimax_forward
        seen = []

        def recording_forward(*args):
            out = forward(*args)
            seen.append(out[0].copy())
            return out

        with mock.patch.object(lin, "_arimax_forward", recording_forward):
            batch = predict_arimax_batch(model, ds.windows)
        (zhat,) = seen
        endog = ds.windows[:, :, 2]
        reference = [undifference(endog[k, -d:], float(zhat[k]), d) for k in range(ds.m)]
        assert np.array_equal(batch, np.array(reference))

    def test_empty_batch(self):
        ds = random_ds(m=50, l=8, n=3, seed=15)
        model = fit_arimax(ds, 1, 0, 0)
        out = predict_arimax_batch(model, np.empty((0, ds.l, ds.n)))
        assert out.shape == (0,)


def stage_one_fit(ds, p, d, q):
    """fit_arimax with the refinement replaced by a no-op."""
    with mock.patch.object(lin, "_refine_css", lambda vec, *args: (vec, None, False)):
        return fit_arimax(ds, p, d, q)


class TestCssRefinement:
    def test_synth_table_refines(self):
        """Seed-20 5000-row synth table, benchmark preprocessing, order
        (2, 0, 1): the stage-one estimate has an explosive MA term (CSS
        about 8.4e12), and the refinement must bring the CSS and the
        test error down to the AR(2) level."""
        table = generate_synthetic(SynthConfig(n_rows=5000, seed=20))
        split, _ = run_preprocess(
            table,
            PreprocessConfig(window_width=8),
            FilterConfig(variance_threshold=SWEEP_VARIANCE_THRESHOLD,
                         discard_proportion=0.2, seed=FILTER_SEED),
        )
        model = fit_arimax(split.train, 2, 0, 1)
        assert not model.css_warning
        assert model.css_final < model.css_initial
        test_mse = np.mean(
            (predict_arimax_batch(model, split.test.windows) - split.test.targets) ** 2
        )
        assert test_mse < 0.01

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(20, 60),
        n=st.integers(1, 4),
        p=st.integers(0, 2),
        d=st.integers(0, 1),
        q=st.integers(1, 2),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_refinement_never_worsens_and_warning_keeps_stage_one(
        self, seed, m, n, p, d, q, scale
    ):
        rng = np.random.default_rng(seed)
        l = p + q + d + 3 + int(rng.integers(0, 3))
        ds = ds_from(scale * rng.normal(size=(m, l, n)), scale * rng.normal(size=m),
                     tf=int(rng.integers(0, n)))
        model = fit_arimax(ds, p, d, q)
        assert model.css_final <= model.css_initial
        if model.css_warning:
            first = stage_one_fit(ds, p, d, q)
            assert model.css_final == model.css_initial == first.css_initial
            assert model.c == first.c
            for name in ("phi", "theta", "beta"):
                assert np.array_equal(getattr(model, name), getattr(first, name))

    def test_warning_when_no_step_lowers_the_css(self):
        """A refinement whose every candidate scores worse returns the
        stage-one estimate with the flag set."""
        ds = random_ds(m=80, l=9, n=3, seed=11)
        first = stage_one_fit(ds, 1, 0, 1)
        real = lin._css_parts

        def worse_candidates(vec, *args):
            css, r, eps = real(vec, *args)
            if not np.array_equal(vec, np.concatenate(([first.c], first.phi, first.theta, first.beta))):
                css = np.inf
            return css, r, eps

        with mock.patch.object(lin, "_css_parts", worse_candidates):
            model = fit_arimax(ds, 1, 0, 1)
        assert model.css_warning
        assert model.css_final == model.css_initial
        assert np.array_equal(model.theta, first.theta)
        assert np.array_equal(model.phi, first.phi)


class TestMirroredMa1Start:
    """Order (2, 0, 1) on the 2000-row seed-20 synth table with the
    benchmark's preprocessing: stage one returns theta = 5.6, CSS 3e11."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """The packed parameters of each CSS and Jacobian evaluation."""
        calls = []
        for name in ("_css_parts", "_residual_jacobian"):
            def spy(vec, *args, _real=getattr(lin, name), **kwargs):
                calls.append(vec.copy())
                return _real(vec, *args, **kwargs)
            monkeypatch.setattr(lin, name, spy)
        return calls

    def test_mirror_start_ends_invertible_in_fewer_evaluations(self, evaluations):
        table = generate_synthetic(SynthConfig(n_rows=2000, seed=20))
        split, _ = run_preprocess(
            table,
            PreprocessConfig(window_width=8),
            FilterConfig(variance_threshold=SWEEP_VARIANCE_THRESHOLD,
                         discard_proportion=0.2, seed=FILTER_SEED),
        )
        model = fit_arimax(split.train, 2, 0, 1)
        stage_one = evaluations[0]  # the first CSS is stage one's
        fit_evaluations = len(evaluations)
        assert abs(stage_one[3]) > 1
        assert abs(model.theta[0]) < 1
        assert not model.css_warning

        evaluations.clear()
        parts = _window_diff_parts(split.train, 0)
        first = lin._css_parts(stage_one, 2, 1, *parts)
        _, css_from_stage_one, _ = lin._refine_css(stage_one, first, 2, 1, *parts)
        assert model.css_initial == first[0]
        assert fit_evaluations < len(evaluations)
        assert model.css_final <= css_from_stage_one * (1 + 1e-8)


def window_major_forward(c, phi, theta, beta, z, ex):
    """The residual recursion on (m, L) windows-by-position columns, as
    it ran before the time-major layout: the reference for its bits.
    ``ex`` (m, L) holds each position's exogenous term; the forecast
    reads the newest position's."""
    m, big_l = z.shape
    p, q = phi.shape[0], theta.shape[0]
    eps = np.zeros((m, big_l))
    for t in range(p, big_l):
        pred = c + ex[:, t]
        for i in range(1, p + 1):
            pred = pred + phi[i - 1] * z[:, t - i]
        for j in range(1, min(q, t) + 1):
            pred = pred + theta[j - 1] * eps[:, t - j]
        eps[:, t] = z[:, t] - pred
    zhat = np.full(m, c)
    if beta.size:
        zhat = zhat + ex[:, -1]
    for i in range(1, p + 1):
        zhat = zhat + phi[i - 1] * z[:, big_l - i]
    for j in range(1, q + 1):
        zhat = zhat + theta[j - 1] * eps[:, big_l - j]
    return zhat, eps


class TestTimeMajorForward:
    @pytest.mark.parametrize("p,d,q,n", [(2, 0, 1, 4), (0, 0, 2, 3), (3, 1, 0, 1), (1, 2, 2, 5)])
    def test_bit_identical_to_window_major(self, p, d, q, n):
        rng = np.random.default_rng(17)
        ds = ds_from(rng.normal(size=(300, 9, n)), rng.normal(size=300), tf=n - 1)
        z, zy, xcols, base = _window_diff_parts(ds, d)
        c, phi, theta, beta = 0.1, rng.normal(size=p), rng.normal(size=q), rng.normal(size=n - 1)
        proj = lin._exog_projection(beta, xcols)
        at = base + np.arange(z.shape[0])[:, None]  # the table row of each position
        ex = np.zeros(at.shape) if proj is None else proj[at]
        # the table-wide projection reads each position's own exogenous row
        assert np.allclose(ex.T, ds.windows[:, d:, :-1] @ beta, rtol=0, atol=1e-12)
        zhat, eps = lin._arimax_forward(c, phi, theta, beta, z, xcols, base)
        ref_zhat, ref_eps = window_major_forward(c, phi, theta, beta, z.T.copy(), ex.T.copy())
        assert np.array_equal(zhat, ref_zhat)
        assert np.array_equal(eps, ref_eps.T)

    def test_exogenous_term_independent_of_row_position(self):
        """A row's projection has the same bits wherever it sits in the
        table, so a part and its gathered windows agree byte for byte."""
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(200, 6))
        beta = rng.normal(size=6)
        order = rng.permutation(200)
        xcols = [rows[:, j] for j in range(6)]
        moved = [rows[order, j] for j in range(6)]
        assert (lin._exog_projection(beta, xcols)[order].tobytes()
                == lin._exog_projection(beta, moved).tobytes())


class TestResidualJacobian:
    @pytest.mark.parametrize("p,d,q", [(1, 0, 1), (2, 1, 1), (0, 0, 2), (2, 0, 2), (1, 2, 1)])
    def test_forward_mode_matches_central_differences(self, p, d, q):
        rng = np.random.default_rng(3)
        ds = ds_from(rng.normal(size=(40, 9, 3)), rng.normal(size=40), tf=1)
        # and unsorted, repeated start rows into the same table
        for part in (ds, ds.subset(rng.integers(0, ds.m, size=ds.m))):
            z, zy, xcols, base = _window_diff_parts(part, d)
            vec = rng.normal(scale=0.3, size=1 + p + q + (part.n - 1))
            _, _, eps = _css_parts(vec, p, q, z, zy, xcols, base)
            jac = _residual_jacobian(vec, p, q, z, eps, xcols, base)
            assert jac.shape == (vec.size, part.m)
            h = 1e-6
            num = np.zeros_like(jac)
            for k in range(vec.size):
                vp, vm = vec.copy(), vec.copy()
                vp[k] += h
                vm[k] -= h
                num[k] = (
                    _css_parts(vp, p, q, z, zy, xcols, base)[1]
                    - _css_parts(vm, p, q, z, zy, xcols, base)[1]
                ) / (2 * h)
            rel = np.abs(jac - num) / np.maximum(np.abs(jac) + np.abs(num), 1e-8)
            assert rel.max() < 1e-6
            out = np.full_like(jac, np.nan)
            assert _residual_jacobian(vec, p, q, z, eps, xcols, base, out=out) is out
            assert np.array_equal(out, jac)


def shared_table_ds(m=120, l=8, n=4, tf=1, seed=0):
    """Windows over one shared table of m + l rows, as preprocessing
    cuts them."""
    rng = np.random.default_rng(seed)
    return WindowedDataset(rows=rng.normal(size=(m + l, n)), starts=np.arange(m),
                           targets=rng.normal(size=m), l=l, n=n, target_feature=tf)


def fit_both(ds, d):
    """Each linear predictor with a model fitted on ``ds``."""
    return [(predict_linear_batch, fit_linear(ds)), (predict_arimax_batch, fit_arimax(ds, 1, d, 1))]


class TestDatasetInput:
    """Both linear predictors read a ``WindowedDataset`` through its start
    rows, and give the same bytes as for its gathered ``windows``."""

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("starts", ["sorted", "unsorted", "repeated"])
    def test_dataset_and_its_windows_give_the_same_bytes(self, d, n, starts):
        ds = shared_table_ds(n=n, tf=n - 1, seed=d)
        rng = np.random.default_rng(n)
        pick = {"sorted": np.arange(10, 90), "unsorted": rng.permutation(ds.m)[:70],
                "repeated": rng.integers(0, ds.m, size=ds.m)}[starts]
        part = ds.subset(pick)
        for predict, model in fit_both(ds, d):
            got = predict(model, part)
            assert got.shape == (part.m,)
            assert got.tobytes() == predict(model, part.windows).tobytes()

    def test_model_target_feature_is_used(self):
        ds = shared_table_ds(tf=2, seed=4)
        other = WindowedDataset(rows=ds.rows, starts=ds.starts, targets=ds.targets,
                                l=ds.l, n=ds.n, target_feature=0)
        for predict, model in fit_both(ds, 1):
            assert predict(model, other).tobytes() == predict(model, ds).tobytes()

    def test_wrong_feature_count_rejected(self):
        ds = shared_table_ds(n=4)
        wide = shared_table_ds(n=5)
        for predict, model in fit_both(ds, 1):
            for bad in (wide, wide.windows):
                with pytest.raises(InvalidArgumentError):
                    predict(model, bad)

    def test_window_too_short_for_the_order_rejected(self):
        model = fit_arimax(shared_table_ds(l=8), 2, 1, 0)  # needs 3 rows a window
        short = shared_table_ds(l=2)
        for bad in (short, short.windows):
            with pytest.raises(InvalidArgumentError):
                predict_arimax_batch(model, bad)


class TestArimaxMemory:
    """The ARIMAX fit and its predictions read the shared table through
    start rows: no stage holds an (m, l, n) or (nex, m, l) stack."""

    l, n = 8, 16
    m = 16384  # windows of 16 MiB over a table of m + l rows

    def traced_peak(self, call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fit_and_predict_peak_below_the_windows_bytes(self):
        ds = shared_table_ds(m=self.m, l=self.l, n=self.n, tf=0, seed=1)
        window_bytes = ds.m * ds.l * ds.n * 8
        model = fit_arimax(ds, 2, 0, 1)
        # traced peaks 0.60 and 0.24 of the window bytes: no (L, m) table
        # rows, exogenous gather or stage-one design is held
        assert self.traced_peak(lambda: fit_arimax(ds, 2, 0, 1)) < 0.65 * window_bytes
        assert self.traced_peak(lambda: predict_arimax_batch(model, ds)) < 0.3 * window_bytes


class TestBlockedLeastSquares:
    """Both stage-one regressions stream through ``_blocked_lstsq`` in
    row blocks of at most ``_QR_BLOCK`` windows; on more than three
    blocks the streamed solve is lstsq's on the whole design."""

    m = 3 * lin._QR_BLOCK + 500

    def newest_row_design(self, ds, p):
        """[1, the p newest target values, the newest exogenous row]."""
        exog = [j for j in range(ds.n) if j != ds.target_feature]
        lags = [ds.windows[:, -i, ds.target_feature] for i in range(1, p + 1)]
        return np.column_stack([np.ones(ds.m), *lags, ds.windows[:, -1, exog]])

    def test_every_qr_call_takes_one_block_and_r(self, monkeypatch):
        ds = shared_table_ds(m=self.m, l=8, n=4, tf=1, seed=21)
        shapes = []

        def spy(a, *args, _real=np.linalg.qr, **kwargs):
            shapes.append(a.shape)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(lin.np.linalg, "qr", spy)
        fit_arimax(ds, 2, 0, 1)
        # the long autoregression: 3 positions x 4 blocks, 9 + 1 columns;
        # then the per-window regression: 4 blocks, 7 + 1 columns
        assert [cols for _, cols in shapes] == [10] * 12 + [8] * 4
        assert all(rows <= lin._QR_BLOCK + cols for rows, cols in shapes)

    def test_pure_ar_equals_whole_design_lstsq(self):
        ds = shared_table_ds(m=self.m, l=8, n=4, tf=1, seed=22)
        model = fit_arimax(ds, 2, 0, 0)
        coef = np.linalg.lstsq(self.newest_row_design(ds, 2), ds.targets, rcond=None)[0]
        got = np.r_[model.c, model.phi, model.beta]
        assert np.allclose(got, coef, rtol=0, atol=1e-10)

    def test_duplicated_column_gives_lstsq_minimum_norm(self):
        base = shared_table_ds(m=self.m, l=8, n=4, tf=1, seed=23)
        rows = base.rows.copy()
        rows[:, 3] = rows[:, 2]
        ds = replace(base, rows=rows)
        model = fit_arimax(ds, 0, 0, 0)
        design = self.newest_row_design(ds, 0)
        coef, _, rank, _ = np.linalg.lstsq(design, ds.targets, rcond=None)
        assert rank == 3
        got = np.r_[model.c, model.beta]
        assert np.allclose(got, coef, rtol=0, atol=1e-10)
        assert got[2] == pytest.approx(got[3], abs=1e-10)
