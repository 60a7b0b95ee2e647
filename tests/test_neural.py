import sys
import threading
import time

import numpy as np
import pytest

from trackcast.core import WindowedDataset
from trackcast.errors import InvalidArgumentError, NumericDivergenceError
from trackcast.neural import (
    AdamState,
    EarlyStopper,
    NetworkConfig,
    TrainTrace,
    adam_step,
    dataset_mse,
    forward,
    grad_check,
    init_params,
    loss_and_grads,
    predict_batch,
    regularized_tensor_names,
    train,
)
from trackcast import neural

ARCHS = ("lstm", "gru", "cnn")


def small_cfg(arch, **kw):
    base = dict(arch=arch, hidden_size=4, kernel_count=3, kernel_width=3,
                batch_size=8, max_epochs=3, seed=0)
    base.update(kw)
    return NetworkConfig(**base)


def make_ds(m=24, l=5, n=3, seed=4, target_scale=1.0):
    rng = np.random.default_rng(seed)
    return WindowedDataset(
        windows=rng.normal(size=(m, l, n)),
        targets=rng.normal(size=m) * target_scale,
        l=l, n=n, target_feature=0,
    )


class TestConfig:
    def test_unknown_arch(self):
        with pytest.raises(InvalidArgumentError):
            NetworkConfig(arch="transformer")

    @pytest.mark.parametrize("field,value", [
        ("hidden_size", 0), ("kernel_count", 0), ("kernel_width", 0),
        ("batch_size", 0), ("max_epochs", 0), ("patience", 0),
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("l2_lambda", -1e-6),
    ])
    def test_bad_numeric_fields(self, field, value):
        with pytest.raises(InvalidArgumentError):
            NetworkConfig(arch="lstm", **{field: value})


class TestInit:
    def test_lstm_shapes_and_biases(self):
        p = init_params(small_cfg("lstm"), n_features=3, window_len=5)
        h = 4
        for g in "ifog":
            assert p.tensors[f"W{g}"].shape == (h, 3)
            assert p.tensors[f"U{g}"].shape == (h, h)
        assert np.array_equal(p.tensors["bf"], np.ones(h))
        for g in "iog":
            assert np.array_equal(p.tensors[f"b{g}"], np.zeros(h))
        assert p.tensors["head_w"].shape == (h,)
        assert np.array_equal(p.tensors["head_b"], np.zeros(1))

    def test_gru_smaller_than_lstm(self):
        lstm = init_params(small_cfg("lstm"), 3, 5)
        gru = init_params(small_cfg("gru"), 3, 5)
        assert gru.parameter_count() < lstm.parameter_count()
        # 3 gates vs 4, same head
        assert lstm.parameter_count() - gru.parameter_count() == 4 * 3 + 4 * 4 + 4

    def test_cnn_shapes(self):
        p = init_params(small_cfg("cnn"), 3, 5)
        assert p.tensors["kernels"].shape == (3, 3, 3)
        assert np.array_equal(p.tensors["conv_b"], np.zeros(3))
        # one head weight per kernel per valid window position
        assert p.tensors["head_w"].shape == (3 * (5 - 3 + 1),)

    def test_weight_bounds_follow_fan_in(self):
        p = init_params(small_cfg("lstm"), 3, 5)
        fan = 3 + 4
        for g in "ifog":
            assert np.max(np.abs(p.tensors[f"W{g}"])) <= 1 / np.sqrt(fan)
            assert np.max(np.abs(p.tensors[f"U{g}"])) <= 1 / np.sqrt(fan)
        assert np.max(np.abs(p.tensors["head_w"])) <= 1 / np.sqrt(4)
        c = init_params(small_cfg("cnn"), 3, 5)
        assert np.max(np.abs(c.tensors["kernels"])) <= 1 / np.sqrt(3 * 3)
        assert np.max(np.abs(c.tensors["head_w"])) <= 1 / np.sqrt(9)

    def test_seed_pins_every_value(self):
        a = init_params(small_cfg("gru", seed=9), 3, 5)
        b = init_params(small_cfg("gru", seed=9), 3, 5)
        c = init_params(small_cfg("gru", seed=10), 3, 5)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])
        assert any(not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors)

    def test_tensors_are_read_only(self):
        p = init_params(small_cfg("lstm"), 3, 5)
        with pytest.raises(ValueError):
            p.tensors["Wi"][0, 0] = 1.0

    def test_kernel_width_must_fit(self):
        with pytest.raises(InvalidArgumentError):
            init_params(small_cfg("cnn", kernel_width=5), 3, 5)

    def test_regularized_names_exclude_head_and_biases(self):
        for arch in ARCHS:
            names = regularized_tensor_names(arch)
            assert "head_w" not in names
            assert "head_b" not in names
            assert not any(n.startswith("b") or n.endswith("_b") for n in names)


class TestForward:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_batch_matches_single(self, arch):
        ds = make_ds()
        p = init_params(small_cfg(arch), ds.n, ds.l)
        batch = predict_batch(p, ds.windows)
        singles = np.array([forward(p, w) for w in ds.windows])
        assert np.allclose(batch, singles, atol=1e-12)

    def test_empty_batch(self):
        p = init_params(small_cfg("gru"), 3, 5)
        out = predict_batch(p, np.empty((0, 5, 3)))
        assert out.shape == (0,)

    def test_shape_mismatch_rejected(self):
        p = init_params(small_cfg("lstm"), 3, 5)
        with pytest.raises(InvalidArgumentError):
            predict_batch(p, np.zeros((2, 5, 4)))
        with pytest.raises(InvalidArgumentError):
            predict_batch(p, np.zeros((2, 6, 3)))


class TestSigmoid:
    def test_matches_logistic_function(self):
        x = np.linspace(-40.0, 40.0, 160001)
        want = 1.0 / (1.0 + np.exp(-x))
        assert np.max(np.abs(neural._sigmoid(x) - want)) <= 1e-15

    def test_extremes_stay_finite_and_in_range(self):
        out = neural._sigmoid(np.array([-1e308, -710.0, 0.0, 710.0, 1e308]))
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_leaves_its_input_alone(self):
        a = np.array([[-1.0, 2.0], [3.0, -4.0]])
        before = a.copy()
        neural._sigmoid(a)
        assert np.array_equal(a, before)


class TestLoss:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_loss_equals_mse_plus_input_penalty(self, arch):
        ds = make_ds()
        lam = 0.01
        p = init_params(small_cfg(arch), ds.n, ds.l)
        loss, _ = loss_and_grads(p, ds.windows, ds.targets, lam)
        resid = predict_batch(p, ds.windows) - ds.targets
        penalty = lam * sum(float((p.tensors[k] ** 2).sum())
                            for k in regularized_tensor_names(arch))
        assert loss == pytest.approx(float(np.mean(resid**2)) + penalty, rel=1e-12)

    def test_penalty_gradient_spares_head(self):
        ds = make_ds()
        p = init_params(small_cfg("gru"), ds.n, ds.l)
        _, g0 = loss_and_grads(p, ds.windows, ds.targets, 0.0)
        _, g1 = loss_and_grads(p, ds.windows, ds.targets, 0.05)
        for name in regularized_tensor_names("gru"):
            assert np.allclose(g1[name] - g0[name], 0.1 * p.tensors[name], atol=1e-12)
        for name in ("head_w", "head_b", "bz", "br", "bh"):
            assert np.array_equal(g1[name], g0[name])

    def test_empty_batch_rejected(self):
        p = init_params(small_cfg("lstm"), 3, 5)
        with pytest.raises(InvalidArgumentError):
            loss_and_grads(p, np.empty((0, 5, 3)), np.empty(0), 0.0)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_gradients_match_finite_differences(self, arch):
        ds = make_ds(m=6)
        cfg = small_cfg(arch, l2_lambda=1e-3)
        worst = grad_check(cfg, ds.windows, ds.targets)
        assert worst < 1e-5


class TestAdam:
    def test_first_step_hand_formula(self):
        p = init_params(small_cfg("cnn"), 3, 5)
        grads = {k: np.ones_like(a) for k, a in p.tensors.items()}
        new_p, state = adam_step(p, grads, AdamState.initialize(p), lr=0.1)
        assert state.t == 1
        # bias correction makes the first update lr * g / (|g| + eps)
        expected_delta = 0.1 * 1.0 / (1.0 + 1e-8)
        for name, arr in p.tensors.items():
            assert np.allclose(arr - new_p.tensors[name], expected_delta, rtol=1e-9)

    def test_state_accumulates(self):
        p = init_params(small_cfg("cnn"), 3, 5)
        grads = {k: np.ones_like(a) for k, a in p.tensors.items()}
        s = AdamState.initialize(p)
        p1, s1 = adam_step(p, grads, s, lr=0.01)
        _, s2 = adam_step(p1, grads, s1, lr=0.01)
        assert s2.t == 2
        assert s2.m["kernels"][0, 0, 0] > s1.m["kernels"][0, 0, 0]

    def test_name_mismatch_rejected(self):
        p = init_params(small_cfg("cnn"), 3, 5)
        with pytest.raises(InvalidArgumentError):
            adam_step(p, {"kernels": np.zeros((3, 3, 3))}, AdamState.initialize(p), 0.1)

    def test_shape_mismatch_rejected(self):
        p = init_params(small_cfg("cnn"), 3, 5)
        grads = {k: np.ones_like(a) for k, a in p.tensors.items()}
        grads["conv_b"] = np.ones(99)
        with pytest.raises(InvalidArgumentError):
            adam_step(p, grads, AdamState.initialize(p), 0.1)


class TestEarlyStopper:
    def test_stops_after_streak(self):
        s = EarlyStopper(patience=3)
        outcomes = [s.update(v) for v in (0.5, 0.4, 0.41, 0.42, 0.43)]
        assert [o[1] for o in outcomes] == [False, False, False, False, True]
        assert s.best_epoch == 2
        assert s.best_value == 0.4

    def test_plateau_is_not_a_rise(self):
        s = EarlyStopper(patience=2)
        for v in (0.5, 0.5, 0.5, 0.5, 0.5):
            _, stop = s.update(v)
            assert not stop

    def test_improvement_resets_streak(self):
        s = EarlyStopper(patience=2)
        for v in (0.5, 0.6, 0.4, 0.45, 0.3):
            _, stop = s.update(v)
            assert not stop

    def test_improved_flag(self):
        s = EarlyStopper(patience=5)
        assert s.update(1.0)[0]
        assert not s.update(1.5)[0]
        assert s.update(0.9)[0]

    def test_patience_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            EarlyStopper(patience=0)


def parallel_blas_or_skip():
    blas = neural._openblas_threads()
    if blas is None or neural._usable_cores() < 2:
        pytest.skip("the parallel path needs numpy's OpenBLAS and two usable cores")
    return blas


class TestParallelPredict:
    """predict_batch's chunks run on a thread pool under one BLAS thread;
    the reference is the serial path taken when no OpenBLAS is found."""

    @pytest.mark.parametrize("m", [0, 1, 1023, 1024, 1025, 3 * 1024 + 5])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_bit_identical_to_forced_serial(self, arch, m, monkeypatch):
        ds = make_ds(m=m, seed=6)
        p = init_params(small_cfg(arch), ds.n, ds.l)
        parallel = predict_batch(p, ds.windows)
        monkeypatch.setattr(neural, "_openblas_threads", lambda: None)
        serial = predict_batch(p, ds.windows)
        assert parallel.shape == (m,)
        assert np.array_equal(parallel, serial)

    @pytest.mark.parametrize("fails", [False, True])
    def test_one_blas_thread_inside_and_restored_after(self, fails, monkeypatch):
        get_threads, set_threads = parallel_blas_or_skip()
        real = neural._FORWARD["gru"]
        seen, finished = [], []

        def forward(params, x, need_cache):
            seen.append((get_threads(), threading.current_thread() is threading.main_thread()))
            if fails and np.shares_memory(x, ds.windows[:1]):
                raise RuntimeError("forward failed")  # the first chunk, at once
            time.sleep(0.05)  # the other chunks are still running by then
            out = real(params, x, need_cache)
            finished.append(x.shape[0])
            return out

        monkeypatch.setitem(neural._FORWARD, "gru", forward)
        ds = make_ds(m=2 * neural._PREDICT_CHUNK + 1, seed=6)
        p = init_params(small_cfg("gru"), ds.n, ds.l)
        before = get_threads()
        set_threads(2)  # a restore to 1 would not show in a one-thread session
        try:
            if fails:
                with pytest.raises(RuntimeError, match="forward failed"):
                    predict_batch(p, ds.windows)
            else:
                predict_batch(p, ds.windows)
            after = get_threads()
            finished_on_return = sorted(finished)
        finally:
            set_threads(before)
        assert after == 2
        # every chunk ran on a pool thread under one BLAS thread, and
        # every chunk that did not fail had ended before the restore
        assert seen == [(1, False)] * 3
        c = neural._PREDICT_CHUNK
        assert finished_on_return == ([1, c] if fails else [1, c, c])

    def test_concurrent_callers_share_the_pool(self):
        get_threads, set_threads = parallel_blas_or_skip()
        ds = make_ds(m=2 * neural._PREDICT_CHUNK + 7, seed=8)
        p = init_params(small_cfg("lstm"), ds.n, ds.l)
        expected = predict_batch(p, ds.windows)
        results, errors = [], []

        def caller():
            try:
                for _ in range(10):
                    results.append(predict_batch(p, ds.windows))
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        before = get_threads()
        set_threads(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            alive = [t.is_alive() for t in callers]
            after = get_threads()
        finally:
            sys.setswitchinterval(interval)
            set_threads(before)
        assert not any(alive) and errors == []
        # interleaved save/set/restore pairs would leave one thread here
        assert after == 2
        assert len(results) == 40
        assert all(np.array_equal(r, expected) for r in results)


class TestDatasetMse:
    def test_empty_rejected(self):
        p = init_params(small_cfg("gru"), 3, 5)
        ds = WindowedDataset(windows=np.empty((0, 5, 3)), targets=np.empty(0),
                             l=5, n=3, target_feature=0)
        with pytest.raises(InvalidArgumentError):
            dataset_mse(p, ds)


class TestTrain:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_deterministic(self, arch):
        tr, va = make_ds(seed=4), make_ds(m=8, seed=5)
        cfg = small_cfg(arch, max_epochs=3)
        p1, t1 = train(cfg, tr, va)
        p2, t2 = train(cfg, tr, va)
        for k in p1.tensors:
            assert np.array_equal(p1.tensors[k], p2.tensors[k])
        assert t1 == t2

    def test_seed_changes_outcome(self):
        tr, va = make_ds(seed=4), make_ds(m=8, seed=5)
        p1, _ = train(small_cfg("gru", seed=1), tr, va)
        p2, _ = train(small_cfg("gru", seed=2), tr, va)
        assert any(not np.array_equal(p1.tensors[k], p2.tensors[k]) for k in p1.tensors)

    def test_trace_invariants(self):
        tr, va = make_ds(seed=4), make_ds(m=8, seed=5)
        params, trace = train(small_cfg("lstm", max_epochs=4), tr, va)
        assert len(trace.train_losses) == len(trace.val_losses) == trace.stopped_epoch
        assert 1 <= trace.best_epoch <= trace.stopped_epoch
        assert trace.restored == (trace.best_epoch < trace.stopped_epoch)
        assert dataset_mse(params, va) == trace.val_losses[trace.best_epoch - 1]

    def test_early_stop_restores_best_snapshot(self):
        # small train set with unrelated validation targets overfits fast
        rng = np.random.default_rng(4)
        tr = WindowedDataset(windows=rng.normal(size=(24, 5, 3)),
                             targets=rng.normal(size=24), l=5, n=3, target_feature=0)
        va = WindowedDataset(windows=rng.normal(size=(16, 5, 3)),
                             targets=rng.normal(size=16) * 5.0, l=5, n=3, target_feature=0)
        cfg = NetworkConfig(arch="gru", hidden_size=8, batch_size=8, max_epochs=60,
                            patience=2, learning_rate=3e-2, l2_lambda=0.0, seed=1)
        params, trace = train(cfg, tr, va)
        assert trace.stopped_epoch < cfg.max_epochs
        assert trace.restored
        assert trace.best_epoch < trace.stopped_epoch
        # returned weights reproduce the best epoch's validation loss exactly
        assert dataset_mse(params, va) == trace.val_losses[trace.best_epoch - 1]
        assert trace.val_losses[trace.best_epoch - 1] == min(trace.val_losses)

    @pytest.mark.parametrize("arch,kw", [
        ("lstm", {}), ("gru", {}), ("cnn", {"kernel_count": 8}),
    ])
    def test_penalty_overflow_diverges_with_partial_trace(self, arch, kw):
        tr, va = make_ds(seed=4), make_ds(m=8, seed=5)
        cfg = small_cfg(arch, l2_lambda=1e308, **kw)
        with np.errstate(all="ignore"), pytest.raises(NumericDivergenceError) as exc:
            train(cfg, tr, va)
        trace = exc.value.trace
        assert isinstance(trace, TrainTrace)
        assert trace.stopped_epoch == len(trace.val_losses)
        assert not trace.restored

    def test_huge_targets_diverge(self):
        tr = make_ds(seed=4, target_scale=1e160)
        va = make_ds(m=8, seed=5)
        with np.errstate(all="ignore"), pytest.raises(NumericDivergenceError) as exc:
            train(small_cfg("gru"), tr, va)
        assert exc.value.trace.stopped_epoch == 0

    def test_empty_sets_rejected(self):
        empty = WindowedDataset(windows=np.empty((0, 5, 3)), targets=np.empty(0),
                                l=5, n=3, target_feature=0)
        ds = make_ds()
        with pytest.raises(InvalidArgumentError):
            train(small_cfg("gru"), empty, ds)
        with pytest.raises(InvalidArgumentError):
            train(small_cfg("gru"), ds, empty)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            train(small_cfg("gru"), make_ds(l=5), make_ds(l=6))
