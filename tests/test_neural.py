import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import per_tensor_reference as ref

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
from trackcast import pool

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
        assert gru.vector.size < lstm.vector.size
        # 3 gates vs 4, same head
        assert lstm.vector.size - gru.vector.size == 4 * 3 + 4 * 4 + 4

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
        for l, n in ((5, 4), (6, 3)):
            with pytest.raises(InvalidArgumentError):
                predict_batch(p, make_ds(m=2, l=l, n=n))


class TestInferenceMemory:
    @pytest.mark.parametrize("arch", ["lstm", "gru"])
    def test_chunks_free_their_work_buffers(self, arch):
        """A chunk's work buffer is freed when its forward ends, so peak
        memory does not grow with the number of chunks."""
        p = init_params(small_cfg(arch, hidden_size=32), 3, 8)
        x = np.random.default_rng(0).normal(size=(8 * neural._PREDICT_CHUNK, 8, 3))
        slots = 7 if arch == "lstm" else 5
        chunk_buffer = 2 * slots * neural._PREDICT_CHUNK * 32 * 8  # bytes
        tracemalloc.start()
        try:
            predict_batch(p, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk_buffer

    @pytest.mark.parametrize("arch", ["lstm", "gru"])
    def test_dataset_evaluation_gathers_a_chunk_at_a_time(self, arch):
        """``dataset_mse`` gathers each chunk's windows inside the call
        that predicts it, so its peak holds about one chunk, not the whole
        dataset's eight."""
        l, n, m = 8, 16, 8 * neural._PREDICT_CHUNK
        rng = np.random.default_rng(0)
        ds = WindowedDataset(rows=rng.normal(size=(m + l, n)), starts=np.arange(m),
                             targets=rng.normal(size=m), l=l, n=n)
        # a one-unit net keeps the work buffers small next to a chunk
        p = init_params(small_cfg(arch, hidden_size=1), n, l)
        chunk_bytes = neural._PREDICT_CHUNK * l * n * 8
        tracemalloc.start()
        try:
            dataset_mse(p, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk_bytes


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
        g0 = p.views(loss_and_grads(p, ds.windows, ds.targets, 0.0)[1])
        g1 = p.views(loss_and_grads(p, ds.windows, ds.targets, 0.05)[1])
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


def writable(p):
    """The parameters over a private writable copy of their vector, as
    train keeps them."""
    return replace(p, vector=p.vector.copy())


class TestAdam:
    def test_first_step_hand_formula(self):
        p = init_params(small_cfg("cnn"), 3, 5)
        live = writable(p)
        state = AdamState.initialize(live)
        adam_step(live, np.ones_like(live.vector), state, lr=0.1)
        assert state.t == 1
        # bias correction makes the first update lr * g / (|g| + eps)
        expected_delta = 0.1 * 1.0 / (1.0 + 1e-8)
        for name, arr in p.tensors.items():
            assert np.allclose(arr - live.tensors[name], expected_delta, rtol=1e-9)

    def test_state_accumulates(self):
        live = writable(init_params(small_cfg("cnn"), 3, 5))
        grads = np.ones_like(live.vector)
        s = AdamState.initialize(live)
        adam_step(live, grads, s, lr=0.01)
        m1 = live.views(s.m)["kernels"][0, 0, 0]
        adam_step(live, grads, s, lr=0.01)
        assert s.t == 2
        assert live.views(s.m)["kernels"][0, 0, 0] > m1

    def test_name_mismatch_rejected(self):
        live = writable(init_params(small_cfg("cnn"), 3, 5))
        with pytest.raises(InvalidArgumentError):
            adam_step(live, {"kernels": np.zeros((3, 3, 3))}, AdamState.initialize(live), 0.1)

    def test_shape_mismatch_rejected(self):
        live = writable(init_params(small_cfg("cnn"), 3, 5))
        for grads in (np.ones(99), np.ones((1, live.vector.size))):
            with pytest.raises(InvalidArgumentError):
                adam_step(live, grads, AdamState.initialize(live), 0.1)

    def test_read_only_params_rejected_untouched(self):
        p = init_params(small_cfg("cnn"), 3, 5)
        state = AdamState.initialize(p)
        with pytest.raises(InvalidArgumentError):
            adam_step(p, np.ones_like(p.vector), state, 0.1)
        assert state.t == 0 and not state.m.any()


class TestFlatVector:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_tensors_are_views_with_regularized_prefix(self, arch):
        p = init_params(small_cfg(arch), 3, 5)
        assert p.vector.size == sum(a.size for a in p.tensors.values())
        assert all(np.shares_memory(a, p.vector) for a in p.tensors.values())
        reg = regularized_tensor_names(arch)
        assert p.prefix == sum(p.tensors[k].size for k in reg)
        assert np.array_equal(p.vector[: p.prefix],
                              np.concatenate([p.tensors[k].ravel() for k in reg]))
        assert not p.vector.flags.writeable

    @settings(max_examples=25, deadline=None)
    @given(
        arch=st.sampled_from(ARCHS),
        n=st.integers(1, 4),
        l=st.integers(3, 6),
        size=st.integers(1, 5),
        batch=st.integers(2, 9),
        lam=st.sampled_from([0.0, 1e-3, 0.5]),
        steps=st.integers(3, 6),  # step 3 is the one-window batch
        seed=st.integers(0, 2**16),
    )
    def test_steps_bit_identical_to_per_tensor_reference(self, arch, n, l, size, batch,
                                                          lam, steps, seed):
        cfg = small_cfg(arch, hidden_size=size, kernel_count=size,
                        kernel_width=min(size, l - 1), seed=seed)
        rng = np.random.default_rng(seed)
        m = batch * 2 + 1  # the last batch of each pass holds one window
        windows, targets = rng.normal(size=(m, l, n)), rng.normal(size=m)
        live = writable(init_params(cfg, n, l))
        grads, state = np.empty_like(live.vector), AdamState.initialize(live)
        tensors = {k: a.copy() for k, a in live.tensors.items()}
        moments = [{k: np.zeros_like(a) for k, a in tensors.items()} for _ in "mv"]
        passes = [rng.permutation(m) for _ in range(2)]  # minibatches as train draws them
        batches = [perm[a : a + batch] for perm in passes for a in range(0, m, batch)]
        for t, idx in enumerate(batches[:steps], 1):
            x, y = windows[idx], targets[idx]
            loss, _ = loss_and_grads(live, x, y, lam, out=grads)
            adam_step(live, grads, state, 1e-2)
            want_loss, want = ref.loss_and_grads(arch, tensors, x, y, lam)
            tensors, *moments = ref.adam_step(tensors, want, *moments, t, 1e-2)
            assert loss == pytest.approx(want_loss, rel=1e-12)
        for name, arr in tensors.items():
            assert live.tensors[name].tobytes() == arr.tobytes(), name
            assert live.views(state.m)[name].tobytes() == moments[0][name].tobytes(), name


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


def two_processes(monkeypatch):
    """Two usable cores, so a forked map of two items or more runs on
    this process and one forked worker; skipped where numpy's OpenBLAS
    is not found, since the map then always runs the plain loop."""
    blas = pool._openblas_threads()
    if blas is None:
        pytest.skip("the forked map needs numpy's OpenBLAS found")
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    return blas


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelPredict:
    """predict_batch runs its chunks one after another in the calling
    process, on any number of cores.  Predictions use a second core only
    as the items of the forked map (ensemble's ``member_predictions``),
    each process under one BLAS thread."""

    @pytest.mark.parametrize("m", [0, 1, 1023, 1024, 1025, 2 * 1024, 3 * 1024 + 5])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_bit_identical_to_forced_serial(self, arch, m, monkeypatch):
        """Each dataset's windows array, predicted with two usable cores,
        is the reference: the dataset itself, which gathers chunk by
        chunk, and both with one usable core give the same bytes."""
        ds = make_ds(m=m, seed=6)
        rng = np.random.default_rng(m)
        # a bootstrap sample repeats starts; a permuted subset unsorts them
        inputs = (ds, ds.subset(rng.integers(0, max(m, 1), size=m)),
                  ds.subset(rng.permutation(m)))
        p = init_params(small_cfg(arch), ds.n, ds.l)

        def predictions():
            return [(predict_batch(p, d.windows), predict_batch(p, d)) for d in inputs]

        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        parallel = predictions()
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        serial = predictions()
        for (want, from_ds), (serial_array, serial_ds) in zip(parallel, serial):
            assert want.shape == (m,)
            for got in (from_ds, serial_array, serial_ds):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize("fails", [False, True])
    def test_one_blas_thread_inside_and_restored_after(self, fails, monkeypatch):
        """Predictions made as the items of a forked map run under one
        BLAS thread, here and in the worker, and the count is restored
        after, also where the first item fails, which raises the plain
        loop's error."""
        get_threads, set_threads = two_processes(monkeypatch)

        def forward(params, x, need_cache):
            if fails and np.array_equal(x, windows[:5]):
                raise RuntimeError("forward failed")  # item 0, in this process
            # each prediction says which process made it, under how many threads
            return np.full(x.shape[0], os.getpid() * 100.0 + get_threads()), None

        monkeypatch.setitem(neural._FORWARD, "gru", forward)
        ds = make_ds(m=15, seed=6)
        windows = ds.windows
        p = init_params(small_cfg("gru"), ds.n, ds.l)
        run = lambda i: predict_batch(p, windows[5 * i : 5 * i + 5])
        before = get_threads()
        set_threads(2)  # a restore to 1 would not show in a one-thread session
        try:
            if fails:
                raised = []
                for k in (2, 1):
                    with pytest.raises(RuntimeError) as info:
                        pool.forked_map(run, 3, k)
                    raised.append(str(info.value))
                assert raised == ["forward failed"] * 2
            else:
                got = pool.forked_map(run, 3, pool._pool_size(3))
            after = get_threads()
        finally:
            set_threads(before)
        assert after == 2
        assert_no_child_left()
        if not fails:
            pids, threads = np.divmod(np.stack(got), 100.0)
            assert set(threads.ravel()) == {1.0}
            # items 0 and 2 ran here, item 1 in the worker
            assert set(pids[0]) == set(pids[2]) == {os.getpid()}
            assert len(set(pids[1])) == 1 and pids[1][0] != os.getpid()

    def test_concurrent_callers_run_the_plain_loop(self, monkeypatch, forks):
        """Callers on four threads, with two usable cores, never fork and
        get the plain loop's bytes: predict_batch keeps no state between
        calls."""
        ds = make_ds(m=2 * neural._PREDICT_CHUNK + 7, seed=8)
        p = init_params(small_cfg("lstm"), ds.n, ds.l)
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        expected = predict_batch(p, ds.windows)
        two_processes(monkeypatch)
        results, errors = [], []

        def caller():
            try:
                for _ in range(10):
                    results.append(predict_batch(p, ds.windows))
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            alive = [t.is_alive() for t in callers]
        finally:
            sys.setswitchinterval(interval)
        assert not any(alive) and errors == []
        assert forks == []
        assert len(results) == 40
        assert all(r.tobytes() == expected.tobytes() for r in results)


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

    def test_returns_a_read_only_copy_of_the_best_epoch(self, monkeypatch):
        rng = np.random.default_rng(4)
        tr = WindowedDataset(windows=rng.normal(size=(24, 5, 3)),
                             targets=rng.normal(size=24), l=5, n=3, target_feature=0)
        va = WindowedDataset(windows=rng.normal(size=(16, 5, 3)),
                             targets=rng.normal(size=16) * 5.0, l=5, n=3, target_feature=0)
        cfg = NetworkConfig(arch="lstm", hidden_size=8, batch_size=8, max_epochs=60,
                            patience=2, learning_rate=3e-2, l2_lambda=0.0, seed=1)
        real, live, epochs = neural.dataset_mse, [], []

        def spy(params, ds):  # the end-of-epoch weights, read on the train set
            if ds is tr:
                live.append(params.vector)
                epochs.append(params.vector.copy())
            return real(params, ds)

        monkeypatch.setattr(neural, "dataset_mse", spy)
        params, trace = train(cfg, tr, va)
        assert trace.restored and trace.best_epoch < trace.stopped_epoch
        assert params.vector.tobytes() == epochs[trace.best_epoch - 1].tobytes()
        assert params.vector.tobytes() != epochs[-1].tobytes()
        assert not params.vector.flags.writeable
        with pytest.raises(ValueError):
            params.tensors["Wi"][0, 0] = 1.0
        assert all(v is live[0] for v in live)  # one live vector all along
        assert live[0].flags.writeable
        assert not np.shares_memory(params.vector, live[0])

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

    @pytest.mark.parametrize("arch", ARCHS)
    def test_one_step_overflow_diverges_at_the_epoch_loss(self, arch):
        """One minibatch per epoch: the one Adam step at a 1e300 rate
        overflows the weights before any epoch is evaluated, so the
        epoch loss is what fails, with an empty trace and no warning."""
        tr, va = make_ds(seed=4), make_ds(m=8, seed=5)
        cfg = small_cfg(arch, batch_size=tr.m, learning_rate=1e300)
        with warnings.catch_warnings(), pytest.raises(NumericDivergenceError) as exc:
            warnings.simplefilter("error")
            train(cfg, tr, va)
        assert str(exc.value) == "non-finite epoch loss"
        assert exc.value.trace == TrainTrace(train_losses=(), val_losses=(), stopped_epoch=0,
                                             best_epoch=0, restored=False)

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
