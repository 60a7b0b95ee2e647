import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from trackcast.core import WindowedDataset
from trackcast.errors import InvalidArgumentError, NumericDivergenceError
from trackcast import ensemble as ens
from trackcast import neural
from trackcast.ensemble import (
    Combiner,
    EnsembleModel,
    bootstrap_sample,
    ensemble_predict_batch,
    fit_stacker,
    member_predictions,
    train_bagging,
    train_boosting,
)
from trackcast.neural import NetworkConfig, TrainTrace, init_params, predict_batch, train
from trackcast.rng import derive_seed


def make_ds(m=24, l=5, n=3, seed=4):
    rng = np.random.default_rng(seed)
    return WindowedDataset(
        windows=rng.normal(size=(m, l, n)),
        targets=rng.normal(size=m),
        l=l, n=n, target_feature=0,
    )


def fast_cfg(**kw):
    base = dict(arch="cnn", kernel_count=2, kernel_width=3, hidden_size=4,
                batch_size=8, max_epochs=2, seed=3)
    base.update(kw)
    return NetworkConfig(**base)


def some_params(seed=0, n=3, l=5):
    return init_params(fast_cfg(seed=seed), n, l)


class TestBootstrap:
    def test_deterministic(self):
        ds = make_ds()
        a = bootstrap_sample(ds, ds.m, seed=5)
        b = bootstrap_sample(ds, ds.m, seed=5)
        c = bootstrap_sample(ds, ds.m, seed=6)
        assert np.array_equal(a.windows, b.windows)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.targets, c.targets)

    def test_size_and_membership(self):
        ds = make_ds(m=10)
        out = bootstrap_sample(ds, 7, seed=1)
        assert out.m == 7
        # every resampled target exists in the source set
        assert all(t in set(ds.targets.tolist()) for t in out.targets.tolist())

    def test_empty_source_rejected(self):
        empty = WindowedDataset(windows=np.empty((0, 5, 3)), targets=np.empty(0),
                                l=5, n=3, target_feature=0)
        with pytest.raises(InvalidArgumentError):
            bootstrap_sample(empty, 5, seed=0)

    def test_zero_draws_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bootstrap_sample(make_ds(), 0, seed=0)


class TestModelValidation:
    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            EnsembleModel(members=(some_params(),), combiner=Combiner(kind="mean"),
                          method="voting")

    def test_needs_members(self):
        with pytest.raises(InvalidArgumentError):
            EnsembleModel(members=(), combiner=Combiner(kind="mean"), method="bagging")

    def test_stacker_weight_count_must_match(self):
        with pytest.raises(InvalidArgumentError):
            EnsembleModel(
                members=(some_params(),),
                combiner=Combiner(kind="stacker", weights=(0.5, 0.5)),
                method="bagging",
            )

    def test_combiner_kind_checked(self):
        with pytest.raises(InvalidArgumentError):
            Combiner(kind="median")

    def test_stacker_combiner_needs_weights(self):
        with pytest.raises(InvalidArgumentError):
            Combiner(kind="stacker")


class TestBagging:
    def test_deterministic_and_members_differ(self):
        tr, va = make_ds(), make_ds(m=8, seed=9)
        m1 = train_bagging(fast_cfg(), 3, tr, va)
        m2 = train_bagging(fast_cfg(), 3, tr, va)
        assert len(m1.members) == 3
        assert len(m1.member_traces) == 3
        assert m1.method == "bagging"
        assert m1.combiner.kind == "mean"
        assert m1.retried_members == ()
        for a, b in zip(m1.members, m2.members):
            for k in a.tensors:
                assert np.array_equal(a.tensors[k], b.tensors[k])
        assert m1.member_traces == m2.member_traces
        # differently seeded members cannot coincide
        t0, t1 = m1.members[0].tensors, m1.members[1].tensors
        assert any(not np.array_equal(t0[k], t1[k]) for k in t0)

    def test_member_count_validated(self):
        with pytest.raises(InvalidArgumentError):
            train_bagging(fast_cfg(), 0, make_ds(), make_ds(m=8, seed=9))

    def test_mean_beats_average_member(self):
        # pointwise squared error of the mean never exceeds the mean of
        # the members' squared errors
        tr, va = make_ds(m=40), make_ds(m=16, seed=9)
        model = train_bagging(fast_cfg(max_epochs=3), 4, tr, va)
        preds = ensemble_predict_batch(model, va.windows)
        ens_mse = float(np.mean((preds - va.targets) ** 2))
        member_mse = [
            float(np.mean((predict_batch(p, va.windows) - va.targets) ** 2))
            for p in model.members
        ]
        assert ens_mse <= np.mean(member_mse) + 1e-12

    def test_bootstrap_seed_derivation(self, two_cores):
        """Member i is ``train`` on the resample seeded by its own derived
        seed, also where a forked worker trained it."""
        tr, va = make_ds(), make_ds(m=8, seed=9)
        cfg = fast_cfg()
        model = train_bagging(cfg, 3, tr, va)
        for i, (member, member_trace) in enumerate(zip(model.members, model.member_traces)):
            seed = derive_seed(cfg.seed, i, 0)
            sample = bootstrap_sample(tr, tr.m, derive_seed(seed, 0))
            params, trace = train(replace(cfg, seed=seed), sample, va)
            assert np.array_equal(member.vector, params.vector)
            assert member_trace == trace

    def test_divergent_member_retries_once(self, monkeypatch, two_cores):
        """Member 1 is retried, also where it trains in the forked worker."""
        tr, va = make_ds(), make_ds(m=8, seed=9)
        cfg = fast_cfg()
        poison = derive_seed(cfg.seed, 1, 0)
        real = ens._train_member

        def flaky(c, seed, train_ds, val_ds):
            if seed == poison:
                raise NumericDivergenceError("boom")
            return real(c, seed, train_ds, val_ds)

        monkeypatch.setattr(ens, "_train_member", flaky)
        model = train_bagging(cfg, 3, tr, va)
        assert model.retried_members == (1,)
        assert len(model.members) == 3
        assert_no_child_left()

    def test_second_divergence_aborts(self, monkeypatch):
        """A worker's second divergence reaches the caller as the serial
        loop raises it: same type, message and partial trace."""
        tr, va = make_ds(), make_ds(m=8, seed=9)
        cfg = fast_cfg()
        poison = {derive_seed(cfg.seed, 1, 0), derive_seed(cfg.seed, 1, 1)}
        real = ens._train_member
        partial = TrainTrace((1.0,), (2.0,), 1, 1, False)

        def broken(c, seed, train_ds, val_ds):
            if seed in poison:
                raise NumericDivergenceError(f"boom {seed}", trace=partial)
            return real(c, seed, train_ds, val_ds)

        monkeypatch.setattr(ens, "_train_member", broken)
        raised = []
        for cores in (2, 1):
            monkeypatch.setattr(neural, "_usable_cores", lambda: cores)
            with pytest.raises(NumericDivergenceError) as info:
                train_bagging(cfg, 3, tr, va)
            raised.append((str(info.value), info.value.trace))
            assert_no_child_left()
        assert raised[0] == raised[1]
        assert raised[0] == (f"boom {derive_seed(cfg.seed, 1, 1)}", partial)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores: bagging forks one worker beside this process
    where numpy's OpenBLAS is found, and runs the plain loop where not."""
    monkeypatch.setattr(neural, "_usable_cores", lambda: 2)
    if neural._openblas_threads() is not None:
        assert ens._pool_size(3) == 2


@pytest.fixture
def pool_of_two(two_cores):
    """Two usable cores, so bagging forks one worker beside this process."""
    if neural._openblas_threads() is None:
        pytest.skip("the member pool needs numpy's OpenBLAS found")


class TestMemberPool:
    def test_pool_gives_the_serial_bytes(self, monkeypatch, pool_of_two):
        """Three members put two on this process and one on the worker;
        the model equals the one trained one member after another."""
        tr, va = make_ds(), make_ds(m=8, seed=9)
        cfg = fast_cfg()
        pooled = train_bagging(cfg, 3, tr, va)
        monkeypatch.setattr(neural, "_usable_cores", lambda: 1)
        assert ens._pool_size(3) == 1
        serial = train_bagging(cfg, 3, tr, va)
        for a, b in zip(pooled.members, serial.members, strict=True):
            assert a.vector.tobytes() == b.vector.tobytes()
            assert not a.vector.flags.writeable and not b.vector.flags.writeable
            assert all(not t.flags.writeable for t in a.tensors.values())
        assert pooled.member_traces == serial.member_traces
        assert pooled.retried_members == serial.retried_members == ()
        assert_no_child_left()

    def test_worker_holds_one_blas_thread_and_predicts_serially(
            self, monkeypatch, pool_of_two):
        """The forked worker's state at its member reaches the caller:
        OpenBLAS at one thread, though this process ran two when the pool
        started, and a two-chunk prediction that never took the thread
        pool."""
        get_threads, set_threads = neural._openblas_threads()
        tr, va = make_ds(), make_ds(m=8, seed=9)
        big = make_ds(m=neural._PREDICT_CHUNK + 1)
        parent = os.getpid()
        real = ens._train_member

        def no_pool(run, chunk_starts):
            raise AssertionError("parallel prediction inside the member pool")

        def probe(c, seed, train_ds, val_ds):
            params, trace = real(c, seed, train_ds, val_ds)
            if os.getpid() != parent:
                neural.predict_batch(params, big)
                raise RuntimeError(os.getpid(), get_threads())
            return params, trace

        monkeypatch.setattr(ens, "_train_member", probe)
        monkeypatch.setattr(neural, "_parallel_forward", no_pool)
        before = get_threads()
        set_threads(2)
        try:
            with pytest.raises(RuntimeError) as info:
                train_bagging(fast_cfg(), 2, tr, va)
            assert get_threads() == 2
        finally:
            set_threads(before)
        worker, threads = info.value.args
        assert worker != parent and threads == 1
        assert not neural._serial_predict
        assert_no_child_left()

    @pytest.mark.parametrize("stop", [NumericDivergenceError, KeyboardInterrupt])
    def test_worker_reaped_when_this_process_share_raises(self, monkeypatch, pool_of_two,
                                                          stop):
        """Member 0 fails (or is interrupted) here while the worker still
        trains member 1: the error propagates and the worker is gone."""
        tr, va = make_ds(), make_ds(m=8, seed=9)
        parent = os.getpid()
        real = ens._train_member

        def failing(c, seed, train_ds, val_ds):
            if os.getpid() == parent:
                raise stop("stop")
            return real(c, seed, train_ds, val_ds)

        monkeypatch.setattr(ens, "_train_member", failing)
        with pytest.raises(stop):
            train_bagging(fast_cfg(), 2, tr, va)
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [(), (1,), (3,), (4,), (1, 2), (2, 3), (0, 1)])
    def test_uneven_shares_give_the_plain_loop_outcome(self, failing):
        """Five items on two processes, three here and two in the worker:
        the results, or the lowest failing item's error, are the plain
        loop's."""
        def fn(i):
            if i in failing:
                raise ValueError(i)
            return i * i

        outcomes = []
        for k in (2, 1):
            try:
                outcomes.append(ens._forked_map(fn, 5, k))
            except ValueError as exc:
                outcomes.append(exc.args)
            assert_no_child_left()
        assert outcomes[0] == outcomes[1]

    def test_this_process_finishes_its_share_before_it_waits(self, tmp_path):
        """The worker's item 1 waits until this process has done item 2,
        which times out where this process waits for item 1 first."""
        done_2 = tmp_path / "done_2"

        def fn(i):
            if i == 2:
                done_2.touch()
            deadline = time.monotonic() + 30
            while i == 1 and not done_2.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError("item 1 waited for item 2")
                time.sleep(0.01)
            return i

        assert ens._forked_map(fn, 4, 2) == [0, 1, 2, 3]
        assert_no_child_left()

    def test_no_fork_beside_another_thread(self, pool_of_two):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert ens._pool_size(3) == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_worker_that_dies_is_reported(self, monkeypatch, pool_of_two):
        tr, va = make_ds(), make_ds(m=8, seed=9)
        parent = os.getpid()
        real = ens._train_member

        def dying(c, seed, train_ds, val_ds):
            if os.getpid() != parent:
                os._exit(3)
            return real(c, seed, train_ds, val_ds)

        monkeypatch.setattr(ens, "_train_member", dying)
        with pytest.raises(RuntimeError, match="without sending"):
            train_bagging(fast_cfg(), 2, tr, va)
        assert_no_child_left()


class TestBoosting:
    def test_selection_rule_matches_residuals(self):
        tr, va = make_ds(m=40), make_ds(m=8, seed=9)
        thr = 0.5
        model = train_boosting(fast_cfg(batch_size=4), 3, thr, tr, va)
        assert model.method == "boosting"
        assert model.boost_threshold == thr
        trace = model.boost_trace
        # re-derive each round's survivor set from the stored member
        for r, selected in enumerate(trace.selected_indices):
            resid = np.abs(tr.targets - predict_batch(model.members[r], tr.windows))
            expected = tuple(int(i) for i in np.flatnonzero(resid > thr))
            assert selected == expected
        # no selection is computed for the final member
        assert len(trace.selected_indices) <= len(model.members)

    def test_huge_threshold_stops_after_first_learner(self):
        tr, va = make_ds(), make_ds(m=8, seed=9)
        model = train_boosting(fast_cfg(), 3, 1e9, tr, va)
        assert len(model.members) == 1
        assert model.boost_trace.stopped_early
        assert model.boost_trace.selected_indices == ((),)

    def test_single_member_records_no_selection(self):
        tr, va = make_ds(), make_ds(m=8, seed=9)
        model = train_boosting(fast_cfg(), 1, 0.5, tr, va)
        assert len(model.members) == 1
        assert model.boost_trace.selected_indices == ()
        assert not model.boost_trace.stopped_early

    def test_stops_when_next_set_is_smaller_than_a_batch(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(24, 5, 3))
        t = np.zeros(24)
        t[20:] = 100.0  # four far outliers survive any sane threshold
        tr = WindowedDataset(windows=w, targets=t, l=5, n=3, target_feature=0)
        va = make_ds(m=8, seed=9)
        model = train_boosting(fast_cfg(batch_size=8), 3, 50.0, tr, va)
        assert len(model.members) == 1
        assert model.boost_trace.stopped_early
        assert model.boost_trace.selected_indices == ((20, 21, 22, 23),)

    def test_current_scope_selections_nest(self):
        tr, va = make_ds(m=60, seed=12), make_ds(m=8, seed=9)
        model = train_boosting(fast_cfg(batch_size=2), 4, 0.3, tr, va,
                               residual_scope="current")
        sel = model.boost_trace.selected_indices
        for earlier, later in zip(sel, sel[1:]):
            assert set(later) <= set(earlier)

    def test_scope_and_threshold_validated(self):
        tr, va = make_ds(), make_ds(m=8, seed=9)
        with pytest.raises(InvalidArgumentError):
            train_boosting(fast_cfg(), 0, 0.5, tr, va)

    def test_round_seeds_are_derived(self, monkeypatch):
        captured = []
        real = ens._train_member

        def spy(cfg, seed, train_ds, val_ds):
            captured.append(seed)
            return real(cfg, seed, train_ds, val_ds)

        monkeypatch.setattr(ens, "_train_member", spy)
        cfg = fast_cfg(batch_size=4)
        train_boosting(cfg, 2, 0.5, make_ds(m=40), make_ds(m=8, seed=9))
        assert captured[0] == derive_seed(cfg.seed, 0)
        if len(captured) > 1:
            assert captured[1] == derive_seed(cfg.seed, 1)


class TestStacker:
    def test_perfect_member_gets_unit_weight(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=50)
        comb = fit_stacker(y[:, None], y)
        assert comb.kind == "stacker"
        assert comb.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert comb.bias == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_errors_split_evenly(self):
        # members bracket the truth at +1/-1; the minimum-norm combiner
        # averages them and needs no bias
        rng = np.random.default_rng(3)
        y = rng.normal(size=50)
        preds = np.stack([y + 1.0, y - 1.0], axis=1)
        comb = fit_stacker(preds, y)
        assert comb.kind == "stacker"
        assert comb.weights[0] == pytest.approx(0.5, abs=1e-8)
        assert comb.weights[1] == pytest.approx(0.5, abs=1e-8)
        assert comb.bias == pytest.approx(0.0, abs=1e-8)

    def test_identical_members_fall_back_to_mean(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=50)
        p = rng.normal(size=50)
        comb = fit_stacker(np.stack([p, p], axis=1), y)
        assert comb.kind == "mean"
        assert comb.fallback_reason is not None

    def test_fit_stacker_duplicate_member(self):
        va = make_ds(m=16, seed=9)
        p = some_params()
        comb = fit_stacker(member_predictions((p, p), va.windows), va.targets)
        assert comb.kind == "mean"
        assert comb.fallback_reason is not None

    def test_fit_stacker_validation(self):
        empty = WindowedDataset(windows=np.empty((0, 5, 3)), targets=np.empty(0),
                                l=5, n=3, target_feature=0)
        va = make_ds()
        with pytest.raises(InvalidArgumentError):
            fit_stacker(np.empty((va.m, 0)), va.targets)
        with pytest.raises(InvalidArgumentError):
            fit_stacker(member_predictions((some_params(),), empty.windows),
                        empty.targets)

    def test_stacked_model_preserves_everything_else(self):
        tr, va = make_ds(m=40), make_ds(m=16, seed=9)
        base = train_bagging(fast_cfg(), 2, tr, va)
        cols = member_predictions(base.members, va.windows)
        stacked = replace(base, combiner=fit_stacker(cols, va.targets))
        assert stacked.members is base.members or stacked.members == base.members
        assert stacked.member_traces == base.member_traces
        assert stacked.method == base.method
        assert stacked.combiner.kind in ("stacker", "mean")
        if stacked.combiner.kind == "stacker":
            assert len(stacked.combiner.weights) == 2

    def test_stacker_validation_mse_not_worse_than_mean(self):
        tr, va = make_ds(m=40), make_ds(m=16, seed=9)
        base = train_bagging(fast_cfg(max_epochs=3), 3, tr, va)
        cols = member_predictions(base.members, va.windows)
        stacked = replace(base, combiner=fit_stacker(cols, va.targets))
        if stacked.combiner.kind == "stacker":
            mean_mse = float(np.mean(
                (ensemble_predict_batch(base, va.windows) - va.targets) ** 2))
            stack_mse = float(np.mean(
                (ensemble_predict_batch(stacked, va.windows) - va.targets) ** 2))
            # least squares on the same data cannot lose to a fixed combiner
            assert stack_mse <= mean_mse + 1e-9


class TestPredict:
    def test_mean_combiner_formula(self):
        members = (some_params(0), some_params(1), some_params(2))
        model = EnsembleModel(members=members, combiner=Combiner(kind="mean"),
                              method="bagging")
        ds = make_ds(m=6)
        out = ensemble_predict_batch(model, ds.windows)
        cols = member_predictions(members, ds.windows)
        assert np.allclose(out, cols.mean(axis=1), atol=1e-15)

    def test_stacker_combiner_formula(self):
        members = (some_params(0), some_params(1))
        comb = Combiner(kind="stacker", weights=(0.25, 0.7), bias=-0.1)
        model = EnsembleModel(members=members, combiner=comb, method="bagging")
        ds = make_ds(m=6)
        out = ensemble_predict_batch(model, ds.windows)
        cols = member_predictions(members, ds.windows)
        assert np.allclose(out, cols @ np.array([0.25, 0.7]) - 0.1, atol=1e-15)

    @pytest.mark.parametrize("combiner", [
        Combiner(kind="mean"),
        Combiner(kind="stacker", weights=(0.25, 0.7), bias=-0.1),
    ])
    def test_precomputed_member_columns(self, combiner):
        members = (some_params(0), some_params(1))
        model = EnsembleModel(members=members, combiner=combiner, method="bagging")
        ds = make_ds(m=6)
        cols = member_predictions(members, ds.windows)
        assert np.array_equal(ensemble_predict_batch(model, ds.windows, cols),
                              ensemble_predict_batch(model, ds.windows))

    def test_single_window_matches_batch(self):
        members = (some_params(0), some_params(1))
        model = EnsembleModel(members=members, combiner=Combiner(kind="mean"),
                              method="bagging")
        ds = make_ds(m=4)
        batch = ensemble_predict_batch(model, ds.windows)
        assert ensemble_predict_batch(model, ds.windows[2:3])[0] == pytest.approx(batch[2])

    def test_window_rank_checked(self):
        model = EnsembleModel(members=(some_params(),), combiner=Combiner(kind="mean"),
                              method="bagging")
        with pytest.raises(InvalidArgumentError):
            ensemble_predict_batch(model, np.zeros((1, 5)))

    def test_member_prediction_columns(self):
        members = (some_params(0), some_params(1))
        ds = make_ds(m=5)
        cols = member_predictions(members, ds.windows)
        assert cols.shape == (5, 2)
        for j, p in enumerate(members):
            assert np.array_equal(cols[:, j], predict_batch(p, ds.windows))
