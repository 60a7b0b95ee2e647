import errno
import functools
import json
import math
import os
import tempfile
import zlib
from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trackcast.core import WindowedDataset, accepts
from trackcast.ensemble import (
    Combiner,
    EnsembleModel,
    ensemble_predict_batch,
    fit_stacker,
    member_predictions,
    train_bagging,
    train_boosting,
)
from trackcast.errors import (
    IntegrityError,
    InvalidArgumentError,
    UnsupportedVersionError,
)
from trackcast.linear import (
    ArimaxModel,
    LinearModel,
    fit_arimax,
    fit_linear,
    predict_arimax_batch,
    predict_linear_batch,
)
from trackcast import persistence
from trackcast.neural import NetworkConfig, NetworkParams, init_params, predict_batch
from trackcast.persistence import (
    FORMAT_VERSION,
    MAGIC,
    _round_metrics,
    _sig6,
    load_model,
    save_model,
    write_report,
)


def make_ds(m=60, l=8, n=3, seed=4):
    rng = np.random.default_rng(seed)
    return WindowedDataset(
        windows=rng.normal(size=(m, l, n)),
        targets=rng.normal(size=m),
        l=l, n=n, target_feature=0,
    )


def fast_cfg(**kw):
    base = dict(arch="cnn", kernel_count=2, kernel_width=3, batch_size=8,
                max_epochs=2, seed=3)
    base.update(kw)
    return NetworkConfig(**base)


def rewrite(path, mutate):
    blob = bytearray(path.read_bytes())
    mutate(blob)
    path.write_bytes(bytes(blob))


def edit_header(path, mutate_header):
    """Decode, mutate, and re-encode the JSON header, fixing lengths."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    payload = blob[16 + header_len :]
    mutate_header(header)
    new_header = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(
        blob[:8] + len(new_header).to_bytes(8, "little") + new_header + payload
    )


class TestRoundTrips:
    def test_linear(self, tmp_path):
        ds = make_ds()
        model = fit_linear(ds)
        path = tmp_path / "lr.tckm"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(
            predict_linear_batch(model, ds.windows),
            predict_linear_batch(loaded, ds.windows),
        )
        assert loaded.bias == model.bias
        assert loaded.target_feature == model.target_feature
        assert loaded.n_features == model.n_features

    def test_arimax(self, tmp_path):
        ds = make_ds()
        model = fit_arimax(ds, 1, 1, 1)
        path = tmp_path / "ar.tckm"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(
            predict_arimax_batch(model, ds.windows),
            predict_arimax_batch(loaded, ds.windows),
        )
        assert (loaded.p, loaded.d, loaded.q) == (1, 1, 1)
        assert loaded.c == model.c
        assert np.array_equal(loaded.phi, model.phi)
        assert np.array_equal(loaded.theta, model.theta)
        assert np.array_equal(loaded.beta, model.beta)
        assert loaded.css_initial == model.css_initial
        assert loaded.css_final == model.css_final
        assert loaded.css_warning == model.css_warning

    @pytest.mark.parametrize("arch", ["lstm", "gru", "cnn"])
    def test_network(self, tmp_path, arch):
        ds = make_ds(m=6, l=5)
        params = init_params(fast_cfg(arch=arch, hidden_size=4), ds.n, ds.l)
        path = tmp_path / "net.tckm"
        save_model(params, path)
        loaded = load_model(path)
        assert list(loaded.tensors.keys()) == list(params.tensors.keys())
        assert np.array_equal(predict_batch(params, ds.windows),
                              predict_batch(loaded, ds.windows))

    def test_bagging_ensemble_drops_traces(self, tmp_path):
        tr, va = make_ds(m=24, l=5), make_ds(m=8, l=5, seed=9)
        model = train_bagging(fast_cfg(), 2, tr, va)
        assert model.member_traces
        path = tmp_path / "bag.tckm"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(ensemble_predict_batch(model, va.windows),
                              ensemble_predict_batch(loaded, va.windows))
        assert loaded.member_traces == ()
        assert loaded.boost_trace is None
        assert loaded.retried_members == ()
        assert loaded.method == "bagging"

    def test_boosting_ensemble_keeps_threshold(self, tmp_path):
        tr, va = make_ds(m=24, l=5), make_ds(m=8, l=5, seed=9)
        model = train_boosting(fast_cfg(batch_size=4), 2, 0.5, tr, va)
        path = tmp_path / "boost.tckm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.boost_threshold == 0.5
        assert loaded.method == "boosting"
        assert np.array_equal(ensemble_predict_batch(model, va.windows),
                              ensemble_predict_batch(loaded, va.windows))

    def test_stacked_ensemble(self, tmp_path):
        tr, va = make_ds(m=24, l=5), make_ds(m=16, l=5, seed=9)
        base = train_bagging(fast_cfg(), 2, tr, va)
        cols = member_predictions(base.members, va.windows)
        model = replace(base, combiner=fit_stacker(cols, va.targets))
        path = tmp_path / "stack.tckm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.combiner.kind == model.combiner.kind
        if model.combiner.kind == "stacker":
            assert loaded.combiner.weights == model.combiner.weights
            assert loaded.combiner.bias == model.combiner.bias
        assert np.array_equal(ensemble_predict_batch(model, va.windows),
                              ensemble_predict_batch(loaded, va.windows))

    def test_fallback_reason_survives(self, tmp_path):
        params = init_params(fast_cfg(), 3, 5)
        model = EnsembleModel(
            members=(params, params),
            combiner=Combiner(kind="mean", fallback_reason="singular member prediction matrix"),
            method="bagging",
        )
        path = tmp_path / "fb.tckm"
        save_model(model, path)
        assert load_model(path).combiner.fallback_reason == "singular member prediction matrix"

    def test_save_is_byte_deterministic(self, tmp_path):
        model = fit_linear(make_ds())
        p1, p2 = tmp_path / "a.tckm", tmp_path / "b.tckm"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            save_model({"weights": [1.0]}, tmp_path / "x.tckm")


class TestIntegrity:
    @pytest.fixture
    def artifact(self, tmp_path):
        path = tmp_path / "m.tckm"
        save_model(fit_linear(make_ds()), path)
        return path

    def test_header_starts_with_magic(self, artifact):
        assert artifact.read_bytes()[:4] == MAGIC

    def test_bad_magic(self, artifact):
        rewrite(artifact, lambda b: b.__setitem__(0, b[0] ^ 0xFF))
        with pytest.raises(IntegrityError):
            load_model(artifact)

    def test_short_file(self, artifact):
        artifact.write_bytes(artifact.read_bytes()[:10])
        with pytest.raises(IntegrityError):
            load_model(artifact)

    def test_unsupported_version(self, artifact):
        def bump(b):
            b[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
        rewrite(artifact, bump)
        with pytest.raises(UnsupportedVersionError):
            load_model(artifact)

    def test_truncated_header(self, artifact):
        artifact.write_bytes(artifact.read_bytes()[:20])
        with pytest.raises(IntegrityError):
            load_model(artifact)

    def test_payload_byte_flip_fails_checksum(self, artifact):
        rewrite(artifact, lambda b: b.__setitem__(-3, b[-3] ^ 0x01))
        with pytest.raises(IntegrityError, match="checksum"):
            load_model(artifact)

    def test_appended_bytes_detected(self, artifact):
        artifact.write_bytes(artifact.read_bytes() + b"\x00")
        with pytest.raises(IntegrityError, match="length"):
            load_model(artifact)

    def test_missing_bytes_detected(self, artifact):
        artifact.write_bytes(artifact.read_bytes()[:-1])
        with pytest.raises(IntegrityError, match="length"):
            load_model(artifact)

    def test_corrupt_header_json(self, artifact):
        blob = bytearray(artifact.read_bytes())
        blob[16] = 0xFF  # first header byte can no longer decode
        artifact.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="header"):
            load_model(artifact)

    def test_unknown_model_kind(self, artifact):
        def mutate(h):
            h["model_kind"] = "forest"
        edit_header(artifact, mutate)
        with pytest.raises(UnsupportedVersionError):
            load_model(artifact)

    def test_extra_manifest_array_exceeds_payload(self, artifact):
        def mutate(h):
            h["arrays"].append({"name": "ghost", "shape": [64]})
        edit_header(artifact, mutate)
        with pytest.raises(IntegrityError, match="exceeds"):
            load_model(artifact)

    def test_dropped_manifest_array_leaves_trailing_bytes(self, artifact):
        def mutate(h):
            h["arrays"] = h["arrays"][:-1]
        edit_header(artifact, mutate)
        with pytest.raises(IntegrityError, match="trailing"):
            load_model(artifact)


    def test_missing_meta_field(self, artifact):
        edit_header(artifact, lambda h: h["meta"].pop("n_features"))
        with pytest.raises(IntegrityError, match="KeyError"):
            load_model(artifact)

    def test_negative_array_shape(self, artifact):
        def mutate(h):
            h["arrays"][0]["shape"] = [-1]
        edit_header(artifact, mutate)
        with pytest.raises(IntegrityError, match="negative"):
            load_model(artifact)

    def test_wrong_typed_meta_field(self, artifact):
        edit_header(artifact, lambda h: h["meta"].update(n_features=[3]))
        with pytest.raises(IntegrityError, match="TypeError"):
            load_model(artifact)

    @pytest.mark.parametrize("field,value", [("arch", "rnn"), ("hidden_size", 4)])
    def test_network_meta_disagreeing_with_tensors(self, tmp_path, field, value):
        """A saved GRU whose arch is unknown, or whose hidden size no
        longer matches its tensors, fails at load, not at prediction."""
        path = tmp_path / "gru.tckm"
        save_model(init_params(fast_cfg(arch="gru", hidden_size=3), 3, 8), path)
        edit_header(path, lambda h: h["meta"].update({field: value}))
        with pytest.raises(IntegrityError, match="InvalidArgumentError"):
            load_model(path)

    @pytest.mark.parametrize("which,path,value", [
        (1, ("meta", "css_warning"), "false"),
        (1, ("meta", "p"), 1.9),
        (1, ("meta", "css_final"), "nan"),
        (1, ("arrays", 1, "shape"), [1.0]),  # phi, saved as [1]
        (0, ("meta", "n_features"), "no"),
        (3, ("meta", "hidden_size"), 2.0),
        (3, ("meta", "window_len"), "5"),
        (5, ("meta", "n_features"), True),  # a 1-feature GRU
        (4, ("meta", "boost_threshold"), "0.2"),
        (4, ("meta", "combiner", "fallback_reason"), 7),
        (4, ("meta", "members", 1, "kernel_width"), 3.0),
        (4, ("payload_bytes",), float),  # the right length, as a float
        (1, ("meta", "css_final"), lambda _: 10**400),  # an int no float holds
    ])
    def test_wrong_typed_manifest_value(self, which, path, value):
        """A value that equals or casts to the saved one, but has another
        JSON type, is rejected: no loader casts before it checks.  A
        callable ``value`` maps the saved value to the edited one."""
        header = _header(_saved_blobs()[which])
        parent = _node(header, path[:-1])
        parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
        with pytest.raises(IntegrityError, match="TypeError"):
            _load_damaged_strict(_with_header(_saved_blobs()[which], header))

    @pytest.mark.parametrize("which", [0, 1, 2, 4], ids=["linear", "arimax", "network", "ensemble"])
    @pytest.mark.parametrize("extra, match", [("junk", "does not read"), ("repeat", "twice")])
    def test_array_the_model_does_not_read(self, which, extra, match):
        """An array entry no loader reads, or the first entry listed
        again, with its payload, length and checksum made to match."""
        blob = _saved_blobs()[which]
        header = _header(blob)
        payload = blob[16 + int.from_bytes(blob[8:16], "little") :]
        if extra == "junk":
            entry, data = {"name": "junk", "shape": [1]}, np.zeros(1).tobytes()
        else:
            entry = dict(header["arrays"][0])
            data = payload[: 8 * math.prod(entry["shape"])]
        header["arrays"].append(entry)
        payload += data
        header.update(payload_bytes=len(payload), payload_crc32=zlib.crc32(payload))
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        with pytest.raises(IntegrityError, match=match):
            _load_damaged_strict(blob[:8] + len(new).to_bytes(8, "little") + new + payload)

    def test_unknown_combiner_kind(self):
        header = _header(_saved_blobs()[4])
        header["meta"]["combiner"].update(kind="median")
        with pytest.raises(IntegrityError, match="InvalidArgumentError"):
            _load_damaged_strict(_with_header(_saved_blobs()[4], header))


def _header(blob: bytes) -> dict:
    return json.loads(blob[16 : 16 + int.from_bytes(blob[8:16], "little")])


def _with_header(blob: bytes, header: dict) -> bytes:
    """``blob`` with its JSON header replaced and the header length fixed."""
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = blob[16 + int.from_bytes(blob[8:16], "little") :]
    return blob[:8] + len(new).to_bytes(8, "little") + new + payload


def _node(header, path):
    for key in path:
        header = header[key]
    return header


@functools.lru_cache(maxsize=None)
def _saved_blobs() -> tuple[bytes, ...]:
    """One saved artifact of every model kind, then a 1-feature GRU."""
    ds = make_ds(m=24, l=5)
    members = tuple(init_params(fast_cfg(seed=s), ds.n, ds.l) for s in (1, 2))
    models = (
        fit_linear(ds),
        fit_arimax(ds, 1, 0, 1),
        init_params(fast_cfg(arch="lstm", hidden_size=3), ds.n, ds.l),
        init_params(fast_cfg(arch="gru", hidden_size=2), ds.n, ds.l),
        EnsembleModel(
            members=members,
            combiner=Combiner(kind="stacker", weights=(0.25, 0.75), bias=0.5),
            method="boosting",
            boost_threshold=0.2,
        ),
        init_params(fast_cfg(arch="gru", hidden_size=2), 1, ds.l),
    )
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, model in enumerate(models):
            path = os.path.join(tmp, f"{k}.tckm")
            save_model(model, path)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    return tuple(blobs)


def _load_damaged(blob: bytes) -> None:
    """Load a damaged artifact; only the two documented errors may escape."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "damaged.tckm")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_model(path)
        except (IntegrityError, UnsupportedVersionError):
            pass


def _json_paths(node, prefix=()):
    """The key path of every node in a decoded JSON tree, root first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=5,
)


def _declared_fields() -> list:
    """(artifact, key path, declared type) of every value a loader reads
    from a header of ``_saved_blobs``, the types taken from the model
    dataclasses' annotations; the first array entry and the first
    ensemble member stand for the others."""
    net_hints = get_type_hints(NetworkParams)
    net = [(k, net_hints[k]) for k in ("arch", "n_features", "window_len", "hidden_size",
                                       "kernel_count", "kernel_width")]
    net.append(("tensor_order", list[str]))
    e, c = get_type_hints(EnsembleModel), get_type_hints(Combiner)
    ensemble = [(("method",), e["method"]), (("boost_threshold",), e["boost_threshold"]),
                (("members",), list[dict]), (("combiner",), dict),
                (("combiner", "kind"), c["kind"]),
                (("combiner", "fallback_reason"), c["fallback_reason"]),
                *((("members", 0, k), t) for k, t in net)]
    out = []
    for which, blob in enumerate(_saved_blobs()):
        header = _header(blob)
        fields = [(("payload_bytes",), int), (("payload_crc32",), int),
                  (("arrays",), list[dict]), (("arrays", 0, "name"), str),
                  (("arrays", 0, "shape"), list[int])]
        kind = header["model_kind"]
        if kind in ("linear", "arimax"):
            hints = get_type_hints(LinearModel if kind == "linear" else ArimaxModel)
            fields += [(("meta", k), hints[k]) for k in header["meta"]]
        elif kind == "network":
            fields += [(("meta", k), t) for k, t in net]
        else:
            fields += [(("meta", *p), t) for p, t in ensemble]
        out += [(which, path, hint) for path, hint in fields]
    return out


class TestCorruptionFuzz:
    """Byte flips, truncations and manifest edits of saved artifacts end
    in IntegrityError or UnsupportedVersionError, or load."""

    @settings(max_examples=200, deadline=None)
    @given(which=st.integers(0, 4),
           flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
                          min_size=1, max_size=3))
    def test_byte_flips(self, which, flips):
        blob = bytearray(_saved_blobs()[which])
        for where, mask in flips:
            blob[int(where * len(blob))] ^= mask
        _load_damaged(bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(which=st.integers(0, 4), keep=st.floats(0, 1, exclude_max=True))
    def test_truncations(self, which, keep):
        blob = _saved_blobs()[which]
        _load_damaged(blob[: int(keep * len(blob))])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.integers(0, 4), delete=st.booleans())
    def test_manifest_edits(self, data, which, delete):
        blob = _saved_blobs()[which]
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + header_len])
        path = data.draw(st.sampled_from(list(_json_paths(header))))
        if not path:
            header = data.draw(_JSON_VALUES)
        else:
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_JSON_VALUES)
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
        _load_damaged(blob[:8] + len(new_header).to_bytes(8, "little")
                      + new_header + blob[16 + header_len :])


    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), which=st.sampled_from([2, 3, 4]))
    def test_network_meta_edits(self, data, which):
        """Editing a network's arch, or a size its tensor shapes depend
        on, to any other value is caught at load."""
        blob = _saved_blobs()[which]
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + header_len])
        meta = header["meta"]
        if header["model_kind"] == "ensemble":
            meta = meta["members"][data.draw(st.integers(0, len(meta["members"]) - 1))]
        shaping = ["n_features"] + (
            ["hidden_size"] if meta["arch"] in ("lstm", "gru")
            else ["kernel_count", "kernel_width", "window_len"]
        )
        field = data.draw(st.sampled_from(["arch"] + shaping))
        if field == "arch":
            value = data.draw(st.sampled_from(["lstm", "gru", "cnn", "rnn"]) | st.text(max_size=4))
        else:
            value = data.draw(st.integers(-3, 40))
        assume(value != meta[field])
        meta[field] = value
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
        damaged = (blob[:8] + len(new_header).to_bytes(8, "little")
                   + new_header + blob[16 + header_len :])
        with pytest.raises(IntegrityError):
            _load_damaged_strict(damaged)

    @pytest.mark.parametrize("which,path,hint", [
        pytest.param(*case, id=f"{case[0]}-{'.'.join(map(str, case[1]))}")
        for case in _declared_fields()])
    @settings(max_examples=15, deadline=None)
    @given(value=_JSON_VALUES)
    def test_wrong_typed_value_of_any_field(self, which, path, hint, value):
        """Any manifest field of any artifact kind, set to a value its
        declared type rejects, fails the load with IntegrityError."""
        assume(not accepts(hint, value))
        blob = _saved_blobs()[which]
        header = _header(blob)
        _node(header, path[:-1])[path[-1]] = value
        with pytest.raises(IntegrityError):
            _load_damaged_strict(_with_header(blob, header))


def _load_damaged_strict(blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "damaged.tckm")
        with open(path, "wb") as fh:
            fh.write(blob)
        load_model(path)


class _DiskFullFile:
    """Writes half of what it is given, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrites:
    """A write that fails partway leaves no partial artifact or report:
    the target keeps its old bytes (or stays absent) and no temporary
    file is left beside it."""

    @pytest.fixture
    def disk_full(self, monkeypatch):
        def failing_open(path, mode="r", *args, **kw):
            return _DiskFullFile(open(path, mode, *args, **kw))

        monkeypatch.setattr(persistence, "open", failing_open, raising=False)

    def _writers(self):
        report = {"config": {}, "audit": {}, "models": {"lr": {"train_mse": 0.5}}}
        return {
            "m.tckm": lambda path: save_model(fit_linear(make_ds()), path),
            "report.json": lambda path: write_report(report, path),
        }

    @pytest.mark.parametrize("name", ["m.tckm", "report.json"])
    def test_failed_first_write_leaves_nothing(self, tmp_path, disk_full, name):
        with pytest.raises(OSError):
            self._writers()[name](tmp_path / name)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name", ["m.tckm", "report.json"])
    def test_failed_overwrite_keeps_old_bytes(self, tmp_path, disk_full, name):
        path = tmp_path / name
        path.write_bytes(b"old bytes")
        with pytest.raises(OSError):
            self._writers()[name](path)
        assert path.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == [name]

    @pytest.mark.parametrize("name", ["m.tckm", "report.json"])
    @pytest.mark.parametrize("fault", ["missing-directory", "target-is-a-directory"])
    def test_error_names_the_path_given(self, tmp_path, name, fault):
        path = tmp_path / "missing" / name if fault == "missing-directory" else tmp_path / name
        if fault == "target-is-a-directory":
            path.mkdir()
        with pytest.raises(OSError) as caught:
            self._writers()[name](path)
        assert (caught.value.filename, caught.value.filename2) == (str(path), None)
        assert str(caught.value).endswith(f": '{path}'")
        assert os.listdir(tmp_path) == ([] if fault == "missing-directory" else [name])


class TestMetricRounding:
    def test_six_significant_digits(self):
        assert _sig6(0.123456789) == 0.123457
        assert _sig6(123456789.0) == 123457000.0
        assert _sig6(1.5) == 1.5

    def test_rounds_only_metric_keys(self):
        node = {
            "mse": 0.123456789,
            "mae": 0.987654321,
            "train_mse": 1.23456789e-5,
            "val_mae": 42.4242424242,
            "threshold": 0.123456789,
            "nested": [{"test_mse": 3.141592653589793}],
        }
        out = _round_metrics(node)
        assert out["mse"] == 0.123457
        assert out["mae"] == 0.987654
        assert out["train_mse"] == 1.23457e-5
        assert out["val_mae"] == 42.4242
        assert out["threshold"] == 0.123456789
        assert out["nested"][0]["test_mse"] == 3.14159

    def test_bools_pass_through(self):
        assert _round_metrics({"mse": True}) == {"mse": True}

    def test_non_dict_leaves_untouched(self):
        assert _round_metrics("text") == "text"
        assert _round_metrics(7) == 7


class TestRunReport:
    """``write_report`` on a report document."""

    def write(self, tmp_path, doc, name="report.json"):
        path = tmp_path / name
        write_report(doc, path)
        return path.read_text(encoding="utf-8")

    def base_report(self, timings):
        return {
            "config": {"model": {"models": ["lr"]}},
            "audit": {"rows_in": 100, "val_mse": 0.123456789},
            "models": {"lr": {"train_mse": 0.123456789}},
            "timings": timings,
            "errors": {},
        }

    def test_schema_and_rounding(self, tmp_path):
        doc = json.loads(self.write(tmp_path, self.base_report({"total_s": 1.0})))
        assert doc["schema_version"] == 1
        assert doc["models"]["lr"]["train_mse"] == 0.123457
        assert doc["audit"]["val_mse"] == 0.123456789
        assert "sweep" not in doc

    def test_sweep_included_and_rounded(self, tmp_path):
        text = self.write(tmp_path, {"config": {}, "audit": {}, "models": {},
                                     "sweep": [{"proportion": 0.2, "train_mse": 0.999999999}]})
        doc = json.loads(text)
        assert doc["sweep"][0]["train_mse"] == 1.0
        assert doc["sweep"][0]["proportion"] == 0.2

    def test_timings_is_the_only_difference(self, tmp_path):
        a = json.loads(self.write(tmp_path, self.base_report({"total_s": 1.0}), "a.json"))
        b = json.loads(self.write(tmp_path, self.base_report({"total_s": 99.0}), "b.json"))
        assert a.pop("timings") != b.pop("timings")
        assert a == b

    def test_write_report_sorted_and_stable(self, tmp_path):
        doc = self.base_report({"total_s": 0.5})
        text = self.write(tmp_path, doc, "a.json")
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert self.write(tmp_path, dict(reversed(doc.items())), "b.json") == text

    def test_leaves_the_document_unrounded(self, tmp_path):
        doc = self.base_report({"total_s": 0.5})
        self.write(tmp_path, doc)
        assert doc["models"]["lr"]["train_mse"] == 0.123456789
        assert "schema_version" not in doc
