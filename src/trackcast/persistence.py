"""Model artifacts and run reports.

Artifacts are a small binary container: magic, format version, a JSON
manifest, then the parameter arrays as raw little-endian float64, in
manifest order.  Raw binary (not text) so that load(save(m)) gives
bit-identical predictions.  Reports are UTF-8 JSON with sorted keys;
all wall-clock numbers live under the single "timings" key so two runs
of the same config differ only there.
"""
from __future__ import annotations

import json
import math
import os
import zlib
from typing import Any

import numpy as np

from .core import checked, field_types
from .ensemble import Combiner, EnsembleModel
from .errors import IntegrityError, InvalidArgumentError, UnsupportedVersionError
from .linear import ArimaxModel, LinearModel
from .neural import NetworkParams

MAGIC = b"TCKM"
FORMAT_VERSION = 1

_METRIC_KEYS = ("mse", "mae")


def _le64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).astype("<f8", copy=False)


def _scalar(a: np.ndarray) -> float:
    # scalars are stored as length-1 arrays
    return float(np.asarray(a).ravel()[0])


def _read(node, types: dict) -> dict:
    """The value at each key of ``types`` in a decoded JSON object, each
    checked against its declared type (``core.checked``): KeyError for a
    missing key, TypeError for a wrong type or a node that is no object."""
    return {key: checked(hint, node[key], key) for key, hint in types.items()}


_NETWORK_SIZES = ("n_features", "window_len", "hidden_size", "kernel_count", "kernel_width")


def _types(cls, *names) -> dict:
    """Name -> declared type of the ``names`` fields of ``cls``."""
    return {k: t for k, t in field_types(cls).items() if k in names}


_NETWORK_META = {**_types(NetworkParams, "arch", *_NETWORK_SIZES), "tensor_order": list[str]}
_ENSEMBLE_META = {**_types(EnsembleModel, "method", "boost_threshold"),
                  "members": list[dict], "combiner": dict}
_COMBINER_META = _types(Combiner, "kind", "fallback_reason")
_HEADER = {"payload_bytes": int, "payload_crc32": int, "arrays": list[dict]}
_ARRAY_ENTRY = {"name": str, "shape": list[int]}


def _network_manifest(params: NetworkParams, prefix: str = ""):
    meta = {"arch": params.arch, **{k: getattr(params, k) for k in _NETWORK_SIZES},
            "tensor_order": list(params.tensors)}
    return meta, [(prefix + name, arr) for name, arr in params.tensors.items()]


def _network_from_manifest(meta, lookup, prefix: str = "") -> NetworkParams:
    meta = _read(meta, _NETWORK_META)
    tensors = {name: lookup.pop(prefix + name) for name in meta["tensor_order"]}
    sizes = (meta[k] for k in _NETWORK_SIZES)
    return NetworkParams.from_tensors(meta["arch"], *sizes, tensors)


def _ensemble_manifest(model: EnsembleModel):
    members = []
    arrays = []
    for i, member in enumerate(model.members):
        m_meta, m_arrays = _network_manifest(member, prefix=f"member{i}/")
        members.append(m_meta)
        arrays.extend(m_arrays)
    meta = {
        "method": model.method,
        "boost_threshold": model.boost_threshold,
        "members": members,
        "combiner": {k: getattr(model.combiner, k) for k in _COMBINER_META},
    }
    if model.combiner.kind == "stacker":
        arrays.append(("stacker_weights", np.asarray(model.combiner.weights)))
        arrays.append(("stacker_bias", np.asarray(model.combiner.bias)))
    return meta, arrays


def _ensemble_from_manifest(meta, lookup) -> EnsembleModel:
    meta = _read(meta, _ENSEMBLE_META)
    members = tuple(
        _network_from_manifest(m_meta, lookup, prefix=f"member{i}/")
        for i, m_meta in enumerate(meta["members"])
    )
    c_meta = _read(meta["combiner"], _COMBINER_META)
    if c_meta["kind"] == "stacker":
        c_meta["weights"] = tuple(float(w) for w in np.atleast_1d(lookup.pop("stacker_weights")))
        c_meta["bias"] = _scalar(lookup.pop("stacker_bias"))
    threshold = meta["boost_threshold"]
    return EnsembleModel(
        members=members,
        combiner=Combiner(**c_meta),
        method=meta["method"],
        boost_threshold=None if threshold is None else float(threshold),
    )


def _fields_manifest(cls, arrays: tuple[str, ...]):
    """(to_manifest, from_manifest) for a model dataclass whose ``arrays``
    fields are the payload, in that order, and every other field is meta.
    Loading reads the class's fields, not the manifest's keys, checks
    each meta value against its field's type, and casts it (an int to a
    float field's float) and each scalar array to that type."""
    hints = field_types(cls)
    meta_types = {name: hint for name, hint in hints.items() if name not in arrays}

    def to_manifest(model):
        meta = {name: hint(getattr(model, name)) for name, hint in meta_types.items()}
        return meta, [(name, np.asarray(getattr(model, name))) for name in arrays]

    def from_manifest(meta, lookup):
        values = {name: hints[name](v) for name, v in _read(meta, meta_types).items()}
        for name in arrays:
            arr = lookup.pop(name)
            values[name] = _scalar(arr) if hints[name] is float else arr
        return cls(**values)

    return to_manifest, from_manifest


# artifact kind -> (model class, to_manifest, from_manifest)
_KINDS = {
    "linear": (LinearModel, *_fields_manifest(LinearModel, ("weights", "bias"))),
    "arimax": (ArimaxModel, *_fields_manifest(ArimaxModel, ("c", "phi", "theta", "beta"))),
    "network": (NetworkParams, _network_manifest, _network_from_manifest),
    "ensemble": (EnsembleModel, _ensemble_manifest, _ensemble_from_manifest),
}


def save_model(model, path) -> None:
    kind = next((k for k, (cls, *_) in _KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise InvalidArgumentError(f"cannot serialize object of type {type(model).__name__}")
    meta, arrays = _KINDS[kind][1](model)
    payload_parts = []
    manifest_arrays = []
    for name, arr in arrays:
        a = _le64(arr)
        manifest_arrays.append({"name": name, "shape": list(a.shape)})
        payload_parts.append(a.tobytes())
    payload = b"".join(payload_parts)
    header = {
        "model_kind": kind,
        "meta": meta,
        "arrays": manifest_arrays,
        "payload_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    lengths = FORMAT_VERSION.to_bytes(4, "little") + len(header_bytes).to_bytes(8, "little")
    _write_atomic(path, b"".join([MAGIC, lengths, header_bytes, payload]))


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it
    over ``path``: a failed write leaves no partial file behind, and its
    OSError names ``path``, not the temporary file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_model(path):
    """Read an artifact back into the model object it was saved from.

    A damaged artifact raises IntegrityError (UnsupportedVersionError for
    an unknown format version or model kind), whatever part is damaged:
    magic, lengths, checksum, or a manifest with missing, wrong-typed or
    inconsistent fields, or a value no fit writes (an ARIMAX order, a
    target feature or a network size the model records reject).  Every
    manifest value is checked against its declared type by the rule
    config files are read by (``core.checked``): an integer for an int
    field, never a boolean, a float or a string.  Every array the
    manifest lists must be one the model reads, listed once."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise IntegrityError("not a model artifact (bad magic)")
    version = int.from_bytes(blob[4:8], "little")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"artifact format version {version} is not supported (expected {FORMAT_VERSION})"
        )
    try:
        return _model_from_blob(blob)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        # ValueError covers InvalidArgumentError from the model constructors
        raise IntegrityError(
            f"inconsistent artifact manifest: {type(exc).__name__}: {exc}"
        ) from None


def _model_from_blob(blob: bytes):
    header_len = int.from_bytes(blob[8:16], "little")
    if len(blob) < 16 + header_len:
        raise IntegrityError("truncated artifact header")
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"unreadable artifact header: {exc}") from None
    payload = blob[16 + header_len :]
    checks = _read(header, _HEADER)
    if len(payload) != checks["payload_bytes"]:
        raise IntegrityError(
            f"payload length mismatch: expected {checks['payload_bytes']} bytes,"
            f" found {len(payload)}"
        )
    if zlib.crc32(payload) != checks["payload_crc32"]:
        raise IntegrityError("payload checksum mismatch")
    lookup = {}
    offset = 0
    for entry in (_read(e, _ARRAY_ENTRY) for e in checks["arrays"]):
        shape = tuple(entry["shape"])
        if any(s < 0 for s in shape):
            raise IntegrityError(f"array {entry['name']!r} has a negative dimension")
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(payload):
            raise IntegrityError(f"array {entry['name']!r} exceeds payload")
        if entry["name"] in lookup:
            raise IntegrityError(f"array {entry['name']!r} is listed twice")
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype="<f8").reshape(shape)
        lookup[entry["name"]] = arr.astype(np.float64)
        offset += nbytes
    if offset != len(payload):
        raise IntegrityError("payload has trailing bytes")
    kind, meta = header["model_kind"], header["meta"]
    if not (isinstance(kind, str) and kind in _KINDS):
        raise UnsupportedVersionError(f"unknown model kind {kind!r}")
    model = _KINDS[kind][2](meta, lookup)  # each loader pops the arrays it reads
    if lookup:
        raise IntegrityError(f"arrays the model does not read: {sorted(lookup)}")
    return model


def _sig6(value: float) -> float:
    return float(f"{float(value):.6g}")


def _round_metrics(node: Any) -> Any:
    """6 significant digits on every metric field, recursively."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            is_metric = key in _METRIC_KEYS or key.endswith("_mse") or key.endswith("_mae")
            if is_metric and isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] = _sig6(value)
            else:
                out[key] = _round_metrics(value)
        return out
    if isinstance(node, (list, tuple)):
        return [_round_metrics(v) for v in node]
    return node


def write_report(doc: dict, path) -> None:
    """Write the report ``doc`` (section name -> content) as UTF-8 JSON
    with sorted keys, atomically, under ``schema_version`` 1.  Each
    metric under ``models`` and ``sweep`` is rounded to 6 significant
    digits; the in-memory values stay exact.  Wall-clock numbers belong
    under ``timings``, the only section allowed to differ between
    identical runs."""
    doc = dict(doc, schema_version=1)
    for section in ("models", "sweep"):
        if section in doc:
            doc[section] = _round_metrics(doc[section])
    text = json.dumps(doc, sort_keys=True, indent=2)
    _write_atomic(path, (text + "\n").encode("utf-8"))
