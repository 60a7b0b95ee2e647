"""From-scratch neural one-step forecasters on numpy.

Three architectures share one training loop: a single-layer LSTM, a
single-layer GRU (update and reset gates, no output gate, so fewer
parameters than the LSTM), and a one-dimensional convolutional net
whose kernels slide along the time axis.  Each feeds a one-neuron
dense head.  Gradients are written by hand and verified against
central finite differences.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import WindowedDataset
from .errors import IllPosedError, InvalidArgumentError, NumericDivergenceError
from .rng import derive_seed

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_ARCHS = ("lstm", "gru", "cnn")

_LSTM_GATES = ("i", "f", "o", "g")
_GRU_GATES = ("z", "r", "h")

# Windows per forward call in predict_batch.  Of 1024, 2048 and 4096,
# 1024 ran fastest on a 21,796-window split (2-core box), serially and
# on two threads: LSTM 113/118/133 and 61/63/75 ms, against 122 ms for
# the whole split in one call.
_PREDICT_CHUNK = 1024
_predict_lock = threading.Lock()
# True inside _one_core.  Process-wide on purpose: it says how many
# cores the whole process may use, and the member pool that sets it
# runs only where no other thread does.
_serial_predict = False


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and training settings for one network."""

    arch: str
    hidden_size: int = 32
    kernel_count: int = 5
    kernel_width: int = 5
    l2_lambda: float = 1e-4
    batch_size: int = 128
    max_epochs: int = 100
    patience: int = 3
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.arch not in _ARCHS:
            raise InvalidArgumentError(f"arch must be one of {_ARCHS}")
        for name in ("hidden_size", "kernel_count", "kernel_width", "batch_size",
                     "max_epochs", "patience"):
            if int(getattr(self, name)) < 1:
                raise InvalidArgumentError(f"{name} must be positive")
        if not float(self.learning_rate) > 0.0:
            raise InvalidArgumentError("learning_rate must be positive")
        if not float(self.l2_lambda) >= 0.0:
            raise InvalidArgumentError("l2_lambda must be non-negative")
        if int(self.seed) < 0:
            raise InvalidArgumentError("seed must be non-negative")


@dataclass(frozen=True)
class NetworkParams:
    """One network's parameters as a single float64 vector.

    ``tensors`` holds read-only named views of ``vector`` in
    ``_tensor_layout`` order, the order artifacts store; the regularized
    tensors fill the vector's first ``prefix`` entries.  The vector is
    used as given: ``init_params``, ``from_tensors`` and ``train`` hand
    out read-only ones, and only the copy a running ``train`` owns is
    writable, for ``adam_step`` to update in place.
    """

    arch: str
    n_features: int
    window_len: int
    hidden_size: int
    kernel_count: int
    kernel_width: int
    vector: np.ndarray = field(repr=False)
    tensors: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    prefix: int = field(init=False, repr=False, compare=False)
    _layout: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout, prefix, size = _tensor_layout(self.arch, self.n_features, self.window_len,
                                              self.hidden_size, self.kernel_count,
                                              self.kernel_width)
        v = self.vector
        if not isinstance(v, np.ndarray) or v.dtype != np.float64 or v.shape != (size,):
            raise InvalidArgumentError(f"{self.arch} parameters disagree with the network sizes")
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tensors", self.views(v))
        for view in self.tensors.values():
            view.setflags(write=False)

    @classmethod
    def from_tensors(cls, arch, n_features, window_len, hidden_size, kernel_count,
                     kernel_width, tensors) -> "NetworkParams":
        """Parameters holding a read-only copy of named tensors."""
        sizes = (n_features, window_len, hidden_size, kernel_count, kernel_width)
        layout, _, size = _tensor_layout(arch, *sizes)
        if {k: np.shape(a) for k, a in tensors.items()} != {k: s[0] for k, s in layout.items()}:
            raise InvalidArgumentError(f"{arch} tensors disagree with the network sizes")
        vector = np.empty(size)
        for name, (_, _, start, stop) in layout.items():
            vector[start:stop] = np.ravel(tensors[name])
        vector.setflags(write=False)
        return cls(arch, *sizes, vector)

    def __reduce__(self):
        """Pickled as its sizes and tensors, and unpickled by
        ``from_tensors``, so the copy is read-only and whole."""
        sizes = (self.n_features, self.window_len, self.hidden_size, self.kernel_count,
                 self.kernel_width)
        return type(self).from_tensors, (self.arch, *sizes, self.tensors)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of any vector laid out like ``self.vector``."""
        return {k: vector[a:b].reshape(shape) for k, (shape, _, a, b) in self._layout.items()}


def regularized_tensor_names(arch: str) -> tuple[str, ...]:
    """Input-layer weight tensors carrying the L2 penalty.

    Biases and the dense head are never penalized.
    """
    if arch == "lstm":
        return tuple(f"{w}{g}" for g in _LSTM_GATES for w in ("W", "U"))
    if arch == "gru":
        return tuple(f"{w}{g}" for g in _GRU_GATES for w in ("W", "U"))
    if arch == "cnn":
        return ("kernels",)
    raise InvalidArgumentError(f"unknown arch {arch!r}")


def _tensor_layout(arch, n, l, hidden, count, width) -> tuple[dict, int, int]:
    """Every tensor of a network in draw order, as name -> (shape,
    fan_in, start, stop), then the regularized prefix's length and the
    vector's size.  fan_in 0 marks a bias; [start, stop) is the tensor's
    place in the flat vector, which holds the regularized tensors first."""
    n, l, hidden, count, width = (int(v) for v in (n, l, hidden, count, width))
    if arch in ("lstm", "gru"):
        shapes = {}
        for g in _LSTM_GATES if arch == "lstm" else _GRU_GATES:
            shapes[f"W{g}"] = ((hidden, n), n + hidden)
            shapes[f"U{g}"] = ((hidden, hidden), n + hidden)
            shapes[f"b{g}"] = ((hidden,), 0)
        shapes["head_w"] = ((hidden,), hidden)
    elif arch == "cnn":
        head_in = count * (l - width + 1)
        shapes = {"kernels": ((count, width, n), width * n), "conv_b": ((count,), 0),
                  "head_w": ((head_in,), head_in)}
    else:
        raise InvalidArgumentError(f"unknown arch {arch!r}")
    shapes["head_b"] = ((1,), 0)
    reg = regularized_tensor_names(arch)
    layout, stop = {}, 0
    for name in (*reg, *(k for k in shapes if k not in reg)):
        start, stop = stop, stop + math.prod(shapes[name][0])
        layout[name] = (*shapes[name], start, stop)
    return {k: layout[k] for k in shapes}, layout[reg[-1]][3], stop


def init_params(cfg: NetworkConfig, n_features: int, window_len: int) -> NetworkParams:
    """Seeded initialization: weights uniform on [-s, s] with
    s = 1/sqrt(fan_in); biases zero except the LSTM forget gate at 1.
    Draw order over tensors is fixed, so a seed pins every value."""
    n = int(n_features)
    l = int(window_len)
    if n < 1:
        raise InvalidArgumentError("n_features must be positive")
    if l < 2:
        raise InvalidArgumentError("window_len must be at least 2")
    rnn = cfg.arch in ("lstm", "gru")
    hidden = int(cfg.hidden_size) if rnn else 0
    count = 0 if rnn else int(cfg.kernel_count)
    width = 0 if rnn else int(cfg.kernel_width)
    if width >= l:
        raise InvalidArgumentError(
            f"kernel_width {width} must be smaller than window length {l}"
        )
    rng = np.random.default_rng(int(cfg.seed))
    tensors: dict[str, np.ndarray] = {}
    for name, (shape, fan_in, _, _) in _tensor_layout(cfg.arch, n, l, hidden, count,
                                                      width)[0].items():
        if fan_in:
            s = 1.0 / np.sqrt(fan_in)
            tensors[name] = rng.uniform(-s, s, size=shape)
        else:
            tensors[name] = np.full(shape, 1.0 if (cfg.arch, name) == ("lstm", "bf") else 0.0)
    return NetworkParams.from_tensors(cfg.arch, n, l, hidden, count, width, tensors)


def _check_batch(params: NetworkParams, shape: tuple) -> None:
    if len(shape) != 3 or shape[1:] != (params.window_len, params.n_features):
        raise InvalidArgumentError(
            f"windows must have shape (batch, {params.window_len}, {params.n_features})"
        )


def _sigmoid(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function in its tanh form, 0.5 * tanh(0.5 a) + 0.5.

    The same function as 1 / (1 + exp(-a)), without overflow for any
    finite ``a``; about half the cost of ``scipy.special.expit``.
    Written into ``out`` (which may be ``a``), else into a new array.
    """
    out = np.multiply(a, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


# The recurrent nets keep one work buffer per call: ``buf[k]`` holds the
# state entering step k and that step's activations, each a contiguous
# (batch, hidden) block, for every step in training and in two
# alternating slots for inference.  Each update is done in place by the
# operations, in the order, of the plain expression beside it.


def _gate(out, xs, h, t, g, tmp):
    """out = xs @ W_g.T + h @ U_g.T + b_g"""
    np.matmul(xs, t[f"W{g}"].T, out=out)
    out += np.matmul(h, t[f"U{g}"].T, out=tmp)
    out += t[f"b{g}"]


def _accumulate(grads, g, da, xs, h, work):
    """W_g += da.T @ xs; U_g += da.T @ h; b_g += da summed over the batch"""
    for w, inp, out in zip("WU", (xs, h), work):
        grads[f"{w}{g}"] += np.matmul(da.T, inp, out=out)
    grads[f"b{g}"] += da.sum(axis=0)


def _head_backward(t, grads, last, dpred):
    """Dense-head gradients; returns the gradient at the head's input."""
    grads["head_w"][...] = last.T @ dpred
    grads["head_b"][0] = dpred.sum()
    return dpred[:, None] * t["head_w"][None, :]


def _lstm_forward(params, x, need_cache):
    t = params.tensors
    batch, l, _ = x.shape
    depth = l + 1 if need_cache else 2
    # slot: h, c entering the step, then its i, f, o, g and tanh(c_new)
    buf = np.empty((depth, 7, batch, params.hidden_size))
    buf[0, :2] = 0.0
    tmp = np.empty_like(buf[0, 0])
    for step in range(l):
        h, c, i, f, o, g, tc = buf[step % depth]
        h_new, c_new = buf[(step + 1) % depth, :2]
        for out, name in zip((i, f, o, g), _LSTM_GATES):
            _gate(out, x[:, step, :], h, t, name, tmp)
        _sigmoid(buf[step % depth, 2:5], out=buf[step % depth, 2:5])
        np.tanh(g, out=g)
        np.multiply(f, c, out=c_new)  # c_new = f * c + i * g
        c_new += np.multiply(i, g, out=tmp)
        np.multiply(o, np.tanh(c_new, out=tc), out=h_new)
    return buf[l % depth, 0] @ t["head_w"] + t["head_b"][0], (x, buf) if need_cache else None


def _lstm_backward(params, aux, dpred, grads):
    t = params.tensors
    x, buf = aux
    dh = _head_backward(t, grads, buf[-1, 0], dpred)
    dc = np.zeros_like(dh)
    da, tmp = np.empty((2, 4) + dh.shape)  # d(pre-activation) of i, f, o, g; scratch
    work = (np.empty_like(t["Wi"]), np.empty_like(t["Ui"]))
    for step in range(x.shape[1] - 1, -1, -1):
        h_prev, c_prev, i, f, o, g, tc = buf[step]
        np.multiply(dh, tc, out=da[2])  # do = dh * tc
        dh *= o  # dc = dc + dh * o * (1 - tc * tc)
        dh *= np.subtract(1.0, np.multiply(tc, tc, out=tmp[0]), out=tmp[0])
        dc += dh
        np.multiply(dc, g, out=da[0])  # di = dc * g
        np.multiply(dc, c_prev, out=da[1])  # df = dc * c_prev
        da[:3] *= buf[step, 2:5]  # da = d * a * (1 - a) for a in i, f, o
        da[:3] *= np.subtract(1.0, buf[step, 2:5], out=tmp[:3])
        np.multiply(dc, i, out=da[3])  # dag = dc * i * (1 - g * g)
        da[3] *= np.subtract(1.0, np.multiply(g, g, out=tmp[3]), out=tmp[3])
        for k, name in enumerate(_LSTM_GATES):
            _accumulate(grads, name, da[k], x[:, step, :], h_prev, work)
        np.matmul(da[0], t["Ui"], out=dh)  # dh = sum over gates of da @ U
        for k, name in enumerate(_LSTM_GATES[1:], 1):
            dh += np.matmul(da[k], t[f"U{name}"], out=tmp[0])
        dc *= f
    return grads


def _gru_forward(params, x, need_cache):
    t = params.tensors
    batch, l, _ = x.shape
    depth = l + 1 if need_cache else 2
    # slot: h entering the step, then its z, r, candidate hh and r * h
    buf = np.empty((depth, 5, batch, params.hidden_size))
    buf[0, 0] = 0.0
    tmp = np.empty_like(buf[0, 0])
    for step in range(l):
        h, z, r, hh, rh = buf[step % depth]
        h_new = buf[(step + 1) % depth, 0]
        xs = x[:, step, :]
        _gate(z, xs, h, t, "z", tmp)
        _gate(r, xs, h, t, "r", tmp)
        _sigmoid(buf[step % depth, 1:3], out=buf[step % depth, 1:3])
        _gate(hh, xs, np.multiply(r, h, out=rh), t, "h", tmp)
        np.tanh(hh, out=hh)
        np.subtract(1.0, z, out=h_new)  # h_new = (1 - z) * h + z * hh
        h_new *= h
        h_new += np.multiply(z, hh, out=tmp)
    return buf[l % depth, 0] @ t["head_w"] + t["head_b"][0], (x, buf) if need_cache else None


def _gru_backward(params, aux, dpred, grads):
    t = params.tensors
    x, buf = aux
    dh = _head_backward(t, grads, buf[-1, 0], dpred)
    dh_prev = np.empty_like(dh)
    da = np.empty((3,) + dh.shape)  # d(pre-activation) of z, r, hh
    daz, dar, dah = da
    tmp = np.empty_like(da[:2])
    work = (np.empty_like(t["Wz"]), np.empty_like(t["Uz"]))
    for step in range(x.shape[1] - 1, -1, -1):
        h_prev, z, r, hh, rh = buf[step]
        xs = x[:, step, :]
        np.subtract(hh, h_prev, out=daz)  # dz = dh * (hh - h_prev)
        daz *= dh
        np.multiply(dh, z, out=dah)  # dah = dh * z * (1 - hh * hh)
        dah *= np.subtract(1.0, np.multiply(hh, hh, out=tmp[0]), out=tmp[0])
        np.subtract(1.0, z, out=dh_prev)  # dh_prev = dh * (1 - z)
        dh_prev *= dh
        _accumulate(grads, "h", dah, xs, rh, work)
        np.matmul(dah, t["Uh"], out=dh)  # drh = dah @ Uh; dh is spent
        np.multiply(dh, h_prev, out=dar)  # dr = drh * h_prev
        dh *= r  # dh_prev = dh_prev + drh * r
        dh_prev += dh
        da[:2] *= buf[step, 1:3]  # da = d * a * (1 - a) for a in z, r
        da[:2] *= np.subtract(1.0, buf[step, 1:3], out=tmp)
        _accumulate(grads, "z", daz, xs, h_prev, work)
        _accumulate(grads, "r", dar, xs, h_prev, work)
        dh_prev += np.matmul(daz, t["Uz"], out=tmp[0])  # dh = dh_prev + daz @ Uz + dar @ Ur
        dh_prev += np.matmul(dar, t["Ur"], out=tmp[0])
        dh, dh_prev = dh_prev, dh
    return grads


def _cnn_forward(params, x, need_cache):
    t = params.tensors
    batch = x.shape[0]
    # (batch, steps, n, width): all length-`width` stretches along time
    xcol = sliding_window_view(x, params.kernel_width, axis=1)
    pre = np.einsum("caj,btja->bct", t["kernels"], xcol) + t["conv_b"][None, :, None]
    act = np.maximum(pre, 0.0)
    flat = act.reshape(batch, -1)
    preds = flat @ t["head_w"] + t["head_b"][0]
    cache = (xcol, pre, flat) if need_cache else None
    return preds, cache


def _cnn_backward(params, aux, dpred, grads):
    t = params.tensors
    xcol, pre, flat = aux
    dflat = _head_backward(t, grads, flat, dpred)
    dpre = dflat.reshape(pre.shape) * (pre > 0.0)
    grads["conv_b"][...] = dpre.sum(axis=(0, 2))
    grads["kernels"][...] = np.einsum("bct,btja->caj", dpre, xcol)
    return grads


_FORWARD = {"lstm": _lstm_forward, "gru": _gru_forward, "cnn": _cnn_forward}
_BACKWARD = {"lstm": _lstm_backward, "gru": _gru_backward, "cnn": _cnn_backward}


def forward(params: NetworkParams, window: np.ndarray) -> float:
    """Single-window prediction."""
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 2:
        raise InvalidArgumentError("window must be 2-d")
    return float(predict_batch(params, w[None, :, :])[0])


predict = forward


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy itself
    loaded, as ctypes functions, or None where none is found.

    SciPy maps a second OpenBLAS into the process, without numpy's
    symbols, so only a library inside numpy's own install (the wheel's
    ``numpy.libs``) is searched.  /proc/self/maps lists the mappings on
    Linux; elsewhere this finds nothing.
    """
    root = os.path.dirname(np.__file__)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return None
    for path in sorted(paths):
        if not (path.startswith(root) and "openblas" in os.path.basename(path)):
            continue
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread until the block ends, then
    restore the count it had, also on error; nothing where no OpenBLAS
    is found.  trackcast's products are too small to gain from BLAS
    threads, and a sum split across threads changes its last bits."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


@contextlib.contextmanager
def _one_core():
    """Keep this process, and every process forked inside the block, to
    one core until the block ends: OpenBLAS at one thread
    (``_one_blas_thread``) and ``predict_batch`` serial.  Ensemble's
    member pool runs in it, each process on a core of its own."""
    global _serial_predict
    before, _serial_predict = _serial_predict, True
    try:
        with _one_blas_thread():
            yield
    finally:
        _serial_predict = before


def _parallel_forward(run, chunk_starts) -> list:
    """``run`` over every chunk start on a pool of one thread per core,
    with numpy's OpenBLAS held to one thread until the last chunk is
    done: two BLAS threads under two Python threads ran slower than
    serial.  The pool's threads end before this returns."""
    from concurrent.futures import ThreadPoolExecutor

    with _predict_lock, _one_blas_thread(), ThreadPoolExecutor(
        _usable_cores(), thread_name_prefix="trackcast-predict"
    ) as pool:
        futures = [pool.submit(run, a) for a in chunk_starts]
        return [f.result() for f in futures]


def predict_batch(params: NetworkParams, windows) -> np.ndarray:
    """Predictions for an (m, l, n) stack of windows or a
    ``WindowedDataset``, in order.

    An array is made a dataset by ``WindowedDataset.of``; each chunk of
    ``_PREDICT_CHUNK`` windows is gathered from ``starts`` by the call
    that predicts it, so the windows are never all held at once.  With
    two chunks or more, two usable cores or more, and numpy's OpenBLAS
    found, the chunks run in parallel (``_parallel_forward``); otherwise
    one after another, as also inside ``_one_core``, where the processes
    of ensemble's member pool each keep to one core and so never take
    ``_predict_lock``.  The same windows in the same chunks give the
    same bytes either way, from an array or a dataset; a window in
    another chunk, or alone, agrees within rounding, since its bits can
    depend on its row in the chunk through BLAS kernels.
    """
    ds = WindowedDataset.of(windows)
    _check_batch(params, (ds.m, ds.l, ds.n))
    if ds.m == 0:
        return np.empty(0)
    fwd = _FORWARD[params.arch]
    run = lambda a: fwd(params, ds.gather(slice(a, a + _PREDICT_CHUNK)), False)[0]
    chunk_starts = range(0, ds.m, _PREDICT_CHUNK)
    if (len(chunk_starts) < 2 or _serial_predict or _usable_cores() < 2
            or _openblas_threads() is None):
        return np.concatenate([run(a) for a in chunk_starts])
    return np.concatenate(_parallel_forward(run, chunk_starts))


def _penalty(params: NetworkParams, l2_lambda: float) -> float:
    if l2_lambda == 0.0:
        return 0.0
    w = params.vector[: params.prefix]
    return l2_lambda * float(w @ w)


def _loss_only(params, x, y, l2_lambda) -> float:
    preds, _ = _FORWARD[params.arch](params, x, need_cache=False)
    resid = preds - y
    return float(np.mean(resid * resid)) + _penalty(params, l2_lambda)


def loss_and_grads(params: NetworkParams, windows, targets, l2_lambda: float, out=None):
    """Batch mean squared error plus the input-layer L2 penalty, and its
    gradient as one vector laid out like ``params.vector``: written into
    ``out`` when given, else into a new array."""
    x = np.asarray(windows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    _check_batch(params, x.shape)
    if x.shape[0] == 0 or y.shape != (x.shape[0],):
        raise InvalidArgumentError("targets must align with a non-empty batch")
    preds, aux = _FORWARD[params.arch](params, x, need_cache=True)
    resid = preds - y
    lam = float(l2_lambda)
    loss = float(np.mean(resid * resid)) + _penalty(params, lam)
    if not np.isfinite(loss):
        raise NumericDivergenceError("non-finite training loss")
    dpred = 2.0 * resid / x.shape[0]
    grads = np.empty_like(params.vector) if out is None else out
    grads.fill(0.0)
    _BACKWARD[params.arch](params, aux, dpred, params.views(grads))
    if lam != 0.0:
        grads[: params.prefix] += 2.0 * lam * params.vector[: params.prefix]
    return loss, grads


@dataclass
class AdamState:
    """First and second moment vectors, laid out like the parameter
    vector, and the step counter; ``adam_step`` updates all three."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def initialize(cls, params: NetworkParams) -> "AdamState":
        return cls(m=np.zeros_like(params.vector), v=np.zeros_like(params.vector))


def adam_step(params: NetworkParams, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place on ``params.vector``
    (which must be writable) and on ``state``."""
    w = params.vector
    if np.shape(grads) != w.shape or not w.flags.writeable:
        raise InvalidArgumentError("adam_step needs a writable vector and a gradient like it")
    state.t += 1
    state.m *= _ADAM_BETA1
    state.m += (1.0 - _ADAM_BETA1) * grads
    state.v *= _ADAM_BETA2
    state.v += (1.0 - _ADAM_BETA2) * (grads * grads)
    denom = np.sqrt(state.v / (1.0 - _ADAM_BETA2 ** state.t))
    denom += _ADAM_EPS
    update = lr * (state.m / (1.0 - _ADAM_BETA1 ** state.t))
    update /= denom
    w -= update


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch record: end-of-epoch full-train MSE, validation MSE,
    where training stopped, and which epoch's weights were returned."""

    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    stopped_epoch: int
    best_epoch: int
    restored: bool


class EarlyStopper:
    """Stop once validation loss has risen ``patience`` epochs in a row.

    A rise means strictly greater than the previous epoch's value.  The
    best (lowest) epoch is tracked so its weights can be restored.
    """

    def __init__(self, patience: int):
        if int(patience) < 1:
            raise InvalidArgumentError("patience must be positive")
        self.patience = int(patience)
        self.best_value = np.inf
        self.best_epoch = 0
        self.epochs_seen = 0
        self._previous = None
        self._streak = 0

    def update(self, value: float) -> tuple[bool, bool]:
        """Record one epoch's validation loss.

        Returns (improved, stop): whether this is a new best, and
        whether training should stop now.
        """
        value = float(value)
        self.epochs_seen += 1
        improved = value < self.best_value
        if improved:
            self.best_value = value
            self.best_epoch = self.epochs_seen
        if self._previous is not None and value > self._previous:
            self._streak += 1
        else:
            self._streak = 0
        self._previous = value
        return improved, self._streak >= self.patience


def dataset_mse(params: NetworkParams, ds: WindowedDataset) -> float:
    """Plain MSE of the network over a windowed dataset, predicted by
    ``predict_batch(params, ds)`` one gathered chunk at a time."""
    if ds.m == 0:
        raise InvalidArgumentError("cannot evaluate on an empty dataset")
    resid = predict_batch(params, ds) - ds.targets
    return float(resid @ resid) / ds.m


def train(cfg: NetworkConfig, train_ds: WindowedDataset, val_ds: WindowedDataset):
    """Minibatch Adam with seeded shuffling and early stopping.

    Returns (params, trace); the returned parameters are a read-only
    copy of the weights with the lowest recorded validation loss.
    Training updates one private weight vector in place.  A non-finite
    loss raises a divergence error carrying the partial trace.
    """
    if train_ds.m == 0 or val_ds.m == 0:
        raise IllPosedError("train and validation sets must be non-empty")
    if (train_ds.l, train_ds.n) != (val_ds.l, val_ds.n):
        raise InvalidArgumentError("train and validation window shapes must match")
    initial = init_params(cfg, train_ds.n, train_ds.l)
    params = replace(initial, vector=initial.vector.copy())
    grads = np.empty_like(params.vector)
    best = np.empty_like(params.vector)
    state = AdamState.initialize(params)
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, 1))
    stopper = EarlyStopper(cfg.patience)
    train_losses: list[float] = []
    val_losses: list[float] = []

    def trace_so_far(restored: bool = False) -> TrainTrace:
        return TrainTrace(train_losses=tuple(train_losses), val_losses=tuple(val_losses),
                          stopped_epoch=len(val_losses), best_epoch=stopper.best_epoch,
                          restored=restored)

    for _epoch in range(1, cfg.max_epochs + 1):
        perm = shuffle_rng.permutation(train_ds.m)
        for start in range(0, train_ds.m, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            try:
                loss_and_grads(params, train_ds.gather(idx), train_ds.targets[idx],
                               cfg.l2_lambda, out=grads)
            except NumericDivergenceError as exc:
                raise NumericDivergenceError(str(exc), trace=trace_so_far()) from None
            adam_step(params, grads, state, cfg.learning_rate)
        train_mse = dataset_mse(params, train_ds)
        val_mse = dataset_mse(params, val_ds)
        if not (np.isfinite(train_mse) and np.isfinite(val_mse)):
            raise NumericDivergenceError("non-finite epoch loss", trace=trace_so_far())
        train_losses.append(train_mse)
        val_losses.append(val_mse)
        improved, stop = stopper.update(val_mse)
        if improved:
            np.copyto(best, params.vector)
        if stop:
            break

    # the first epoch always improves on inf, and without a restore the
    # best epoch is the last one, so ``best`` holds the weights to return
    best.setflags(write=False)
    return replace(initial, vector=best), trace_so_far(stopper.best_epoch < len(val_losses))


def grad_check(cfg: NetworkConfig, windows, targets, step: float = 1e-5) -> float:
    """Largest relative disagreement between analytic gradients and
    central finite differences over every parameter coordinate."""
    x = np.asarray(windows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    initial = init_params(cfg, x.shape[2], x.shape[1])
    _, grads = loss_and_grads(initial, x, y, cfg.l2_lambda)
    probe = replace(initial, vector=initial.vector.copy())
    w = probe.vector
    worst = 0.0
    for k in range(w.size):
        base = w[k]
        w[k] = base + step
        up = _loss_only(probe, x, y, cfg.l2_lambda)
        w[k] = base - step
        down = _loss_only(probe, x, y, cfg.l2_lambda)
        w[k] = base
        numeric = (up - down) / (2.0 * step)
        denom = max(abs(grads[k]) + abs(numeric), 1e-8)
        worst = max(worst, abs(grads[k] - numeric) / denom)
    return float(worst)
