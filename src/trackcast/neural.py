"""From-scratch neural one-step forecasters on numpy.

Three architectures share one training loop: a single-layer LSTM, a
single-layer GRU (update and reset gates, no output gate, so fewer
parameters than the LSTM), and a one-dimensional convolutional net
whose kernels slide along the time axis.  Each feeds a one-neuron
dense head.  Gradients are written by hand and verified against
central finite differences.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import WindowedDataset
from .errors import InvalidArgumentError, NumericDivergenceError
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
_predict_pool = None  # created by the first parallel predict_batch call
_predict_lock = threading.Lock()


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
        if float(self.learning_rate) <= 0.0:
            raise InvalidArgumentError("learning_rate must be positive")
        if float(self.l2_lambda) < 0.0:
            raise InvalidArgumentError("l2_lambda must be non-negative")


@dataclass(frozen=True)
class NetworkParams:
    """Named parameter tensors for one network instance.

    Tensors are read-only; updates build a new instance, which makes
    best-epoch snapshots free.
    """

    arch: str
    n_features: int
    window_len: int
    hidden_size: int
    kernel_count: int
    kernel_width: int
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        frozen = {}
        for name, arr in self.tensors.items():
            a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
            a.setflags(write=False)
            frozen[name] = a
        object.__setattr__(self, "tensors", frozen)
        layout = _tensor_layout(self.arch, self.n_features, self.window_len,
                                self.hidden_size, self.kernel_count, self.kernel_width)
        if {k: a.shape for k, a in frozen.items()} != {k: s for k, (s, _) in layout.items()}:
            raise InvalidArgumentError(f"{self.arch} tensors disagree with the network sizes")

    def with_tensors(self, tensors: dict[str, np.ndarray]) -> "NetworkParams":
        return replace(self, tensors=tensors)

    def parameter_count(self) -> int:
        return sum(a.size for a in self.tensors.values())


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


def _tensor_layout(arch, n, l, hidden, count, width) -> dict:
    """Every tensor of a network in draw order, as name -> (shape,
    fan_in); fan_in 0 marks a bias."""
    n, l, hidden, count, width = (int(v) for v in (n, l, hidden, count, width))
    if arch in ("lstm", "gru"):
        layout = {}
        for g in _LSTM_GATES if arch == "lstm" else _GRU_GATES:
            layout[f"W{g}"] = ((hidden, n), n + hidden)
            layout[f"U{g}"] = ((hidden, hidden), n + hidden)
            layout[f"b{g}"] = ((hidden,), 0)
        layout["head_w"] = ((hidden,), hidden)
    elif arch == "cnn":
        head_in = count * (l - width + 1)
        layout = {"kernels": ((count, width, n), width * n), "conv_b": ((count,), 0),
                  "head_w": ((head_in,), head_in)}
    else:
        raise InvalidArgumentError(f"unknown arch {arch!r}")
    layout["head_b"] = ((1,), 0)
    return layout


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
    for name, (shape, fan_in) in _tensor_layout(cfg.arch, n, l, hidden, count, width).items():
        if fan_in:
            s = 1.0 / np.sqrt(fan_in)
            tensors[name] = rng.uniform(-s, s, size=shape)
        else:
            tensors[name] = np.full(shape, 1.0 if (cfg.arch, name) == ("lstm", "bf") else 0.0)
    return NetworkParams(
        arch=cfg.arch, n_features=n, window_len=l, hidden_size=hidden,
        kernel_count=count, kernel_width=width, tensors=tensors,
    )


def _check_batch(params: NetworkParams, x: np.ndarray) -> None:
    if x.ndim != 3 or x.shape[1] != params.window_len or x.shape[2] != params.n_features:
        raise InvalidArgumentError(
            f"windows must have shape (batch, {params.window_len}, {params.n_features})"
        )


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, 0.5 * tanh(0.5 a) + 0.5.

    The same function as 1 / (1 + exp(-a)), computed in one new array
    without overflow for any finite ``a``; about half the cost of
    ``scipy.special.expit``.
    """
    out = np.multiply(a, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _lstm_forward(params, x, need_cache):
    t = params.tensors
    batch, l, _ = x.shape
    hidden = params.hidden_size
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    cache = [] if need_cache else None
    for step in range(l):
        xs = x[:, step, :]
        i = _sigmoid(xs @ t["Wi"].T + h @ t["Ui"].T + t["bi"])
        f = _sigmoid(xs @ t["Wf"].T + h @ t["Uf"].T + t["bf"])
        o = _sigmoid(xs @ t["Wo"].T + h @ t["Uo"].T + t["bo"])
        g = np.tanh(xs @ t["Wg"].T + h @ t["Ug"].T + t["bg"])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        if need_cache:
            cache.append((xs, h, c, i, f, o, g, tc))
        h, c = h_new, c_new
    preds = h @ t["head_w"] + t["head_b"][0]
    return preds, (h, cache)


def _lstm_backward(params, aux, dpred):
    t = params.tensors
    h_last, cache = aux
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    grads["head_w"] = h_last.T @ dpred
    grads["head_b"] = np.array([dpred.sum()])
    dh = dpred[:, None] * t["head_w"][None, :]
    dc = np.zeros_like(dh)
    for step in range(len(cache) - 1, -1, -1):
        xs, h_prev, c_prev, i, f, o, g, tc = cache[step]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dai = di * i * (1.0 - i)
        daf = df * f * (1.0 - f)
        dao = do * o * (1.0 - o)
        dag = dg * (1.0 - g * g)
        for name, da in (("i", dai), ("f", daf), ("o", dao), ("g", dag)):
            grads[f"W{name}"] += da.T @ xs
            grads[f"U{name}"] += da.T @ h_prev
            grads[f"b{name}"] += da.sum(axis=0)
        dh = dai @ t["Ui"] + daf @ t["Uf"] + dao @ t["Uo"] + dag @ t["Ug"]
        dc = dc * f
    return grads


def _gru_forward(params, x, need_cache):
    t = params.tensors
    batch, l, _ = x.shape
    h = np.zeros((batch, params.hidden_size))
    cache = [] if need_cache else None
    for step in range(l):
        xs = x[:, step, :]
        z = _sigmoid(xs @ t["Wz"].T + h @ t["Uz"].T + t["bz"])
        r = _sigmoid(xs @ t["Wr"].T + h @ t["Ur"].T + t["br"])
        hh = np.tanh(xs @ t["Wh"].T + (r * h) @ t["Uh"].T + t["bh"])
        h_new = (1.0 - z) * h + z * hh
        if need_cache:
            cache.append((xs, h, z, r, hh))
        h = h_new
    preds = h @ t["head_w"] + t["head_b"][0]
    return preds, (h, cache)


def _gru_backward(params, aux, dpred):
    t = params.tensors
    h_last, cache = aux
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    grads["head_w"] = h_last.T @ dpred
    grads["head_b"] = np.array([dpred.sum()])
    dh = dpred[:, None] * t["head_w"][None, :]
    for step in range(len(cache) - 1, -1, -1):
        xs, h_prev, z, r, hh = cache[step]
        dz = dh * (hh - h_prev)
        dhh = dh * z
        dh_prev = dh * (1.0 - z)
        dah = dhh * (1.0 - hh * hh)
        grads["Wh"] += dah.T @ xs
        grads["Uh"] += dah.T @ (r * h_prev)
        grads["bh"] += dah.sum(axis=0)
        drh = dah @ t["Uh"]
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        daz = dz * z * (1.0 - z)
        dar = dr * r * (1.0 - r)
        grads["Wz"] += daz.T @ xs
        grads["Uz"] += daz.T @ h_prev
        grads["bz"] += daz.sum(axis=0)
        grads["Wr"] += dar.T @ xs
        grads["Ur"] += dar.T @ h_prev
        grads["br"] += dar.sum(axis=0)
        dh = dh_prev + daz @ t["Uz"] + dar @ t["Ur"]
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


def _cnn_backward(params, aux, dpred):
    t = params.tensors
    xcol, pre, flat = aux
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    grads["head_w"] = flat.T @ dpred
    grads["head_b"] = np.array([dpred.sum()])
    dflat = dpred[:, None] * t["head_w"][None, :]
    dpre = dflat.reshape(pre.shape) * (pre > 0.0)
    grads["conv_b"] = dpre.sum(axis=(0, 2))
    grads["kernels"] = np.einsum("bct,btja->caj", dpre, xcol)
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


def _parallel_forward(fwd, params: NetworkParams, chunks, blas) -> list:
    """``fwd`` over every chunk on the pool, one thread per core, with
    numpy's OpenBLAS held to one thread until the last chunk is done:
    two BLAS threads under two Python threads ran slower than serial."""
    from concurrent.futures import ThreadPoolExecutor, wait

    global _predict_pool
    get_threads, set_threads = blas
    with _predict_lock:
        if _predict_pool is None:
            _predict_pool = ThreadPoolExecutor(_usable_cores(),
                                               thread_name_prefix="trackcast-predict")
        before = get_threads()
        set_threads(1)
        try:
            futures = [_predict_pool.submit(fwd, params, c, False) for c in chunks]
            wait(futures)
            return [f.result()[0] for f in futures]
        finally:
            set_threads(before)


def predict_batch(params: NetworkParams, windows: np.ndarray) -> np.ndarray:
    """Predictions for a stack of windows; equals per-window prediction
    elementwise.

    Windows run in chunks of ``_PREDICT_CHUNK``.  With two chunks or
    more, two usable cores or more, and numpy's OpenBLAS found, the
    chunks run in parallel (``_parallel_forward``); otherwise one after
    another.  Each chunk's result is the same either way.
    """
    x = np.asarray(windows, dtype=np.float64)
    _check_batch(params, x)
    if x.shape[0] == 0:
        return np.empty(0)
    fwd = _FORWARD[params.arch]
    chunks = [x[a : a + _PREDICT_CHUNK] for a in range(0, x.shape[0], _PREDICT_CHUNK)]
    blas = _openblas_threads() if len(chunks) > 1 and _usable_cores() > 1 else None
    if blas is None:
        return np.concatenate([fwd(params, c, False)[0] for c in chunks])
    return np.concatenate(_parallel_forward(fwd, params, chunks, blas))


def _penalty(params: NetworkParams, l2_lambda: float) -> float:
    if l2_lambda == 0.0:
        return 0.0
    total = 0.0
    for name in regularized_tensor_names(params.arch):
        w = params.tensors[name]
        total += float((w * w).sum())
    return l2_lambda * total


def _loss_only(params, x, y, l2_lambda) -> float:
    preds, _ = _FORWARD[params.arch](params, x, need_cache=False)
    resid = preds - y
    return float(np.mean(resid * resid)) + _penalty(params, l2_lambda)


def loss_and_grads(params: NetworkParams, windows, targets, l2_lambda: float):
    """Batch mean squared error plus the input-layer L2 penalty, with
    gradients for every tensor."""
    x = np.asarray(windows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    _check_batch(params, x)
    if x.shape[0] == 0 or y.shape != (x.shape[0],):
        raise InvalidArgumentError("targets must align with a non-empty batch")
    preds, aux = _FORWARD[params.arch](params, x, need_cache=True)
    resid = preds - y
    loss = float(np.mean(resid * resid)) + _penalty(params, float(l2_lambda))
    if not np.isfinite(loss):
        raise NumericDivergenceError("non-finite training loss")
    dpred = 2.0 * resid / x.shape[0]
    grads = _BACKWARD[params.arch](params, aux, dpred)
    lam = float(l2_lambda)
    if lam != 0.0:
        for name in regularized_tensor_names(params.arch):
            grads[name] = grads[name] + 2.0 * lam * params.tensors[name]
    return loss, grads


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int

    @classmethod
    def initialize(cls, params: NetworkParams) -> "AdamState":
        zeros = lambda: {k: np.zeros_like(a) for k, a in params.tensors.items()}
        return cls(m=zeros(), v=zeros(), t=0)


def adam_step(params: NetworkParams, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns new params and state."""
    if set(grads) != set(params.tensors):
        raise InvalidArgumentError("gradient names must match parameter names")
    t_new = state.t + 1
    c1 = 1.0 - _ADAM_BETA1 ** t_new
    c2 = 1.0 - _ADAM_BETA2 ** t_new
    new_tensors = {}
    new_m = {}
    new_v = {}
    for name, arr in params.tensors.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != arr.shape:
            raise InvalidArgumentError(f"gradient shape mismatch for {name}")
        m = _ADAM_BETA1 * state.m[name] + (1.0 - _ADAM_BETA1) * g
        v = _ADAM_BETA2 * state.v[name] + (1.0 - _ADAM_BETA2) * (g * g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
        new_tensors[name] = arr - update
        new_m[name] = m
        new_v[name] = v
    return params.with_tensors(new_tensors), AdamState(m=new_m, v=new_v, t=t_new)


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
    """Plain MSE of the network over a windowed dataset."""
    if ds.m == 0:
        raise InvalidArgumentError("cannot evaluate on an empty dataset")
    resid = predict_batch(params, ds.windows) - ds.targets
    return float(resid @ resid) / ds.m


def train(cfg: NetworkConfig, train_ds: WindowedDataset, val_ds: WindowedDataset):
    """Minibatch Adam with seeded shuffling and early stopping.

    Returns (params, trace); the returned parameters are the snapshot
    with the lowest recorded validation loss.  A non-finite loss raises
    a divergence error carrying the partial trace.
    """
    if train_ds.m == 0 or val_ds.m == 0:
        raise InvalidArgumentError("train and validation sets must be non-empty")
    if (train_ds.l, train_ds.n) != (val_ds.l, val_ds.n):
        raise InvalidArgumentError("train and validation window shapes must match")
    params = init_params(cfg, train_ds.n, train_ds.l)
    state = AdamState.initialize(params)
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, 1))
    stopper = EarlyStopper(cfg.patience)
    best_params = params
    train_losses: list[float] = []
    val_losses: list[float] = []

    def partial_trace() -> TrainTrace:
        epochs = len(val_losses)
        return TrainTrace(
            train_losses=tuple(train_losses),
            val_losses=tuple(val_losses),
            stopped_epoch=epochs,
            best_epoch=stopper.best_epoch,
            restored=False,
        )

    for _epoch in range(1, cfg.max_epochs + 1):
        perm = shuffle_rng.permutation(train_ds.m)
        for start in range(0, train_ds.m, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            try:
                _, grads = loss_and_grads(
                    params,
                    train_ds.windows[idx],
                    train_ds.targets[idx],
                    cfg.l2_lambda,
                )
            except NumericDivergenceError as exc:
                raise NumericDivergenceError(str(exc), trace=partial_trace()) from None
            params, state = adam_step(params, grads, state, cfg.learning_rate)
        train_mse = dataset_mse(params, train_ds)
        val_mse = dataset_mse(params, val_ds)
        if not (np.isfinite(train_mse) and np.isfinite(val_mse)):
            raise NumericDivergenceError(
                "non-finite epoch loss", trace=partial_trace()
            )
        train_losses.append(train_mse)
        val_losses.append(val_mse)
        improved, stop = stopper.update(val_mse)
        if improved:
            best_params = params
        if stop:
            break

    stopped_epoch = len(val_losses)
    restored = stopper.best_epoch < stopped_epoch
    final = best_params if restored else params
    trace = TrainTrace(
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        stopped_epoch=stopped_epoch,
        best_epoch=stopper.best_epoch,
        restored=restored,
    )
    return final, trace


def grad_check(cfg: NetworkConfig, windows, targets, step: float = 1e-5) -> float:
    """Largest relative disagreement between analytic gradients and
    central finite differences over every parameter coordinate."""
    x = np.asarray(windows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    params = init_params(cfg, x.shape[2], x.shape[1])
    _, grads = loss_and_grads(params, x, y, cfg.l2_lambda)
    worst = 0.0
    for name, arr in params.tensors.items():
        flat = arr.ravel()
        for k in range(flat.shape[0]):
            for sign in (1.0, -1.0):
                bumped = arr.copy()
                bumped.ravel()[k] += sign * step
                probe = params.with_tensors({**params.tensors, name: bumped})
                value = _loss_only(probe, x, y, cfg.l2_lambda)
                if sign > 0:
                    up = value
                else:
                    down = value
            numeric = (up - down) / (2.0 * step)
            analytic = float(grads[name].ravel()[k])
            denom = max(abs(analytic) + abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
