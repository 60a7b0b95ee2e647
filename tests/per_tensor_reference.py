"""Per-tensor network training step, kept as the reference for the flat
parameter vector.

Every tensor is its own array in a dict; each step builds new arrays for
the gates, caches, gradients and Adam moments.  The formulas and their
operation order are the ones the flat, in-place implementation in
``trackcast.neural`` must reproduce bit for bit.
"""
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
REGULARIZED = {
    "lstm": tuple(f"{w}{g}" for g in "ifog" for w in "WU"),
    "gru": tuple(f"{w}{g}" for g in "zrh" for w in "WU"),
    "cnn": ("kernels",),
}


def sigmoid(a):
    return 0.5 * np.tanh(0.5 * a) + 0.5


def lstm_loss_grads(t, x, dpred_of):
    batch, l, _ = x.shape
    h = np.zeros((batch, t["Ui"].shape[0]))
    c = np.zeros_like(h)
    cache = []
    for step in range(l):
        xs = x[:, step, :]
        i = sigmoid(xs @ t["Wi"].T + h @ t["Ui"].T + t["bi"])
        f = sigmoid(xs @ t["Wf"].T + h @ t["Uf"].T + t["bf"])
        o = sigmoid(xs @ t["Wo"].T + h @ t["Uo"].T + t["bo"])
        g = np.tanh(xs @ t["Wg"].T + h @ t["Ug"].T + t["bg"])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        cache.append((xs, h, c, i, f, o, g, tc))
        h, c = o * tc, c_new
    loss, dpred = dpred_of(h @ t["head_w"] + t["head_b"][0])
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    grads["head_w"] = h.T @ dpred
    grads["head_b"] = np.array([dpred.sum()])
    dh = dpred[:, None] * t["head_w"][None, :]
    dc = np.zeros_like(dh)
    for xs, h_prev, c_prev, i, f, o, g, tc in reversed(cache):
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dai = dc * g * i * (1.0 - i)
        daf = dc * c_prev * f * (1.0 - f)
        dao = do * o * (1.0 - o)
        dag = dc * i * (1.0 - g * g)
        for name, da in (("i", dai), ("f", daf), ("o", dao), ("g", dag)):
            grads[f"W{name}"] += da.T @ xs
            grads[f"U{name}"] += da.T @ h_prev
            grads[f"b{name}"] += da.sum(axis=0)
        dh = dai @ t["Ui"] + daf @ t["Uf"] + dao @ t["Uo"] + dag @ t["Ug"]
        dc = dc * f
    return loss, grads


def gru_loss_grads(t, x, dpred_of):
    batch, l, _ = x.shape
    h = np.zeros((batch, t["Uz"].shape[0]))
    cache = []
    for step in range(l):
        xs = x[:, step, :]
        z = sigmoid(xs @ t["Wz"].T + h @ t["Uz"].T + t["bz"])
        r = sigmoid(xs @ t["Wr"].T + h @ t["Ur"].T + t["br"])
        hh = np.tanh(xs @ t["Wh"].T + (r * h) @ t["Uh"].T + t["bh"])
        cache.append((xs, h, z, r, hh))
        h = (1.0 - z) * h + z * hh
    loss, dpred = dpred_of(h @ t["head_w"] + t["head_b"][0])
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    grads["head_w"] = h.T @ dpred
    grads["head_b"] = np.array([dpred.sum()])
    dh = dpred[:, None] * t["head_w"][None, :]
    for xs, h_prev, z, r, hh in reversed(cache):
        dz = dh * (hh - h_prev)
        dh_prev = dh * (1.0 - z)
        dah = dh * z * (1.0 - hh * hh)
        grads["Wh"] += dah.T @ xs
        grads["Uh"] += dah.T @ (r * h_prev)
        grads["bh"] += dah.sum(axis=0)
        drh = dah @ t["Uh"]
        dh_prev = dh_prev + drh * r
        daz = dz * z * (1.0 - z)
        dar = drh * h_prev * r * (1.0 - r)
        for name, da in (("z", daz), ("r", dar)):
            grads[f"W{name}"] += da.T @ xs
            grads[f"U{name}"] += da.T @ h_prev
            grads[f"b{name}"] += da.sum(axis=0)
        dh = dh_prev + daz @ t["Uz"] + dar @ t["Ur"]
    return loss, grads


def cnn_loss_grads(t, x, dpred_of):
    width = t["kernels"].shape[1]
    xcol = sliding_window_view(x, width, axis=1)
    pre = np.einsum("caj,btja->bct", t["kernels"], xcol) + t["conv_b"][None, :, None]
    flat = np.maximum(pre, 0.0).reshape(x.shape[0], -1)
    loss, dpred = dpred_of(flat @ t["head_w"] + t["head_b"][0])
    dflat = dpred[:, None] * t["head_w"][None, :]
    dpre = dflat.reshape(pre.shape) * (pre > 0.0)
    grads = {
        "kernels": np.einsum("bct,btja->caj", dpre, xcol),
        "conv_b": dpre.sum(axis=(0, 2)),
        "head_w": flat.T @ dpred,
        "head_b": np.array([dpred.sum()]),
    }
    return loss, grads


LOSS_GRADS = {"lstm": lstm_loss_grads, "gru": gru_loss_grads, "cnn": cnn_loss_grads}


def loss_and_grads(arch, tensors, x, y, l2_lambda):
    """Batch MSE plus the L2 penalty on the regularized tensors, and the
    gradient of every tensor."""

    def dpred_of(preds):
        resid = preds - y
        return float(np.mean(resid * resid)), 2.0 * resid / x.shape[0]

    loss, grads = LOSS_GRADS[arch](tensors, x, dpred_of)
    for name in REGULARIZED[arch]:
        loss += l2_lambda * float((tensors[name] * tensors[name]).sum())
        if l2_lambda != 0.0:
            grads[name] = grads[name] + 2.0 * l2_lambda * tensors[name]
    return loss, grads


def adam_step(tensors, grads, m, v, t, lr):
    """Step ``t`` (counting from 1) of bias-corrected Adam; returns new
    tensors and moments."""
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    new, new_m, new_v = {}, {}, {}
    for name, arr in tensors.items():
        g = grads[name]
        new_m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        new_v[name] = BETA2 * v[name] + (1.0 - BETA2) * (g * g)
        update = lr * (new_m[name] / c1) / (np.sqrt(new_v[name] / c2) + EPS)
        new[name] = arr - update
    return new, new_m, new_v
