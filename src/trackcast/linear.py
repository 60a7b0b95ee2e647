"""Linear one-step forecasters: exogenous regression and ARIMAX.

Both consume windowed datasets.  Each window contributes one training
equation whose response is the window's one-step-ahead target; the
ARIMAX variant adds autoregressive lags, an in-window moving-average
residual recursion, and optional differencing of the target channel.
The row being forecast lies outside the window, so its exogenous
features are approximated by the newest in-window row (samples sit
0.25 m apart, so consecutive rows carry nearly identical features).
With p = d = q = 0 the two paths solve the same least-squares problem
and produce matching predictions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WindowedDataset
from .errors import IllPosedError, InvalidArgumentError

_RIDGE = 1e-8
_COND_LIMIT = 1e12
_REFINE_ITERS = 200
_REFINE_LR = 1e-3
_REFINE_HALVINGS = 20
_REFINE_MAX_REJECTS = 10


@dataclass(frozen=True)
class LinearModel:
    """W.x + b on the newest window row's exogenous features."""

    weights: np.ndarray
    bias: float
    target_feature: int
    n_features: int
    ridge_fallback: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise InvalidArgumentError("weights must be a vector")
        if w.shape[0] != int(self.n_features) - 1:
            raise InvalidArgumentError(
                "weight count must equal the exogenous feature count"
            )
        w = np.ascontiguousarray(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "target_feature", int(self.target_feature))
        object.__setattr__(self, "n_features", int(self.n_features))


def _exog_indices(n: int, target_feature: int) -> list[int]:
    return [j for j in range(n) if j != target_feature]


def _solve_normal_equations(design: np.ndarray, response: np.ndarray):
    """Least squares via the normal equations, with a tiny ridge fallback
    when the Gram matrix is numerically singular (e.g. duplicated
    feature columns).  Returns (coefficients, fallback_used)."""
    gram = design.T @ design
    rhs = design.T @ response
    fallback = False
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        gram = gram + _RIDGE * np.eye(gram.shape[0])
        fallback = True
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        gram = gram + _RIDGE * np.eye(gram.shape[0])
        fallback = True
        coef = np.linalg.solve(gram, rhs)
    return coef, fallback


def fit_linear(ds: WindowedDataset) -> LinearModel:
    """Ordinary least squares of targets on last-row exogenous features."""
    if ds.m == 0:
        raise InvalidArgumentError("cannot fit on an empty dataset")
    exog = _exog_indices(ds.n, ds.target_feature)
    if ds.m <= len(exog):
        raise IllPosedError(
            f"{ds.m} windows cannot determine {len(exog)} feature weights"
        )
    x = ds.windows[:, -1, exog]
    design = np.hstack([np.ones((ds.m, 1)), x])
    coef, fallback = _solve_normal_equations(design, ds.targets)
    return LinearModel(
        weights=coef[1:],
        bias=float(coef[0]),
        target_feature=ds.target_feature,
        n_features=ds.n,
        ridge_fallback=fallback,
    )


def predict_linear(model: LinearModel, window: np.ndarray) -> float:
    """Forecast from one window's newest row."""
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != model.n_features:
        raise InvalidArgumentError(
            f"window must have {model.n_features} feature columns"
        )
    x = w[-1, _exog_indices(model.n_features, model.target_feature)]
    return float(model.weights @ x + model.bias)


def predict_linear_batch(model: LinearModel, windows: np.ndarray) -> np.ndarray:
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3 or w.shape[2] != model.n_features:
        raise InvalidArgumentError(
            f"windows must have {model.n_features} feature columns"
        )
    x = w[:, -1, _exog_indices(model.n_features, model.target_feature)]
    return x @ model.weights + model.bias


def difference(series, d: int) -> np.ndarray:
    """Apply the first-difference operator ``d`` times."""
    s = np.asarray(series, dtype=np.float64)
    if s.ndim != 1:
        raise InvalidArgumentError("series must be 1-d")
    d = int(d)
    if d < 0:
        raise InvalidArgumentError("differencing degree must be non-negative")
    if s.shape[0] <= d:
        raise InvalidArgumentError(
            f"series of length {s.shape[0]} cannot be differenced {d} times"
        )
    return np.diff(s, n=d) if d else s.copy()


def undifference(last_values, forecast: float, d: int) -> float:
    """Integrate a degree-``d`` differenced forecast back to the original
    scale, given the last ``d`` original-scale values."""
    d = int(d)
    tail = np.asarray(last_values, dtype=np.float64)
    if tail.ndim != 1 or tail.shape[0] != d:
        raise InvalidArgumentError(f"need exactly {d} trailing original values")
    level_tails = []
    row = tail
    for _ in range(d):
        level_tails.append(float(row[-1]))
        row = np.diff(row)
    value = float(forecast)
    for k in reversed(range(d)):
        value += level_tails[k]
    return value


@dataclass(frozen=True)
class ArimaxModel:
    """Differenced AR + MA + exogenous one-step forecaster.

    Forecasts rebuild their residual state from each window with
    presample residuals fixed at zero, so no series history is carried
    beyond the parameters themselves.
    """

    p: int
    d: int
    q: int
    c: float
    phi: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    target_feature: int
    n_features: int
    css_initial: float
    css_final: float
    css_warning: bool = False

    def __post_init__(self):
        for name in ("phi", "theta", "beta"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.phi.shape != (int(self.p),) or self.theta.shape != (int(self.q),):
            raise InvalidArgumentError("phi/theta lengths must match p/q")
        if self.beta.shape != (int(self.n_features) - 1,):
            raise InvalidArgumentError("beta length must match the exogenous count")
        object.__setattr__(self, "c", float(self.c))


def _window_diff_parts(ds: WindowedDataset, d: int):
    """Differenced in-window series, differenced responses, and aligned
    exogenous rows for every window."""
    tf = ds.target_feature
    exog = _exog_indices(ds.n, tf)
    series = np.concatenate(
        [ds.windows[:, :, tf], ds.targets[:, None]], axis=1
    )  # (m, l+1)
    diffed = np.diff(series, n=d, axis=1) if d else series
    z = diffed[:, :-1]
    zy = diffed[:, -1]
    xt = ds.windows[:, d:, exog] if exog else np.zeros((ds.m, ds.l - d, 0))
    x_last = ds.windows[:, -1, exog] if exog else np.zeros((ds.m, 0))
    return z, zy, xt, x_last


def _arimax_forward(c, phi, theta, beta, z, xt, x_last):
    """Residual recursion and one-step forecast, vectorized over windows.

    The recursion starts at t = p (earlier residuals are zero) and uses
    each position's own exogenous row; the final forecast uses the
    newest available row's features.
    """
    m, big_l = z.shape
    p, q = phi.shape[0], theta.shape[0]
    eps = np.zeros((m, big_l))
    ex = xt @ beta if beta.size else np.zeros((m, big_l))
    for t in range(p, big_l):
        pred = c + ex[:, t]
        for i in range(1, p + 1):
            pred = pred + phi[i - 1] * z[:, t - i]
        for j in range(1, min(q, t) + 1):
            pred = pred + theta[j - 1] * eps[:, t - j]
        eps[:, t] = z[:, t] - pred
    zhat = np.full(m, c)
    if beta.size:
        zhat = zhat + x_last @ beta
    for i in range(1, p + 1):
        zhat = zhat + phi[i - 1] * z[:, big_l - i]
    for j in range(1, q + 1):
        if big_l - j >= 0:
            zhat = zhat + theta[j - 1] * eps[:, big_l - j]
    return zhat, eps


def _pack(c, phi, theta, beta):
    return np.concatenate(([c], phi, theta, beta))


def _unpack(vec, p, q):
    return float(vec[0]), vec[1 : 1 + p], vec[1 + p : 1 + p + q], vec[1 + p + q :]


def _css_value(vec, p, q, z, zy, xt, x_last) -> float:
    c, phi, theta, beta = _unpack(vec, p, q)
    zhat, _ = _arimax_forward(c, phi, theta, beta, z, xt, x_last)
    r = zy - zhat
    return float(r @ r)


def _css_and_grad(vec, p, q, z, zy, xt, x_last):
    """Conditional sum of squares and its gradient via reverse
    accumulation through the residual recursion."""
    c, phi, theta, beta = _unpack(vec, p, q)
    m, big_l = z.shape
    zhat, eps = _arimax_forward(c, phi, theta, beta, z, xt, x_last)
    r = zy - zhat
    css = float(r @ r)
    dz = -2.0 * r  # dCSS/dzhat
    g_c = float(dz.sum())
    g_phi = np.array([float(dz @ z[:, big_l - i]) for i in range(1, p + 1)])
    g_theta = np.zeros(q)
    g_beta = x_last.T @ dz if beta.size else np.zeros(0)
    adj = np.zeros((m, big_l))
    for j in range(1, q + 1):
        t = big_l - j
        if t >= 0:
            g_theta[j - 1] += float(dz @ eps[:, t])
            if t >= p:
                adj[:, t] += dz * theta[j - 1]
    for t in range(big_l - 1, p - 1, -1):
        at = adj[:, t]
        if not at.any():
            continue
        g_c -= float(at.sum())
        for i in range(1, p + 1):
            g_phi[i - 1] -= float(at @ z[:, t - i])
        for j in range(1, min(q, t) + 1):
            g_theta[j - 1] -= float(at @ eps[:, t - j])
            if t - j >= p:
                adj[:, t - j] -= theta[j - 1] * at
        if beta.size:
            g_beta = g_beta - xt[:, t, :].T @ at
    return css, np.concatenate(([g_c], g_phi, g_theta, g_beta))


def check_order(p, d, q) -> tuple[int, int, int]:
    """The ARIMA order (p, d, q) as ints, checked for the ranges every
    fit needs: no negative entry and d at most 2.  The checks against
    the window length stay in ``fit_arimax``."""
    p, d, q = int(p), int(d), int(q)
    if p < 0 or d < 0 or q < 0:
        raise InvalidArgumentError("orders must be non-negative")
    if d > 2:
        raise InvalidArgumentError("differencing degree is capped at 2")
    return p, d, q


def fit_arimax(ds: WindowedDataset, p: int, d: int, q: int) -> ArimaxModel:
    """Two-stage fit: regression-based initialization, then gradient
    refinement of the conditional sum of squared one-step errors.

    Stage one fits a long autoregression (order p + q + 2) to in-window
    interior positions to estimate residuals, then regresses each
    window's differenced response on its lagged values, lagged residual
    estimates, and newest exogenous row.  With q = 0 the residual stage
    is unnecessary and the initialization already minimizes the CSS
    exactly, so refinement is skipped.  Refinement accepts a step only
    if the CSS does not increase, halving the step up to 20 times; ten
    consecutive full rejections abandon refinement and return the
    stage-one estimate with a warning flag.
    """
    p, d, q = check_order(p, d, q)
    if ds.l <= p + d:
        raise InvalidArgumentError(
            f"window length {ds.l} must exceed p + d = {p + d}"
        )
    if ds.l <= q:
        raise InvalidArgumentError(f"window length {ds.l} must exceed q = {q}")
    if q > 0 and ds.l < p + q + d + 3:
        raise InvalidArgumentError(
            f"window length {ds.l} is too short to initialize residuals; "
            f"q > 0 needs l >= p + q + d + 3 = {p + q + d + 3}"
        )
    if ds.m == 0:
        raise InvalidArgumentError("cannot fit on an empty dataset")

    z, zy, xt, x_last = _window_diff_parts(ds, d)
    m, big_l = z.shape
    nex = x_last.shape[1]

    eps0 = np.zeros((m, big_l))
    if q > 0:
        order = p + q + 2
        blocks = []
        responses = []
        for t in range(order, big_l):
            lags = [z[:, t - i] for i in range(1, order + 1)]
            block = np.column_stack([np.ones(m)] + lags)
            if nex:
                block = np.hstack([block, xt[:, t, :]])
            blocks.append(block)
            responses.append(z[:, t])
        design = np.vstack(blocks)
        resp = np.concatenate(responses)
        if design.shape[0] <= design.shape[1]:
            raise IllPosedError("too few windows for the residual regression")
        coef, *_ = np.linalg.lstsq(design, resp, rcond=None)
        for k, t in enumerate(range(order, big_l)):
            eps0[:, t] = resp[k * m : (k + 1) * m] - blocks[k] @ coef

    cols = [np.ones(m)]
    cols += [z[:, big_l - i] for i in range(1, p + 1)]
    cols += [eps0[:, big_l - j] for j in range(1, q + 1)]
    design1 = np.column_stack(cols)
    if nex:
        design1 = np.hstack([design1, x_last])
    if m <= design1.shape[1]:
        raise IllPosedError(
            f"{m} windows cannot determine {design1.shape[1]} coefficients"
        )
    coef1, *_ = np.linalg.lstsq(design1, zy, rcond=None)
    vec = coef1.copy()

    css0 = _css_value(vec, p, q, z, zy, xt, x_last)
    css_final = css0
    warning = False
    if q > 0:
        current = vec.copy()
        current_css = css0
        rejects = 0
        for _ in range(_REFINE_ITERS):
            _, grad = _css_and_grad(current, p, q, z, zy, xt, x_last)
            if float(np.abs(grad).max(initial=0.0)) < 1e-12:
                break
            step = _REFINE_LR
            accepted = False
            for _ in range(_REFINE_HALVINGS + 1):
                cand = current - step * grad
                cand_css = _css_value(cand, p, q, z, zy, xt, x_last)
                if np.isfinite(cand_css) and cand_css <= current_css:
                    accepted = True
                    break
                step *= 0.5
            if accepted:
                current, current_css = cand, cand_css
                rejects = 0
            else:
                rejects += 1
                if rejects >= _REFINE_MAX_REJECTS:
                    warning = True
                    break
        if warning:
            vec = coef1
            css_final = css0
        else:
            vec = current
            css_final = current_css

    c, phi, theta, beta = _unpack(vec, p, q)
    return ArimaxModel(
        p=p,
        d=d,
        q=q,
        c=c,
        phi=phi.copy(),
        theta=theta.copy(),
        beta=beta.copy(),
        target_feature=ds.target_feature,
        n_features=ds.n,
        css_initial=css0,
        css_final=css_final,
        css_warning=warning,
    )


def _check_window_for_predict(model: ArimaxModel, w: np.ndarray) -> None:
    if w.ndim != 2 or w.shape[1] != model.n_features:
        raise InvalidArgumentError(
            f"window must have {model.n_features} feature columns"
        )
    needed = max(model.p + model.d, model.d + 1, model.q + model.d)
    if w.shape[0] < needed:
        raise InvalidArgumentError(
            f"window must supply at least {needed} past rows"
        )


def predict_arimax_batch(model: ArimaxModel, windows: np.ndarray) -> np.ndarray:
    """One-step forecasts for a stack of windows on the original scale."""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3:
        raise InvalidArgumentError("windows must have shape (m, l, n)")
    if w.shape[0] == 0:
        return np.empty(0)
    _check_window_for_predict(model, w[0])
    tf = model.target_feature
    exog = _exog_indices(model.n_features, tf)
    endog = w[:, :, tf]
    z = np.diff(endog, n=model.d, axis=1) if model.d else endog
    xt = w[:, model.d :, exog] if exog else np.zeros((w.shape[0], w.shape[1] - model.d, 0))
    x_last = w[:, -1, exog] if exog else np.zeros((w.shape[0], 0))
    zhat, _ = _arimax_forward(model.c, model.phi, model.theta, model.beta, z, xt, x_last)
    if model.d == 0:
        return zhat
    out = np.empty(w.shape[0])
    for k in range(w.shape[0]):
        out[k] = undifference(endog[k, -model.d :], float(zhat[k]), model.d)
    return out


def predict_arimax(model: ArimaxModel, window: np.ndarray) -> float:
    """One-step forecast from a single window, original scale."""
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 2:
        raise InvalidArgumentError("window must be 2-d")
    _check_window_for_predict(model, w)
    return float(predict_arimax_batch(model, w[None, :, :])[0])
