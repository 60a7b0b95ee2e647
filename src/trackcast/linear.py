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
_LM_DAMPING = 1e-3
_LM_MAX_DAMPING = 1e16
_LM_MAX_EVALS = 100
_LM_RTOL = 1e-8


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
        raise IllPosedError("cannot fit on an empty dataset")
    exog = _exog_indices(ds.n, ds.target_feature)
    if ds.m <= len(exog):
        raise IllPosedError(
            f"{ds.m} windows cannot determine {len(exog)} feature weights"
        )
    x = ds.row(-1)[:, exog]
    design = np.hstack([np.ones((ds.m, 1)), x])
    coef, fallback = _solve_normal_equations(design, ds.targets)
    return LinearModel(
        weights=coef[1:],
        bias=float(coef[0]),
        target_feature=ds.target_feature,
        n_features=ds.n,
        ridge_fallback=fallback,
    )


def predict_linear_batch(model: LinearModel, windows: np.ndarray) -> np.ndarray:
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3 or w.shape[2] != model.n_features:
        raise InvalidArgumentError(
            f"windows must have {model.n_features} feature columns"
        )
    x = w[:, -1, _exog_indices(model.n_features, model.target_feature)]
    return x @ model.weights + model.bias


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
    """Differenced in-window series (time-major, one row of m windows per
    position), differenced responses, and aligned exogenous rows for
    every window."""
    tf = ds.target_feature
    exog = _exog_indices(ds.n, tf)
    series = np.concatenate([ds.feature(tf), ds.targets[:, None]], axis=1)  # (m, l+1)
    diffed = np.diff(series, n=d, axis=1) if d else series
    z = np.ascontiguousarray(diffed[:, :-1].T)
    zy = diffed[:, -1]
    # (m, l - d, nex), exogenous-major like a slice of C-ordered windows:
    # ``xt @ beta`` takes its BLAS path, and its bits, from this layout
    xt = np.empty((len(exog), ds.m, ds.l - d))
    for k, j in enumerate(exog):
        xt[k] = ds.feature(j)[:, d:]
    return z, zy, xt.transpose(1, 2, 0), ds.row(-1)[:, exog]


def _arimax_forward(c, phi, theta, beta, z, xt, x_last):
    """Residual recursion and one-step forecast, vectorized over windows.

    ``z`` is time-major, shape (L, m).  The recursion starts at t = p
    (earlier residuals are zero) and uses each position's own exogenous
    row; the final forecast uses the newest available row's features.
    Returns the forecasts and the (L, m) residuals.
    """
    big_l, m = z.shape
    p, q = phi.shape[0], theta.shape[0]
    eps = np.zeros((big_l, m))
    ex = np.ascontiguousarray((xt @ beta).T) if beta.size else np.zeros((big_l, m))
    for t in range(p, big_l):
        pred = c + ex[t]
        for i in range(1, p + 1):
            pred = pred + phi[i - 1] * z[t - i]
        for j in range(1, min(q, t) + 1):
            pred = pred + theta[j - 1] * eps[t - j]
        eps[t] = z[t] - pred
    zhat = np.full(m, c)
    if beta.size:
        zhat = zhat + x_last @ beta
    for i in range(1, p + 1):
        zhat = zhat + phi[i - 1] * z[big_l - i]
    for j in range(1, q + 1):
        zhat = zhat + theta[j - 1] * eps[big_l - j]
    return zhat, eps


def _unpack(vec, p, q):
    return float(vec[0]), vec[1 : 1 + p], vec[1 + p : 1 + p + q], vec[1 + p + q :]


def _css_parts(vec, p, q, z, zy, xt, x_last):
    """Conditional sum of squares, forecast residuals and in-window
    residuals at the packed parameters ``vec``."""
    c, phi, theta, beta = _unpack(vec, p, q)
    zhat, eps = _arimax_forward(c, phi, theta, beta, z, xt, x_last)
    r = zy - zhat
    return float(r @ r), r, eps


def _residual_jacobian(vec, p, q, z, eps, xt, x_last) -> np.ndarray:
    """d r / d vec for the forecast residuals r = zy - zhat, shape (k, m),
    by forward-mode accumulation through the residual recursion.

    The forecast residual is the recursion's step t = L, and every step
    t = p..L obeys D_t = -(G_t + sum_j theta_j D_{t-j}), with D_t = 0
    for t < p, where G_t holds step t's regressors (1, z lags, eps lags,
    exogenous row).  theta is shared by all windows, so accumulating
    forward gives D_L = -sum_s psi_{L-s} G_s with scalar weights psi,
    the MA filter's impulse response: psi_0 = 1,
    psi_n = -sum_j theta_j psi_{n-j}.
    """
    big_l, m = z.shape
    theta = vec[1 + p : 1 + p + q]
    psi = np.ones(big_l - p + 1)
    for n in range(1, psi.shape[0]):
        psi[n] = -sum(theta[j - 1] * psi[n - j] for j in range(1, min(q, n) + 1))
    w = psi[::-1].copy()  # weight of step s = p..L
    eps_lags = np.vstack([np.zeros((q, m)), eps])  # row s + q holds eps_s
    jac = np.empty((vec.shape[0], m))
    jac[0] = w.sum()
    for i in range(1, p + 1):
        jac[i] = w @ z[p - i : big_l + 1 - i]
    for j in range(1, q + 1):
        jac[p + j] = w @ eps_lags[p - j + q : big_l - j + q + 1]
    jac[1 + p + q :] = xt[:, p:, :].transpose(2, 0, 1) @ w[:-1] + w[-1] * x_last.T
    return np.negative(jac, out=jac)


def _refine_css(vec, parts, p, q, z, zy, xt, x_last):
    """Levenberg–Marquardt (damped Gauss–Newton) descent on the CSS from
    ``vec``, whose ``_css_parts`` are ``parts``.  A step s solves
    (J J' + lam diag(J J')) s = -J r; a step that lowers the CSS is taken
    and shrinks lam tenfold, any other grows it tenfold.  Stops when a
    step lowers the CSS by less than a relative 1e-8, when lam passes
    1e16, or after 100 CSS and Jacobian evaluations in total.  Returns
    (vec, css, whether any step was taken).
    """
    css, r, eps = parts
    jac = _residual_jacobian(vec, p, q, z, eps, xt, x_last)
    lam, evals, moved = _LM_DAMPING, 1, False
    while evals < _LM_MAX_EVALS and lam < _LM_MAX_DAMPING:
        a = jac @ jac.T
        step = np.linalg.lstsq(a + lam * np.diag(np.diag(a)), -(jac @ r), rcond=None)[0]
        cand = vec + step
        with np.errstate(over="ignore", invalid="ignore"):
            cand_css, cand_r, cand_eps = _css_parts(cand, p, q, z, zy, xt, x_last)
        evals += 1
        if not cand_css < css:  # also rejects nan and inf
            lam *= 10.0
            continue
        converged = css - cand_css <= _LM_RTOL * css
        vec, css, r, eps, moved = cand, cand_css, cand_r, cand_eps, True
        if converged:
            break
        lam *= 0.1
        jac = _residual_jacobian(vec, p, q, z, eps, xt, x_last)
        evals += 1
    return vec, css, moved


def _initial_residuals(z, xt, order: int) -> np.ndarray:
    """Time-major residuals of one long autoregression of the given
    order, with each position's exogenous row, fitted to every in-window
    position t >= order; zero before.  A function of its own so that the
    (L - order) * m-row design is freed before the refinement runs."""
    big_l, m = z.shape
    # filled in place, in the Fortran order the stacked blocks had:
    # ``design @ coef`` below takes another BLAS kernel, and other bits,
    # on a C-ordered design
    design = np.empty(((big_l - order) * m, 1 + order + xt.shape[2]), order="F")
    for t in range(order, big_l):
        block = design[(t - order) * m : (t - order + 1) * m]
        block[:, 0] = 1.0
        for i in range(1, order + 1):
            block[:, i] = z[t - i]
        block[:, order + 1 :] = xt[:, t, :]
    resp = z[order:].ravel()
    if design.shape[0] <= design.shape[1]:
        raise IllPosedError("too few windows for the residual regression")
    coef, *_ = np.linalg.lstsq(design, resp, rcond=None)
    eps0 = np.zeros((big_l, m))
    eps0[order:] = (resp - design @ coef).reshape(big_l - order, m)
    return eps0


def check_order(p, d, q, window_len) -> tuple[int, int, int]:
    """The ARIMA order (p, d, q) as ints, checked for what every fit on
    windows of length l needs: no negative entry, d at most 2, l > p + d,
    l > q and, when q > 0, room for the residual initialization:
    l >= p + q + d + 3."""
    p, d, q, l = int(p), int(d), int(q), int(window_len)
    if p < 0 or d < 0 or q < 0:
        raise InvalidArgumentError("orders must be non-negative")
    if d > 2:
        raise InvalidArgumentError("differencing degree is capped at 2")
    if l <= p + d:
        raise InvalidArgumentError(f"window length {l} must exceed p + d = {p + d}")
    if l <= q:
        raise InvalidArgumentError(f"window length {l} must exceed q = {q}")
    if q > 0 and l < p + q + d + 3:
        raise InvalidArgumentError(
            f"window length {l} is too short to initialize residuals; "
            f"q > 0 needs l >= p + q + d + 3 = {p + q + d + 3}"
        )
    return p, d, q


def fit_arimax(ds: WindowedDataset, p: int, d: int, q: int) -> ArimaxModel:
    """Two-stage fit: regression-based initialization, then a
    Levenberg–Marquardt refinement of the conditional sum of squared
    one-step errors (CSS).

    Stage one fits a long autoregression (order p + q + 2) to in-window
    interior positions to estimate residuals, then regresses each
    window's differenced response on its lagged values, lagged residual
    estimates, and newest exogenous row.  With q = 0 the residual stage
    is unnecessary and the initialization already minimizes the CSS
    exactly, so refinement is skipped.  With q > 0, damped Gauss–Newton
    steps (``_refine_css``) use the residuals' Jacobian, accumulated in
    forward mode through the residual recursion, and stop after at most
    100 CSS and Jacobian evaluations.  A step is taken only if it lowers
    the CSS; if none does, the stage-one estimate is returned with
    ``css_warning`` set.
    """
    p, d, q = check_order(p, d, q, ds.l)
    if ds.m == 0:
        raise IllPosedError("cannot fit on an empty dataset")

    z, zy, xt, x_last = _window_diff_parts(ds, d)
    big_l, m = z.shape
    nex = x_last.shape[1]

    eps0 = _initial_residuals(z, xt, p + q + 2) if q > 0 else np.zeros((big_l, m))

    cols = [np.ones(m)]
    cols += [z[big_l - i] for i in range(1, p + 1)]
    cols += [eps0[big_l - j] for j in range(1, q + 1)]
    design1 = np.column_stack(cols)
    if nex:
        design1 = np.hstack([design1, x_last])
    if m <= design1.shape[1]:
        raise IllPosedError(
            f"{m} windows cannot determine {design1.shape[1]} coefficients"
        )
    coef1, *_ = np.linalg.lstsq(design1, zy, rcond=None)

    parts = _css_parts(coef1, p, q, z, zy, xt, x_last)
    vec, css_final, warning = coef1, parts[0], False
    if q > 0:
        vec, css_final, moved = _refine_css(coef1, parts, p, q, z, zy, xt, x_last)
        warning = not moved

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
        css_initial=parts[0],
        css_final=css_final,
        css_warning=warning,
    )


def predict_arimax_batch(model: ArimaxModel, windows: np.ndarray) -> np.ndarray:
    """One-step forecasts for a stack of windows on the original scale."""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3:
        raise InvalidArgumentError("windows must have shape (m, l, n)")
    if w.shape[0] == 0:
        return np.empty(0)
    if w.shape[2] != model.n_features:
        raise InvalidArgumentError(f"window must have {model.n_features} feature columns")
    needed = max(model.p + model.d, model.d + 1, model.q + model.d)
    if w.shape[1] < needed:
        raise InvalidArgumentError(f"window must supply at least {needed} past rows")
    tf = model.target_feature
    exog = _exog_indices(model.n_features, tf)
    endog = w[:, :, tf]
    z = np.ascontiguousarray((np.diff(endog, n=model.d, axis=1) if model.d else endog).T)
    xt = w[:, model.d :, exog] if exog else np.zeros((w.shape[0], w.shape[1] - model.d, 0))
    x_last = w[:, -1, exog] if exog else np.zeros((w.shape[0], 0))
    zhat, _ = _arimax_forward(model.c, model.phi, model.theta, model.beta, z, xt, x_last)
    if model.d == 0:
        return zhat
    # ``undifference`` on every window at once: the same level tails,
    # added in the same order, so each value is bit-identical
    levels = []
    tails = endog[:, -model.d :]
    for _ in range(model.d):
        levels.append(tails[:, -1])
        tails = np.diff(tails, axis=1)
    for level in reversed(levels):
        zhat = zhat + level
    return zhat

