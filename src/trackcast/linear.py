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


def predict_linear_batch(model: LinearModel, data) -> np.ndarray:
    """One-step forecasts W.x + b from each window's newest row.

    ``data`` is a ``WindowedDataset`` or an (m, l, n) array of windows;
    either needs the model's n feature columns, and the model's own
    target feature picks the exogenous columns.  Only the newest row of
    each window is gathered, and a dataset and its ``windows`` give the
    same bytes.
    """
    ds = _as_dataset(model, data)
    x = ds.row(-1)[:, _exog_indices(ds.n, ds.target_feature)]
    return x @ model.weights + model.bias


def _as_dataset(model, data) -> WindowedDataset:
    """``data``, a ``WindowedDataset`` or an (m, l, n) array of windows, as
    a dataset with the model's target feature.  An array becomes one over
    its own rows, with zero targets, without a copy when it is float64
    and C-ordered; a dataset keeps its table."""
    if not isinstance(data, WindowedDataset):
        w = np.asarray(data, dtype=np.float64)
        if w.ndim != 3:
            raise InvalidArgumentError("windows must have shape (m, l, n)")
        data = WindowedDataset(windows=w, targets=np.zeros(w.shape[0]), l=w.shape[1],
                               n=w.shape[2])
    if data.n != model.n_features:
        raise InvalidArgumentError(f"windows must have {model.n_features} feature columns")
    return WindowedDataset(rows=data.rows, starts=data.starts, targets=data.targets,
                           l=data.l, n=data.n, target_feature=model.target_feature)


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
    position), differenced responses, the table's exogenous columns (views,
    in feature order), and the table row each position of each window
    reads, ``starts + d + t`` (time-major too).  No (m, l) block of any
    exogenous feature is gathered."""
    tf = ds.target_feature
    series = np.concatenate([ds.feature(tf), ds.targets[:, None]], axis=1)  # (m, l+1)
    diffed = np.diff(series, n=d, axis=1) if d else series
    z = np.ascontiguousarray(diffed[:, :-1].T)
    zy = diffed[:, -1]
    xcols = [ds.rows[:, j] for j in _exog_indices(ds.n, tf)]
    at = ds.starts + d + np.arange(ds.l - d)[:, None]
    return z, zy, xcols, at


def _exog_term(beta, xcols, at) -> np.ndarray:
    """``beta . x`` at the table rows ``at``, shaped like ``at``: one
    table-wide projection, summed column by column in a fixed order, so
    a row's bits do not depend on its position in the table."""
    if not xcols:
        return np.zeros(at.shape)
    proj = beta[0] * xcols[0]
    for b, col in zip(beta[1:], xcols[1:]):
        proj += b * col
    return proj[at]


def _arimax_forward(c, phi, theta, beta, z, xcols, at):
    """Residual recursion and one-step forecast, vectorized over windows.

    ``z`` is time-major, shape (L, m).  The recursion starts at t = p
    (earlier residuals are zero) and uses each position's own exogenous
    row; the final forecast uses the newest row's features, those of
    position L - 1.  Returns the forecasts and the (L, m) residuals.
    """
    big_l, m = z.shape
    p, q = phi.shape[0], theta.shape[0]
    eps = np.zeros((big_l, m))
    ex = _exog_term(beta, xcols, at)
    for t in range(p, big_l):
        pred = c + ex[t]
        for i in range(1, p + 1):
            pred = pred + phi[i - 1] * z[t - i]
        for j in range(1, min(q, t) + 1):
            pred = pred + theta[j - 1] * eps[t - j]
        eps[t] = z[t] - pred
    zhat = c + ex[-1]
    for i in range(1, p + 1):
        zhat = zhat + phi[i - 1] * z[big_l - i]
    for j in range(1, q + 1):
        zhat = zhat + theta[j - 1] * eps[big_l - j]
    return zhat, eps


def _unpack(vec, p, q):
    return float(vec[0]), vec[1 : 1 + p], vec[1 + p : 1 + p + q], vec[1 + p + q :]


def _css_parts(vec, p, q, z, zy, xcols, at):
    """Conditional sum of squares, forecast residuals and in-window
    residuals at the packed parameters ``vec``."""
    c, phi, theta, beta = _unpack(vec, p, q)
    zhat, eps = _arimax_forward(c, phi, theta, beta, z, xcols, at)
    r = zy - zhat
    return float(r @ r), r, eps


def _residual_jacobian(vec, p, q, z, eps, xcols, at, out=None) -> np.ndarray:
    """d r / d vec for the forecast residuals r = zy - zhat, shape (k, m),
    by forward-mode accumulation through the residual recursion; written
    into ``out`` when given.

    The forecast residual is the recursion's step t = L, and every step
    t = p..L obeys D_t = -(G_t + sum_j theta_j D_{t-j}), with D_t = 0
    for t < p, where G_t holds step t's regressors (1, z lags, eps lags,
    exogenous row).  theta is shared by all windows, so accumulating
    forward gives D_L = -sum_s psi_{L-s} G_s with scalar weights psi,
    the MA filter's impulse response: psi_0 = 1,
    psi_n = -sum_j theta_j psi_{n-j}.  An exogenous row is then one
    convolution of a table column with those weights, read at each
    window's row of position p.
    """
    big_l, m = z.shape
    theta = vec[1 + p : 1 + p + q]
    psi = np.ones(big_l - p + 1)
    for n in range(1, psi.shape[0]):
        psi[n] = -sum(theta[j - 1] * psi[n - j] for j in range(1, min(q, n) + 1))
    w = psi[::-1].copy()  # weight of step s = p..L
    jac = np.empty((vec.shape[0], m)) if out is None else out
    jac[0] = w.sum()
    for i in range(1, p + 1):
        jac[i] = w @ z[p - i : big_l + 1 - i]
    for j in range(1, q + 1):
        s0 = max(p, j)  # eps_{s-j} is zero before position p
        jac[p + j] = w[s0 - p :] @ eps[s0 - j : big_l + 1 - j]
    # step L reads the newest row, the row of position L - 1
    v = w[:-1].copy()
    v[-1] += w[-1]
    for k, col in enumerate(xcols):
        jac[1 + p + q + k] = np.convolve(col, v[::-1], "valid")[at[p]]
    return np.negative(jac, out=jac)


def _refine_css(vec, parts, p, q, z, zy, xcols, at):
    """Levenberg–Marquardt (damped Gauss–Newton) descent on the CSS from
    ``vec``, whose ``_css_parts`` are ``parts``.  A step s solves
    (J J' + lam diag(J J')) s = -J r; a step that lowers the CSS is taken
    and shrinks lam tenfold, any other grows it tenfold.  Stops when a
    step lowers the CSS by less than a relative 1e-8, when lam passes
    1e16, or after 100 CSS and Jacobian evaluations in total.  Returns
    (vec, css, whether any step was taken).
    """
    css, r, eps = parts
    jac = _residual_jacobian(vec, p, q, z, eps, xcols, at)
    lam, evals, moved = _LM_DAMPING, 1, False
    while evals < _LM_MAX_EVALS and lam < _LM_MAX_DAMPING:
        a = jac @ jac.T
        step = np.linalg.lstsq(a + lam * np.diag(np.diag(a)), -(jac @ r), rcond=None)[0]
        cand = vec + step
        with np.errstate(over="ignore", invalid="ignore"):
            cand_css, cand_r, cand_eps = _css_parts(cand, p, q, z, zy, xcols, at)
        evals += 1
        if not cand_css < css:  # also rejects nan and inf
            lam *= 10.0
            continue
        converged = css - cand_css <= _LM_RTOL * css
        vec, css, r, eps, moved = cand, cand_css, cand_r, cand_eps, True
        if converged:
            break
        lam *= 0.1
        _residual_jacobian(vec, p, q, z, eps, xcols, at, out=jac)
        evals += 1
    return vec, css, moved


def _initial_residuals(z, xcols, at, order: int) -> np.ndarray:
    """Time-major residuals of one long autoregression of the given
    order, with each position's exogenous row, fitted to every in-window
    position t >= order; zero before.  The (L - order) * m-row design is
    never held: each position's block of m rows updates the R factor of
    [design | response] by QR, which keeps lstsq's accuracy, and a
    second pass forms each block's residuals."""
    big_l, m = z.shape
    k = 1 + order + len(xcols)
    n_rows = (big_l - order) * m
    if n_rows <= k:
        raise IllPosedError("too few windows for the residual regression")

    def block(t):  # [1, z lags, exogenous row | response] at position t
        out = np.empty((m, k + 1), order="F")
        out[:, 0] = 1.0
        for i in range(1, order + 1):
            out[:, i] = z[t - i]
        for j, col in enumerate(xcols):
            out[:, order + 1 + j] = col[at[t]]
        out[:, k] = z[t]
        return out

    r = np.empty((0, k + 1))
    for t in range(order, big_l):
        r = np.linalg.qr(np.vstack([r, block(t)]), mode="r")
    # lstsq's default cutoff for the whole design, so rank decisions match
    coef = np.linalg.lstsq(r[:k, :k], r[:k, k], rcond=np.finfo(np.float64).eps * n_rows)[0]
    eps0 = np.zeros((big_l, m))
    for t in range(order, big_l):
        b = block(t)
        eps0[t] = b[:, k] - b[:, :k] @ coef
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

    z, zy, xcols, at = _window_diff_parts(ds, d)
    big_l, m = z.shape

    eps0 = _initial_residuals(z, xcols, at, p + q + 2) if q > 0 else np.zeros((big_l, m))

    cols = [np.ones(m)]
    cols += [z[big_l - i] for i in range(1, p + 1)]
    cols += [eps0[big_l - j] for j in range(1, q + 1)]
    cols += [col[at[-1]] for col in xcols]  # the newest row's exogenous features
    design1 = np.column_stack(cols)
    if m <= design1.shape[1]:
        raise IllPosedError(
            f"{m} windows cannot determine {design1.shape[1]} coefficients"
        )
    coef1, *_ = np.linalg.lstsq(design1, zy, rcond=None)

    parts = _css_parts(coef1, p, q, z, zy, xcols, at)
    vec, css_final, warning = coef1, parts[0], False
    if q > 0:
        vec, css_final, moved = _refine_css(coef1, parts, p, q, z, zy, xcols, at)
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


def predict_arimax_batch(model: ArimaxModel, data) -> np.ndarray:
    """One-step forecasts on the original scale.

    ``data`` is a ``WindowedDataset`` or an (m, l, n) array of windows;
    either needs the model's n feature columns and windows of at least
    max(p, 1, q) + d rows, and the model's own target feature is the
    endogenous channel.  Both go down the fit's differencing path, which
    reads the table through start rows and never gathers an (m, l, n)
    stack, so a dataset and its ``windows`` give the same bytes.
    """
    ds = _as_dataset(model, data)
    needed = max(model.p + model.d, model.d + 1, model.q + model.d)
    if ds.l < needed:
        raise InvalidArgumentError(f"window must supply at least {needed} past rows")
    z, _, xcols, at = _window_diff_parts(ds, model.d)
    zhat, _ = _arimax_forward(model.c, model.phi, model.theta, model.beta, z, xcols, at)
    if model.d == 0:
        return zhat
    # ``undifference`` on every window at once: the same level tails,
    # added in the same order, so each value is bit-identical
    levels = []
    tails = ds.feature(model.target_feature)[:, -model.d :]
    for _ in range(model.d):
        levels.append(tails[:, -1])
        tails = np.diff(tails, axis=1)
    for level in reversed(levels):
        zhat = zhat + level
    return zhat
