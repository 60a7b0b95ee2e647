"""Linear one-step forecasters: exogenous regression and ARIMAX.

Both consume windowed datasets.  Each window contributes one training
equation whose response is the window's one-step-ahead target; the
ARIMAX variant adds autoregressive lags, an in-window moving-average
residual recursion, and optional differencing of the target channel.
The row being forecast lies outside the window, so its exogenous
features are approximated by the newest in-window row (samples sit
0.25 m apart, so consecutive rows carry nearly identical features).
With p = d = q = 0 the two paths solve the same least-squares problem
and fit the same coefficients, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import WindowedDataset
from .errors import IllPosedError, InvalidArgumentError

_LM_DAMPING = 1e-3
_LM_MAX_DAMPING = 1e16
_LM_MAX_EVALS = 100
_LM_RTOL = 1e-8
_QR_BLOCK = 4096  # windows per row block of a streamed regression


@dataclass(frozen=True)
class LinearModel:
    """W.x + b on the newest window row's exogenous features."""

    weights: np.ndarray
    bias: float
    target_feature: int
    n_features: int

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


def fit_linear(ds: WindowedDataset) -> LinearModel:
    """Ordinary least squares of targets on last-row exogenous features:
    ARIMAX's per-window regression (``_window_lstsq``) at order (0, 0, 0)."""
    if ds.m == 0:
        raise IllPosedError("cannot fit on an empty dataset")
    xcols = [ds.rows[:, j] for j in _exog_indices(ds.n, ds.target_feature)]
    if ds.m <= len(xcols):
        raise IllPosedError(
            f"{ds.m} windows cannot determine {len(xcols)} feature weights"
        )
    coef = _window_lstsq([], xcols, ds.starts + ds.l - 1, ds.targets)
    return LinearModel(
        weights=coef[1:],
        bias=float(coef[0]),
        target_feature=ds.target_feature,
        n_features=ds.n,
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
    """``WindowedDataset.of(data)``, checked against the model's feature
    count and carrying the model's target feature."""
    ds = WindowedDataset.of(data)
    if ds.n != model.n_features:
        raise InvalidArgumentError(f"windows must have {model.n_features} feature columns")
    return replace(ds, target_feature=model.target_feature)


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
    in feature order), and each window's base row ``starts + d``: position
    t of a window reads table row ``base + t``.  No (m, l) block of any
    exogenous feature, nor of table rows, is held."""
    tf = ds.target_feature
    series = np.concatenate([ds.feature(tf), ds.targets[:, None]], axis=1)  # (m, l+1)
    diffed = np.diff(series, n=d, axis=1) if d else series
    z = np.ascontiguousarray(diffed[:, :-1].T)
    zy = diffed[:, -1]
    xcols = [ds.rows[:, j] for j in _exog_indices(ds.n, tf)]
    return z, zy, xcols, ds.starts + d


def _exog_projection(beta, xcols):
    """``beta . x`` on every table row, summed column by column in a fixed
    order, so a row's bits do not depend on its position in the table;
    None without exogenous columns."""
    if not xcols:
        return None
    proj = beta[0] * xcols[0]
    for b, col in zip(beta[1:], xcols[1:]):
        proj += b * col
    return proj


def _arimax_forward(c, phi, theta, beta, z, xcols, base):
    """Residual recursion and one-step forecast, vectorized over windows.

    ``z`` is time-major, shape (L, m).  The recursion starts at t = p
    (earlier residuals are zero) and uses each position's own exogenous
    row; the final forecast uses the newest row's features, those of
    position L - 1.  Returns the forecasts and the (L, m) residuals.
    """
    big_l, m = z.shape
    p, q = phi.shape[0], theta.shape[0]
    eps = np.zeros((big_l, m))
    proj = _exog_projection(beta, xcols)

    def ex(t):  # each window's exogenous term at position t
        return np.zeros(m) if proj is None else proj[base + t]

    for t in range(p, big_l):
        pred = c + ex(t)
        for i in range(1, p + 1):
            pred = pred + phi[i - 1] * z[t - i]
        for j in range(1, min(q, t) + 1):
            pred = pred + theta[j - 1] * eps[t - j]
        eps[t] = z[t] - pred
    zhat = c + ex(big_l - 1)
    for i in range(1, p + 1):
        zhat = zhat + phi[i - 1] * z[big_l - i]
    for j in range(1, q + 1):
        zhat = zhat + theta[j - 1] * eps[big_l - j]
    return zhat, eps


def _unpack(vec, p, q):
    return float(vec[0]), vec[1 : 1 + p], vec[1 + p : 1 + p + q], vec[1 + p + q :]


def _css_parts(vec, p, q, z, zy, xcols, base):
    """Conditional sum of squares, forecast residuals and in-window
    residuals at the packed parameters ``vec``."""
    c, phi, theta, beta = _unpack(vec, p, q)
    zhat, eps = _arimax_forward(c, phi, theta, beta, z, xcols, base)
    r = zy - zhat
    return float(r @ r), r, eps


def _residual_jacobian(vec, p, q, z, eps, xcols, base, out=None) -> np.ndarray:
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
        jac[1 + p + q + k] = np.convolve(col, v[::-1], "valid")[base + p]
    return np.negative(jac, out=jac)


def _refine_css(vec, parts, p, q, z, zy, xcols, base):
    """Levenberg–Marquardt (damped Gauss–Newton) descent on the CSS from
    ``vec``, whose ``_css_parts`` are ``parts``.  A step s solves
    (J J' + lam diag(J J')) s = -J r; a step that lowers the CSS is taken
    and shrinks lam tenfold, any other grows it tenfold.  Stops when a
    step lowers the CSS by less than a relative 1e-8, when lam passes
    1e16, or after 100 CSS and Jacobian evaluations in total.  Returns
    (vec, css, whether any step was taken).
    """
    css, r, eps = parts
    jac = _residual_jacobian(vec, p, q, z, eps, xcols, base)
    lam, evals, moved = _LM_DAMPING, 1, False
    while evals < _LM_MAX_EVALS and lam < _LM_MAX_DAMPING:
        a = jac @ jac.T
        step = np.linalg.lstsq(a + lam * np.diag(np.diag(a)), -(jac @ r), rcond=None)[0]
        cand = vec + step
        with np.errstate(over="ignore", invalid="ignore"):
            cand_css, cand_r, cand_eps = _css_parts(cand, p, q, z, zy, xcols, base)
        evals += 1
        if not cand_css < css:  # also rejects nan and inf
            lam *= 10.0
            continue
        converged = css - cand_css <= _LM_RTOL * css
        vec, css, r, eps, moved = cand, cand_css, cand_r, cand_eps, True
        if converged:
            break
        lam *= 0.1
        _residual_jacobian(vec, p, q, z, eps, xcols, base, out=jac)
        evals += 1
    return vec, css, moved


def _reflected_ma1(vec, p, z, zy, xcols, base) -> np.ndarray:
    """The MA(1) start ``vec`` mirrored to the invertible side: theta
    becomes 1 / theta, and c, phi and beta are re-solved for the least
    CSS at that theta.  At a fixed theta the forecast residuals are
    affine in (c, phi, beta) and their Jacobian rows depend only on theta
    and the data, so one solve of the (k - 1)-square normal equations
    of those rows is exact."""
    cand = vec.copy()
    cand[1 + p] = 1.0 / vec[1 + p]
    _, r, eps = _css_parts(cand, p, 1, z, zy, xcols, base)
    jac = _residual_jacobian(cand, p, 1, z, eps, xcols, base)
    free = np.r_[0 : 1 + p, 2 + p : vec.shape[0]]  # every coordinate but theta
    a = (jac @ jac.T)[np.ix_(free, free)]
    cand[free] -= np.linalg.lstsq(a, (jac @ r)[free], rcond=None)[0]
    return cand


def _design_block(lags, xcols, rows, response) -> np.ndarray:
    """[1, lags, the exogenous features of table rows ``rows`` | response]
    for one block of windows: one row each, columns in the order of the
    packed parameters."""
    out = np.empty((response.shape[0], len(lags) + len(xcols) + 2), order="F")
    out[:, 0] = 1.0
    for i, col in enumerate([*lags, *(x[rows] for x in xcols), response], 1):
        out[:, i] = col
    return out


def _blocked_lstsq(blocks, n_rows) -> np.ndarray:
    """Least-squares coefficients of the design whose [design | response]
    rows the iterator ``blocks`` yields (``n_rows`` rows in all), never
    held whole: each block updates the R factor by QR, and R is solved
    with lstsq's cutoff for the whole design, so its rank decision and
    minimum-norm solution are those of lstsq on that design."""
    r = np.linalg.qr(next(blocks), mode="r")
    for b in blocks:
        r = np.linalg.qr(np.vstack([r, b]), mode="r")
    k = r.shape[1] - 1
    return np.linalg.lstsq(r[:k, :k], r[:k, k], rcond=np.finfo(np.float64).eps * n_rows)[0]


def _window_lstsq(lags, xcols, rows, response) -> np.ndarray:
    """Least-squares coefficients of the per-window regression: each
    window's ``response`` on [1, its ``lags``, the exogenous features of
    its table row in ``rows``], streamed through ``_blocked_lstsq`` in
    blocks of windows."""
    m = response.shape[0]
    blocks = (slice(a, a + _QR_BLOCK) for a in range(0, m, _QR_BLOCK))
    return _blocked_lstsq((_design_block([c[w] for c in lags], xcols, rows[w], response[w])
                           for w in blocks), m)


def _initial_residuals(z, xcols, base, order: int) -> np.ndarray:
    """Time-major residuals of one long autoregression of the given
    order, with each position's exogenous row, fitted to every in-window
    position t >= order; zero before.  The (L - order) * m-row design is
    streamed by position and block of windows through ``_blocked_lstsq``,
    and a second pass over the same blocks forms the residuals."""
    big_l, m = z.shape
    k = 1 + order + len(xcols)
    n_rows = (big_l - order) * m
    if n_rows <= k:
        raise IllPosedError("too few windows for the residual regression")

    def block(t, w):  # the windows w at position t
        lags = [z[t - i, w] for i in range(1, order + 1)]
        return _design_block(lags, xcols, base[w] + t, z[t, w])

    spans = [(t, slice(a, a + _QR_BLOCK))
             for t in range(order, big_l) for a in range(0, m, _QR_BLOCK)]
    coef = _blocked_lstsq((block(t, w) for t, w in spans), n_rows)
    eps0 = np.zeros((big_l, m))
    for t, w in spans:
        b = block(t, w)
        eps0[t, w] = b[:, k] - b[:, :k] @ coef
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
    the CSS; if none does, the start is returned, and ``css_warning`` is
    set when that start is stage one's estimate.

    The refinement starts from stage one's estimate, except for a
    non-invertible MA(1): stage one often pairs |theta| > 1 with a
    near-cancelling AR part (a CSS of 1e10 to 1e25), and the descent
    then spends most of its evaluations climbing back.  So with q = 1
    and |theta| > 1 its mirror (``_reflected_ma1``: theta -> 1 / theta,
    the other coefficients re-solved) is the start when its CSS is the
    lower.  ``css_initial`` is always stage one's CSS.  With q >= 2 the
    refinement starts from stage one: reflecting MA(2) roots ended
    (1,0,2) fits in a worse minimum.
    """
    p, d, q = check_order(p, d, q, ds.l)
    if ds.m == 0:
        raise IllPosedError("cannot fit on an empty dataset")

    z, zy, xcols, base = _window_diff_parts(ds, d)
    big_l, m = z.shape

    eps0 = _initial_residuals(z, xcols, base, p + q + 2) if q > 0 else None
    lags = [z[big_l - i] for i in range(1, p + 1)] + [eps0[big_l - j] for j in range(1, q + 1)]
    k = 1 + len(lags) + len(xcols)
    if m <= k:
        raise IllPosedError(f"{m} windows cannot determine {k} coefficients")
    coef1 = _window_lstsq(lags, xcols, base + big_l - 1, zy)  # each window's newest row
    del eps0, lags

    parts = _css_parts(coef1, p, q, z, zy, xcols, base)
    css_initial = parts[0]
    vec, css_final, warning = coef1, css_initial, False
    if q == 1 and abs(coef1[1 + p]) > 1:
        mirror = _reflected_ma1(coef1, p, z, zy, xcols, base)
        mirror_parts = _css_parts(mirror, p, q, z, zy, xcols, base)
        if mirror_parts[0] < css_initial:
            vec, parts = mirror, mirror_parts
        del mirror_parts  # the losing start's residuals go before refining
    if q > 0:
        vec, css_final, moved = _refine_css(vec, parts, p, q, z, zy, xcols, base)
        warning = not moved and vec is coef1

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
        css_initial=css_initial,
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
    z, _, xcols, base = _window_diff_parts(ds, model.d)
    zhat, _ = _arimax_forward(model.c, model.phi, model.theta, model.beta, z, xcols, base)
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
