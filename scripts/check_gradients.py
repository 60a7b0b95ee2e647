#!/usr/bin/env python3
"""Compare every hand-written derivative against central finite
differences and print the worst relative error per model: the network
gradients (lstm, gru, cnn) and the ARIMAX residual Jacobian (arimax).

Exit status is non-zero if any model misses the tolerance.
"""
import argparse
import sys
import time

import numpy as np

from trackcast.core import WindowedDataset
from trackcast.linear import _css_parts, _residual_jacobian, _window_diff_parts
from trackcast.neural import NetworkConfig, grad_check


def arimax_jacobian_error(windows, targets, order, step, seed) -> float:
    """Worst relative error of the forward-mode residual Jacobian
    against central differences of the residual vector, at random
    parameters."""
    p, d, q = order
    ds = WindowedDataset(windows=windows, targets=targets, l=windows.shape[1],
                         n=windows.shape[2], target_feature=0)
    z, zy, xcols, at = _window_diff_parts(ds, d)
    vec = np.random.default_rng(seed).normal(scale=0.3, size=1 + p + q + ds.n - 1)
    _, _, eps = _css_parts(vec, p, q, z, zy, xcols, at)
    jac = _residual_jacobian(vec, p, q, z, eps, xcols, at)
    num = np.empty_like(jac)
    for k in range(vec.size):
        bump = np.zeros_like(vec)
        bump[k] = step
        num[k] = (_css_parts(vec + bump, p, q, z, zy, xcols, at)[1]
                  - _css_parts(vec - bump, p, q, z, zy, xcols, at)[1]) / (2 * step)
    return float(np.max(np.abs(jac - num) / np.maximum(np.abs(jac) + np.abs(num), 1e-8)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--archs", default="lstm,gru,cnn,arimax",
                    help="comma-separated subset of lstm,gru,cnn,arimax")
    ap.add_argument("--hidden-size", type=int, default=8)
    ap.add_argument("--kernel-count", type=int, default=4)
    ap.add_argument("--kernel-width", type=int, default=3)
    ap.add_argument("--arima-order", default="2,1,1",
                    help="p,d,q of the ARIMAX check; --window-len must exceed p + d")
    ap.add_argument("--window-len", type=int, default=6)
    ap.add_argument("--n-features", type=int, default=4)
    ap.add_argument("--batch", type=int, default=6)
    ap.add_argument("--l2-lambda", type=float, default=1e-4)
    ap.add_argument("--step", type=float, default=1e-5)
    ap.add_argument("--tolerance", type=float, default=1e-4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    windows = rng.normal(size=(args.batch, args.window_len, args.n_features))
    targets = rng.normal(size=args.batch)

    failed = False
    for arch in [a.strip() for a in args.archs.split(",") if a.strip()]:
        t0 = time.perf_counter()
        if arch == "arimax":
            order = tuple(int(v) for v in args.arima_order.split(","))
            worst = arimax_jacobian_error(windows, targets, order, args.step, args.seed)
        else:
            cfg = NetworkConfig(
                arch=arch,
                hidden_size=args.hidden_size,
                kernel_count=args.kernel_count,
                kernel_width=args.kernel_width,
                l2_lambda=args.l2_lambda,
                seed=args.seed,
            )
            worst = grad_check(cfg, windows, targets, step=args.step)
        elapsed = time.perf_counter() - t0
        verdict = "ok" if worst < args.tolerance else "FAIL"
        print(f"{arch:6s}  max relative error {worst:.3e}  ({elapsed:.2f}s)  {verdict}")
        failed = failed or worst >= args.tolerance
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
