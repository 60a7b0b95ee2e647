#!/usr/bin/env python3
"""End-to-end demonstration on the seeded synthetic dataset.

Generates measurements, runs the preprocessing pipeline, trains every
forecaster plus the ensemble variants, and prints three comparison
tables: single models, ensembles, and the low-variance filter sweep.
Like every ``trackcast`` command it holds numpy's OpenBLAS to one
thread, so the tables do not depend on the core count.
The settings are one config checked by the CLI's schema, and every
model trains through the CLI's model dispatch, so each row holds the
metrics ``trackcast run`` would report for that config.

With default settings this takes a few minutes on one core; use
--rows/--epochs/--members to trade fidelity for speed.
"""
import argparse
import time
from dataclasses import replace

from trackcast import cli
from trackcast.ensemble import EnsembleConfig
from trackcast.ingest import SynthConfig, generate_synthetic
from trackcast.neural import _one_blas_thread
from trackcast.preprocess import PreprocessConfig, run_preprocess


def metrics_row(name, entry):
    cells = [name]
    for part in ("train", "val", "test"):
        pair = entry["metrics"][part]
        cells += [f"{pair['mse']:.6f}", f"{pair['mae']:.6f}"]
    return cells


def print_table(title, rows):
    header = ["model", "train mse", "train mae", "val mse", "val mae",
              "test mse", "test mae"]
    rows = [header] + rows
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    print(f"\n== {title} ==")
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=30000)
    ap.add_argument("--epochs", type=int, default=12)
    ap.add_argument("--members", type=int, default=5)
    ap.add_argument("--hidden-size", type=int, default=32)
    ap.add_argument("--seed", type=int, default=20)
    args = ap.parse_args()

    cfg = cli._check_config({
        "synth": {"n_rows": args.rows, "seed": args.seed},
        "preprocess": {"window_width": 8},
        "filter": {"variance_threshold": 0.002, "seed": 11},
        "model": {"arima_order": [2, 0, 0], "hidden_size": args.hidden_size},
        "train": {"max_epochs": args.epochs},
    })
    pre_cfg = PreprocessConfig(**cfg["preprocess"])

    def train(name, split, ensemble=EnsembleConfig(), seed=None):
        """The report entry of model ``name`` trained as ``trackcast run``
        trains it; ``seed`` replaces the network's training seed."""
        setting = cli._model_setting(cfg, name, pre_cfg.window_width)
        if seed is not None:
            setting = replace(setting, seed=seed)
        return cli._train_one_model(name, setting, split, ensemble)[0]

    t0 = time.perf_counter()
    table = generate_synthetic(SynthConfig(**cfg["synth"]))
    split, audit = run_preprocess(table, pre_cfg)
    print(f"dataset: {args.rows} rows -> {audit.windows_total} windows "
          f"({split.train.m} train / {split.val.m} val / {split.test.m} test), "
          f"{split.train.n} features")
    print(f"dropped constant columns: {', '.join(audit.dropped_constant_columns) or 'none'}")
    print(f"dropped weak features: {', '.join(audit.dropped_features) or 'none'}")

    rows = [metrics_row("lr", train("lr", split))]
    entry = train("arima", split)
    rows.append(metrics_row("arima({},{},{})".format(*entry["details"]["order"]), entry))
    for arch in ("lstm", "gru", "cnn"):
        entry = train(arch, split)
        label = f"{arch} (ep {entry['trace']['best_epoch']}/{entry['trace']['stopped_epoch']})"
        rows.append(metrics_row(label, entry))
    print_table("single models", rows)

    # the mean and the stacked rows train the same members (same seeds)
    rows = []
    for stack in (False, True):
        entry = train("cnn", split, EnsembleConfig("bagging", args.members, stack=stack), seed=1)
        tag = entry["ensemble"]["combiner"]["kind"]
        rows.append(metrics_row(f"bagging x{args.members} ({tag})", entry))
    entry = train("cnn", split, EnsembleConfig("boosting", args.members, 0.05), seed=2)
    rows.append(metrics_row(f"boosting x{entry['ensemble']['member_count']} (thr 0.05)", entry))
    print_table("ensembles (cnn base)", rows)

    print("\n== low-variance filter sweep (lr) ==")
    print("proportion  discarded  train_size  train_mse  test_mse")
    for prop in (0.0, 0.2, 0.5, 0.8):
        fsplit, faudit = run_preprocess(table, pre_cfg, cli._filter_config(cfg, prop))
        metrics = train("lr", fsplit)["metrics"]
        print(f"{prop:<10.1f}  {faudit.filter['discarded']:<9d}  "
              f"{fsplit.train.m:<10d}  {metrics['train']['mse']:<9.6f}  "
              f"{metrics['test']['mse']:.6f}")

    print(f"\ntotal {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    with _one_blas_thread():
        main()
