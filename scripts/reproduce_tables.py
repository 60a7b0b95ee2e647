#!/usr/bin/env python3
"""End-to-end demonstration on the seeded synthetic dataset.

Generates measurements, runs the preprocessing pipeline, trains every
forecaster plus the ensemble variants, and prints comparison tables:
single models, the spread of the network repeats, ensembles, and the
low-variance filter sweep.  As in the paper, each network trains
``REPEATS`` times from different random initializations, in rows
``lstm-1`` … ``cnn-3``: repeat 1 uses the configured training seed and
the others seeds derived from it (``rng.derive_seed``).  Each
architecture also gets a row of column means.  Like every ``trackcast``
command it starts numpy's OpenBLAS with one thread, so the tables do
not depend on the core count.
The settings are one config checked by the CLI's schema, and every
model trains through the CLI's model dispatch.  Only the sweep filters
the train part, so each single-model row (``lstm-1`` and not its other
repeats) holds the metrics ``trackcast run`` reports for that config
without its ``filter`` section.

With default settings this takes a few minutes on one core; use
--rows/--epochs/--members to trade fidelity for speed.
"""
import argparse
import os
import statistics
import time
from dataclasses import replace

# one OpenBLAS thread from the start, as in every trackcast command:
# OpenBLAS reads the count once, when numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from trackcast import cli
from trackcast.ensemble import EnsembleConfig
from trackcast.ingest import SynthConfig, generate_synthetic
from trackcast.preprocess import FilterConfig, PreprocessConfig, run_preprocess
from trackcast.rng import derive_seed

REPEATS = 3  # random initializations per network, as in the paper
METRICS_HEADER = ("model", "train mse", "train mae", "val mse", "val mae",
                  "test mse", "test mae")


def metrics_row(name, entry):
    return [name, *(entry["metrics"][part][k] for part in ("train", "val", "test")
                    for k in ("mse", "mae"))]


def print_table(title, header, rows):
    print(f"\n== {title} ==")
    cli._print_table(header, rows)


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
        setting = cli._model_settings(cfg, [name], pre_cfg.window_width)[name]
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

    rows = [metrics_row("lr", train("lr", split)) + [None]]
    entry = train("arima", split)
    rows.append(metrics_row("arima({},{},{})".format(*entry["details"]["order"]), entry) + [None])
    spread = []
    for arch in ("lstm", "gru", "cnn"):
        seed = cli._model_settings(cfg, [arch], pre_cfg.window_width)[arch].seed
        seeds = [seed] + [derive_seed(seed, r) for r in range(2, REPEATS + 1)]
        runs = [train(arch, split, seed=s) for s in seeds]
        reps = [metrics_row(f"{arch}-{r}", e) + [e["trace"]["best_epoch"]]
                for r, e in enumerate(runs, 1)]
        means = [statistics.fmean(col) for col in zip(*(row[1:] for row in reps))]
        rows += reps + [[f"{arch} mean", *means]]
        test_mse = [e["metrics"]["test"]["mse"] for e in runs]
        epochs = ", ".join("{best_epoch}/{stopped_epoch}".format(**e["trace"]) for e in runs)
        spread.append([arch, min(test_mse), max(test_mse), epochs])
    print_table("single models", (*METRICS_HEADER, "best epoch"), rows)
    print_table(f"network repeats ({REPEATS} seeds)",
                ("model", "test mse min", "test mse max", "best/stopped epochs"), spread)

    # the mean and the stacked rows train the same members (same seeds)
    rows = []
    for stack in (False, True):
        entry = train("cnn", split, EnsembleConfig("bagging", args.members, stack=stack), seed=1)
        tag = entry["ensemble"]["combiner"]["kind"]
        rows.append(metrics_row(f"bagging x{args.members} ({tag})", entry))
    entry = train("cnn", split, EnsembleConfig("boosting", args.members, 0.05), seed=2)
    rows.append(metrics_row(f"boosting x{entry['ensemble']['member_count']} (thr 0.05)", entry))
    print_table("ensembles (cnn base)", METRICS_HEADER, rows)

    rows = []
    for prop in (0.0, 0.2, 0.5, 0.8):
        filter_cfg = FilterConfig(**cfg["filter"], discard_proportion=prop)
        fsplit, faudit = run_preprocess(table, pre_cfg, filter_cfg)
        metrics = train("lr", fsplit)["metrics"]
        rows.append([prop, faudit.filter["discarded"], fsplit.train.m,
                     metrics["train"]["mse"], metrics["test"]["mse"]])
    print_table("low-variance filter sweep (lr)",
                ("proportion", "discarded", "train_size", "train_mse", "test_mse"), rows)

    print(f"\ntotal {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
