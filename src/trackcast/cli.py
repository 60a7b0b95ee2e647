"""Batch command-line driver.

Three subcommands wire the pipeline end to end from one JSON config:
``synth`` writes a generated CSV, ``run`` preprocesses + trains +
reports, ``filter-sweep`` trains the first model in ``model.models``
(ensembled as a run would) once per filter proportion.  Every command
runs with numpy's OpenBLAS held to one thread (see ``pool``), and with
malloc and numpy's huge pages pinned (``_steady_memory``), so its
memory peak does not depend on the machine's free memory.  Run as a
program (``python -m trackcast.cli``, or the ``trackcast`` console
script), the process sets ``OPENBLAS_NUM_THREADS`` to 1 before numpy
loads (see ``trackcast.__main__``); imported as a library, the module
leaves the environment alone.  The config's keys and value types are
read from the dataclasses each section sets (``_SCHEMA``); a wrong key
or type is a configuration problem.

Exit codes: 0 success, 2 configuration problem, 3 I/O or data-file
problem (including data with too few rows or windows), 4 numeric
divergence during training.  When a fit fails, because it diverged (4)
or its train or validation part holds too few windows (3), ``run``
records a ``failed`` entry for that model and ``filter-sweep`` a row
without metrics for that proportion; the report is still written with
whatever finished, and 3 wins over 4.
"""
from __future__ import annotations

import argparse
import ctypes
import errno
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

if __name__ == "__main__":  # before numpy loads; see the module docstring
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import ensemble as ens
from . import linear as lin
from . import neural as net
from .core import SplitSet, checked, evaluate_metrics, field_types
from .errors import (
    ConfigError,
    DataFormatError,
    IllPosedError,
    IntegrityError,
    InvalidArgumentError,
    NumericDivergenceError,
    SchemaError,
    UnsupportedVersionError,
)
from .ingest import CsvSchema, SynthConfig, generate_synthetic, read_csv, write_csv
from .persistence import save_model, write_report
from .pool import one_blas_thread
from .preprocess import FilterConfig, PreprocessConfig, run_preprocess

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

MODEL_NAMES = ("lr", "arima", *net.ARCHS)
_NET_SIZES = ("hidden_size", "kernel_count", "kernel_width")
_NET_HINTS = field_types(net.NetworkConfig)
# section -> key -> type: each section's keys are the fields of the
# dataclass it sets; "model" also names the models and the ARIMA order
_SCHEMA = {
    "synth": field_types(SynthConfig),
    "data": field_types(CsvSchema),
    "preprocess": field_types(PreprocessConfig),
    "filter": field_types(FilterConfig),
    "model": {"models": list[str], "arima_order": tuple[int, int, int],
              **{k: _NET_HINTS[k] for k in _NET_SIZES}},
    "ensemble": field_types(ens.EnsembleConfig),
    "train": {k: t for k, t in _NET_HINTS.items() if k != "arch" and k not in _NET_SIZES},
}


def _check_config(cfg) -> dict:
    """Reject unknown sections and keys, and values of the wrong type."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for section, body in cfg.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(body) - set(_SCHEMA[section])
        if unknown:
            raise ConfigError(
                f"unknown keys in config section {section!r}: {sorted(unknown)}"
            )
        for key, value in body.items():
            try:
                checked(_SCHEMA[section][key], value, f"{section}.{key}")
            except TypeError as exc:
                raise ConfigError(str(exc)) from None
    return cfg


def load_config(path) -> dict:
    """Parse the UTF-8 JSON config file and check it against the schema.
    ``NaN`` and ``Infinity``, which Python's json accepts, are not JSON,
    and a number past the float range (``1e400``) is not read as one."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")

    def reject(name):
        raise ConfigError(f"config file {path} holds {name}, which is not valid JSON")

    def finite(text):
        value = float(text)
        if math.isinf(value):
            raise ConfigError(f"config file {path} holds {text}, past the float range")
        return value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=reject, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not valid UTF-8") from None
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ConfigError(f"config file {path}: {exc}") from None
    return _check_config(cfg)


# ``run`` flag -> the (section, key) of the config it sets
_RUN_FLAGS = {"models": ("model", "models"), "ensemble": ("ensemble", "method"),
              "stack": ("ensemble", "stack"),
              "filter_proportion": ("filter", "discard_proportion")}


def _apply_flags(cfg: dict, args) -> tuple[dict, dict]:
    """A copy of the checked ``cfg`` with each ``run`` flag that was given
    set in its section, and the config the report echoes: ``cfg`` as read
    plus ``_overrides``, each flag given and its value as typed."""
    given = {flag: v for flag, v in vars(args).items() if flag in _RUN_FLAGS and v is not None}
    applied = {section: dict(body) for section, body in cfg.items()}
    for flag, value in given.items():
        section, key = _RUN_FLAGS[flag]
        if flag == "models":
            value = [s.strip() for s in value.split(",") if s.strip()]
        applied.setdefault(section, {})[key] = value
    return applied, dict(cfg, _overrides=given)


def _model_list(cfg: dict) -> list[str]:
    names = cfg.get("model", {}).get("models", ["lr"])
    if not names:
        raise ConfigError("no models selected")
    seen = []
    for name in names:
        if name not in MODEL_NAMES:
            raise ConfigError(
                f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
            )
        if name in seen:
            raise ConfigError(f"model {name!r} listed twice")
        seen.append(name)
    return seen


def _model_setting(cfg: dict, name: str, window_len: int):
    """What training model ``name`` needs besides the data: the ARIMA
    order, the network config, or nothing for ``lr``; checked against
    the window length the preprocessing will cut."""
    model = cfg.get("model", {})
    if name == "lr":
        return None
    if name == "arima":
        return lin.check_order(*model.get("arima_order", (2, 0, 0)), window_len)
    sizes = {k: v for k, v in model.items() if k in _NET_SIZES}
    net_cfg = net.NetworkConfig(arch=name, **sizes, **cfg.get("train", {}))
    if name == "cnn" and net_cfg.kernel_width >= window_len:
        raise ConfigError(f"model section: kernel_width {net_cfg.kernel_width}"
                          f" must be smaller than window_width {window_len}")
    return net_cfg


def _parts(split: SplitSet):
    return (("train", split.train), ("val", split.val), ("test", split.test))


def _metrics_of(preds: dict, split: SplitSet) -> dict:
    """MSE and MAE per part of the split, from ``preds`` (part name ->
    predictions); None for a part with no predictions."""
    out = {}
    for name, part in _parts(split):
        if name not in preds:
            out[name] = None
            continue
        pair = evaluate_metrics(part.targets, preds[name])
        out[name] = {"mse": pair.mse, "mae": pair.mae}
    return out


def _train_one_model(name: str, setting, split: SplitSet, ens_cfg: ens.EnsembleConfig):
    """Train one configured model from its ``_model_setting``;
    returns (entry dict, model object)."""
    if name == "lr":
        model = lin.fit_linear(split.train)
        predict = lambda ds: lin.predict_linear_batch(model, ds)
        entry = {"kind": "linear", "details": {"ridge_fallback": model.ridge_fallback}}
    elif name == "arima":
        p, d, q = setting
        model = lin.fit_arimax(split.train, p, d, q)
        predict = lambda ds: lin.predict_arimax_batch(model, ds)
        entry = {
            "kind": "arimax",
            "details": {
                "order": [p, d, q],
                "css_initial": model.css_initial,
                "css_final": model.css_final,
                "css_warning": model.css_warning,
            },
        }
    elif ens_cfg.method == "none":
        model, trace = net.train(setting, split.train, split.val)
        predict = lambda ds: net.predict_batch(model, ds)
        entry = {"kind": "network", "trace": asdict(trace)}
    else:
        return _train_ensemble(setting, split, ens_cfg)
    preds = {part: predict(ds) for part, ds in _parts(split) if ds.m}
    return dict(entry, metrics=_metrics_of(preds, split)), model


def _train_ensemble(net_cfg, split: SplitSet, ens_cfg: ens.EnsembleConfig):
    """``_train_one_model`` for a bagged or boosted network."""
    if ens_cfg.method == "bagging":
        model = ens.train_bagging(net_cfg, ens_cfg.members, split.train, split.val)
    else:
        model = ens.train_boosting(
            net_cfg,
            ens_cfg.members,
            ens_cfg.boost_threshold,
            split.train,
            split.val,
            residual_scope=ens_cfg.boost_residual_scope,
        )
    # one prediction pass per member and part feeds the stacker, the
    # member metrics and the ensemble metrics
    cols = {part: ens.member_predictions(model.members, ds)
            for part, ds in _parts(split) if ds.m}
    if ens_cfg.stack:
        model = replace(model, combiner=ens.fit_stacker(cols["val"], split.val.targets))
    preds = {part: ens.ensemble_predict_batch(model, ds, cols[part])
             for part, ds in _parts(split) if part in cols}
    summary = {
        "method": model.method,
        "member_count": len(model.members),
        "boost_threshold": model.boost_threshold,
        "combiner": asdict(model.combiner),
        "member_metrics": [_metrics_of({part: c[:, j] for part, c in cols.items()}, split)
                           for j in range(len(model.members))],
        "member_traces": [asdict(t) for t in model.member_traces],
        "boost_trace": None if model.boost_trace is None else asdict(model.boost_trace),
        "retried_members": list(model.retried_members),
    }
    return {"kind": "ensemble", "metrics": _metrics_of(preds, split), "ensemble": summary}, model


def _train_or_fail(name: str, setting, split: SplitSet, ens_cfg: ens.EnsembleConfig):
    """``_train_one_model``'s (entry, model) and no failure; or, for a fit
    that diverged (exit 4) or has too few samples (exit 3, a fault of the
    data, not of the config), a ``failed`` entry, no model, and the
    failure: (exit code, reason)."""
    try:
        return (*_train_one_model(name, setting, split, ens_cfg), None)
    except (NumericDivergenceError, IllPosedError) as exc:
        trace = getattr(exc, "trace", None)
        entry = {"kind": "failed", "metrics": None,
                 "trace": None if trace is None else asdict(trace)}
        if isinstance(exc, NumericDivergenceError):
            return entry, None, (EXIT_DIVERGENCE, f"numeric divergence: {exc}")
        return entry, None, (EXIT_IO, f"ill-posed fit: {exc}")


def _part_metrics(entry: dict):
    """(part, mse, mae) for each part of the split; None where the entry
    has no metrics."""
    metrics = entry["metrics"] or {}
    for part in ("train", "val", "test"):
        pair = metrics.get(part) or {}
        yield part, pair.get("mse"), pair.get("mae")


def _print_table(header, rows) -> None:
    """Left-aligned columns; a float to 6 significant digits, None as -."""
    cells = [header] + [
        ["-" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip())


def _report_failures(errors: dict) -> int:
    """One sorted ``<key>: <reason>`` stderr line per failed fit in
    ``errors`` (key -> (exit code, reason)), and the exit code: the
    lowest failure code, else success."""
    for key in sorted(errors):
        print(f"{key}: {errors[key][1]}", file=sys.stderr)
    return min((code for code, _ in errors.values()), default=EXIT_OK)


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    if "n_rows" not in cfg.get("synth", {}):
        raise ConfigError("synth section must set n_rows")
    synth_cfg = SynthConfig(**cfg["synth"])
    _check_targets(os.path.dirname(args.out) or os.curdir, [args.out], made=False)
    table = generate_synthetic(synth_cfg)
    write_csv(table, args.out)
    print(f"wrote {table.n_rows} rows x {table.n_columns} columns to {args.out}")
    return EXIT_OK


def _check_targets(folder, paths, made: bool) -> None:
    """Raise, before any data is read or generated, the OSError that
    writing ``paths`` into ``folder`` would raise only at the end:
    ``folder`` is a file or lies below one, or is missing and not
    ``made`` by the command, or one of ``paths`` is a directory."""
    start = above = os.path.normpath(folder)
    while above and not os.path.exists(above):  # up to an existing ancestor
        above = os.path.dirname(above)
    if above and not os.path.isdir(above):  # as os.makedirs or open raises it
        code = errno.EEXIST if made and above == start else errno.ENOTDIR
        raise OSError(code, os.strerror(code), folder if made else paths[0])
    if not made and above != start:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), paths[0])
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _read_data(path, schema: CsvSchema, timings: dict):
    if not os.path.isfile(path):
        raise DataFormatError(f"data file not found: {path}")
    t0 = time.perf_counter()
    table = read_csv(path, schema)
    timings["read_csv_seconds"] = time.perf_counter() - t0
    return table


def cmd_run(args) -> int:
    cfg, echo = _apply_flags(load_config(args.config), args)
    models = _model_list(cfg)
    pre_cfg = PreprocessConfig(**cfg.get("preprocess", {}))
    settings = {name: _model_setting(cfg, name, pre_cfg.window_width) for name in models}
    ens_cfg = ens.EnsembleConfig(**cfg.get("ensemble", {}))
    # no filter without a ``filter`` section; an empty one filters
    filter_cfg = FilterConfig(**cfg["filter"]) if "filter" in cfg else None
    artifacts = {name: os.path.join(args.out_dir, f"{name}.tckm") for name in models}
    report_path = os.path.join(args.out_dir, "report.json")
    _check_targets(args.out_dir, [*artifacts.values(), report_path], made=True)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    # no name holds the raw table, so run_preprocess can let it go early
    split, audit = run_preprocess(
        _read_data(args.data, CsvSchema(**cfg.get("data", {})), timings), pre_cfg, filter_cfg)
    timings["preprocess_seconds"] = (time.perf_counter() - t0) - timings["read_csv_seconds"]
    os.makedirs(args.out_dir, exist_ok=True)

    entries: dict[str, dict] = {}
    errors: dict[str, tuple[int, str]] = {}
    for name in models:
        t0 = time.perf_counter()
        entries[name], model, failure = _train_or_fail(name, settings[name], split, ens_cfg)
        if failure is None:
            save_model(model, artifacts[name])
        else:
            errors[name] = failure
        timings[f"train_{name}_seconds"] = time.perf_counter() - t0

    write_report({"config": echo, "audit": asdict(audit), "models": entries,
                  "timings": timings, "errors": {k: why for k, (_, why) in errors.items()}},
                 report_path)
    _print_table(("model", "split", "mse", "mae"),
                 [(name, *m) for name in sorted(entries) for m in _part_metrics(entries[name])])
    return _report_failures(errors)


def _parse_proportions(raw: str) -> list[float]:
    try:
        values = [float(s) for s in raw.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"proportions must be numbers, got {raw!r}") from None
    if not values:
        raise ConfigError("at least one proportion is required")
    for i, v in enumerate(values):
        if not (0.0 <= v <= 1.0):
            raise ConfigError(f"proportions must lie in [0, 1], got {v}")
        if v in values[:i]:
            raise ConfigError(f"proportion {v} listed twice")
    return values


def cmd_filter_sweep(args) -> int:
    cfg = load_config(args.config)
    proportions = _parse_proportions(args.proportions)
    swept_model = _model_list(cfg)[0]
    pre_cfg = PreprocessConfig(**cfg.get("preprocess", {}))
    setting = _model_setting(cfg, swept_model, pre_cfg.window_width)
    ens_cfg = ens.EnsembleConfig(**cfg.get("ensemble", {}))
    base_filter = FilterConfig(**cfg.get("filter", {}))
    _check_targets(os.path.dirname(args.out) or os.curdir, [args.out], made=False)

    timings: dict[str, float] = {}
    table = _read_data(args.data, CsvSchema(**cfg.get("data", {})), timings)

    rows = []
    shared_audit = None
    errors: dict[str, tuple[int, str]] = {}
    for prop in proportions:
        t0 = time.perf_counter()
        split, audit = run_preprocess(table, pre_cfg, replace(base_filter, discard_proportion=prop))
        if shared_audit is None:
            shared_audit = asdict(replace(audit, filter=None))  # per row, not shared
        entry, _model, failure = _train_or_fail(swept_model, setting, split, ens_cfg)
        if failure is not None:
            errors[f"proportion={prop}"] = failure
        row = {
            "proportion": prop,
            "candidates": audit.filter["candidates"],
            "discarded": audit.filter["discarded"],
            "train_size": split.train.m,
        }
        for part, mse, mae in _part_metrics(entry):
            row[f"{part}_mse"], row[f"{part}_mae"] = mse, mae
        timings[f"proportion_{prop}_seconds"] = time.perf_counter() - t0
        rows.append(row)

    write_report({"config": dict(cfg, _overrides={"proportions": args.proportions}),
                  "audit": shared_audit, "models": {}, "timings": timings,
                  "sweep": [dict(r, model=swept_model) for r in rows],
                  "errors": {k: why for k, (_, why) in errors.items()}},
                 args.out)
    header = ("proportion", "discarded", "train_mse", "val_mse", "test_mse")
    _print_table(header, [[row[k] for k in header] for row in rows])
    return _report_failures(errors)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackcast",
        description="Vertical track height forecasting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic measurement CSV")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="preprocess, train, and report")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--data", required=True)
    p_run.add_argument("--out-dir", required=True)
    p_run.add_argument("--models", default=None,
                       help=f"comma-separated subset of {','.join(MODEL_NAMES)}")
    p_run.add_argument("--ensemble", default=None, choices=ens.ENSEMBLE_METHODS)
    p_run.add_argument("--stack", action="store_true", default=None)
    p_run.add_argument("--filter-proportion", type=float, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("filter-sweep",
                             help="train the first configured model across filter proportions")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--proportions", required=True,
                         help="comma-separated proportions in [0, 1]")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_filter_sweep)
    return parser


def _steady_memory() -> None:
    """For the rest of the process, pin glibc malloc to a 4 MiB mmap
    threshold and an 8 MiB trim threshold, where the C library has
    ``mallopt``, and stop numpy asking for transparent huge pages for
    its large arrays.

    Otherwise glibc raises its mmap threshold to the size of each mapped
    block freed, and a huge page counts 2 MB whenever the machine has
    one free, so a run's peak RSS followed the machine's free memory: a
    bagged ``train-neural`` run read 57 MB, and 59–67 MB beside another
    busy process.  A 128 KiB mmap threshold cost a third more time (each
    minibatch mapped fresh pages); a 16 MiB one kept 75 MB.  The trim
    threshold is twice the mmap threshold, the pair glibc's own
    adjustment sets.  The arenas are not capped: no thread is started
    (see ``pool``), so a command allocates from the main arena alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        mallopt = None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        for param, value in ((_M_MMAP_THRESHOLD, 4 << 20), (_M_TRIM_THRESHOLD, 8 << 20)):
            mallopt(param, value)
    hugepage = getattr((getattr(np, "_core", None) or np.core).multiarray,
                       "_set_madvise_hugepage", None)
    if hugepage is not None:
        hugepage(False)


def main(argv=None) -> int:
    _steady_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    # IllPosedError first: it is an InvalidArgumentError, but a fault of the data
    except (IllPosedError, SchemaError, DataFormatError, IntegrityError,
            UnsupportedVersionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
