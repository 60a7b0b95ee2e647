"""Batch command-line driver.

Three subcommands wire the pipeline end to end from one JSON config:
``synth`` writes a generated CSV, ``run`` preprocesses + trains +
reports, ``filter-sweep`` repeats a run across filter proportions.

Exit codes: 0 success, 2 configuration problem, 3 I/O or data-file
problem, 4 numeric divergence during training.  When ``run`` fails to
fit a model, because it diverged (4) or the data holds too few windows
for its coefficients (3), the report is still written with whatever
finished; 3 wins over 4.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

from . import ensemble as ens
from . import linear as lin
from . import neural as net
from .core import SplitSet, evaluate_metrics
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
from .persistence import (
    RunReport,
    boost_trace_as_dict,
    save_model,
    trace_as_dict,
    write_report,
)
from .preprocess import FilterConfig, PreprocessConfig, run_preprocess

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4

MODEL_NAMES = ("lr", "arima", "lstm", "gru", "cnn")
ENSEMBLE_METHODS = ("none", "bagging", "boosting")

_SECTION_KEYS = {
    "synth": {
        "n_rows", "n_features", "outlier_rate", "constant_feature_count",
        "irrelevant_feature_count", "uneven_segment_rate", "seed",
    },
    "data": {"mileage_column", "meters_column", "target_column"},
    "preprocess": {
        "zscore_threshold", "correlation_threshold", "window_width",
        "split_fractions", "shuffle_seed",
    },
    "filter": {"variance_threshold", "discard_proportion", "seed"},
    "model": {"models", "arima_order", "hidden_size", "kernel_count", "kernel_width"},
    "ensemble": {"method", "members", "boost_threshold", "boost_residual_scope", "stack"},
    "train": {
        "batch_size", "max_epochs", "patience", "learning_rate", "l2_lambda", "seed",
    },
}


def load_config(path) -> dict:
    """Parse and structurally validate the JSON config file."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for section, body in cfg.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(body) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown keys in config section {section!r}: {sorted(unknown)}"
            )
    return cfg


@contextmanager
def _section_values(where: str):
    """Report a value the config cannot take, whether a range check or a
    failed int()/float()/tuple() coercion rejects it, as a ConfigError."""
    try:
        yield
    except (InvalidArgumentError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _synth_config(cfg: dict) -> SynthConfig:
    body = dict(cfg.get("synth", {}))
    if "n_rows" not in body:
        raise ConfigError("synth section must set n_rows")
    with _section_values("synth section"):
        return SynthConfig(**body)


def _schema(cfg: dict) -> CsvSchema:
    return CsvSchema(**cfg.get("data", {}))


def _preprocess_config(cfg: dict) -> PreprocessConfig:
    body = dict(cfg.get("preprocess", {}))
    with _section_values("preprocess section"):
        if "split_fractions" in body:
            body["split_fractions"] = tuple(body["split_fractions"])
        return PreprocessConfig(**body)


def _filter_config(cfg: dict, override_proportion) -> FilterConfig | None:
    body = dict(cfg.get("filter", {}))
    if override_proportion is not None:
        body["discard_proportion"] = float(override_proportion)
    if not body and override_proportion is None:
        return None
    with _section_values("filter section"):
        return FilterConfig(**body)


def _model_list(cfg: dict, override) -> list[str]:
    if override is not None:
        names = [s.strip() for s in override.split(",") if s.strip()]
    else:
        names = list(cfg.get("model", {}).get("models", ["lr"]))
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


def _network_config(cfg: dict, arch: str) -> net.NetworkConfig:
    model = cfg.get("model", {})
    train_sec = cfg.get("train", {})
    with _section_values("model/train section"):
        return net.NetworkConfig(
            arch=arch,
            hidden_size=int(model.get("hidden_size", 32)),
            kernel_count=int(model.get("kernel_count", 5)),
            kernel_width=int(model.get("kernel_width", 5)),
            l2_lambda=float(train_sec.get("l2_lambda", 1e-4)),
            batch_size=int(train_sec.get("batch_size", 128)),
            max_epochs=int(train_sec.get("max_epochs", 100)),
            patience=int(train_sec.get("patience", 3)),
            learning_rate=float(train_sec.get("learning_rate", 1e-3)),
            seed=int(train_sec.get("seed", 0)),
        )


def _arima_order(cfg: dict, window_len: int) -> tuple[int, int, int]:
    order = cfg.get("model", {}).get("arima_order", [2, 0, 0])
    if not (isinstance(order, (list, tuple)) and len(order) == 3):
        raise ConfigError("arima_order must be a list [p, d, q]")
    with _section_values("model section: arima_order"):
        return lin.check_order(*order, window_len)


def _model_setting(cfg: dict, name: str, window_len: int):
    """What training model ``name`` needs besides the data: the ARIMA
    order, the network config, or nothing for ``lr``; checked against
    the window length the preprocessing will cut."""
    if name == "lr":
        return None
    if name == "arima":
        return _arima_order(cfg, window_len)
    net_cfg = _network_config(cfg, name)
    if name == "cnn" and net_cfg.kernel_width >= int(window_len):
        raise ConfigError(f"model section: kernel_width {net_cfg.kernel_width}"
                          f" must be smaller than window_width {window_len}")
    return net_cfg


def _ensemble_settings(cfg: dict, method_override, stack_override):
    body = cfg.get("ensemble", {})
    method = method_override if method_override is not None else body.get("method", "none")
    if method not in ENSEMBLE_METHODS:
        raise ConfigError(
            f"ensemble method must be one of {', '.join(ENSEMBLE_METHODS)}"
        )
    stack = bool(body.get("stack", False)) or bool(stack_override)
    with _section_values("ensemble section"):
        members = int(body.get("members", 5))
        boost_threshold = float(body.get("boost_threshold", 0.15))
    scope = body.get("boost_residual_scope", "original")
    if members < 1:
        raise ConfigError("ensemble members must be positive")
    if not boost_threshold > 0.0:
        raise ConfigError("ensemble boost_threshold must be positive")
    if scope not in ens.RESIDUAL_SCOPES:
        raise ConfigError(
            f"boost_residual_scope must be one of {', '.join(ens.RESIDUAL_SCOPES)}"
        )
    return {
        "method": method,
        "members": members,
        "boost_threshold": boost_threshold,
        "boost_residual_scope": scope,
        "stack": stack,
    }


def _parts(split: SplitSet):
    return (("train", split.train), ("val", split.val), ("test", split.test))


def _predict_parts(predict_fn, split: SplitSet) -> dict:
    """``predict_fn(windows)`` for every non-empty part of the split."""
    return {name: predict_fn(part.windows) for name, part in _parts(split) if part.m}


def _metrics_of(preds: dict, split: SplitSet) -> dict:
    """MSE and MAE of ``preds`` (as ``_predict_parts`` returns them) per
    part; None for an empty part."""
    out = {}
    for name, part in _parts(split):
        if name not in preds:
            out[name] = None
            continue
        pair = evaluate_metrics(part.targets, preds[name])
        out[name] = {"mse": pair.mse, "mae": pair.mae}
    return out


def _split_metrics(predict_fn, split: SplitSet) -> dict:
    return _metrics_of(_predict_parts(predict_fn, split), split)


def _train_one_model(name: str, setting, split: SplitSet, ens_settings: dict):
    """Train one configured model from its ``_model_setting``;
    returns (entry dict, model object)."""
    if name == "lr":
        model = lin.fit_linear(split.train)
        entry = {
            "kind": "linear",
            "metrics": _split_metrics(lambda w: lin.predict_linear_batch(model, w), split),
            "details": {"ridge_fallback": model.ridge_fallback},
        }
        return entry, model
    if name == "arima":
        p, d, q = setting
        model = lin.fit_arimax(split.train, p, d, q)
        entry = {
            "kind": "arimax",
            "metrics": _split_metrics(lambda w: lin.predict_arimax_batch(model, w), split),
            "details": {
                "order": [p, d, q],
                "css_initial": model.css_initial,
                "css_final": model.css_final,
                "css_warning": model.css_warning,
            },
        }
        return entry, model
    net_cfg = setting
    if ens_settings["method"] == "none":
        params, trace = net.train(net_cfg, split.train, split.val)
        entry = {
            "kind": "network",
            "metrics": _split_metrics(lambda w: net.predict_batch(params, w), split),
            "trace": trace_as_dict(trace),
        }
        return entry, params
    if ens_settings["method"] == "bagging":
        model = ens.train_bagging(net_cfg, ens_settings["members"], split.train, split.val)
    else:
        model = ens.train_boosting(
            net_cfg,
            ens_settings["members"],
            ens_settings["boost_threshold"],
            split.train,
            split.val,
            residual_scope=ens_settings["boost_residual_scope"],
        )
    # one prediction pass per member and part feeds the stacker, the
    # member metrics and the ensemble metrics
    cols = _predict_parts(lambda w: ens.member_predictions(model.members, w), split)
    if ens_settings["stack"]:
        model = ens.with_stacker(model, split.val, cols["val"])
    member_metrics = [
        _metrics_of({part: c[:, j] for part, c in cols.items()}, split)
        for j in range(len(model.members))
    ]
    entry = {
        "kind": "ensemble",
        "metrics": _metrics_of(
            {
                name: ens.ensemble_predict_batch(model, part.windows, cols[name])
                for name, part in _parts(split)
                if name in cols
            },
            split,
        ),
        "ensemble": {
            "method": model.method,
            "member_count": len(model.members),
            "boost_threshold": model.boost_threshold,
            "combiner": {
                "kind": model.combiner.kind,
                "weights": list(model.combiner.weights),
                "bias": model.combiner.bias,
                "fallback_reason": model.combiner.fallback_reason,
            },
            "member_metrics": member_metrics,
            "member_traces": [trace_as_dict(t) for t in model.member_traces],
            "boost_trace": None
            if model.boost_trace is None
            else boost_trace_as_dict(model.boost_trace),
            "retried_members": list(model.retried_members),
        },
    }
    return entry, model


def _print_summary(models: dict) -> None:
    rows = [("model", "split", "mse", "mae")]
    for name in sorted(models):
        metrics = models[name].get("metrics") or {}
        for part in ("train", "val", "test"):
            pair = metrics.get(part)
            if pair is None:
                rows.append((name, part, "-", "-"))
            else:
                rows.append((name, part, f"{pair['mse']:.6g}", f"{pair['mae']:.6g}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip())


def _effective_config(cfg: dict, overrides: dict) -> dict:
    echo = json.loads(json.dumps(cfg))
    echo["_overrides"] = {k: v for k, v in overrides.items() if v not in (None, False)}
    return echo


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    synth_cfg = _synth_config(cfg)
    table = generate_synthetic(synth_cfg)
    write_csv(table, args.out)
    print(f"wrote {table.n_rows} rows x {table.n_columns} columns to {args.out}")
    return EXIT_OK


def _read_data(path, schema: CsvSchema, timings: dict):
    if not os.path.isfile(path):
        raise DataFormatError(f"data file not found: {path}")
    t0 = time.perf_counter()
    table = read_csv(path, schema)
    timings["read_csv_seconds"] = time.perf_counter() - t0
    return table


def _fit_failure(exc) -> tuple[int, str]:
    """Exit code and ``errors`` line for a model that failed to fit.  Too
    few windows for the model's coefficients is a fault of the data, not
    of the config."""
    if isinstance(exc, NumericDivergenceError):
        return EXIT_DIVERGENCE, f"numeric divergence: {exc}"
    return EXIT_IO, f"ill-posed fit: {exc}"


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    models = _model_list(cfg, args.models)
    pre_cfg = _preprocess_config(cfg)
    settings = {name: _model_setting(cfg, name, pre_cfg.window_width) for name in models}
    ens_settings = _ensemble_settings(cfg, args.ensemble, args.stack)
    filter_cfg = _filter_config(cfg, args.filter_proportion)
    schema = _schema(cfg)

    timings: dict[str, float] = {}
    table = _read_data(args.data, schema, timings)

    os.makedirs(args.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    split, audit = run_preprocess(table, pre_cfg, filter_cfg)
    timings["preprocess_seconds"] = time.perf_counter() - t0

    entries: dict[str, dict] = {}
    errors: dict[str, str] = {}
    failure_codes = set()
    for name in models:
        t0 = time.perf_counter()
        try:
            entry, model = _train_one_model(name, settings[name], split, ens_settings)
        except (NumericDivergenceError, IllPosedError) as exc:
            code, errors[name] = _fit_failure(exc)
            failure_codes.add(code)
            trace = getattr(exc, "trace", None)
            entries[name] = {
                "kind": "failed",
                "metrics": None,
                "trace": None if trace is None else trace_as_dict(trace),
            }
        else:
            entries[name] = entry
            save_model(model, os.path.join(args.out_dir, f"{name}.tckm"))
        timings[f"train_{name}_seconds"] = time.perf_counter() - t0

    overrides = {
        "models": args.models,
        "ensemble": args.ensemble,
        "stack": args.stack,
        "filter_proportion": args.filter_proportion,
    }
    report = RunReport(
        config=_effective_config(cfg, overrides),
        audit=audit.as_dict(),
        models=entries,
        timings=timings,
        errors=errors,
    )
    write_report(report, os.path.join(args.out_dir, "report.json"))
    _print_summary(entries)
    for name in sorted(errors):
        print(f"{name}: {errors[name]}", file=sys.stderr)
    return min(failure_codes, default=EXIT_OK)


def _parse_proportions(raw: str) -> list[float]:
    try:
        values = [float(s) for s in raw.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"proportions must be numbers, got {raw!r}") from None
    if not values:
        raise ConfigError("at least one proportion is required")
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise ConfigError(f"proportions must lie in [0, 1], got {v}")
    return values


def cmd_filter_sweep(args) -> int:
    cfg = load_config(args.config)
    proportions = _parse_proportions(args.proportions)
    models = _model_list(cfg, None)
    swept_model = models[0]
    pre_cfg = _preprocess_config(cfg)
    setting = _model_setting(cfg, swept_model, pre_cfg.window_width)
    ens_settings = _ensemble_settings(cfg, None, None)
    base_filter = _filter_config(cfg, None) or FilterConfig()
    schema = _schema(cfg)

    timings: dict[str, float] = {}
    table = _read_data(args.data, schema, timings)

    rows = []
    shared_audit = None
    errors: dict[str, str] = {}
    failure_codes = set()
    for prop in proportions:
        filter_cfg = FilterConfig(
            variance_threshold=base_filter.variance_threshold,
            discard_proportion=prop,
            seed=base_filter.seed,
        )
        t0 = time.perf_counter()
        split, audit = run_preprocess(table, pre_cfg, filter_cfg)
        if shared_audit is None:
            shared_audit = audit.as_dict()
            shared_audit["filter"] = None  # per-row, not shared
        row = {
            "proportion": prop,
            "candidates": audit.filter_candidates,
            "discarded": audit.filter_discarded,
            "train_size": split.train.m,
        }
        try:
            entry, _model = _train_one_model(swept_model, setting, split, ens_settings)
        except (NumericDivergenceError, IllPosedError) as exc:
            code, errors[f"proportion={prop}"] = _fit_failure(exc)
            failure_codes.add(code)
            row.update({"train_mse": None, "val_mse": None, "test_mse": None,
                        "train_mae": None, "val_mae": None, "test_mae": None})
        else:
            for part in ("train", "val", "test"):
                pair = entry["metrics"][part]
                row[f"{part}_mse"] = None if pair is None else pair["mse"]
                row[f"{part}_mae"] = None if pair is None else pair["mae"]
        timings[f"proportion_{prop}_seconds"] = time.perf_counter() - t0
        rows.append(row)

    report = RunReport(
        config=_effective_config(cfg, {"proportions": args.proportions}),
        audit=shared_audit or {},
        models={},
        timings=timings,
        sweep=[dict(r, model=swept_model) for r in rows],
        errors=errors,
    )
    write_report(report, args.out)

    header = ("proportion", "discarded", "train_mse", "val_mse", "test_mse")
    table_rows = [header]
    for row in rows:
        table_rows.append(tuple(
            "-" if row.get(k) is None else (f"{row[k]:.6g}" if isinstance(row[k], float) else str(row[k]))
            for k in header
        ))
    widths = [max(len(r[i]) for r in table_rows) for i in range(len(header))]
    for r in table_rows:
        print("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip())
    return min(failure_codes, default=EXIT_OK)


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
                       help="comma-separated subset of lr,arima,lstm,gru,cnn")
    p_run.add_argument("--ensemble", default=None, choices=ENSEMBLE_METHODS)
    p_run.add_argument("--stack", action="store_true", default=False)
    p_run.add_argument("--filter-proportion", type=float, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("filter-sweep",
                             help="repeat a run across filter proportions")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--proportions", required=True,
                         help="comma-separated proportions in [0, 1]")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_filter_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, DataFormatError, IntegrityError, UnsupportedVersionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericDivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
