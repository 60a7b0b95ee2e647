"""Per-layer metrics from the spans of one traced op.

Self time: a span's duration minus the part of its interval that its
child spans cover.  Each span's self time is then attributed to the
nearest enclosing span whose function is *reported* (has a metric of
its own); unreported helpers (``rng.*``, ``core.pearson``,
``neural.init_params``, the other ``cli`` functions, ...) fold into
their caller.  ``neural.predict_batch`` inside ``neural.dataset_mse``
also folds into ``dataset_mse``, so ``dataset_mse.s`` is the whole
end-of-epoch evaluation and ``predict_batch.s`` counts only the calls
outside it.  ``cli.main.self_s`` is therefore all time spent in the
``cli`` module itself.
"""
from __future__ import annotations

import statistics

ARCHS = ("lstm", "gru", "cnn")

PREPROCESS_STAGES = (
    "drop_constant_features",
    "remove_outliers_zscore",
    "select_features",
    "fit_scaler",
    "apply_scaler",
    "make_windows",
    "shuffle_split",
    "proportional_filter",
)
NEURAL_FUNCTIONS = ("loss_and_grads", "adam_step", "dataset_mse", "predict_batch", "train")

REPORTED = frozenset(
    ["ingest.read_csv", "ingest.write_csv", "ingest.generate_synthetic", "preprocess.run_preprocess"]
    + [f"preprocess.{s}" for s in PREPROCESS_STAGES]
    + ["linear.fit_linear", "linear.fit_arimax", "linear.predict_linear_batch", "linear.predict_arimax_batch"]
    + [f"neural.{f}" for f in NEURAL_FUNCTIONS]
    + [
        "ensemble.train_bagging",
        "ensemble.bootstrap_sample",
        "ensemble.fit_stacker",
        "ensemble.member_predictions",
        "ensemble.ensemble_predict_batch",
        "persistence.save_model",
        "persistence.write_report",
        "core.evaluate_metrics",
        "cli.main",
    ]
)


def self_times(spans) -> list[float]:
    """Duration minus the union of the child intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def _is_reported(spans, index) -> bool:
    name, parent = spans[index][0], spans[index][3]
    if name not in REPORTED:
        return False
    if name == "neural.predict_batch":
        while parent is not None:
            if spans[parent][0] == "neural.dataset_mse":
                return False
            parent = spans[parent][3]
    return True


def attributed_times(spans) -> tuple[list[float], list[bool]]:
    """Self time of every reported span plus that of the unreported
    spans it encloses (0 for unreported spans), and the reported flags."""
    own = self_times(spans)
    out = [0.0] * len(spans)
    reported = [_is_reported(spans, i) for i in range(len(spans))]
    for index in range(len(spans)):
        owner = index
        while not reported[owner] and spans[owner][3] is not None:
            owner = spans[owner][3]
        if reported[owner]:
            out[owner] += own[index]
    return out, reported


def span_metrics(spans) -> dict[str, float]:
    """Per-layer metrics that the spans of one op define."""
    att, reported = attributed_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for index, (name, _start, _end, _parent, arch, *_) in enumerate(spans):
        if not reported[index]:
            continue
        module, func = name.split(".", 1)
        if module == "neural":
            key = f"neural.{arch}.{func}"
            if func == "train":
                add(key + ".self_s", att[index])
            else:
                add(key + ".s", att[index])
            if func == "loss_and_grads":
                add(key + ".calls", 1)
        elif name == "cli.main":
            add("cli.main.self_s", att[index])
        else:
            add(name + ".s", att[index])

    trains = [s for s in spans if s[0] == "neural.train"]
    bagging = [s for s in spans if s[0] == "ensemble.train_bagging"]
    inside = [t for t in trains if any(b[1] <= t[1] and t[2] <= b[2] for b in bagging)]
    if bagging:
        add("ensemble.member_trainings", len(inside))
        span = sum(b[2] - b[1] for b in bagging)
        if span > 0:
            add("ensemble.member_overlap", sum(t[2] - t[1] for t in inside) / span)
    add("trace.spans", len(spans))
    return out


def report_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics read from one op's report.json."""
    out: dict[str, float] = {}
    audit = report.get("audit") or {}
    if "windows_total" in audit:
        out["preprocess.windows"] = audit["windows_total"]
    epochs = {a: [0, 0] for a in ARCHS}
    useful = []
    for name, entry in (report.get("models") or {}).items():
        test = (entry.get("metrics") or {}).get("test")
        if test is not None:
            out[f"test_mse.{name}"] = test["mse"]
        kind = entry.get("kind")
        if kind == "arimax":
            details = entry["details"]
            useful.append(1.0 if details["css_final"] < details["css_initial"] else 0.0)
        traces = []
        if kind == "network":
            traces = [entry["trace"]]
        elif kind == "ensemble":
            traces = entry["ensemble"]["member_traces"]
            out["ensemble.members"] = out.get("ensemble.members", 0) + entry["ensemble"]["member_count"]
        if name in epochs:
            for trace in traces:
                epochs[name][0] += trace["stopped_epoch"]
                epochs[name][1] += trace["best_epoch"]
    if useful:
        out["linear.arimax.refine_useful"] = sum(useful) / len(useful)
    for arch, (stopped, best) in epochs.items():
        if stopped:
            out[f"neural.{arch}.epochs"] = stopped
            out[f"neural.{arch}.best_epoch_ratio"] = best / stopped
    return out


def op_metrics(spans, report: dict | None) -> dict[str, float]:
    """Every per-layer metric one traced op defines."""
    out = span_metrics(spans)
    if report is not None:
        out.update(report_metrics(report))
    if out.get("ensemble.member_trainings"):
        out["ensemble.kept_ratio"] = out.get("ensemble.members", 0) / out["ensemble.member_trainings"]
    return out


def combine(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over the ops that define each metric."""
    names = sorted({name for op in per_op for name in op})
    return {name: float(statistics.median(op[name] for op in per_op if name in op)) for name in names}
