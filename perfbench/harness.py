"""Workloads, set-up, the closed op loop and the per-op correctness gate.

One client runs one ``trackcast`` CLI process (an *op*) at a time and
waits for it to end before starting the next: a closed loop with a
single client.  Each op's wall time is measured from just before the
process is spawned until it has been reaped; its CPU time and peak RSS
come from the kernel's resource usage for that child (see launcher.py).
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import layers
from trackcast import ensemble, linear, neural
from trackcast.core import evaluate_metrics
from trackcast.errors import TrackcastError
from trackcast.ingest import CsvSchema, SynthConfig, generate_synthetic, read_csv
from trackcast.persistence import load_model
from trackcast.preprocess import FilterConfig, PreprocessConfig, run_preprocess

ROWS = 30000  # rows of the generated table
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150
TRACED_CLI = Path(__file__).with_name("traced_cli.py")
LAUNCHER = Path(__file__).with_name("launcher.py")

PREDICTORS = {
    linear.LinearModel: linear.predict_linear_batch,
    linear.ArimaxModel: linear.predict_arimax_batch,
    neural.NetworkParams: neural.predict_batch,
    ensemble.EnsembleModel: ensemble.ensemble_predict_batch,
}


def base_config(seed: int, rows: int = ROWS) -> dict:
    """Every config key set explicitly; the values of configs/example.json
    apart from the synth seed and row count."""
    return {
        "synth": {
            "n_rows": rows,
            "n_features": 34,
            "outlier_rate": 0.001,
            "constant_feature_count": 8,
            "irrelevant_feature_count": 10,
            "uneven_segment_rate": 0.01,
            "seed": seed,
        },
        "data": {"mileage_column": "mileage", "meters_column": "meters", "target_column": "left_height"},
        "preprocess": {
            "zscore_threshold": 4.0,
            "correlation_threshold": None,
            "window_width": 8,
            "split_fractions": [0.85, 0.1, 0.05],
            "shuffle_seed": 0,
        },
        "filter": {"variance_threshold": 0.002, "discard_proportion": 0.2, "seed": 11},
        "model": {
            "models": ["lr"],
            "arima_order": [2, 0, 1],
            "hidden_size": 32,
            "kernel_count": 5,
            "kernel_width": 5,
        },
        "ensemble": {
            "method": "none",
            "members": 5,
            "boost_threshold": 0.15,
            "boost_residual_scope": "original",
            "stack": False,
        },
        "train": {
            "batch_size": 128,
            "max_epochs": 100,
            "patience": 3,
            "learning_rate": 0.001,
            "l2_lambda": 0.0001,
            "seed": 0,
        },
    }


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[str, ...]
    run_flags: tuple[str, ...]
    overrides: dict
    synth_ops: bool = False  # each loop iteration also runs `trackcast synth`

    def config(self, seed: int, rows: int = ROWS) -> dict:
        cfg = base_config(seed, rows)
        for section, body in self.overrides.items():
            cfg[section].update(body)
        cfg["model"]["models"] = list(self.models)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest-linear",
            ("lr", "arima"),
            ("--models", "lr,arima"),
            {},
            synth_ops=True,
        ),
        Workload(
            "train-neural",
            ("lstm", "gru", "cnn"),
            ("--models", "lstm,gru,cnn", "--ensemble", "bagging", "--stack"),
            {"ensemble": {"method": "bagging", "members": 2, "stack": True}, "train": {"max_epochs": 2}},
        ),
    )
}


def sig6(value: float) -> float:
    return float(f"{float(value):.6g}")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def reference_split(table, cfg: dict):
    pre = dict(cfg["preprocess"], split_fractions=tuple(cfg["preprocess"]["split_fractions"]))
    split, _audit = run_preprocess(table, PreprocessConfig(**pre), FilterConfig(**cfg["filter"]))
    return split


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, thread_env: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}; {blas.get('openblas configuration', '')}".strip("; ")
    except (TypeError, KeyError):
        blas_build = "unknown"
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "child_env": dict(thread_env),
        "git_commit": git_commit(root),
        "src_lines": src_lines,
    }


@dataclass
class Op:
    """One CLI process and what the gate found."""

    kind: str  # "synth" or "run"
    phase: str  # "setup" or "loop"
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    spawn_t: float
    problems: list[str] = field(default_factory=list)
    load_s: float = 0.0
    layer: dict = field(default_factory=dict)

    def record(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "layer"}


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
                 thread_env: dict, rows: int = ROWS):
        self.root = root
        self.thread_env = thread_env
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rows = rows
        self.cfg = workload.config(seed, rows)
        tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.work = root / ".perfbench" / f"work-{tag}-{os.getpid()}"
        self.result_path = root / ".perfbench" / "results" / f"{tag}.json"
        self.spans_path = root / ".perfbench" / "results" / f"{tag}.spans.json"
        self.config_path = self.work / "config.json"
        self.data_csv = self.work / "data.csv"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **thread_env)
        self.ops: list[Op] = []
        # op id -> that op's spans (parent indices are per op), written out at the end
        self.spans: dict[str, list] = {}
        self.csv_sha: str | None = None
        self.reference: tuple[dict, dict[str, bytes]] | None = None
        self.table = None
        self.split = None

    # -- processes -------------------------------------------------------

    def spawn(self, args: list[str], kind: str, phase: str, traced: bool, tag: str) -> Op:
        if traced:
            argv = [sys.executable, str(TRACED_CLI), tag, str(self.work / f"{tag}.spans.json"), *args]
        else:
            argv = [sys.executable, "-m", "trackcast.cli", *args]
        log = self.work / f"{tag}.log"
        request = {"argv": argv, "cwd": str(self.root), "env": self.env, "log": str(log), "timeout": OP_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the op launcher exited")
        reply = json.loads(reply)
        op = Op(
            kind=kind,
            phase=phase,
            traced=traced,
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            rss_mb=reply["rss_kb"] / 1024.0,
            exit_code=reply["exit_code"],
            spawn_t=reply["spawn_t"],
        )
        if op.exit_code != 0:
            op.problems.append(f"exit code {op.exit_code}")
            tail = log.read_text(errors="replace")[-2000:]
            print(f"op {tag} failed:\n{tail}", file=sys.stderr)
        self.ops.append(op)
        return op

    def synth_op(self, out: Path, phase: str, traced: bool, tag: str) -> Op:
        op = self.spawn(
            ["synth", "--config", str(self.config_path), "--out", str(out)], "synth", phase, traced, tag
        )
        if op.exit_code == 0:
            try:
                digest = sha256(out)
            except OSError as exc:
                op.problems.append(f"synth CSV unreadable: {exc}")
            else:
                if self.csv_sha is None:
                    self.csv_sha = digest
                elif digest != self.csv_sha:
                    op.problems.append("synth CSV differs from the first op's")
        if traced:
            self.trace_metrics(op, tag, None, {"ingest.write_csv": out})
        return op

    def run_op(self, data: Path, traced: bool, tag: str) -> Op:
        out_dir = self.work / tag
        args = ["run", "--config", str(self.config_path), "--data", str(data), "--out-dir", str(out_dir)]
        op = self.spawn(args + list(self.workload.run_flags), "run", "loop", traced, tag)
        report = self.check_run(op, out_dir)
        if traced:
            sizes = {"ingest.read_csv": data}
            self.trace_metrics(op, tag, report, sizes, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return op

    # -- correctness -----------------------------------------------------

    def check_run(self, op: Op, out_dir: Path) -> dict | None:
        """Artifacts load, reproduce the report's test MSE, and match the
        first run op byte for byte (the report outside ``timings``)."""
        try:
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            body = {k: v for k, v in report.items() if k != "timings"}
            found = sorted(p.stem for p in out_dir.glob("*.tckm"))
            if found != sorted(self.workload.models):
                op.problems.append(f"artifacts {found}, expected {sorted(self.workload.models)}")
            artifacts = {}
            test = self.split.test
            for name in self.workload.models:
                path = out_dir / f"{name}.tckm"
                artifacts[name] = path.read_bytes()
                t0 = time.perf_counter()
                model = load_model(path)
                op.load_s += time.perf_counter() - t0
                preds = PREDICTORS[type(model)](model, test.windows)
                mse = sig6(evaluate_metrics(test.targets, preds).mse)
                want = report["models"][name]["metrics"]["test"]["mse"]
                if mse != want:
                    op.problems.append(f"{name}: loaded model gives test MSE {mse}, report says {want}")
            if self.reference is None:
                self.reference = (body, artifacts)
            else:
                ref_body, ref_artifacts = self.reference
                if body != ref_body:
                    op.problems.append("report.json outside timings differs from the first op's")
                for name, blob in artifacts.items():
                    if blob != ref_artifacts.get(name):
                        op.problems.append(f"{name}.tckm differs from the first op's")
            return report
        except Exception as exc:  # the gate records every failure and keeps going
            op.problems.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def check_csv_readback(self) -> None:
        """The synth CSV (byte-identical across ops) parses back to the
        generated table bit for bit."""
        try:
            back = read_csv(self.data_csv, CsvSchema(**self.cfg["data"]))
        except (OSError, TrackcastError):
            traceback.print_exc(file=sys.stderr)
            back = None
        t = self.table
        same = back is not None and (
            back.column_names == t.column_names
            and back.id_columns == t.id_columns
            and back.target_column == t.target_column
            and back.rows.shape == t.rows.shape
            and back.rows.tobytes() == t.rows.tobytes()
        )
        if not same:
            for op in self.ops:
                if op.kind == "synth":
                    op.problems.append("synth CSV does not read back to the generated table")

    # -- tracing ---------------------------------------------------------

    def trace_metrics(self, op: Op, tag: str, report, byte_sources: dict, out_dir: Path | None = None):
        try:
            spans = json.loads((self.work / f"{tag}.spans.json").read_text())
        except (OSError, ValueError) as exc:
            op.problems.append(f"no spans: {exc}")
            return
        m = layers.op_metrics(spans, report)
        for fn, path in byte_sources.items():
            calls = sum(1 for s in spans if s[0] == fn)
            if calls and path.is_file():
                m[f"{fn}.bytes"] = calls * path.stat().st_size
        if out_dir is not None and any(s[0] == "persistence.save_model" for s in spans):
            m["persistence.save_model.bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.tckm"))
        if op.kind == "run":
            m["persistence.load_model.s"] = op.load_s
        main = next((s for s in spans if s[0] == "cli.main"), None)
        if main is not None:
            m["cli.startup_s"] = main[1] - op.spawn_t
        op.layer = m
        self.spans[tag] = spans

    # -- phases ----------------------------------------------------------

    def setup(self) -> list[float]:
        """Configs, the setup CSV (written by `trackcast synth`, which also
        warms the interpreter and page cache), the generated table and
        the reference split; repeated, one duration per repeat."""
        durations = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.config_path.write_text(json.dumps(self.cfg, indent=2), encoding="utf-8")
            self.synth_op(self.data_csv, "setup", False, f"setup{rep}")
            self.table = generate_synthetic(SynthConfig(**self.cfg["synth"]))
            self.split = reference_split(self.table, self.cfg)
            durations.append(time.perf_counter() - t0)
        return durations

    def loop(self) -> None:
        """Ops back to back until ``seconds`` have passed; in a traced run
        every second iteration is traced, starting untraced, and at least
        one of each kind runs."""
        t0 = time.perf_counter()
        k = 0
        least = 2 if self.trace else 1
        while k < least or time.perf_counter() - t0 < self.seconds:
            traced = self.trace and k % 2 == 1
            data = self.data_csv
            if self.workload.synth_ops:
                data = self.work / f"op{k}.csv"
                self.synth_op(data, "loop", traced, f"synth{k}")
            self.run_op(data, traced, f"op{k}")
            if data != self.data_csv:
                data.unlink(missing_ok=True)
            k += 1

    def __enter__(self) -> "Bench":
        """Creates the work directory and starts the op launcher."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stops the launcher (and on an error its op) and removes the
        work directory."""
        if exc_type is not None:
            try:
                os.killpg(self.launcher.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.launcher.stdin.close()
        except BrokenPipeError:
            pass
        self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def execute(self) -> dict:
        with self:
            setup_s = self.setup()
            self.loop()
            if self.workload.synth_ops:
                self.check_csv_readback()
        return self.summarize(setup_s)

    def summarize(self, setup_s: list[float]) -> dict:
        plain = [op for op in self.ops if not op.traced]
        runs = [op.wall_s for op in plain if op.kind == "run"]
        synths = [op.wall_s for op in plain if op.kind == "synth"]
        failed = sum(1 for op in self.ops if op.problems)
        end_to_end = {
            "setup_s": statistics.median(setup_s),
            "run_s.p50": statistics.median(runs),
            "run_s.max": max(runs),
            "cpu_s.p50": statistics.median(op.cpu_s for op in plain if op.kind == "run"),
            "peak_rss_mb": max(op.rss_mb for op in plain),
        }
        per_layer = layers.combine([op.layer for op in self.ops if op.traced and op.layer])
        # an op-level time, not a bounded end-to-end metric: with three
        # samples per run it spread past any allowed bound
        per_layer["synth_s.p50"] = statistics.median(synths)
        traced_runs = [op.wall_s for op in self.ops if op.traced and op.kind == "run"]
        if traced_runs:
            per_layer["trace.overhead_s"] = statistics.median(traced_runs) - statistics.median(runs)
        outputs = layers.report_metrics(self.reference[0]) if self.reference else {}
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "rows": self.rows,
            "loop": "closed, 1 client, 1 process at a time",
            "attempted": len(self.ops),
            "failed": failed,
            "fail_frac": failed / len(self.ops),
            "setup_samples_s": setup_s,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "test_mse": {k: v for k, v in outputs.items() if k.startswith("test_mse.")},
            "ops": [op.record() for op in self.ops],
            "environment": environment(self.root, self.thread_env),
        }
