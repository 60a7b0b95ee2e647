"""Self-tests of the benchmark: span arithmetic, wrapper installation,
report equality under tracing, metric coverage and naming, and the gate.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import trackcast  # noqa: E402
from trackcast import cli, ensemble, ingest, neural  # noqa: E402
from tracer import Tracer, package_modules, public_functions  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Workload on which each per-layer metric should appear, by name prefix;
# the first prefix that matches wins, and None means every workload.
PRODUCED_ON = (
    ("trace.", None),
    ("cli.", None),
    ("core.", None),
    ("persistence.", None),
    ("test_mse.lr", "ingest-linear"),
    ("test_mse.arima", "ingest-linear"),
    ("test_mse.", "train-neural"),
    ("neural.", "train-neural"),
    ("ensemble.", "train-neural"),
    ("", "ingest-linear"),
)


def snapshot():
    return {mod.__name__: dict(vars(mod)) for mod in package_modules(trackcast)}


# -- span arithmetic ----------------------------------------------------


def test_self_time_over_nested_spans():
    spans = [
        ["neural.train", 0.0, 20.0, None, "gru", "op1"],
        ["neural.dataset_mse", 10.0, 18.0, 0, "gru", "op1"],
        ["neural.predict_batch", 11.0, 13.0, 1, "gru", "op1"],
        ["neural.predict_batch", 14.0, 17.0, 1, "gru", "op1"],
        ["neural.predict_batch", 18.5, 19.5, 0, "gru", "op1"],
        ["rng.derive_seed", 1.0, 2.0, 0, None, "op1"],
    ]
    assert layers.self_times(spans) == [10.0, 3.0, 2.0, 3.0, 1.0, 1.0]
    m = layers.span_metrics(spans)
    assert m["neural.gru.train.self_s"] == 11.0  # the unreported rng span folds in
    assert m["neural.gru.dataset_mse.s"] == 8.0  # its predict_batch calls fold in
    assert m["neural.gru.predict_batch.s"] == 1.0  # only the call outside dataset_mse


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["ensemble.train_bagging", 0.0, 10.0, None, "cnn", "op1"],
        ["neural.train", 1.0, 5.0, 0, "cnn", "op1"],
        ["neural.train", 3.0, 7.0, 0, "cnn", "op1"],
    ]
    assert layers.self_times(spans)[0] == 4.0
    m = layers.span_metrics(spans)
    assert m["ensemble.member_overlap"] == 0.8
    assert m["ensemble.member_trainings"] == 2


def test_traced_training_nests_predict_batch_in_dataset_mse(small_split):
    tracer = Tracer()
    tracer.install(trackcast)
    try:
        neural.train(neural.NetworkConfig(arch="cnn", max_epochs=1), small_split.train, small_split.val)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    evals = [i for i, s in enumerate(spans) if s[0] == "neural.dataset_mse"]
    assert len(evals) == 2  # train and validation MSE after the one epoch
    for i in evals:
        kids = [s for s in spans if s[3] == i]
        assert kids and all(s[0] == "neural.predict_batch" for s in kids)
        assert all(spans[i][1] <= s[1] <= s[2] <= spans[i][2] for s in kids)
    assert {s[4] for s in spans if s[0].startswith("neural.")} <= {"cnn", None}
    m = layers.span_metrics(spans)
    inclusive = sum(spans[i][2] - spans[i][1] for i in evals)
    assert m["neural.cnn.dataset_mse.s"] == pytest.approx(inclusive)
    assert "neural.cnn.predict_batch.s" not in m


# -- wrapper installation -----------------------------------------------


def test_wrappers_cover_names_bound_by_value_and_are_removed():
    before = snapshot()
    originals = {id(fn) for _name, fn in public_functions(trackcast).values()}
    tracer = Tracer()
    tracer.install(trackcast)
    try:
        for fn in (cli.read_csv, cli.write_csv, cli.generate_synthetic, cli.run_preprocess,
                   cli.save_model, cli.write_report, cli.evaluate_metrics,
                   ensemble.train, ensemble.predict_batch, neural.predict, cli.main):
            assert getattr(fn, "__wrapped_by_tracer__", False), fn
        assert cli.read_csv is ingest.read_csv
        assert ensemble.train is neural.train and ensemble.predict_batch is neural.predict_batch
        assert neural.predict is neural.forward
        for mod in package_modules(trackcast):
            for attr, obj in vars(mod).items():
                assert id(obj) not in originals, f"{mod.__name__}.{attr} is still unwrapped"
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys()
        for attr, obj in namespace.items():
            assert after[name][attr] is obj, f"{name}.{attr} was not restored"
    for namespace in after.values():
        for obj in namespace.values():
            assert not (isinstance(obj, types.FunctionType) and hasattr(obj, "__wrapped_by_tracer__"))


# -- tracing does not change results ------------------------------------


def test_traced_reports_equal_untraced_reports(tmp_path):
    cfg = harness.WORKLOADS["train-neural"].config(seed=5, rows=1500)
    cfg["model"]["models"] = ["lr", "cnn"]
    cfg["ensemble"]["members"] = 2
    cfg["train"]["max_epochs"] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--config", str(config), "--out", str(data)]) == 0
    outputs = {}
    for traced in (False, True):
        out = tmp_path / f"out{int(traced)}"
        tracer = Tracer()
        if traced:
            tracer.install(trackcast)
        try:
            code = cli.main(["run", "--config", str(config), "--data", str(data), "--out-dir", str(out)])
        finally:
            tracer.uninstall()
        assert code == 0
        assert bool(tracer.spans) == traced
        report = json.loads((out / "report.json").read_text())
        report.pop("timings")
        outputs[traced] = (report, {p.name: p.read_bytes() for p in out.glob("*.tckm")})
    assert outputs[True] == outputs[False]


# -- benchmark runs -----------------------------------------------------


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def produced_on(name: str) -> str | None:
    return next(workload for prefix, workload in PRODUCED_ON if name.startswith(prefix))


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_per_layer_metric_appears_on_its_workload(workload):
    bench = harness.Bench(ROOT, harness.WORKLOADS[workload], seed=4, seconds=0, trace=True,
                          thread_env=run.THREAD_ENV, rows=3000)
    result = bench.execute()
    line = run.result_line(result, SPEC)
    assert line["correct"] and line["failed"] == 0
    assert [*line["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        name = m["name"]
        if produced_on(name) not in (workload, None):
            continue
        assert name in result["per_layer"], name
        if m["unit"] in ("s", "B", "count") and name != "trace.overhead_s":
            assert line["metrics"][name]["value"] > 0, name


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_bench(ROOT, "--workload", "ingest-linear", "--seed", "6", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == harness.SETUP_REPEATS + 2 and line["failed"] == 0
    assert [*line["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
    for m in SPEC["end_to_end"]:
        assert f"  {m['name']} " in proc.stdout
    env = json.loads((ROOT / ".perfbench" / "results" / "ingest-linear-seed6-trace0.json").read_text())["environment"]
    assert env["child_env"] == run.THREAD_ENV and env["src_lines"] > 0 and env["nproc"] >= 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "ingest-linear", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_flags_a_report_that_the_artifact_does_not_reproduce(tmp_path):
    bench = harness.Bench(tmp_path, harness.WORKLOADS["ingest-linear"], seed=2, seconds=0,
                          trace=False, thread_env=run.THREAD_ENV, rows=1500)
    bench.env["PYTHONPATH"] = str(ROOT / "src")
    with bench:
        bench.setup()
        first = bench.run_op(bench.data_csv, False, "op0")
        assert first.problems == []
        out_dir = bench.work / "op1"
        args = ["run", "--config", str(bench.config_path), "--data", str(bench.data_csv),
                "--out-dir", str(out_dir), "--models", "lr,arima"]
        op = bench.spawn(args, "run", "loop", False, "op1")
        report = json.loads((out_dir / "report.json").read_text())
        report["models"]["lr"]["metrics"]["test"]["mse"] *= 2
        (out_dir / "report.json").write_text(json.dumps(report))
        bench.check_run(op, out_dir)
    assert any("lr: loaded model gives test MSE" in p for p in op.problems)
    assert any("report.json outside timings differs" in p for p in op.problems)


# -- names --------------------------------------------------------------


def test_metric_and_workload_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.fixture(scope="module")
def small_split():
    table = trackcast.ingest.generate_synthetic(trackcast.ingest.SynthConfig(n_rows=1500, seed=3))
    return harness.reference_split(table, harness.base_config(3, 1500))
