import contextlib
import errno
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcast import cli
from trackcast import linear as lin
from trackcast import neural as net
from trackcast import pool
from trackcast.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    main,
)
from trackcast.core import evaluate_metrics
from trackcast.errors import IllPosedError, InvalidArgumentError, NumericDivergenceError
from trackcast.ensemble import EnsembleConfig, EnsembleModel, ensemble_predict_batch
from trackcast.ingest import SynthConfig, generate_synthetic, read_csv, write_csv
from trackcast.neural import predict_batch
from trackcast.persistence import _sig6, load_model
from trackcast.preprocess import FilterConfig, PreprocessConfig, run_preprocess


def write_config(directory, body):
    path = os.path.join(str(directory), "config.json")
    with open(path, "w") as fh:
        json.dump(body, fh)
    return path


def read_report(out_dir):
    with open(os.path.join(str(out_dir), "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(ws, tmp_path, *extra, config=None):
    out_dir = tmp_path / "out"
    code = main([
        "run",
        "--config", config or ws["config"],
        "--data", ws["data"],
        "--out-dir", str(out_dir),
        *extra,
    ])
    return code, out_dir


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "none.json"),
                     "--data", "x.csv", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        code = main(["run", "--config", str(path), "--data", "x.csv",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["synth", "run", "filter-sweep"])
    def test_config_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"synth": {"n_rows": 100}}\xff')
        out = tmp_path / "out"
        args = {
            "synth": ["--out", str(out)],
            "run": ["--data", "x.csv", "--out-dir", str(out)],
            "filter-sweep": ["--data", "x.csv", "--proportions", "0.2", "--out", str(out)],
        }[command]
        code = main([command, "--config", str(path), *args])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: config file {path} is not valid UTF-8"]

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, {"modelz": {}})
        code = main(["run", "--config", path, "--data", "x.csv",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_unknown_key_in_section(self, tmp_path):
        path = write_config(tmp_path, {"train": {"warmup": 5}})
        code = main(["run", "--config", path, "--data", "x.csv",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_unknown_model_name(self, cli_workspace, tmp_path):
        code, _ = run_cli(cli_workspace, tmp_path, "--models", "forest")
        assert code == EXIT_CONFIG

    def test_duplicate_model(self, cli_workspace, tmp_path):
        code, _ = run_cli(cli_workspace, tmp_path, "--models", "lr,lr")
        assert code == EXIT_CONFIG

    def test_synth_requires_n_rows(self, tmp_path):
        path = write_config(tmp_path, {"synth": {"seed": 1}})
        code = main(["synth", "--config", path, "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_CONFIG

    def test_sweep_proportion_out_of_range(self, cli_workspace, tmp_path):
        code = main(["filter-sweep", "--config", cli_workspace["config"],
                     "--data", cli_workspace["data"],
                     "--proportions", "0.2,1.5",
                     "--out", str(tmp_path / "sweep.json")])
        assert code == EXIT_CONFIG

    def test_sweep_proportion_listed_twice(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", cli_workspace["config"],
                     "--data", cli_workspace["data"], "--proportions", "0.5,0,0.0",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == "config error: proportion 0.0 listed twice\n"

    def test_sweep_proportions_not_numeric(self, cli_workspace, tmp_path):
        code = main(["filter-sweep", "--config", cli_workspace["config"],
                     "--data", cli_workspace["data"],
                     "--proportions", "a,b",
                     "--out", str(tmp_path / "sweep.json")])
        assert code == EXIT_CONFIG

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestConfigValidatedBeforeData:
    """Every setting a run uses is resolved before the CSV is read, so a
    bad value exits 2 without creating ``--out-dir``."""

    def _run(self, ws, tmp_path, section, body, *extra):
        cfg = json.loads(json.dumps(ws["config_dict"]))
        cfg.setdefault(section, {}).update(body)
        return run_cli(ws, tmp_path, *extra, config=write_config(tmp_path, cfg))

    def test_non_integer_member_count(self, cli_workspace, tmp_path):
        code, out_dir = self._run(cli_workspace, tmp_path, "ensemble", {"members": "five"})
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    def test_non_integer_arima_order(self, cli_workspace, tmp_path):
        code, out_dir = self._run(cli_workspace, tmp_path, "model",
                                  {"arima_order": [2, 0, "x"]}, "--models", "lr,arima")
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("order", [[-1, 0, 0], [1, 3, 0]])
    def test_arima_order_out_of_range(self, cli_workspace, tmp_path, order):
        code, out_dir = self._run(cli_workspace, tmp_path, "model",
                                  {"arima_order": order}, "--models", "lr,arima")
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("order", [[8, 0, 0], [0, 0, 8], [2, 0, 4]])
    def test_arima_order_too_long_for_the_window(self, cli_workspace, tmp_path, order):
        # window_width 8: needs l > p + d, l > q and l >= p + q + d + 3
        code, out_dir = self._run(cli_workspace, tmp_path, "model",
                                  {"arima_order": order}, "--models", "lr,arima")
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    def test_cnn_kernel_as_wide_as_the_window(self, cli_workspace, tmp_path, capsys):
        code, out_dir = self._run(cli_workspace, tmp_path, "model",
                                  {"kernel_width": 8}, "--models", "cnn")
        assert code == EXIT_CONFIG
        assert not out_dir.exists()
        assert "kernel_width 8" in capsys.readouterr().err

    def test_bad_residual_scope(self, cli_workspace, tmp_path):
        code, out_dir = self._run(cli_workspace, tmp_path, "ensemble",
                                  {"boost_residual_scope": "all"},
                                  "--models", "cnn", "--ensemble", "boosting")
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    def test_bad_residual_scope_wins_over_missing_data(self, cli_workspace, tmp_path):
        no_data = dict(cli_workspace, data=str(tmp_path / "none.csv"))
        code, out_dir = self._run(no_data, tmp_path, "ensemble",
                                  {"boost_residual_scope": "all"},
                                  "--models", "cnn", "--ensemble", "boosting")
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    def test_non_numeric_network_setting(self, cli_workspace, tmp_path):
        code, out_dir = self._run(cli_workspace, tmp_path, "train",
                                  {"batch_size": "big"}, "--models", "gru")
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, body, extra", [
        ("preprocess", {"zscore_threshold": 0}, ()),
        ("preprocess", {"split_fractions": [0.5, 0.3, 0.3]}, ()),
        ("preprocess", {"window_width": 1}, ()),
        ("ensemble", {"members": 0}, ()),
        ("ensemble", {"boost_threshold": 0}, ("--models", "cnn", "--ensemble", "boosting")),
        ("preprocess", {"shuffle_seed": -1}, ()),
        ("filter", {"seed": -1}, ()),
        ("train", {"seed": -3}, ("--models", "cnn")),
    ], ids=["zscore_threshold", "split_fractions", "window_width", "members",
            "boost_threshold", "shuffle_seed", "filter_seed", "train_seed"])
    def test_rule_held_by_a_config(self, cli_workspace, tmp_path, capsys, section, body, extra):
        """The config dataclass is the one place each of these rules is
        checked; the stage functions trust the values it passes them."""
        code, out_dir = self._run(cli_workspace, tmp_path, section, body, *extra)
        assert code == EXIT_CONFIG
        assert not out_dir.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize("number", ["1" + "0" * 400, "1" + "0" * 5000, "1e400"],
                             ids=["int-400-digits", "int-5000-digits", "1e400"])
    @pytest.mark.parametrize("section, key, extra", [
        ("preprocess", "zscore_threshold", ()),
        ("train", "learning_rate", ("--models", "cnn")),
    ], ids=["zscore_threshold", "learning_rate"])
    def test_number_no_float_holds(self, cli_workspace, tmp_path, capsys,
                                   section, key, extra, number):
        """A float field given a number past the float range, or an
        integer with more digits than Python converts, exits 2 with one
        line: no traceback, and no infinite setting."""
        cfg = json.loads(json.dumps(cli_workspace["config_dict"]))
        cfg.setdefault(section, {})[key] = "HUGE"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"HUGE"', number))
        code, out_dir = run_cli(cli_workspace, tmp_path, *extra, config=str(path))
        assert code == EXIT_CONFIG
        assert not out_dir.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    def test_sweep_validates_swept_model(self, cli_workspace, tmp_path):
        cfg = json.loads(json.dumps(cli_workspace["config_dict"]))
        cfg["model"].update(models=["arima"], arima_order=[2, "x", 0])
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", write_config(tmp_path, cfg),
                     "--data", str(tmp_path / "none.csv"),
                     "--proportions", "0.2", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()


class TestIoErrors:
    def test_missing_data_file(self, cli_workspace, tmp_path):
        code = main(["run", "--config", cli_workspace["config"],
                     "--data", str(tmp_path / "none.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_IO

    def test_malformed_csv(self, cli_workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("mileage,meters\n1,2,3\n")
        code = main(["run", "--config", cli_workspace["config"],
                     "--data", str(bad), "--out-dir", str(tmp_path)])
        assert code == EXIT_IO


    def test_undecodable_byte_in_body(self, cli_workspace, tmp_path, capsys):
        bad = tmp_path / "bytes.csv"
        with open(cli_workspace["data"], "rb") as fh:
            blob = fh.read()
        # a 0xff byte at the start of the last data line, well past the header
        cut = blob.rindex(b"\n", 0, len(blob) - 1) + 1
        bad.write_bytes(blob[:cut] + b"\xff" + blob[cut:])
        out_dir = tmp_path / "out"
        code = main(["run", "--config", cli_workspace["config"],
                     "--data", str(bad), "--out-dir", str(out_dir)])
        assert code == EXIT_IO
        assert "not valid UTF-8" in capsys.readouterr().err


SYNTH = '{"synth": {"n_rows": 100}}'


class TestDocumentedFailures:
    """A documented failure ends in its exit code with one stderr line
    and no stdout.  ``config`` replaces the workspace config (JSON text,
    None to keep it); ``{out}`` in the arguments is a path in a fresh
    directory, ``{file}`` an existing file, ``{missing}`` a directory
    that does not exist."""

    @pytest.mark.parametrize("config, argv, code, line", [
        ("[]", ["run", "--out-dir", "{out}"], EXIT_CONFIG,
         "config error: config root must be a JSON object"),
        ('{"model": 3}', ["run", "--out-dir", "{out}"], EXIT_CONFIG,
         "config error: config section 'model' must be an object"),
        ('{"model": {"models": []}}', ["run", "--out-dir", "{out}"], EXIT_CONFIG,
         "config error: no models selected"),
        (None, ["run", "--out-dir", "{out}", "--models", ","], EXIT_CONFIG,
         "config error: no models selected"),
        (None, ["filter-sweep", "--out", "{out}", "--proportions", ","], EXIT_CONFIG,
         "config error: at least one proportion is required"),
        ('{"ensemble": {"method": "foo"}}', ["run", "--out-dir", "{out}"], EXIT_CONFIG,
         "config error: ensemble method must be one of none, bagging, boosting"),
        (None, ["run", "--out-dir", "{file}"], EXIT_IO,
         f"i/o error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{{file}}'"),
        (None, ["run", "--out-dir", "{file}/out"], EXIT_IO,
         f"i/o error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{{file}}/out'"),
        (None, ["filter-sweep", "--out", "{missing}/sweep.json", "--proportions", "0"], EXIT_IO,
         f"i/o error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{{missing}}/sweep.json'"),
        (None, ["filter-sweep", "--out", "{file}/sweep.json", "--proportions", "0"], EXIT_IO,
         f"i/o error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{{file}}/sweep.json'"),
        (None, ["run", "--out-dir", "{dirs}", "--models", "arima,lr"], EXIT_IO,
         f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{{dirs}}/lr.tckm'"),
        (None, ["run", "--out-dir", "{dirs}", "--models", "arima"], EXIT_IO,
         f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{{dirs}}/report.json'"),
        (None, ["filter-sweep", "--out", "{dirs}/lr.tckm", "--proportions", "0"], EXIT_IO,
         f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{{dirs}}/lr.tckm'"),
        (SYNTH, ["synth", "--out", "{missing}/x.csv"], EXIT_IO,
         f"i/o error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{{missing}}/x.csv'"),
        (SYNTH, ["synth", "--out", "{dirs}"], EXIT_IO,
         f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{{dirs}}'"),
        (SYNTH, ["synth", "--out", "{file}/x.csv"], EXIT_IO,
         f"i/o error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{{file}}/x.csv'"),
        (None, ["run", "--out-dir", ""], EXIT_IO,
         f"i/o error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"),
        (None, ["filter-sweep", "--out", "", "--proportions", "0"], EXIT_IO,
         f"i/o error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"),
        (SYNTH, ["synth", "--out", ""], EXIT_IO,
         f"i/o error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"),
        ('{"model": {"models": ["lr"]}, "train": {"seed": -1}}', ["run", "--out-dir", "{out}"],
         EXIT_CONFIG, "config error: seed must be non-negative"),
        ('{"model": {"models": ["lr"], "hidden_size": 0}}', ["run", "--out-dir", "{out}"],
         EXIT_CONFIG, "config error: hidden_size must be positive"),
    ], ids=["root-not-object", "section-not-object", "no-models", "models-flag-empty",
            "no-proportions", "unknown-ensemble-method", "out-dir-is-a-file",
            "out-dir-below-a-file", "sweep-out-in-missing-directory", "sweep-out-below-a-file",
            "artifact-is-a-directory", "report-is-a-directory", "sweep-out-is-a-directory",
            "synth-out-in-missing-directory", "synth-out-is-a-directory",
            "synth-out-below-a-file", "out-dir-empty", "sweep-out-empty", "synth-out-empty",
            "train-rule-without-a-network", "model-size-rule-without-a-network"])
    def test_exit_code_and_one_line(self, cli_workspace, tmp_path, capsys, monkeypatch,
                                    config, argv, code, line):
        """Each failure comes before any data is read or generated and
        any fit runs."""
        config_path = cli_workspace["config"]
        if config is not None:
            config_path = tmp_path / "config.json"
            config_path.write_text(config, encoding="utf-8")
        (tmp_path / "file").write_text("")
        for name in ("lr.tckm", "report.json"):  # directories where files go
            (tmp_path / "dirs" / name).mkdir(parents=True)
        paths = {"out": tmp_path / "out", "file": tmp_path / "file",
                 "missing": tmp_path / "missing", "dirs": tmp_path / "dirs"}
        calls = []
        for module, name in [(cli, "read_csv"), (cli, "generate_synthetic"),
                             (lin, "fit_linear"), (lin, "fit_arimax"), (net, "train"),
                             (cli.ens, "train_bagging"), (cli.ens, "train_boosting")]:
            monkeypatch.setattr(module, name, lambda *a, _name=name, **k: calls.append(_name))
        argv = [a.format(**paths) for a in argv]
        data = [] if argv[0] == "synth" else ["--data", cli_workspace["data"]]
        assert main([argv[0], "--config", str(config_path), *data, *argv[1:]]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(line.format(**paths))
        assert calls == []
        assert not (tmp_path / "out").exists()


class TestDataFileFaults:
    """Faults inside a readable data file: a repeated header name is a
    data error (exit 3), and a large finite value is data like any other."""

    @pytest.fixture
    def synth_lines(self, tmp_path):
        path = tmp_path / "synth.csv"
        write_csv(generate_synthetic(SynthConfig(n_rows=600, seed=3)), path)
        return path.read_text(encoding="utf-8").splitlines(keepends=True)

    def test_repeated_header_name_exits_3_without_out_dir(
            self, cli_workspace, synth_lines, tmp_path, capsys):
        header = synth_lines[0].rstrip("\n").split(",")
        header[header.index("f1")] = "f2"
        bad = tmp_path / "dup.csv"
        bad.write_text(",".join(header) + "\n" + "".join(synth_lines[1:]), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(["run", "--config", cli_workspace["config"], "--data", str(bad),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_IO
        assert not out_dir.exists()
        assert capsys.readouterr().err == f"data error: {bad}: header repeats column name 'f2'\n"

    def test_huge_finite_feature_runs_with_empty_stderr(
            self, cli_workspace, synth_lines, tmp_path):
        header = synth_lines[0].rstrip("\n").split(",")
        row = synth_lines[300].rstrip("\n").split(",")
        row[header.index("f9")] = "1e308"
        data = tmp_path / "huge.csv"
        data.write_text("".join(synth_lines[:300]) + ",".join(row) + "\n"
                        + "".join(synth_lines[301:]), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "trackcast.cli", "run", "--config", cli_workspace["config"],
             "--data", str(data), "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    @staticmethod
    def _run_lr(cli_workspace, tmp_path, name, lines):
        """Run ``lr`` on the CSV ``lines`` in-process: exit code, stderr,
        report (None without one) and the RuntimeWarnings raised."""
        data, out_dir = tmp_path / f"{name}.csv", tmp_path / name
        data.write_text("".join(lines), encoding="utf-8")
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            code = main(["run", "--config", cli_workspace["config"], "--data", str(data),
                         "--out-dir", str(out_dir), "--models", "lr"])
        report = read_report(out_dir) if (out_dir / "report.json").exists() else None
        return code, err.getvalue(), report, [str(w.message) for w in caught
                                              if issubclass(w.category, RuntimeWarning)]

    @staticmethod
    def _with_column(lines, name, values):
        """``lines`` with column ``name`` of every data row replaced."""
        rows = [line.rstrip("\n").split(",") for line in lines]
        j = rows[0].index(name)
        for row, value in zip(rows[1:], values):
            row[j] = repr(float(value))
        return [",".join(row) + "\n" for row in rows]

    @staticmethod
    def _column(lines, name):
        j = lines[0].rstrip("\n").split(",").index(name)
        return [float(line.rstrip("\n").split(",")[j]) for line in lines[1:]]

    def test_target_scaled_to_the_float_limit_runs_as_unscaled(
            self, cli_workspace, synth_lines, tmp_path):
        """z and the min-max scaled values do not change when the target
        is scaled by a power of two, so neither do the fit and its
        metrics.  Here the target's sums overflow, and its max - min too."""
        left = self._column(synth_lines, "left_height")
        factor = 2.0 ** (1024 - math.frexp(max(map(abs, left)))[1])
        huge = self._with_column(synth_lines, "left_height", [v * factor for v in left])
        plain = self._run_lr(cli_workspace, tmp_path, "plain", synth_lines)
        code, err, report, caught = self._run_lr(cli_workspace, tmp_path, "huge", huge)
        assert (code, err, caught) == (EXIT_OK, "", [])
        assert report["models"] == plain[2]["models"]
        for key in ("outlier_rows_removed", "selected_features", "split_sizes"):
            assert report["audit"][key] == plain[2]["audit"][key]

    def test_huge_target_cell_is_an_outlier(self, cli_workspace, synth_lines, tmp_path):
        """Its squared deviation overflows; the target is rescaled and the
        cell's z (about 24) is the one past the threshold."""
        left = self._column(synth_lines, "left_height")
        left[300] = 1e308
        huge = self._with_column(synth_lines, "left_height", left)
        code, err, report, caught = self._run_lr(cli_workspace, tmp_path, "huge", huge)
        assert (code, err, caught) == (EXIT_OK, "", [])
        assert report["audit"]["outlier_rows_removed"] == 1

    def test_feature_spanning_the_float_range_runs_as_unscaled(
            self, cli_workspace, synth_lines, tmp_path):
        """A feature whose max - min overflows scales to the same [0, 1]
        values as the feature divided by a power of two."""
        clean = self._run_lr(cli_workspace, tmp_path, "clean", synth_lines)[2]
        lo, hi = clean["audit"]["scaler"]["left_height"]  # the rows outlier removal keeps
        # the target mapped onto [-1, 1] on the kept rows; 0 on the others
        unit = [(v - (hi + lo) / 2) / ((hi - lo) / 2) if lo <= v <= hi else 0.0
                for v in self._column(synth_lines, "left_height")]
        plain = self._run_lr(cli_workspace, tmp_path, "plain",
                             self._with_column(synth_lines, "f20", unit))[2]
        code, err, report, caught = self._run_lr(
            cli_workspace, tmp_path, "huge",
            self._with_column(synth_lines, "f20", [v * 2.0**1023 for v in unit]))
        assert (code, err, caught) == (EXIT_OK, "", [])
        lo, hi = report["audit"]["scaler"]["f20"]
        assert hi - lo == math.inf
        assert report["models"] == plain["models"]

    def test_meters_step_past_the_float_range_breaks_the_run(
            self, cli_workspace, synth_lines, tmp_path):
        meters = self._column(synth_lines, "meters")
        meters[300:302] = [1.7e308, -1.7e308]
        lines = self._with_column(synth_lines, "meters", meters)
        code, err, report, caught = self._run_lr(cli_workspace, tmp_path, "jump", lines)
        assert (code, err, caught) == (EXIT_OK, "", [])
        assert report["audit"]["windows_total"] < 600 - 8


@functools.lru_cache(maxsize=1)
def _synth_cells():
    """The cells of a 600-row synth CSV, header first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "synth.csv")
        write_csv(generate_synthetic(SynthConfig(n_rows=600, seed=3)), path)
        with open(path, encoding="utf-8") as fh:
            return tuple(tuple(line.rstrip("\n").split(",")) for line in fh)


_ODD_CELLS = ["", " ", "nan", "-inf", "1e309", "abc", "1_0", "0x10", "\u0661", '"', '"1"',
              "1e", ".", "+", "1;2", "\t2"]


@st.composite
def malformed_csv(draw):
    """A 200-600-row synth CSV with 1 to 4 faults: header names, cells,
    row lengths, line endings and value magnitudes."""
    n_rows = draw(st.integers(200, 600))
    lines = [list(c) for c in _synth_cells()[:n_rows + 1]]
    ends = ["\n"] * len(lines)
    width = len(lines[0])
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["header", "cell", "scale_cell", "scale_column",
                                     "row_length", "drop_row", "blank_line", "line_end"]))
        row = draw(st.integers(1, len(lines) - 1))
        col = draw(st.integers(0, width - 1))
        if kind == "header":
            lines[0][col] = draw(st.sampled_from(lines[0]) | st.text(" ,\"ab_", max_size=4))
        elif kind == "cell":
            lines[row][col:col + 1] = [draw(st.sampled_from(_ODD_CELLS) | st.text(max_size=4))]
        elif kind in ("scale_cell", "scale_column"):
            factor = 2.0 ** draw(st.integers(-1100, 1023))  # to 0 below -1074
            for cells in lines[1:] if kind == "scale_column" else [lines[row]]:
                with contextlib.suppress(ValueError, IndexError):
                    cells[col] = repr(float(cells[col]) * factor)
        elif kind == "row_length":
            lines[row] = lines[row][:-1] if draw(st.booleans()) else lines[row] + ["0"]
        elif kind == "drop_row":
            del lines[row], ends[row]
        elif kind == "blank_line":
            lines.insert(row, [])
            ends.insert(row, "\n")
        else:
            style = draw(st.sampled_from(["\r\n", "\r"]))
            ends = [style] * len(ends) if draw(st.booleans()) else ends
            ends[row] = style
    return "".join(",".join(cells) + end for cells, end in zip(lines, ends))


class TestMalformedDataProperty:
    """A fault in the data file is a data error: exit 3 with one stderr
    line, never a configuration error or a traceback."""

    @given(text=malformed_csv())
    @settings(max_examples=40, deadline=None)
    def test_data_faults_exit_0_or_3(self, cli_workspace, text):
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data.csv")
            with open(data, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            err = io.StringIO()
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
                warnings.simplefilter("always")
                code = main(["run", "--config", cli_workspace["config"], "--data", data,
                             "--out-dir", os.path.join(tmp, "out"), "--models", "lr"])
        assert code in (EXIT_OK, EXIT_IO), err.getvalue()
        lines = err.getvalue().splitlines()
        assert len(lines) == (0 if code == EXIT_OK else 1), lines
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestSynth:
    def test_writes_deterministic_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, {"synth": {"n_rows": 400, "seed": 3}})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["synth", "--config", path, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert "400 rows" in capsys.readouterr().out


class TestRun:
    def test_linear_run_artifacts_and_report(self, cli_workspace, tmp_path, capsys):
        code, out_dir = run_cli(cli_workspace, tmp_path)
        assert code == EXIT_OK
        assert (out_dir / "lr.tckm").is_file()
        report = read_report(out_dir)
        assert report["schema_version"] == 1
        assert set(report["models"]) == {"lr"}
        entry = report["models"]["lr"]
        assert entry["kind"] == "linear"
        for part in ("train", "val", "test"):
            pair = entry["metrics"][part]
            assert pair["mse"] == float(f"{pair['mse']:.6g}")
            assert pair["mae"] <= math.sqrt(pair["mse"]) * (1 + 1e-6)
        assert report["errors"] == {}
        assert report["audit"]["window_width"] == 8
        out = capsys.readouterr().out
        assert "model" in out and "lr" in out and "train" in out

    def test_loaded_artifact_is_linear_model(self, cli_workspace, tmp_path):
        _, out_dir = run_cli(cli_workspace, tmp_path)
        model = load_model(out_dir / "lr.tckm")
        assert type(model).__name__ == "LinearModel"

    def test_models_flag_overrides_config(self, cli_workspace, tmp_path):
        code, out_dir = run_cli(cli_workspace, tmp_path, "--models", "arima")
        assert code == EXIT_OK
        report = read_report(out_dir)
        assert set(report["models"]) == {"arima"}
        assert report["models"]["arima"]["kind"] == "arimax"
        assert report["models"]["arima"]["details"]["order"] == [2, 0, 0]
        assert report["config"]["_overrides"]["models"] == "arima"
        assert (out_dir / "arima.tckm").is_file()
        assert not (out_dir / "lr.tckm").exists()

    def test_plain_network_entry_has_trace(self, cli_workspace, tmp_path):
        code, out_dir = run_cli(cli_workspace, tmp_path, "--models", "cnn")
        assert code == EXIT_OK
        entry = read_report(out_dir)["models"]["cnn"]
        assert entry["kind"] == "network"
        trace = entry["trace"]
        assert len(trace["train_losses"]) == trace["stopped_epoch"]
        assert 1 <= trace["best_epoch"] <= trace["stopped_epoch"]

    def test_bagged_and_stacked_network(self, cli_workspace, tmp_path):
        cfg = dict(cli_workspace["config_dict"])
        cfg["ensemble"] = {"method": "bagging", "members": 2, "stack": True}
        path = write_config(tmp_path, cfg)
        code, out_dir = run_cli(cli_workspace, tmp_path, "--models", "gru",
                                config=path)
        assert code == EXIT_OK
        entry = read_report(out_dir)["models"]["gru"]
        assert entry["kind"] == "ensemble"
        block = entry["ensemble"]
        assert block["method"] == "bagging"
        assert block["member_count"] == 2
        assert len(block["member_metrics"]) == 2
        assert len(block["member_traces"]) == 2
        assert block["combiner"]["kind"] in ("stacker", "mean")
        assert block["retried_members"] == []
        model = load_model(out_dir / "gru.tckm")
        assert isinstance(model, EnsembleModel)
        assert len(model.members) == 2

    def test_stacked_metrics_match_the_saved_artifact(self, cli_workspace, tmp_path):
        # member and ensemble metrics come from one prediction pass per
        # member and part; they must equal fresh predictions of the artifact
        cfg = dict(cli_workspace["config_dict"])
        cfg["ensemble"] = {"method": "bagging", "members": 2, "stack": True}
        path = write_config(tmp_path, cfg)
        code, out_dir = run_cli(cli_workspace, tmp_path, "--models", "gru", config=path)
        assert code == EXIT_OK
        block = read_report(out_dir)["models"]["gru"]
        assert block["ensemble"]["combiner"]["kind"] == "stacker"
        model = load_model(out_dir / "gru.tckm")
        split, _ = run_preprocess(read_csv(cli_workspace["data"]), PreprocessConfig(window_width=8))

        def rounded(targets, preds):
            pair = evaluate_metrics(targets, preds)
            return {"mse": _sig6(pair.mse), "mae": _sig6(pair.mae)}

        for name, part in (("train", split.train), ("val", split.val), ("test", split.test)):
            assert block["metrics"][name] == rounded(
                part.targets, ensemble_predict_batch(model, part.windows))
            for j, member in enumerate(model.members):
                assert block["ensemble"]["member_metrics"][j][name] == rounded(
                    part.targets, predict_batch(member, part.windows))

    @pytest.mark.parametrize("stack", [False, True])
    def test_ensemble_metrics_equal_ensemble_predict_batch_bitwise(self, small_split, stack):
        cfg = {"model": {"hidden_size": 4}, "train": {"max_epochs": 1}}
        net_cfg = cli._model_settings(cfg, ["lstm"], small_split.train.l)["lstm"]
        settings = EnsembleConfig(method="bagging", members=2, stack=stack)
        entry, model = cli._train_one_model("lstm", net_cfg, small_split, settings)
        assert entry["ensemble"]["combiner"]["kind"] == ("stacker" if stack else "mean")
        for name in ("train", "val", "test"):
            part = getattr(small_split, name)
            pair = evaluate_metrics(part.targets, ensemble_predict_batch(model, part.windows))
            assert entry["metrics"][name] == {"mse": pair.mse, "mae": pair.mae}

    def test_ensemble_does_not_wrap_linear_models(self, cli_workspace, tmp_path):
        code, out_dir = run_cli(cli_workspace, tmp_path, "--ensemble", "bagging")
        assert code == EXIT_OK
        assert read_report(out_dir)["models"]["lr"]["kind"] == "linear"

    def test_boosting_via_flag(self, cli_workspace, tmp_path):
        cfg = dict(cli_workspace["config_dict"])
        cfg["ensemble"] = {"members": 2, "boost_threshold": 0.5}
        path = write_config(tmp_path, cfg)
        code, out_dir = run_cli(cli_workspace, tmp_path, "--models", "cnn",
                                "--ensemble", "boosting", config=path)
        assert code == EXIT_OK
        block = read_report(out_dir)["models"]["cnn"]["ensemble"]
        assert block["method"] == "boosting"
        assert block["boost_trace"] is not None
        assert isinstance(block["boost_trace"]["stopped_early"], bool)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_keeps_partial_report(self, cli_workspace, tmp_path, capsys):
        cfg = json.loads(json.dumps(cli_workspace["config_dict"]))
        cfg["model"]["models"] = ["lr", "lstm"]
        cfg["train"]["l2_lambda"] = 1e308
        path = write_config(tmp_path, cfg)
        code, out_dir = run_cli(cli_workspace, tmp_path, config=path)
        assert code == EXIT_DIVERGENCE
        report = read_report(out_dir)
        assert "lstm" in report["errors"]
        assert report["models"]["lstm"]["kind"] == "failed"
        assert report["models"]["lstm"]["metrics"] is None
        # the healthy model still trained and saved
        assert report["models"]["lr"]["kind"] == "linear"
        assert (out_dir / "lr.tckm").is_file()
        assert not (out_dir / "lstm.tckm").exists()
        assert "divergence" in capsys.readouterr().err

    def test_failed_artifact_write_stops_without_report(self, cli_workspace, tmp_path, capsys,
                                                        monkeypatch):
        """A ``.tckm`` write that fails after the path checks (here, a full
        disk) stops the run with exit 3 and one line: no ``report.json``
        is written, and the artifacts already written stay."""
        real = cli.save_model

        def save(model, path):
            if os.path.basename(path) == "arima.tckm":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            real(model, path)

        monkeypatch.setattr(cli, "save_model", save)
        code, out_dir = run_cli(cli_workspace, tmp_path, "--models", "lr,arima")
        assert code == EXIT_IO
        assert sorted(os.listdir(out_dir)) == ["lr.tckm"]
        assert capsys.readouterr().err == (f"i/o error: [Errno {errno.ENOSPC}] "
                                           f"{os.strerror(errno.ENOSPC)}: '{out_dir}/arima.tckm'\n")

    @pytest.mark.parametrize("ensemble", [[], ["--ensemble", "bagging"]],
                             ids=["plain", "bagged"])
    def test_divergence_prints_only_its_line(self, cli_workspace, tmp_path, ensemble):
        """A diverging network's stderr is its one failure line: numpy's
        overflow warnings, which named the source file and line, print
        neither here nor in a forked bagging worker."""
        cfg = json.loads(json.dumps(cli_workspace["config_dict"]))
        cfg["train"]["learning_rate"] = 1e300
        cfg["ensemble"] = {"members": 2}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "trackcast.cli", "run", "--config", write_config(tmp_path, cfg),
             "--data", cli_workspace["data"], "--out-dir", str(tmp_path / "out"),
             "--models", "lr,gru", *ensemble],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (
            EXIT_DIVERGENCE, "gru: numeric divergence: non-finite training loss\n")

    def test_ill_posed_fit_keeps_partial_report(self, tmp_path, capsys):
        # 16 rows leave 6 train windows: enough for lr, too few for the
        # 6 coefficients of ARIMAX(2,0,1) with 3 exogenous features
        table = generate_synthetic(SynthConfig(
            n_rows=16, n_features=12, seed=7,
            constant_feature_count=2, irrelevant_feature_count=3,
        ))
        data = tmp_path / "tiny.csv"
        write_csv(table, data)
        path = write_config(tmp_path, {
            "preprocess": {"window_width": 8},
            "model": {"models": ["lr", "arima"], "arima_order": [2, 0, 1]},
        })
        code, out_dir = run_cli({"data": str(data)}, tmp_path, config=path)
        assert code == EXIT_IO
        report = read_report(out_dir)
        assert "cannot determine" in report["errors"]["arima"]
        assert report["models"]["arima"] == {"kind": "failed", "metrics": None, "trace": None}
        assert report["models"]["lr"]["kind"] == "linear"
        assert sorted(os.listdir(out_dir)) == ["lr.tckm", "report.json"]
        assert "arima: ill-posed fit" in capsys.readouterr().err

    @pytest.mark.parametrize("models", [
        ["--models", "lr,arima"],
        ["--models", "cnn,gru", "--ensemble", "bagging", "--stack"],
    ], ids=["linear", "bagged-networks"])
    def test_run_starts_no_thread(self, cli_workspace, tmp_path, models):
        """A run uses its second core through forked processes, never a
        thread, and never loads concurrent.futures."""
        script = (
            "import sys, threading\n"
            "import trackcast.cli as cli\n"
            "print('concurrent.futures' in sys.modules)\n"
            "code = cli.main(['run', '--config', sys.argv[1], '--data', sys.argv[2],\n"
            "                 '--out-dir', sys.argv[3], *sys.argv[4:]])\n"
            "print(code, threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-c", script, cli_workspace["config"], cli_workspace["data"],
             str(tmp_path / "out"), *models],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "False"
        assert lines[-1] == f"{EXIT_OK} 1 False"

    def test_run_needs_no_scipy(self, cli_workspace, tmp_path):
        """scipy is a test dependency only: a run of every model kind
        succeeds where importing scipy fails."""
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import trackcast.cli as cli\n"
            "sys.exit(cli.main(['run', '--config', sys.argv[1], '--data', sys.argv[2],\n"
            "                   '--out-dir', sys.argv[3], '--models', 'lr,arima,gru,cnn']))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", script, cli_workspace["config"], cli_workspace["data"],
             str(out_dir)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert sorted(os.listdir(out_dir)) == [
            "arima.tckm", "cnn.tckm", "gru.tckm", "lr.tckm", "report.json"]

    def test_filter_proportion_flag_enables_filtering(self, cli_workspace, tmp_path):
        code, out_dir = run_cli(cli_workspace, tmp_path,
                                "--filter-proportion", "0.3")
        assert code == EXIT_OK
        report = read_report(out_dir)
        audit_filter = report["audit"]["filter"]
        assert audit_filter is not None
        assert audit_filter["discard_proportion"] == 0.3
        assert audit_filter["discarded"] >= 0
        assert report["config"]["_overrides"]["filter_proportion"] == 0.3

    @pytest.mark.parametrize("extra, echo", [
        (["--models", "arima"], {"models": "arima"}),
        (["--filter-proportion", "0"], {"filter_proportion": 0.0}),
        (["--models", "cnn", "--ensemble", "none"], {"models": "cnn", "ensemble": "none"}),
        (["--models", "cnn", "--ensemble", "bagging", "--stack"],
         {"models": "cnn", "ensemble": "bagging", "stack": True}),
    ], ids=["models", "filter-0", "ensemble-none", "bagging-stack"])
    def test_overrides_echo_each_flag_given_as_applied(self, cli_workspace, tmp_path,
                                                       extra, echo):
        """``config`` is the file as read plus ``_overrides``: each flag
        given, with the value that reached the run (a falsy one too)."""
        code, out_dir = run_cli(cli_workspace, tmp_path, *extra)
        assert code == EXIT_OK
        report = read_report(out_dir)
        assert report["config"] == dict(cli_workspace["config_dict"], _overrides=echo)
        reached = {"models": ",".join(sorted(report["models"]))}
        if report["audit"]["filter"] is not None:
            reached["filter_proportion"] = report["audit"]["filter"]["discard_proportion"]
        for entry in report["models"].values():
            if entry["kind"] == "network":
                reached["ensemble"] = "none"
            elif entry["kind"] == "ensemble":
                reached["ensemble"] = entry["ensemble"]["method"]
                reached["stack"] = entry["ensemble"]["combiner"]["kind"] == "stacker"
        assert {flag: reached[flag] for flag in echo} == echo

    def test_no_filter_by_default(self, cli_workspace, tmp_path):
        _, out_dir = run_cli(cli_workspace, tmp_path)
        assert read_report(out_dir)["audit"]["filter"] is None

    @pytest.mark.parametrize("override", [None, 0.3])
    def test_empty_filter_section_filters_with_the_defaults(self, cli_workspace, tmp_path,
                                                            override):
        """An empty ``filter`` section is not an omitted one: it filters
        with FilterConfig's defaults, and --filter-proportion still wins."""
        cfg = dict(cli_workspace["config_dict"], filter={})
        extra = [] if override is None else ["--filter-proportion", str(override)]
        code, out_dir = run_cli(cli_workspace, tmp_path, *extra,
                                config=write_config(tmp_path, cfg))
        assert code == EXIT_OK
        audit_filter = read_report(out_dir)["audit"]["filter"]
        defaults = FilterConfig()
        assert audit_filter is not None
        assert audit_filter["variance_threshold"] == defaults.variance_threshold
        assert audit_filter["discard_proportion"] == (
            defaults.discard_proportion if override is None else override)
        assert audit_filter["discarded"] > 0

    def test_csv_read_time_is_a_timing(self, cli_workspace, tmp_path):
        _, out_dir = run_cli(cli_workspace, tmp_path)
        assert read_report(out_dir)["timings"]["read_csv_seconds"] >= 0.0

    def test_reports_differ_only_in_timings(self, cli_workspace, tmp_path):
        _, out1 = run_cli(cli_workspace, tmp_path / "a")
        _, out2 = run_cli(cli_workspace, tmp_path / "b")
        r1, r2 = read_report(out1), read_report(out2)
        r1.pop("timings")
        r2.pop("timings")
        assert r1 == r2


class TestFilterSweep:
    def test_rows_follow_proportions(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", cli_workspace["config"],
                     "--data", cli_workspace["data"],
                     "--proportions", "0.0,0.4,0.8",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        rows = doc["sweep"]
        assert [r["proportion"] for r in rows] == [0.0, 0.4, 0.8]
        assert all(r["model"] == "lr" for r in rows)
        # same threshold, rising proportion: discard counts cannot shrink
        discards = [r["discarded"] for r in rows]
        assert discards == sorted(discards)
        assert rows[0]["discarded"] == 0
        sizes = [r["train_size"] for r in rows]
        assert sizes == sorted(sizes, reverse=True)
        assert doc["models"] == {}
        assert doc["audit"]["filter"] is None
        assert doc["timings"]["read_csv_seconds"] >= 0.0
        text = capsys.readouterr().out
        assert "proportion" in text and "train_mse" in text

    def test_zero_proportion_matches_plain_run(self, cli_workspace, tmp_path):
        _, out_dir = run_cli(cli_workspace, tmp_path)
        plain = read_report(out_dir)["models"]["lr"]["metrics"]
        out = tmp_path / "sweep.json"
        assert main(["filter-sweep", "--config", cli_workspace["config"],
                     "--data", cli_workspace["data"],
                     "--proportions", "0.0", "--out", str(out)]) == EXIT_OK
        row = json.loads(out.read_text())["sweep"][0]
        for part in ("train", "val", "test"):
            assert row[f"{part}_mse"] == plain[part]["mse"]
            assert row[f"{part}_mae"] == plain[part]["mae"]

    def test_ill_posed_fit_keeps_report(self, tmp_path, capsys):
        # 16 rows leave too few train windows for ARIMAX(2,0,1) at every
        # proportion: a fault of the data, reported per row
        table = generate_synthetic(SynthConfig(
            n_rows=16, n_features=12, seed=7,
            constant_feature_count=2, irrelevant_feature_count=3,
        ))
        data = tmp_path / "tiny.csv"
        write_csv(table, data)
        path = write_config(tmp_path, {
            "preprocess": {"window_width": 8},
            "model": {"models": ["arima"], "arima_order": [2, 0, 1]},
        })
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", path, "--data", str(data),
                     "--proportions", "0,0.5", "--out", str(out)])
        assert code == EXIT_IO
        doc = json.loads(out.read_text())
        assert [r["proportion"] for r in doc["sweep"]] == [0.0, 0.5]
        for row in doc["sweep"]:
            assert all(row[f"{p}_{m}"] is None for p in ("train", "val", "test")
                       for m in ("mse", "mae"))
        assert sorted(doc["errors"]) == ["proportion=0.0", "proportion=0.5"]
        assert all(e.startswith("ill-posed fit: ") and "cannot determine" in e
                   for e in doc["errors"].values())
        # one stderr line per failed proportion, sorted, as ``run`` prints them
        err = capsys.readouterr().err
        assert err.splitlines() == [f"{k}: {doc['errors'][k]}" for k in sorted(doc["errors"])]
        assert "config error" not in err

    def test_ill_posed_and_divergence_exit_with_the_lower_code(self, cli_workspace, tmp_path,
                                                               monkeypatch):
        failures = iter([NumericDivergenceError("non-finite training loss"),
                         IllPosedError("6 windows cannot determine 8 coefficients")])

        def train_one(*_args):
            raise next(failures)

        monkeypatch.setattr(cli, "_train_one_model", train_one)
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", cli_workspace["config"],
                     "--data", cli_workspace["data"],
                     "--proportions", "0,0.5", "--out", str(out)])
        assert code == EXIT_IO
        errors = json.loads(out.read_text())["errors"]
        assert errors == {
            "proportion=0.0": "numeric divergence: non-finite training loss",
            "proportion=0.5": "ill-posed fit: 6 windows cannot determine 8 coefficients",
        }

    def test_sweeps_only_the_first_model(self, cli_workspace, tmp_path):
        cfg = json.loads(json.dumps(cli_workspace["config_dict"]))
        cfg["model"]["models"] = ["lr", "arima"]
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", write_config(tmp_path, cfg),
                     "--data", cli_workspace["data"],
                     "--proportions", "0,0.5", "--out", str(out)])
        assert code == EXIT_OK
        assert [r["model"] for r in json.loads(out.read_text())["sweep"]] == ["lr", "lr"]

    def test_sweep_missing_data_file(self, cli_workspace, tmp_path):
        code = main(["filter-sweep", "--config", cli_workspace["config"],
                     "--data", str(tmp_path / "none.csv"),
                     "--proportions", "0.2",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_IO


class TestEmptyPart:
    """A train or validation part left empty by the filter or the split
    fractions fails each fit that needs it, as an ill-posed fit (exit 3,
    report kept), not the whole command."""

    def _config(self, ws, tmp_path, **sections):
        cfg = json.loads(json.dumps(ws["config_dict"]))
        cfg["model"]["models"] = ["lr", "gru"]
        for section, body in sections.items():
            cfg.setdefault(section, {}).update(body)
        return write_config(tmp_path, cfg)

    def test_sweep_keeps_the_rows_that_fit(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", self._config(cli_workspace, tmp_path, filter={}),
                     "--data", cli_workspace["data"], "--proportions", "0,0.5,1",
                     "--out", str(out)])
        assert code == EXIT_IO
        doc = json.loads(out.read_text())
        rows = doc["sweep"]
        assert [r["proportion"] for r in rows] == [0.0, 0.5, 1.0]
        assert rows[2]["train_size"] == 0
        assert all(r["train_mse"] is not None for r in rows[:2])
        assert all(rows[2][f"{p}_{m}"] is None for p in ("train", "val", "test")
                   for m in ("mse", "mae"))
        assert doc["errors"] == {"proportion=1.0": "ill-posed fit: cannot fit on an empty dataset"}
        assert "config error" not in capsys.readouterr().err

    def test_run_with_an_empty_train_part(self, cli_workspace, tmp_path, capsys):
        code, out_dir = run_cli(cli_workspace, tmp_path, "--filter-proportion", "1",
                                config=self._config(cli_workspace, tmp_path))
        assert code == EXIT_IO
        report = read_report(out_dir)
        assert report["audit"]["split_sizes"]["train"] == 0
        assert report["models"] == {"lr": {"kind": "failed", "metrics": None, "trace": None},
                                    "gru": {"kind": "failed", "metrics": None, "trace": None}}
        assert report["errors"] == {
            "lr": "ill-posed fit: cannot fit on an empty dataset",
            "gru": "ill-posed fit: train and validation sets must be non-empty",
        }
        assert os.listdir(out_dir) == ["report.json"]
        assert "config error" not in capsys.readouterr().err

    def test_run_with_an_empty_validation_part(self, cli_workspace, tmp_path, capsys):
        config = self._config(cli_workspace, tmp_path,
                              preprocess={"split_fractions": [0.5, 0.5, 0.0]})
        code, out_dir = run_cli(cli_workspace, tmp_path, config=config)
        assert code == EXIT_IO
        report = read_report(out_dir)
        assert report["audit"]["split_sizes"]["val"] == 0
        assert report["models"]["lr"]["kind"] == "linear"
        assert report["models"]["lr"]["metrics"]["val"] is None
        assert report["models"]["gru"] == {"kind": "failed", "metrics": None, "trace": None}
        assert report["errors"] == {
            "gru": "ill-posed fit: train and validation sets must be non-empty"}
        assert sorted(os.listdir(out_dir)) == ["lr.tckm", "report.json"]
        assert "config error" not in capsys.readouterr().err


class TestTooFewWindows:
    """Data that cut into fewer than 3 windows cannot be split: a data
    error (exit 3), not a config error."""

    def _config(self, ws, tmp_path):
        cfg = json.loads(json.dumps(ws["config_dict"]))
        cfg["preprocess"]["window_width"] = 100000
        return write_config(tmp_path, cfg)

    def test_run_exits_3_without_out_dir(self, cli_workspace, tmp_path, capsys):
        code, out_dir = run_cli(cli_workspace, tmp_path,
                                config=self._config(cli_workspace, tmp_path))
        assert code == EXIT_IO
        assert not out_dir.exists()
        assert capsys.readouterr().err == (
            "data error: need at least 3 windows to split, got 0\n")

    def test_sweep_exits_3_without_report(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", self._config(cli_workspace, tmp_path),
                     "--data", cli_workspace["data"], "--proportions", "0,0.5",
                     "--out", str(out)])
        assert code == EXIT_IO
        assert not out.exists()
        assert capsys.readouterr().err.startswith("data error: need at least 3 windows")


class TestTooFewRows:
    """A CSV with no data row, or one, cannot be preprocessed: a data
    error (exit 3), not a config error, and nothing is written."""

    @pytest.fixture(params=[0, 1], ids=["0-rows", "1-row"])
    def short_csv(self, request, cli_workspace, tmp_path):
        with open(cli_workspace["data"], encoding="utf-8") as fh:
            lines = [next(fh) for _ in range(1 + request.param)]
        path = tmp_path / "short.csv"
        path.write_text("".join(lines), encoding="utf-8")
        return str(path)

    def test_run_exits_3_without_out_dir(self, cli_workspace, short_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", cli_workspace["config"], "--data", short_csv,
                     "--out-dir", str(out_dir)])
        assert code == EXIT_IO
        assert not out_dir.exists()
        assert capsys.readouterr().err == "data error: outlier removal needs at least two rows\n"

    def test_sweep_exits_3_without_report(self, cli_workspace, short_csv, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["filter-sweep", "--config", cli_workspace["config"], "--data", short_csv,
                     "--proportions", "0,0.5", "--out", str(out)])
        assert code == EXIT_IO
        assert not out.exists()
        assert capsys.readouterr().err == "data error: outlier removal needs at least two rows\n"


def blas_or_skip():
    blas = pool._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS symbol found in numpy's libraries")
    return blas


class TestOneBlasThread:
    """Every command runs with numpy's OpenBLAS held to one thread and
    restores the count it found, however the command ends."""

    @pytest.mark.parametrize("raised, expected", [
        (None, EXIT_OK),
        (InvalidArgumentError, EXIT_CONFIG),
        (IllPosedError, EXIT_IO),
        (NumericDivergenceError, EXIT_DIVERGENCE),
        (RuntimeError, None),  # escapes main
    ])
    def test_one_thread_inside_and_restored_after(self, cli_workspace, tmp_path, monkeypatch,
                                                  raised, expected):
        get_threads, set_threads = blas_or_skip()
        real = lin.fit_linear
        seen = []

        def fit_linear(train):
            seen.append(get_threads())
            if raised is not None:
                raise raised("fit failed")
            return real(train)

        monkeypatch.setattr(lin, "fit_linear", fit_linear)
        before = get_threads()
        set_threads(2)  # a restore to 1 would not show in a one-thread session
        try:
            if expected is None:
                with pytest.raises(raised, match="fit failed"):
                    run_cli(cli_workspace, tmp_path)
                code = None
            else:
                code, _ = run_cli(cli_workspace, tmp_path)
            after = get_threads()
        finally:
            set_threads(before)
        assert (code, seen, after) == (expected, [1], 2)

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        """lr and ARIMAX(2,0,1) on a 12,000-row table give the same bytes
        at one and two OpenBLAS threads.  Two threads split a dot
        product's sum, which moved the last bits of the correlations and
        of the ARIMAX fit before every command held BLAS to one thread;
        3,000 and 6,000 rows did not show it."""
        cfg = write_config(tmp_path, {"synth": {"n_rows": 12000, "seed": 20},
                                      "model": {"arima_order": [2, 0, 1]}})
        src = os.path.dirname(os.path.dirname(cli.__file__))
        data = str(tmp_path / "data.csv")

        def trackcast(*argv, threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
            subprocess.run([sys.executable, "-m", "trackcast.cli", *argv], env=env, check=True,
                           capture_output=True, timeout=300)

        trackcast("synth", "--config", cfg, "--out", data, threads=1)
        outputs = []
        for threads in (1, 2):
            out_dir = tmp_path / f"out{threads}"
            trackcast("run", "--config", cfg, "--data", data, "--out-dir", str(out_dir),
                      "--models", "lr,arima", threads=threads)
            report = read_report(out_dir)
            report.pop("timings")
            outputs.append((report, (out_dir / "lr.tckm").read_bytes(),
                            (out_dir / "arima.tckm").read_bytes()))
        assert sorted(os.listdir(out_dir)) == ["arima.tckm", "lr.tckm", "report.json"]
        assert outputs[0] == outputs[1]


def _python(code: str, **env) -> str:
    """Stdout of ``python -c code`` with trackcast's sources on the path
    and ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def _console_script() -> tuple[str, str]:
    """(module, function) of the ``trackcast`` script in pyproject.toml."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        found = re.search(r'^trackcast = "([\w.]+):(\w+)"$', fh.read(), re.M)
    return found.group(1), found.group(2)


class TestOneBlasThreadFromStart:
    """Run as a program, trackcast starts numpy's OpenBLAS with one
    thread whatever the caller's ``OPENBLAS_NUM_THREADS``; imported, the
    package loads no numpy and leaves the environment alone."""

    THREADS = "import os\nprint(len(os.listdir('/proc/self/task')))\n"

    def test_import_loads_no_numpy_and_leaves_the_environment(self):
        out = _python("import os, sys\n"
                      "before = dict(os.environ)\n"
                      "import trackcast\n"
                      "print('numpy' in sys.modules, dict(os.environ) == before)\n",
                      OPENBLAS_NUM_THREADS="2")
        assert out.split() == ["False", "True"]

    @pytest.mark.parametrize("entry", ["cli-module", "package-module", "console-script"])
    def test_entry_starts_one_openblas_thread(self, entry):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("counts threads in Linux's /proc/self/task")
        if int(_python("import numpy\n" + self.THREADS, OPENBLAS_NUM_THREADS="2")) < 2:
            pytest.skip("numpy starts no second OpenBLAS thread here")
        modules = {"cli-module": "trackcast.cli", "package-module": "trackcast"}
        if entry in modules:  # python -m trackcast.cli, python -m trackcast
            run = f"import runpy\nrunpy.run_module({modules[entry]!r}, run_name='__main__')"
        else:
            run = "from {0} import {1}\n{1}()".format(*_console_script())
        out = _python("import sys\nsys.argv = ['trackcast', '--help']\n"
                      f"try:\n{textwrap.indent(run, '    ')}\nexcept SystemExit:\n    pass\n"
                      + self.THREADS, OPENBLAS_NUM_THREADS="2")
        assert out.split()[-1] == "1"


class TestSteadyMemory:
    """Every command pins glibc malloc's mmap and trim thresholds, caps
    none of its arenas, and turns numpy's huge-page advice off, before
    it starts; without ``mallopt`` it runs as is."""

    def fake_libc(self, monkeypatch, libc):
        """``ctypes.CDLL(None)`` gives ``libc``, or raises it when it is
        an exception; OpenBLAS is still found by path."""
        real = cli.ctypes.CDLL

        def cdll(name, *args, **kwargs):
            if name is not None:
                return real(name, *args, **kwargs)
            if isinstance(libc, Exception):
                raise libc
            return libc

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)

    def test_main_pins_malloc_and_huge_pages(self, cli_workspace, tmp_path, monkeypatch):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        libc = type("Libc", (), {})()
        libc.mallopt = Mallopt()
        self.fake_libc(monkeypatch, libc)
        multiarray = np._core.multiarray
        monkeypatch.setattr(multiarray, "_set_madvise_hugepage",
                            lambda enabled: calls.append(("hugepage", enabled)))
        code, _ = run_cli(cli_workspace, tmp_path)
        assert code == EXIT_OK
        assert calls == [(-3, 4 << 20), (-1, 8 << 20), ("hugepage", False)]

    @pytest.mark.parametrize("libc", ["no mallopt", "no library"])
    def test_without_mallopt_the_command_runs(self, cli_workspace, tmp_path, monkeypatch, libc):
        missing = type("Libc", (), {})() if libc == "no mallopt" else OSError(libc)
        self.fake_libc(monkeypatch, missing)
        code, out_dir = run_cli(cli_workspace, tmp_path)
        assert code == EXIT_OK
        assert (out_dir / "report.json").is_file()


def _layout(node, path="", out=None):
    """Key path -> the set of JSON types found there.  ``[]`` stands for
    the elements of an array, ``*`` for the column-name keys of the
    audit's correlation and scaler maps."""
    out = {} if out is None else out
    kind = {dict: "object", list: "array", str: "string", bool: "bool", int: "int",
            float: "float", type(None): "null"}[type(node)]
    out.setdefault(path, set()).add(kind)
    if isinstance(node, dict):
        by_name = path in ("audit.correlation.per_feature_r", "audit.scaler")
        for key, value in node.items():
            _layout(value, f"{path}.{'*' if by_name else key}".lstrip("."), out)
    elif isinstance(node, list):
        for value in node:
            _layout(value, path + "[]", out)
    return out


def _paths(prefix, spec):
    """``{prefix}.{key}: {type}`` for each line ``key type`` of ``spec``."""
    pairs = (line.split() for line in spec.splitlines() if line.strip())
    return {f"{prefix}.{key}".strip("."): {kind} for key, kind in pairs}


_PAIRS = "".join(f"{p} object\n{p}.mse float\n{p}.mae float\n" for p in ("train", "val", "test"))
_TRACE = """
. object
train_losses array
train_losses[] float
val_losses array
val_losses[] float
stopped_epoch int
best_epoch int
restored bool
"""
_AUDIT = """
. object
dropped_constant_columns array
dropped_constant_columns[] string
outlier_rows_removed int
sigma_convention string
correlation object
correlation.per_feature_r object
correlation.per_feature_r.* float
correlation.mean_abs_r float
correlation.warning null
selected_features array
selected_features[] string
dropped_features array
dropped_features[] string
scaler object
scaler.* array
scaler.*[] float
window_width int
windows_total int
split_sizes object
split_sizes.train int
split_sizes.test int
split_sizes.val int
filter null
"""


def _ensemble_paths(prefix, spec):
    return {
        **_paths(prefix, ". object\nkind string\nmetrics object\n" + spec),
        **_paths(f"{prefix}.metrics", _PAIRS),
        **_paths(f"{prefix}.ensemble", """
            . object
            method string
            member_count int
            combiner object
            combiner.kind string
            combiner.weights array
            combiner.bias float
            combiner.fallback_reason null
            member_metrics array
            member_metrics[] object
            member_traces array
            retried_members array
        """),
        **_paths(f"{prefix}.ensemble.member_metrics[]", _PAIRS),
        **_paths(f"{prefix}.ensemble.member_traces[]", _TRACE),
    }


def _report_paths(models, timings, errors=""):
    return {
        **_paths("", ". object\nschema_version int\nmodels object\nerrors object\n"
                     "timings object"),
        **_paths("audit", _AUDIT),
        **_paths("timings", "read_csv_seconds float\n" + timings),
        **_paths("errors", errors),
        **models,
    }


class TestReportLayout:
    """Every key path of the reports of ``run`` and ``filter-sweep``, and
    the JSON type at that path, for each kind of model entry: a linear
    model, ARIMAX(2,0,1), a plain network, a stacked bagging CNN, a
    boosting CNN and a network whose training diverged."""

    def _run(self, ws, tmp_path, name, models, ensemble=None, train=None):
        cfg = json.loads(json.dumps(ws["config_dict"]))
        cfg["model"].update(models=models, arima_order=[2, 0, 1])
        cfg["train"].update(train or {})
        if ensemble is not None:
            cfg["ensemble"] = ensemble
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / name
        code = main(["run", "--config", str(path), "--data", ws["data"],
                     "--out-dir", str(out_dir)])
        report = read_report(out_dir)
        assert report.pop("config") == dict(cfg, _overrides={})
        return code, _layout(report)

    def test_run_reports(self, cli_workspace, tmp_path):
        times = "preprocess_seconds float\n"
        code, layout = self._run(cli_workspace, tmp_path, "linear_and_bagging",
                                 ["lr", "arima", "cnn"],
                                 {"method": "bagging", "members": 2, "stack": True})
        assert code == EXIT_OK
        assert layout == _report_paths({
            **_paths("models", ". object"),
            **_paths("models.lr", ". object\nkind string\nmetrics object"),
            **_paths("models.lr.metrics", _PAIRS),
            **_paths("models.arima", """
                . object
                kind string
                metrics object
                details object
                details.order array
                details.order[] int
                details.css_initial float
                details.css_final float
                details.css_warning bool
            """),
            **_paths("models.arima.metrics", _PAIRS),
            **_ensemble_paths("models.cnn", """
                ensemble.boost_threshold null
                ensemble.boost_trace null
                ensemble.combiner.weights[] float
            """),
        }, times + "train_lr_seconds float\ntrain_arima_seconds float\n"
                   "train_cnn_seconds float")

        code, layout = self._run(cli_workspace, tmp_path, "boosting", ["cnn"],
                                 {"method": "boosting", "members": 3, "boost_threshold": 0.05})
        assert code == EXIT_OK
        assert layout == _report_paths({
            **_paths("models", ". object"),
            **_ensemble_paths("models.cnn", """
                ensemble.boost_threshold float
                ensemble.boost_trace object
                ensemble.boost_trace.selected_indices array
                ensemble.boost_trace.selected_indices[] array
                ensemble.boost_trace.selected_indices[][] int
                ensemble.boost_trace.stopped_early bool
            """),
        }, times + "train_cnn_seconds float")

        code, layout = self._run(cli_workspace, tmp_path, "network", ["gru"])
        assert code == EXIT_OK
        assert layout == _report_paths({
            **_paths("models", ". object"),
            **_paths("models.gru", ". object\nkind string\nmetrics object"),
            **_paths("models.gru.metrics", _PAIRS),
            **_paths("models.gru.trace", _TRACE),
        }, times + "train_gru_seconds float")

        # a divergence in the first epoch leaves a trace with no epoch
        code, layout = self._run(cli_workspace, tmp_path, "diverged", ["lstm"],
                                 train={"l2_lambda": 1e308})
        assert code == EXIT_DIVERGENCE
        trace = {k: v for k, v in _paths("models.lstm.trace", _TRACE).items()
                 if not k.endswith("[]")}
        assert layout == _report_paths({
            **_paths("models", ". object"),
            **_paths("models.lstm", ". object\nkind string\nmetrics null"),
            **trace,
        }, times + "train_lstm_seconds float", errors="lstm string")

    def test_filter_sweep_report(self, cli_workspace, tmp_path):
        cfg = json.loads(json.dumps(cli_workspace["config_dict"]))
        cfg["filter"] = {"variance_threshold": 0.002, "seed": 11}
        out = tmp_path / "sweep.json"
        assert main(["filter-sweep", "--config", write_config(tmp_path, cfg),
                     "--data", cli_workspace["data"], "--proportions", "0,0.5",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report.pop("config") == dict(cfg, _overrides={"proportions": "0,0.5"})
        layout = _layout(report)
        assert layout == _report_paths({
            **_paths("", "sweep array\nsweep[] object"),
            **_paths("sweep[]", """
                model string
                proportion float
                candidates int
                discarded int
                train_size int
                train_mse float
                train_mae float
                val_mse float
                val_mae float
                test_mse float
                test_mae float
            """),
        }, "proportion_0.0_seconds float\nproportion_0.5_seconds float")
