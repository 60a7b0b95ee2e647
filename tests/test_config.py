"""The config schema: every section's keys and value types come from the
dataclasses the section sets, and a value of the wrong JSON type exits
2 before any data is read."""
import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcast import cli
from trackcast.cli import EXIT_CONFIG, EXIT_OK, main
from trackcast.ensemble import EnsembleConfig
from trackcast.ingest import CsvSchema, SynthConfig
from trackcast.neural import NetworkConfig
from trackcast.preprocess import FilterConfig, PreprocessConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE = os.path.join(ROOT, "configs", "example.json")


def example_config() -> dict:
    with open(EXAMPLE, encoding="utf-8") as fh:
        return json.load(fh)


def run_main(argv):
    """main(argv) with stderr captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def command(name, cfg_path, tmp):
    """argv for one subcommand and the path it must not create."""
    out = os.path.join(tmp, "out")
    data = os.path.join(tmp, "missing.csv")  # a read would exit 3, not 2
    argv = {
        "run": ["run", "--config", cfg_path, "--data", data, "--out-dir", out],
        "filter-sweep": ["filter-sweep", "--config", cfg_path, "--data", data,
                         "--proportions", "0,0.5", "--out", out],
        "synth": ["synth", "--config", cfg_path, "--out", out],
    }[name]
    return argv, out


_STRING = st.text(max_size=6)
_INT = st.integers(-5, 40)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_OBJECT = st.dictionaries(st.text(max_size=3), _INT, max_size=2)
_INT_LIST = st.lists(_INT, max_size=4)
_NOT_A_LIST = st.one_of(_STRING, st.just(True), st.none(), _INT, _FLOAT, _OBJECT)

# field type -> JSON values it must reject: a string, true, null where
# not allowed, a float for an int, a list and an object
WRONG = {
    "int": st.one_of(_STRING, st.just(True), st.none(), _FLOAT, _INT_LIST, _OBJECT),
    "float": st.one_of(_STRING, st.just(True), st.none(), _INT_LIST, _OBJECT),
    "float | None": st.one_of(_STRING, st.just(True), _INT_LIST, _OBJECT),
    "bool": st.one_of(_STRING, st.none(), _INT, _FLOAT, _INT_LIST, _OBJECT),
    "str": st.one_of(st.just(True), st.none(), _INT, _FLOAT, _INT_LIST, _OBJECT),
    "list[str]": st.one_of(_NOT_A_LIST, st.lists(_INT | st.none(), min_size=1, max_size=3)),
    "tuple[int, int, int]": st.one_of(
        _NOT_A_LIST,
        _INT_LIST.filter(lambda v: len(v) != 3),
        st.lists(_INT, min_size=2, max_size=2).flatmap(
            lambda v: (_FLOAT | _STRING | st.just(True)).map(lambda bad: v[:1] + [bad] + v[1:]))),
    "tuple[float, float, float]": st.one_of(
        _NOT_A_LIST,
        st.lists(_FLOAT, max_size=5).filter(lambda v: len(v) != 3),
        st.lists(_FLOAT, min_size=2, max_size=2).flatmap(
            lambda v: (_STRING | st.just(True) | st.none()).map(lambda bad: v + [bad]))),
}


def kind(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint)


SCHEMA_KEYS = sorted((s, k) for s, keys in cli._SCHEMA.items() for k in keys)


class TestSchema:
    def test_sections_and_keys_come_from_the_dataclasses(self):
        def names(cls, skip=()):
            return {f.name for f in dataclasses.fields(cls)} - set(skip)

        sizes = {"hidden_size", "kernel_count", "kernel_width"}
        assert {s: set(keys) for s, keys in cli._SCHEMA.items()} == {
            "synth": names(SynthConfig),
            "data": names(CsvSchema),
            "preprocess": names(PreprocessConfig),
            "filter": names(FilterConfig),
            "model": {"models", "arima_order"} | sizes,
            "ensemble": names(EnsembleConfig),
            "train": names(NetworkConfig, {"arch"} | sizes),
        }
        assert len(SCHEMA_KEYS) == 34

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.sampled_from(SCHEMA_KEYS),
           name=st.sampled_from(["run", "filter-sweep", "synth"]))
    def test_wrong_type_exits_2_before_any_output(self, data, which, name):
        section, key = which
        value = data.draw(WRONG[kind(cli._SCHEMA[section][key])], label="value")
        cfg = example_config()
        cfg["synth"]["n_rows"] = 50
        cfg[section][key] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            argv, out = command(name, cfg_path, tmp)
            code, err = run_main(argv)
            assert code == EXIT_CONFIG, err
            assert not os.path.exists(out)
        assert err.startswith(f"config error: {section}.{key} must be ")
        assert err.endswith(f", got {json.dumps(value)}\n")
        assert err.count("\n") == 1


# each of these exited 1 with a traceback, or was silently misread
MISREAD = [
    ("synth", "synth", "seed", "x"),
    ("run", "preprocess", "shuffle_seed", "a"),
    ("run", "filter", "seed", "a"),
    ("run", "model", "models", None),
    ("synth", "synth", "n_rows", True),
    ("synth", "synth", "n_rows", 300.7),
    ("run", "ensemble", "stack", "false"),
    ("run", "model", "hidden_size", 32.7),
    ("run", "model", "arima_order", [2.5, 0, 0]),
]


class TestNamedCases:
    @pytest.mark.parametrize("name, section, key, value", MISREAD)
    def test_exits_2_with_one_line(self, cli_workspace, tmp_path, name, section, key, value):
        cfg = json.loads(json.dumps(cli_workspace["config_dict"]))
        cfg["synth"] = {"n_rows": 600}
        cfg.setdefault(section, {})[key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        argv = (["synth", "--config", str(cfg_path), "--out", str(out)] if name == "synth"
                else ["run", "--config", str(cfg_path), "--data", cli_workspace["data"],
                      "--out-dir", str(out)])
        code, err = run_main(argv)
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert err.count("\n") == 1
        assert f"{section}.{key}" in err and json.dumps(value) in err

    def test_example_config_loads(self):
        assert cli.load_config(EXAMPLE) == example_config()

    def test_null_threshold_and_integer_floats_run(self, cli_workspace, tmp_path):
        def run(sub, **preprocess):
            cfg = json.loads(json.dumps(cli_workspace["config_dict"]))
            cfg["preprocess"].update(preprocess)
            cfg_path = tmp_path / f"{sub}.json"
            cfg_path.write_text(json.dumps(cfg))
            code = main(["run", "--config", str(cfg_path), "--data", cli_workspace["data"],
                         "--out-dir", str(tmp_path / sub)])
            assert code == EXIT_OK
            report = json.loads((tmp_path / sub / "report.json").read_text())
            return report["models"], report["audit"]

        assert (run("ints", correlation_threshold=None, zscore_threshold=4)
                == run("floats", correlation_threshold=None, zscore_threshold=4.0))


class TestNonFiniteConstants:
    """``NaN``, ``Infinity`` and ``-Infinity`` are not JSON.  Python's
    json reads them as floats, which a float field's type check passed:
    a NaN z-score threshold removed no outlier."""

    @pytest.mark.parametrize("name", ["run", "filter-sweep", "synth"])
    @pytest.mark.parametrize("section, key", [("preprocess", "zscore_threshold"),
                                              ("train", "learning_rate")])
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_exits_2_with_one_line(self, tmp_path, name, section, key, constant):
        cfg = example_config()
        cfg["synth"]["n_rows"] = 50
        cfg[section][key] = "PLACEHOLDER"
        cfg_path = str(tmp_path / "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cfg).replace('"PLACEHOLDER"', constant))
        argv, out = command(name, cfg_path, str(tmp_path))
        code, err = run_main(argv)
        assert code == EXIT_CONFIG
        assert not os.path.exists(out)
        assert err == f"config error: config file {cfg_path} holds {constant}, which is not valid JSON\n"


def readme_table() -> dict:
    """Section -> key names, from README's configuration table."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("| section | keys |"):]
    table = table[: table.index("\n\n")]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = line.split(" | ")
        rows[cells[0].strip("| `")] = re.findall(r"`(\w+)`", cells[1])
    return rows


class TestDocs:
    def test_readme_table_lists_the_schema_keys(self):
        table = readme_table()
        assert list(table) == list(cli._SCHEMA)
        for section, keys in cli._SCHEMA.items():
            assert sorted(table[section]) == sorted(keys), section

    def test_example_sets_every_key(self):
        cfg = example_config()
        assert {s: set(body) for s, body in cfg.items()} == {
            s: set(keys) for s, keys in cli._SCHEMA.items()}

    def test_example_differs_from_the_defaults_where_readme_says(self):
        defaults = {"synth": SynthConfig(n_rows=1), "data": CsvSchema(),
                    "preprocess": PreprocessConfig(), "filter": FilterConfig(),
                    "model": NetworkConfig("lstm"), "ensemble": EnsembleConfig(),
                    "train": NetworkConfig("lstm")}
        model_only = {"models": ["lr"], "arima_order": [2, 0, 0]}
        differ = set()
        for section, body in example_config().items():
            for key, value in body.items():
                default = model_only[key] if key in model_only else getattr(defaults[section], key)
                if value != (list(default) if isinstance(default, tuple) else default):
                    differ.add(f"{section}.{key}")
        assert differ == {"synth.n_rows", "synth.seed", "filter.variance_threshold",
                          "filter.discard_proportion", "filter.seed", "model.models"}
