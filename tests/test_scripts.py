"""Smoke tests of the command-line scripts under ``scripts/``, which
import package internals."""
import os
import subprocess
import sys

import trackcast

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, env=None):
    src = os.path.dirname(os.path.dirname(trackcast.__file__))
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_check_gradients_passes_every_model():
    proc = run_script("check_gradients.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["lstm", "gru", "cnn", "arimax"]
    for line in lines:
        assert float(line.split()[4]) < 1e-4 and line.endswith("ok"), line


def test_reproduce_tables_runs_small():
    proc = run_script("reproduce_tables.py", "--rows", "1500", "--epochs", "1",
                      "--members", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "== " in proc.stdout
    # the paper's protocol: each network over 3 initializations, a row of
    # column means, then the network's row in the repeats' spread table
    labels = [line.split("  ")[0] for line in proc.stdout.splitlines()]
    for arch in ("lstm", "gru", "cnn"):
        assert [label for label in labels if label.startswith(arch)] == [
            f"{arch}-1", f"{arch}-2", f"{arch}-3", f"{arch} mean", arch]


def test_reproduce_tables_does_not_depend_on_blas_threads():
    """The script holds numpy's OpenBLAS to one thread, as every
    trackcast command does: its tables, all but the ``total`` line, are
    the same at one and two OpenBLAS threads."""
    tables = []
    for threads in ("1", "2"):
        proc = run_script("reproduce_tables.py", "--rows", "1500", "--epochs", "1",
                          "--members", "2", env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        tables.append([line for line in proc.stdout.splitlines()
                       if not line.startswith("total ")])
    assert tables[0] == tables[1]
    assert len(tables[0]) > 20


def test_reproduce_tables_trains_through_the_cli():
    """The script imports no fit or predict function: every model trains
    through the CLI's dispatch."""
    import ast
    with open(os.path.join(ROOT, "scripts", "reproduce_tables.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert "cli" in names
    assert not [n for n in names if n.startswith(("fit_", "predict_", "train"))]
