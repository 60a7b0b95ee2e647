"""No module of the package but ``core`` reads a ``.windows`` attribute
or builds a dataset from a ``windows=`` array.  A windowed dataset
gathers its whole (m, l, n) stack on each such read, l times the shared
table, so one stray read in a model or the CLI brings back a whole-part
copy that nothing else would notice.  Consumers read start rows
(``gather``, ``row``, ``feature``, ``subset``) instead, and an array of
windows becomes a dataset in one place, ``WindowedDataset.of``."""
import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def windows_reads(source: str) -> list[int]:
    """Lines in ``source`` that read an attribute named ``windows``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "windows"]


def windows_constructions(source: str) -> list[int]:
    """Lines in ``source`` that call ``WindowedDataset`` (by name or as a
    module attribute) with a ``windows=`` keyword."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "WindowedDataset"
            and any(k.arg == "windows" for k in node.keywords)]


def package_lines(finder) -> list[str]:
    """``path:line`` of every hit of ``finder`` outside ``core.py``."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "trackcast", "*.py"))):
        if os.path.basename(path) == "core.py":
            continue
        with open(path, encoding="utf-8") as fh:
            found += [f"{os.path.relpath(path, ROOT)}:{line}" for line in finder(fh.read())]
    return found


def test_windows_reads_are_found():
    source = "x = ds.windows\nf(ds.windows[:, -1])\ny = audit.windows_total\nds = D(windows=w)\n"
    assert windows_reads(source) == [1, 2]


def test_only_core_reads_windows():
    assert package_lines(windows_reads) == []


def test_windows_constructions_are_found():
    source = ("a = WindowedDataset(windows=w, targets=t, l=2, n=1)\n"
              "b = core.WindowedDataset(\n    windows=w, targets=t, l=2, n=1)\n"
              "c = WindowedDataset(rows=r, starts=s, targets=t, l=2, n=1)\n"
              "d = WindowedDataset.of(w)\ne = Other(windows=w)\n")
    assert windows_constructions(source) == [1, 2]


def test_only_core_builds_a_dataset_from_windows():
    assert package_lines(windows_constructions) == []
