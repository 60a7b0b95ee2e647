"""No module of the package but ``core`` reads a ``.windows`` attribute.
A windowed dataset gathers its whole (m, l, n) stack on each such read,
l times the shared table, so one stray read in a model or the CLI brings
back a whole-part copy that nothing else would notice.  Consumers read
start rows (``gather``, ``row``, ``feature``, ``subset``) instead."""
import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def windows_reads(source: str) -> list[int]:
    """Lines in ``source`` that read an attribute named ``windows``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "windows"]


def test_windows_reads_are_found():
    source = "x = ds.windows\nf(ds.windows[:, -1])\ny = audit.windows_total\nds = D(windows=w)\n"
    assert windows_reads(source) == [1, 2]


def test_only_core_reads_windows():
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "trackcast", "*.py"))):
        if os.path.basename(path) == "core.py":
            continue
        with open(path, encoding="utf-8") as fh:
            found += [f"{os.path.relpath(path, ROOT)}:{line}" for line in windows_reads(fh.read())]
    assert found == []
