"""No module of the package reads another module's private name, so a
module's underscore names can change without a look beyond it.  The check
reads the syntax tree with ``ast``: an attribute ``mod._x`` where ``mod``
is bound by ``from . import mod``, and ``from .mod import _x``.  Dunder
names are exempt; the scripts and the tests are not checked."""
import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_names(source: str) -> list[str]:
    """Each read in ``source`` of a private name of a module it imports
    relatively."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append(f"from .{node.module} import {alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def test_foreign_private_names_are_found():
    source = ("from . import neural as net\nfrom .core import _TINY, pearson\n"
              "x = net._ARCHS + net.ARCHS\ny = net.__name__, self._own\n")
    assert foreign_private_names(source) == ["from .core import _TINY (line 2)",
                                             "net._ARCHS (line 3)"]


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src/trackcast/*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += [f"{os.path.relpath(path, ROOT)}: {use}"
                      for use in foreign_private_names(fh.read())]
    assert found == []
