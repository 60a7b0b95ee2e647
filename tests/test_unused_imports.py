"""No module of the package, the scripts or the tests imports a name it
never uses, so a deletion cannot leave its imports behind.  pyflakes would
catch this too; the check here reads the syntax tree with ``ast``."""
import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing reads.  A name
    listed in ``__all__`` counts as read: the package re-exports it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import Mapping, Sequence\nx: Sequence\n"
    assert unused_imports(source) == ["os (line 1)", "np (line 2)", "Mapping (line 3)"]
    assert unused_imports("from .core import A\n__all__ = ['A']\n") == []


def test_no_unused_imports():
    found = []
    for pattern in ("src/trackcast/*.py", "scripts/*.py", "tests/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, encoding="utf-8") as fh:
                found += [f"{os.path.relpath(path, ROOT)}: {name}"
                          for name in unused_imports(fh.read())]
    assert found == []
