"""Every name a module imports is used in that module, and every private
top-level name and class member of the package is used outside its own definition."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "mzvkit").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"  # the package namespace re-exports what it imports
)


def unused_imports(source: str) -> list:
    """Names bound by the imports of source that no ast.Name in it refers to."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom c import d as e, f\na.b.g(e)\n"
    assert unused_imports(source) == ["os", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unused_private(sources: list) -> list:
    """Private top-level names and class members of the sources that nothing outside their own
    definition uses."""
    trees = [ast.parse(source) for source in sources]
    defined = []  # (name, the definition's nodes)
    for tree in trees:
        members = [m for node in tree.body if isinstance(node, ast.ClassDef) for m in node.body]
        for node in tree.body + members:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = set(map(id, ast.walk(node)))
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += [(name, inside) for name in private]
    refs = [
        (getattr(node, "id", None) or getattr(node, "attr", None) or node.name, id(node))
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    ]
    return [name for name, inside in defined if all(r != name or i in inside for r, i in refs)]


def test_unused_private_names_are_found():
    sources = [
        "__all__ = []\n_A = 1\n_B = _A\ndef _f(n):\n    return _f(n - 1)\n",
        "from m import _g\ndef _g(): pass\nclass _C: pass\nx = _C\n",
        "class D:\n    _k = 0\n    def __len__(self): return self._n()\n    def _n(self): return self._k\n"
        "    def _check(self, other): return self._check(other)\n",
    ]
    assert unused_private(sources) == ["_B", "_f", "_check"]


def test_every_private_name_is_used():
    package = sorted((ROOT / "src" / "mzvkit").glob("*.py"))
    assert unused_private([p.read_text() for p in package]) == []
