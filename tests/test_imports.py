"""Every name a module imports is used in that module."""

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
