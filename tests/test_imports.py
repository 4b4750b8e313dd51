"""Every top-level import of the library and the tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src" / "strataglue").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def _unused_imports(source: str, package: bool = False) -> list[str]:
    """Names bound by the module body's import statements that the module
    never reads, as a ``Name`` or in ``__all__``.  A package's
    ``__init__`` (``package``) re-exports what it imports from its own
    modules, so its relative imports count as used."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__" and not (
            package and node.level
        ):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text(), path.name == "__init__.py") == []


def test_unused_import_is_reported():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\n__all__ = ['d']\nnp.x\n"
    assert _unused_imports(source) == ["os (line 1)", "c (line 3)"]
    # relative imports are re-exports only in a package's __init__
    assert _unused_imports("from .x import y\n") == ["y (line 1)"]
    assert _unused_imports("from .x import y\nimport os\n", package=True) == ["os (line 2)"]
