"""Every name a library module imports is used by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qgames"

# Imported only so that bench/tracer.py finds them under these module names
# (ROADMAP item 1 drops them from the tracer and deletes the imports).
TIMED_BY_TRACER = {("learning", "exploitability"), ("learning", "front_tensor"), ("cli", "polymatrix_to_qg")}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


# the package's __init__ imports its public API for its importers, not for itself
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_modules_use_every_name_they_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = imported_names(tree) - referenced_names(tree) - {name for mod, name in TIMED_BY_TRACER if mod == path.stem}
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"
