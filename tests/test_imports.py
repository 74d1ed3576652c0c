"""Every name a library module imports is used by that module, or is a call site the bench tracer times."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qgames"

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


def test_every_tracer_exemption_is_a_tracer_call_site():
    # once bench/tracer.py stops timing a name, its import is dead code here and must go
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    layers = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS")
    sites = {site for sites, *_ in ast.literal_eval(layers).values() for site in sites}
    stale = {f"{mod}.{name}" for mod, name in TIMED_BY_TRACER} - sites
    assert not stale, f"TIMED_BY_TRACER names call sites bench/tracer.py no longer times: {sorted(stale)}"
