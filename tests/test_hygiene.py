"""Source hygiene of the package, read with the stdlib ast module: no module
imports a name it never uses, and no module-level private function goes
unreferenced."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tgs"


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _used_names(tree) -> set:
    """Every name read as a variable or an attribute anywhere in tree."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_no_unused_imports():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_every_private_function_is_referenced():
    trees = _trees()
    used = set().union(*map(_used_names, trees.values()))
    unreferenced = [f"{module}: {node.name}"
                    for module, tree in trees.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and node.name not in used]
    assert unreferenced == []
