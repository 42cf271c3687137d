import ast
from pathlib import Path

import sparseval

PACKAGE = Path(sparseval.__file__).parent


def imported_private_names(path: Path) -> list[str]:
    """Underscore-prefixed names a module imports from another sparseval module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "sparseval"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} {alias.name}")
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in imported_private_names(path)] == []
