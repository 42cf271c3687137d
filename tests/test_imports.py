import ast
import importlib
from pathlib import Path

import sparseval
import sparseval.segmetrics

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


def test_benchmark_tracer_resolves_every_traced_name(monkeypatch):
    # the benchmark's tracer looks each traced function up by name, so a
    # renamed or removed one fails here; install may patch some names before
    # it raises, hence the restore
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    monkeypatch.syspath_prepend(str(benchmarks))
    original = sparseval.segmetrics.confusion
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        assert sparseval.segmetrics.confusion is not original
    finally:
        tracer.restore()
    assert sparseval.segmetrics.confusion is original
