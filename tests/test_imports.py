import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseval
import sparseval.segmetrics
from sparseval import (
    ClassCatalog,
    FrameEntry,
    Manifest,
    TensorContainer,
    write_manifest,
    write_tensor,
)
from sparseval.cli import main

PACKAGE = Path(sparseval.__file__).parent


def foreign_private_names(path: Path) -> list[str]:
    """Underscore-prefixed names a module takes from another sparseval module:
    imported by name, read as an attribute of a sibling module bound by an
    import, or looked up with ``getattr`` or ``hasattr`` by a string literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = set()
    for node in ast.walk(tree):
        # "from . import io as container_io" binds a sibling module
        if isinstance(node, ast.ImportFrom) and node.module in (None, "sparseval"):
            siblings.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("sparseval."):
                    siblings.add(alias.asname)
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "sparseval"
            names = [alias.name for alias in node.names] if internal else []
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.attr] if node.value.id in siblings else []
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names = [node.args[1].value]
        found += [f"{path.name}:{node.lineno} {name}" for name in names if name.startswith("_")]
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in foreign_private_names(path)] == []


def test_star_import_binds_the_public_names_and_errors_but_no_other_submodule():
    namespace = {}
    exec("from sparseval import *", namespace)
    assert "evaluate_split" in namespace and namespace["errors"] is sparseval.errors
    assert "io" not in namespace and "core" not in namespace
    assert set(namespace) - {"__builtins__"} == set(sparseval.__all__)


def package_imports(path: Path) -> set[str]:
    """The sparseval modules that a module imports, by relative or absolute
    import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "sparseval":
                continue
            module = node.module if node.level else node.module.partition(".")[2]
            # "from . import errors" names the modules themselves
            found.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.partition(".")[2]
                for alias in node.names
                if alias.name.startswith("sparseval.")
            )
    return found


def test_the_curve_engine_depends_on_no_confidence_or_pipeline_code():
    # curves take labels and scores; how the scores were reduced is not
    # their concern
    assert package_imports(PACKAGE / "sparsification.py") == {"core", "errors", "segmetrics"}


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


# scipy is needed only to sample Gaussian logits. Whether a run loads it can
# only be seen in a new interpreter: this test process imports it already.


def run_fresh(code: str, *args) -> str:
    """Run ``code`` with ``args`` in a new interpreter; return its stdout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def write_logit_manifest(directory: Path, stddev: bool) -> Path:
    """Two frames of float32 logits, some points ignored, with or without a stddev."""
    rng = np.random.default_rng(4)
    directory.mkdir()
    frames = []
    for i, n in enumerate((2500, 1700)):
        files = {
            "logits": (rng.normal(size=(n, 3)) * 2.0).astype(np.float32),
            "labels": np.where(rng.random(n) < 0.1, 255, rng.integers(0, 3, n)).astype(np.uint8),
        }
        if stddev:
            files["stddev"] = rng.uniform(0.0, 1.5, size=(n, 3)).astype(np.float32)
        paths = {}
        for key, array in files.items():
            paths[f"{key}_path"] = directory / f"frame{i}.{key}.spt"
            write_tensor(TensorContainer.from_array(array), paths[f"{key}_path"])
        frames.append(FrameEntry(**paths, samples=6 if stddev else 1))
    manifest = directory / "manifest.txt"
    write_manifest(Manifest(ClassCatalog(("a", "b", "c")), tuple(frames), {}), manifest)
    return manifest


def test_importing_the_package_and_its_cli_leaves_scipy_unloaded():
    run_fresh(
        "import sys\n"
        "import sparseval\n"
        "assert 'scipy' not in sys.modules\n"
        "import sparseval.cli\n"
        "assert 'scipy' not in sys.modules\n"
    )


def test_importing_the_package_and_its_cli_loads_no_executor_and_no_logging():
    # pooling runs on plain threads; concurrent.futures would also load logging
    run_fresh(
        "import sys\n"
        "import sparseval.cli\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert 'logging' not in sys.modules\n"
    )


CLI_COMMANDS_WITHOUT_SCIPY = """
import sys
from sparseval.cli import main

manifest, spec, out = sys.argv[1:]
for argv in (
    ["synth", "--spec", spec, "--out-dir", out + "/synth"],
    ["inspect", "--path", manifest],
    ["evaluate", "--manifest", manifest, "--out-dir", out + "/report", "--threads", "2"],
    ["curves", "--manifest", manifest, "--class", "b", "--out-dir", out + "/curves"],
    ["ece", "--manifest", manifest],
):
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
"""


@pytest.mark.parametrize("payload", ["probs", "logits"])
def test_cli_commands_over_probabilities_or_plain_logits_leave_scipy_unloaded(
    tmp_path, payload
):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"n": 3000, "class_frequencies": [0.5, 0.3, 0.2], '
        '"per_class_accuracy": [0.8, 0.7, 0.6], "class_names": ["a", "b", "c"]}'
    )
    if payload == "probs":
        main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "data")])
        manifest = tmp_path / "data" / "manifest.txt"
    else:
        manifest = write_logit_manifest(tmp_path / "data", stddev=False)
    run_fresh(CLI_COMMANDS_WITHOUT_SCIPY, manifest, spec, tmp_path / "out")
    assert (tmp_path / "out" / "report" / "report.json").is_file()


EVALUATIONS_WITHOUT_NUMPY_MA = """
import sys
import numpy as np
# numpy 1.x imports numpy.ma with itself, 2.x only when it is first used
loaded = "numpy.ma" in sys.modules
from sparseval import ArrayFrame, ClassCatalog, LabelArray, ProbabilityStack, evaluate_split
from sparseval.cli import main

rng = np.random.default_rng(5)
frames = [
    ArrayFrame(
        LabelArray(rng.integers(0, 3, n).astype(np.uint8)),
        ProbabilityStack(rng.dirichlet(np.ones(3), n).astype(np.float32)[None]),
    )
    for n in (3000, 1700)
]
evaluate_split(frames, ClassCatalog(("a", "b", "c")), threads=2)
assert ("numpy.ma" in sys.modules) == loaded
manifest, out = sys.argv[1:]
assert main(["evaluate", "--manifest", manifest, "--out-dir", out, "--threads", "2"]) == 0
assert ("numpy.ma" in sys.modules) == loaded
"""


def test_evaluations_over_probabilities_leave_numpy_ma_unloaded(tmp_path):
    # np.unique of a plain array asks numpy.ma whether it is masked under
    # numpy 2.x, and importing numpy.ma adds about a MiB to a run's peak
    main(["synth", "--preset", "degenerate-class", "--out-dir", str(tmp_path / "data")])
    run_fresh(EVALUATIONS_WITHOUT_NUMPY_MA, tmp_path / "data" / "manifest.txt", tmp_path / "out")
    assert (tmp_path / "out" / "report.json").is_file()


def test_a_gaussian_logit_tensor_loads_scipy():
    run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from sparseval import LogitTensor\n"
        "LogitTensor(np.zeros((2, 3)))\n"
        "assert 'scipy' not in sys.modules\n"
        "LogitTensor(np.zeros((2, 3)), np.ones((2, 3)))\n"
        "assert 'scipy.special' in sys.modules\n"
    )


def test_gaussian_logit_reports_do_not_depend_on_where_scipy_loads(tmp_path):
    # with two threads the first tensor, and so the import, may be built on
    # a pool worker; an up-front import must give the same bytes as well
    manifest = write_logit_manifest(tmp_path / "data", stddev=True)
    evaluate = "import sys\n{}from sparseval.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    runs = {
        "threads1": (evaluate.format(""), "1"),
        "threads2": (evaluate.format(""), "2"),
        "preloaded": (evaluate.format("import scipy.special\n"), "2"),
    }
    reports = {}
    for name, (code, threads) in runs.items():
        out = tmp_path / name
        run_fresh(code, "evaluate", "--manifest", manifest, "--out-dir", out, "--threads", threads)
        reports[name] = [(out / f).read_bytes() for f in ("report.json", "report.csv")]
    assert reports["threads1"] == reports["threads2"] == reports["preloaded"]
