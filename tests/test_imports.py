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
