"""Benchmark of sparseval's whole-split evaluation.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src``.

Workloads (sizes in ``workloads.py``), each a closed loop in which one caller
runs evaluations back to back, every evaluation in a fresh process:

* ``pooled-10m``: ``evaluate_split`` over 10 in-memory frames of float32
  single-sample probabilities, 1 thread. Curves and per-point reduction do
  the work; ``io`` does nothing.
* ``cli-disk-mc``: ``sparseval evaluate --measure both --format both
  --threads 2`` over a manifest of 40 frames of uint16-quantised 20-sample
  stacks, run as a user runs it. Loading, dequantising and digesting the
  files do the work; the only workload with the thread pool, report writing
  and quantisation ties.
* ``logits-mc30``: ``evaluate_split`` over 20 frames of float32 logits with
  a per-logit stddev, sampled 30 times, 1 thread. Sampling does the work.

With ``--trace 0`` a run reports the end-to-end metrics:

* ``points_per_s``: points divided by the median wall time of one
  evaluation (for the CLI, of the whole process);
* ``peak_rss_ratio``: the median peak resident memory of an evaluation's
  process divided by the payload bytes handed to it;
* ``setup_s``: the median wall time of generating and writing the inputs
  in a fresh process, imports included, over five set-ups.

With ``--trace 1`` the run alternates untraced and traced evaluations and
reports the per-layer metrics: per evaluation, the median over the traced
ones of the spans ``tracing.py`` records, the tracing overhead, the share
of wall time the spans cover, and input descriptors.

Every evaluation's report is checked outside the timed region (see
``checks.py``), and its ``report.json`` bytes must equal those of the
run's first evaluation, or at the default seed the digest recorded in
``expected_reports.json``. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Pin BLAS and OpenMP pools to one thread here and in every child process,
# before numpy loads: the only parallelism is the program's own ``threads``.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the thread pins)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_EVALUATIONS = 3
CHILD_TIMEOUT_S = 150
REFERENCE_CLASSES = 3
EXPECTED_REPORTS = BENCH / "expected_reports.json"
WORKER = BENCH / "worker.py"

END_TO_END = {"points_per_s": "points/s", "peak_rss_ratio": "ratio", "setup_s": "s"}

PER_LAYER = {
    "sparsification.class_curves_by_measure.s": "s",
    "sparsification.class_curves_by_measure.self_s": "s",
    "sparsification.relevant_subset.calls": "count",
    "sparsification.relevant_subset.points_scanned": "count",
    "sparsification.relevant_subset.s": "s",
    "sparsification.sparsification_curve.calls": "count",
    "sparsification.sparsification_curve.self_s": "s",
    "sparsification.oracle_curve.self_s": "s",
    "confidence.max_softmax_confidence.s": "s",
    "confidence.entropy_confidence.s": "s",
    "confidence.aggregate_samples.s": "s",
    "confidence.aggregate_samples.bytes_in": "bytes",
    "confidence.sample_probabilistic_logits.s": "s",
    "confidence.sample_probabilistic_logits.values": "count",
    "confidence.softmax.s": "s",
    "core.validate_inputs.s": "s",
    "segmetrics.confusion.s": "s",
    "segmetrics.merge.s": "s",
    "io.read_manifest.s": "s",
    "io.read_tensor.s": "s",
    "io.read_tensor.bytes": "bytes",
    "io.load_frame.self_s": "s",
    "io.FrameEntry.digest.s": "s",
    "io.FrameEntry.digest.bytes": "bytes",
    "io.write_report.s": "s",
    "io.write_scatter_csv.s": "s",
    "pipeline.evaluate_split.s": "s",
    "pipeline.evaluate_split.self_s": "s",
    "pipeline.ArrayFrame.digest.s": "s",
    "pipeline.binned_ece.s": "s",
    "pipeline.filter_and_aggregate.s": "s",
    "pipeline.reduce.parallel_eff": "ratio",
    "pipeline.mem.before_curves_mib": "MiB",
    "pipeline.mem.after_curves_mib": "MiB",
    "cli.main.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
    "input.points": "count",
    "input.frames": "count",
    "input.samples": "count",
    "input.payload_bytes": "bytes",
    "input.rarest_class_points": "count",
    "input.tie_share": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Evaluation:
    traced: bool
    wall: float | None = None
    peak_rss: int | None = None
    sha: str | None = None
    summary: dict | None = None
    error: str | None = None


def _run_child(argv: list[str], log_path: Path) -> tuple[int, float, float, int]:
    """Run a child to completion: (exit code, start, end, peak RSS bytes)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss * 1024


def _last_line(log_path: Path) -> str:
    lines = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "no output"


def _set_up(workload, seed: int, inputs: Path, work: Path) -> list[float]:
    times = []
    log = work / "setup.log"
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(WORKER), "setup", "--workload", workload.name]
        argv += ["--seed", str(seed), "--dir", str(inputs)]
        code, start, end, _ = _run_child(argv, log)
        if code != 0:
            raise BenchError(f"set-up failed: {_last_line(log)}")
        times.append(end - start)
    return times


def _evaluate(workload, inputs: Path, out: Path, traced: bool, reports: dict) -> Evaluation:
    out.mkdir()
    log = out / "stderr.log"
    report_dir = out / "report"
    spans_path = out / "spans.json"
    if workload.via_cli:
        cli_args = ["evaluate", "--manifest", str(inputs / "manifest.txt")]
        cli_args += ["--measure", "both", "--format", "both"]
        cli_args += ["--threads", str(workload.threads), "--out-dir", str(report_dir)]
        if traced:
            argv = [sys.executable, str(WORKER), "cli", "--spans", str(spans_path), "--"]
        else:
            argv = [sys.executable, "-m", "sparseval"]
        code, start, end, peak = _run_child(argv + cli_args, log)
        spans = json.loads(spans_path.read_text()) if traced and code == 0 else []
    else:
        result_path = out / "result.json"
        argv = [sys.executable, str(WORKER), "evaluate", "--workload", workload.name]
        argv += ["--dir", str(inputs), "--report-dir", str(report_dir)]
        argv += ["--result", str(result_path)] + (["--trace"] if traced else [])
        code, *_ = _run_child(argv, log)
        if code == 0:
            result = json.loads(result_path.read_text())
            start, end = result["start"], result["end"]
            peak, spans = result["peak_rss_bytes"], result["spans"]
    if code != 0:
        return Evaluation(traced, error=f"exit code {code}: {_last_line(log)}")
    data = (report_dir / "report.json").read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    reports.setdefault(sha, data)
    summary = None
    if traced:
        recorded = [tracing.Span.from_json(row) for row in spans]
        summary = tracing.summarize(recorded, start, end, workload.threads)
    shutil.rmtree(out)
    return Evaluation(traced, end - start, peak, sha, summary)


def _measure(workload, inputs: Path, work: Path, seconds: int, trace: bool):
    evaluations: list[Evaluation] = []
    reports: dict[str, bytes] = {}
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(evaluations) % 2 == 1
        out = work / f"eval-{len(evaluations):03d}"
        evaluations.append(_evaluate(workload, inputs, out, traced, reports))
        kinds = [e.traced for e in evaluations]
        enough = kinds.count(False) >= MIN_EVALUATIONS and (
            not trace or kinds.count(True) >= MIN_EVALUATIONS
        )
        if enough and time.perf_counter() >= deadline:
            return evaluations, reports


def _expected_sha(workload, seed: int) -> str | None:
    recorded = json.loads(EXPECTED_REPORTS.read_text(encoding="utf-8"))
    if seed != recorded["seed"]:
        return None
    return recorded["report_sha256"][workload.name]


def _check(workload, seed: int, inputs: Path, meta: dict, evaluations, reports) -> list[str]:
    """A description of every failed evaluation."""
    problems_of: dict[str, list[str]] = {}
    for sha, data in reports.items():
        payload = json.loads(data)
        problems = checks.report_problems(
            payload, workloads.CLASSES, meta["input.points"]
        )
        if workload.payload == "probs":
            frames, _ = workloads.load_frames(workload, inputs)
            rng = np.random.default_rng(seed)
            chosen = np.sort(rng.choice(workloads.CLASSES, REFERENCE_CLASSES, replace=False))
            problems += checks.reference_problems(payload, frames, chosen)
        problems_of[sha] = problems

    baseline = _expected_sha(workload, seed)
    if baseline is None:
        baseline = next((e.sha for e in evaluations if e.sha and not e.traced), None)
    failures = []
    for index, e in enumerate(evaluations):
        if e.error:
            reason = e.error
        elif e.sha != baseline:
            reason = f"report.json sha256 {e.sha} differs from {baseline}"
        elif problems_of[e.sha]:
            reason = "; ".join(problems_of[e.sha])
        else:
            continue
        failures.append(f"evaluation {index}{' (traced)' if e.traced else ''}: {reason}")
    return failures


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(meta: dict, evaluations, setup_times) -> dict[str, float]:
    done = [e for e in evaluations if e.wall is not None]
    if not done:
        raise BenchError("no evaluation completed")
    return {
        "points_per_s": meta["input.points"] / _median(e.wall for e in done),
        "peak_rss_ratio": _median(e.peak_rss for e in done) / meta["input.payload_bytes"],
        "setup_s": _median(setup_times),
    }


def _per_layer(workload, inputs: Path, meta: dict, evaluations) -> dict[str, float]:
    traced = [e for e in evaluations if e.traced and e.wall is not None]
    plain = [e for e in evaluations if not e.traced and e.wall is not None]
    if not traced or not plain:
        raise BenchError("no traced and untraced evaluation pair completed")
    out = {
        name: _median(e.summary.get(name, 0.0) for e in traced)
        for name in PER_LAYER
        if not name.startswith("input.")
    }
    out["trace.overhead_ratio"] = _median(e.wall for e in traced) / _median(
        e.wall for e in plain
    )
    out.update((name, meta[name]) for name in PER_LAYER if name in meta)
    frames, _ = workloads.load_frames(workload, inputs)
    out["input.tie_share"] = checks.tie_share(checks.pooled_max_softmax(frames))
    return out


def _run(workload, seed: int, seconds: int, trace: bool, work: Path):
    inputs = work / "inputs"
    setup_times = _set_up(workload, seed, inputs, work)
    meta = workloads.read_meta(inputs)
    evaluations, reports = _measure(workload, inputs, work, seconds, trace)
    failures = _check(workload, seed, inputs, meta, evaluations, reports)
    if trace:
        values, units = _per_layer(workload, inputs, meta, evaluations), PER_LAYER
    else:
        values, units = _end_to_end(meta, evaluations, setup_times), END_TO_END

    attempted, failed = len(evaluations), len(failures)
    print(
        f"{workload.name} seed {seed}: {meta['input.points']} points in "
        f"{meta['input.frames']} frames of {meta['input.samples']} samples, "
        f"{meta['input.payload_bytes']} payload bytes"
    )
    walls = sorted(e.wall for e in evaluations if e.wall is not None and e.traced == trace)
    print(
        f"  medians over {len(walls)} {'traced' if trace else 'untraced'} evaluations;"
        f" wall s min {walls[0]:.4f} median {_median(walls):.4f} max {walls[-1]:.4f}"
    )
    for name, unit in units.items():
        print(f"  {name:50s} {values[name]!r} {unit}")
    print(f"  {'failed_ratio':50s} {failed / attempted!r} ratio ({failed} of {attempted})")
    for sha in reports:
        print(f"  report.json sha256 {sha}")
    for failure in failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "sparseval" / "__init__.py").is_file():
        print(f"run.py: no sparseval package under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = _run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
