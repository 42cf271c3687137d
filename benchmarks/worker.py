"""Child processes of the benchmark; ``run.py`` starts them.

    python3 benchmarks/worker.py setup --workload NAME --seed N --dir INPUTS
    python3 benchmarks/worker.py evaluate --workload NAME --dir INPUTS \\
        --report-dir OUT --result RESULT.json [--trace]
    python3 benchmarks/worker.py cli --spans SPANS.json -- <sparseval arguments>

``setup`` generates and writes a workload's inputs. ``evaluate`` loads the
in-memory frames and times one ``evaluate_split`` call, then writes the
report for checking. ``cli`` runs ``sparseval.cli.main`` with the tracer
installed. Each evaluation gets a fresh process, as a user's run does, so
the process's peak resident memory is that of one evaluation.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer


def _setup(args) -> int:
    workloads.write_inputs(workloads.WORKLOADS[args.workload], args.seed, Path(args.dir))
    return 0


def _evaluate(args) -> int:
    from sparseval import io, pipeline

    workload = workloads.WORKLOADS[args.workload]
    frames, catalog = workloads.load_frames(workload, Path(args.dir))
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        report = pipeline.evaluate_split(frames, catalog, threads=workload.threads)
    finally:
        end = time.perf_counter()
        if tracer:
            tracer.restore()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    io.write_report(report, Path(args.report_dir), ("json",))
    result = {
        "start": start,
        "end": end,
        "peak_rss_bytes": peak,
        "spans": [sp.to_json() for sp in tracer.spans] if tracer else [],
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _cli(args) -> int:
    from sparseval import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(args.argv)
    finally:
        tracer.restore()
    spans = [sp.to_json() for sp in tracer.spans]
    Path(args.spans).write_text(json.dumps(spans), encoding="utf-8")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_setup)
    p = sub.add_parser("evaluate")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--dir", required=True)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_evaluate)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cli)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
