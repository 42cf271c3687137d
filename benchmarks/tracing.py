"""Spans around calls into sparseval's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a recording wrapper
under every name a caller looks it up by: each module-level binding in the
``sparseval`` package (so ``sparseval.pipeline.class_curves_by_measure`` and
``sparseval.sparsification.relevant_subset`` are both wrapped) and, for
methods, the class attribute (``io.FrameEntry.digest``). ``restore`` puts
the originals back. Nothing in the package itself changes.

A span is the interval of one call, with the span that was open in the same
thread when it started as its parent. ``summarize`` turns the spans of one
evaluation into per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import resource
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _rss_hwm_mib(_args) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_bytes(args) -> int:
    return sum(p.stat().st_size for p in args["self"].paths())


# Traced functions per module, and the counts recorded with each call:
# (key, when, function of the bound arguments, or of arguments and result).
TRACED = {
    "sparseval.sparsification": {
        "class_curves_by_measure": [
            ("rss_hwm_in_mib", "enter", _rss_hwm_mib),
            ("rss_hwm_out_mib", "leave", lambda a, r: _rss_hwm_mib(a)),
        ],
        "relevant_subset": [("points_scanned", "enter", lambda a: len(a["gt"]))],
        "sparsification_curve": [],
        "oracle_curve": [],
    },
    "sparseval.confidence": {
        "max_softmax_confidence": [],
        "entropy_confidence": [],
        "aggregate_samples": [("bytes_in", "enter", lambda a: a["stack"].data.nbytes)],
        "sample_probabilistic_logits": [
            (
                "values",
                "enter",
                lambda a: a["samples"] * a["logits"].points * a["logits"].classes,
            )
        ],
        "softmax": [],
    },
    "sparseval.core": {"validate_inputs": []},
    "sparseval.segmetrics": {"confusion": [], "merge": []},
    "sparseval.io": {
        "read_manifest": [],
        "read_tensor": [("bytes", "leave", lambda a, r: r.data.nbytes)],
        "load_frame": [],
        "FrameEntry.digest": [("bytes", "enter", _file_bytes)],
        "write_report": [],
        "write_scatter_csv": [],
    },
    "sparseval.pipeline": {
        "evaluate_split": [],
        "ArrayFrame.digest": [],
        "binned_ece": [],
        "filter_and_aggregate": [],
    },
    "sparseval.cli": {"main": []},
}

# Spans that absorb the evaluation time no other span covers.
SINKS = ("cli.main", "pipeline.evaluate_split")

# Per-frame work of the reduce phase, which may run on the thread pool.
REDUCE = frozenset(
    {
        "io.load_frame",
        "io.FrameEntry.digest",
        "pipeline.ArrayFrame.digest",
        "confidence.aggregate_samples",
        "confidence.sample_probabilistic_logits",
        "confidence.softmax",
        "core.validate_inputs",
        "confidence.max_softmax_confidence",
        "confidence.entropy_confidence",
        "segmetrics.confusion",
    }
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.thread, self.start, self.end, self.counts]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans while installed; ``spans`` keeps them in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counters):
        sig = inspect.signature(fn) if counters else None
        enter = [(k, f) for k, when, f in counters if when == "enter"]
        leave = [(k, f) for k, when, f in counters if when == "leave"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            counts = {k: f(bound) for k, f in enter}
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent, name, threading.get_ident(), start, end, counts)
                )
            for k, f in leave:
                counts[k] = f(bound, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, functions in TRACED.items():
            module = importlib.import_module(module_name)
            short = module_name.rpartition(".")[2]
            for attr, counters in functions.items():
                owner_name, _, fn_name = attr.rpartition(".")
                name = f"{short}.{attr}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[fn_name]
                    self._patch(owner, fn_name, self._wrap(name, original, counters))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original, counters)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("sparseval"):
                        continue
                    for binding, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, binding, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[Span], start: float, end: float, threads: int) -> dict[str, float]:
    """Per-layer metrics of one evaluation that ran from ``start`` to ``end``.

    ``<span>.s`` sums call durations, ``<span>.calls`` counts calls, and
    ``<span>.self_s`` subtracts the durations of child spans in the same
    thread. The two sinks instead take what the other spans leave
    uncovered, counted across threads: ``pipeline.evaluate_split.self_s``
    inside its own interval, and the outermost sink also everything outside
    it up to ``end - start``, so that span coverage plus the sinks' self
    times add up to the wall time. ``cli.startup_s`` is the part of
    ``cli.main.self_s`` before ``main`` was called: interpreter start-up
    and imports.
    """
    wall = end - start
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for sp in spans:
        child_time[sp.parent] += sp.end - sp.start
    for sp in spans:
        duration = sp.end - sp.start
        out[f"{sp.name}.s"] += duration
        out[f"{sp.name}.calls"] += 1
        out[f"{sp.name}.self_s"] += duration - child_time[sp.id]
        for key, value in sp.counts.items():
            out[f"{sp.name}.{key}"] += value

    leaves = [(sp.start, sp.end) for sp in spans if sp.name not in SINKS]
    covered = union_length(leaves)
    out["trace.span_coverage"] = covered / wall
    evaluations = [sp for sp in spans if sp.name == "pipeline.evaluate_split"]
    mains = [sp for sp in spans if sp.name == "cli.main"]
    if mains:
        out["cli.startup_s"] = min(sp.start for sp in mains) - start
        out["pipeline.evaluate_split.self_s"] = sum(
            (e.end - e.start)
            - union_length(
                (max(s, e.start), min(t, e.end)) for s, t in leaves if t > e.start and s < e.end
            )
            for e in evaluations
        )
        out["cli.main.self_s"] = wall - union_length(
            leaves + [(e.start, e.end) for e in evaluations]
        )
    else:
        out["pipeline.evaluate_split.self_s"] = wall - covered

    reduce_spans = [sp for sp in spans if sp.name in REDUCE]
    if reduce_spans:
        phase = max(sp.end for sp in reduce_spans) - min(sp.start for sp in reduce_spans)
        by_thread: dict[int, list] = defaultdict(list)
        for sp in reduce_spans:
            by_thread[sp.thread].append((sp.start, sp.end))
        busy = sum(union_length(iv) for iv in by_thread.values())
        out["pipeline.reduce.parallel_eff"] = busy / (threads * phase)

    curves = [sp for sp in spans if sp.name == "sparsification.class_curves_by_measure"]
    if curves:
        out["pipeline.mem.before_curves_mib"] = max(sp.counts["rss_hwm_in_mib"] for sp in curves)
        out["pipeline.mem.after_curves_mib"] = max(sp.counts["rss_hwm_out_mib"] for sp in curves)
    return dict(out)
