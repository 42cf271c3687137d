"""Correctness checks on evaluation reports, and a plain-numpy AUSE reference.

The reference recomputes per-class AUSE from the raw probability rows with
its own code: confidence from the row maximum, the class-relevant subset,
a stable sort by confidence, and a closed-form oracle that drops every
error before any correct point. With the default config (grid 100,
``subset`` ranking, ``stable_index`` ties) it must match the report's
values bit for bit.
"""
from __future__ import annotations

import math

import numpy as np


def report_problems(payload: dict, classes: int, points: int) -> list[str]:
    """What is wrong with a parsed report.json of a ``classes``-class split of ``points`` points."""
    problems = []
    rows = payload["classes"]
    if [row["index"] for row in rows] != list(range(classes)):
        problems.append(f"report has {len(rows)} class rows, expected one for each of {classes}")
    total = sum(sum(row) for row in payload["confusion_counts"])
    if total != points:
        problems.append(f"confusion total {total} differs from the {points} points generated")
    if payload["measures"] != ["max_softmax", "neg_entropy"]:
        problems.append(f"report covers measures {payload['measures']}")
    for row in rows:
        for measure, value in row["ause"].items():
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                problems.append(f"class {row['name']} {measure} AUSE is {value!r}")
    return problems


def reference_ause(
    gt: np.ndarray, pred: np.ndarray, conf: np.ndarray, class_index: int, grid_steps: int = 100
) -> float:
    relevant = np.flatnonzero((gt == class_index) | (pred == class_index))
    order = relevant[np.argsort(conf[relevant], kind="stable")]
    wrong = gt[order] != pred[order]
    n = order.size
    removed = (np.arange(grid_steps, dtype=np.int64) * n) // grid_steps
    left = n - removed
    errors = int(np.count_nonzero(wrong))
    errors_before = np.concatenate(([0], np.cumsum(wrong, dtype=np.int64)))
    ranked = (errors - errors_before[removed]) / left
    oracle = np.maximum(errors - removed, 0) / left
    return float(np.mean(ranked - oracle))


def reference_problems(payload: dict, frames, class_indices) -> list[str]:
    """Compare the report's AUSE of the given classes with the reference.

    ``frames`` are in-memory frames holding single-sample probabilities.
    """
    gt = np.concatenate([f.labels.values for f in frames])
    rows = np.concatenate([f.probs.data[0] for f in frames])
    pred = rows.argmax(axis=1)
    chosen = (gt[:, None] == class_indices) | (pred[:, None] == class_indices)
    keep = np.flatnonzero(chosen.any(axis=1))
    gt, pred, rows = gt[keep], pred[keep], rows[keep]
    p = rows.astype(np.float64)
    logs = np.zeros_like(p)
    np.log(p, out=logs, where=p > 0.0)
    entropy = -np.einsum("ij,ij->i", p, logs)
    confidences = {
        "max_softmax": rows.max(axis=1).astype(np.float64),
        "neg_entropy": np.clip(1.0 - entropy * (1.0 / math.log(rows.shape[1])), 0.0, 1.0),
    }
    problems = []
    for c in class_indices:
        row = payload["classes"][int(c)]
        for measure, conf in confidences.items():
            expected = reference_ause(gt, pred, conf, int(c))
            if row["ause"][measure] != expected:
                problems.append(
                    f"class {row['name']} {measure} AUSE {row['ause'][measure]!r} "
                    f"differs from the reference {expected!r}"
                )
    return problems


def tie_share(scores: np.ndarray) -> float:
    """Share of points whose score equals another point's score."""
    s = np.sort(scores)
    equal = s[1:] == s[:-1]
    tied = np.zeros(s.size, dtype=bool)
    tied[1:] |= equal
    tied[:-1] |= equal
    return float(tied.mean())


def pooled_max_softmax(frames) -> np.ndarray:
    """Max-softmax confidence of every point, reduced as ``evaluate_split`` does.

    The pipeline keeps its per-frame reduction private, so the input
    descriptors repeat its public steps here: sample logits with the
    frame's stream seed, average the samples, take the row maximum.
    """
    from sparseval import (
        EvalConfig,
        LogitTensor,
        aggregate_samples,
        max_softmax_confidence,
        sample_probabilistic_logits,
    )
    from sparseval.confidence import derive_stream_seed

    seed = EvalConfig().rng_seed
    scores = []
    for index, frame in enumerate(frames):
        payload, _ = frame.load()
        if isinstance(payload, LogitTensor):
            payload = sample_probabilistic_logits(
                payload, frame.samples, seed=derive_stream_seed(seed, index)
            )
        scores.append(max_softmax_confidence(aggregate_samples(payload))[0].scores)
    return np.concatenate(scores)
