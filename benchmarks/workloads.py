"""The benchmark's workloads: their sizes, seeded inputs, and input loading.

Every workload draws its points from ``sparseval.synth.generate`` with the
scenario of acceptance criterion 10: 19 classes, class frequency
proportional to (c+1)^2, per-class accuracy drawn from [0.55, 0.95], and a
confidence spread of 0.2. Each uses the default ``EvalConfig`` (grid 100,
``subset`` ranking, ``stable_index`` ties) and both confidence measures.

Inputs are written to a directory by ``write_inputs`` so that every
evaluation can run in a fresh process that is handed only the payload;
the process's peak resident memory is then that of one evaluation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = 19
DEFAULT_SEED = 0
META_FILE = "inputs.json"


@dataclass(frozen=True)
class Workload:
    """One input shape and the way the program is driven over it."""

    name: str
    points: int
    frames: int
    samples: int
    # "probs": float32 single-sample probabilities, in memory
    # "logits": float32 logits with a per-logit stddev, in memory
    # "quantized": uint16 multi-sample stacks on disk, read by the CLI
    payload: str
    threads: int

    @property
    def via_cli(self) -> bool:
        return self.payload == "quantized"


# Sizes are scaled down from the 10^7-point prototype runs so that one
# evaluation takes about a second and a run holds several of them.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pooled-10m", points=1_000_000, frames=10, samples=1, payload="probs", threads=1),
        Workload("cli-disk-mc", points=200_000, frames=40, samples=20, payload="quantized", threads=2),
        Workload("logits-mc30", points=50_000, frames=20, samples=30, payload="logits", threads=1),
    )
}


def scenario(points: int, seed: int):
    from sparseval import ScenarioSpec

    # the class accuracies are criterion 10's and do not follow the seed:
    # they set the error count and so the curve work, which must stay the
    # same from seed to seed for run times to be comparable
    freq = (np.arange(CLASSES, dtype=np.float64) + 1.0) ** 2
    accuracy = 0.55 + 0.4 * np.random.default_rng(0).random(CLASSES)
    return ScenarioSpec(
        n=points,
        class_frequencies=tuple(freq / freq.sum()),
        per_class_accuracy=tuple(accuracy),
        seed=seed,
        confidence_spread=0.2,
    )


def _bounds(points: int, frames: int) -> list[int]:
    return [(points * i) // frames for i in range(frames + 1)]


def _quantized_stack(rows: np.ndarray, samples: int, rng) -> np.ndarray:
    # each sample scales every probability by an independent factor in
    # [0.5, 1.5), is renormalised, and is stored as 16-bit fixed point
    stack = rng.random((samples,) + rows.shape, dtype=np.float32)
    stack += np.float32(0.5)
    stack *= rows[None]
    stack /= stack.sum(axis=2, keepdims=True)
    stack *= np.float32(65535.0)
    return np.rint(stack).astype(np.uint16)


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Generate the workload's inputs for a seed and store them; returns the metadata."""
    from sparseval import generate, io

    directory.mkdir(parents=True, exist_ok=True)
    spec = scenario(workload.points, seed)
    gt, probs = generate(spec)
    labels = gt.values
    rows = probs.data[0]
    bounds = _bounds(workload.points, workload.frames)
    payload_bytes = 0
    entries = []
    for i in range(workload.frames):
        lo, hi = bounds[i], bounds[i + 1]
        stem = directory / f"frame_{i:04d}"
        rng = np.random.default_rng([seed, 1, i])
        if workload.payload == "probs":
            arrays = {"labels": labels[lo:hi], "probs": probs.data[:, lo:hi]}
        elif workload.payload == "logits":
            logits = np.log(np.maximum(rows[lo:hi], np.float32(1e-7)))
            stddev = rng.uniform(0.2, 1.0, size=logits.shape).astype(np.float32)
            arrays = {"labels": labels[lo:hi], "logits": logits, "stddev": stddev}
        else:
            arrays = {
                "labels": labels[lo:hi].astype(np.uint8),
                "probs": _quantized_stack(rows[lo:hi], workload.samples, rng),
            }
        payload_bytes += sum(a.nbytes for a in arrays.values())
        if workload.via_cli:
            paths = {}
            for key, arr in arrays.items():
                paths[key] = Path(f"{stem}.{key}.spt").resolve()
                io.write_tensor(io.TensorContainer.from_array(arr), paths[key])
            entries.append(
                io.FrameEntry(
                    labels_path=paths["labels"],
                    probs_path=paths["probs"],
                    samples=workload.samples,
                )
            )
        else:
            for key, arr in arrays.items():
                np.save(f"{stem}.{key}.npy", arr)
    if workload.via_cli:
        io.write_manifest(
            io.Manifest(spec.catalog(), tuple(entries), {}), directory / "manifest.txt"
        )
    meta = {
        "workload": workload.name,
        "seed": seed,
        "classes": list(spec.catalog().names),
        "input.points": workload.points,
        "input.frames": workload.frames,
        "input.samples": workload.samples,
        "input.payload_bytes": int(payload_bytes),
        "input.rarest_class_points": int(np.bincount(labels, minlength=CLASSES).min()),
    }
    (directory / META_FILE).write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return meta


def read_meta(directory: Path) -> dict:
    return json.loads((directory / META_FILE).read_text(encoding="utf-8"))


def load_frames(workload: Workload, directory: Path):
    """The frames handed to the program, and their class catalog.

    In-memory workloads get ``ArrayFrame``s; the CLI workload gets the
    manifest's ``FrameEntry``s, which load from disk.
    """
    from sparseval import ArrayFrame, ClassCatalog, LabelArray, LogitTensor, ProbabilityStack
    from sparseval import io

    if workload.via_cli:
        manifest = io.read_manifest(directory / "manifest.txt")
        return list(manifest.frames), manifest.catalog
    catalog = ClassCatalog(tuple(read_meta(directory)["classes"]))
    frames = []
    for i in range(workload.frames):
        stem = directory / f"frame_{i:04d}"
        labels = LabelArray(np.load(f"{stem}.labels.npy"))
        name = stem.name
        if workload.payload == "probs":
            probs = ProbabilityStack(np.load(f"{stem}.probs.npy"))
            frames.append(ArrayFrame(labels, probs=probs, name=name))
        else:
            logits = LogitTensor(np.load(f"{stem}.logits.npy"), np.load(f"{stem}.stddev.npy"))
            frames.append(
                ArrayFrame(labels, logits=logits, samples=workload.samples, name=name)
            )
    return frames, catalog
