"""Bit-exact file formats: tensor containers, dataset manifests, reports.

Tensor container layout (all integers little-endian, documented in
docs/tensor_format.md):

    offset 0   8 bytes   magic "SPARSEV1"
    offset 8   uint32    dtype tag: 1 = float32, 2 = uint8, 3 = uint16
    offset 12  uint32    rank r (1 <= r <= 8)
    offset 16  r*uint32  dimensions, each >= 1
    ...        payload   row-major element bytes
    tail       8 bytes   BLAKE2b-64 digest of the payload

Readers reject malformed files instead of guessing; partial results are
never produced.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .confidence import LogitTensor
from .core import ClassCatalog, EvalConfig, LabelArray, ProbabilityStack, QuantizedStack, as_integer
from .errors import (
    BadHeader,
    BadMagic,
    ChecksumMismatch,
    IoFailure,
    ManifestError,
    ShapeMismatch,
    TruncatedFile,
)
from .pipeline import ClassRow, EvalReport, scatter_export

MAGIC = b"SPARSEV1"
DTYPE_FLOAT32 = 1
DTYPE_UINT8 = 2
DTYPE_UINT16 = 3

_TAG_TO_DTYPE = {
    DTYPE_FLOAT32: np.dtype("<f4"),
    DTYPE_UINT8: np.dtype("u1"),
    DTYPE_UINT16: np.dtype("<u2"),
}

_MAX_RANK = 8
_MAX_ELEMENTS = 1 << 40

MANIFEST_HEADER = "sparseval-manifest v1"

# a manifest may override every EvalConfig field under the field's name
_CONFIG_KEYS = frozenset(f.name for f in fields(EvalConfig))

# the file keys of a manifest frame line, in the order a line lists them and
# a digest takes them; FrameEntry holds the file of key x as x_path
_FRAME_FILES = ("probs", "logits", "stddev", "labels")


def _payload_checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


@dataclass(frozen=True)
class TensorContainer:
    """One stored array plus its dtype tag."""

    dtype_tag: int
    data: np.ndarray

    def __post_init__(self):
        if self.dtype_tag not in _TAG_TO_DTYPE:
            raise ValueError(f"unknown dtype tag {self.dtype_tag}")
        arr = np.ascontiguousarray(self.data, dtype=_TAG_TO_DTYPE[self.dtype_tag])
        if arr.ndim < 1 or arr.ndim > _MAX_RANK:
            raise ValueError(f"rank {arr.ndim} outside 1..{_MAX_RANK}")
        if min(arr.shape) < 1:
            raise ValueError("every dimension must be at least 1")
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "TensorContainer":
        arr = np.asarray(array)
        for tag, dtype in _TAG_TO_DTYPE.items():
            if arr.dtype.kind == dtype.kind and arr.dtype.itemsize == dtype.itemsize:
                return cls(tag, arr)
        raise ValueError(f"unsupported array dtype {arr.dtype}")


def write_tensor(container: TensorContainer, path: str | Path) -> None:
    """Serialize a container; write then read is a bitwise identity.

    The payload is written and checksummed from the container's own
    C-contiguous array, with no copy of its bytes.
    """
    path = Path(path)
    arr = container.data
    payload = arr.reshape(-1).view(np.uint8)
    header = MAGIC + struct.pack("<II", container.dtype_tag, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(_payload_checksum(payload))
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _field(raw: np.ndarray, start: int, size: int, what: str) -> int:
    """The end of the ``size`` bytes of a file field that begins at ``start``."""
    end = start + size
    if len(raw) < end:
        raise TruncatedFile(f"file ends inside the {what}")
    return end


def _parse_header(raw: np.ndarray, path: str | Path) -> tuple[int, tuple[int, ...], int]:
    """The dtype tag, the dimensions and the payload offset of the container
    whose file begins with the bytes ``raw``; the one parser of the header."""
    pos = _field(raw, 0, len(MAGIC), "magic")
    if raw[:pos].tobytes() != MAGIC:
        raise BadMagic(f"{path} does not start with {MAGIC!r}")
    start, pos = pos, _field(raw, pos, 8, "header")
    dtype_tag, rank = struct.unpack_from("<II", raw, start)
    if dtype_tag not in _TAG_TO_DTYPE:
        raise BadHeader(f"unknown dtype tag {dtype_tag}")
    if not 1 <= rank <= _MAX_RANK:
        raise BadHeader(f"rank {rank} outside 1..{_MAX_RANK}")
    start, pos = pos, _field(raw, pos, 4 * rank, "dimensions")
    dims = struct.unpack_from(f"<{rank}I", raw, start)
    if min(dims) < 1:
        raise BadHeader(f"zero-sized dimension in {dims}")
    n_elements = math.prod(dims)
    if n_elements > _MAX_ELEMENTS:
        raise BadHeader(f"element count {n_elements} is implausibly large")
    return dtype_tag, dims, pos


def _read_header(path: str | Path) -> tuple[int, tuple[int, ...]]:
    """The dtype tag and dimensions of a container file, read from its
    header alone; the payload is neither read nor verified."""
    with open(path, "rb") as fh:
        head = np.frombuffer(fh.read(16 + 4 * _MAX_RANK), dtype=np.uint8)
    return _parse_header(head, path)[:2]


def _read_file(path: str | Path, buffers: dict | None, key: str) -> np.ndarray:
    """The bytes of a file, read into ``buffers[key]`` or, without
    ``buffers``, into a new buffer. A buffer too small for the file is
    replaced by one that fits, so a dict reused from file to file holds one
    buffer per key, the size of the largest file read under it."""
    with open(path, "rb") as fh:
        # one byte more than the file holds, so that a file that grew since
        # the size was taken shows as trailing bytes
        size = os.fstat(fh.fileno()).st_size + 1
        if buffers is None:
            buf = np.empty(size, dtype=np.uint8)
        else:
            if key not in buffers or buffers[key].size < size:
                # the outgrown buffer is freed before a larger one is made
                buffers.pop(key, None)
                buffers[key] = np.empty(size, dtype=np.uint8)
            buf = buffers[key]
        return buf[: fh.readinto(buf[:size])]


def _read_tensor(
    path: str | Path, buffers: dict | None = None, key: str = ""
) -> tuple[TensorContainer, np.ndarray]:
    """Parse and verify a container file, read in one piece by ``_read_file``;
    also return the file's bytes, which back the container's array without
    a copy."""
    raw = _read_file(path, buffers, key)
    dtype_tag, dims, start = _parse_header(raw, path)
    dtype = _TAG_TO_DTYPE[dtype_tag]
    pos = _field(raw, start, math.prod(dims) * dtype.itemsize, "payload")
    payload = raw[start:pos]
    stored = raw[pos : _field(raw, pos, 8, "checksum")].tobytes()
    if len(raw) > pos + 8:
        raise BadHeader(f"{path} carries trailing bytes past the checksum")
    if _payload_checksum(payload) != stored:
        raise ChecksumMismatch(f"payload checksum of {path} does not verify")
    return TensorContainer(dtype_tag, payload.view(dtype).reshape(dims)), raw


def read_tensor(path: str | Path) -> TensorContainer:
    """Parse and verify a container file."""
    return _read_tensor(path)[0]


def _files_digest(files) -> str:
    """SHA-256 over each file's name and bytes, given as (path, bytes) pairs."""
    h = hashlib.sha256()
    for path, raw in files:
        h.update(path.name.encode())
        h.update(raw)
    return h.hexdigest()


@dataclass(frozen=True)
class FrameEntry:
    """Paths of one manifest frame, resolved to absolute at load time."""

    labels_path: Path
    probs_path: Path | None = None
    logits_path: Path | None = None
    stddev_path: Path | None = None
    samples: int = 1

    def __post_init__(self):
        if (self.probs_path is None) == (self.logits_path is None):
            raise ManifestError("a frame needs exactly one of probs or logits")
        if self.stddev_path is not None and self.logits_path is None:
            raise ManifestError("stddev only accompanies logits")
        object.__setattr__(self, "samples", as_integer("samples", self.samples, 1, ManifestError))

    @property
    def name(self) -> str:
        source = self.probs_path or self.logits_path
        return Path(source).name

    @property
    def points(self) -> int:
        """The point count of the labels file, read from its header alone."""
        tag, dims = _read_header(self.labels_path)
        _check_label_header(self.labels_path, tag, dims)
        return dims[0]

    def _files(self) -> dict[str, Path]:
        """The frame's files by manifest key, in ``_FRAME_FILES`` order."""
        found = {key: getattr(self, f"{key}_path") for key in _FRAME_FILES}
        return {key: Path(p) for key, p in found.items() if p is not None}

    def paths(self) -> list[Path]:
        return list(self._files().values())

    def load(
        self, buffers: dict | None = None
    ) -> tuple[ProbabilityStack | QuantizedStack | LogitTensor, LabelArray]:
        return load_frame(self, buffers=buffers)

    def digest(self) -> str:
        """SHA-256 over each file's name and bytes, in ``paths()`` order.

        After a load it describes the bytes that load read, even if a file
        has been replaced since; before any load the files are read for it.
        """
        loaded = self.__dict__.get("_loaded_digest")
        if loaded is not None:
            return loaded
        return _files_digest((p, p.read_bytes()) for p in self.paths())


def _check_label_header(path: Path, dtype_tag: int, dims: tuple[int, ...]) -> None:
    if dtype_tag not in (DTYPE_UINT8, DTYPE_UINT16) or len(dims) != 1:
        raise ShapeMismatch(f"{path} must hold a rank-1 uint8 or uint16 label array")


def load_frame(
    entry: FrameEntry, buffers: dict | None = None
) -> tuple[ProbabilityStack | QuantizedStack | LogitTensor, LabelArray]:
    """Materialize a manifest frame into validated-shape in-memory types.

    Each file is read once, and each array is a view of the bytes read.
    float32 probabilities come as a ``ProbabilityStack``; uint16
    probabilities come as a ``QuantizedStack``, dequantised only when they
    are evaluated, a block at a time (``confidence.dequantize`` converts a
    whole stack). The digest of the bytes read is kept on the entry, where
    ``FrameEntry.digest`` finds it.

    Without ``buffers`` every file is read into bytes of its own. With a
    dict, each file is read into the dict's buffer for its manifest key,
    which is kept and reused by the next load with the same dict (and
    replaced by a larger one when a file does not fit), so the arrays
    returned stay valid only until then.
    """
    paths = entry._files()
    files: dict[str, np.ndarray] = {}

    def read(key: str) -> TensorContainer:
        box, files[key] = _read_tensor(paths[key], buffers, key)
        return box

    labels_box = read("labels")
    _check_label_header(entry.labels_path, labels_box.dtype_tag, labels_box.data.shape)
    labels = LabelArray(labels_box.data)

    if entry.probs_path is not None:
        box = read("probs")
        if box.data.ndim != 3:
            raise ShapeMismatch(
                f"{entry.probs_path} must hold a rank-3 samples x points x classes tensor"
            )
        if box.dtype_tag == DTYPE_FLOAT32:
            payload = ProbabilityStack(box.data)
        elif box.dtype_tag == DTYPE_UINT16:
            payload = QuantizedStack(box.data)
        else:
            raise ShapeMismatch(
                f"{entry.probs_path}: probabilities must be float32 or uint16"
            )
        if entry.samples != 1 and entry.samples != payload.samples:
            raise ShapeMismatch(
                f"manifest declares {entry.samples} samples but "
                f"{entry.probs_path} holds {payload.samples}"
            )
    else:
        box = read("logits")
        if box.dtype_tag != DTYPE_FLOAT32 or box.data.ndim != 2:
            raise ShapeMismatch(
                f"{entry.logits_path} must hold a rank-2 float32 points x classes tensor"
            )
        stddev = None
        if entry.stddev_path is not None:
            sd_box = read("stddev")
            if sd_box.dtype_tag != DTYPE_FLOAT32 or sd_box.data.shape != box.data.shape:
                raise ShapeMismatch(
                    f"{entry.stddev_path} must match the logits shape {box.data.shape}"
                )
            stddev = sd_box.data
        payload = LogitTensor(box.data, stddev)
    if payload.points != len(labels):
        raise ShapeMismatch(
            f"{entry.probs_path or entry.logits_path} covers {payload.points} points but "
            f"{entry.labels_path} covers {len(labels)}"
        )
    digest = _files_digest((path, files[key]) for key, path in paths.items())
    object.__setattr__(entry, "_loaded_digest", digest)
    return payload, labels


@dataclass(frozen=True)
class Manifest:
    """A class catalog, a frame list, and optional config overrides."""

    catalog: ClassCatalog
    frames: tuple[FrameEntry, ...]
    overrides: dict

    def apply_overrides(self, config):
        return replace(config, **self.overrides) if self.overrides else config


def _manifest_int(path: Path, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ManifestError(f"{path}: {key}: invalid int value: {text!r}") from None


def read_manifest(path: str | Path) -> Manifest:
    """Parse a manifest and check that every referenced file exists."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
    base = path.parent
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ManifestError(f"{path} does not start with {MANIFEST_HEADER!r}")

    names: tuple[str, ...] | None = None
    ignore_index = 255
    overrides: dict = {}
    entries: list[FrameEntry] = []
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        rest = rest.strip()
        if key == "classes":
            names = tuple(part.strip() for part in rest.split(","))
        elif key == "ignore_index":
            ignore_index = _manifest_int(path, key, rest)
        elif key in _CONFIG_KEYS:
            try:
                overrides[key] = EvalConfig.parse_field(key, rest)
            except ValueError as exc:
                raise ManifestError(f"{path}: {key}: {exc}") from None
        elif key == "frame":
            tokens: dict[str, str] = {}
            for token in rest.split():
                tk, eq, tv = token.partition("=")
                if not eq:
                    raise ManifestError(f"malformed frame token {token!r} in {path}")
                tokens[tk] = tv
            unknown = set(tokens) - {*_FRAME_FILES, "samples"}
            if unknown:
                raise ManifestError(f"unknown frame keys {sorted(unknown)} in {path}")
            if "labels" not in tokens:
                raise ManifestError(f"frame without labels in {path}")
            samples = _manifest_int(path, "samples", tokens.get("samples", "1"))
            files = {
                f"{key}_path": (base / tokens[key]).resolve()
                for key in _FRAME_FILES
                if key in tokens
            }
            try:
                entries.append(FrameEntry(**files, samples=samples))
            except ManifestError as exc:
                raise ManifestError(f"{path}: {exc}") from exc
        else:
            raise ManifestError(f"unknown manifest key {key!r} in {path}")

    if names is None:
        raise ManifestError(f"{path} declares no classes")
    try:
        catalog = ClassCatalog(names, ignore_index)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    missing = [
        str(p) for entry in entries for p in entry.paths() if not p.is_file()
    ]
    if missing:
        raise ManifestError(f"{path} references missing files: {', '.join(missing)}")
    return Manifest(catalog, tuple(entries), overrides)


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    """Emit the manifest with paths relative to its own directory."""
    path = Path(path)
    base = path.parent.resolve()
    for name in manifest.catalog.names:
        if "," in name or "\n" in name:
            raise ManifestError(f"class name {name!r} cannot be stored in a manifest")
    lines = [MANIFEST_HEADER]
    lines.append("classes " + ",".join(manifest.catalog.names))
    lines.append(f"ignore_index {manifest.catalog.ignore_index}")
    for key, value in manifest.overrides.items():
        if key not in _CONFIG_KEYS:
            raise ManifestError(f"unknown config override {key!r}")
        lines.append(f"{key} {value}")
    for entry in manifest.frames:
        parts = ["frame"]
        parts += [f"{key}={os.path.relpath(p, base)}" for key, p in entry._files().items()]
        if entry.samples != 1:
            parts.append(f"samples={entry.samples}")
        line = " ".join(parts)
        if any(" " in p for p in parts[1:]):
            raise ManifestError("manifest paths cannot contain spaces")
        lines.append(line)
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_payload(report: EvalReport) -> dict:
    return {
        "format": "sparseval-report-v1",
        "catalog": {
            "names": list(report.class_names),
            "ignore_index": report.ignore_index,
        },
        "measures": list(report.measures),
        "classes": [asdict(row) for row in report.rows],
        "aggregates": {
            "overall_ause": dict(report.overall_ause),
            "filtered_ause": dict(report.filtered_ause),
            "miou_present": report.miou_present,
            "miou_all_classes": report.miou_all_classes,
            "ece": report.ece,
            "filter_threshold": report.filter_threshold,
        },
        "confusion_counts": report.confusion_counts,
        # JSON writes the (name, iou, ause) tuples as arrays
        "scatter": asdict(scatter_export(report)),
        "provenance": report.provenance,
    }


def write_report(
    report: EvalReport,
    out_dir: str | Path,
    formats: tuple[str, ...] = ("json", "csv"),
) -> dict[str, Path]:
    """Write ``report.json`` and/or ``report.csv``; never emits an empty file."""
    if not report.rows:
        raise ValueError("refusing to write an empty report")
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ValueError(f"unknown report format {fmt!r}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written: dict[str, Path] = {}
        if "json" in formats:
            json_path = out_dir / "report.json"
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(_report_payload(report), fh, indent=2)
                fh.write("\n")
            written["json"] = json_path
        if "csv" in formats:
            csv_path = out_dir / "report.csv"
            with open(csv_path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                header = ["class", "iou"]
                header += [f"ause_{m}" for m in report.measures]
                header += ["filtered", "relevant_count"]
                writer.writerow(header)
                for row in report.rows:
                    writer.writerow(
                        [row.name, _fmt(row.iou)]
                        + [_fmt(row.ause[m]) for m in report.measures]
                        + [_fmt(row.filtered), row.relevant_count]
                    )
                kept = [r for r in report.rows if not r.filtered]
                kept_iou = (
                    float(np.mean([r.iou for r in kept])) if kept else None
                )
                writer.writerow(
                    ["all", _fmt(report.miou_all_classes)]
                    + [_fmt(report.overall_ause[m]) for m in report.measures]
                    + ["", sum(r.relevant_count for r in report.rows)]
                )
                writer.writerow(
                    ["all (filtered)", _fmt(kept_iou)]
                    + [_fmt(report.filtered_ause[m]) for m in report.measures]
                    + ["", sum(r.relevant_count for r in kept)]
                )
            written["csv"] = csv_path
        return written
    except OSError as exc:
        raise IoFailure(f"cannot write report files under {out_dir}: {exc}") from exc


def write_scatter_csv(report: EvalReport, path: str | Path) -> Path:
    """One row per defined class per measure, with the outlier threshold."""
    scatter = scatter_export(report)
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["measure", "class", "iou", "ause", "filter_threshold"])
            for m, pairs in scatter.points.items():
                for name, iou_val, ause_val in pairs:
                    writer.writerow(
                        [m, name, _fmt(iou_val), _fmt(ause_val), _fmt(scatter.threshold)]
                    )
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def read_report(path: str | Path) -> EvalReport:
    """Parse a JSON report back into the in-memory form."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "sparseval-report-v1":
        raise ValueError(f"{path} is not a sparseval report")
    measures = tuple(payload["measures"])
    rows = [ClassRow(**entry) for entry in payload["classes"]]
    agg = payload["aggregates"]
    return EvalReport(
        class_names=tuple(payload["catalog"]["names"]),
        ignore_index=payload["catalog"]["ignore_index"],
        measures=measures,
        rows=rows,
        overall_ause={m: agg["overall_ause"][m] for m in measures},
        filtered_ause={m: agg["filtered_ause"][m] for m in measures},
        miou_present=agg["miou_present"],
        miou_all_classes=agg["miou_all_classes"],
        ece=agg["ece"],
        filter_threshold=agg["filter_threshold"],
        confusion_counts=[[int(v) for v in row] for row in payload["confusion_counts"]],
        provenance=payload["provenance"],
    )
