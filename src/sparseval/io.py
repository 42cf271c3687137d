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
never produced. ``load_frame`` reads each of a manifest frame's files once,
whole, or, given a sink for it, a probability stack of many samples one
sample slab at a time, checksummed as it is read and raising the errors a
whole read raises. Writers write beside the target and move the file into
place, so a failed write leaves no partial file.
"""
from __future__ import annotations

import contextlib
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
from .core import (
    ClassCatalog,
    EvalConfig,
    LabelArray,
    ProbabilityStack,
    QuantizedStack,
    as_integer,
    scratch,
)
from .errors import (
    BadHeader,
    BadMagic,
    ChecksumMismatch,
    ContainerError,
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
# the longest header: magic, dtype tag, rank and _MAX_RANK dimensions
_HEADER_BYTES = 16 + 4 * _MAX_RANK

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


@contextlib.contextmanager
def _replacing(path: Path, mode: str, **kwargs):
    """A file opened for writing beside ``path``, which replaces ``path``
    once it is written; if anything fails, it is removed and ``path`` is
    left as it was, so no reader ever sees a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


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
    try:
        with _replacing(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(_payload_checksum(payload))
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
        head = np.frombuffer(fh.read(_HEADER_BYTES), dtype=np.uint8)
    return _parse_header(head, path)[:2]


def _read_file(fh, buffers: dict | None, key: str) -> np.ndarray:
    """The bytes of the open file ``fh`` from its start, read into the
    ``core.scratch`` buffer ``buffers[key]`` or, without ``buffers``, into a
    new buffer."""
    fh.seek(0)
    # one byte more than the file holds, so that a file that grew since
    # the size was taken shows as trailing bytes
    buf = scratch(buffers, key, os.fstat(fh.fileno()).st_size + 1)
    return buf[: fh.readinto(buf)]


def _read_tensor(
    path: str | Path, buffers: dict | None = None, key: str = "", fh=None
) -> tuple[TensorContainer, np.ndarray]:
    """Parse and verify a container file, read in one piece by ``_read_file``
    from ``fh``, the file already open, or else from a new handle; also
    return the file's bytes, which back the container's array without a
    copy."""
    if fh is None:
        with open(path, "rb") as fh:
            return _read_tensor(path, buffers, key, fh)
    raw = _read_file(fh, buffers, key)
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


def _files_digest(files, h=None) -> str:
    """SHA-256 over each file's name and bytes, given as (path, bytes)
    pairs; ``h``, if given, is a SHA-256 that has taken the files before
    them."""
    if h is None:
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

    def _stream(
        self, buffers: dict | None, add
    ) -> tuple[ProbabilityStack | QuantizedStack | LogitTensor | None, LabelArray]:
        """``load(buffers)``, except that a stack of many samples is passed
        to ``add`` a sample at a time and returned as None (``load_frame``)."""
        return load_frame(self, buffers, add=add)

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
    entry: FrameEntry, buffers: dict | None = None, *, add=None
) -> tuple[ProbabilityStack | QuantizedStack | LogitTensor | None, LabelArray]:
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

    With ``add``, a stack that takes more bytes per point than one of its
    samples plus a float64 sum (``_streams``: 6 or more uint16 samples, 4
    or more float32 ones) is not returned but read a sample at a time
    (``_read_slabs``), each (points, classes) slab passed to ``add``, and
    None comes back in its place. The errors and their order are those of
    a whole read: nothing of the file is trusted until it has verified.
    """
    paths = entry._files()
    files: dict[str, np.ndarray] = {}

    def read(key: str, fh=None) -> TensorContainer:
        box, files[key] = _read_tensor(paths[key], buffers, key, fh)
        return box

    labels_box = read("labels")
    _check_label_header(entry.labels_path, labels_box.dtype_tag, labels_box.data.shape)
    labels = LabelArray(labels_box.data)

    probs_digest = None
    if entry.probs_path is not None:
        with open(paths["probs"], "rb") as fh:
            streamed = None if add is None else _stream_stack(fh, paths["probs"], buffers, add)
            if streamed is None:
                box = read("probs", fh)
        if streamed is None:
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
            samples, points = payload.samples, payload.points
        else:
            payload = None
            (samples, points, _), probs_digest = streamed
        if entry.samples != 1 and entry.samples != samples:
            raise ShapeMismatch(
                f"manifest declares {entry.samples} samples but "
                f"{entry.probs_path} holds {samples}"
            )
    else:
        box = read("logits")
        if box.dtype_tag != DTYPE_FLOAT32 or box.data.ndim != 2:
            raise ShapeMismatch(f"{entry.logits_path} must hold a rank-2 float32 tensor")
        stddev = None
        if entry.stddev_path is not None:
            sd_box = read("stddev")
            if sd_box.dtype_tag != DTYPE_FLOAT32 or sd_box.data.shape != box.data.shape:
                raise ShapeMismatch(
                    f"{entry.stddev_path} must match the logits shape "
                    f"{tuple(box.data.shape)} as float32"
                )
            stddev = sd_box.data
        payload = LogitTensor(box.data, stddev)
        points = payload.points
    if points != len(labels):
        raise ShapeMismatch(
            f"{entry.probs_path or entry.logits_path} covers {points} points but "
            f"{entry.labels_path} covers {len(labels)}"
        )
    # a streamed stack, the first file in digest order, is hashed as it is read
    digest = _files_digest(((p, files[k]) for k, p in paths.items() if k in files), probs_digest)
    object.__setattr__(entry, "_loaded_digest", digest)
    return payload, labels


def _streams(dtype_tag: int, dims: tuple[int, ...]) -> bool:
    """Whether a probability file with this header is read a sample at a
    time: a rank-3 float32 or uint16 stack whose samples take more bytes
    per point and class than one sample plus a float64 sum (6 or more
    uint16 samples, 4 or more float32 ones)."""
    if dtype_tag not in (DTYPE_FLOAT32, DTYPE_UINT16) or len(dims) != 3:
        return False
    itemsize = _TAG_TO_DTYPE[dtype_tag].itemsize
    return dims[0] * itemsize > itemsize + 8


def _stream_stack(fh, path: Path, buffers: dict | None, add):
    """Read the probability stack of the open file ``fh`` a sample at a
    time into ``add`` (``_read_slabs``) and return its dimensions and the
    SHA-256 of its name and bytes; or return None, having read its header
    alone, if the file is to be read whole: if its header does not parse
    (the whole read raises the error), declares a stack that ``_streams``
    does not admit, or declares more bytes than the file holds (the whole
    read raises ``TruncatedFile`` before anything of that size is
    allocated)."""
    head = np.frombuffer(fh.read(_HEADER_BYTES), dtype=np.uint8)
    try:
        dtype_tag, dims, start = _parse_header(head, path)
    except ContainerError:
        return None
    size = math.prod(dims) * _TAG_TO_DTYPE[dtype_tag].itemsize
    if not _streams(dtype_tag, dims) or os.fstat(fh.fileno()).st_size < start + size + 8:
        return None
    digest = hashlib.sha256(path.name.encode())
    digest.update(head[:start])
    fh.seek(start)
    _read_slabs(fh, path, _TAG_TO_DTYPE[dtype_tag], dims, buffers, add, digest)
    return dims, digest


def _read_slabs(fh, path: Path, dtype, dims, buffers: dict | None, add, digest) -> None:
    """Pass the (points, classes) slabs of the stack whose payload ``fh``
    is at to ``add`` in sample order, each read into the ``core.scratch``
    buffer ``buffers["probs"]`` and valid until ``add`` returns; feed every
    byte of the payload and checksum to ``digest``. The file is read to its
    end, and its errors (a payload or checksum cut short, trailing bytes, a
    checksum that does not verify) are raised as ``_read_tensor`` raises
    them, after every slab has been added: ``add`` holds back any fault it
    finds in the values, so that no value of a file that fails to verify
    reaches a result."""
    samples, points, classes = dims
    checksum = hashlib.blake2b(digest_size=8)
    slab = scratch(buffers, "probs", points * classes * dtype.itemsize)
    for _ in range(samples):
        # a file that shrank since its size was taken ends inside the payload
        _field(slab[: fh.readinto(slab)], 0, slab.size, "payload")
        checksum.update(slab)
        digest.update(slab)
        add(slab.view(dtype).reshape(points, classes))
    stored = fh.read(8)
    _field(np.frombuffer(stored, dtype=np.uint8), 0, 8, "checksum")
    if fh.read(1):
        raise BadHeader(f"{path} carries trailing bytes past the checksum")
    if checksum.digest() != stored:
        raise ChecksumMismatch(f"payload checksum of {path} does not verify")
    digest.update(stored)


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
    """Write ``report.json`` and/or ``report.csv``; never emits an empty file.

    Each file is written beside its place and then moved there, so a write
    that fails leaves no partial file and any earlier report as it was.
    """
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
            with _replacing(json_path, "w", encoding="utf-8") as fh:
                json.dump(_report_payload(report), fh, indent=2)
                fh.write("\n")
            written["json"] = json_path
        if "csv" in formats:
            csv_path = out_dir / "report.csv"
            with _replacing(csv_path, "w", encoding="utf-8", newline="") as fh:
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
    """One row per defined class per measure, with the outlier threshold;
    written as ``write_report`` writes, so a failed write changes nothing."""
    scatter = scatter_export(report)
    path = Path(path)
    try:
        with _replacing(path, "w", encoding="utf-8", newline="") as fh:
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
