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
never produced, and no failed write leaves a partial file (``_replacing``).
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

from .confidence import LogitTensor, StreamedMean
from .core import (
    DEFAULT_IGNORE_INDEX,
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
REPORT_FORMAT = "sparseval-report-v1"

# the EvalReport fields that a report stores under "aggregates", in order
_AGGREGATES = (
    "overall_ause", "filtered_ause", "miou_present", "miou_all_classes", "ece", "filter_threshold"
)

# a manifest may override every EvalConfig field under the field's name
_CONFIG_KEYS = frozenset(f.name for f in fields(EvalConfig))

# the file keys of a manifest frame line, in the order a line lists them,
# load_frame reads them and a digest takes them; FrameEntry holds the file
# of key x as x_path
_FRAME_FILES = ("probs", "logits", "stddev", "labels")


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
    left as it was, so no reader ever sees a partial file. A missing
    parent directory is made first, inside the caller's ``_failing``."""
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
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
    with _failing("write", path), _replacing(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(hashlib.blake2b(payload, digest_size=8).digest())


def _field(raw: np.ndarray | bytes, start: int, size: int, what: str) -> int:
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


@contextlib.contextmanager
def _failing(verb: str, path: str | Path, error=IoFailure):
    """Raise an ``OSError`` or ``UnicodeDecodeError`` of the block as
    ``error``: cannot ``verb`` ``path``, then the error's text."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot {verb} {path}: {exc}") from exc


def reading(path: str | Path):
    """Raise a read error of the block (``_failing``) as ``IoFailure`` naming ``path``."""
    return _failing("read", path)


def _streams(dtype_tag: int, dims: tuple[int, ...]) -> bool:
    """Whether a probability file with this header is read a sample at a
    time: a rank-3 float32 or uint16 stack whose samples take more bytes
    than one sample plus a float64 sum (6 or more uint16 samples, 4 or more
    float32 ones)."""
    itemsize = _TAG_TO_DTYPE[dtype_tag].itemsize
    return dtype_tag != DTYPE_UINT8 and len(dims) == 3 and dims[0] * itemsize > itemsize + 8


class _Parts(list):
    """Keeps the byte strings fed to it as to a hash: ``read_tensor``'s digest."""

    update = list.append


def _read_container(path: str | Path, buffers: dict | None, key: str, digest, add=None):
    """Read and verify the container file at ``path``; return its dtype tag,
    its dimensions and its array, a view of the bytes read.

    The payload is read in slabs into the ``core.scratch`` buffer
    ``buffers[key]``: the whole payload as one slab or, given ``add`` and a
    header that ``_streams`` admits, one (points, classes) sample per slab,
    each passed to ``add`` in sample order and valid until ``add`` returns;
    then the array comes back as None. ``digest`` takes the file's name and
    every byte of the file, its payload a slab at a time.

    This is the one place that states the format's error order: the header,
    a payload cut short (before anything of its size is allocated), a
    checksum cut short, trailing bytes, a checksum that does not verify.
    The last three are raised after every slab has been added: ``add``
    holds back any fault it finds in the values, so that no value of a
    file that fails to verify reaches a result.
    """
    with reading(path), open(path, "rb") as fh:
        head = np.frombuffer(fh.read(_HEADER_BYTES), dtype=np.uint8)
        dtype_tag, dims, start = _parse_header(head, path)
        dtype = _TAG_TO_DTYPE[dtype_tag]
        size = math.prod(dims) * dtype.itemsize
        if os.fstat(fh.fileno()).st_size < start + size:
            raise TruncatedFile("file ends inside the payload")
        streamed = add is not None and _streams(dtype_tag, dims)
        slabs = dims[0] if streamed else 1
        slab = scratch(buffers, key, size // slabs)
        digest.update(Path(path).name.encode())
        digest.update(head[:start])
        fh.seek(start)
        checksum = hashlib.blake2b(digest_size=8)
        for _ in range(slabs):
            # a file that shrank since its size was taken ends inside the payload
            _field(slab[: fh.readinto(slab)], 0, slab.size, "payload")
            checksum.update(slab)
            digest.update(slab)
            if streamed:
                add(slab.view(dtype).reshape(dims[1:]))
        stored = fh.read(8)
        _field(stored, 0, 8, "checksum")
        if fh.read(1):
            raise BadHeader(f"{path} carries trailing bytes past the checksum")
    if checksum.digest() != stored:
        raise ChecksumMismatch(f"payload checksum of {path} does not verify")
    digest.update(stored)
    return dtype_tag, dims, None if streamed else slab.view(dtype).reshape(dims)


def read_tensor(path: str | Path) -> TensorContainer:
    """Parse and verify a container file."""
    dtype_tag, _, data = _read_container(path, None, "", _Parts())
    return TensorContainer(dtype_tag, data)


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

    # whether every predictive block is float32: probability files hold
    # float32 or uint16 values
    float32_blocks = property(lambda self: self.probs_path is not None)

    @property
    def points(self) -> int:
        """The point count of the labels file, read from its header alone."""
        with reading(self.labels_path), open(self.labels_path, "rb") as fh:
            head = np.frombuffer(fh.read(_HEADER_BYTES), dtype=np.uint8)
        tag, dims, _ = _parse_header(head, self.labels_path)
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
    ) -> tuple[ProbabilityStack | QuantizedStack | LogitTensor | StreamedMean, LabelArray]:
        return load_frame(self, buffers)

    def digest(self) -> str:
        """SHA-256 over each file's name and bytes, in ``_FRAME_FILES`` order.

        It describes the bytes that the last load read, even if a file has
        been replaced since; before any load, the frame is loaded for it.
        """
        if "_loaded_digest" not in self.__dict__:
            load_frame(self)
        return self._loaded_digest


def _check_label_header(path: Path, dtype_tag: int, dims: tuple[int, ...]) -> None:
    if dtype_tag not in (DTYPE_UINT8, DTYPE_UINT16) or len(dims) != 1:
        raise ShapeMismatch(f"{path} must hold a rank-1 uint8 or uint16 label array")


def load_frame(
    entry: FrameEntry, buffers: dict | None = None
) -> tuple[ProbabilityStack | QuantizedStack | LogitTensor | StreamedMean, LabelArray]:
    """Materialize a manifest frame into validated-shape in-memory types.

    Each file is read once, in ``_FRAME_FILES`` order, straight into one
    SHA-256, and each array is a view of the bytes read. float32
    probabilities come as a ``ProbabilityStack``; uint16 probabilities come
    as a ``QuantizedStack``, dequantised only when they are evaluated. The
    digest is kept on the entry, where ``FrameEntry.digest`` finds it.

    Without ``buffers`` every file is read whole into bytes of its own.
    With a dict, as a pooling worker passes one, each file is read into
    the dict's ``core.scratch`` buffer for its manifest key, so the arrays
    returned stay valid only until the next load with the same dict, and a
    stack that ``_streams`` admits comes back as a ``StreamedMean`` over
    ``buffers``, read a sample at a time. A stack with a fault in its
    values is then read again whole and returned as a whole read returns
    it, so that ``predictive_blocks`` names the fault; the digest is that
    of the second read.
    """
    digest = hashlib.sha256()
    if entry.probs_path is not None:
        mean = StreamedMean(buffers)
        add = None if buffers is None else mean.add
        tag, dims, data = _read_container(entry.probs_path, buffers, "probs", digest, add)
        if data is None and not mean.clean:
            digest = hashlib.sha256()
            tag, dims, data = _read_container(entry.probs_path, buffers, "probs", digest)
        if data is None:
            payload = mean
        elif len(dims) != 3:
            raise ShapeMismatch(
                f"{entry.probs_path} must hold a rank-3 samples x points x classes tensor"
            )
        elif tag == DTYPE_FLOAT32:
            payload = ProbabilityStack(data)
        elif tag == DTYPE_UINT16:
            payload = QuantizedStack(data)
        else:
            raise ShapeMismatch(f"{entry.probs_path}: probabilities must be float32 or uint16")
        samples, points = dims[:2]
        if entry.samples != 1 and entry.samples != samples:
            raise ShapeMismatch(
                f"manifest declares {entry.samples} samples but "
                f"{entry.probs_path} holds {samples}"
            )
    else:
        tag, dims, logits = _read_container(entry.logits_path, buffers, "logits", digest)
        if tag != DTYPE_FLOAT32 or len(dims) != 2:
            raise ShapeMismatch(f"{entry.logits_path} must hold a rank-2 float32 tensor")
        stddev = None
        if entry.stddev_path is not None:
            tag, sd_dims, stddev = _read_container(entry.stddev_path, buffers, "stddev", digest)
            if tag != DTYPE_FLOAT32 or sd_dims != dims:
                raise ShapeMismatch(
                    f"{entry.stddev_path} must match the logits shape {dims} as float32"
                )
        try:
            payload = LogitTensor(logits, stddev)
        except ValueError as exc:  # the one fault left: a negative stddev entry
            raise ShapeMismatch(f"{entry.stddev_path}: {exc}") from None
        points = payload.points
    tag, dims, data = _read_container(entry.labels_path, buffers, "labels", digest)
    _check_label_header(entry.labels_path, tag, dims)
    labels = LabelArray(data)
    if points != len(labels):
        raise ShapeMismatch(
            f"{entry.probs_path or entry.logits_path} covers {points} points but "
            f"{entry.labels_path} covers {len(labels)}"
        )
    object.__setattr__(entry, "_loaded_digest", digest.hexdigest())
    return payload, labels


@dataclass(frozen=True)
class Manifest:
    """A class catalog, a frame list, and optional config overrides."""

    catalog: ClassCatalog
    frames: tuple[FrameEntry, ...]
    overrides: dict

    def apply_overrides(self, config):
        return replace(config, **self.overrides) if self.overrides else config


def _manifest_value(path: Path, key: str, text: str):
    """``text`` read as manifest key ``key``: as EvalConfig reads and checks
    its field ``key``, any other key as an int; else ``ManifestError``."""
    try:
        return EvalConfig.parse_field(key, text) if key in _CONFIG_KEYS else int(text)
    except ValueError as exc:
        detail = exc if key in _CONFIG_KEYS else f"invalid int value: {text!r}"
        raise ManifestError(f"{path}: {key}: {detail}") from None


def read_manifest(path: str | Path) -> Manifest:
    """Parse a manifest and check that every referenced file exists. A key
    other than ``frame``, or a key of one frame line, given twice is an error."""
    path = Path(path)
    with _failing("read", path, ManifestError):
        text = path.read_text(encoding="utf-8")
    base = path.parent
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ManifestError(f"{path} does not start with {MANIFEST_HEADER!r}")

    # the value of each key but frame, so that a repeated key is found
    settings: dict = {}
    entries: list[FrameEntry] = []
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        rest = rest.strip()
        if key in settings:
            raise ManifestError(f"repeated manifest key {key!r} in {path}")
        if key == "classes":
            settings[key] = tuple(part.strip() for part in rest.split(","))
        elif key == "ignore_index" or key in _CONFIG_KEYS:
            settings[key] = _manifest_value(path, key, rest)
        elif key == "frame":
            tokens: dict[str, str] = {}
            for token in rest.split():
                tk, eq, tv = token.partition("=")
                if not eq:
                    raise ManifestError(f"malformed frame token {token!r} in {path}")
                if tk in tokens:
                    raise ManifestError(f"repeated frame key {tk!r} in {path}")
                tokens[tk] = tv
            unknown = set(tokens) - {*_FRAME_FILES, "samples"}
            if unknown:
                raise ManifestError(f"unknown frame keys {sorted(unknown)} in {path}")
            if "labels" not in tokens:
                raise ManifestError(f"frame without labels in {path}")
            samples = _manifest_value(path, "samples", tokens.get("samples", "1"))
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

    if "classes" not in settings:
        raise ManifestError(f"{path} declares no classes")
    names, ignore = settings.pop("classes"), settings.pop("ignore_index", DEFAULT_IGNORE_INDEX)
    try:
        catalog = ClassCatalog(names, ignore)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    missing = [str(p) for entry in entries for p in entry.paths() if not p.is_file()]
    if missing:
        raise ManifestError(f"{path} references missing files: {', '.join(missing)}")
    return Manifest(catalog, tuple(entries), settings)


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    """Emit the manifest with paths relative to its own directory, by
    ``_replacing``; each override value is checked as ``read_manifest``
    will read it."""
    path = Path(path)
    base = path.parent.resolve()
    for name in manifest.catalog.names:
        # the reader splits lines, then names at commas, and strips each name
        if "," in name or name != name.strip() or len(name.splitlines()) > 1:
            raise ManifestError(f"class name {name!r} cannot be stored in a manifest")
    lines = [MANIFEST_HEADER]
    lines.append("classes " + ",".join(manifest.catalog.names))
    lines.append(f"ignore_index {manifest.catalog.ignore_index}")
    for key, value in manifest.overrides.items():
        if key not in _CONFIG_KEYS:
            raise ManifestError(f"unknown config override {key!r}")
        _manifest_value(path, key, str(value))
        lines.append(f"{key} {value}")
    for entry in manifest.frames:
        parts = ["frame"]
        parts += [f"{key}={os.path.relpath(p, base)}" for key, p in entry._files().items()]
        if entry.samples != 1:
            parts.append(f"samples={entry.samples}")
        # the reader splits lines, then tokens at any whitespace
        if any(c.isspace() for p in parts[1:] for c in p):
            what = "spaces" if any(" " in p for p in parts[1:]) else "whitespace"
            raise ManifestError(f"manifest paths cannot contain {what}")
        lines.append(" ".join(parts))
    with _failing("write", path), _replacing(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _report_payload(report: EvalReport) -> dict:
    return {
        "format": REPORT_FORMAT,
        "catalog": {
            "names": list(report.class_names),
            "ignore_index": report.ignore_index,
        },
        "measures": list(report.measures),
        "classes": [asdict(row) for row in report.rows],
        "aggregates": {key: getattr(report, key) for key in _AGGREGATES},
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
    """Write ``report.json`` and/or ``report.csv``, each by ``_replacing``;
    never emits an empty file."""
    if not report.rows:
        raise ValueError("refusing to write an empty report")
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ValueError(f"unknown report format {fmt!r}")
    out_dir = Path(out_dir)
    with _failing("write report files under", out_dir):
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
                kept = [r for r in report.rows if not r.filtered]
                kept_iou = (
                    float(np.mean([r.iou for r in kept])) if kept else None
                )
                # a row per class, then one for all classes and one for the
                # kept ones, with an empty filtered column, each counting the
                # relevant points of its classes
                rows = [(r.name, r.iou, r.ause, r.filtered, [r]) for r in report.rows]
                rows.append(("all", report.miou_all_classes, report.overall_ause, None, report.rows))
                rows.append(("all (filtered)", kept_iou, report.filtered_ause, None, kept))
                for name, iou_val, ause_vals, filtered, counted in rows:
                    writer.writerow(
                        [name, _fmt(iou_val)]
                        + [_fmt(ause_vals[m]) for m in report.measures]
                        + [_fmt(filtered), sum(r.relevant_count for r in counted)]
                    )
            written["csv"] = csv_path
        return written


def write_scatter_csv(report: EvalReport, path: str | Path) -> Path:
    """One row per defined class and measure, with the outlier threshold, by ``_replacing``."""
    scatter = scatter_export(report)
    path = Path(path)
    with _failing("write", path), _replacing(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["measure", "class", "iou", "ause", "filter_threshold"])
        for m, pairs in scatter.points.items():
            for name, iou_val, ause_val in pairs:
                writer.writerow(
                    [m, name, _fmt(iou_val), _fmt(ause_val), _fmt(scatter.threshold)]
                )
    return path


def write_text(text: str, path: str | Path) -> Path:
    """Write ``text`` to ``path`` as UTF-8, by ``_replacing``; return ``path``."""
    path = Path(path)
    with _failing("write", path), _replacing(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def read_report(path: str | Path) -> EvalReport:
    """Parse a JSON report back into the in-memory form."""
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    # any JSON that lacks a field, or holds one of another shape, is foreign
    try:
        if payload["format"] == REPORT_FORMAT:
            return EvalReport(
                class_names=tuple(payload["catalog"]["names"]),
                ignore_index=payload["catalog"]["ignore_index"],
                measures=tuple(payload["measures"]),
                rows=[ClassRow(**entry) for entry in payload["classes"]],
                **{key: payload["aggregates"][key] for key in _AGGREGATES},
                confusion_counts=[[int(v) for v in row] for row in payload["confusion_counts"]],
                provenance=payload["provenance"],
            )
    except (KeyError, TypeError, ValueError):
        pass
    raise ValueError(f"{path} is not a sparseval report")
