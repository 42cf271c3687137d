import dataclasses
import errno
import hashlib
import json
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseval.io
from sparseval import (
    ArrayFrame,
    ClassCatalog,
    ClassRow,
    EvalConfig,
    EvalReport,
    FrameEntry,
    LabelArray,
    LogitTensor,
    Manifest,
    ProbabilityStack,
    QuantizedStack,
    ScenarioSpec,
    TensorContainer,
    aggregate_samples,
    dequantize,
    evaluate_split,
    generate,
    load_frame,
    pool_split,
    read_manifest,
    read_report,
    read_tensor,
    validate_inputs,
    write_dataset,
    write_manifest,
    write_report,
    write_tensor,
)
from sparseval.errors import (
    BadHeader,
    BadMagic,
    ChecksumMismatch,
    IoFailure,
    ManifestError,
    MissingStddev,
    NotADistribution,
    ShapeMismatch,
    SparsevalError,
    TruncatedFile,
)
from sparseval.cli import main
from sparseval.confidence import StreamedMean, predictive_blocks, score_columns
from sparseval.core import BLOCK_POINTS, MEASURES
from sparseval.io import write_scatter_csv
from sparseval.pipeline import _reduce_frame


def test_float32_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((2, 3, 4)).astype(np.float32)
    path = tmp_path / "t.spt"
    write_tensor(TensorContainer.from_array(arr), path)
    back = read_tensor(path)
    assert back.dtype_tag == 1
    assert back.data.dtype == np.dtype("<f4")
    assert np.array_equal(back.data, arr)
    assert back.data.tobytes() == arr.tobytes()
    # writing the parsed container reproduces the file byte for byte
    copy = tmp_path / "copy.spt"
    write_tensor(back, copy)
    assert copy.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(7, dtype=np.uint8),
        np.arange(12, dtype=np.uint16).reshape(3, 4),
    ],
)
def test_integer_roundtrips(tmp_path, arr):
    path = tmp_path / "t.spt"
    write_tensor(TensorContainer.from_array(arr), path)
    back = read_tensor(path)
    assert np.array_equal(back.data, arr)


def test_unsupported_dtype_rejected():
    with pytest.raises(ValueError):
        TensorContainer.from_array(np.zeros(3, dtype=np.float64))


def test_flipped_payload_byte_fails_checksum(tmp_path):
    path = tmp_path / "t.spt"
    write_tensor(TensorContainer.from_array(np.arange(32, dtype=np.uint8)), path)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF  # inside the payload
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        read_tensor(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.spt"
    write_tensor(TensorContainer.from_array(np.arange(32, dtype=np.uint8)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TruncatedFile):
        read_tensor(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "t.spt"
    write_tensor(TensorContainer.from_array(np.arange(8, dtype=np.uint8)), path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.spt"
    write_tensor(TensorContainer.from_array(np.arange(8, dtype=np.uint8)), path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(BadHeader):
        read_tensor(path)


@pytest.mark.parametrize("dtype", ["<f4", ">f4", "u1", "<u2", ">u2"])
def test_write_tensor_file_bytes_for_every_dtype_tag(tmp_path, dtype):
    # header, the little-endian payload and its BLAKE2b-64 digest, also for
    # a big-endian or strided input, which the container makes contiguous
    arr = (np.random.default_rng(0).random((3, 5, 4)) * 200).astype(dtype)[:, ::2]
    container = TensorContainer.from_array(arr)
    payload = np.ascontiguousarray(arr, dtype=dtype.replace(">", "<")).tobytes()
    header = b"SPARSEV1" + struct.pack("<5I", container.dtype_tag, 3, 3, 3, 4)
    path = tmp_path / "t.spt"
    write_tensor(container, path)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    assert path.read_bytes() == header + payload + digest


@pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.uint16])
def test_write_tensor_allocates_less_than_the_payload(tmp_path, dtype):
    container = TensorContainer.from_array(np.ones((4, 3000, 19), dtype=dtype))
    tracemalloc.start()
    try:
        write_tensor(container, tmp_path / "t.spt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < container.data.nbytes


def test_bad_dtype_tag_and_rank(tmp_path):
    path = tmp_path / "t.spt"
    write_tensor(TensorContainer.from_array(np.arange(8, dtype=np.uint8)), path)
    blob = bytearray(path.read_bytes())
    good = bytes(blob)
    blob[8] = 9  # dtype tag
    path.write_bytes(bytes(blob))
    with pytest.raises(BadHeader):
        read_tensor(path)
    blob = bytearray(good)
    blob[12] = 0  # rank
    path.write_bytes(bytes(blob))
    with pytest.raises(BadHeader):
        read_tensor(path)


def _write_frame(tmp_path, probs, labels, *, quantize=False, label_dtype=np.uint8):
    probs_path = tmp_path / "f.probs.spt"
    labels_path = tmp_path / "f.labels.spt"
    if quantize:
        arr = np.clip(np.round(probs * 65535.0), 0, 65535).astype(np.uint16)
    else:
        arr = probs.astype(np.float32)
    write_tensor(TensorContainer.from_array(arr), probs_path)
    write_tensor(TensorContainer.from_array(labels.astype(label_dtype)), labels_path)
    return FrameEntry(labels_path=labels_path, probs_path=probs_path)


def test_load_frame_thirty_sample_stack(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.random((30, 40, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 3, size=40))
    payload, labels = load_frame(entry)
    assert isinstance(payload, ProbabilityStack)
    assert payload.samples == 30
    assert len(labels) == 40


def test_load_frame_logits_with_stddev(tmp_path):
    rng = np.random.default_rng(2)
    logit_path = tmp_path / "f.logits.spt"
    sd_path = tmp_path / "f.stddev.spt"
    labels_path = tmp_path / "f.labels.spt"
    write_tensor(
        TensorContainer.from_array(rng.normal(size=(10, 4)).astype(np.float32)),
        logit_path,
    )
    write_tensor(
        TensorContainer.from_array(rng.random((10, 4)).astype(np.float32)), sd_path
    )
    write_tensor(
        TensorContainer.from_array(rng.integers(0, 4, size=10).astype(np.uint8)),
        labels_path,
    )
    entry = FrameEntry(
        labels_path=labels_path,
        logits_path=logit_path,
        stddev_path=sd_path,
        samples=5,
    )
    payload, labels = load_frame(entry)
    assert isinstance(payload, LogitTensor)
    assert payload.stddev is not None
    # a manifest line asking plain logits for samples names the frame
    plain = FrameEntry(labels_path=labels_path, logits_path=logit_path, samples=30)
    with pytest.raises(MissingStddev, match=r"^frame 0 \(f\.logits\.spt\): sampling logits"):
        evaluate_split([plain], ClassCatalog(("a", "b", "c", "d")))


def _file_digest(entry):
    h = hashlib.sha256()
    for path in entry.paths():
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_digest_describes_the_loaded_bytes(tmp_path):
    rng = np.random.default_rng(4)
    raw = rng.random((1, 50, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 3, size=50))
    before = _file_digest(entry)
    assert entry.digest() == before
    payload, _ = entry.load()
    # the probabilities are replaced after the load: the digest still names
    # the bytes that were loaded
    write_tensor(
        TensorContainer.from_array(np.full((1, 50, 3), 1 / 3, dtype=np.float32)),
        entry.probs_path,
    )
    assert entry.digest() == before
    assert payload.data.tobytes() == raw.astype(np.float32).tobytes()
    fresh = FrameEntry(labels_path=entry.labels_path, probs_path=entry.probs_path)
    assert fresh.digest() == _file_digest(fresh) != before


@pytest.mark.parametrize("samples, quantize", [(2, False), (6, True)], ids=["whole", "streamed"])
def test_pooling_reads_each_file_once(tmp_path, monkeypatch, samples, quantize):
    rng = np.random.default_rng(6)
    raw = rng.random((samples, 60, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 3, size=60), quantize=quantize)
    expected = _file_digest(entry)
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    def no_reread(self):
        raise AssertionError(f"{self} was read again")

    monkeypatch.setattr(sparseval.io, "open", counting_open, raising=False)
    monkeypatch.setattr(Path, "read_bytes", no_reread)
    split = pool_split([entry], ClassCatalog(("a", "b", "c")))
    # the labels file is opened once more, for the header that sizes the split
    assert sorted(opened) == sorted([entry.labels_path.name] + [p.name for p in entry.paths()])
    assert split.frames[0]["digest"] == expected


def test_frame_points_come_from_the_labels_header(tmp_path):
    rng = np.random.default_rng(7)
    raw = rng.random((1, 30, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 3, size=30), label_dtype=np.uint16)
    assert entry.points == 30
    # only the header is read: a payload that no longer verifies still
    # gives the size, and fails when the frame is loaded
    blob = bytearray(entry.labels_path.read_bytes())
    blob[-9] ^= 0xFF
    entry.labels_path.write_bytes(bytes(blob))
    assert entry.points == 30
    with pytest.raises(ChecksumMismatch, match=r"^frame 0 \(f\.probs\.spt\): "):
        pool_split([entry], ClassCatalog(("a", "b", "c")))


@pytest.mark.parametrize(
    "labels, error",
    [
        (b"SPARSEV2", BadMagic),
        (b"SPARSEV1\x03\x00", TruncatedFile),
        (TensorContainer.from_array(np.zeros((2, 3), dtype=np.uint8)), ShapeMismatch),
        (TensorContainer.from_array(np.zeros(3, dtype=np.float32)), ShapeMismatch),
    ],
    ids=["magic", "truncated", "rank-2", "float32"],
)
def test_unreadable_label_header_raises_the_load_error(tmp_path, labels, error):
    rng = np.random.default_rng(7)
    raw = rng.random((1, 3, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    good = _write_frame(tmp_path, raw, rng.integers(0, 3, size=3))
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    bad = _write_frame(bad_dir, raw, rng.integers(0, 3, size=3))
    if isinstance(labels, bytes):
        bad.labels_path.write_bytes(labels)
    else:
        write_tensor(labels, bad.labels_path)
    with pytest.raises(error) as loaded:
        load_frame(bad)
    with pytest.raises(error) as pooled:
        pool_split([good, bad], ClassCatalog(("a", "b", "c")))
    assert str(pooled.value) == f"frame 1 (f.probs.spt): {loaded.value}"


def test_labels_replaced_between_header_and_load_raise_shape_mismatch(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    raw = rng.random((1, 50, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 3, size=50))
    original = sparseval.io.load_frame

    def replacing_load(frame, buffers=None, **kwargs):
        # a consistent frame of 40 points replaces the 50 whose header sized the split
        _write_frame(tmp_path, raw[:, :40], rng.integers(0, 3, size=40))
        return original(frame, buffers, **kwargs)

    monkeypatch.setattr(sparseval.io, "load_frame", replacing_load)
    message = r"^frame 0 \(f\.probs\.spt\): loaded 40 points but declared 50$"
    with pytest.raises(ShapeMismatch, match=message):
        pool_split([entry], ClassCatalog(("a", "b", "c")))


def test_consecutive_loads_share_no_memory(tmp_path):
    rng = np.random.default_rng(9)
    raw = rng.random((2, 40, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 3, size=40))
    (first, first_labels), (second, second_labels) = load_frame(entry), entry.load()
    assert not np.shares_memory(first.data, second.data)
    assert not np.shares_memory(first_labels.values, second_labels.values)
    # a buffer dict is what makes loads share: the second reads into the first's bytes
    buffers = {}
    first, first_labels = load_frame(entry, buffers)
    second, second_labels = load_frame(entry, buffers)
    assert np.shares_memory(first.data, second.data)
    assert np.shares_memory(first_labels.values, second_labels.values)
    assert sorted(buffers) == ["labels", "probs"]


@pytest.mark.parametrize("samples", [5, 20], ids=["whole", "streamed"])
@pytest.mark.parametrize("threads", [1, 2])
def test_pool_split_holds_the_columns_and_one_frame_per_worker(tmp_path, threads, samples):
    # frames of uint16 stacks, loaded whole or read a sample at a time, the
    # second one larger than the first, so that a worker's buffer grows,
    # with points to drop
    rng = np.random.default_rng(10)
    k = 19
    frames = []
    for i, n in enumerate((3000, 5000, 4000, 2500)):
        entry = FrameEntry(
            labels_path=tmp_path / f"f{i}.labels.spt",
            probs_path=tmp_path / f"f{i}.probs.spt",
            samples=samples,
        )
        stack = rng.integers(1, 65536, size=(samples, n, k)).astype(np.uint16)
        write_tensor(TensorContainer.from_array(stack), entry.probs_path)
        labels = rng.integers(0, k, size=n).astype(np.uint8)
        labels[::9] = 255
        write_tensor(TensorContainer.from_array(labels), entry.labels_path)
        frames.append(entry)
    del stack
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    largest = max(sum(p.stat().st_size for p in f.paths()) for f in frames)
    # a few float64 copies of one block: the dequantised range, the
    # averaged block and the entropy's logarithms
    block = 5 * BLOCK_POINTS * k * 8
    tracemalloc.start()
    try:
        split = pool_split(frames, catalog, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(a.nbytes for a in (split.gt.values, split.pred.values))
    columns += sum(c.scores.nbytes for c in split.confidences.values())
    assert peak <= columns + threads * (largest + block)


def test_load_frame_label_length_mismatch(tmp_path):
    rng = np.random.default_rng(3)
    raw = rng.random((1, 6, 2))
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 2, size=5))
    with pytest.raises(ShapeMismatch):
        load_frame(entry)


def test_load_frame_wrong_rank(tmp_path):
    probs_path = tmp_path / "bad.spt"
    labels_path = tmp_path / "l.spt"
    write_tensor(
        TensorContainer.from_array(np.random.rand(4, 2).astype(np.float32)), probs_path
    )
    write_tensor(
        TensorContainer.from_array(np.zeros(4, dtype=np.uint8)), labels_path
    )
    with pytest.raises(ShapeMismatch):
        load_frame(FrameEntry(labels_path=labels_path, probs_path=probs_path))


def test_sample_count_must_match_file(tmp_path):
    rng = np.random.default_rng(4)
    raw = rng.random((5, 8, 2)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 2, size=8))
    bad = FrameEntry(
        labels_path=entry.labels_path, probs_path=entry.probs_path, samples=30
    )
    with pytest.raises(ShapeMismatch):
        load_frame(bad)



@pytest.mark.parametrize("samples", [2.5, 2.0, "2"])
def test_frame_entry_samples_must_be_an_integer(tmp_path, samples):
    with pytest.raises(ManifestError, match="samples must be an integer"):
        FrameEntry(labels_path=tmp_path / "l.spt", probs_path=tmp_path / "p.spt", samples=samples)
    entry = FrameEntry(
        labels_path=tmp_path / "l.spt", probs_path=tmp_path / "p.spt", samples=np.int64(2)
    )
    assert entry.samples == 2 and type(entry.samples) is int

def test_quantized_probabilities_dequantize_and_renormalize(tmp_path):
    rng = np.random.default_rng(5)
    raw = rng.random((2, 50, 4)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 4, size=50), quantize=True)
    quantized, labels = load_frame(entry)
    assert isinstance(quantized, QuantizedStack) and quantized.samples == 2
    payload = dequantize(quantized)
    catalog = ClassCatalog(("a", "b", "c", "d"))
    validate_inputs(payload, labels, catalog)
    assert np.abs(payload.data - raw).max() < 1e-3


def test_manifest_roundtrip(tmp_path):
    spec = ScenarioSpec(
        n=300,
        class_frequencies=(0.6, 0.4),
        per_class_accuracy=(0.8, 0.75),
        seed=6,
        class_names=("road", "person"),
    )
    manifest_path = write_dataset(*generate(spec), spec.catalog(), tmp_path, frames=3)
    manifest = read_manifest(manifest_path)
    assert manifest.catalog.names == ("road", "person")
    assert len(manifest.frames) == 3
    report = evaluate_split(manifest)
    assert [row.name for row in report.rows] == ["road", "person"]

    # a rewritten manifest parses identically
    other = tmp_path / "again.txt"
    write_manifest(manifest, other)
    again = read_manifest(other)
    assert again.catalog == manifest.catalog
    assert [e.samples for e in again.frames] == [e.samples for e in manifest.frames]


def test_manifest_missing_file(tmp_path):
    (tmp_path / "m.txt").write_text(
        "sparseval-manifest v1\nclasses a,b\nframe probs=nope.spt labels=also_nope.spt\n"
    )
    with pytest.raises(ManifestError, match="missing files"):
        read_manifest(tmp_path / "m.txt")


def test_manifest_header_and_key_validation(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("something else\n")
    with pytest.raises(ManifestError):
        read_manifest(path)
    path.write_text("sparseval-manifest v1\nclasses a,b\nwat 3\n")
    with pytest.raises(ManifestError, match="unknown manifest key"):
        read_manifest(path)
    path.write_text("sparseval-manifest v1\nframe probs=x labels=y\n")
    with pytest.raises(ManifestError):
        read_manifest(path)


def test_manifest_overrides_feed_config(tmp_path):
    spec = ScenarioSpec(
        n=100, class_frequencies=(0.5, 0.5), per_class_accuracy=(0.8, 0.8), seed=7
    )
    manifest_path = write_dataset(*generate(spec), spec.catalog(), tmp_path)
    text = manifest_path.read_text()
    manifest_path.write_text(
        text.replace(
            "ignore_index 255", "ignore_index 255\ngrid_steps 17\ntie_break seeded_random"
        )
    )
    manifest = read_manifest(manifest_path)
    config = manifest.apply_overrides(EvalConfig())
    assert config.grid_steps == 17
    assert config.tie_break == "seeded_random"


def _example_report(k=19, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(f"class_{i:02d}" for i in range(k))
    freq = rng.random(k) + 0.1
    spec = ScenarioSpec(
        n=8000,
        class_frequencies=tuple(freq / freq.sum()),
        per_class_accuracy=tuple(0.55 + 0.4 * rng.random(k)),
        seed=seed,
        confidence_spread=0.2,
    )
    gt, probs = generate(spec)
    catalog = ClassCatalog(names)
    return evaluate_split([ArrayFrame(gt, probs)], catalog)


def _hand_report():
    """A report built by hand: a present class, an absent one and a filtered
    one under two measures, every float written out as a literal."""
    return EvalReport(
        class_names=("road", "sign", "rider"),
        ignore_index=255,
        measures=("max_softmax", "neg_entropy"),
        rows=[
            ClassRow("road", 0, 0.75, {"max_softmax": 0.125, "neg_entropy": 0.1}, 12),
            ClassRow("sign", 1, None, {"max_softmax": None, "neg_entropy": None}, 0, True),
            ClassRow("rider", 2, 0.01, {"max_softmax": 0.5, "neg_entropy": 0.0625}, 3, True),
        ],
        overall_ause={"max_softmax": 0.3125, "neg_entropy": 0.08125},
        filtered_ause={"max_softmax": 0.125, "neg_entropy": 0.1},
        miou_present=0.38,
        miou_all_classes=0.25333333333333335,
        ece=0.2,
        filter_threshold=0.03,
        confusion_counts=[[9, 0, 1], [0, 0, 0], [2, 0, 0]],
        provenance={"frames": [{"name": "f0", "digest": "ab"}], "points_evaluated": 12},
    )


HAND_REPORT_JSON = """\
{
  "format": "sparseval-report-v1",
  "catalog": {
    "names": [
      "road",
      "sign",
      "rider"
    ],
    "ignore_index": 255
  },
  "measures": [
    "max_softmax",
    "neg_entropy"
  ],
  "classes": [
    {
      "name": "road",
      "index": 0,
      "iou": 0.75,
      "ause": {
        "max_softmax": 0.125,
        "neg_entropy": 0.1
      },
      "relevant_count": 12,
      "filtered": false
    },
    {
      "name": "sign",
      "index": 1,
      "iou": null,
      "ause": {
        "max_softmax": null,
        "neg_entropy": null
      },
      "relevant_count": 0,
      "filtered": true
    },
    {
      "name": "rider",
      "index": 2,
      "iou": 0.01,
      "ause": {
        "max_softmax": 0.5,
        "neg_entropy": 0.0625
      },
      "relevant_count": 3,
      "filtered": true
    }
  ],
  "aggregates": {
    "overall_ause": {
      "max_softmax": 0.3125,
      "neg_entropy": 0.08125
    },
    "filtered_ause": {
      "max_softmax": 0.125,
      "neg_entropy": 0.1
    },
    "miou_present": 0.38,
    "miou_all_classes": 0.25333333333333335,
    "ece": 0.2,
    "filter_threshold": 0.03
  },
  "confusion_counts": [
    [
      9,
      0,
      1
    ],
    [
      0,
      0,
      0
    ],
    [
      2,
      0,
      0
    ]
  ],
  "scatter": {
    "threshold": 0.03,
    "points": {
      "max_softmax": [
        [
          "road",
          0.75,
          0.125
        ],
        [
          "rider",
          0.01,
          0.5
        ]
      ],
      "neg_entropy": [
        [
          "road",
          0.75,
          0.1
        ],
        [
          "rider",
          0.01,
          0.0625
        ]
      ]
    }
  },
  "provenance": {
    "frames": [
      {
        "name": "f0",
        "digest": "ab"
      }
    ],
    "points_evaluated": 12
  }
}
"""

HAND_REPORT_CSV = """\
class,iou,ause_max_softmax,ause_neg_entropy,filtered,relevant_count\r
road,0.75,0.125,0.1,false,12\r
sign,,,,true,0\r
rider,0.01,0.5,0.0625,true,3\r
all,0.25333333333333335,0.3125,0.08125,,15\r
all (filtered),0.75,0.125,0.1,,12\r
"""

HAND_SCATTER_CSV = """\
measure,class,iou,ause,filter_threshold\r
max_softmax,road,0.75,0.125,0.03\r
max_softmax,rider,0.01,0.5,0.03\r
neg_entropy,road,0.75,0.1,0.03\r
neg_entropy,rider,0.01,0.0625,0.03\r
"""


def test_hand_built_report_files_keep_their_text(tmp_path):
    report = _hand_report()
    written = write_report(report, tmp_path)
    write_scatter_csv(report, tmp_path / "scatter.csv")
    assert written["json"].read_bytes().decode() == HAND_REPORT_JSON
    assert written["csv"].read_bytes().decode() == HAND_REPORT_CSV
    assert (tmp_path / "scatter.csv").read_bytes().decode() == HAND_SCATTER_CSV


def test_numpy_scalar_settings_write_a_plain_report(tmp_path):
    gt, probs = generate(
        ScenarioSpec(n=400, class_frequencies=(0.5, 0.5), per_class_accuracy=(0.8, 0.7))
    )
    config = EvalConfig(grid_steps=np.int64(50), iou_filter_threshold=np.float32(0.25))
    catalog = ClassCatalog(("a", "b"), ignore_index=np.int64(255))
    report = evaluate_split([ArrayFrame(gt, probs)], catalog, config)
    written = write_report(report, tmp_path, formats=("json",))
    provenance = json.loads(written["json"].read_text())["provenance"]
    assert provenance["config"]["grid_steps"] == 50
    assert provenance["config"]["iou_filter_threshold"] == float(np.float32(0.25))
    assert provenance["catalog"]["ignore_index"] == 255
    settings = [*report.provenance["config"].values(), report.provenance["catalog"]["ignore_index"]]
    assert {type(v) for v in settings} == {int, float, str}


def test_write_report_layout(tmp_path):
    report = _example_report()
    written = write_report(report, tmp_path)
    lines = written["csv"].read_text().strip().splitlines()
    assert lines[0] == (
        "class,iou,ause_max_softmax,ause_neg_entropy,filtered,relevant_count"
    )
    assert len(lines) == 1 + 19 + 2
    assert lines[-2].startswith("all,")
    assert lines[-1].startswith("all (filtered),")
    assert written["json"].exists()


def test_report_json_roundtrip(tmp_path):
    for i, report in enumerate([_example_report(), _hand_report()]):
        written = write_report(report, tmp_path / str(i), formats=("json",))
        back = read_report(written["json"])
        assert back == report


def test_empty_report_never_writes(tmp_path):
    report = _example_report()
    report.rows = []
    with pytest.raises(ValueError):
        write_report(report, tmp_path)
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "report.csv").exists()


def test_scatter_csv(tmp_path):
    report = _example_report()
    path = write_scatter_csv(report, tmp_path / "scatter.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "measure,class,iou,ause,filter_threshold"
    # with this seed every one of the 19 classes is present, so each measure
    # contributes one pair per class
    assert len(lines) == 1 + 19 * 2
    assert all(ln.endswith(",0.03") for ln in lines[1:])


def _no_space(src, dst):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_tensor_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "x.spt"
    write_tensor(TensorContainer.from_array(np.arange(6, dtype=np.uint8)), path)
    before = path.read_bytes()
    monkeypatch.setattr(os, "replace", _no_space)
    with pytest.raises(IoFailure, match="No space left"):
        write_tensor(TensorContainer.from_array(np.arange(9, dtype=np.uint8)), path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.spt"]
    assert path.read_bytes() == before


@pytest.mark.parametrize("fault", ["replace", "dump"])
def test_failed_report_write_keeps_the_earlier_report(tmp_path, monkeypatch, fault):
    report = _hand_report()
    write_report(report, tmp_path)
    write_scatter_csv(report, tmp_path / "scatter.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if fault == "replace":
        monkeypatch.setattr(os, "replace", _no_space)
        error = IoFailure
    else:
        def failing_dump(obj, fh, **kwargs):
            fh.write('{\n  "format": "sparseval-report-v1",\n')
            raise TypeError("Object of type float32 is not JSON serializable")

        monkeypatch.setattr(json, "dump", failing_dump)
        error = TypeError
    with pytest.raises(error):
        write_report(report, tmp_path)
    if fault == "replace":
        with pytest.raises(IoFailure):
            write_scatter_csv(report, tmp_path / "scatter.csv")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class _FullDisk:
    """An open file whose writes stop halfway with ENOSPC."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_manifest_write_keeps_the_earlier_manifest(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    raw = rng.random((1, 5, 3)) + 1e-3
    entry = _write_frame(tmp_path, raw / raw.sum(axis=2, keepdims=True), np.zeros(5))
    path = tmp_path / "manifest.txt"
    write_manifest(Manifest(ClassCatalog(("a", "b", "c")), (entry,), {}), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(
        sparseval.io, "open", lambda *args, **kwargs: _FullDisk(open(*args, **kwargs)),
        raising=False,
    )
    with pytest.raises(IoFailure) as caught:
        write_manifest(Manifest(ClassCatalog(("x", "y", "z")), (entry,), {}), path)
    full = OSError(errno.ENOSPC, "No space left on device")
    assert str(caught.value) == f"cannot write {path}: {full}"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_an_unreadable_report_is_io_failure(tmp_path, monkeypatch):
    path = write_report(_hand_report(), tmp_path)["json"]

    def denying(file, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(file))

    monkeypatch.setattr(sparseval.io, "open", denying, raising=False)
    with pytest.raises(IoFailure) as caught:
        read_report(path)
    denied = PermissionError(errno.EACCES, "Permission denied", str(path))
    assert str(caught.value) == f"cannot read {path}: {denied}"


def test_corrupted_containers_are_rejected_with_exact_classes(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "t.spt"
    for trial in range(40):
        shape = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        arr = (rng.random(shape) * 100).astype(np.float32)
        write_tensor(TensorContainer.from_array(arr), path)
        blob = bytearray(path.read_bytes())
        mode = trial % 4
        if mode == 0:
            pos = int(rng.integers(0, 8))
            blob[pos] ^= int(rng.integers(1, 256))
            expected = BadMagic
        elif mode == 1:
            header = 16 + 4 * arr.ndim
            pos = int(rng.integers(header, len(blob) - 8))
            blob[pos] ^= int(rng.integers(1, 256))
            expected = ChecksumMismatch
        elif mode == 2:
            pos = int(rng.integers(len(blob) - 8, len(blob)))
            blob[pos] ^= int(rng.integers(1, 256))
            expected = ChecksumMismatch
        else:
            blob = blob[: int(rng.integers(0, len(blob)))]
            expected = TruncatedFile
        path.write_bytes(bytes(blob))
        with pytest.raises(expected):
            read_tensor(path)


def _reference_parse(blob: bytes, path) -> np.ndarray:
    """The array of a container file's bytes, or the error a reader raises
    for them, checked in the order docs/tensor_format.md gives."""

    def need(end, what):
        if len(blob) < end:
            raise TruncatedFile(f"file ends inside the {what}")

    need(8, "magic")
    if blob[:8] != b"SPARSEV1":
        raise BadMagic(f"{path} does not start with {b'SPARSEV1'!r}")
    need(16, "header")
    tag, rank = struct.unpack_from("<II", blob, 8)
    dtype = {1: np.dtype("<f4"), 2: np.dtype("u1"), 3: np.dtype("<u2")}.get(tag)
    if dtype is None:
        raise BadHeader(f"unknown dtype tag {tag}")
    if not 1 <= rank <= 8:
        raise BadHeader(f"rank {rank} outside 1..8")
    start = 16 + 4 * rank
    need(start, "dimensions")
    dims = struct.unpack_from(f"<{rank}I", blob, 16)
    if 0 in dims:
        raise BadHeader(f"zero-sized dimension in {dims}")
    if math.prod(dims) > 1 << 40:
        raise BadHeader(f"element count {math.prod(dims)} is implausibly large")
    end = start + math.prod(dims) * dtype.itemsize
    need(end, "payload")
    need(end + 8, "checksum")
    if len(blob) > end + 8:
        raise BadHeader(f"{path} carries trailing bytes past the checksum")
    if hashlib.blake2b(blob[start:end], digest_size=8).digest() != blob[end:]:
        raise ChecksumMismatch(f"payload checksum of {path} does not verify")
    return np.frombuffer(blob[start:end], dtype).reshape(dims)


def _outcome(call):
    try:
        return call()
    except SparsevalError as exc:
        return type(exc), str(exc)


# uint16 stacks of 5 and 6 samples and float32 stacks of 3 and 4 sit on both
# sides of the count from which a stack is read a sample at a time
_CUT_OVER = [(3, (5, 7, 3)), (3, (6, 7, 3)), (1, (3, 7, 3)), (1, (4, 7, 3))]
_CONTAINERS = st.one_of(
    st.sampled_from(_CUT_OVER),
    st.tuples(st.sampled_from([1, 2, 3]), st.lists(st.integers(1, 4), min_size=1, max_size=3)),
)
_CORRUPTIONS = [
    "intact", "truncate", "append", "flip-payload", "flip-checksum",
    "magic", "tag", "rank", "zero-dim",
]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    container=_CONTAINERS,
    corruption=st.sampled_from(_CORRUPTIONS),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_whole_and_streamed_loads_match_a_reference_parser(
    tmp_path_factory, container, corruption, seed, data
):
    tag, shape = container
    rng = np.random.default_rng(seed)
    if tag == 1:
        arr = rng.random(shape).astype(np.float32)
    else:
        arr = rng.integers(0, 256 if tag == 2 else 65536, size=shape, dtype=f"u{tag - 1}")
    directory = tmp_path_factory.mktemp("frame")
    entry = FrameEntry(labels_path=directory / "f.labels.spt", probs_path=directory / "f.probs.spt")
    stored_labels = rng.integers(0, 3, size=shape[1] if len(shape) == 3 else 7, dtype=np.uint8)
    write_tensor(TensorContainer.from_array(stored_labels), entry.labels_path)
    write_tensor(TensorContainer.from_array(arr), entry.probs_path)
    blob = bytearray(entry.probs_path.read_bytes())
    start = 16 + 4 * len(shape)
    flip = data.draw(st.integers(1, 255))
    if corruption == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif corruption == "append":
        blob.append(data.draw(st.integers(0, 255)))
    elif corruption == "flip-payload":
        blob[data.draw(st.integers(start, len(blob) - 9))] ^= flip
    elif corruption == "flip-checksum":
        blob[data.draw(st.integers(len(blob) - 8, len(blob) - 1))] ^= flip
    elif corruption == "magic":
        blob[data.draw(st.integers(0, 7))] ^= flip
    elif corruption == "tag":
        struct.pack_into("<I", blob, 8, data.draw(st.integers(0, 5).filter(lambda t: t != tag)))
    elif corruption == "rank":
        rank = data.draw(st.integers(0, 10).filter(lambda r: r != len(shape)))
        struct.pack_into("<I", blob, 12, rank)
    elif corruption == "zero-dim":
        struct.pack_into("<I", blob, 16 + 4 * data.draw(st.integers(0, len(shape) - 1)), 0)
    entry.probs_path.write_bytes(bytes(blob))
    expected = _outcome(lambda: _reference_parse(bytes(blob), entry.probs_path))

    whole_entry, streamed_entry = dataclasses.replace(entry), dataclasses.replace(entry)
    whole = _outcome(lambda: load_frame(whole_entry))
    streamed = _outcome(lambda: load_frame(streamed_entry, {}))
    if isinstance(expected, tuple):
        assert whole == streamed == expected
        return
    if len(shape) != 3 or tag == 2:
        # a container that verifies but cannot hold probabilities
        assert whole == streamed and whole[0] is ShapeMismatch
        return
    payload, labels = whole
    streamed_payload, streamed_labels = streamed
    samples, itemsize = shape[0], 4 if tag == 1 else 2
    try:
        means = [block.tobytes() for _, block in predictive_blocks(payload)]
    except NotADistribution:
        means = None  # a stack with a fault is read again whole
    streams = samples * itemsize > itemsize + 8 and means is not None
    assert isinstance(streamed_payload, StreamedMean) == streams
    assert np.array_equal(labels.values, stored_labels)
    assert np.array_equal(streamed_labels.values, stored_labels)
    assert payload.data.tobytes() == expected.tobytes()
    if streams:
        assert [block.tobytes() for _, block in streamed_payload.blocks()] == means
    else:
        assert streamed_payload.data.tobytes() == expected.tobytes()
    h = hashlib.sha256()
    for path in (entry.probs_path, entry.labels_path):
        h.update(path.name.encode() + path.read_bytes())
    assert whole_entry.digest() == streamed_entry.digest() == h.hexdigest()


@pytest.mark.parametrize("fault", ["labels", "probs", "removed"])
def test_an_unreadable_frame_file_is_an_input_error(tmp_path, monkeypatch, capsys, fault):
    rng = np.random.default_rng(11)
    raw = rng.random((6, 40, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 3, size=40), quantize=True)
    manifest = tmp_path / "manifest.txt"
    write_manifest(Manifest(ClassCatalog(("a", "b", "c")), (entry,), {}), manifest)
    path = entry.labels_path if fault == "labels" else entry.probs_path
    if fault == "removed":
        # the file disappears between the manifest's check and the load
        original = sparseval.io.read_manifest

        def removing(*args):
            read = original(*args)
            path.unlink()
            return read

        monkeypatch.setattr(sparseval.io, "read_manifest", removing)
    else:
        # file modes do not stop root, so the refusal is simulated

        def denying(file, *args, **kwargs):
            if Path(file) == path:
                raise PermissionError(errno.EACCES, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(sparseval.io, "open", denying, raising=False)
    out = tmp_path / "out"
    assert main(["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"sparseval: error: IoFailure: frame 0 (f.probs.spt): cannot read {path}: "
    )
    assert not out.exists()


def test_an_unreadable_file_fails_the_digest_as_io_failure(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    raw = rng.random((1, 5, 3)) + 1e-3
    entry = _write_frame(tmp_path, raw / raw.sum(axis=2, keepdims=True), np.zeros(5))

    def failing(file, *args, **kwargs):
        raise OSError(errno.EIO, "Input/output error", str(file))

    monkeypatch.setattr(sparseval.io, "open", failing, raising=False)
    with pytest.raises(IoFailure, match=f"^cannot read {entry.probs_path}: "):
        entry.digest()


def test_a_digest_before_a_load_verifies_the_files(tmp_path):
    rng = np.random.default_rng(13)
    raw = rng.random((1, 5, 3)) + 1e-3
    entry = _write_frame(tmp_path, raw / raw.sum(axis=2, keepdims=True), np.zeros(5))
    blob = bytearray(entry.probs_path.read_bytes())
    blob[-9] ^= 0xFF
    entry.probs_path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch, match=f"^payload checksum of {entry.probs_path} "):
        entry.digest()


def test_a_logits_frame_digest_is_the_same_before_and_after_a_load(tmp_path):
    rng = np.random.default_rng(14)
    arrays = {
        "logits": rng.normal(size=(10, 4)).astype(np.float32),
        "stddev": rng.random((10, 4)).astype(np.float32),
        "labels": rng.integers(0, 4, 10).astype(np.uint8),
    }
    paths = {f"{key}_path": tmp_path / f"f.{key}.spt" for key in arrays}
    for key, arr in arrays.items():
        write_tensor(TensorContainer.from_array(arr), paths[f"{key}_path"])
    before = FrameEntry(**paths).digest()
    loaded = FrameEntry(**paths)
    loaded.load()
    assert before == loaded.digest() == _file_digest(loaded)


@pytest.mark.parametrize(
    "line, key",
    [
        ("grid_steps ten", "grid_steps"),
        ("grid_steps 1", "grid_steps"),
        ("iou_filter_threshold nan", "iou_filter_threshold"),
        ("ranking_domain everywhere", "ranking_domain"),
        ("ignore_index x", "ignore_index"),
        ("frame probs=p.spt labels=l.spt samples=x", "samples"),
    ],
)
def test_bad_manifest_value_raises_manifest_error(tmp_path, line, key):
    path = tmp_path / "m.txt"
    path.write_text(f"sparseval-manifest v1\nclasses a,b\n{line}\n")
    with pytest.raises(ManifestError) as caught:
        read_manifest(path)
    assert str(path) in str(caught.value) and key in str(caught.value)


def _manifest_with(tmp_path, overrides, names=("a", "b"), labels="l.spt"):
    frame = FrameEntry(labels_path=tmp_path / labels, probs_path=tmp_path / "p.spt")
    return Manifest(ClassCatalog(names), (frame,), overrides)


@pytest.mark.parametrize(
    "names, overrides, labels, message",
    [
        (("a,b", "c"), {}, "l.spt", "class name 'a,b' cannot be stored in a manifest"),
        (("a", "b"), {"bogus": 1}, "l.spt", "unknown config override 'bogus'"),
        (("a", "b"), {}, "my l.spt", "manifest paths cannot contain spaces"),
        (("a", "b"), {}, "l\n#.spt", "manifest paths cannot contain whitespace"),
        (("a", "b"), {}, "l\r#.spt", "manifest paths cannot contain whitespace"),
        (("a", "b"), {}, "l\t.spt", "manifest paths cannot contain whitespace"),
        ((" a", "b"), {}, "l.spt", "class name ' a' cannot be stored in a manifest"),
        (("a ", "b"), {}, "l.spt", "class name 'a ' cannot be stored in a manifest"),
        (("a\r", "b"), {}, "l.spt", "class name 'a\\r' cannot be stored in a manifest"),
        (("a\nb", "c"), {}, "l.spt", "class name 'a\\nb' cannot be stored in a manifest"),
        (("a\x1cb", "c"), {}, "l.spt", "class name 'a\\x1cb' cannot be stored in a manifest"),
        (
            ("a", "b"),
            {"tie_break": "stable_index\nframe labels=l.spt probs=p.spt"},
            "l.spt",
            "{path}: tie_break: tie_break must be one of ('stable_index', 'seeded_random')",
        ),
        (("a", "b"), {"grid_steps": 1}, "l.spt", "{path}: grid_steps: grid_steps must be at least 2"),
        (("a", "b"), {"grid_steps": 50.0}, "l.spt", "{path}: grid_steps: invalid int value: '50.0'"),
    ],
    ids=[
        "comma", "unknown key", "space", "newline path", "carriage return path", "tab path",
        "leading space", "trailing space", "carriage return", "newline", "file separator",
        "two lines", "grid_steps 1", "float grid_steps",
    ],
)
def test_write_manifest_rejects_what_the_reader_would_read_otherwise(
    tmp_path, names, overrides, labels, message
):
    # an override is checked as read_manifest will read it, so no value
    # writes a manifest that fails to read or that adds a frame
    path = tmp_path / "m.txt"
    with pytest.raises(ManifestError) as caught:
        write_manifest(_manifest_with(tmp_path, overrides, names, labels), path)
    assert str(caught.value) == message.format(path=path)
    assert not path.exists()


def test_manifest_overrides_survive_a_write_and_a_read(tmp_path):
    overrides = {
        "grid_steps": 50,
        "iou_filter_threshold": 0.125,
        "ece_bins": 7,
        "tie_break": "seeded_random",
        "rng_seed": 3,
        "ranking_domain": "global",
    }
    manifest = _manifest_with(tmp_path, overrides)
    for name in ("l.spt", "p.spt"):
        (tmp_path / name).write_bytes(b"")
    write_manifest(manifest, tmp_path / "m.txt")
    again = read_manifest(tmp_path / "m.txt")
    assert again.overrides == overrides
    assert list(again.overrides) == list(overrides)
    assert again.apply_overrides(EvalConfig()) == EvalConfig(**overrides)


def test_class_names_with_inner_whitespace_survive_a_write_and_a_read(tmp_path):
    # only a name's ends are stripped, and only line breaks split a line
    names = ("terrain low", "a\tb", "c")
    for name in ("l.spt", "p.spt"):
        (tmp_path / name).write_bytes(b"")
    write_manifest(_manifest_with(tmp_path, {}, names), tmp_path / "m.txt")
    assert read_manifest(tmp_path / "m.txt").catalog.names == names


@pytest.mark.parametrize(
    "lines, message",
    [
        (["classes c,d"], "repeated manifest key 'classes' in {path}"),
        (["ignore_index 7"], "repeated manifest key 'ignore_index' in {path}"),
        (["grid_steps 20", "grid_steps 30"], "repeated manifest key 'grid_steps' in {path}"),
        (["frame labels=l.spt probs=p.spt labels=m.spt"], "repeated frame key 'labels' in {path}"),
    ],
    ids=["classes", "ignore_index", "override", "frame token"],
)
def test_read_manifest_rejects_a_repeated_key(tmp_path, lines, message):
    # the last copy used to win silently
    path = tmp_path / "m.txt"
    for name in ("l.spt", "m.spt", "p.spt"):
        (tmp_path / name).write_bytes(b"")
    body = "\n".join(["classes a,b", "ignore_index 255", *lines])
    path.write_text(f"sparseval-manifest v1\n{body}\n")
    with pytest.raises(ManifestError) as caught:
        read_manifest(path)
    assert str(caught.value) == message.format(path=path)


def _reference_dequantized(raw):
    # the whole-stack float32 copy, float64 quotient and float32 cast that
    # the block-wise dequantisation replaces
    scaled = raw.astype(np.float32) / np.float32(65535.0)
    sums = scaled.sum(axis=2, keepdims=True, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return (scaled / sums).astype(np.float32)


def test_dequantize_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    raw = rng.integers(0, 65536, size=(3, 500, 19)).astype(np.uint16)
    raw[1, 7] = 0  # an all-zero row: 0/0 gives NaN on both paths
    out = dequantize(QuantizedStack(raw)).data
    assert out.dtype == np.float32
    assert np.isnan(out[1, 7]).all()
    assert out.tobytes() == _reference_dequantized(raw).tobytes()


def test_every_scaled_code_is_a_multiple_of_two_to_the_minus_32():
    # why a quantised row's float64 sum is exact in any order: at most 1 per
    # class in steps of 2^-32, so a sum over up to 2^21 classes never rounds
    scaled = np.arange(65536).astype(np.float32) / np.float32(65535.0)
    units = scaled.astype(np.float64) * 2.0**32
    assert np.array_equal(units, np.floor(units)) and scaled.max() == 1.0


def test_dequantize_peak_stays_near_the_result():
    raw = np.random.default_rng(13).integers(0, 65536, (20, 5000, 19)).astype(np.uint16)
    tracemalloc.start()
    try:
        out = dequantize(QuantizedStack(raw)).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes


def _quantized_stack_and_mean(samples, zero_rows=()):
    # 4200 points are a multiple of neither BLOCK_POINTS nor the range
    # length BLOCK_POINTS // samples, so ranges of every length are met
    points = 4200
    assert points % BLOCK_POINTS and points % (BLOCK_POINTS // samples)
    rng = np.random.default_rng(samples)
    raw = rng.integers(0, 65536, size=(samples, points, 19)).astype(np.uint16)
    raw[samples - 1, list(zero_rows)] = 0
    stack = QuantizedStack(raw)
    reference = _reference_dequantized(raw)
    mean = reference.mean(axis=0, dtype=np.float64).astype(np.float32)[None]
    assert dequantize(stack).data.tobytes() == reference.tobytes()
    assert aggregate_samples(stack).data.tobytes() == mean.tobytes()
    return stack, mean


@pytest.mark.parametrize("samples", [1, 2, 20])
def test_quantized_block_means_match_the_whole_stack_rule(samples):
    stack, mean = _quantized_stack_and_mean(samples)
    blocks = list(predictive_blocks(stack))
    assert [lo for lo, _ in blocks] == list(range(0, stack.points, BLOCK_POINTS))
    streamed = np.concatenate([b for _, b in blocks], axis=1)
    assert streamed.dtype == np.float32 and streamed.tobytes() == mean.tobytes()


@pytest.mark.parametrize("samples", [1, 2, 20])
def test_quantized_zero_rows_are_nan_in_the_whole_stack_and_raise_in_blocks(samples):
    rows = [0, 2047, 2048, 4199]
    stack, mean = _quantized_stack_and_mean(samples, rows)
    assert np.isnan(dequantize(stack).data[samples - 1, rows]).all()
    assert np.isnan(mean[0, rows]).all()
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(19)))
    gt = LabelArray(np.zeros(stack.points, dtype=np.uint8))
    with pytest.raises(NotADistribution) as whole:
        validate_inputs(dequantize(stack), gt, catalog)
    assert str(whole.value) == f"row sum nan at sample {samples - 1}, point 0"
    with pytest.raises(NotADistribution) as blocked:
        list(predictive_blocks(stack))
    assert str(blocked.value) == str(whole.value)


def test_quantized_zero_row_raises_like_validate_inputs_on_the_dequantized_stack(tmp_path):
    rng = np.random.default_rng(18)
    raw = rng.random((3, BLOCK_POINTS + 40, 4)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    raw[1, BLOCK_POINTS + 9] = 0.0  # quantised to an all-zero row of sample 1
    entry = _write_frame(tmp_path, raw, rng.integers(0, 4, size=raw.shape[1]), quantize=True)
    catalog = ClassCatalog(("a", "b", "c", "d"))
    quantized, labels = load_frame(entry)
    with pytest.raises(NotADistribution) as direct:
        validate_inputs(dequantize(quantized), labels, catalog)
    assert str(direct.value) == f"row sum nan at sample 1, point {BLOCK_POINTS + 9}"
    with pytest.raises(NotADistribution) as raised:
        evaluate_split([entry], catalog)
    assert str(raised.value) == f"frame 0 (f.probs.spt): {direct.value}"


def test_quantized_frame_reduction_holds_the_file_and_one_block(tmp_path):
    # a stack of 5 samples is loaded whole; a full-frame float32 copy of it
    # alone would be 2x the file bytes
    rng = np.random.default_rng(17)
    n, k = 20000, 19
    entry = FrameEntry(
        labels_path=tmp_path / "q.labels.spt", probs_path=tmp_path / "q.probs.spt", samples=5
    )
    raw = rng.integers(1, 65536, size=(5, n, k)).astype(np.uint16)
    write_tensor(TensorContainer.from_array(raw), entry.probs_path)
    labels = rng.integers(0, k, n).astype(np.uint8)
    write_tensor(TensorContainer.from_array(labels), entry.labels_path)
    del raw
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    file_bytes = sum(p.stat().st_size for p in entry.paths())
    pred, scores = score_columns(n, MEASURES, k)
    columns = {"gt": np.empty(n, dtype=np.uint8), "pred": pred, **scores}
    tracemalloc.start()
    try:
        _reduce_frame(entry, 0, catalog, EvalConfig(), columns, 0, n, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few float64 copies of one block, as the pooling bound allows
    assert peak < file_bytes + 5 * BLOCK_POINTS * k * 8


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_load_frame_keeps_the_stored_label_width(tmp_path, dtype):
    rng = np.random.default_rng(14)
    raw = rng.random((1, 30, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    entry = _write_frame(tmp_path, raw, rng.integers(0, 3, size=30), label_dtype=dtype)
    _, labels = load_frame(entry)
    assert labels.values.dtype == dtype


@pytest.mark.parametrize(
    "dtype, ignore_index",
    [(np.uint8, 255), (np.uint8, -1), (np.uint16, 255), (np.uint16, 1000)],
)
def test_stored_label_width_never_changes_the_report(tmp_path, dtype, ignore_index):
    spec = ScenarioSpec(
        n=3000,
        class_frequencies=(0.6, 0.3, 0.1),
        per_class_accuracy=(0.8, 0.7, 0.6),
        seed=15,
        confidence_spread=0.2,
    )
    gt, probs = generate(spec)
    labels = gt.values.copy()
    if ignore_index >= 0:
        labels[np.random.default_rng(15).random(labels.size) < 0.1] = ignore_index
    entry = _write_frame(tmp_path, probs.data, labels, label_dtype=dtype)
    catalog = ClassCatalog(("a", "b", "c"), ignore_index)
    stored = evaluate_split([entry], catalog)
    wide = evaluate_split([ArrayFrame(LabelArray(labels.astype(np.int64)), probs)], catalog)
    stored.provenance = wide.provenance = {}
    assert stored == wide
