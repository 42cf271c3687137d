"""Manifest frames whose probability stacks are read one sample at a time.

A stack whose samples take more bytes per point than one sample plus a
float64 sum (6 or more uint16 samples, 4 or more float32 ones) is summed
sample by sample as it is read; every other frame is loaded whole. Both
ways must give the same reports and the same errors.
"""
import dataclasses
import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from sparseval import (
    ArrayFrame,
    ClassCatalog,
    EvalConfig,
    FrameEntry,
    LabelArray,
    Manifest,
    ProbabilityStack,
    QuantizedStack,
    TensorContainer,
    aggregate_samples,
    dequantize,
    evaluate_split,
    io,
    pool_split,
    read_manifest,
    write_manifest,
    write_report,
    write_tensor,
)
from sparseval.cli import EXIT_INPUT, main
from sparseval.confidence import StreamedMean, predictive_blocks, score_columns
from sparseval.core import BLOCK_POINTS, MEASURES
from sparseval.errors import (
    BadHeader,
    ChecksumMismatch,
    NotADistribution,
    ShapeMismatch,
    SparsevalError,
    TruncatedFile,
)
from sparseval.pipeline import _reduce_frame


def _stack(rng, samples, points, classes, dtype):
    p = rng.random((samples, points, classes)) + 1e-3
    p /= p.sum(axis=2, keepdims=True)
    if dtype == np.uint16:
        return np.rint(p * 65535.0).astype(np.uint16)
    return p.astype(np.float32)


def _write(directory, catalog, stacks, labels, samples=None):
    """A manifest of one frame per stack; returns its path."""
    frames = []
    for i, (stack, lab) in enumerate(zip(stacks, labels)):
        entry = FrameEntry(
            labels_path=directory / f"f{i}.labels.spt",
            probs_path=directory / f"f{i}.probs.spt",
            samples=stack.shape[0] if samples is None else samples,
        )
        write_tensor(TensorContainer.from_array(stack), entry.probs_path)
        write_tensor(TensorContainer.from_array(lab), entry.labels_path)
        frames.append(entry)
    path = directory / "manifest.txt"
    write_manifest(Manifest(catalog, tuple(frames), {}), path)
    return path


def _in_memory(stacks, labels):
    frames = []
    for stack, lab in zip(stacks, labels):
        if stack.dtype == np.uint16:
            probs = dequantize(QuantizedStack(stack))
        else:
            probs = ProbabilityStack(stack)
        frames.append(ArrayFrame(LabelArray(lab), probs, samples=stack.shape[0]))
    return frames


def _numbers(report):
    return {k: v for k, v in dataclasses.asdict(report).items() if k != "provenance"}


def _assert_reports_alike(manifest_path, stacks, labels, catalog):
    expected = _numbers(evaluate_split(_in_memory(stacks, labels), catalog))
    for threads in (1, 2, 3):
        report = evaluate_split(read_manifest(manifest_path), threads=threads)
        assert _numbers(report) == expected


CASES = [(np.uint16, s) for s in (1, 2, 5, 6, 20)] + [(np.float32, s) for s in (1, 3, 4, 7)]


@pytest.mark.parametrize("dtype, samples", CASES, ids=[f"{d.__name__}-{s}" for d, s in CASES])
def test_manifest_stacks_report_as_in_memory_stacks(tmp_path, dtype, samples):
    rng = np.random.default_rng(samples)
    k = 5
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    sizes = (BLOCK_POINTS + 300, 700, 2 * BLOCK_POINTS + 1)
    stacks = [_stack(rng, samples, n, k, dtype) for n in sizes]
    labels = [rng.integers(0, k, n).astype(np.uint8) for n in sizes]
    _assert_reports_alike(_write(tmp_path, catalog, stacks, labels), stacks, labels, catalog)


def test_streamed_stacks_with_ignored_points_report_as_in_memory(tmp_path):
    rng = np.random.default_rng(30)
    k = 4
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    sizes = (BLOCK_POINTS + 77, 500, 900)
    stacks = [_stack(rng, 6, n, k, np.uint16) for n in sizes]
    labels = [rng.integers(0, k, n).astype(np.uint8) for n in sizes]
    labels[0][::7] = 255
    labels[1][:] = 255  # a frame with every point ignored
    _assert_reports_alike(_write(tmp_path, catalog, stacks, labels), stacks, labels, catalog)


def test_streamed_stacks_of_300_classes_report_as_in_memory(tmp_path):
    rng = np.random.default_rng(31)
    k = 300
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)), ignore_index=1000)
    sizes = (BLOCK_POINTS + 10, 500)
    stacks = [_stack(rng, 6, n, k, np.uint16) for n in sizes]
    labels = [rng.integers(0, k, n).astype(np.uint16) for n in sizes]
    labels[1][::5] = 1000
    _assert_reports_alike(_write(tmp_path, catalog, stacks, labels), stacks, labels, catalog)


THRESHOLDS = [
    (np.uint16, 5, False),
    (np.uint16, 6, True),
    (np.float32, 3, False),
    (np.float32, 4, True),
]


@pytest.mark.parametrize(
    "dtype, samples, streamed", THRESHOLDS, ids=[f"{d.__name__}-{s}" for d, s, _ in THRESHOLDS]
)
def test_stacks_of_many_samples_are_not_loaded_whole(
    tmp_path, monkeypatch, dtype, samples, streamed
):
    rng = np.random.default_rng(32)
    catalog = ClassCatalog(("a", "b", "c"))
    stacks = [_stack(rng, samples, n, 3, dtype) for n in (300, 200)]
    labels = [rng.integers(0, 3, n).astype(np.uint8) for n in (300, 200)]
    manifest = read_manifest(_write(tmp_path, catalog, stacks, labels))
    loads = []
    original = io.load_frame

    def counting_load(entry, buffers=None):
        payload, labels = original(entry, buffers)
        if not isinstance(payload, StreamedMean):
            loads.append(entry.name)
        return payload, labels

    monkeypatch.setattr(io, "load_frame", counting_load)
    evaluate_split(manifest, threads=2)
    assert sorted(loads) == ([] if streamed else ["f0.probs.spt", "f1.probs.spt"])


@pytest.mark.parametrize("dtype, samples", [(np.uint16, 5), (np.float32, 3)])
def test_a_streaming_load_returns_a_stack_of_few_samples_whole(tmp_path, dtype, samples):
    stack = _stack(np.random.default_rng(41), samples, BLOCK_POINTS + 50, 3, dtype)
    entry = read_manifest(_one_frame(tmp_path, stack)).frames[0]
    payload, _ = io.load_frame(entry, {})
    assert type(payload) is (QuantizedStack if dtype == np.uint16 else ProbabilityStack)
    assert payload.data.tobytes() == stack.tobytes()


@pytest.mark.parametrize("dtype, samples", [(np.uint16, 6), (np.float32, 4)])
def test_a_streaming_load_returns_a_stack_of_many_samples_as_its_mean(tmp_path, dtype, samples):
    stack = _stack(np.random.default_rng(42), samples, 2 * BLOCK_POINTS + 50, 3, dtype)
    entry = read_manifest(_one_frame(tmp_path, stack)).frames[0]
    payload, _ = io.load_frame(entry, {})
    assert isinstance(payload, StreamedMean) and payload.samples == samples
    whole = QuantizedStack(stack) if dtype == np.uint16 else ProbabilityStack(stack)
    expected = [(lo, block.tobytes()) for lo, block in predictive_blocks(whole)]
    got = [(lo, block.tobytes()) for lo, block in predictive_blocks(payload)]
    assert got == expected


def test_a_streaming_load_reads_a_stack_with_a_fault_again_whole(tmp_path, monkeypatch):
    stack = _stack(np.random.default_rng(43), 6, 300, 3, np.uint16)
    stack[4, 20] = 0  # an all-zero row
    entry = read_manifest(_one_frame(tmp_path, stack)).frames[0]
    plain = dataclasses.replace(entry)
    io.load_frame(plain)
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open, raising=False)
    payload, _ = io.load_frame(entry, {})
    assert type(payload) is QuantizedStack and payload.data.tobytes() == stack.tobytes()
    assert sorted(opened) == ["f0.labels.spt", "f0.probs.spt", "f0.probs.spt"]
    assert entry.digest() == plain.digest()


def _loaded_whole(monkeypatch):
    """Make every manifest frame load whole, as frames that do not stream do."""
    monkeypatch.setattr(io, "_streams", lambda dtype_tag, dims: False)


@pytest.mark.parametrize("dtype, samples", [(np.uint16, 6), (np.float32, 4)])
def test_streamed_and_whole_frames_write_the_same_files(tmp_path, monkeypatch, dtype, samples):
    rng = np.random.default_rng(33)
    catalog = ClassCatalog(("a", "b", "c"))
    sizes = (BLOCK_POINTS + 5, 400)
    stacks = [_stack(rng, samples, n, 3, dtype) for n in sizes]
    labels = [rng.integers(0, 3, n).astype(np.uint8) for n in sizes]
    labels[0][::3] = 255
    manifest = _write(tmp_path, catalog, stacks, labels)
    outputs = []
    for whole in (False, True):
        out = tmp_path / f"out-{whole}"
        with monkeypatch.context() as m:
            if whole:
                _loaded_whole(m)
            args = ["evaluate", "--manifest", str(manifest), "--out-dir", str(out)]
            assert main(args + ["--threads", "2"]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outputs[0]) == ["report.csv", "report.json", "scatter.csv"]
    # the provenance digests included
    assert outputs[0] == outputs[1]


def _errors_both_ways(manifest_path, monkeypatch, capsys):
    """The type and message of the error of evaluating a manifest, and
    whether any file of it was streamed; asserts that streaming and loading
    every frame whole give the same type and message from
    ``evaluate_split`` and the same exit code and error line from the CLI."""
    seen = []
    for whole in (False, True):
        fed = []
        with monkeypatch.context() as m:
            if whole:
                _loaded_whole(m)
            original = io._streams

            def counted(*args):
                if original(*args):
                    fed.append(1)
                    return True
                return False

            m.setattr(io, "_streams", counted)
            with pytest.raises(SparsevalError) as raised:
                evaluate_split(read_manifest(manifest_path), threads=2)
            out = manifest_path.parent / "out"
            code = main(["evaluate", "--manifest", str(manifest_path), "--out-dir", str(out)])
        seen.append((type(raised.value), str(raised.value), code, capsys.readouterr().err))
        if whole:
            assert not fed
        else:
            streamed = bool(fed)
    assert seen[0] == seen[1]
    assert seen[0][2] == EXIT_INPUT
    return seen[0][0], seen[0][1], streamed


def _one_frame(tmp_path, stack, samples=None):
    rng = np.random.default_rng(34)
    labels = rng.integers(0, stack.shape[2], stack.shape[1]).astype(np.uint8)
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(stack.shape[2])))
    return _write(tmp_path, catalog, [stack], [labels], samples)


def _flip_last_payload_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-9] ^= 0x01
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("faulty", [True, False], ids=["with-a-fault", "without"])
@pytest.mark.parametrize("dtype, samples", [(np.uint16, 6), (np.float32, 4)])
def test_checksum_mismatch_comes_before_a_fault_in_the_values(
    tmp_path, monkeypatch, capsys, dtype, samples, faulty
):
    stack = _stack(np.random.default_rng(35), samples, 300, 3, dtype)
    manifest = _one_frame(tmp_path, stack)
    path = tmp_path / "f0.probs.spt"
    if faulty:
        if dtype == np.uint16:
            stack[2, 10] = 0  # an all-zero row
        else:
            stack[1, 3, 1] = np.nan
        write_tensor(TensorContainer.from_array(stack), path)
        error, message, streamed = _errors_both_ways(manifest, monkeypatch, capsys)
        assert (error, streamed) == (NotADistribution, True)
    _flip_last_payload_byte(path)
    error, message, streamed = _errors_both_ways(manifest, monkeypatch, capsys)
    assert error is ChecksumMismatch and streamed
    assert message == f"frame 0 (f0.probs.spt): payload checksum of {path} does not verify"


@pytest.mark.parametrize(
    "cut, error, what",
    [
        (
            lambda raw, slab: raw[: 28 + 2 * slab + slab // 2],
            TruncatedFile,
            "file ends inside the payload",
        ),
        (lambda raw, slab: raw[:-3], TruncatedFile, "file ends inside the checksum"),
        (
            lambda raw, slab: raw + b"\0",
            BadHeader,
            "{path} carries trailing bytes past the checksum",
        ),
    ],
    ids=["inside-slab-3", "inside-checksum", "trailing-byte"],
)
def test_damaged_streamed_files_raise_the_load_error(
    tmp_path, monkeypatch, capsys, cut, error, what
):
    stack = _stack(np.random.default_rng(36), 6, 300, 3, np.uint16)
    stack[0, 5] = 0  # a fault in the first slab, read before the damage
    manifest = _one_frame(tmp_path, stack)
    path = tmp_path / "f0.probs.spt"
    path.write_bytes(cut(path.read_bytes(), 300 * 3 * 2))
    raised, message, _ = _errors_both_ways(manifest, monkeypatch, capsys)
    assert raised is error
    assert message == f"frame 0 (f0.probs.spt): " + what.format(path=path)


@pytest.mark.parametrize(
    "change, error, what",
    [
        (lambda fh: fh.write(b"\0"), BadHeader, "{path} carries trailing bytes past the checksum"),
        (
            lambda fh: fh.truncate(28 + 2 * 1800 + 900),
            TruncatedFile,
            "file ends inside the payload",
        ),
    ],
    ids=["grows", "shrinks-into-slab-3"],
)
def test_a_file_that_changes_while_it_streams_raises_the_load_error(
    tmp_path, monkeypatch, change, error, what
):
    stack = _stack(np.random.default_rng(37), 6, 300, 3, np.uint16)
    manifest = read_manifest(_one_frame(tmp_path, stack))
    path = tmp_path / "f0.probs.spt"
    original = io._streams

    def changing(*args):
        # the stack's header and the file's size have been read
        with open(path, "ab") as fh:
            change(fh)
        return original(*args)

    monkeypatch.setattr(io, "_streams", changing)
    with pytest.raises(error) as raised:
        evaluate_split(manifest)
    assert str(raised.value) == "frame 0 (f0.probs.spt): " + what.format(path=path)


# sample_ranges cuts a block of a 4-sample stack into ranges of 512 points
# and one of a 6-sample stack into ranges of 341
FAULTS = [
    # (dtype, samples, faults as (sample, point, kind), expected message)
    (np.float32, 4, [(3, 100, "sum"), (1, 600, "value")], r"row sum \S+ at sample 3, point 100"),
    (
        np.float32,
        4,
        [(0, 5, "sum"), (2, 10, "value")],
        r"value 1\.5 outside \[0, 1\] at sample 2, point 10, class 0",
    ),
    (np.float32, 4, [(2, 3, "sum"), (1, 7, "sum")], r"row sum \S+ at sample 1, point 7"),
    (
        np.float32,
        4,
        [(0, 9, "value"), (3, 2, "value")],
        r"value 1\.5 outside \[0, 1\] at sample 0, point 9, class 0",
    ),
    (
        np.float32,
        4,
        [(0, BLOCK_POINTS + 5, "value"), (3, 2, "sum")],
        r"row sum \S+ at sample 3, point 2",
    ),
    # a NaN anywhere in a range hides its out-of-range values from the check
    (np.float32, 4, [(0, 20, "value"), (3, 30, "nan")], r"row sum nan at sample 3, point 30"),
    (np.uint16, 6, [(4, 100, "zero"), (2, 400, "zero")], r"row sum nan at sample 4, point 100"),
    (np.uint16, 6, [(5, 10, "zero"), (1, 300, "zero")], r"row sum nan at sample 1, point 300"),
]


@pytest.mark.parametrize("dtype, samples, faults, expected", FAULTS)
def test_the_fault_of_the_earliest_range_is_reported(
    tmp_path, monkeypatch, capsys, dtype, samples, faults, expected
):
    stack = _stack(np.random.default_rng(38), samples, 2 * BLOCK_POINTS + 100, 3, dtype)
    for s, i, kind in faults:
        if kind == "sum":
            stack[s, i] *= np.float32(1.1)
        elif kind == "value":
            stack[s, i] = (1.5, -0.5, 0.0)  # a row that still sums to 1
        elif kind == "nan":
            stack[s, i, 2] = np.nan
        else:
            stack[s, i] = 0
    manifest = _one_frame(tmp_path, stack)
    error, message, streamed = _errors_both_ways(manifest, monkeypatch, capsys)
    assert error is NotADistribution and streamed
    assert re.fullmatch(r"frame 0 \(f0\.probs\.spt\): " + expected, message)


def test_a_streamed_file_with_other_samples_than_declared_raises(tmp_path, monkeypatch, capsys):
    stack = _stack(np.random.default_rng(39), 6, 300, 3, np.uint16)
    manifest = _one_frame(tmp_path, stack, samples=7)
    error, message, streamed = _errors_both_ways(manifest, monkeypatch, capsys)
    path = tmp_path / "f0.probs.spt"
    assert error is ShapeMismatch and streamed
    assert message == f"frame 0 (f0.probs.spt): manifest declares 7 samples but {path} holds 6"


def test_a_streamed_file_with_other_points_than_its_labels_raises(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(40)
    stack = _stack(rng, 6, 300, 3, np.uint16)
    catalog = ClassCatalog(("a", "b", "c"))
    manifest = _write(tmp_path, catalog, [stack], [rng.integers(0, 3, 280).astype(np.uint8)])
    error, message, streamed = _errors_both_ways(manifest, monkeypatch, capsys)
    assert error is ShapeMismatch and streamed
    assert message == (
        f"frame 0 (f0.probs.spt): {tmp_path / 'f0.probs.spt'} covers 300 points "
        f"but {tmp_path / 'f0.labels.spt'} covers 280"
    )


def test_streamed_frame_reduction_holds_one_sample_and_the_sum(tmp_path):
    rng = np.random.default_rng(17)
    n, k = 5000, 19
    entry = FrameEntry(
        labels_path=tmp_path / "q.labels.spt", probs_path=tmp_path / "q.probs.spt", samples=20
    )
    raw = rng.integers(1, 65536, size=(20, n, k)).astype(np.uint16)
    write_tensor(TensorContainer.from_array(raw), entry.probs_path)
    labels = rng.integers(0, k, n).astype(np.uint8)
    write_tensor(TensorContainer.from_array(labels), entry.labels_path)
    del raw
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    pred, scores = score_columns(n, MEASURES, k)
    columns = {"gt": np.empty(n, dtype=np.uint8), "pred": pred, **scores}
    tracemalloc.start()
    try:
        _reduce_frame(entry, 0, catalog, EvalConfig(), columns, 0, n, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slab, total, blocks = n * k * 2, n * k * 8, 3 * BLOCK_POINTS * k * 8
    assert peak < slab + total + blocks


@pytest.mark.parametrize("source", ["float32", "float32-3-samples", "streamed-uint16"])
def test_a_workers_second_frame_allocates_less_than_a_block(tmp_path, source):
    # a frame's block temporaries live in the worker's buffers, so once its
    # first frame has sized them, an equal frame allocates no block at all
    rng = np.random.default_rng(29)
    n, k = 3 * BLOCK_POINTS + 7, 19
    labels = rng.integers(0, k, n).astype(np.uint8)
    if source.startswith("float32"):
        samples = 3 if source.endswith("samples") else 1
        stack = ProbabilityStack(_stack(rng, samples, n, k, np.float32))
        frame = ArrayFrame(LabelArray(labels), stack, samples=samples)
    else:
        frame = FrameEntry(labels_path=tmp_path / "l.spt", probs_path=tmp_path / "p.spt", samples=8)
        write_tensor(TensorContainer.from_array(_stack(rng, 8, n, k, np.uint16)), frame.probs_path)
        write_tensor(TensorContainer.from_array(labels), frame.labels_path)
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    pred, scores = score_columns(n, MEASURES, k)
    columns = {"gt": np.empty(n, dtype=np.uint8), "pred": pred, **scores}
    buffers = {}
    _reduce_frame(frame, 0, catalog, EvalConfig(), columns, 0, n, buffers)
    if source == "streamed-uint16":
        assert isinstance(frame.load(buffers)[0], StreamedMean)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _reduce_frame(frame, 1, catalog, EvalConfig(), columns, 0, n, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < BLOCK_POINTS * k * 8


@pytest.mark.parametrize("dtype", [np.uint16, np.float32])
@pytest.mark.parametrize("samples", [1, 6, 20])
def test_streamed_mean_yields_the_bits_of_predictive_blocks(dtype, samples):
    stack = _stack(np.random.default_rng(samples), samples, 2 * BLOCK_POINTS + 33, 7, dtype)
    payload = QuantizedStack(stack) if dtype == np.uint16 else ProbabilityStack(stack)
    expected = [(lo, block.copy()) for lo, block in predictive_blocks(payload)]
    mean = StreamedMean({})
    for slab in stack:
        mean.add(slab)
    assert mean.clean and mean.samples == samples
    got = [(lo, block.copy()) for lo, block in mean.blocks()]
    assert [lo for lo, _ in got] == [lo for lo, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert a.dtype == b.dtype == np.float32
        assert a.tobytes() == b.tobytes()


@dataclasses.dataclass
class _SummedSource:
    """A frame source whose load returns a stack already summed, as a
    source loaded into a buffer dict may."""

    slabs: tuple
    points: int = 3
    samples: int = 1
    name: str = "summed"

    def load(self, buffers):
        mean = StreamedMean(buffers)
        for slab in self.slabs:
            mean.add(slab)
        return mean, LabelArray(np.array([0, 1, 0]))

    def digest(self):
        return "0" * 64


def test_a_streamed_mean_with_a_fault_raises_when_read():
    mean, _ = _SummedSource((np.full((3, 2), 0.7),)).load(None)
    assert not mean.clean
    with pytest.raises(NotADistribution, match="is no distribution"):
        next(mean.blocks())
    catalog = ClassCatalog(("a", "b"))
    good = np.full((3, 2), 0.5)
    split = pool_split([_SummedSource((good, good))], catalog)
    assert split.confidences["max_softmax"].scores.tolist() == [0.5] * 3
    # one sample at fault spoils the mean; pooling names the frame
    with pytest.raises(NotADistribution, match=r"^frame 0 \(summed\): a row of 2 summed samples"):
        pool_split([_SummedSource((good, np.full((3, 2), 0.7)))], catalog)


def test_an_empty_streamed_mean_raises_shape_mismatch_naming_the_frame():
    catalog = ClassCatalog(("a", "b"))
    with pytest.raises(ShapeMismatch, match=r"^frame 0 \(summed\): no sample was added"):
        pool_split([_SummedSource(())], catalog)


def test_a_slab_of_another_shape_raises_shape_mismatch_naming_the_frame():
    catalog = ClassCatalog(("a", "b"))
    # the short slab would leave the last row with half the sum of the others
    source = _SummedSource((np.full((3, 2), 0.5), np.full((2, 2), 0.5)))
    with pytest.raises(ShapeMismatch, match=r"^frame 0 \(summed\): a slab of \(2, 2\) added"):
        pool_split([source], catalog)


def test_a_first_slab_of_another_rank_raises_shape_mismatch_naming_the_frame():
    catalog = ClassCatalog(("a", "b"))
    # a first slab that is not (points, classes) would reach the row check
    source = _SummedSource((np.full(3, 0.5),))
    with pytest.raises(ShapeMismatch, match=r"^frame 0 \(summed\): a slab of \(3,\) is not"):
        pool_split([source], catalog)


def test_a_filled_streamed_mean_yields_the_same_blocks_each_time_it_is_read():
    mean, labels = _SummedSource((np.full((3, 2), 0.5),) * 2).load({})
    # a source that hands out the one filled mean at every load
    source = types.SimpleNamespace(
        points=3, samples=1, name="shared", digest=lambda: "0" * 64,
        load=lambda buffers: (mean, labels),
    )
    catalog = ClassCatalog(("a", "b"))
    for _ in range(2):
        split = pool_split([source], catalog)
        assert split.confidences["max_softmax"].scores.tolist() == [0.5] * 3


# StreamedMean.add sums a slab three blocks at a time: frames of this size
# cross two chunk edges and end in a short chunk
EDGE_POINTS = 2 * 3 * BLOCK_POINTS + 77
EDGES = [(np.uint16, 6), (np.float32, 4)]
EDGE_IDS = [f"{d.__name__}-{s}" for d, s in EDGES]


def _whole(stack):
    return QuantizedStack(stack) if stack.dtype == np.uint16 else ProbabilityStack(stack)


@dataclasses.dataclass(frozen=True)
class _NamedFrame(ArrayFrame):
    """An in-memory frame under the name and digest of a manifest frame."""

    file_digest: str = ""

    def digest(self):
        return self.file_digest


@pytest.mark.parametrize("dtype, samples", EDGES, ids=EDGE_IDS)
def test_frames_across_chunk_edges_write_the_reports_of_in_memory_frames(
    tmp_path, dtype, samples
):
    rng = np.random.default_rng(44)
    catalog = ClassCatalog(("a", "b", "c"))
    sizes = (EDGE_POINTS, 3 * BLOCK_POINTS)
    stacks = [_stack(rng, samples, n, 3, dtype) for n in sizes]
    labels = [rng.integers(0, 3, n).astype(np.uint8) for n in sizes]
    labels[0][::13] = 255
    path = _write(tmp_path, catalog, stacks, labels)
    frames = [
        _NamedFrame(
            LabelArray(lab), _whole(stack), samples=samples, name=e.name, file_digest=e.digest()
        )
        for stack, lab, e in zip(stacks, labels, read_manifest(path).frames)
    ]

    def files(dataset, threads, out):
        write_report(evaluate_split(dataset, catalog, threads=threads), out)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    expected = files(frames, 1, tmp_path / "memory")
    assert sorted(expected) == ["report.csv", "report.json"]
    for threads in (1, 2, 3):
        assert files(read_manifest(path), threads, tmp_path / f"t{threads}") == expected


@pytest.mark.parametrize("dtype, samples", EDGES, ids=EDGE_IDS)
def test_a_mean_across_chunk_edges_has_the_bits_of_aggregate_samples(dtype, samples):
    stack = _stack(np.random.default_rng(45), samples, EDGE_POINTS, 3, dtype)
    expected = aggregate_samples(_whole(stack)).data[0]
    mean = StreamedMean({})
    for slab in stack:
        mean.add(slab)
    for _ in range(2):
        got = np.concatenate([block[0].copy() for _, block in mean.blocks()])
        assert got.dtype == expected.dtype == np.float32
        assert got.tobytes() == expected.tobytes()


def test_a_fault_in_the_second_chunk_raises_the_error_of_a_whole_read(
    tmp_path, monkeypatch, capsys
):
    stack = _stack(np.random.default_rng(46), 4, EDGE_POINTS, 3, np.float32)
    point = 3 * BLOCK_POINTS + 500
    stack[2, point] *= np.float32(1.1)
    manifest = _one_frame(tmp_path, stack)
    error, message, streamed = _errors_both_ways(manifest, monkeypatch, capsys)
    assert error is NotADistribution and streamed
    expected = rf"frame 0 \(f0\.probs\.spt\): row sum \S+ at sample 2, point {point}"
    assert re.fullmatch(expected, message)
