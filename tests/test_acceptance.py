"""Acceptance gate: one test per criterion, one printed verdict line each."""
import itertools
import json
import subprocess
import sys
import time

import numpy as np
from conftest import naive_error_curve, pattern_instance, random_instance
from sparseval import (
    ArrayFrame,
    ClassCatalog,
    ConfidenceVector,
    ConfusionMatrix,
    FractionGrid,
    ScenarioSpec,
    ause,
    brute_force_ause,
    curve_pair,
    degenerate_class_scenario,
    ece,
    evaluate_split,
    generate,
    iou,
    max_softmax_confidence,
    entropy_confidence,
    miou,
    miou_with_absent_as_zero,
    oracle_curve,
    per_class_ause,
    read_manifest,
    sparsification_curve,
    write_dataset,
)
from sparseval.errors import NoPresentClasses


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_oracle_dominance_and_monotonicity():
    rng = np.random.default_rng(20240801)
    started = time.monotonic()
    violations = 0
    for _ in range(1000):
        pred, gt, conf, catalog, c = random_instance(rng, max_points=64, max_classes=5)
        grid = FractionGrid(int(rng.integers(2, 128)))
        tie = "stable_index" if rng.random() < 0.5 else "seeded_random"
        spars = sparsification_curve(
            pred, gt, conf, catalog, c, grid, tie_break=tie, seed=int(rng.integers(1 << 31))
        )
        orac = oracle_curve(pred, gt, catalog, c, grid)
        if (orac > spars).any() or (np.diff(orac) > 0).any():
            violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 10.0
    assert _verdict(
        1,
        ok,
        f"oracle <= sparsification and non-increasing on 1000 instances, "
        f"{violations} violations, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_brute_force_equivalence_and_minimality():
    started = time.monotonic()
    worst_gap = 0.0
    instances = 0
    for n in range(1, 7):
        confidences = np.linspace(0.9, 0.3, n)
        for bits in itertools.product("TE", repeat=n):
            pattern = "".join(bits)
            pred, gt, conf, catalog = pattern_instance(pattern, confidences)
            grid = FractionGrid(n)
            orac = oracle_curve(pred, gt, catalog, 0, grid)
            gt_v = gt.values.tolist()
            pred_v = pred.values.tolist()
            for perm in itertools.permutations(range(n)):
                candidate = naive_error_curve(gt_v, pred_v, 0, list(perm))
                if not (orac <= np.array(candidate) + 1e-12).all():
                    assert _verdict(2, False, f"oracle not minimal for {pattern}")
            fast = ause(curve_pair(pred, gt, conf, catalog, 0, grid))
            brute = brute_force_ause(pred, gt, conf, catalog, 0)
            worst_gap = max(worst_gap, abs(fast - brute))
            instances += 1
    elapsed = time.monotonic() - started
    ok = worst_gap <= 1e-12 and elapsed < 60.0
    assert _verdict(
        2,
        ok,
        f"all removal permutations dominated and fast path equals brute force "
        f"on {instances} instances (worst gap {worst_gap:.2e}), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_degenerate_class_artifact():
    gt, probs = degenerate_class_scenario(seed=7)
    catalog = ClassCatalog(("c0", "c1", "c2"))
    report = evaluate_split([ArrayFrame(gt, probs)], catalog)
    row = report.rows[2]
    ok = (
        row.iou == 0.0
        and row.ause["max_softmax"] == 0.0
        and row.ause["neg_entropy"] == 0.0
        and row.filtered is True
        and report.filter_threshold == 0.03
        and not report.rows[0].filtered
    )
    assert _verdict(
        3,
        ok,
        "unlearned class has IoU 0.0 and AUSE 0.0 exactly and is filtered at 0.03",
    )


def _mode_spec(mode: str, gamma: float, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        n=100_000,
        class_frequencies=(0.99, 0.01),
        per_class_accuracy=(0.8, 0.8),
        calibration_mode=mode,
        gamma=gamma,
        seed=seed,
        confidence_spread=0.2,
    )


def test_criterion_04_calibration_ordering():
    ordered = 0
    worst_ece = 0.0
    seeds = range(20)
    for seed in seeds:
        values = {}
        for mode, gamma in (
            ("calibrated", 1.0),
            ("overconfident", 4.0),
            ("anticorrelated", 1.0),
        ):
            spec = _mode_spec(mode, gamma, seed)
            gt, probs = generate(spec)
            rows = per_class_ause(probs, gt, spec.catalog(), "max_softmax")
            values[mode] = rows[1].ause  # minority class
            if mode == "calibrated":
                worst_ece = max(worst_ece, ece(probs, gt, 15))
        if values["calibrated"] < values["overconfident"] < values["anticorrelated"]:
            ordered += 1
    ok = ordered >= 19 and worst_ece < 0.01
    assert _verdict(
        4,
        ok,
        f"minority AUSE ordering calibrated < overconfident < anticorrelated in "
        f"{ordered}/20 seeds (need >= 19), calibrated ECE max {worst_ece:.4f} (< 0.01)",
    )


def test_criterion_05_confidence_measure_parity():
    # binary case: the two measures rank identically and areas coincide
    spec2 = ScenarioSpec(
        n=100_000,
        class_frequencies=(0.99, 0.01),
        per_class_accuracy=(0.8, 0.8),
        seed=33,
        confidence_spread=0.2,
    )
    gt2, probs2 = generate(spec2)
    cat2 = spec2.catalog()
    sm, _ = max_softmax_confidence(probs2)
    ent = entropy_confidence(probs2)
    rankings_equal = np.array_equal(
        np.argsort(sm.scores, kind="stable"), np.argsort(ent.scores, kind="stable")
    )
    rows_sm = per_class_ause(probs2, gt2, cat2, "max_softmax")
    rows_ent = per_class_ause(probs2, gt2, cat2, "neg_entropy")
    binary_gap = max(
        abs(a.ause - b.ause) for a, b in zip(rows_sm, rows_ent) if a.ause is not None
    )

    spec4 = ScenarioSpec(
        n=50_000,
        class_frequencies=(0.55, 0.25, 0.15, 0.05),
        per_class_accuracy=(0.85, 0.8, 0.75, 0.7),
        seed=34,
        confidence_spread=0.2,
    )
    gt4, probs4 = generate(spec4)
    cat4 = spec4.catalog()
    gaps4 = [
        abs(a.ause - b.ause)
        for a, b in zip(
            per_class_ause(probs4, gt4, cat4, "max_softmax"),
            per_class_ause(probs4, gt4, cat4, "neg_entropy"),
        )
        if a.ause is not None
    ]
    ok = rankings_equal and binary_gap <= 1e-12 and max(gaps4) < 0.02
    assert _verdict(
        5,
        ok,
        f"measure parity: binary rankings identical ({rankings_equal}), binary gap "
        f"{binary_gap:.2e} (<= 1e-12), k=4 per-class gap max {max(gaps4):.4f} (< 0.02)",
    )


def test_criterion_06_rank_invariance_under_cubing():
    spec = ScenarioSpec(
        n=30_000,
        class_frequencies=(0.6, 0.3, 0.1),
        per_class_accuracy=(0.8, 0.75, 0.7),
        seed=55,
        confidence_spread=0.2,
    )
    gt, probs = generate(spec)
    catalog = spec.catalog()
    grid = FractionGrid(100)
    all_equal = True
    for measure in ("max_softmax", "neg_entropy"):
        if measure == "max_softmax":
            conf, pred = max_softmax_confidence(probs)
        else:
            conf = entropy_confidence(probs)
            _, pred = max_softmax_confidence(probs)
        cubed = ConfidenceVector(measure, conf.scores**3)
        for c in range(catalog.k):
            base = ause(curve_pair(pred, gt, conf, catalog, c, grid))
            transformed = ause(curve_pair(pred, gt, cubed, catalog, c, grid))
            all_equal &= base == transformed
    assert _verdict(
        6, all_equal, "cubing all confidences changes no AUSE value (bitwise)"
    )


def test_criterion_07_split_invariance(tmp_path):
    spec = ScenarioSpec(
        n=20_000,
        class_frequencies=(0.5, 0.3, 0.15, 0.05),
        per_class_accuracy=(0.85, 0.8, 0.75, 0.7),
        seed=77,
        confidence_spread=0.2,
    )
    gt, probs = generate(spec)
    catalog = spec.catalog()
    pooled = read_manifest(
        write_dataset(gt, probs, catalog, tmp_path / "one", frames=1)
    )
    split = read_manifest(
        write_dataset(gt, probs, catalog, tmp_path / "ten", frames=10)
    )
    a = evaluate_split(pooled)
    b = evaluate_split(split)
    confusion_equal = a.confusion_counts == b.confusion_counts
    rows_equal = a.rows == b.rows
    aggregates_equal = (
        a.overall_ause == b.overall_ause
        and a.filtered_ause == b.filtered_ause
        and a.ece == b.ece
        and a.miou_present == b.miou_present
        and a.miou_all_classes == b.miou_all_classes
    )
    ok = confusion_equal and rows_equal and aggregates_equal
    assert _verdict(
        7,
        ok,
        "one pooled frame and ten manifest frames agree bitwise "
        f"(confusion {confusion_equal}, rows {rows_equal}, aggregates {aggregates_equal})",
    )


def test_criterion_08_iou_unit_suite():
    checks = []
    v = iou(ConfusionMatrix(np.diag([5, 5])))
    checks.append(np.array_equal(v.values, [1.0, 1.0]))

    counts = np.array([[2, 1, 0], [1, 6, 0], [0, 0, 0]])
    v = iou(ConfusionMatrix(counts))
    checks.append(v.values[0] == 2 / (2 + 1 + 1))
    checks.append(v.values[1] == 6 / (6 + 1 + 1))
    checks.append(not v.present[2] and np.isnan(v.values[2]))
    checks.append(miou(v) == (0.5 + 0.75) / 2)
    checks.append(miou_with_absent_as_zero(v) == (0.5 + 0.75) / 3)

    empty = iou(ConfusionMatrix(np.zeros((2, 2), dtype=np.int64)))
    try:
        miou(empty)
        checks.append(False)
    except NoPresentClasses:
        checks.append(True)

    fp_only = iou(ConfusionMatrix(np.array([[0, 0], [3, 1]])))
    checks.append(fp_only.values[0] == 0.0 and fp_only.present[0])

    ok = all(checks)
    assert _verdict(8, ok, f"IoU and both mIoU conventions exact ({sum(checks)}/8 checks)")


def test_criterion_09_format_robustness(tmp_path):
    from sparseval import TensorContainer, read_tensor, write_tensor
    from sparseval.errors import BadMagic, ChecksumMismatch, TruncatedFile

    rng = np.random.default_rng(2468)
    path = tmp_path / "t.spt"
    rejected = 0
    for trial in range(100):
        rank = int(rng.integers(1, 4))
        shape = tuple(int(v) for v in rng.integers(1, 7, size=rank))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            arr = rng.random(shape).astype(np.float32)
        elif kind == 1:
            arr = rng.integers(0, 256, size=shape).astype(np.uint8)
        else:
            arr = rng.integers(0, 1 << 16, size=shape).astype(np.uint16)
        write_tensor(TensorContainer.from_array(arr), path)
        good = path.read_bytes()
        if not np.array_equal(read_tensor(path).data, arr):
            assert _verdict(9, False, "roundtrip mismatch")
        blob = bytearray(good)
        mode = trial % 3
        if mode == 0:
            blob[int(rng.integers(0, 8))] ^= int(rng.integers(1, 256))
            expected = BadMagic
        elif mode == 1:
            header = 16 + 4 * rank
            blob[int(rng.integers(header, len(blob)))] ^= int(rng.integers(1, 256))
            expected = ChecksumMismatch
        else:
            blob = blob[: int(rng.integers(0, len(blob)))]
            expected = TruncatedFile
        path.write_bytes(bytes(blob))
        try:
            read_tensor(path)
        except expected:
            rejected += 1
        except Exception:
            pass
    ok = rejected == 100
    assert _verdict(
        9, ok, f"{rejected}/100 corrupted containers rejected with the exact error class"
    )


_THROUGHPUT_SCRIPT = r"""
import json, resource, sys, time
import numpy as np
from sparseval import ArrayFrame, ClassCatalog, ScenarioSpec, evaluate_split, generate

n, k = 10_000_000, 19
rng = np.random.default_rng(0)
freq = (np.arange(k, dtype=np.float64) + 1.0) ** 2
acc = 0.55 + 0.4 * rng.random(k)
spec = ScenarioSpec(
    n=n,
    class_frequencies=tuple(freq / freq.sum()),
    per_class_accuracy=tuple(acc),
    seed=1,
    confidence_spread=0.2,
)
gt, probs = generate(spec)
# the process's peak so far is generate's; the evaluator's shows only above it
generate_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
catalog = spec.catalog()
raw_bytes = probs.data.nbytes
started = time.monotonic()
report = evaluate_split([ArrayFrame(gt, probs)], catalog, threads=2)
elapsed = time.monotonic() - started
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "elapsed": elapsed,
    "raw_bytes": raw_bytes,
    "generate_peak_bytes": generate_kib * 1024,
    "peak_bytes": peak_kib * 1024,
    "rows": len(report.rows),
    "defined": sum(1 for r in report.rows if r.ause["max_softmax"] is not None),
}))
"""


def test_criterion_10_throughput_and_memory():
    proc = subprocess.run(
        [sys.executable, "-c", _THROUGHPUT_SCRIPT],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = (
        stats["elapsed"] < 60.0
        and stats["peak_bytes"] < 4 * stats["raw_bytes"]
        and stats["rows"] == 19
        and stats["defined"] == 19
    )
    evaluator_bound = stats["peak_bytes"] > stats["generate_peak_bytes"]
    bound_by = "evaluate_split" if evaluator_bound else "generate"
    assert _verdict(
        10,
        ok,
        f"10^7 points, 19 classes, both measures: {stats['elapsed']:.1f}s (< 60s), "
        f"peak {stats['peak_bytes'] / 2**30:.2f} GiB "
        f"(< {4 * stats['raw_bytes'] / 2**30:.2f} GiB), set by {bound_by}; "
        f"generate alone {stats['generate_peak_bytes'] / 2**30:.2f} GiB",
    )
