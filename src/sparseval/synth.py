"""Synthetic imbalanced segmentation scenarios with controllable calibration.

The generator controls correctness and confidence separately so that the
expected metric ordering is known before any metric runs. Every point gets a
true correctness probability q drawn around its class accuracy; the
prediction is correct with probability q, and the reported probability row
places q (possibly distorted) on the predicted class with the remaining mass
spread evenly. Because rows are parameterized by their maximum alone, both
confidence measures rank points identically on generated data.

Calibration modes:

* ``calibrated``: confidence equals q, so ranking by confidence is the best
  probabilistic ranking and the expected calibration error vanishes.
* ``overconfident`` (gamma > 1): confidence is sharpened by a renormalized
  power transform and then saturates: everything below the (1 - 1/gamma)
  quantile collapses onto one value, the way saturated softmax outputs pile
  up at the top of the scale. The exact ties erase ranking information where
  the errors live, so the sparsification gap grows with gamma.
* ``underconfident`` (gamma < 1): confidence flattened toward uniform; the
  ranking is untouched, only the scale (and thus binned calibration) is off.
* ``anticorrelated``: the highest correct-point confidences are swapped with
  the lowest incorrect-point confidences, the worst ranking the confidence
  multiset allows.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ClassCatalog, LabelArray, ProbabilityStack, as_integer, as_real, validate_inputs
from .errors import SpecInvalid

CALIBRATION_MODES = ("calibrated", "overconfident", "underconfident", "anticorrelated")


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one synthetic frame."""

    n: int
    class_frequencies: tuple[float, ...]
    per_class_accuracy: tuple[float, ...]
    calibration_mode: str = "calibrated"
    gamma: float = 1.0
    confusion_profile: np.ndarray | None = None
    seed: int = 0
    confidence_spread: float = 0.15
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", as_integer("n", self.n, 1, SpecInvalid))
        object.__setattr__(self, "seed", as_integer("seed", self.seed, 0, SpecInvalid))
        for name in ("class_frequencies", "per_class_accuracy"):
            values = _sequence(name, getattr(self, name))
            object.__setattr__(self, name, tuple(as_real(name, v, SpecInvalid) for v in values))
        for name in ("gamma", "confidence_spread"):
            object.__setattr__(self, name, as_real(name, getattr(self, name), SpecInvalid))
        k = len(self.class_frequencies)
        if k < 2:
            raise SpecInvalid("at least two classes are required")
        if len(self.per_class_accuracy) != k:
            raise SpecInvalid("per_class_accuracy must list one value per class")
        if min(self.class_frequencies) < 0 or sum(self.class_frequencies) <= 0:
            raise SpecInvalid("class frequencies must be non-negative with positive sum")
        for c, a in enumerate(self.per_class_accuracy):
            if not 0.0 <= a <= 1.0:
                raise SpecInvalid(f"accuracy of class {c} must lie in [0, 1]")
            if self.class_frequencies[c] > 0 and a < 1.0 / k:
                # max-softmax equal to the correctness probability requires
                # the maximum to stay the row maximum, hence a >= 1/k
                raise SpecInvalid(
                    f"accuracy {a} of class {c} is below 1/k = {1.0 / k:.4f}; "
                    "such rows cannot carry their correctness probability as "
                    "the row maximum"
                )
        if self.calibration_mode not in CALIBRATION_MODES:
            raise SpecInvalid(f"calibration_mode must be one of {CALIBRATION_MODES}")
        if self.calibration_mode == "overconfident" and not self.gamma > 1.0:
            raise SpecInvalid("overconfident mode needs gamma > 1")
        if self.calibration_mode == "underconfident" and not 0.0 < self.gamma < 1.0:
            raise SpecInvalid("underconfident mode needs 0 < gamma < 1")
        if not 0.0 <= self.confidence_spread < 0.5:
            raise SpecInvalid("confidence_spread must lie in [0, 0.5)")
        if self.confusion_profile is not None:
            rows = [
                _sequence("confusion_profile", row)
                for row in _sequence("confusion_profile", self.confusion_profile)
            ]
            if len(rows) != k or any(len(row) != k for row in rows):
                raise SpecInvalid("confusion_profile must be k x k")
            prof = np.array(
                [[as_real("confusion_profile", v, SpecInvalid) for v in row] for row in rows]
            )
            if prof.min() < 0:
                raise SpecInvalid("confusion_profile entries must be non-negative")
            if np.abs(np.diag(prof)).max() > 0:
                raise SpecInvalid("confusion_profile diagonal must be zero")
            if np.abs(prof.sum(axis=1) - 1.0).max() > 1e-9:
                raise SpecInvalid("confusion_profile rows must sum to 1")
            object.__setattr__(self, "confusion_profile", prof)
        if self.class_names is not None:
            names = tuple(str(s) for s in _sequence("class_names", self.class_names))
            if len(names) != k:
                raise SpecInvalid("class_names must list one name per class")
            object.__setattr__(self, "class_names", names)

    @property
    def k(self) -> int:
        return len(self.class_frequencies)

    def catalog(self, ignore_index: int = 255) -> ClassCatalog:
        names = self.class_names or tuple(f"class_{c:02d}" for c in range(self.k))
        return ClassCatalog(names, ignore_index)


def _sequence(name: str, value) -> tuple:
    # a sequence is taken entry by entry, never a scalar or a string's letters
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise SpecInvalid(f"{name} must be a sequence, got {value!r}")


def _default_profile(k: int) -> np.ndarray:
    prof = np.full((k, k), 1.0 / (k - 1))
    np.fill_diagonal(prof, 0.0)
    return prof


def _power_sharpen(q: np.ndarray, gamma: float, k: int) -> np.ndarray:
    """New row maximum after renormalizing (q, uniform tail) raised to gamma."""
    top = np.power(q, gamma)
    rest = np.power(1.0 - q, gamma) * float(k - 1) ** (1.0 - gamma)
    return top / (top + rest)


def _swap_extremes(conf: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """Give the wrong points the best confidences the correct points held."""
    out = conf.copy()
    ci = np.flatnonzero(correct)
    wi = np.flatnonzero(~correct)
    m = min(ci.size, wi.size)
    if m == 0:
        return out
    top_correct = ci[np.argsort(conf[ci], kind="stable")][::-1][:m]
    low_wrong = wi[np.argsort(conf[wi], kind="stable")][:m]
    held = out[top_correct].copy()
    out[top_correct] = out[low_wrong]
    out[low_wrong] = held
    return out


def _rows_from_confidence(conf: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    # the row is a function of its stored float32 maximum: points that tie in
    # max-softmax then tie in entropy as well, and the maximum stays strictly
    # above the uniform tail so argmax lands on the prediction
    conf32 = conf.astype(np.float32)
    floor = np.nextafter(np.float32(1.0 / k), np.float32(1.0))
    conf32 = np.maximum(conf32, floor)
    tail = ((1.0 - conf32.astype(np.float64)) / (k - 1)).astype(np.float32)
    rows = np.empty((conf32.size, k), dtype=np.float32)
    rows[:] = tail[:, None]
    rows[np.arange(conf32.size), pred] = conf32
    return rows


def generate(spec: ScenarioSpec) -> tuple[LabelArray, ProbabilityStack]:
    """Sample one frame: ground truth plus a single-sample probability stack."""
    rng = np.random.default_rng(spec.seed)
    k = spec.k
    freq = np.asarray(spec.class_frequencies, dtype=np.float64)
    freq = freq / freq.sum()
    acc = np.asarray(spec.per_class_accuracy, dtype=np.float64)

    gt = rng.choice(k, size=spec.n, p=freq).astype(np.int64)

    halfwidth = np.minimum(
        np.minimum(acc - 1.0 / k, 1.0 - acc), spec.confidence_spread
    )
    halfwidth = np.maximum(halfwidth, 0.0)
    q = acc[gt] + halfwidth[gt] * (2.0 * rng.random(spec.n) - 1.0)

    correct = rng.random(spec.n) < q
    pred = gt.copy()
    wrong = np.flatnonzero(~correct)
    if wrong.size:
        profile = (
            spec.confusion_profile
            if spec.confusion_profile is not None
            else _default_profile(k)
        )
        cdf = np.cumsum(profile, axis=1)
        draws = rng.random(wrong.size)
        pred[wrong] = (draws[:, None] < cdf[gt[wrong]]).argmax(axis=1)

    conf = q
    if spec.calibration_mode in ("overconfident", "underconfident"):
        conf = _power_sharpen(q, spec.gamma, k)
        if spec.calibration_mode == "overconfident":
            floor = float(np.quantile(conf, 1.0 - 1.0 / spec.gamma))
            conf = np.maximum(conf, floor)
    elif spec.calibration_mode == "anticorrelated":
        conf = _swap_extremes(conf, correct)

    rows = _rows_from_confidence(conf, pred, k)
    return LabelArray(gt), ProbabilityStack(rows[None])


def write_dataset(
    gt: LabelArray,
    probs: ProbabilityStack,
    catalog: ClassCatalog,
    out_dir,
    *,
    frames: int = 1,
):
    """Store points in the on-disk dataset layout and return the manifest path.

    The points are split into ``frames`` contiguous chunks, so pooled
    evaluation of the written dataset matches in-memory evaluation of the
    same arrays. The inputs are checked as the reader checks them before
    anything is written, and a label that the label files' unsigned type
    cannot hold (a negative or large ignore label that is present) raises
    ``SpecInvalid``.
    """
    from . import io as container_io

    n = len(gt)
    frames = as_integer("frames", frames, 1, SpecInvalid)
    if n < frames:
        raise SpecInvalid("cannot split fewer points than frames")
    validate_inputs(probs, gt, catalog)
    label_dtype = np.uint8 if catalog.k <= 255 and catalog.ignore_index <= 255 else np.uint16
    held = np.iinfo(label_dtype)
    for label in (int(gt.values.min()), int(gt.values.max())):
        if not held.min <= label <= held.max:
            raise SpecInvalid(f"label {label} cannot be stored as {held.dtype} labels")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bounds = [(n * i) // frames for i in range(frames + 1)]
    entries = []
    for i in range(frames):
        lo, hi = bounds[i], bounds[i + 1]
        probs_path = out_dir / f"frame_{i:04d}.probs.spt"
        labels_path = out_dir / f"frame_{i:04d}.labels.spt"
        container_io.write_tensor(
            container_io.TensorContainer.from_array(
                probs.data[:, lo:hi, :].astype(np.float32)
            ),
            probs_path,
        )
        container_io.write_tensor(
            container_io.TensorContainer.from_array(gt.values[lo:hi].astype(label_dtype)),
            labels_path,
        )
        entries.append(
            container_io.FrameEntry(
                labels_path=labels_path.resolve(), probs_path=probs_path.resolve()
            )
        )
    manifest = container_io.Manifest(catalog, tuple(entries), {})
    manifest_path = out_dir / "manifest.txt"
    container_io.write_manifest(manifest, manifest_path)
    return manifest_path


def degenerate_class_scenario(seed: int = 0) -> tuple[LabelArray, ProbabilityStack]:
    """A frame whose last class is never predicted correctly (IoU exactly 0).

    Both of its curves are then flat, the area between them vanishes, and
    the class shows up as a perfectly calibrated outlier that the IoU filter
    must catch.
    """
    rng = np.random.default_rng(seed)
    k = 3
    n = 4000
    gt = rng.choice(k, size=n, p=(0.45, 0.45, 0.10)).astype(np.int64)

    healthy = gt < 2
    q = np.where(healthy, 0.75 + 0.20 * rng.random(n), 0.55 + 0.30 * rng.random(n))
    correct = healthy & (rng.random(n) < q)

    pred = gt.copy()
    wrong_healthy = healthy & ~correct
    pred[wrong_healthy] = 1 - gt[wrong_healthy]
    unlearned = np.flatnonzero(~healthy)
    pred[unlearned] = rng.integers(0, 2, size=unlearned.size)

    rows = _rows_from_confidence(q, pred, k)
    return LabelArray(gt), ProbabilityStack(rows[None])
