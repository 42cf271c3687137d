import numpy as np
from hypothesis import Phase

from sparseval import ClassCatalog, ConfidenceVector, LabelArray

# the phases of property tests over block-sized inputs: a failure is
# reported as found, since shrinking examples of thousands of points takes
# many minutes
NO_SHRINK = [p for p in Phase if p is not Phase.shrink]


def pattern_instance(pattern, confidences):
    """Build a class-0 instance from a TP/error pattern.

    pattern is a string of 'T' (true positive) and 'E' (error); errors
    alternate between missed points (gt=0, pred=1) and false alarms
    (gt=1, pred=0), which are interchangeable for IoU of class 0.
    """
    assert len(pattern) == len(confidences)
    gt, pred = [], []
    error_count = 0
    for ch in pattern:
        if ch == "T":
            gt.append(0)
            pred.append(0)
        else:
            if error_count % 2 == 0:
                gt.append(0)
                pred.append(1)
            else:
                gt.append(1)
                pred.append(0)
            error_count += 1
    catalog = ClassCatalog(("zero", "one"))
    conf = ConfidenceVector("max_softmax", np.asarray(confidences, dtype=np.float64))
    return LabelArray(np.array(pred)), LabelArray(np.array(gt)), conf, catalog


def random_instance(rng, max_points=64, max_classes=5):
    """A random labeled instance whose sampled class has a non-empty subset."""
    k = int(rng.integers(2, max_classes + 1))
    n = int(rng.integers(1, max_points + 1))
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    gt = rng.integers(0, k, size=n)
    pred = np.where(rng.random(n) < 0.6, gt, rng.integers(0, k, size=n))
    conf = rng.random(n)
    class_index = int(gt[rng.integers(0, n)])  # guaranteed present in gt
    return (
        LabelArray(pred),
        LabelArray(gt),
        ConfidenceVector("max_softmax", conf),
        catalog,
        class_index,
    )


def naive_error_curve(gt_values, pred_values, class_index, order):
    """Error after each single removal, recomputed from scratch; test oracle."""
    out = []
    remaining = list(order)
    for _ in range(len(order)):
        tp = sum(
            1 for i in remaining if gt_values[i] == class_index and pred_values[i] == class_index
        )
        wrong = sum(
            1
            for i in remaining
            if (gt_values[i] == class_index or pred_values[i] == class_index)
            and gt_values[i] != pred_values[i]
        )
        denom = tp + wrong
        out.append(0.0 if denom == 0 else wrong / denom)
        remaining.pop(0)
    return out
