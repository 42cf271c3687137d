"""Class-wise calibration evaluation for pointwise multi-class classifiers.

The package measures how well a model's per-point confidence ranks its own
mistakes: per class, the lowest-confidence points are removed step by step
and the remaining IoU error is compared against the best possible removal
order. The area between the two curves (AUSE) is 0 when the confidence
ranking is as informative as ground truth. An ECE baseline, dataset-level
pooling, an outlier filter for unlearned classes, synthetic scenario
generation, and bit-exact file formats round out the evaluation engine.
"""

from .confidence import (
    LogitTensor,
    aggregate_samples,
    dequantize,
    entropy_confidence,
    max_softmax_confidence,
    sample_probabilistic_logits,
    softmax,
)
from .core import (
    ClassCatalog,
    ConfidenceVector,
    EvalConfig,
    LabelArray,
    MEASURES,
    ProbabilityStack,
    QuantizedStack,
    validate_inputs,
)
from .io import (
    FrameEntry,
    Manifest,
    TensorContainer,
    load_frame,
    read_manifest,
    read_report,
    read_tensor,
    write_manifest,
    write_report,
    write_tensor,
)
from .pipeline import (
    ArrayFrame,
    ClassRow,
    EvalReport,
    PooledSplit,
    ScatterExport,
    ece,
    evaluate_split,
    filter_and_aggregate,
    per_frame_class_ause,
    pool_split,
    scatter_export,
)
from .segmetrics import (
    ConfusionMatrix,
    IoUVector,
    confusion,
    iou,
    merge,
    miou,
    miou_with_absent_as_zero,
)
from .sparsification import (
    ClassAuse,
    CurvePair,
    FractionGrid,
    ause,
    brute_force_ause,
    curve_pair,
    oracle_curve,
    per_class_ause,
    relevant_subset,
    sparsification_curve,
)
from .synth import (
    ScenarioSpec,
    degenerate_class_scenario,
    generate,
    write_dataset,
)
from . import errors

__version__ = "0.2.0"

__all__ = [
    "ArrayFrame",
    "ClassAuse",
    "ClassCatalog",
    "ClassRow",
    "ConfidenceVector",
    "ConfusionMatrix",
    "CurvePair",
    "EvalConfig",
    "EvalReport",
    "FractionGrid",
    "FrameEntry",
    "IoUVector",
    "LabelArray",
    "LogitTensor",
    "MEASURES",
    "Manifest",
    "PooledSplit",
    "ProbabilityStack",
    "QuantizedStack",
    "ScatterExport",
    "ScenarioSpec",
    "TensorContainer",
    "aggregate_samples",
    "ause",
    "brute_force_ause",
    "confusion",
    "curve_pair",
    "degenerate_class_scenario",
    "dequantize",
    "ece",
    "entropy_confidence",
    "errors",
    "evaluate_split",
    "filter_and_aggregate",
    "generate",
    "iou",
    "load_frame",
    "max_softmax_confidence",
    "merge",
    "miou",
    "miou_with_absent_as_zero",
    "oracle_curve",
    "per_class_ause",
    "per_frame_class_ause",
    "pool_split",
    "read_manifest",
    "read_report",
    "read_tensor",
    "relevant_subset",
    "sample_probabilistic_logits",
    "scatter_export",
    "softmax",
    "sparsification_curve",
    "validate_inputs",
    "write_dataset",
    "write_manifest",
    "write_report",
    "write_tensor",
]
