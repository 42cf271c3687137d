"""Command-line front end for scripted evaluation and plot-data export.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
Failures print one machine-parseable line to stderr:
``sparseval: error: <Kind>: <detail>``.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import io as container_io
from .core import MEASURES, RANKING_DOMAINS, TIE_BREAKS, ClassCatalog, EvalConfig
from .errors import SparsevalError, SpecInvalid
from .pipeline import evaluate_split, per_frame_class_ause, pool_split
from .sparsification import FractionGrid, curve_pair
from .synth import ScenarioSpec, degenerate_class_scenario, generate, write_dataset

_MEASURE_FLAGS = {"softmax": "max_softmax", "entropy": "neg_entropy"}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2; usage errors are 1
        self.exit(EXIT_USAGE, f"{self.prog}: usage error: {message}\n")


def _thread_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _config_flag(p: argparse.ArgumentParser, flag: str, name: str, help: str):
    """Add ``flag``, which sets EvalConfig field ``name`` and stores under it.
    A value the field rejects is a usage error, found before any file is read."""

    def parse(text: str):
        try:
            return EvalConfig.parse_field(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    p.add_argument(flag, dest=name, type=parse, help=help)


def _add_common_flags(p: argparse.ArgumentParser, *, with_measure: bool = True):
    p.add_argument("--manifest", required=True, help="dataset manifest path")
    p.add_argument("--out-dir", help="directory for output files")
    if with_measure:
        p.add_argument(
            "--measure",
            choices=("softmax", "entropy", "both"),
            default="both",
            help="confidence measure(s) to evaluate",
        )
    _config_flag(p, "--grid-steps", "grid_steps", "sparsification grid resolution")
    _config_flag(p, "--filter-threshold", "iou_filter_threshold", "IoU outlier threshold")
    p.add_argument(
        "--ranking-domain",
        choices=RANKING_DOMAINS,
        help="rank within the class-relevant subset or the whole point set",
    )
    p.add_argument(
        "--tie-break",
        choices=TIE_BREAKS,
        help="how equal confidences are ordered",
    )
    _config_flag(p, "--seed", "rng_seed", "seed for sampling and tie shuffling")
    p.add_argument("--threads", type=_thread_count, default=1, help="worker threads")


def _manifest_and_config(args) -> tuple[container_io.Manifest, EvalConfig]:
    """The manifest, and its settings overridden by the flags that were set;
    each flag stores under the name of the EvalConfig field it sets."""
    manifest = container_io.read_manifest(args.manifest)
    names = {f.name for f in fields(EvalConfig)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return manifest, replace(manifest.apply_overrides(EvalConfig()), **flags)


def _selected_measures(flag: str) -> tuple[str, ...]:
    if flag == "both":
        return MEASURES
    return (_MEASURE_FLAGS[flag],)


def _cmd_evaluate(args) -> int:
    manifest, config = _manifest_and_config(args)
    measures = _selected_measures(args.measure)
    split = pool_split(manifest, config=config, measures=measures, threads=args.threads)
    report = evaluate_split(split, config=config, measures=measures)
    if args.per_frame:
        report.provenance["per_frame_ause"] = per_frame_class_ause(
            split, config=config, measures=measures
        )
    out_dir = Path(args.out_dir or ".")
    formats = ("json", "csv") if args.format == "both" else (args.format,)
    written = container_io.write_report(report, out_dir, formats)
    if "csv" in formats:
        written["scatter"] = container_io.write_scatter_csv(
            report, out_dir / "scatter.csv"
        )
    for kind, path in written.items():
        print(f"{kind}: {path}")
    return EXIT_OK


def _cmd_curves(args) -> int:
    manifest, config = _manifest_and_config(args)
    measure = _MEASURE_FLAGS[args.measure]
    class_index = manifest.catalog.index_of(args.class_name)
    split = pool_split(manifest, config=config, measures=(measure,), threads=args.threads)
    pair = curve_pair(
        split.pred,
        split.gt,
        split.confidences[measure],
        split.catalog,
        class_index,
        FractionGrid(config.grid_steps),
        tie_break=config.tie_break,
        seed=config.rng_seed,
        ranking_domain=config.ranking_domain,
    )
    lines = ["fraction,sparsification_error,oracle_error,difference"]
    for f, s, o in zip(pair.grid.steps, pair.sparsification_error, pair.oracle_error):
        f, s, o = float(f), float(s), float(o)
        lines.append(f"{f!r},{s!r},{o!r},{(s - o)!r}")
    text = "\n".join(lines) + "\n"
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"curves_{args.class_name}_{measure}.csv"
        path.write_text(text, encoding="utf-8")
        print(f"csv: {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _spec_from_json(path: str, seed_override: int | None) -> tuple[ScenarioSpec, int]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SpecInvalid("a scenario spec file must hold one JSON object")
    frames = raw.pop("frames", 1)
    unknown = set(raw) - {f.name for f in fields(ScenarioSpec)}
    if unknown:
        raise SpecInvalid(f"unknown scenario fields {sorted(unknown)}")
    if seed_override is not None:
        raw["seed"] = seed_override
    try:
        spec = ScenarioSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise SpecInvalid(f"scenario spec is missing or mistypes a field: {exc}") from exc
    return spec, frames


def _cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    if args.preset == "degenerate-class":
        gt, probs = degenerate_class_scenario(seed=args.seed or 0)
        catalog = ClassCatalog(("class_00", "class_01", "class_02"))
        frames = 1 if args.frames is None else args.frames
    else:
        spec, spec_frames = _spec_from_json(args.spec, args.seed)
        frames = spec_frames if args.frames is None else args.frames
        gt, probs = generate(spec)
        catalog = spec.catalog()
    manifest_path = write_dataset(gt, probs, catalog, out_dir, frames=frames)
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def _cmd_ece(args) -> int:
    manifest, config = _manifest_and_config(args)
    split = pool_split(
        manifest, config=config, measures=("max_softmax",), threads=args.threads
    )
    print(repr(split.ece(config.ece_bins)))
    return EXIT_OK


def _cmd_inspect(args) -> int:
    path = Path(args.path)
    if not path.exists():
        raise FileNotFoundError(f"{path} does not exist")
    with path.open("rb") as fh:
        head = fh.read(len(container_io.MAGIC))
    if head == container_io.MAGIC:
        box = container_io.read_tensor(path)
        print(f"tensor: {path}")
        print(f"dtype: {box.data.dtype.name}")
        print(f"shape: {'x'.join(str(d) for d in box.data.shape)}")
        print(f"elements: {box.data.size}")
        print("checksum: ok")
        return EXIT_OK
    manifest = container_io.read_manifest(path)
    print(f"manifest: {path}")
    print(f"classes: {manifest.catalog.k} ({', '.join(manifest.catalog.names)})")
    print(f"ignore_index: {manifest.catalog.ignore_index}")
    if manifest.overrides:
        print(f"overrides: {manifest.overrides}")
    print(f"frames: {len(manifest.frames)}")
    for entry in manifest.frames:
        kind = "probs" if entry.probs_path else "logits"
        extra = " +stddev" if entry.stddev_path else ""
        print(f"  {entry.name}: {kind}{extra} samples={entry.samples}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparseval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="full-split report with both aggregates")
    _add_common_flags(p)
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    _config_flag(p, "--ece-bins", "ece_bins", "bins for the ECE baseline")
    p.add_argument(
        "--per-frame",
        action="store_true",
        help="embed diagnostic per-frame AUSE values in the JSON report",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("curves", help="per-fraction curve data for one class")
    _add_common_flags(p, with_measure=False)
    p.add_argument("--class", dest="class_name", required=True, help="class name")
    p.add_argument(
        "--measure",
        choices=("softmax", "entropy"),
        default="softmax",
        help="confidence measure behind the ranking",
    )
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("synth", help="write a synthetic scenario dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="scenario description (JSON)")
    group.add_argument("--preset", choices=("degenerate-class",))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, help="overrides the scenario seed")
    p.add_argument("--frames", type=int, help="files to split points into (default: the spec's)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ece", help="expected calibration error of the split")
    _add_common_flags(p, with_measure=False)
    _config_flag(p, "--bins", "ece_bins", "bin count")
    p.set_defaults(func=_cmd_ece)

    p = sub.add_parser("inspect", help="describe a tensor container or manifest")
    p.add_argument("--path", required=True)
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # every failure is reported as one line
        detail = " ".join(str(exc).split())
        print(f"sparseval: error: {type(exc).__name__}: {detail}", file=sys.stderr)
        bad_input = (SparsevalError, FileNotFoundError, IsADirectoryError, json.JSONDecodeError)
        return EXIT_INPUT if isinstance(exc, bad_input) else EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
