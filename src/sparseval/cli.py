"""Command-line front end for scripted evaluation and plot-data export.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
Failures print one machine-parseable line to stderr:
``sparseval: error: <Kind>: <detail>``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

from . import io as container_io
from .core import MEASURES, ClassCatalog, EvalConfig
from .errors import IoFailure, SparsevalError, SpecInvalid
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


# the flag and help of each EvalConfig field; each subcommand adds the flags
# of the fields it reads
_CONFIG_FLAGS = {
    "grid_steps": ("--grid-steps", "sparsification grid resolution"),
    "iou_filter_threshold": ("--filter-threshold", "IoU outlier threshold"),
    "ranking_domain": ("--ranking-domain", "ranking scope: subset or global"),
    "tie_break": ("--tie-break", "tie order: stable_index or seeded_random"),
    "rng_seed": ("--seed", "seed for sampling and tie shuffling"),
    "ece_bins": ("--ece-bins", "bins for the ECE baseline"),
}


def _setting(name: str, text: str):
    """``text`` as EvalConfig field ``name`` takes it. A value the field
    rejects is a usage error, found before any file is read."""
    try:
        return EvalConfig.parse_field(name, text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_split_flags(p: argparse.ArgumentParser, *names: str, **renamed: str):
    """Add ``--manifest``, the flag of each EvalConfig field in ``names`` (its
    ``_CONFIG_FLAGS`` one, or the one ``renamed`` gives it), which stores
    under the field's name, and ``--threads``."""
    p.add_argument("--manifest", required=True, help="dataset manifest path")
    for name in names:
        flag, help = _CONFIG_FLAGS[name]
        p.add_argument(renamed.get(name, flag), dest=name, type=partial(_setting, name), help=help)
    p.add_argument("--threads", type=_thread_count, default=1, help="worker threads")


def _manifest_and_config(args) -> tuple[container_io.Manifest, EvalConfig]:
    """The manifest, and its settings overridden by the flags that were set;
    each flag stores under the name of the EvalConfig field it sets."""
    manifest = container_io.read_manifest(args.manifest)
    names = {f.name for f in fields(EvalConfig)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return manifest, replace(manifest.apply_overrides(EvalConfig()), **flags)


def _cmd_evaluate(args) -> int:
    manifest, config = _manifest_and_config(args)
    measures = MEASURES if args.measure == "both" else (_MEASURE_FLAGS[args.measure],)
    split = pool_split(manifest, config=config, measures=measures, threads=args.threads)
    report = evaluate_split(split, config=config, measures=measures)
    formats = ("json", "csv") if args.format == "both" else (args.format,)
    if args.per_frame and "json" in formats:
        report.provenance["per_frame_ause"] = per_frame_class_ause(
            split, config=config, measures=measures
        )
    out_dir = Path(args.out_dir or ".")
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
    # the name is part of a file name under --out-dir, which it must not leave
    if args.out_dir and {os.sep, os.altsep} & set(args.class_name):
        raise IoFailure(f"class name {args.class_name!r} cannot name a file under {args.out_dir}")
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
        path = Path(args.out_dir) / f"curves_{args.class_name}_{measure}.csv"
        print(f"csv: {container_io.write_text(text, path)}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _spec_from_json(path: str, seed_override: int | None) -> tuple[ScenarioSpec, int]:
    with container_io.reading(path), open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecInvalid(f"{path} is not valid JSON: {exc}") from None
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
    if args.preset == "degenerate-class":
        gt, probs = degenerate_class_scenario(seed=args.seed or 0)
        catalog = ClassCatalog(("class_00", "class_01", "class_02"))
        frames = 1 if args.frames is None else args.frames
    else:
        spec, spec_frames = _spec_from_json(args.spec, args.seed)
        frames = spec_frames if args.frames is None else args.frames
        gt, probs = generate(spec)
        catalog = spec.catalog()
    manifest_path = write_dataset(gt, probs, catalog, args.out_dir, frames=frames)
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
    with container_io.reading(path), open(path, "rb") as fh:
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
    _add_split_flags(p, *_CONFIG_FLAGS)
    p.add_argument("--out-dir", help="directory for output files")
    p.add_argument(
        "--measure",
        choices=("softmax", "entropy", "both"),
        default="both",
        help="confidence measure(s) to evaluate",
    )
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument(
        "--per-frame",
        action="store_true",
        help="embed diagnostic per-frame AUSE values in report.json (computed only for it)",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("curves", help="per-fraction curve data for one class")
    _add_split_flags(p, "grid_steps", "ranking_domain", "tie_break", "rng_seed")
    p.add_argument("--out-dir", help="directory for output files")
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
    _add_split_flags(p, "rng_seed", "ece_bins", ece_bins="--bins")
    p.set_defaults(func=_cmd_ece)

    p = sub.add_parser("inspect", help="describe a tensor container or manifest")
    p.add_argument("--path", required=True)
    p.set_defaults(func=_cmd_inspect)

    # each subcommand reports the flags it does not take under its own name
    for command in sub.choices.values():
        command.set_defaults(parser=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # every failure is reported as one line
        detail = " ".join(str(exc).split())
        print(f"sparseval: error: {type(exc).__name__}: {detail}", file=sys.stderr)
        # exit 2 means a SparsevalError, whatever its kind; anything else is a bug
        return EXIT_INPUT if isinstance(exc, SparsevalError) else EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
