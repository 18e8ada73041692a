"""Command-line entry points.

One JSON config file feeds every subcommand; each reads only its own
section ("synth", "train", "sweep") and falls back to defaults for anything
missing.  Evaluation has nothing to set: ``eval`` and ``sweep`` reject any
key in an "eval" section.  Errors exit 2 (bad config/usage), 3 (bad data),
or 4 (unexpected), with a one-line JSON diagnostic on stderr.  A config that
is not UTF-8 text exits 2, and a data, model or detections file that is not
exits 3.

Every section is read by ``config.read`` against its dataclass's field
types: an object for each nested dataclass (``"forest"``, ``"routing"``,
``"channels"``, ``"caps"``, a synth layer), a list for each tuple, a JSON
integer for ``int``, true/false for ``bool``, a string for ``str``, and a
number for ``float`` (an integer is read as a float).  Unknown keys and
missing required keys are errors too, so a routing bin must spell all four
of ``min_height``, ``max_height`` (null for the last bin), ``layers`` and
``projector_id``.  ``--seed`` replaces ``forest.seed``.  Any such mistake
exits 2 before data is read.

Values the paper fixes are constants, not config keys: the sample overlap
thresholds, training proposal budget, PCA sample counts, prior clamp and
background prior, and NMS overlap in ``samhead.pipeline``; leaf smoothing and
the margin past which boosting weights are computed relative to the smallest
margin in ``samhead.forest``; the edge histogram width in
``samhead.routing``; the label class count in ``samhead.maps``; and in
``samhead.evaluation`` the IoU threshold, occlusion cutoff, evaluation
region, miss-rate and AP sample counts and the Caltech and KITTI
ground-truth filters.  The synthetic world's fixed values
(image size, object heights, distractors, proposal jitter and priors,
channel roles, noise levels, label and edge clutter, the channel-assignment
seed) are constants in ``samhead.synth``; the "synth" section sets only
``num_images``, ``layers`` (each a ``stride``, ``channels`` and
``band_center``), ``peds_per_image``, ``background_proposals``,
``class_amp`` and ``contour_amp``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import config
from .dataset import Dataset
from .errors import ConfigError, SamheadError
from .evaluation import read_curve_csv, summary_and_curves, write_curve_csv
from .formats import FormatError, read_detections_csv, read_json, write_detections_csv, write_json
from .pipeline import (
    TrainSettings,
    ablation_sweep,
    detect_dataset,
    load_model,
    save_model,
    train_detector,
    write_sweep_csv,
)
from .plotting import write_curve_svg
from .synth import SynthConfig, generate_dataset

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = read_json(path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except FormatError as e:
        raise ConfigError(f"config {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object at top level")
    return cfg


def _train_settings(section, seed: int | None) -> TrainSettings:
    """The train section; ``seed``, unless None, replaces ``forest.seed``."""
    section = config.section(section, "train")
    if seed is not None:
        forest = config.section(section.get("forest", {}), "forest")
        section = {**section, "forest": {**forest, "seed": seed}}
    return config.read(TrainSettings, section, "train")


@dataclasses.dataclass(frozen=True)
class _SweepSection:
    combinations: tuple[tuple[str, ...], ...] | None = None  # None = every single and pair
    subsets: tuple[str, ...] = ("small", "large", "all")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# --- subcommands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = config.read(SynthConfig, _load_config(args.config).get("synth", {}), "synth")
    seed = 0 if args.seed is None else args.seed
    ds = generate_dataset(cfg, seed)
    ds.save(args.out)
    _emit({"command": "synth", "out": str(args.out), "images": len(ds), "seed": seed})
    return 0


def cmd_train(args) -> int:
    settings = _train_settings(_load_config(args.config).get("train", {}), args.seed)
    ds = Dataset.load(args.data)
    model, manifest = train_detector(ds, settings)
    save_model(args.out, model)
    manifest_path = args.manifest or str(args.out) + ".manifest.json"
    write_json(manifest_path, manifest)
    _emit(
        {
            "command": "train",
            "model": str(args.out),
            "manifest": str(manifest_path),
            "stages": len(manifest["stages"]),
            "descriptor_length": manifest["descriptor_length"],
        }
    )
    return 0


def cmd_detect(args) -> int:
    model = load_model(args.model)
    ds = Dataset.load(args.data)
    dets = detect_dataset(model, ds)
    write_detections_csv(args.out, dets)
    _emit(
        {
            "command": "detect",
            "out": str(args.out),
            "images": len(ds),
            "detections": sum(len(v) for v in dets.values()),
            "columns_read": int(model.forest.columns.size),
            "descriptor_length": model.extractor.length,
        }
    )
    return 0


def cmd_eval(args) -> int:
    config.section(_load_config(args.config).get("eval", {}), "eval", allowed=())
    ds = Dataset.load(args.data)
    dets = read_detections_csv(args.dets)
    gts = ds.ground_truth_by_image()
    summary, curves = summary_and_curves(dets, gts)
    write_json(args.out, summary)
    written = []
    if args.curves:
        for kind, curve in curves.items():
            written.append(f"{args.curves}.{kind}.csv")
            write_curve_csv(written[-1], curve)
    _emit(
        {
            "command": "eval",
            "out": str(args.out),
            "mr2": summary["mr2"],
            "mr4": summary["mr4"],
            "curves": written,
        }
    )
    return 0


def _default_combinations(ds: Dataset) -> list[tuple[str, ...]]:
    names = sorted(ds.layer_channels())
    singles = [(n,) for n in names]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    return singles + pairs


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    sweep = config.read(_SweepSection, cfg.get("sweep", {}), "sweep")
    settings = _train_settings(cfg.get("train", {}), args.seed)
    config.section(cfg.get("eval", {}), "eval", allowed=())
    train_ds = Dataset.load(args.train_data)
    test_ds = Dataset.load(args.test_data)
    rows = ablation_sweep(
        train_ds,
        test_ds,
        _default_combinations(train_ds) if sweep.combinations is None else sweep.combinations,
        subsets=sweep.subsets,
        settings=settings,
    )
    write_sweep_csv(args.out, rows)
    _emit({"command": "sweep", "out": str(args.out), "rows": len(rows)})
    return 0


def cmd_plot(args) -> int:
    curve = read_curve_csv(args.curve)
    write_curve_svg(args.out, curve, args.title)
    _emit({"command": "plot", "out": str(args.out), "kind": curve.kind})
    return 0


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="samhead",
        description="Scale-aware multi-layer detection head: synthesize data, "
        "train, detect, evaluate, sweep, plot.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True, seed=False):
        if config:
            sp.add_argument("--config", help="JSON config file (per-command sections)")
        if seed:
            sp.add_argument("--seed", type=int, help="override the run seed")

    sp = sub.add_parser("synth", help="generate a synthetic dataset directory")
    sp.add_argument("--out", required=True, help="dataset directory to create")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="train a detector on a dataset directory")
    sp.add_argument("--data", required=True, help="training dataset directory")
    sp.add_argument("--out", required=True, help="model JSON path")
    sp.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("detect", help="run a trained model over a dataset")
    sp.add_argument("--data", required=True, help="dataset directory")
    sp.add_argument("--model", required=True, help="model JSON path")
    sp.add_argument("--out", required=True, help="detections CSV path")
    common(sp, config=False)
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("eval", help="score detections against annotations")
    sp.add_argument("--data", required=True, help="dataset directory")
    sp.add_argument("--dets", required=True, help="detections CSV path")
    sp.add_argument("--out", required=True, help="metrics JSON path")
    sp.add_argument("--curves", help="also write <prefix>.fppi_miss.csv (MR-2) and "
                    "<prefix>.pr.csv (moderate AP), each when its metric is defined")
    common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="train fixed-layer ablations and tabulate miss rates")
    sp.add_argument("--train-data", required=True, help="training dataset directory")
    sp.add_argument("--test-data", required=True, help="test dataset directory")
    sp.add_argument("--out", required=True, help="sweep CSV path")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("plot", help="render a curve CSV to SVG")
    sp.add_argument("--curve", required=True, help="curve CSV from eval --curves")
    sp.add_argument("--out", required=True, help="SVG path")
    sp.add_argument("--title", help="plot title")
    common(sp, config=False)
    sp.set_defaults(func=cmd_plot)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        return _fail(EXIT_CONFIG, e)
    except SamheadError as e:
        return _fail(EXIT_DATA, e)
    except OSError as e:
        return _fail(EXIT_DATA, e)
    except Exception as e:  # noqa: BLE001 - last-resort diagnostic
        return _fail(EXIT_INTERNAL, e)


def _fail(code: int, exc: BaseException) -> int:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
