"""Command-line entry points.

One JSON config file feeds every subcommand; each reads only its own
section ("synth", "train", "eval", "sweep") and falls back to defaults for
anything missing.  Errors exit 2 (bad config/usage), 3 (bad data), or 4
(unexpected), with a one-line JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .dataset import Dataset
from .errors import ConfigError, DataError, SamheadError
from .evaluation import (
    EvalProtocol,
    KITTI_MODERATE,
    evaluate_detections,
    kitti_average_precision,
    log_average_miss_rate,
    metrics_summary,
    read_curve_csv,
    write_curve_csv,
)
from .forest import TrainConfig, basic_training_config
from .formats import read_detections_csv, write_detections_csv, write_metrics_json
from .geometry import RegionBounds
from .pipeline import (
    Caps,
    TrainSettings,
    ablation_sweep,
    detect_dataset,
    load_model,
    routing_table_from_dict,
    save_manifest,
    save_model,
    train_detector,
    write_sweep_csv,
)
from .plotting import write_curve_svg
from .routing import ChannelConfig, default_routing_table
from .synth import LayerSpec, SynthConfig, generate_dataset

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object at top level")
    return cfg


def _object(section, what: str) -> dict:
    """A copy of a config section, which must be a JSON object."""
    if not isinstance(section, dict):
        raise ConfigError(f"{what} section must be a JSON object, got {type(section).__name__}")
    return dict(section)


def _kwargs(cls, section, what: str) -> dict:
    section = _object(section, what)
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; allowed: {sorted(allowed)}")
    return section


def _as_tuple(d: dict, *names: str) -> None:
    for n in names:
        if n in d and d[n] is not None:
            d[n] = tuple(d[n])


def _synth_config(section: dict) -> SynthConfig:
    kw = _kwargs(SynthConfig, section, "synth")
    _as_tuple(kw, "peds_per_image", "small_heights", "large_heights",
              "distractors_per_image", "distractor_classes")
    if "layers" in kw:
        layers = {}
        for name, spec in _object(kw["layers"], "synth layers").items():
            layers[name] = LayerSpec(**_kwargs(LayerSpec, spec, f"layer {name!r}"))
        kw["layers"] = layers
    return SynthConfig(**kw)


def _train_config(section) -> TrainConfig:
    section = _object(section, "forest")
    schedule = section.pop("schedule", "full")
    if schedule == "full":
        base = TrainConfig()
    elif schedule == "basic":
        base = basic_training_config()
    else:
        raise ConfigError(f"unknown forest schedule {schedule!r}; use 'full' or 'basic'")
    kw = _kwargs(TrainConfig, section, "forest")
    _as_tuple(kw, "stage_tree_counts")
    return dataclasses.replace(base, **kw)


def _train_settings(section: dict, seed: int | None) -> TrainSettings:
    kw = _kwargs(TrainSettings, section, "train")
    if "routing" in kw:
        try:
            kw["routing"] = routing_table_from_dict(kw["routing"])
        except DataError as e:
            raise ConfigError(str(e)) from e
    if "channels" in kw:
        kw["channels"] = ChannelConfig(**_kwargs(ChannelConfig, kw["channels"], "channels"))
    kw["forest"] = _train_config(kw.get("forest", {}))
    if "caps" in kw:
        kw["caps"] = Caps(**_kwargs(Caps, kw["caps"], "caps"))
    settings = TrainSettings(**kw)
    if seed is not None:
        settings = dataclasses.replace(
            settings, forest=dataclasses.replace(settings.forest, seed=seed)
        )
    return settings


def _protocol(section: dict) -> EvalProtocol:
    kw = _kwargs(EvalProtocol, section, "eval")
    _as_tuple(kw, "fppi_exponents")
    if "region" in kw:
        region = kw["region"]
        if region is not None:
            if not (isinstance(region, (list, tuple)) and len(region) == 4):
                raise ConfigError(
                    f"region must be null or [x_min, x_max, y_min, y_max], got {region!r}"
                )
            kw["region"] = RegionBounds(*map(float, region))
    return EvalProtocol(**kw)


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("SAMHEAD_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"SAMHEAD_THREADS must be an integer, got {env!r}") from None
    return 1


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# --- subcommands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _synth_config(_load_config(args.config).get("synth", {}))
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
    save_manifest(manifest_path, manifest)
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
    dets = detect_dataset(model, ds, threads=_resolve_threads(args.threads))
    write_detections_csv(args.out, dets)
    _emit(
        {
            "command": "detect",
            "out": str(args.out),
            "images": len(ds),
            "detections": sum(len(v) for v in dets.values()),
        }
    )
    return 0


def cmd_eval(args) -> int:
    protocol = _protocol(_load_config(args.config).get("eval", {}))
    ds = Dataset.load(args.data)
    dets = read_detections_csv(args.dets)
    gts = ds.ground_truth_by_image()
    summary = metrics_summary(dets, gts, protocol)
    write_metrics_json(args.out, summary)
    if args.curves:
        matches = evaluate_detections(dets, gts, protocol)
        try:
            _, mr_curve = log_average_miss_rate(matches, protocol)
            write_curve_csv(f"{args.curves}.fppi_miss.csv", mr_curve)
        except SamheadError:
            pass
        try:
            _, pr_curve = kitti_average_precision(
                dets, gts, KITTI_MODERATE, iou_threshold=protocol.iou_threshold
            )
            write_curve_csv(f"{args.curves}.pr.csv", pr_curve)
        except SamheadError:
            pass
    _emit(
        {
            "command": "eval",
            "out": str(args.out),
            "mr2": summary["mr2"],
            "mr4": summary["mr4"],
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
    section = _object(cfg.get("sweep", {}), "sweep")
    unknown = sorted(set(section) - {"combinations", "subsets"})
    if unknown:
        raise ConfigError(f"unknown sweep keys {unknown}")
    train_ds = Dataset.load(args.train_data)
    test_ds = Dataset.load(args.test_data)
    combos = [tuple(c) for c in section.get("combinations", _default_combinations(train_ds))]
    subsets = tuple(section.get("subsets", ("small", "large", "all")))
    settings = _train_settings(cfg.get("train", {}), args.seed)
    protocol = _protocol(cfg.get("eval", {}))
    rows = ablation_sweep(
        train_ds,
        test_ds,
        combos,
        subsets=subsets,
        settings=settings,
        protocol=protocol,
        threads=_resolve_threads(args.threads),
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

    def common(sp, config=True, seed=False, threads=False):
        if config:
            sp.add_argument("--config", help="JSON config file (per-command sections)")
        if seed:
            sp.add_argument("--seed", type=int, help="override the run seed")
        if threads:
            sp.add_argument(
                "--threads",
                type=int,
                help="worker threads (default: SAMHEAD_THREADS or 1; <1 = all cores)",
            )

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
    common(sp, config=False, threads=True)
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("eval", help="score detections against annotations")
    sp.add_argument("--data", required=True, help="dataset directory")
    sp.add_argument("--dets", required=True, help="detections CSV path")
    sp.add_argument("--out", required=True, help="metrics JSON path")
    sp.add_argument("--curves", help="also write <prefix>.fppi_miss.csv / <prefix>.pr.csv")
    common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="train fixed-layer ablations and tabulate miss rates")
    sp.add_argument("--train-data", required=True, help="training dataset directory")
    sp.add_argument("--test-data", required=True, help="test dataset directory")
    sp.add_argument("--out", required=True, help="sweep CSV path")
    common(sp, seed=True, threads=True)
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
