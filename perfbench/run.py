#!/usr/bin/env python3
"""Benchmark runner for the samhead detection head.

    python3 perfbench/run.py --workload speed_train --seed 1 --seconds 45 --trace 0

One run builds a workload's inputs from ``--seed`` and measures the path a
CLI user takes: synth the train and test sets, save and load them, train and
save a model, load it, detect over the test set, write the detections CSV
and evaluate.  It repeats train-to-evaluate as often as the workload says,
spends the rest of ``--seconds`` on more detection passes, checks every
output, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes one untraced repetition, then wraps each layer's entry points
(see tracing.py) and reports per-layer metrics and the tracing overhead.
A full report (environment, seeds, hashes, sample counts) is written to
``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import FOREST_SEED, TEST_SYNTH, TRAIN_SEED, WORKLOADS, Workload, toy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 4  # throughput passes per untraced run, extra passes included
TIMEOUT_S = 150.0

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "detect_images_per_s": ("img/s", "higher"),
    "detect_image_p90_ms": ("ms", "lower"),
    "mr2": ("ratio", "lower"),
    "mr4": ("ratio", "lower"),
    "ap_easy": ("ratio", "higher"),
    "ap_moderate": ("ratio", "higher"),
    "ap_hard": ("ratio", "higher"),
    "model_bytes": ("bytes", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}


class WorkloadTimeout(Exception):
    """The run exceeded its wall-clock budget."""


def _on_alarm(signum, frame):
    raise WorkloadTimeout


def import_package():
    """The samhead package, with its modules imported, from the checkout's ``src``.

    The runner calls through these module objects at call time, so the
    tracer's wrappers take effect without the runner knowing about them.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import samhead.dataset
    import samhead.evaluation
    import samhead.forest
    import samhead.formats
    import samhead.pipeline
    import samhead.pooling
    import samhead.routing
    import samhead.synth

    return samhead


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def done(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def derive_seeds(seed: int) -> dict[str, int]:
    """The run seed draws the test set; training data and forest seed are pinned."""
    test = int(hashlib.sha256(f"{seed}:test".encode()).hexdigest()[:8], 16)
    return {"run": seed, "test_data": test, "train_data": TRAIN_SEED, "forest": FOREST_SEED}


@dataclass
class Inputs:
    """A workload's synth configs and training settings for one seed."""

    train_cfg: object
    test_cfg: object
    settings: object
    seeds: dict

    @classmethod
    def build(cls, pkg, w: Workload, seeds: dict) -> "Inputs":
        layers = dict(pkg.synth.default_synth_layers())
        layers["conv3"] = replace(layers["conv3"], channels=w.conv3_channels)
        base = dict(w.synth, layers=layers)
        settings = pkg.pipeline.TrainSettings(
            routing=pkg.routing.default_routing_table(grid=pkg.pooling.PoolGrid(*w.grid)),
            channels=pkg.routing.ChannelConfig(**w.channels),
            forest=pkg.forest.TrainConfig(seed=seeds["forest"], **w.forest),
            caps=pkg.pipeline.Caps(test_top_k=w.test_top_k),
        )
        return cls(
            train_cfg=pkg.synth.SynthConfig(num_images=w.train_images, **base),
            test_cfg=pkg.synth.SynthConfig(num_images=w.test_images, **{**base, **TEST_SYNTH}),
            settings=settings,
            seeds=seeds,
        )


def setup(pkg, inputs: Inputs, workdir: Path, tally: Tally):
    """Synth both sets, save them, load them back; returns (train, test, s, bytes).

    Each generated set is dropped once saved, so only one copy of the
    feature maps is alive at a time.
    """
    data = workdir / "data"
    shutil.rmtree(data, ignore_errors=True)
    t0 = perf_counter()
    generated = pkg.synth.generate_dataset(inputs.train_cfg, inputs.seeds["train_data"])
    generated.save(data / "train")
    generated = pkg.synth.generate_dataset(inputs.test_cfg, inputs.seeds["test_data"])
    generated.save(data / "test")
    expected = (generated.ground_truth_by_image(), generated.proposals_by_image())
    del generated
    train = pkg.dataset.Dataset.load(data / "train")
    test = pkg.dataset.Dataset.load(data / "test")
    seconds = perf_counter() - t0
    tally.check(
        (test.ground_truth_by_image(), test.proposals_by_image()) == expected,
        "test set does not load back as saved",
    )
    nbytes = sum(p.stat().st_size for p in data.rglob("*") if p.is_file())
    return train, test, seconds, nbytes


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_quality(quality: dict, w: Workload, tally: Tally) -> None:
    b = w.quality
    limits = {"mr2": (0.0, b.mr2_max), "mr4": (0.0, b.mr4_max)}
    for key in ("ap_easy", "ap_moderate", "ap_hard"):
        limits[key] = (b.ap_min, 1.0)
    for key, (lo, hi) in limits.items():
        v = quality.get(key)
        tally.check(
            v is not None and math.isfinite(v) and lo <= v <= hi,
            f"{key} = {v} is undefined or outside [{lo}, {hi}]",
        )


def detect_pass(pkg, model_path: Path, test, dets_path: Path) -> tuple[dict, float]:
    """The CLI user's detection path: ``load_model`` + ``detect_dataset`` + the CSV."""
    t0 = perf_counter()
    loaded = pkg.pipeline.load_model(model_path)
    dets = pkg.pipeline.detect_dataset(loaded, test, threads=1)
    pkg.formats.write_detections_csv(dets_path, dets)
    return dets, perf_counter() - t0


def run_rep(pkg, w: Workload, inputs: Inputs, train, test, workdir: Path, tally: Tally,
            first: bool) -> dict:
    """Train and save; detect per image in memory, then over the set with the reloaded model.

    The first repetition also checks that both models give byte-identical
    detections and that the CSV reads back; later ones are checked against
    it by ``check_repeatable``.
    """
    pipeline, formats = pkg.pipeline, pkg.formats
    model_path = workdir / "model.json"
    t0 = perf_counter()
    model, manifest = pipeline.train_detector(train, inputs.settings)
    pipeline.save_model(model_path, model)
    train_s = perf_counter() - t0
    tally.done()

    in_memory, latencies = {}, []
    for s in test:
        t = perf_counter()
        in_memory[s.image_id] = pipeline.detect_image(model, s.record, s.proposals)
        latencies.append(perf_counter() - t)
    tally.done(len(latencies))

    dets_path = workdir / "detections.csv"
    dets, detect_s = detect_pass(pkg, model_path, test, dets_path)
    tally.done(len(dets))

    if first:
        mem_path = workdir / "detections_in_memory.csv"
        formats.write_detections_csv(mem_path, in_memory)
        tally.check(
            mem_path.read_bytes() == dets_path.read_bytes(),
            "detections of the saved-then-loaded model differ from the in-memory model's",
        )
        tally.check(
            formats.read_detections_csv(dets_path) == {k: v for k, v in dets.items() if v},
            "detections CSV does not read back unchanged",
        )
    quality = pkg.evaluation.metrics_summary(dets, test.ground_truth_by_image())
    check_quality(quality, w, tally)
    return {
        "train_s": train_s,
        "detect_s": detect_s,
        "latencies": latencies,
        "images": len(dets),
        "quality": quality,
        "manifest": manifest,
        "model_bytes": model_path.stat().st_size,
        "model_sha256": _sha256(model_path),
        "detections_sha256": _sha256(dets_path),
        "detections": dets,
    }


def measure(run_one, seconds: float) -> list[dict]:
    """Call ``run_one(first)`` at least once, and while another call fits in ``seconds``."""
    reps = []
    t0 = perf_counter()
    while True:
        reps.append(run_one(not reps))
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def extra_passes(pkg, test, workdir: Path, tally: Tally, reps: list[dict],
                 seconds: float) -> list[dict]:
    """Spend ``seconds``, what is left of the budget, on more throughput passes.

    At least enough run to make ``MIN_PASSES`` with the repetitions' own.
    Each pass reloads the last saved model and must write the same CSV bytes.
    """
    last = reps[-1]
    passes = []
    pass_s = last["detect_s"]
    t0 = perf_counter()
    while (len(reps) + len(passes) < MIN_PASSES
           or perf_counter() - t0 + pass_s <= seconds):
        dets, s = detect_pass(pkg, workdir / "model.json", test, workdir / "detections.csv")
        tally.done(len(dets))
        tally.check(_sha256(workdir / "detections.csv") == last["detections_sha256"],
                    "a repeated detection pass wrote different detections")
        passes.append({"images": len(dets), "detect_s": s})
        pass_s = statistics.mean(p["detect_s"] for p in passes)
    return passes


def check_repeatable(reps: list[dict], tally: Tally) -> None:
    for r in reps[1:]:
        tally.check(
            r["model_sha256"] == reps[0]["model_sha256"]
            and r["detections_sha256"] == reps[0]["detections_sha256"],
            "a repeated run on the same inputs gave a different model or detections",
        )


def latency_ms(reps: list[dict], q: float) -> float:
    import numpy as np

    return 1e3 * float(np.percentile([x for r in reps for x in r["latencies"]], q))


def slowest_pass_images_per_s(passes: list[dict]) -> float:
    """Images per second of the slowest throughput pass.

    The host alternates between a fast and a slow state; see the README's
    Steadiness section for why the slow one is what a run can measure steadily.
    """
    return min(p["images"] / p["detect_s"] for p in passes)


def end_to_end(setup_times: list[float], reps: list[dict], extra: list[dict]) -> dict:
    """Latencies pool every repetition's samples; throughput reads the slowest
    of the repetitions' and the extra passes; quality is the same in each."""
    q = reps[0]["quality"]
    return {
        "setup_s": statistics.median(setup_times),
        "train_s": statistics.median(r["train_s"] for r in reps),
        "detect_images_per_s": slowest_pass_images_per_s(reps + extra),
        "detect_image_p90_ms": latency_ms(reps, 90),
        "mr2": q["mr2"],
        "mr4": q["mr4"],
        "ap_easy": q["ap_easy"],
        "ap_moderate": q["ap_moderate"],
        "ap_hard": q["ap_hard"],
        "model_bytes": float(reps[0]["model_bytes"]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _manifest_metrics(manifest: dict) -> dict:
    stages = manifest.get("stages", [])
    added = sum(s["hard_added"] for s in stages)
    requested = sum(s["hard_requested"] for s in stages)
    return {
        "forest.hard_neg_fill_ratio": added / requested if requested else 0.0,
        "forest.clamp_events": float(sum(s["clamp_events"] for s in stages)),
    }


def run_traced(pkg, w, inputs, train, test, workdir, tally, seconds, report) -> dict:
    """One untraced repetition, then traced ones; returns the per-layer metrics."""
    baseline = run_rep(pkg, w, inputs, train, test, workdir, tally, first=True)
    tracer = Tracer()
    tracer.install()
    try:
        train, test, _, nbytes = setup(pkg, inputs, workdir, tally)
        reps = measure(lambda first: run_rep(pkg, w, inputs, train, test, workdir, tally, first),
                       seconds)
    finally:
        tracer.uninstall()
    check_repeatable([baseline] + reps, tally)

    nproc = len(os.sched_getaffinity(0))
    model = pkg.pipeline.load_model(workdir / "model.json")
    t0 = perf_counter()
    dets = pkg.pipeline.detect_dataset(model, test, threads=nproc)
    nproc_s = perf_counter() - t0
    tally.check(dets == reps[0]["detections"],
                f"detect_dataset(threads={nproc}) differs from threads=1")

    values, absent = layer_metrics(tracer, reps=len(reps))
    try:
        values.update(_manifest_metrics(reps[0]["manifest"]))
    except (KeyError, TypeError):
        absent += ["forest.hard_neg_fill_ratio", "forest.clamp_events"]
    values["pipeline.detect_dataset_nproc.s"] = nproc_s
    values["dataset.bytes"] = float(nbytes)
    traced_train = statistics.median(r["train_s"] for r in reps)
    values["trace.overhead_train_s"] = traced_train - baseline["train_s"]
    values["trace.overhead_detect_images_per_s"] = (slowest_pass_images_per_s(reps)
                                                    - slowest_pass_images_per_s([baseline]))
    report["nproc"] = nproc
    report["quality"] = reps[0]["quality"]
    report["traced_reps"] = len(reps)
    report["spans"] = len(tracer.spans)
    report["absent"] = sorted(set(absent))
    report["hooks_absent"] = tracer.absent
    report["counter_errors"] = dict(tracer.counter_errors)
    report["untraced"] = {"train_s": baseline["train_s"],
                          "detect_images_per_s": slowest_pass_images_per_s([baseline])}
    report["reps"] = _rep_summaries([baseline] + reps)
    return values


def _rep_summaries(reps: list[dict]) -> list[dict]:
    return [
        {**{k: r[k] for k in ("train_s", "detect_s", "images", "model_bytes",
                              "model_sha256", "detections_sha256")},
         "latency_sum_s": sum(r["latencies"])}
        for r in reps
    ]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 timeout: float = TIMEOUT_S) -> tuple[dict, Tally, dict]:
    """Run one workload; returns (metrics, tally, report).

    Any exception, and running past ``timeout`` seconds, fails the run
    instead of escaping: the tally records it and the metrics stay partial.
    """
    pkg = import_package()
    tally = Tally()
    seeds = derive_seeds(seed)
    workdir = OUT / f"work-{w.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report: dict = {"workload": w.name, "seeds": seeds, "seconds": seconds,
                    "trace": trace, "timeout_s": timeout, "environment": environment()}
    metrics: dict = {}
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        inputs = Inputs.build(pkg, w, seeds)
        if trace:
            train, test, _, _ = setup(pkg, inputs, workdir, tally)
            metrics = run_traced(pkg, w, inputs, train, test, workdir, tally, seconds, report)
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                train = test = None  # let the previous copy go before the next setup
                train, test, s, nbytes = setup(pkg, inputs, workdir, tally)
                setup_times.append(s)
            t0 = perf_counter()
            reps = [run_rep(pkg, w, inputs, train, test, workdir, tally, first=i == 0)
                    for i in range(w.reps)]
            extra = extra_passes(pkg, test, workdir, tally, reps,
                                 seconds - (perf_counter() - t0))
            check_repeatable(reps, tally)
            metrics = end_to_end(setup_times, reps, extra)
            report["setup_s"] = setup_times
            report["dataset_bytes"] = nbytes
            report["latency_samples"] = sum(len(r["latencies"]) for r in reps)
            report["detect_image_p50_ms"] = latency_ms(reps, 50)
            report["quality"] = reps[0]["quality"]
            report["reps"] = _rep_summaries(reps)
            report["extra_passes_s"] = [p["detect_s"] for p in extra]
    except WorkloadTimeout:
        tally.check(False, f"run exceeded its {timeout:g} s timeout")
    except Exception as e:  # noqa: BLE001 - a failing library call fails the run
        tally.check(False, f"{type(e).__name__}: {e}")
        report["traceback"] = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace and metrics:
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["ok_ratio"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    report["errors"] = tally.errors
    report["metrics"] = metrics
    return metrics, tally, report


# --- environment ------------------------------------------------------------------


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


# --- command line ------------------------------------------------------------------


def result_line(metrics: dict, tally: Tally, trace: bool) -> dict:
    units = {n: u for n, (u, _) in (LAYER_METRICS if trace else END_TO_END).items()}
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()
                    if n in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="measurement budget; the workload's repetitions always run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="test-suite-sized inputs")
    args = ap.parse_args(argv)

    if not (SRC / "samhead" / "__init__.py").is_file():
        print(f"error: samhead sources not found under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.toy:
        w = toy(w)
    metrics, tally, report = run_workload(w, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{w.name}{'-toy' if args.toy else ''}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result_line(metrics, tally, bool(args.trace))))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
