"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions each layer is entered through,
at the name its caller looks up (a module attribute or a class attribute).
Every call becomes a span with a parent, so a layer's self time is its span
minus its child spans.  Spans stay in memory until ``layer_metrics`` folds
them into per-layer numbers.

A hook whose target no longer exists (a function renamed, merged or moved)
is reported in ``Tracer.absent`` and the run carries on; the metrics that
depend on it are left out of the values and listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.counts: dict[str, float] = {}

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def has_ancestor(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


# --- counters: read work counts off a hooked call's arguments and result ------


def _count_nodes(span, args, kwargs, result):
    span.counts["nodes"] = result.n_nodes


def _count_rows(span, args, kwargs, result):
    span.counts["rows"] = args[0].shape[0]


def _count_kept(span, args, kwargs, result):
    span.counts["in"] = len(args[0])
    span.counts["kept"] = len(result)


def _count_top(span, args, kwargs, result):
    model, _record, proposals = args[:3]
    span.counts["top"] = min(len(proposals), model.caps.test_top_k)


def _count_boxes(route):
    def count(span, args, kwargs, result):
        extractor, _record, boxes = args[:3]
        span.counts["boxes"] = len(boxes)
        if route is not None:
            bins = extractor.table.bins
            for b in boxes:
                key = "bin." + bins[route(extractor.table, b.h)].projector_id
                span.counts[key] = span.counts.get(key, 0) + 1

    return count


# (span name, module, attribute or "Class.attribute", counter factory or None)
HOOKS = (
    ("pipeline.train_detector", "samhead.pipeline", "train_detector", None),
    ("pipeline.detect_dataset", "samhead.pipeline", "detect_dataset", None),
    ("pipeline.detect_image", "samhead.pipeline", "detect_image", lambda: _count_top),
    ("pipeline.save_model", "samhead.pipeline", "save_model", None),
    ("pipeline.load_model", "samhead.pipeline", "load_model", None),
    ("forest.bootstrap_train", "samhead.pipeline", "bootstrap_train", None),
    ("forest.train_tree", "samhead.forest", "train_tree", lambda: _count_nodes),
    ("forest.binner", "samhead.forest", "FeatureBinner.__init__", None),
    ("forest.tree_apply", "samhead.forest", "Tree.apply", None),
    ("forest.score", "samhead.forest", "Forest.score", None),
    ("routing.extract_many", "samhead.routing", "DescriptorExtractor.extract_many",
     lambda: _count_boxes(_lookup("samhead.routing", "route"))),
    ("routing.pool_bin_cells", "samhead.routing", "pool_bin_cells", None),
    ("routing.pool_bin_cells", "samhead.pipeline", "pool_bin_cells", None),
    ("pooling.roi_max_pool", "samhead.routing", "roi_max_pool", None),
    ("pooling.roi_histogram_pool", "samhead.routing", "roi_histogram_pool", None),
    ("pooling.roi_edge_pool", "samhead.routing", "roi_edge_pool", None),
    ("pca.fit_pca", "samhead.pipeline", "fit_pca", lambda: _count_rows),
    ("pca.project", "samhead.pca", "PcaProjector.project", None),
    ("geometry.nms", "samhead.pipeline", "nms", lambda: _count_kept),
    ("evaluation.metrics_summary", "samhead.evaluation", "metrics_summary", None),
    ("synth.generate_dataset", "samhead.synth", "generate_dataset", None),
    ("dataset.save", "samhead.dataset", "Dataset.save", None),
    ("dataset.load", "samhead.dataset", "Dataset.load", None),
)


def _lookup(module: str, attr: str):
    try:
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj


class Tracer:
    """Span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.counter_errors: Counter = Counter()
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.total_s
                tracer.spans.append(span)
            if counter is not None:
                try:
                    counter(span, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.counter_errors[name] += 1
            return result

        return traced

    def install(self) -> None:
        for name, module, attr, counter_factory in HOOKS:
            owner_path, _, leaf = attr.rpartition(".")
            owner = _lookup(module, owner_path)
            raw = inspect.getattr_static(owner, leaf, None) if owner is not None else None
            if raw is None:
                self.absent.append(f"{name} ({module}.{attr})")
                continue
            counter = counter_factory() if counter_factory else None
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
            setattr(owner, leaf, wrapped)
            self._undo.append((owner, leaf, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, raw = self._undo.pop()
            setattr(owner, leaf, raw)


# --- per-layer metrics -----------------------------------------------------------

# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "forest.train_tree.s": ("s", "lower"),
    "forest.train_tree.calls": ("count", "lower"),
    "forest.train_tree.nodes": ("count", "lower"),
    "forest.train_tree.ms_per_node": ("ms", "lower"),
    "forest.train_tree.share_of_train": ("ratio", "lower"),
    "forest.binner.s": ("s", "lower"),
    "forest.tree_apply.s": ("s", "lower"),
    "forest.score_mining.s": ("s", "lower"),
    "forest.score_detect.s": ("s", "lower"),
    "forest.hard_neg_fill_ratio": ("ratio", "higher"),
    "forest.clamp_events": ("count", "lower"),
    "routing.extract_many.s": ("s", "lower"),
    "routing.boxes": ("count", "lower"),
    "routing.us_per_box": ("us", "lower"),
    "routing.boxes_bin.small": ("count", "lower"),
    "routing.boxes_bin.large": ("count", "lower"),
    "routing.pool_bin_cells.calls": ("count", "lower"),
    "routing.pooling_share_of_detect": ("ratio", "lower"),
    "pooling.roi_max_pool.s": ("s", "lower"),
    "pooling.roi_max_pool.calls": ("count", "lower"),
    "pooling.roi_histogram_pool.s": ("s", "lower"),
    "pooling.roi_histogram_pool.calls": ("count", "lower"),
    "pooling.roi_edge_pool.s": ("s", "lower"),
    "pooling.roi_edge_pool.calls": ("count", "lower"),
    "pca.fit_pca.s": ("s", "lower"),
    "pca.fit_pca.calls": ("count", "lower"),
    "pca.fit_pca.rows": ("count", "lower"),
    "pca.project.s": ("s", "lower"),
    "pca.project.calls": ("count", "lower"),
    "geometry.nms.s": ("s", "lower"),
    "geometry.nms_kept_ratio": ("ratio", "lower"),
    "pipeline.train_detector.s": ("s", "lower"),
    "pipeline.detect_dataset.s": ("s", "lower"),
    "pipeline.candidates_scored": ("count", "lower"),
    "pipeline.candidates_dropped_outside": ("count", "lower"),
    "pipeline.save_model.s": ("s", "lower"),
    "pipeline.load_model.s": ("s", "lower"),
    "pipeline.detect_dataset_nproc.s": ("s", "lower"),
    "evaluation.metrics_summary.s": ("s", "lower"),
    "synth.generate_dataset.s": ("s", "lower"),
    "dataset.save.s": ("s", "lower"),
    "dataset.load.s": ("s", "lower"),
    "dataset.bytes": ("bytes", "lower"),
    "trace.overhead_train_s": ("s", "lower"),
    "trace.overhead_detect_images_per_s": ("img/s", "higher"),
}

# Metrics that need a hook, by the span names they read.
_NEEDS = {
    "forest.train_tree": ("forest.train_tree.s", "forest.train_tree.calls",
                          "forest.train_tree.nodes", "forest.train_tree.ms_per_node",
                          "forest.train_tree.share_of_train"),
    "forest.binner": ("forest.binner.s",),
    "forest.tree_apply": ("forest.tree_apply.s",),
    "forest.score": ("forest.score_mining.s", "forest.score_detect.s"),
    "forest.bootstrap_train": ("forest.score_mining.s",),
    "routing.extract_many": ("routing.extract_many.s", "routing.boxes", "routing.us_per_box",
                             "routing.boxes_bin.small", "routing.boxes_bin.large",
                             "pipeline.candidates_scored",
                             "pipeline.candidates_dropped_outside"),
    "routing.pool_bin_cells": ("routing.pool_bin_cells.calls",),
    "pooling.roi_max_pool": ("pooling.roi_max_pool.s", "pooling.roi_max_pool.calls"),
    "pooling.roi_histogram_pool": ("pooling.roi_histogram_pool.s",
                                   "pooling.roi_histogram_pool.calls"),
    "pooling.roi_edge_pool": ("pooling.roi_edge_pool.s", "pooling.roi_edge_pool.calls"),
    "pca.fit_pca": ("pca.fit_pca.s", "pca.fit_pca.calls", "pca.fit_pca.rows"),
    "pca.project": ("pca.project.s", "pca.project.calls"),
    "geometry.nms": ("geometry.nms.s", "geometry.nms_kept_ratio"),
    "pipeline.train_detector": ("pipeline.train_detector.s",
                                "forest.train_tree.share_of_train"),
    "pipeline.detect_dataset": ("pipeline.detect_dataset.s",
                                "routing.pooling_share_of_detect"),
    "pipeline.detect_image": ("forest.score_detect.s", "pipeline.candidates_scored",
                              "pipeline.candidates_dropped_outside"),
    "pipeline.save_model": ("pipeline.save_model.s",),
    "pipeline.load_model": ("pipeline.load_model.s",),
    "evaluation.metrics_summary": ("evaluation.metrics_summary.s",),
    "synth.generate_dataset": ("synth.generate_dataset.s",),
    "dataset.save": ("dataset.save.s",),
    "dataset.load": ("dataset.load.s",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, reps: int) -> tuple[dict, list[str]]:
    """Per-layer numbers per traced repetition; set-up layers are for one set-up.

    Returns ``(values, absent)``: ``values`` has every span-derived entry of
    ``LAYER_METRICS`` but those named in ``absent``, whose hook target was
    missing: a 0 there could not be told from a real 0.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    score = {"mining": 0.0, "detect": 0.0}
    scored_in_detect = 0.0
    top_in_detect = 0.0
    detect_routing_pooling = 0.0
    for sp in tracer.spans:
        self_s[sp.name] += sp.self_s
        total_s[sp.name] += sp.total_s
        calls[sp.name] += 1
        for k, v in sp.counts.items():
            counts[f"{sp.name}.{k}"] += v
        parent = sp.parent.name if sp.parent is not None else None
        if sp.name == "forest.score":
            if parent == "forest.bootstrap_train":
                score["mining"] += sp.self_s
            elif parent == "pipeline.detect_image":
                score["detect"] += sp.self_s
        if sp.name == "routing.extract_many" and parent == "pipeline.detect_image":
            scored_in_detect += sp.counts.get("boxes", 0)
        if sp.name == "pipeline.detect_image":
            top_in_detect += sp.counts.get("top", 0)
        if sp.name.startswith(("routing.", "pooling.")) and sp.has_ancestor(
            "pipeline.detect_dataset"
        ):
            detect_routing_pooling += sp.self_s

    def per_rep(x: float) -> float:
        return x / reps

    v = {
        "forest.train_tree.s": per_rep(self_s["forest.train_tree"]),
        "forest.train_tree.calls": per_rep(calls["forest.train_tree"]),
        "forest.train_tree.nodes": per_rep(counts["forest.train_tree.nodes"]),
        "forest.train_tree.ms_per_node": 1e3 * _ratio(
            self_s["forest.train_tree"], counts["forest.train_tree.nodes"]
        ),
        "forest.train_tree.share_of_train": _ratio(
            self_s["forest.train_tree"], total_s["pipeline.train_detector"]
        ),
        "forest.binner.s": per_rep(self_s["forest.binner"]),
        "forest.tree_apply.s": per_rep(self_s["forest.tree_apply"]),
        "forest.score_mining.s": per_rep(score["mining"]),
        "forest.score_detect.s": per_rep(score["detect"]),
        "routing.extract_many.s": per_rep(self_s["routing.extract_many"]),
        "routing.boxes": per_rep(counts["routing.extract_many.boxes"]),
        "routing.us_per_box": 1e6 * _ratio(
            total_s["routing.extract_many"], counts["routing.extract_many.boxes"]
        ),
        "routing.boxes_bin.small": per_rep(counts["routing.extract_many.bin.small"]),
        "routing.boxes_bin.large": per_rep(counts["routing.extract_many.bin.large"]),
        "routing.pool_bin_cells.calls": per_rep(calls["routing.pool_bin_cells"]),
        "routing.pooling_share_of_detect": _ratio(
            detect_routing_pooling, total_s["pipeline.detect_dataset"]
        ),
        "pca.fit_pca.rows": per_rep(counts["pca.fit_pca.rows"]),
        "geometry.nms_kept_ratio": _ratio(counts["geometry.nms.kept"],
                                          counts["geometry.nms.in"]),
        "pipeline.candidates_scored": per_rep(scored_in_detect),
        "pipeline.candidates_dropped_outside": per_rep(top_in_detect - scored_in_detect),
        "synth.generate_dataset.s": self_s["synth.generate_dataset"],
        "dataset.save.s": self_s["dataset.save"],
        "dataset.load.s": self_s["dataset.load"],
    }
    for hook in ("pooling.roi_max_pool", "pooling.roi_histogram_pool",
                 "pooling.roi_edge_pool", "pca.fit_pca", "pca.project"):
        v[f"{hook}.s"] = per_rep(self_s[hook])
        v[f"{hook}.calls"] = per_rep(calls[hook])
    for hook in ("geometry.nms", "pipeline.train_detector", "pipeline.detect_dataset",
                 "pipeline.save_model", "pipeline.load_model",
                 "evaluation.metrics_summary"):
        v[f"{hook}.s"] = per_rep(self_s[hook])

    missing = {entry.split(" ")[0] for entry in tracer.absent}
    absent = sorted({m for hook in missing for m in _NEEDS.get(hook, ())})
    for m in absent:
        del v[m]
    return v, absent
