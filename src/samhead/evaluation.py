"""Detection metrics under the two fixed protocols the paper reports.

Caltech log-average miss rate (Dollár et al., PAMI 2012) counts the
"reasonable" subset, ``EvalProtocol``: ground truth at least 50 px tall,
occluded strictly less than ``OCCLUSION_MAX`` = 0.35, centered inside
``EVAL_REGION`` = [5, 635] x [5, 475] (closed) and not flagged ignore.  MR-2
and MR-4 are geometric means of the miss rate at ``MR_POINTS`` = 9 reference
points of false positives per image, log-spaced over [1e-2, 1] and [1e-4, 1].
KITTI AP (Geiger et al., CVPR 2012) counts the easy, moderate and hard
filters, ``KittiDifficulty``, and averages interpolated precision at
``AP_POINTS`` = 11 recall points.  Only the layer sweep varies anything: it
narrows the protocol's height range.

Matching is the same under every filter: ground truth the filter rejects
becomes an ignore region; detections are visited in descending score order
and take the highest-IoU unmatched eligible ground truth with IoU at or above
``IOU_THRESHOLD`` = 0.5; a detection whose only sufficient overlaps are
ignore regions is neither hit nor false positive.  ``match_image`` (one
image) and ``evaluate_detections`` (a dataset) take a tuple of filters and
return one result per filter, so ``summary_and_curves`` matches each image
once for every metric and for the MR-2 and moderate PR curves it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .formats import open_text
from .geometry import GroundTruth, ScoredBoxes, iou_matrix

IOU_THRESHOLD = 0.5
OCCLUSION_MAX = 0.35
#: Closed (x_min, x_max, y_min, y_max) bounds on a counted box's center,
#: conventional for 640x480 street-scene footage.
EVAL_REGION = (5.0, 635.0, 5.0, 475.0)
MR_POINTS = 9
AP_POINTS = 11


class MetricUndefinedError(DataError):
    """The metric has no value (for example, zero eligible ground truth)."""


@dataclass(frozen=True)
class EvalProtocol:
    """The Caltech "reasonable" filter over a height range.

    Ground truth counts if it is not flagged ignore, is at least
    ``height_min`` and below ``height_max`` (None: no upper bound) pixels
    tall, is occluded strictly less than ``OCCLUSION_MAX``, and has its center
    inside ``EVAL_REGION``.
    """

    height_min: float = 50.0
    height_max: float | None = None

    def __post_init__(self) -> None:
        if self.height_max is not None and self.height_max <= self.height_min:
            raise ConfigError("height_max must exceed height_min")

    def eligible(self, gt: GroundTruth) -> np.ndarray:
        """Which of an image's annotations count, as a bool per box."""
        x_min, x_max, y_min, y_max = EVAL_REGION
        x, y, w, h = gt.boxes.T
        cx, cy = x + 0.5 * w, y + 0.5 * h
        return (
            ~gt.ignore
            & (h >= self.height_min)
            & (self.height_max is None or h < self.height_max)
            & (gt.occl < OCCLUSION_MAX)
            & (x_min <= cx) & (cx <= x_max)
            & (y_min <= cy) & (cy <= y_max)
        )


@dataclass(frozen=True)
class KittiDifficulty:
    """Height/occlusion/truncation filter; stricter ground truth is ignored.

    Occlusion levels are expressed as maximum occluded fraction: level 0
    (fully visible) as <= 0.10, level 1 as <= 0.50, level 2 as <= 0.80.
    """

    name: str
    min_height: float
    max_occlusion: float
    max_truncation: float

    def eligible(self, gt: GroundTruth) -> np.ndarray:
        """Which of an image's annotations count, as a bool per box."""
        return (
            ~gt.ignore
            & (gt.boxes[:, 3] >= self.min_height)
            & (gt.occl <= self.max_occlusion)
            & (gt.trunc <= self.max_truncation)
        )


KITTI_EASY = KittiDifficulty("easy", 40.0, 0.10, 0.15)
KITTI_MODERATE = KittiDifficulty("moderate", 25.0, 0.50, 0.30)
KITTI_HARD = KittiDifficulty("hard", 25.0, 0.80, 0.50)
KITTI_DIFFICULTIES = (KITTI_EASY, KITTI_MODERATE, KITTI_HARD)

TP, FP, IGNORED = 1, 0, -1


@dataclass
class ImageMatch:
    """Per-image matching outcome, detections ordered by descending score."""

    scores: np.ndarray
    flags: np.ndarray  # TP / FP / IGNORED per detection
    eligible_gt: int
    gt_matched: np.ndarray  # bool per eligible-filtered gt (eligible only)


def match_image(dets: ScoredBoxes, gts: GroundTruth, filters) -> list[ImageMatch]:
    """Greedy score-order matching against one image's annotations, once per filter.

    Each filter says which ground truth counts: an ``EvalProtocol`` for miss
    rate, a ``KittiDifficulty`` for AP, or anything else whose
    ``eligible(gts)`` gives a bool per annotation.  Ground truth it rejects
    is an ignore region.  The detections are sorted and their overlaps read
    once for all filters.
    """
    order = np.argsort(-dets.scores, kind="stable")
    overlaps = iou_matrix(dets.boxes[order], gts.boxes)
    hits = overlaps >= IOU_THRESHOLD
    out = []
    for flt in filters:
        eligible = np.asarray(flt.eligible(gts), dtype=bool)
        flags = np.where((hits & ~eligible).any(axis=1), IGNORED, FP).astype(np.int8)
        free = eligible.copy()
        for k in np.flatnonzero((hits & eligible).any(axis=1)).tolist():
            claim = np.where(hits[k] & free, overlaps[k], 0.0)
            if claim.any():  # the best free eligible overlap, the first on ties
                free[claim.argmax()] = False
                flags[k] = TP
        out.append(ImageMatch(scores=dets.scores[order], flags=flags,
                              eligible_gt=int(eligible.sum()), gt_matched=~free[eligible]))
    return out


@dataclass
class EvalCurve:
    """Sampled metric curve plus its scalar summary."""

    kind: str  # "fppi_miss" | "pr"
    samples: list[tuple[float, float, float]] = field(default_factory=list)
    summary: float = float("nan")


def evaluate_detections(
    dets_by_image: dict[str, ScoredBoxes],
    gts_by_image: dict[str, GroundTruth],
    filters,
) -> list[list[ImageMatch]]:
    """Match every annotated image under each filter, one list of matches per filter.

    The annotations define the image universe: an annotated image without
    detections still counts, and detections on an unannotated image are a
    ``DataError``.
    """
    unknown = set(dets_by_image) - set(gts_by_image)
    if unknown:
        raise DataError(f"detections reference unannotated images: {sorted(unknown)[:5]}")
    per_image = [
        match_image(dets_by_image.get(image_id, ScoredBoxes()), gts, filters)
        for image_id, gts in gts_by_image.items()
    ]
    return [[m[k] for m in per_image] for k in range(len(filters))]


def _pooled_counts(matches: list[ImageMatch]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Counted detections pooled across images, by descending score.

    Returns their scores, the cumulative TP and FP counts down that order,
    and the eligible ground-truth total, which is never zero.
    """
    if not matches:
        raise MetricUndefinedError("no images to evaluate")
    total_gt = sum(m.eligible_gt for m in matches)
    if total_gt == 0:
        raise MetricUndefinedError("no eligible ground truth under the filter")
    scores = np.concatenate([m.scores for m in matches])
    flags = np.concatenate([m.flags for m in matches])
    keep = flags != IGNORED
    scores, flags = scores[keep], flags[keep]
    order = np.argsort(-scores, kind="stable")
    scores, flags = scores[order], flags[order]
    return scores, np.cumsum(flags == TP), np.cumsum(flags == FP), total_gt


def log_average_miss_rate(
    matches: list[ImageMatch],
    min_exponent: float,
) -> tuple[float, EvalCurve]:
    """Geometric mean of miss rate at ``MR_POINTS`` FPPI points over [10**min_exponent, 1].

    MR-2 is ``min_exponent=-2.0``, MR-4 is ``-4.0``.  The (fppi, miss) curve
    is swept over all detection scores.  Each reference point reads the miss
    rate at the largest achieved FPPI not exceeding it, falling back to the
    curve's maximum miss rate (or 1.0 for an empty curve).  Miss rates are
    floored at 1e-10 before the log.
    """
    scores, tp, fp, total_gt = _pooled_counts(matches)
    # Points sit at the last occurrence of each distinct score.
    last = np.flatnonzero(np.diff(scores, append=-np.inf) != 0.0)
    fppi = fp[last] / len(matches)
    miss = 1.0 - tp[last] / total_gt
    curve = EvalCurve(kind="fppi_miss",
                      samples=list(zip(scores[last].tolist(), fppi.tolist(), miss.tolist())))

    refs = np.power(10.0, np.linspace(min_exponent, 0.0, MR_POINTS))
    vals = []
    for ref in refs:
        ok = np.flatnonzero(fppi <= ref + 1e-12)
        if ok.size:
            v = float(miss[ok[-1]])
        elif miss.size:
            v = float(miss.max())
        else:
            v = 1.0
        vals.append(max(v, 1e-10))
    mr = float(np.exp(np.mean(np.log(vals))))
    curve.summary = mr
    return mr, curve


def average_precision(matches: list[ImageMatch]) -> tuple[float, EvalCurve]:
    """Interpolated AP: mean over ``AP_POINTS`` recall points of max precision at recall >= r."""
    scores, tp, fp, total_gt = _pooled_counts(matches)
    recall = tp / total_gt
    precision = tp / np.maximum(tp + fp, 1)
    curve = EvalCurve(kind="pr",
                      samples=list(zip(scores.tolist(), recall.tolist(), precision.tolist())))
    vals = []
    for r in np.linspace(0.0, 1.0, AP_POINTS):
        mask = recall >= r - 1e-12
        vals.append(float(precision[mask].max()) if mask.any() else 0.0)
    ap = float(np.mean(vals))
    curve.summary = ap
    return ap, curve


def _or_none(metric, *args):
    """``metric(*args)``, or None when the metric is undefined."""
    try:
        return metric(*args)
    except MetricUndefinedError:
        return None


def summary_and_curves(
    dets_by_image: dict[str, ScoredBoxes],
    gts_by_image: dict[str, GroundTruth],
) -> tuple[dict, dict[str, EvalCurve]]:
    """``metrics_summary``'s bundle plus the curves behind MR-2 and moderate AP.

    Every image is matched once, under all filters.  The curves are keyed by
    kind: "fppi_miss" is the MR-2 curve and "pr" the KITTI moderate curve,
    each present only when its metric is defined, and each curve's summary
    is its metric.
    """
    filters = (EvalProtocol(), *KITTI_DIFFICULTIES)
    matches, *kitti = evaluate_detections(dets_by_image, gts_by_image, filters)
    results = {
        "mr2": _or_none(log_average_miss_rate, matches, -2.0),
        "mr4": _or_none(log_average_miss_rate, matches, -4.0),
    }
    for diff, diff_matches in zip(KITTI_DIFFICULTIES, kitti):
        results[f"ap_{diff.name}"] = _or_none(average_precision, diff_matches)
    out: dict = {key: None if r is None else r[0] for key, r in results.items()}
    curves = {r[1].kind: r[1] for r in (results["mr2"], results["ap_moderate"]) if r is not None}
    flags = np.concatenate([m.flags for m in matches]) if matches else np.empty(0)
    out["counts"] = {
        "images": len(matches),
        "eligible_gt": int(sum(m.eligible_gt for m in matches)),
        "detections": int(flags.size),
        "tp": int((flags == TP).sum()),
        "fp": int((flags == FP).sum()),
        "ignored_detections": int((flags == IGNORED).sum()),
    }
    return out, curves


def metrics_summary(
    dets_by_image: dict[str, ScoredBoxes],
    gts_by_image: dict[str, GroundTruth],
) -> dict:
    """The standard metric bundle: MR-2 and MR-4, per-difficulty AP, counts.

    Metrics whose ground-truth pool is empty are reported as null rather than
    failing the whole summary.
    """
    return summary_and_curves(dets_by_image, gts_by_image)[0]


# --- curve CSV round trip ---------------------------------------------------

_CURVE_HEADERS = {
    "fppi_miss": ["threshold", "fppi", "miss_rate"],
    "pr": ["threshold", "recall", "precision"],
}


def write_curve_csv(path, curve: EvalCurve) -> None:
    import csv

    if curve.kind not in _CURVE_HEADERS:
        raise DataError(f"unknown curve kind {curve.kind!r}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kind", curve.kind, repr(float(curve.summary))])
        w.writerow(_CURVE_HEADERS[curve.kind])
        for a, b, c in curve.samples:
            w.writerow([repr(float(a)), repr(float(b)), repr(float(c))])


def read_curve_csv(path) -> EvalCurve:
    import csv

    with open_text(path, newline="") as f:
        rows = list(csv.reader(f))
    head = rows[0] if rows else []
    if len(rows) < 2 or len(head) != 3 or head[0] != "kind" or head[1] not in _CURVE_HEADERS:
        raise DataError(f"{path}: not a curve file")
    kind = head[1]
    if rows[1] != _CURVE_HEADERS[kind]:
        raise DataError(f"{path}: unexpected columns {rows[1]}")
    try:
        samples = [(float(a), float(b), float(c)) for a, b, c in rows[2:]]
        summary = float(head[2])
    except ValueError as e:
        raise DataError(f"{path}: malformed curve row ({e})") from None
    for lineno, sample in enumerate(samples, start=3):
        if not all(math.isfinite(v) for v in sample):
            raise DataError(f"{path}:{lineno}: non-finite curve sample {list(sample)}")
    # MR and AP lie in [0, 1]: only an empty curve, whose metric is
    # undefined, may carry a nan summary, and no curve an infinite one.
    if math.isinf(summary) or (samples and math.isnan(summary)):
        raise DataError(f"{path}: curve summary {summary} is not finite")
    return EvalCurve(kind=kind, samples=samples, summary=summary)
