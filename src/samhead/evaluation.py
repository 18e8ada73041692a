"""Detection metrics under the two fixed protocols the paper reports.

Caltech log-average miss rate (Dollár et al., PAMI 2012) counts the
"reasonable" subset, ``EvalProtocol``: ground truth at least 50 px tall,
occluded strictly less than ``OCCLUSION_MAX`` = 0.35, centered inside
``geometry.DEFAULT_EVAL_REGION`` and not flagged ignore.  MR-2 and MR-4 are
geometric means of the miss rate at ``MR_POINTS`` = 9 reference points of
false positives per image, log-spaced over [1e-2, 1] and [1e-4, 1].  KITTI
AP (Geiger et al., CVPR 2012) counts the easy, moderate and hard filters,
``KittiDifficulty``, and averages interpolated precision at ``AP_POINTS`` =
11 recall points.  Only the layer sweep varies anything: it narrows the
protocol's height range.

Matching is the same under every filter: ground truth the filter rejects
becomes an ignore region; detections are visited in descending score order
and take the highest-IoU unmatched eligible ground truth with IoU at or above
``IOU_THRESHOLD`` = 0.5; a detection whose only sufficient overlaps are
ignore regions is neither hit nor false positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .formats import open_text
from .geometry import (
    DEFAULT_EVAL_REGION,
    Detection,
    GroundTruthBox,
    in_eval_region,
    iou_matrix,
)

IOU_THRESHOLD = 0.5
OCCLUSION_MAX = 0.35
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
    inside ``DEFAULT_EVAL_REGION``.
    """

    height_min: float = 50.0
    height_max: float | None = None

    def __post_init__(self) -> None:
        if self.height_max is not None and self.height_max <= self.height_min:
            raise ConfigError("height_max must exceed height_min")

    def eligible(self, gt: GroundTruthBox) -> bool:
        return (
            not gt.ignore
            and gt.box.h >= self.height_min
            and (self.height_max is None or gt.box.h < self.height_max)
            and gt.occlusion < OCCLUSION_MAX
            and in_eval_region(gt.box, DEFAULT_EVAL_REGION)
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

    def eligible(self, gt: GroundTruthBox) -> bool:
        return (
            not gt.ignore
            and gt.box.h >= self.min_height
            and gt.occlusion <= self.max_occlusion
            and gt.truncation <= self.max_truncation
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


def match_image(dets: list[Detection], gts: list[GroundTruthBox], flt) -> ImageMatch:
    """Greedy score-order matching against one image's annotations.

    ``flt`` says which ground truth counts: an ``EvalProtocol`` for miss
    rate, a ``KittiDifficulty`` for AP, or anything else with an
    ``eligible(gt)`` predicate.  Ground truth it rejects is an ignore region.
    """
    return _match_filters(dets, gts, (flt,))[0]


def _match_filters(dets: list[Detection], gts: list[GroundTruthBox], filters) -> list[ImageMatch]:
    """``match_image`` under each filter, sorting and reading the overlaps once."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    scores = np.array([dets[i].score for i in order], dtype=np.float64)
    overlaps = iou_matrix([dets[i].box for i in order], [g.box for g in gts]).tolist()
    out = []
    for flt in filters:
        eligible = [flt.eligible(g) for g in gts]
        elig_idx = [i for i, e in enumerate(eligible) if e]
        ignore_idx = [i for i, e in enumerate(eligible) if not e]
        flags = []
        matched = [False] * len(elig_idx)
        for row in overlaps:
            best_j = -1
            best_iou = 0.0
            for slot, gi in enumerate(elig_idx):
                v = row[gi]
                if not matched[slot] and v >= IOU_THRESHOLD and v > best_iou:
                    best_iou = v
                    best_j = slot
            if best_j >= 0:
                matched[best_j] = True
                flags.append(TP)
            elif any(row[gi] >= IOU_THRESHOLD for gi in ignore_idx):
                flags.append(IGNORED)
            else:
                flags.append(FP)
        out.append(ImageMatch(scores=scores, flags=np.array(flags, dtype=np.int8),
                              eligible_gt=len(elig_idx),
                              gt_matched=np.array(matched, dtype=bool)))
    return out


@dataclass
class EvalCurve:
    """Sampled metric curve plus its scalar summary."""

    kind: str  # "fppi_miss" | "pr"
    samples: list[tuple[float, float, float]] = field(default_factory=list)
    summary: float = float("nan")


def evaluate_detections(
    dets_by_image: dict[str, list[Detection]],
    gts_by_image: dict[str, list[GroundTruthBox]],
    flt,
) -> list[ImageMatch]:
    """Match every annotated image under ``flt``; annotations define the image universe."""
    return _evaluate_filters(dets_by_image, gts_by_image, (flt,))[0]


def _evaluate_filters(dets_by_image, gts_by_image, filters) -> list[list[ImageMatch]]:
    """``evaluate_detections`` under each filter, one list of matches per filter."""
    unknown = set(dets_by_image) - set(gts_by_image)
    if unknown:
        raise DataError(f"detections reference unannotated images: {sorted(unknown)[:5]}")
    per_image = [
        _match_filters(dets_by_image.get(image_id, []), gts, filters)
        for image_id, gts in gts_by_image.items()
    ]
    return [[m[k] for m in per_image] for k in range(len(filters))]


def _pooled(matches: list[ImageMatch]) -> tuple[np.ndarray, np.ndarray]:
    """All counted detections pooled across images, sorted by descending score."""
    scores = np.concatenate([m.scores for m in matches]) if matches else np.empty(0)
    flags = np.concatenate([m.flags for m in matches]) if matches else np.empty(0, dtype=np.int8)
    keep = flags != IGNORED
    scores, flags = scores[keep], flags[keep]
    order = np.argsort(-scores, kind="stable")
    return scores[order], flags[order]


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
    if not matches:
        raise MetricUndefinedError("no images to evaluate")
    total_gt = sum(m.eligible_gt for m in matches)
    if total_gt == 0:
        raise MetricUndefinedError("no eligible ground truth under the protocol")
    n_images = len(matches)
    scores, flags = _pooled(matches)

    curve = EvalCurve(kind="fppi_miss")
    if scores.size:
        tp = np.cumsum(flags == TP)
        fp = np.cumsum(flags == FP)
        # Points sit at the last occurrence of each distinct score.
        last = np.flatnonzero(np.diff(scores, append=-np.inf) != 0.0)
        fppi = fp[last] / n_images
        miss = 1.0 - tp[last] / total_gt
        curve.samples = list(zip(scores[last].tolist(), fppi.tolist(), miss.tolist()))
    else:
        fppi = np.empty(0)
        miss = np.empty(0)

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
    if not matches:
        raise MetricUndefinedError("no images to evaluate")
    total_gt = sum(m.eligible_gt for m in matches)
    if total_gt == 0:
        raise MetricUndefinedError("no eligible ground truth under the difficulty filter")
    scores, flags = _pooled(matches)
    curve = EvalCurve(kind="pr")
    if scores.size == 0:
        curve.summary = 0.0
        return 0.0, curve
    tp = np.cumsum(flags == TP)
    fp = np.cumsum(flags == FP)
    recall = tp / total_gt
    precision = tp / np.maximum(tp + fp, 1)
    curve.samples = list(zip(scores.tolist(), recall.tolist(), precision.tolist()))
    vals = []
    for r in np.linspace(0.0, 1.0, AP_POINTS):
        mask = recall >= r - 1e-12
        vals.append(float(precision[mask].max()) if mask.any() else 0.0)
    ap = float(np.mean(vals))
    curve.summary = ap
    return ap, curve


def metrics_summary(
    dets_by_image: dict[str, list[Detection]],
    gts_by_image: dict[str, list[GroundTruthBox]],
) -> dict:
    """The standard metric bundle: MR-2 and MR-4, per-difficulty AP, counts.

    Metrics whose ground-truth pool is empty are reported as null rather than
    failing the whole summary.
    """
    filters = (EvalProtocol(), *KITTI_DIFFICULTIES)
    matches, *kitti = _evaluate_filters(dets_by_image, gts_by_image, filters)
    out: dict = {}
    try:
        out["mr2"] = log_average_miss_rate(matches, -2.0)[0]
        out["mr4"] = log_average_miss_rate(matches, -4.0)[0]
    except MetricUndefinedError:
        out["mr2"] = None
        out["mr4"] = None
    for diff, diff_matches in zip(KITTI_DIFFICULTIES, kitti):
        try:
            ap = average_precision(diff_matches)[0]
        except MetricUndefinedError:
            ap = None
        out[f"ap_{diff.name}"] = ap
    flags = np.concatenate([m.flags for m in matches]) if matches else np.empty(0)
    out["counts"] = {
        "images": len(matches),
        "eligible_gt": int(sum(m.eligible_gt for m in matches)),
        "detections": int(flags.size),
        "tp": int((flags == TP).sum()),
        "fp": int((flags == FP).sum()),
        "ignored_detections": int((flags == IGNORED).sum()),
    }
    return out


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
    if math.isnan(summary) and samples:
        raise DataError(f"{path}: curve with samples but no summary")
    return EvalCurve(kind=kind, samples=samples, summary=summary)
