"""Detection metrics: greedy matching, log-average miss rate, interpolated AP.

Matching follows the usual single-class street-scene protocol: ground truth
outside the filter (too small, too occluded, center out of region, or flagged
ignore) becomes an ignore region; detections are visited in descending score
order and take the highest-IoU unmatched eligible ground truth at or above
the IoU threshold; a detection whose only sufficient overlaps are ignore
regions is neither hit nor false positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .geometry import (
    DEFAULT_EVAL_REGION,
    Detection,
    GroundTruthBox,
    RegionBounds,
    in_eval_region,
    iou,
)


class MetricUndefinedError(DataError):
    """The metric has no value (for example, zero eligible ground truth)."""


@dataclass(frozen=True)
class EvalProtocol:
    """Which ground truth counts, and where the miss-rate curve is sampled.

    ``fppi_exponents`` bounds the log10 range of false-positives-per-image
    reference points; ``num_points`` are placed log-uniformly across it.
    Occlusion is filtered strictly below ``occlusion_max``.
    """

    iou_threshold: float = 0.5
    height_min: float = 50.0
    height_max: float | None = None
    occlusion_max: float = 0.35
    region: RegionBounds | None = DEFAULT_EVAL_REGION
    fppi_exponents: tuple[float, float] = (-2.0, 0.0)
    num_points: int = 9

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ConfigError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        if self.height_max is not None and self.height_max <= self.height_min:
            raise ConfigError("height_max must exceed height_min")
        if self.fppi_exponents[0] >= self.fppi_exponents[1]:
            raise ConfigError(f"bad fppi exponent range {self.fppi_exponents}")
        if self.num_points < 1:
            raise ConfigError("num_points must be >= 1")

    def eligible(self, gt: GroundTruthBox) -> bool:
        if gt.ignore:
            return False
        if gt.box.h < self.height_min:
            return False
        if self.height_max is not None and gt.box.h >= self.height_max:
            return False
        if gt.occlusion >= self.occlusion_max:
            return False
        if self.region is not None and not in_eval_region(gt.box, self.region):
            return False
        return True


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


def match_image(dets: list[Detection], gts: list[GroundTruthBox], proto) -> ImageMatch:
    """Greedy score-order matching against one image's annotations.

    ``proto`` is anything with an ``eligible(gt)`` predicate and an
    ``iou_threshold`` attribute (EvalProtocol or KittiDifficulty plus a
    threshold works; see ``_FilterWithThreshold``).
    """
    thr = proto.iou_threshold
    eligible = [proto.eligible(g) for g in gts]
    elig_idx = [i for i, e in enumerate(eligible) if e]
    ignore_idx = [i for i, e in enumerate(eligible) if not e]

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    scores = np.array([dets[i].score for i in order], dtype=np.float64)
    flags = np.empty(len(dets), dtype=np.int8)
    taken = [False] * len(gts)
    matched = np.zeros(len(elig_idx), dtype=bool)

    for rank, di in enumerate(order):
        dbox = dets[di].box
        best_j = -1
        best_iou = 0.0
        for slot, gi in enumerate(elig_idx):
            if taken[gi]:
                continue
            v = iou(dbox, gts[gi].box)
            if v >= thr and v > best_iou:
                best_iou = v
                best_j = slot
        if best_j >= 0:
            gi = elig_idx[best_j]
            taken[gi] = True
            matched[best_j] = True
            flags[rank] = TP
            continue
        if any(iou(dbox, gts[gi].box) >= thr for gi in ignore_idx):
            flags[rank] = IGNORED
        else:
            flags[rank] = FP

    return ImageMatch(scores=scores, flags=flags, eligible_gt=len(elig_idx),
                      gt_matched=matched)


@dataclass(frozen=True)
class _FilterWithThreshold:
    """Adapter giving a difficulty filter the protocol interface."""

    inner: KittiDifficulty
    iou_threshold: float = 0.5

    def eligible(self, gt: GroundTruthBox) -> bool:
        return self.inner.eligible(gt)


@dataclass
class EvalCurve:
    """Sampled metric curve plus its scalar summary."""

    kind: str  # "fppi_miss" | "pr"
    samples: list[tuple[float, float, float]] = field(default_factory=list)
    summary: float = float("nan")


def evaluate_detections(
    dets_by_image: dict[str, list[Detection]],
    gts_by_image: dict[str, list[GroundTruthBox]],
    proto,
) -> list[ImageMatch]:
    """Match every annotated image; annotations define the image universe."""
    unknown = set(dets_by_image) - set(gts_by_image)
    if unknown:
        raise DataError(f"detections reference unannotated images: {sorted(unknown)[:5]}")
    return [
        match_image(dets_by_image.get(image_id, []), gts, proto)
        for image_id, gts in gts_by_image.items()
    ]


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
    protocol: EvalProtocol,
) -> tuple[float, EvalCurve]:
    """Geometric mean of miss rate at log-spaced FPPI reference points.

    The (fppi, miss) curve is swept over all detection scores.  Each
    reference point reads the miss rate at the largest achieved FPPI not
    exceeding it, falling back to the curve's maximum miss rate (or 1.0 for
    an empty curve).  Miss rates are floored at 1e-10 before the log.
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
        curve.samples = [
            (float(scores[i]), float(f), float(ms))
            for i, f, ms in zip(last, fppi, miss)
        ]
    else:
        fppi = np.empty(0)
        miss = np.empty(0)

    lo, hi = protocol.fppi_exponents
    refs = np.power(10.0, np.linspace(lo, hi, protocol.num_points))
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


def average_precision(
    matches: list[ImageMatch],
    num_points: int = 11,
) -> tuple[float, EvalCurve]:
    """Interpolated AP: mean over recall points of max precision at recall >= r."""
    if num_points < 2:
        raise DataError(f"need at least 2 recall points, got {num_points}")
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
    curve.samples = [
        (float(s), float(r), float(p)) for s, r, p in zip(scores, recall, precision)
    ]
    ap_points = np.linspace(0.0, 1.0, num_points)
    vals = []
    for r in ap_points:
        mask = recall >= r - 1e-12
        vals.append(float(precision[mask].max()) if mask.any() else 0.0)
    ap = float(np.mean(vals))
    curve.summary = ap
    return ap, curve


def kitti_average_precision(
    dets_by_image: dict[str, list[Detection]],
    gts_by_image: dict[str, list[GroundTruthBox]],
    difficulty: KittiDifficulty,
    iou_threshold: float = 0.5,
    num_points: int = 11,
) -> tuple[float, EvalCurve]:
    matches = evaluate_detections(
        dets_by_image, gts_by_image, _FilterWithThreshold(difficulty, iou_threshold)
    )
    return average_precision(matches, num_points=num_points)


def metrics_summary(
    dets_by_image: dict[str, list[Detection]],
    gts_by_image: dict[str, list[GroundTruthBox]],
    protocol: EvalProtocol = EvalProtocol(),
    ap_points: int = 11,
) -> dict:
    """The standard metric bundle: MR at two FPPI ranges, per-difficulty AP, counts.

    Metrics whose ground-truth pool is empty are reported as null rather than
    failing the whole summary.
    """
    matches = evaluate_detections(dets_by_image, gts_by_image, protocol)
    out: dict = {}
    try:
        mr2, _ = log_average_miss_rate(
            matches, _with_exponents(protocol, (-2.0, 0.0))
        )
        mr4, _ = log_average_miss_rate(
            matches, _with_exponents(protocol, (-4.0, 0.0))
        )
        out["mr2"] = mr2
        out["mr4"] = mr4
    except MetricUndefinedError:
        out["mr2"] = None
        out["mr4"] = None
    for diff in KITTI_DIFFICULTIES:
        try:
            ap, _ = kitti_average_precision(
                dets_by_image, gts_by_image, diff,
                iou_threshold=protocol.iou_threshold, num_points=ap_points,
            )
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


def _with_exponents(protocol: EvalProtocol, exps: tuple[float, float]) -> EvalProtocol:
    from dataclasses import replace

    return replace(protocol, fppi_exponents=exps)


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

    with open(path, encoding="utf-8", newline="") as f:
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
