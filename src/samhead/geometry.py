"""Boxes, overlap and greedy suppression."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given as top-left corner plus extent, in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.w) and math.isfinite(self.h)):
            raise ValueError(f"box coordinates must be finite, got {self!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extent must be positive, got w={self.w} h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + 0.5 * self.w

    @property
    def cy(self) -> float:
        return self.y + 0.5 * self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class Candidate:
    """A proposal box with an objectness score in [0, 1]."""

    box: Box
    score: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"candidate score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class GroundTruthBox:
    """An annotated object with occlusion/truncation fractions and an ignore flag."""

    box: Box
    occlusion: float = 0.0
    truncation: float = 0.0
    ignore: bool = False

    def __post_init__(self) -> None:
        for name, v in (("occlusion", self.occlusion), ("truncation", self.truncation)):
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class Detection:
    """A final detection: box plus a real-valued classifier score."""

    box: Box
    score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def box_array(boxes: list[Box]) -> np.ndarray:
    """Boxes as an (N, 4) float64 array of (x, y, w, h) rows."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def _corners(boxes: list[Box]) -> tuple[np.ndarray, ...]:
    """(x, y, x2, y2, area) arrays, each computed as ``Box`` computes it."""
    x, y, w, h = box_array(boxes).T
    return x, y, x + w, y + h, w * h


def _iou_matrix(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> np.ndarray:
    x, y, x2, y2, area = a
    bx, by, bx2, by2, b_area = b
    ix = np.minimum(x2[:, None], bx2[None, :]) - np.maximum(x[:, None], bx[None, :])
    iy = np.minimum(y2[:, None], by2[None, :]) - np.maximum(y[:, None], by[None, :])
    inter = ix * iy
    out = np.zeros_like(inter)
    np.divide(inter, area[:, None] + b_area[None, :] - inter, out=out, where=(ix > 0) & (iy > 0))
    return out


def iou_matrix(a: list[Box], b: list[Box]) -> np.ndarray:
    """IoU of each box of ``a`` with each box of ``b``, entry (i, j) bit-equal to ``iou(a[i], b[j])``.

    Uses ``iou``'s formula in float64 with the same operation order, including
    its rule that boxes whose overlap has no positive width or height have
    IoU 0.
    """
    return _iou_matrix(_corners(a), _corners(b))


def pairwise_iou(boxes: list[Box]) -> np.ndarray:
    """``iou_matrix(boxes, boxes)``: IoU of every pair of boxes."""
    corners = _corners(boxes)
    return _iou_matrix(corners, corners)


def nms(detections: list[Detection], threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression.

    Detections are visited in descending score order (ties keep input order);
    a detection survives iff its IoU with every already-kept detection is
    <= threshold.  Survivors are returned in that same visiting order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"nms threshold must be in [0, 1], got {threshold}")
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    overlaps = pairwise_iou([detections[i].box for i in order]) > threshold
    suppressed = np.zeros(len(order), dtype=bool)
    kept: list[Detection] = []
    for rank, i in enumerate(order):
        if not suppressed[rank]:
            kept.append(detections[i])
            suppressed |= overlaps[rank]
    return kept
