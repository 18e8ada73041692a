"""Per-image box records, overlap and greedy suppression.

A box is an (x, y, w, h) row: top-left corner plus extent, in pixels.  An
image's boxes travel together, from file to metric, as one record of
equal-length numpy columns:

* ``ScoredBoxes``: ``boxes`` ((n, 4) float64) and ``scores`` ((n,)
  float64).  Proposals score in [0, 1]; detections carry the forest's
  real-valued margin.
* ``GroundTruth``: ``boxes``, plus the occluded and truncated fractions
  ``occl`` and ``trunc`` ((n,) float64, in [0, 1]) and the ``ignore`` flags
  ((n,) bool).

A record does not check its values.  The readers in ``formats`` check each
column of a file once; synthesis and detection make valid records by
construction.  A record is falsy exactly when it holds no box, and two
records are equal (a plain bool) when their types and columns are.
"""

from __future__ import annotations

import numpy as np


class _Columns:
    """Equal-length columns; the first is ``boxes``."""

    __slots__ = ()
    _COLUMNS: tuple[str, ...] = ()

    def __len__(self) -> int:
        return self.boxes.shape[0]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self._COLUMNS)

    __hash__ = None

    def take(self, index):
        """The record of the rows ``index`` selects (a mask or positions), in its order."""
        return type(self)(*(getattr(self, c)[index] for c in self._COLUMNS))

    def __repr__(self) -> str:
        cols = ", ".join(f"{c}={getattr(self, c).tolist()!r}" for c in self._COLUMNS)
        return f"{type(self).__name__}({cols})"


def _boxes(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1, 4)


def _vector(values, dtype, n: int) -> np.ndarray:
    """``values`` as an (n,) column; None is a column of zeros."""
    out = np.zeros(n, dtype) if values is None else np.asarray(values, dtype=dtype).reshape(-1)
    if out.shape[0] != n:
        raise ValueError(f"a column of {out.shape[0]} values beside {n} boxes")
    return out


class ScoredBoxes(_Columns):
    """One image's proposals or detections: ``boxes`` and their ``scores``."""

    __slots__ = ("boxes", "scores")
    _COLUMNS = __slots__

    def __init__(self, boxes=(), scores=()):
        self.boxes = _boxes(boxes)
        self.scores = _vector(scores, np.float64, len(self.boxes))


class GroundTruth(_Columns):
    """One image's annotations: ``boxes``, ``occl``, ``trunc`` and ``ignore``."""

    __slots__ = ("boxes", "occl", "trunc", "ignore")
    _COLUMNS = __slots__

    def __init__(self, boxes=(), occl=None, trunc=None, ignore=None):
        self.boxes = _boxes(boxes)
        n = len(self.boxes)
        self.occl, self.trunc = _vector(occl, np.float64, n), _vector(trunc, np.float64, n)
        self.ignore = _vector(ignore, bool, n)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each (x, y, w, h) row of ``a`` with each row of ``b``, shape (len(a), len(b)).

    Entry (i, j) is ``inter / (area_i + area_j - inter)`` in float64, with
    ``x2 = x + w`` and ``area = w * h``; boxes whose overlap has no positive
    width or height have IoU 0.
    """
    x, y, w, h = _boxes(a).T
    bx, by, bw, bh = _boxes(b).T
    ix = np.minimum((x + w)[:, None], (bx + bw)[None, :]) - np.maximum(x[:, None], bx[None, :])
    iy = np.minimum((y + h)[:, None], (by + bh)[None, :]) - np.maximum(y[:, None], by[None, :])
    inter = ix * iy
    out = np.zeros_like(inter)
    np.divide(inter, (w * h)[:, None] + (bw * bh)[None, :] - inter, out=out,
              where=(ix > 0) & (iy > 0))
    return out


def nms(detections: ScoredBoxes, threshold: float) -> ScoredBoxes:
    """Greedy non-maximum suppression.

    Detections are visited in descending score order (ties keep input order);
    a detection survives iff its IoU with every already-kept detection is
    <= threshold.  Survivors are returned in that same visiting order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"nms threshold must be in [0, 1], got {threshold}")
    order = np.argsort(-detections.scores, kind="stable")
    boxes = detections.boxes[order]
    overlaps = iou_matrix(boxes, boxes) > threshold
    suppressed = np.zeros(len(order), dtype=bool)
    kept = []
    for rank in range(len(order)):
        if not suppressed[rank]:
            kept.append(rank)
            suppressed |= overlaps[rank]
    return detections.take(order[kept])
