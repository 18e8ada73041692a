"""RoI pooling over strided maps: one batched grid primitive for every box of an image.

Every box in image pixels reaches a map through one rule,
``map_boxes_to_feature_coords``: it maps all of an image's boxes at once to
half-open cell rectangles on the target map (stride-aware, clamped, never
empty).  Each rectangle is then split into an m x n grid.  Along an extent
``e`` split into ``k`` slots, slot ``i`` covers
``[floor(i * e / k), floor((i + 1) * e / k))``: an exact partition when
``e >= k``.  When ``e < k`` a slot can come out empty, and it is then pinned
to the single cell at its start, so slots overlap rather than go empty.
``grid_bounds`` computes these windows for all boxes as ``(N, k)`` start and
end arrays.

Two reductions run over those windows, each for all boxes in one call:

* ``grid_max_pool`` takes a channel-last (H, W, C) map, as ``FeatureMap``
  stores it, and gathers every window member of every box, each one pixel's
  row of C floats, straight from the map in one ``take``, then reduces over
  the member axis.  Windows are padded to the largest one by repeating
  their last member, which cannot change a maximum; max is exact in any
  order, so the result is bit-equal to a per-cell scan.  ``max_windows``
  computes the windows once for maps of one geometry and ``window_max``
  pools a map over them.
* ``grid_histogram_pool`` counts integer codes (class labels, quantized edge
  strengths) with one ``bincount`` per box keyed by ``cell * bins + code``.
  Counts are exact integers; they are divided in float32 by float32 cell
  sizes, the same division a per-cell count makes, so each cell sums to one.

Rects are checked against the map only where a caller hands them in:
``grid_max_pool`` and ``grid_histogram_pool`` reject a rect that does not
fit.  ``max_windows`` trusts its rects, which come from the mapping.  The
single-box functions ``roi_max_pool``, ``roi_histogram_pool`` and
``roi_edge_pool`` are batch-of-one wrappers over the two reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .maps import EdgeMap, FeatureMap, LabelMap

# Largest gather grid_max_pool makes at once, in floats (16 MiB).
_GATHER_FLOATS = 1 << 22


class DegenerateRoiError(DataError):
    """The box lies entirely outside the map."""


@dataclass(frozen=True)
class PoolGrid:
    """Pooling grid: m rows by n columns."""

    m: int = 12
    n: int = 5

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ConfigError(f"pool grid must be at least 1x1, got {self.m}x{self.n}")

    @property
    def cells(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class FeatureRect:
    """Half-open cell rectangle [row_start, row_end) x [col_start, col_end)."""

    row_start: int
    row_end: int
    col_start: int
    col_end: int

    @property
    def rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def cols(self) -> int:
        return self.col_end - self.col_start


def map_boxes_to_feature_coords(
    boxes: np.ndarray, stride: int, map_h: int, map_w: int
) -> np.ndarray:
    """Project (x, y, w, h) image-pixel boxes onto a map of the given stride.

    Returns an (N, 4) int64 array of (row_start, row_end, col_start,
    col_end) rects.  Start cells are ``floor(coord / stride)``, end cells the
    ceiling of the far edge, clamped to the map and forced to span at least
    one cell.  A map may stop up to one cell short of its image (see
    ``ImageRecord``), so a box that starts in that last strip is pinned to
    the edge cell, as a box overhanging the map is.  Only a box that ends at
    or before 0, or starts a full cell or more past the map's far edge
    (``x >= (map_w + 1) * stride``, likewise for ``y``), is degenerate.
    """
    if stride < 1 or map_h < 1 or map_w < 1:
        raise ValueError(f"bad map geometry: stride={stride}, shape=({map_h}, {map_w})")
    x, y, w, h = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    x2, y2 = x + w, y + h
    outside = (x >= (map_w + 1) * stride) | (y >= (map_h + 1) * stride) | (x2 <= 0) | (y2 <= 0)
    if outside.any():
        i = int(np.argmax(outside))
        raise DegenerateRoiError(
            f"box {tuple(float(v) for v in (x[i], y[i], w[i], h[i]))} lies outside a "
            f"stride-{stride} map of ({map_h}, {map_w}) cells"
        )
    rs = np.clip(np.floor(y / stride).astype(np.int64), 0, map_h - 1)
    cs = np.clip(np.floor(x / stride).astype(np.int64), 0, map_w - 1)
    re = np.minimum(np.maximum(np.ceil(y2 / stride).astype(np.int64), rs + 1), map_h)
    ce = np.minimum(np.maximum(np.ceil(x2 / stride).astype(np.int64), cs + 1), map_w)
    return np.stack([rs, re, cs, ce], axis=1)


def grid_bounds(start: np.ndarray, extent: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open windows of ``k`` slots over each ``[start, start + extent)``.

    Returns ``(lo, hi)``, both (N, k), in the coordinates of ``start``.
    """
    i = np.arange(k)
    e = np.asarray(extent, dtype=np.int64)[:, None]
    lo = (i * e) // k
    hi = ((i + 1) * e) // k
    empty = hi <= lo
    lo = np.where(empty, np.minimum(lo, e - 1), lo)
    hi = np.where(empty, lo + 1, hi)
    start = np.asarray(start, dtype=np.int64)[:, None]
    return start + lo, start + hi


def _check_rects(rects: np.ndarray, map_h: int, map_w: int) -> np.ndarray:
    rects = np.asarray(rects, dtype=np.int64).reshape(-1, 4)
    rs, re, cs, ce = rects.T
    bad = ~((0 <= rs) & (rs < re) & (re <= map_h) & (0 <= cs) & (cs < ce) & (ce <= map_w))
    if bad.any():
        rect = FeatureRect(*(int(v) for v in rects[int(np.argmax(bad))]))
        raise DataError(f"rect {rect} does not fit a ({map_h}, {map_w}) map")
    return rects


def _windows(rects: np.ndarray, grid: PoolGrid):
    r0, r1 = grid_bounds(rects[:, 0], rects[:, 1] - rects[:, 0], grid.m)
    c0, c1 = grid_bounds(rects[:, 2], rects[:, 3] - rects[:, 2], grid.n)
    return r0, r1, c0, c1


@dataclass(frozen=True)
class MaxWindows:
    """Every window member of every rect on an (H, W) map, for ``window_max``.

    Member a of a window is ``min(lo + a, hi - 1)``: short windows repeat
    their last member up to the longest window's span.  ``rows`` is
    (span_r, N, m) and ``cols`` (span_c, N, n).  Maps of one geometry share
    one ``MaxWindows``.
    """

    map_h: int
    map_w: int
    rows: np.ndarray
    cols: np.ndarray


def max_windows(rects: np.ndarray, grid: PoolGrid, map_h: int, map_w: int) -> MaxWindows:
    """The pooling windows of each rect on an (H, W) map.

    ``rects`` is an (N, 4) int array that fits the map, as
    ``map_boxes_to_feature_coords`` returns it; it is not checked again.
    """
    r0, r1, c0, c1 = _windows(rects, grid)
    span_r, span_c = int((r1 - r0).max(initial=1)), int((c1 - c0).max(initial=1))
    rows = np.minimum(r0 + np.arange(span_r)[:, None, None], r1 - 1)
    cols = np.minimum(c0 + np.arange(span_c)[:, None, None], c1 - 1)
    return MaxWindows(map_h, map_w, rows, cols)


def window_max(hwc: np.ndarray, windows: MaxWindows) -> np.ndarray:
    """Per-cell channel-wise max of an (H, W, C) map over each box's windows: (N, C, m*n)."""
    map_h, map_w, channels = hwc.shape
    if (map_h, map_w) != (windows.map_h, windows.map_w):
        raise DataError(f"windows for a ({windows.map_h}, {windows.map_w}) map "
                        f"applied to a ({map_h}, {map_w}) map")
    rows, cols = windows.rows, windows.cols
    span_r, n_box, m = rows.shape
    span_c, _, n = cols.shape
    out = np.empty((n_box, m, n, channels), dtype=np.float32)
    # Each member is one pixel's row of C contiguous floats.
    flat = hwc.reshape(-1, channels)
    step = max(1, _GATHER_FLOATS // (span_r * span_c * m * n * channels))
    for a in range(0, n_box, step):
        b = min(a + step, n_box)
        pix = rows[:, None, a:b, :, None] * map_w + cols[None, :, a:b, None, :]
        members = flat.take(pix.reshape(-1), axis=0).reshape(
            span_r * span_c, b - a, m, n, channels
        )
        out[a:b] = members.max(axis=0)
    return out.reshape(n_box, m * n, channels).transpose(0, 2, 1)


def grid_max_pool(hwc: np.ndarray, rects: np.ndarray, grid: PoolGrid) -> np.ndarray:
    """Per-cell channel-wise max of an (H, W, C) map for every rect: (N, C, m*n)."""
    map_h, map_w = hwc.shape[:2]
    return window_max(hwc, max_windows(_check_rects(rects, map_h, map_w), grid, map_h, map_w))


def grid_histogram_pool(
    codes: np.ndarray, rects: np.ndarray, grid: PoolGrid, bins: int
) -> np.ndarray:
    """Per-cell histograms of an (H, W) map of codes in [0, bins): (N, m*n*bins).

    Rows are cell-major (cell (i, j)'s ``bins`` values contiguous).  Each
    count is divided by its cell's pixel count, so a cell sums to one.
    """
    map_h, map_w = codes.shape
    rects = _check_rects(rects, map_h, map_w)
    if codes.size and int(codes.max()) >= bins:
        raise DataError(f"map holds code {int(codes.max())} outside [0, {bins - 1}]")
    n_box, m, n = rects.shape[0], grid.m, grid.n
    r0, r1, c0, c1 = _windows(rects, grid)
    rows, row_key, row_split = _members(r0, r1, n * bins)
    cols, col_key, col_split = _members(c0, c1, bins)
    counts = np.empty((n_box, m * n * bins), dtype=np.float32)
    for i, (rs, re, cs, ce) in enumerate(rects.tolist()):
        ra, rb = row_split[i], row_split[i + 1]
        ca, cb = col_split[i], col_split[i + 1]
        sub = codes[rs:re, cs:ce]
        # Members outnumber the extent only where slots overlap (extent < k).
        if rb - ra != re - rs:
            sub = sub[rows[ra:rb] - rs]
        if cb - ca != ce - cs:
            sub = sub[:, cols[ca:cb] - cs]
        key = sub + (row_key[ra:rb, None] + col_key[ca:cb])
        counts[i] = np.bincount(key.reshape(-1), minlength=m * n * bins)
    counts = counts.reshape(n_box, m, n, bins)
    size = (r1 - r0)[:, :, None] * (c1 - c0)[:, None, :]
    counts /= size[..., None].astype(np.float32)
    return counts.reshape(n_box, m * n * bins)


def _members(lo: np.ndarray, hi: np.ndarray, key_step: int):
    """Every window's members, box by box: (index, slot * key_step, box offsets)."""
    n_box, k = lo.shape
    size = (hi - lo).reshape(-1)
    end = np.cumsum(size)
    index = np.arange(size.sum()) + np.repeat(lo.reshape(-1) - (end - size), size)
    key = np.repeat(np.tile(np.arange(k) * key_step, n_box), size)
    split = [0] + end.reshape(n_box, k)[:, -1].tolist()
    return index, key, split


def edge_codes(edges: np.ndarray, bins: int) -> np.ndarray:
    """Edge strengths in [0, 1] quantized to ``bins`` uniform bins; 1.0 lands in the top bin."""
    if bins < 1:
        raise ValueError(f"edge histogram needs at least 1 bin, got {bins}")
    return np.minimum((edges * bins).astype(np.int64), bins - 1)


def _one_rect(rect: FeatureRect) -> np.ndarray:
    return np.array([[rect.row_start, rect.row_end, rect.col_start, rect.col_end]])


def roi_max_pool(fmap: FeatureMap, rect: FeatureRect, grid: PoolGrid) -> np.ndarray:
    """Per-cell channel-wise max over the rect, flattened channel-major.

    Output has length ``C * m * n``, ordered as out[c, i, j] raveled with the
    channel index slowest.
    """
    return grid_max_pool(fmap.hwc, _one_rect(rect), grid)[0].reshape(-1)


def roi_histogram_pool(
    lmap: LabelMap, rect: FeatureRect, grid: PoolGrid, num_classes: int = 21
) -> np.ndarray:
    """Per-cell class histograms over a label map, concatenated cell-major.

    Output length is ``num_classes * m * n``; each cell sums to one.
    """
    return grid_histogram_pool(lmap.data, _one_rect(rect), grid, num_classes)[0]


def roi_edge_pool(
    emap: EdgeMap,
    rect: FeatureRect,
    grid: PoolGrid,
    mode: str = "max",
    bins: int = 16,
) -> np.ndarray:
    """Per-cell edge statistics: either the max strength or a B-bin histogram.

    ``mode="max"`` yields one value per cell (length m*n, row-major cells).
    ``mode="hist"`` quantizes strengths with ``edge_codes`` and pools like the
    class histogram, length ``bins * m * n``, cell-major.
    """
    if mode not in ("max", "hist"):
        raise ValueError(f"unknown edge pooling mode {mode!r}")
    if mode == "max":
        return grid_max_pool(emap.data[..., None], _one_rect(rect), grid)[0, 0]
    return grid_histogram_pool(edge_codes(emap.data, bins), _one_rect(rect), grid, bins)[0]
