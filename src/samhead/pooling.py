"""RoI pooling over strided maps: one batched grid primitive for the boxes of a batch of images.

Every box in image pixels reaches a map through one rule,
``map_boxes_to_feature_coords``: it maps a batch of boxes at once to
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
  pools a map over them.  ``window_max_pairs`` pools only chosen (cell,
  channel) pairs, gathering one float per pair and member at flat index
  ``pixel * C + channel``.
* ``grid_histogram_pool`` counts integer codes (class labels, quantized edge
  strengths) with one ``bincount`` per box keyed by ``cell * bins + code``,
  in the narrowest unsigned dtype that holds ``m * n * bins`` keys.  Counts
  are exact integers; they are divided in float32 by float32 cell sizes, the
  same division a per-cell count makes, so each cell sums to one.

``BoxBatch`` runs both over the boxes of several images at once, given
image after image with one box count per image.  Per map geometry
(stride, H, W) it maps all boxes of the images
whose maps share that geometry and builds their windows in one pass; only
the gather runs image by image, on each image's own map.  Each image's slice
of the batch windows is trimmed to that image's own longest span, so a batch
gathers no more than its images would one by one: padding every image to
the batch's longest span would gather about twice as much.  Histograms
count every box of the batch in one loop.  ``BoxBatch.max_pool_pairs`` is
``max_pool`` at chosen (cell, channel) pairs, over the same windows.

Rects are checked against the map only where a caller hands them in:
``grid_max_pool`` and ``grid_histogram_pool`` reject a rect that does not
fit.  ``max_windows`` and ``BoxBatch`` trust their rects, which come from
the mapping.  The single-box functions ``roi_max_pool``,
``roi_histogram_pool`` and ``roi_edge_pool`` are batch-of-one wrappers over
the two reductions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .maps import EdgeMap, FeatureMap, LabelMap

# Largest gather grid_max_pool makes at once, in floats (16 MiB).
_GATHER_FLOATS = 1 << 22


class DegenerateRoiError(DataError):
    """The box lies entirely outside the map, or one of its edges is NaN."""


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
    (``x >= (map_w + 1) * stride``, likewise for ``y``), is degenerate, as
    is a box with a NaN ``x``, ``y``, ``x + w`` or ``y + h`` (so ``x = -inf``
    with ``w = inf``).  Cells are clamped while still floats, so a box of any
    size, an infinite one included, maps to the cells it covers.
    """
    if stride < 1 or map_h < 1 or map_w < 1:
        raise ValueError(f"bad map geometry: stride={stride}, shape=({map_h}, {map_w})")
    x, y, w, h = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    # -inf + inf is a NaN edge, refused below; a finite sum past float64 is inf.
    with np.errstate(invalid="ignore", over="ignore"):
        x2, y2 = x + w, y + h
    # What a box must satisfy: a NaN edge fails every comparison, so it fails here.
    bad = ~((x < (map_w + 1) * stride) & (y < (map_h + 1) * stride) & (x2 > 0) & (y2 > 0))
    if bad.any():
        i = int(np.argmax(bad))
        box = tuple(float(v) for v in (x[i], y[i], w[i], h[i]))
        if np.isnan([x[i], y[i], x2[i], y2[i]]).any():
            raise DegenerateRoiError(f"box {box} has a NaN edge")
        raise DegenerateRoiError(
            f"box {box} lies outside a stride-{stride} map of ({map_h}, {map_w}) cells"
        )
    rs = np.minimum(np.maximum(np.floor(y / stride), 0.0), map_h - 1)
    cs = np.minimum(np.maximum(np.floor(x / stride), 0.0), map_w - 1)
    re = np.minimum(np.maximum(np.ceil(y2 / stride), rs + 1), map_h)
    ce = np.minimum(np.maximum(np.ceil(x2 / stride), cs + 1), map_w)
    return np.stack([rs, re, cs, ce], axis=1).astype(np.int64)


def grid_bounds(start: np.ndarray, extent: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open windows of ``k`` slots over each ``[start, start + extent)``.

    Returns ``(lo, hi)``, both (N, k), in the coordinates of ``start``.
    """
    e = np.asarray(extent, dtype=np.int64)[:, None]
    # Slot i starts at floor(i * e / k) <= e - 1 and ends where slot i + 1
    # starts, or one cell after its start where that would leave it empty.
    bounds = (np.arange(k + 1) * e) // k
    lo = bounds[:, :-1]
    hi = np.maximum(bounds[:, 1:], lo + 1)
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
    (span_r, N, m*n) and ``cols`` (span_c, N, m*n): entry [a, k, i*n + j] is
    member a of the row (column) window of box k's cell (i, j).  Laid out
    per cell, the two broadcast over the member axes alone, which keeps the
    gather's index arithmetic in long contiguous runs.  Maps of one geometry
    share one ``MaxWindows``.
    """

    map_h: int
    map_w: int
    rows: np.ndarray
    cols: np.ndarray

    def check(self, hwc: np.ndarray) -> None:
        """DataError unless ``hwc`` is an (H, W, C) map of the windows' (H, W)."""
        if hwc.shape[:2] != (self.map_h, self.map_w):
            raise DataError(f"windows for a ({self.map_h}, {self.map_w}) map "
                            f"applied to a ({hwc.shape[0]}, {hwc.shape[1]}) map")

    def split(self, offsets: list[int]) -> list["MaxWindows"]:
        """The windows of rects ``[offsets[j], offsets[j + 1])`` for each j, as views.

        Each part is trimmed to its own longest span, so it gathers what
        windows built for its rects alone would.  Every part must be non-empty.
        """
        if len(offsets) == 2:
            return [self]
        starts = offsets[:-1]
        # Window by window, the last member less the first is the span less one.
        spans = [
            (np.maximum.reduceat((a[-1] - a[0]).max(axis=1), starts) + 1).tolist()
            for a in (self.rows, self.cols)
        ]
        return [
            MaxWindows(self.map_h, self.map_w, self.rows[:sr, a:b], self.cols[:sc, a:b])
            for a, b, sr, sc in zip(starts, offsets[1:], *spans)
        ]


def max_windows(rects: np.ndarray, grid: PoolGrid, map_h: int, map_w: int) -> MaxWindows:
    """The pooling windows of each rect on an (H, W) map.

    ``rects`` is an (N, 4) int array that fits the map, as
    ``map_boxes_to_feature_coords`` returns it; it is not checked again.
    """
    r0, r1, c0, c1 = _windows(rects, grid)
    span_r, span_c = int((r1 - r0).max(initial=1)), int((c1 - c0).max(initial=1))
    rows = np.minimum(r0 + np.arange(span_r)[:, None, None], r1 - 1)
    cols = np.minimum(c0 + np.arange(span_c)[:, None, None], c1 - 1)
    return MaxWindows(map_h, map_w, np.repeat(rows, grid.n, axis=2), np.tile(cols, (1, 1, grid.m)))


def window_max(hwc: np.ndarray, windows: MaxWindows, out: np.ndarray | None = None) -> np.ndarray:
    """Per-cell channel-wise max of an (H, W, C) map over each box's windows: (N, C, m*n).

    The maxima are written channel-last into ``out``, an (N, m*n, C) float32
    array (it may be a strided view), or a new one; the result is its
    transpose.
    """
    windows.check(hwc)
    map_h, map_w, channels = hwc.shape
    rows, cols = windows.rows, windows.cols
    span_r, n_box, cells = rows.shape
    span_c = cols.shape[0]
    if out is None:
        out = np.empty((n_box, cells, channels), dtype=np.float32)
    # Each member is one pixel's row of C contiguous floats.
    flat = hwc.reshape(-1, channels)
    step = max(1, _GATHER_FLOATS // (span_r * span_c * cells * channels))
    for a in range(0, n_box, step):
        b = min(a + step, n_box)
        pix = rows[:, None, a:b] * map_w + cols[None, :, a:b]
        members = flat.take(pix.reshape(-1), axis=0)
        # A reduction straight into a strided ``out`` runs several times slower.
        out[a:b] = members.reshape(span_r * span_c, b - a, cells, channels).max(axis=0)
    return out.transpose(0, 2, 1)


def window_max_pairs(
    hwc: np.ndarray, windows: MaxWindows, cell: np.ndarray, channel: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``window_max`` of an (H, W, C) map at (cell, channel) pairs only, into ``out``,
    an (N, P) float32 array (it may be a view), which it returns.

    Entry [k, p] is the max of channel ``channel[p]`` over box k's window of
    cell ``cell[p]``, bit-equal to ``window_max(hwc, windows)[k, channel[p],
    cell[p]]``.  Each member is one float, read at flat index
    ``pixel * C + channel``, so a call gathers P floats per window member
    where ``window_max`` gathers m*n*C.
    """
    windows.check(hwc)
    map_h, map_w, channels = hwc.shape
    span_r, n_box, _ = windows.rows.shape
    span_c = windows.cols.shape[0]
    # The flat offsets of each pair's row members and of its column members.
    rows = windows.rows[:, :, cell] * (map_w * channels)
    cols = windows.cols[:, :, cell] * channels + channel
    flat = hwc.reshape(-1)
    step = max(1, _GATHER_FLOATS // (span_r * span_c * max(1, len(cell))))
    for a in range(0, n_box, step):
        b = min(a + step, n_box)
        members = flat.take((rows[:, None, a:b] + cols[None, :, a:b]).reshape(-1))
        out[a:b] = members.reshape(span_r * span_c, b - a, len(cell)).max(axis=0)
    return out


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
    return _histograms([codes], [0, rects.shape[0]], rects, grid, bins)


def _histograms(
    maps: list[np.ndarray], offsets: list[int], rects: np.ndarray, grid: PoolGrid, bins: int
) -> np.ndarray:
    """Histogram rows of rects ``[offsets[j], offsets[j + 1])`` on code map ``maps[j]``."""
    n_box, m, n = rects.shape[0], grid.m, grid.n
    key_dtype = np.min_scalar_type(m * n * bins - 1)
    r0, r1, c0, c1 = _windows(rects, grid)
    rows, row_key, row_split = _members(r0, r1, n * bins, key_dtype)
    cols, col_key, col_split = _members(c0, c1, bins, key_dtype)
    counts = np.empty((n_box, m * n * bins), dtype=np.float32)
    boxes = rects.tolist()
    for codes, first, last in zip(maps, offsets, offsets[1:]):
        for i in range(first, last):
            rs, re, cs, ce = boxes[i]
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


def _members(lo: np.ndarray, hi: np.ndarray, key_step: int, key_dtype):
    """Every window's members, box by box: (index, slot * key_step, box offsets)."""
    n_box, k = lo.shape
    size = (hi - lo).reshape(-1)
    end = np.cumsum(size)
    index = np.arange(size.sum()) + np.repeat(lo.reshape(-1) - (end - size), size)
    key = np.repeat(np.tile((np.arange(k) * key_step).astype(key_dtype), n_box), size)
    split = [0] + end.reshape(n_box, k)[:, -1].tolist()
    return index, key, split


def edge_codes(edges: np.ndarray, bins: int) -> np.ndarray:
    """Edge strengths in [0, 1] quantized to ``bins`` uniform bins; 1.0 lands in the top bin.

    Codes come in the narrowest unsigned dtype that holds ``bins - 1``.
    """
    if bins < 1:
        raise ValueError(f"edge histogram needs at least 1 bin, got {bins}")
    return np.minimum((edges * bins).astype(np.int64), bins - 1).astype(
        np.min_scalar_type(bins - 1)
    )


class BoxBatch:
    """(x, y, w, h) boxes of a batch of images, image after image, pooled map by map.

    The first ``counts[0]`` boxes belong to image 0, the next ``counts[1]``
    to image 1, and so on; anything but a 1-D run of non-negative integers
    summing to the box count is a ValueError.  A pooling call takes one map
    per image that has boxes, keyed by image index (``images`` lists them).
    Boxes are mapped and windowed once per map geometry (stride, H, W) and
    set of images sharing it, and the result is reused by every later map
    of that geometry.
    """

    def __init__(self, boxes: np.ndarray, counts, grid: PoolGrid):
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        counts = np.asarray(counts)
        self.counts = counts.tolist()  # Python ints, whose sum cannot wrap
        if not (counts.ndim == 1 and (counts.dtype.kind in "iu" or not counts.size)
                and min(self.counts, default=0) >= 0 and sum(self.counts) == len(self.boxes)):
            raise ValueError(f"box counts must be 1-D non-negative integers summing to the "
                             f"{len(self.boxes)} boxes, got {counts!r}")
        self.grid = grid
        # The images that have boxes; image i's boxes are [offsets[i], offsets[i + 1]).
        self.images = [i for i, n in enumerate(self.counts) if n]
        self.offsets = [0, *itertools.accumulate(self.counts)]
        self._mapped: dict = {}

    def __len__(self) -> int:
        return self.boxes.shape[0]

    def _groups(self, geometry: dict[int, tuple[int, int, int]]):
        """Per map geometry: the images with boxes that have it, and the cached
        mapping of their boxes (``sel`` of the batch, ``offsets`` of each
        image's run within them, ``rects``, and later their ``windows``)."""
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i in self.images:
            groups.setdefault(geometry[i], []).append(i)
        for geo, images in groups.items():
            whole = len(images) == len(self.images)
            key = geo if whole else (geo, tuple(images))
            if key not in self._mapped:
                sel = slice(None) if whole else np.concatenate(
                    [np.arange(*self.offsets[i : i + 2]) for i in images])
                offsets = [0, *itertools.accumulate(self.counts[i] for i in images)]
                rects = map_boxes_to_feature_coords(self.boxes[sel], *geo)
                self._mapped[key] = {"sel": sel, "offsets": offsets, "rects": rects}
            yield geo, images, self._mapped[key]

    def _max_windows(self, maps: dict[int, tuple[int, np.ndarray]]):
        """Per image with boxes: its (H, W, C) map, its boxes' slice of the batch,
        and their ``MaxWindows`` on that map."""
        geometry = {i: (s, *hwc.shape[:2]) for i, (s, hwc) in maps.items()}
        for (_, map_h, map_w), images, mapped in self._groups(geometry):
            if "windows" not in mapped:
                windows = max_windows(mapped["rects"], self.grid, map_h, map_w)
                mapped["windows"] = windows.split(mapped["offsets"])
            for i, windows in zip(images, mapped["windows"]):
                yield maps[i][1], slice(self.offsets[i], self.offsets[i + 1]), windows

    def max_pool(self, maps: dict[int, tuple[int, np.ndarray]], out: np.ndarray) -> None:
        """Fill ``out``, (N, m*n, C) channel-last, with ``window_max`` of each box on
        its image's (stride, (H, W, C) map) entry of ``maps``."""
        for hwc, part, windows in self._max_windows(maps):
            window_max(hwc, windows, out[part])

    def max_pool_pairs(
        self, maps: dict[int, tuple[int, np.ndarray]], cell: np.ndarray, channel: np.ndarray
    ) -> np.ndarray:
        """``max_pool`` at (cell, channel) pairs only: (N, P), by ``window_max_pairs``."""
        out = np.empty((len(self), len(cell)), dtype=np.float32)
        for hwc, part, windows in self._max_windows(maps):
            window_max_pairs(hwc, windows, cell, channel, out[part])
        return out

    def histogram_pool(self, maps: dict[int, np.ndarray], bins: int) -> np.ndarray:
        """``grid_histogram_pool`` rows, (N, m*n*bins), of each box on its image's
        stride-1 map of codes, which are trusted to lie in [0, bins)."""
        out = np.empty((len(self), self.grid.cells * bins), dtype=np.float32)
        geometry = {i: (1, *codes.shape) for i, codes in maps.items()}
        for _, images, mapped in self._groups(geometry):
            out[mapped["sel"]] = _histograms([maps[i] for i in images], mapped["offsets"],
                                             mapped["rects"], self.grid, bins)
        return out


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
