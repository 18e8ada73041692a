"""Scale-dependent routing of candidates to layer combinations, plus descriptor assembly.

Each scale bin names the CNN layers pooled for candidates in its height range.
A bin whose layers pool the table's target dimension per cell keeps its pooled
stack; PCA runs only where widths differ, mapping that bin's per-cell stack to
the target, so descriptors have one length no matter which bin produced them.
Optional semantic and edge channels are appended after the CNN block.

Descriptors are built for a batch of images at once, given as the
records, their boxes image after image, and one box count per record (see
``pooling.BoxBatch``).  Routing, the box-to-cell mapping of each map
geometry, the pooling windows, and each bin's PCA projection run once per
batch, and only the gather from each image's own maps runs image by image.
Callers bound a batch by memory; its size never changes a descriptor.

Training pools full rows.  Detection asks ``extract_many`` for only the
columns its forest splits on (``Forest.columns``), and gets those columns
of the full rows bit for bit:

* A bin without a projector reads each layer's used (cell, channel) pairs
  one float at a time, straight from the channel-last map (flat index
  ``pixel * C + channel``), while they are at most ``PAIR_GATHER_SHARE`` =
  0.1 of the layer's m*n*C pooled values.  Above that share the layer
  gathers whole pixel rows, as for full rows, and keeps its used values: a
  lone float costs several times what it costs inside a pixel row.  The
  constant is the measured crossover: on each of the eight (bin, layer)
  pairs of the two benchmark workloads, the pair gather took 0.73-1.05 of
  the row gather's time at a used share of 0.10, and 0.80-1.12 at 0.12.
* A bin with a projector pools and projects its full stacks, then keeps
  its used columns.  The stacks' memory order picks the BLAS kernel, and
  with it the last bits of the projection.
* A semantic or edge block is pooled whole and sliced, or skipped when no
  column of it is used.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .maps import ImageRecord, NUM_LABEL_CLASSES
from .pca import PcaProjector
# roi_edge_pool, roi_histogram_pool and roi_max_pool are not called here:
# descriptors use the batched functions.  They stay importable from
# this module because perfbench/tracing.py hooks them here.
from .pooling import (  # noqa: F401
    BoxBatch,
    PoolGrid,
    edge_codes,
    roi_edge_pool,
    roi_histogram_pool,
    roi_max_pool,
)


class MissingLayerError(DataError):
    """A routed layer (or label/edge map) is absent from the image record."""


@dataclass(frozen=True)
class ScaleBin:
    """Height range [min_height, max_height) routed to a layer combination."""

    min_height: float
    max_height: float | None  # None = unbounded
    layers: tuple[str, ...]
    projector_id: str

    def __post_init__(self) -> None:
        if self.min_height <= 0:
            raise ConfigError(f"bin min_height must be positive, got {self.min_height}")
        if self.max_height is not None and self.max_height <= self.min_height:
            raise ConfigError(
                f"bin range [{self.min_height}, {self.max_height}) is empty"
            )
        if not self.layers:
            raise ConfigError("bin must route to at least one layer")
        if len(set(self.layers)) != len(self.layers):
            raise ConfigError(f"bin layers contain duplicates: {self.layers}")


@dataclass(frozen=True)
class RoutingTable:
    """Ordered, contiguous scale bins covering [min_height, infinity)."""

    bins: tuple[ScaleBin, ...]
    grid: PoolGrid = field(default_factory=PoolGrid)
    target_dim: int = 0  # 0 = use the smallest bin channel sum (resolved at fit time)

    def __post_init__(self) -> None:
        if not self.bins:
            raise ConfigError("routing table needs at least one bin")
        if self.target_dim < 0:
            raise ConfigError(f"target_dim must be >= 0, got {self.target_dim}")
        for a, b in zip(self.bins, self.bins[1:]):
            if a.max_height is None or not math.isclose(a.max_height, b.min_height):
                raise ConfigError(
                    f"bins must be contiguous: [{a.min_height}, {a.max_height}) then "
                    f"[{b.min_height}, {b.max_height})"
                )
        if self.bins[-1].max_height is not None:
            raise ConfigError("last bin must be unbounded above")
        ids = [b.projector_id for b in self.bins]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"projector ids must be unique, got {ids}")

    def route(self, heights: np.ndarray) -> np.ndarray:
        """Bin index of each height: the first bin whose ``max_height`` exceeds it (so a
        height below every bin routes to the first)."""
        edges = [b.max_height for b in self.bins[:-1]]
        return np.searchsorted(edges, heights, side="right")


def default_routing_table(grid: PoolGrid | None = None, target_dim: int = 0) -> RoutingTable:
    """Two bins: [50, 80) -> conv3+conv4a, [80, inf) -> conv4a+conv5a."""
    return RoutingTable(
        bins=(
            ScaleBin(50.0, 80.0, ("conv3", "conv4a"), "small"),
            ScaleBin(80.0, None, ("conv4a", "conv5a"), "large"),
        ),
        grid=grid or PoolGrid(),
        target_dim=target_dim,
    )


def _layer_map(record: ImageRecord, name: str) -> tuple[int, np.ndarray]:
    """The stride and (H, W, C) map of the record's layer ``name``."""
    try:
        fmap = record.layer(name)
    except DataError:
        raise MissingLayerError(f"image {record.image_id!r} lacks routed layer {name!r}") from None
    return fmap.stride, fmap.hwc


def _batch(records: Sequence[ImageRecord], boxes, counts, grid: PoolGrid) -> BoxBatch:
    """The ``BoxBatch`` of ``boxes``, ``counts[i]`` of them in ``records[i]``."""
    batch = BoxBatch(boxes, counts, grid)
    if len(batch.counts) != len(records):
        raise ValueError(f"{len(batch.counts)} box counts for {len(records)} images")
    return batch


def pool_bin_stacks(
    records: Sequence[ImageRecord],
    boxes: np.ndarray,
    counts,
    table: RoutingTable,
    bin_index: int,
) -> np.ndarray:
    """Cell-major pooled stacks of one bin's layers for (x, y, w, h) boxes of a
    batch of images: a C-ordered (N, m*n, D_bin) float32 array.

    ``counts[i]`` boxes lie in ``records[i]``, image after image, as for
    ``DescriptorExtractor.extract_many``.  Each cell holds the bin's layers'
    channels in bin order.  Boxes are mapped and windowed once per map
    geometry (see ``BoxBatch``).
    """
    batch = _batch(records, boxes, counts, table.grid)
    maps, widths = _bin_maps(records, batch, table.bins[bin_index].layers)
    return _stacks(batch, maps, widths)


def _bin_maps(records: Sequence[ImageRecord], batch: BoxBatch, layers: tuple[str, ...]):
    """Per layer, the (stride, (H, W, C) map) of each image of the batch, keyed by
    image index; and each layer's channel count, which every image must share."""
    maps = [{i: _layer_map(records[i], name) for i in batch.images} for name in layers]
    widths = []
    for name, layer_maps in zip(layers, maps):
        channels = {hwc.shape[2] for _, hwc in layer_maps.values()}
        if len(channels) > 1:
            raise DataError(f"layer {name!r} has inconsistent channel counts")
        widths.append(channels.pop() if channels else 0)
    return maps, widths


def _stacks(batch: BoxBatch, maps: list[dict], widths: list[int]) -> np.ndarray:
    """Each box's per-cell stack of the layers' channels: (N, m*n, sum(widths))."""
    out = np.empty((len(batch), batch.grid.cells, sum(widths)), dtype=np.float32)
    col = 0
    for layer_maps, width in zip(maps, widths):
        batch.max_pool(layer_maps, out[:, :, col : col + width])
        col += width
    return out


def pool_bin_cells(
    record: ImageRecord, box: np.ndarray, table: RoutingTable, bin_index: int
) -> np.ndarray:
    """Per-cell stacked channel vectors of one bin's layers for one (x, y, w, h) box,
    shape (m*n, D_bin): ``pool_bin_stacks`` for a batch of one box.  Unused here;
    perfbench/tracing.py hooks it by name."""
    return pool_bin_stacks([record], np.reshape(box, (1, 4)), [1], table, bin_index)[0]


#: Quantized edge strengths per cell of the edge histogram channel.
EDGE_BINS = 16

#: The largest share of a layer's m*n*C pooled values that ``extract_many``
#: gathers as (cell, channel) pairs; above it, whole pixel rows cost less.
#: Measured, not a setting (see the module docstring).
PAIR_GATHER_SHARE = 0.1


@dataclass(frozen=True)
class ChannelConfig:
    """Which auxiliary channels to append and how to pool them.

    The semantic channel is a per-cell histogram of the ``NUM_LABEL_CLASSES``
    label classes; the edge channel is a per-cell max strength or a per-cell
    histogram of strengths quantized to ``EDGE_BINS`` levels.  Every
    histogram cell sums to one.
    """

    semantic: bool = False
    edge: bool = False
    edge_pooling: str = "max"  # "max" | "hist"

    def __post_init__(self) -> None:
        if self.edge_pooling not in ("hist", "max"):
            raise ConfigError(f"unknown edge pooling {self.edge_pooling!r}")

    def block_length(self, grid: PoolGrid) -> int:
        n = 0
        if self.semantic:
            n += NUM_LABEL_CLASSES * grid.cells
        if self.edge:
            n += (EDGE_BINS if self.edge_pooling == "hist" else 1) * grid.cells
        return n


class DescriptorExtractor:
    """Binds a routing table, fitted projectors, and channel config together.

    Every bin's cells come out at the table's ``target_dim`` width, which
    must be at least 1: a projector maps to it, and a bin without one keeps
    its pooled stack, which must already be that wide.  Descriptor layout:
    the CNN block flattened cell-major (cell (0,0)'s d values first), then
    the semantic block, then the edge block.  Length is identical for every
    candidate.
    """

    def __init__(
        self,
        table: RoutingTable,
        projectors: dict[str, PcaProjector],
        channels: ChannelConfig = ChannelConfig(),
    ):
        self.table = table
        self.projectors = projectors
        self.channels = channels
        unknown = sorted(set(projectors) - {b.projector_id for b in table.bins})
        if unknown:
            raise ConfigError(f"projectors {unknown} belong to no routing bin")
        self.cell_dim = table.target_dim
        if self.cell_dim < 1:
            raise ConfigError(f"target_dim must be >= 1, got {self.cell_dim}")
        for pid, p in sorted(projectors.items()):
            if p.output_dim != self.cell_dim:
                raise ConfigError(
                    f"projector {pid!r} produces {p.output_dim} dims per cell, "
                    f"table expects {self.cell_dim}"
                )

    @property
    def length(self) -> int:
        grid = self.table.grid
        return self.cell_dim * grid.cells + self.channels.block_length(grid)

    def extract_many(
        self,
        records: Sequence[ImageRecord],
        boxes: np.ndarray,
        counts,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Descriptors of (x, y, w, h) boxes of a batch of images: (N, length) float32.

        The first ``counts[0]`` boxes lie in ``records[0]``, the next
        ``counts[1]`` in ``records[1]``, and so on; an image may have no box.
        Counts other than one non-negative integer per record, summing to N,
        are a ValueError before any map is read.  Routing, the
        box-to-cell mapping per map geometry, the pooling windows, and one
        PCA projection per bin run once for the whole batch.  Only the
        gather from each image's maps runs image by image, over that image's
        slice of the batch windows trimmed to its own longest span (see
        ``BoxBatch``).  A box's row does not depend on the rest of the batch.

        ``columns``, increasing descriptor indices, asks for those columns
        only: the result is ``extract_many(records, boxes, counts)[:, columns]``
        bit for bit, and pools only what they need (see the module
        docstring).  A layer or block none of whose columns is asked for is
        not pooled, but its maps are still checked, so a missing map, a
        width that differs between images or a bin width that its projector
        or the target does not take raises as it does for full rows.  Boxes
        are mapped only onto maps that are pooled, so a box outside a map
        that is not pooled raises no ``DegenerateRoiError``; a box that
        overlaps its image never lies outside any of its maps.
        """
        whole = _batch(records, boxes, counts, self.table.grid)
        boxes = whole.boxes
        if columns is not None:
            columns = np.asarray(columns, dtype=np.int64).reshape(-1)
            if columns.size and not (0 <= columns[0] and columns[-1] < self.length
                                     and (columns[1:] > columns[:-1]).all()):
                raise ValueError(f"columns must be increasing indices in [0, {self.length})")

        def block(start: int, stop: int) -> tuple[slice, np.ndarray | None]:
            """Where descriptor columns [start, stop) land in the result, and which of
            them it holds, counted from ``start`` (None: all of them)."""
            if columns is None:
                return slice(start, stop), None
            lo, hi = np.searchsorted(columns, (start, stop)).tolist()
            return slice(lo, hi), columns[lo:hi] - start

        out = np.empty((len(boxes), self.length if columns is None else columns.size),
                       dtype=np.float32)
        if not len(boxes):
            return out
        grid = self.table.grid
        bins = self.table.route(boxes[:, 3])
        image = np.repeat(np.arange(len(records)), whole.counts)
        dest, used = block(0, self.cell_dim * grid.cells)
        for i, spec in enumerate(self.table.bins):
            sel = np.flatnonzero(bins == i)
            if not sel.size:
                continue
            batch = BoxBatch(boxes[sel], np.bincount(image[sel], minlength=len(records)), grid)
            maps, widths = _bin_maps(records, batch, spec.layers)
            proj = self.projectors.get(spec.projector_id)
            width = proj.input_dim if proj else self.cell_dim
            if sum(widths) != width:
                need = "its projector expects" if proj else "it has no projector and the target is"
                raise ConfigError(
                    f"bin {spec.projector_id!r} pools {sum(widths)} channels per cell "
                    f"but {need} {width}"
                )
            if used is not None and not used.size:
                continue
            if used is not None and not proj:
                out[sel, dest] = self._pool_columns(batch, maps, widths, used)
                continue
            # Each box's (cells, D) block is C-contiguous, as it was when
            # pooled image by image.  The block's memory order picks the
            # BLAS kernel, and with it the last bits of a real PCA projection.
            cells = _stacks(batch, maps, widths)
            rows = (proj.project(cells) if proj else cells).reshape(sel.size, -1)
            out[sel, dest] = rows if used is None else rows[:, used]
        ch = self.channels
        if not (ch.semantic or ch.edge):
            return out
        # The label and edge maps share one stride-1 mapping.
        start = self.cell_dim * grid.cells
        if ch.semantic:
            labels = {i: _aux_map(records[i], "label_map", "a label map")
                      for i in whole.images}
            stop = start + NUM_LABEL_CLASSES * grid.cells
            dest, used = block(start, stop)
            if used is None or used.size:
                rows = whole.histogram_pool(labels, NUM_LABEL_CLASSES)
                out[:, dest] = rows if used is None else rows[:, used]
            start = stop
        if ch.edge:
            edges = {i: _aux_map(records[i], "edge_map", "an edge map") for i in whole.images}
            dest, used = block(start, self.length)
            if used is None or used.size:
                if ch.edge_pooling == "hist":
                    codes = {i: edge_codes(e, EDGE_BINS) for i, e in edges.items()}
                    rows = whole.histogram_pool(codes, EDGE_BINS)
                else:
                    rows = np.empty((len(boxes), grid.cells, 1), dtype=np.float32)
                    whole.max_pool({i: (1, e[..., None]) for i, e in edges.items()}, rows)
                    rows = rows.reshape(len(boxes), -1)
                out[:, dest] = rows if used is None else rows[:, used]
        return out

    def _pool_columns(
        self, batch: BoxBatch, maps: list[dict], widths: list[int], used: np.ndarray
    ) -> np.ndarray:
        """The ``used`` columns of a projector-less bin's CNN block: (N, used.size).

        ``used`` counts from the block's start; column j is channel
        ``j % cell_dim`` of the bin's stack at cell ``j // cell_dim``.
        """
        cell, dim = np.divmod(used, self.cell_dim)
        out = np.empty((len(batch), used.size), dtype=np.float32)
        cells = self.table.grid.cells
        start = 0
        for layer_maps, width in zip(maps, widths):
            mine = np.flatnonzero((start <= dim) & (dim < start + width))
            if mine.size > PAIR_GATHER_SHARE * cells * width:
                pooled = np.empty((len(batch), cells, width), dtype=np.float32)
                batch.max_pool(layer_maps, pooled)
                out[:, mine] = pooled[:, cell[mine], dim[mine] - start]
            elif mine.size:
                out[:, mine] = batch.max_pool_pairs(layer_maps, cell[mine], dim[mine] - start)
            start += width
        return out


def _aux_map(record: ImageRecord, attr: str, what: str) -> np.ndarray:
    """The data of the record's label or edge map (``attr``)."""
    amap = getattr(record, attr)
    if amap is None:
        raise MissingLayerError(f"image {record.image_id!r} lacks {what}")
    return amap.data
