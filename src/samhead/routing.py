"""Scale-dependent routing of candidates to layer combinations, plus descriptor assembly.

Each scale bin names the CNN layers pooled for candidates in its height range.
A bin whose layers pool the table's target dimension per cell keeps its pooled
stack; PCA runs only where widths differ, mapping that bin's per-cell stack to
the target, so descriptors have one length no matter which bin produced them.
Optional semantic and edge channels are appended after the CNN block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .maps import ImageRecord, NUM_LABEL_CLASSES
from .pca import PcaProjector
# roi_edge_pool, roi_histogram_pool and roi_max_pool are not called here:
# descriptors use the batched functions.  They stay importable from
# this module because perfbench/tracing.py hooks them here.
from .pooling import (  # noqa: F401
    MaxWindows,
    PoolGrid,
    edge_codes,
    grid_histogram_pool,
    grid_max_pool,
    map_boxes_to_feature_coords,
    max_windows,
    roi_edge_pool,
    roi_histogram_pool,
    roi_max_pool,
    window_max,
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


def pool_bin_stacks(
    record: ImageRecord, boxes: np.ndarray, table: RoutingTable, bin_index: int
) -> np.ndarray:
    """Channel-major pooled stacks of one bin's layers for (x, y, w, h) boxes.

    Shape (N, D_bin, m*n): layer blocks in bin order, each (C_layer, m*n).
    Layers of one (stride, H, W) geometry share the boxes' windows.
    """
    windows: dict[tuple[int, int, int], MaxWindows] = {}
    parts = []
    for name in table.bins[bin_index].layers:
        try:
            fmap = record.layer(name)
        except DataError:
            raise MissingLayerError(
                f"image {record.image_id!r} lacks routed layer {name!r}"
            ) from None
        geometry = (fmap.stride, fmap.height, fmap.width)
        if geometry not in windows:
            rects = map_boxes_to_feature_coords(boxes, *geometry)
            windows[geometry] = max_windows(rects, table.grid, fmap.height, fmap.width)
        parts.append(window_max(fmap.hwc, windows[geometry]))
    return np.concatenate(parts, axis=1)


def pool_bin_cells(
    record: ImageRecord, box: np.ndarray, table: RoutingTable, bin_index: int
) -> np.ndarray:
    """Per-cell stacked channel vectors of one bin's layers for one (x, y, w, h) box,
    shape (m*n, D_bin).  Unused here; perfbench/tracing.py hooks it by name."""
    return pool_bin_stacks(record, np.reshape(box, (1, 4)), table, bin_index)[0].T


#: Quantized edge strengths per cell of the edge histogram channel.
EDGE_BINS = 16


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

    def _aux_blocks(self, record: ImageRecord, boxes: np.ndarray) -> list[np.ndarray]:
        grid = self.table.grid
        ch = self.channels
        blocks = []
        if ch.semantic:
            lmap = record.label_map
            if lmap is None:
                raise MissingLayerError(f"image {record.image_id!r} lacks a label map")
            rects = map_boxes_to_feature_coords(boxes, 1, lmap.height, lmap.width)
            blocks.append(grid_histogram_pool(lmap.data, rects, grid, NUM_LABEL_CLASSES))
        if ch.edge:
            emap = record.edge_map
            if emap is None:
                raise MissingLayerError(f"image {record.image_id!r} lacks an edge map")
            rects = map_boxes_to_feature_coords(boxes, 1, emap.height, emap.width)
            if ch.edge_pooling == "hist":
                blocks.append(grid_histogram_pool(
                    edge_codes(emap.data, EDGE_BINS), rects, grid, EDGE_BINS
                ))
            else:
                blocks.append(grid_max_pool(emap.data[..., None], rects, grid))
        return [b.reshape(len(boxes), -1) for b in blocks]

    def extract_many(self, record: ImageRecord, boxes: np.ndarray) -> np.ndarray:
        """Descriptors for one image's (x, y, w, h) boxes, pooled bin by bin."""
        out = np.empty((len(boxes), self.length), dtype=np.float32)
        if not len(boxes):
            return out
        bins = self.table.route(boxes[:, 3])
        cnn = self.cell_dim * self.table.grid.cells
        for i, spec in enumerate(self.table.bins):
            sel = np.flatnonzero(bins == i)
            if not sel.size:
                continue
            stacks = pool_bin_stacks(record, boxes[sel], self.table, i)
            proj = self.projectors.get(spec.projector_id)
            width = proj.input_dim if proj else self.cell_dim
            if stacks.shape[1] != width:
                need = "its projector expects" if proj else "it has no projector and the target is"
                raise ConfigError(
                    f"bin {spec.projector_id!r} pools {stacks.shape[1]} channels per cell "
                    f"but {need} {width}"
                )
            # Each box's (cells, D) block is the transpose of its C-ordered
            # (D, cells) stack.  The block's memory order picks the BLAS
            # kernel, and with it the last bits of a real PCA projection.
            cells = stacks.transpose(0, 2, 1)
            out[sel, :cnn] = (proj.project(cells) if proj else cells).reshape(sel.size, -1)
        col = cnn
        for block in self._aux_blocks(record, boxes):
            out[:, col : col + block.shape[1]] = block
            col += block.shape[1]
        return out
