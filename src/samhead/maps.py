"""In-memory containers for per-image feature, label, and edge maps.

All containers freeze their numpy payload (``writeable=False``) so records can
be shared across threads without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

VALID_STRIDES = (1, 2, 4, 8, 16)

#: Label maps carry 20 semantic classes plus a void index at 0.
NUM_LABEL_CLASSES = 21
VOID_CLASS = 0


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass
class FeatureMap:
    """One convolutional layer's activations for one image.

    Built from a (C, H, W) array, stored once channel-last: ``hwc`` is a
    C-contiguous (H, W, C) array, so each pixel's C channels are one
    contiguous row, and ``data`` is its (C, H, W) view.  Passing
    ``hwc.transpose(2, 0, 1)`` of a C-contiguous float32 array stores it
    without a copy; any other layout is copied once.
    """

    layer_name: str
    stride: int
    data: np.ndarray
    hwc: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.stride not in VALID_STRIDES:
            raise DataError(f"unsupported stride {self.stride} for layer {self.layer_name!r}")
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise DataError(f"feature map {self.layer_name!r} must be (C, H, W), got shape {arr.shape}")
        hwc = _freeze(arr.transpose(1, 2, 0))
        if not np.isfinite(hwc).all():
            raise DataError(f"feature map {self.layer_name!r} contains non-finite values")
        self.hwc = hwc
        self.data = hwc.transpose(2, 0, 1)

    @property
    def channels(self) -> int:
        return self.hwc.shape[2]

    @property
    def height(self) -> int:
        return self.hwc.shape[0]

    @property
    def width(self) -> int:
        return self.hwc.shape[1]


@dataclass
class LabelMap:
    """Per-pixel semantic class indices, 0 meaning void."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise DataError(f"label map must be 2-D, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise DataError(f"label map must hold integers, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() > 255:
                raise DataError("label map values do not fit in uint8")
            arr = arr.astype(np.uint8)
        if int(arr.max(initial=0)) >= NUM_LABEL_CLASSES:
            raise DataError(
                f"label map has class {int(arr.max())} outside [0, {NUM_LABEL_CLASSES - 1}]"
            )
        self.data = _freeze(arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass
class EdgeMap:
    """Per-pixel edge strength in [0, 1]."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise DataError(f"edge map must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DataError("edge map contains non-finite values")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise DataError("edge map values must lie in [0, 1]")
        self.data = _freeze(arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def _check_covers(what: str, stride: int, map_h: int, map_w: int, image_w: int, image_h: int) -> None:
    # Each map must tile the image to within one cell along both axes.
    if stride * map_w < image_w - stride or stride * map_h < image_h - stride:
        raise DataError(
            f"{what} with stride {stride} and shape ({map_h}, {map_w}) "
            f"does not cover a {image_w}x{image_h} image"
        )


@dataclass
class ImageRecord:
    """Everything the head sees for one image: CNN maps plus optional label/edge maps."""

    image_id: str
    image_w: int
    image_h: int
    feature_maps: dict[str, FeatureMap] = field(default_factory=dict)
    label_map: LabelMap | None = None
    edge_map: EdgeMap | None = None

    def __post_init__(self) -> None:
        if self.image_w <= 0 or self.image_h <= 0:
            raise DataError(f"image size must be positive, got {self.image_w}x{self.image_h}")
        for name, fm in self.feature_maps.items():
            if name != fm.layer_name:
                raise DataError(f"feature map key {name!r} does not match layer name {fm.layer_name!r}")
            _check_covers(f"layer {name!r}", fm.stride, fm.height, fm.width, self.image_w, self.image_h)
        if self.label_map is not None:
            _check_covers("label map", 1, self.label_map.height, self.label_map.width,
                          self.image_w, self.image_h)
        if self.edge_map is not None:
            _check_covers("edge map", 1, self.edge_map.height, self.edge_map.width,
                          self.image_w, self.image_h)

    def layer(self, name: str) -> FeatureMap:
        try:
            return self.feature_maps[name]
        except KeyError:
            raise DataError(f"image {self.image_id!r} has no layer {name!r}") from None
