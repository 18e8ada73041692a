"""Deterministic synthetic dataset generator for desk-scale verification.

Planted objects (pedestrians and distractors) deposit channel patterns into
every layer.  Per layer, a fixed random subset of channels is
class-discriminative: pedestrians push those channels one way, distractors
the opposite way, while a second shared subset gets the same bump from both
classes so low-order statistics match.  The deposit amplitude is scaled by a
log-Gaussian band in the object's pixel height centered on the layer's
``band_center``: each layer resolves objects near its own preferred size and
washes out away from it.  The band center is a property of the layer's depth
(receptive field), not of its stride; dilated layers keep a fine stride while
still preferring larger objects.  Layers with the same channel count share
one channel assignment, so descriptors concatenated from different layer
pairs line up dimension-for-dimension.  Proposal scores correlate with
ground-truth overlap but stay deliberately noisy, so the classifier has to
earn the ranking.

``SynthConfig`` holds only what a run varies: the image count, the layers,
the pedestrian and background-proposal counts and the class and contour
amplitudes.  Everything else about the world is a module constant below.

Draw order.  The channel assignment comes from a generator seeded with
``PATTERN_SEED``; each image draws from its own generator, spawned from
``seed``.  Within an image the draws come in this order, and the bytes of a
dataset rest on it:

1. the pedestrian count (``cfg.peds_per_image``) and distractor count
   (``DISTRACTORS_PER_IMAGE``), then per object a height and a position,
   redrawn while its overlap with an earlier object exceeds
   ``PLACEMENT_MAX_IOU``;
2. per layer, in name order: the background map (one normal per value),
   then per object, in placement order, its deposit: the amplitude (one
   standard normal), then the noise of the ``SHARED_CHANNELS`` (each a block
   over the object's cells, row-major), of each of the ``CLASS_CHANNELS`` (a
   block over its part-band slab) and of each of the ``CONTOUR_CHANNELS`` (a
   block over its silhouette strip), channel by channel in pattern order;
3. the label map's ``CLUTTER_RECTS``, then each distractor's label;
4. the edge map's background, its ``EDGE_NOISE_SEGMENTS``, then one outline
   strength per object;
5. each pedestrian's occlusion and truncation;
6. the proposals' jitter (per pedestrian its ``PROPOSALS_PER_GT`` fine then
   its ``ROUGH_PROPOSALS_PER_GT`` rough copies, then per distractor its
   ``DISTRACTOR_PROPOSALS``), then the ``cfg.background_proposals``;
7. one prior-score noise value per proposal, in proposal order.

One draw of ``n`` values gives the same values as ``n`` single draws, so a
step may batch its draws as long as this order stays: the deposit draws all
its noise at once, the proposals their jitter, their background uniforms
and their score noise.  An image's objects and proposals are (x, y, w, h)
rows, its boxes a ``GroundTruth`` and a ``ScoredBoxes`` (see ``geometry``).
``tests/oracles.py`` keeps the draw-by-draw generator as the referee.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import Dataset, ImageSample
from .errors import ConfigError
from .geometry import GroundTruth, ScoredBoxes, iou_matrix
from .maps import VALID_STRIDES, EdgeMap, FeatureMap, ImageRecord, LabelMap, NUM_LABEL_CLASSES
from .pooling import map_boxes_to_feature_coords

PED_WIDTH_RATIO = 0.41

# Image geometry and object placement.
IMAGE_W = 256
IMAGE_H = 176
SMALL_HEIGHTS = (52.0, 78.0)
LARGE_HEIGHTS = (96.0, 140.0)
SMALL_FRACTION = 0.55  # share of objects drawn from SMALL_HEIGHTS
PLACEMENT_MAX_IOU = 0.1  # max IoU tolerated between any two planted objects

# Object population beside the configured pedestrians.
DISTRACTORS_PER_IMAGE = (1, 3)
OCCLUDED_FRACTION = 0.08

# Proposals: jittered copies of each object, then random background boxes.
PROPOSALS_PER_GT = 6
ROUGH_PROPOSALS_PER_GT = 1
DISTRACTOR_PROPOSALS = 2
PROPOSAL_JITTER = 0.06
ROUGH_JITTER = 0.25

# Proposal prior score: base + weight * best IoU + bonus + noise, clipped.
PRIOR_BASE = 0.25
PRIOR_IOU_WEIGHT = 0.35
PRIOR_NOISE = 0.15
DISTRACTOR_PRIOR_BONUS = 0.08

# Feature signal: channels per role in every layer, and the signal's shape.
CLASS_CHANNELS = 8
SHARED_CHANNELS = 8
CONTOUR_CHANNELS = 4
SHARED_AMP = 0.8
BG_SIGMA = 1.0
FG_SIGMA = 0.5
BAND_LOG_WIDTH = 0.3

# Label and edge maps.
PED_CLASS = 11
DISTRACTOR_CLASSES = (4, 13)
DISTRACTOR_MISLABEL_RATE = 0.3
CLUTTER_RECTS = 6
EDGE_NOISE_SEGMENTS = 12

# Seeds which channels carry class, shared and contour signal, so datasets
# of every seed share one feature semantics.
PATTERN_SEED = 0

_CLUTTER_CLASSES = [c for c in range(1, NUM_LABEL_CLASSES) if c != PED_CLASS]


@dataclass(frozen=True)
class LayerSpec:
    """Geometry and signal band of one synthesized layer.

    ``band_center`` is the object height (px) the layer resolves best; it
    tracks the layer's depth, so a dilated deep layer can pair a fine stride
    with a large-object band.
    """

    stride: int
    channels: int
    band_center: float

    def __post_init__(self) -> None:
        if self.stride not in VALID_STRIDES or self.channels < 1:
            raise ConfigError(f"bad layer spec: stride={self.stride}, channels={self.channels}; "
                              f"strides are {VALID_STRIDES}")
        if self.band_center <= 0.0:
            raise ConfigError(f"band_center must be positive, got {self.band_center}")


def default_synth_layers() -> dict[str, LayerSpec]:
    return {
        "conv3": LayerSpec(stride=4, channels=64, band_center=56.0),
        "conv4a": LayerSpec(stride=4, channels=64, band_center=84.0),
        "conv5a": LayerSpec(stride=8, channels=64, band_center=124.0),
    }


@dataclass(frozen=True)
class SynthConfig:
    num_images: int = 24
    layers: dict[str, LayerSpec] = field(default_factory=default_synth_layers)
    peds_per_image: tuple[int, int] = (1, 3)
    background_proposals: int = 60
    class_amp: float = 2.4
    contour_amp: float = 3.0

    def __post_init__(self) -> None:
        if self.num_images < 1:
            raise ConfigError(f"num_images must be >= 1, got {self.num_images}")
        if not self.layers:
            raise ConfigError("need at least one layer spec")
        need = CLASS_CHANNELS + SHARED_CHANNELS + CONTOUR_CHANNELS
        for name, spec in self.layers.items():
            if spec.channels < need:
                raise ConfigError(
                    f"layer {name!r} has {spec.channels} channels, fewer than {CLASS_CHANNELS} "
                    f"class + {SHARED_CHANNELS} shared + {CONTOUR_CHANNELS} contour"
                )
        lo, hi = self.peds_per_image
        if lo < 0 or hi < lo:
            raise ConfigError(f"peds_per_image must be ordered and nonnegative, got ({lo}, {hi})")
        if hi == 0:
            raise ConfigError("config would generate no pedestrians at all")
        if self.background_proposals < 0:
            raise ConfigError(
                f"background_proposals must be >= 0, got {self.background_proposals}"
            )


@dataclass
class _Pattern:
    """Which channels of a layer carry which signal.

    ``_deposit`` walks the class and contour channels one at a time, so they
    are lists; it updates all shared channels at once through ``shared_idx``.
    """

    class_idx: list[int]
    class_sign: list[float]
    class_band: list[int]  # index into _PART_BANDS, per class channel
    shared_idx: np.ndarray
    contour_idx: list[int]


# Class channels are part-selective: each responds to one vertical slab of
# the object (head / torso / legs, loosely), so a badly aligned box pools the
# slab pattern into the wrong grid rows and loses its margin.
_PART_BANDS = ((0.0, 0.4), (0.3, 0.7), (0.6, 1.0))


def _draw_patterns(layers: dict[str, LayerSpec], rng: np.random.Generator) -> dict[str, _Pattern]:
    # Layers of equal width share one assignment: channel c then means the
    # same thing in every such layer, and descriptors stacked from different
    # layer pairs stay comparable dimension-for-dimension.
    by_width: dict[int, _Pattern] = {}
    patterns = {}
    for name in sorted(layers):
        width = layers[name].channels
        if width not in by_width:
            perm = rng.permutation(width)
            band = [0] * CLASS_CHANNELS
            for slot, ch in enumerate(rng.permutation(CLASS_CHANNELS).tolist()):
                band[ch] = slot % len(_PART_BANDS)
            n_cs = CLASS_CHANNELS + SHARED_CHANNELS
            by_width[width] = _Pattern(
                class_idx=perm[: CLASS_CHANNELS].tolist(),
                class_sign=rng.choice((-1.0, 1.0), size=CLASS_CHANNELS).tolist(),
                class_band=band,
                shared_idx=perm[CLASS_CHANNELS : n_cs].copy(),
                contour_idx=perm[n_cs : n_cs + CONTOUR_CHANNELS].tolist(),
            )
        patterns[name] = by_width[width]
    return patterns


def band_gain(height: float, band_center: float, log_width: float) -> float:
    """Class-signal survival factor for an object of `height` px on one layer."""
    return math.exp(-((math.log(height / band_center) / log_width) ** 2))


def _sample_height(rng: np.random.Generator) -> float:
    if rng.random() < SMALL_FRACTION:
        lo, hi = SMALL_HEIGHTS
    else:
        lo, hi = LARGE_HEIGHTS
    return float(rng.uniform(lo, hi))


def _place_box(h: float, rng: np.random.Generator) -> tuple[float, float, float, float]:
    w = PED_WIDTH_RATIO * h
    x = float(rng.uniform(1.0, IMAGE_W - w - 1.0))
    y = float(rng.uniform(1.0, IMAGE_H - h - 1.0))
    return (x, y, w, h)


def _taper(coords: np.ndarray, lo: float | np.ndarray, hi: float | np.ndarray) -> np.ndarray:
    """Flat-top window over [lo, hi]: 1 in the middle, cosine to 0 at edges.

    Gives deposits a boundary falloff so a badly aligned box pools a visibly
    degraded pattern instead of riding the full-strength interior.  ``lo``
    and ``hi`` are scalars or arrays shaped like ``coords``.
    """
    t = (coords - lo) / np.maximum(hi - lo, 1e-9)
    edge = np.minimum(t, 1.0 - t)  # distance to nearer box edge, in box units
    w = 0.5 * (1.0 - np.cos(np.pi * np.clip(edge / 0.35, 0.0, 1.0)))
    w[(t < 0.0) | (t > 1.0)] = 0.0
    return w


def _tapers(spans: list[tuple[int, int, float, float]]) -> list[np.ndarray]:
    """``_taper`` of cell centers ``start + 0.5 .. end - 0.5`` over ``[lo, hi]``
    for each ``(start, end, lo, hi)`` span, computed in one pass."""
    coords: list[int] = []
    los: list[float] = []
    his: list[float] = []
    for start, end, lo, hi in spans:
        coords += range(start, end)
        los += [lo] * (end - start)
        his += [hi] * (end - start)
    w = _taper(np.array(coords) + 0.5, np.array(los), np.array(his))
    out, at = [], 0
    for start, end, _, _ in spans:
        out.append(w[at : at + end - start])
        at += end - start
    return out


@dataclass(frozen=True)
class _Footprint:
    """Where one object deposits on a map of one stride.

    Rects are cell rects ``(row_start, row_end, col_start, col_end)``.  The
    shared channels cover ``rect`` with ``profile``; a class channel covers
    its part band's slab with the slab's profile, a contour channel its
    silhouette strip.
    """

    rect: tuple[int, int, int, int]
    profile: np.ndarray
    slab_rects: list[tuple[int, int, int, int]]
    slab_profiles: list[np.ndarray]
    strip_rects: list[tuple[int, int, int, int]]


def _footprints(boxes: np.ndarray, stride: int, H: int, W: int) -> list[_Footprint]:
    """Each object's footprint on an (H, W) map of one stride.  Every box of
    every object (body, slabs, strips) goes to cells in one mapping call."""
    # One slab per part band, shared by the band's class channels.  Silhouette
    # strips, orientation-split: contour channel k fires along one side of
    # the object (top, bottom, left, right in turn), for pedestrians and
    # distractors alike.  A crop pinned to one corner keeps only that
    # corner's sides; a centered interior crop keeps none, and max pooling
    # cannot counterfeit the absent sides.
    boxes = boxes.tolist()
    parts, slabs = [], []
    for x, y, w, h in boxes:
        slabs.append([(y + plo * h, y + phi * h) for plo, phi in _PART_BANDS])
        t = max(1.25 * stride, 0.06 * h)
        parts += [(x, y, w, h), *((x, y0, w, y1 - y0) for y0, y1 in slabs[-1]),
                  (x, y, w, t), (x, y + h - t, w, t), (x, y, t, h), (x + w - t, y, t, h)]
    rects = iter(map(tuple, map_boxes_to_feature_coords(parts, stride, H, W).tolist()))
    out = []
    for (x, y, w, h), box_slabs in zip(boxes, slabs):
        rect = rs, re, cs, ce = next(rects)
        slab_rects = [next(rects) for _ in box_slabs]
        prof_x, prof_y, *slab_ys = _tapers(
            [(cs, ce, x / stride, (x + w) / stride), (rs, re, y / stride, (y + h) / stride)]
            + [(r0, r1, y0 / stride, y1 / stride)
               for (r0, r1, _, _), (y0, y1) in zip(slab_rects, box_slabs)]
        )
        slab_profiles = [np.outer(y, prof_x[c0 - cs : c1 - cs])
                         for y, (_, _, c0, c1) in zip(slab_ys, slab_rects)]
        strip_rects = [next(rects) for _ in range(4)]
        out.append(_Footprint(rect, np.outer(prof_y, prof_x), slab_rects, slab_profiles,
                              strip_rects))
    return out


def _deposit(data: np.ndarray, fp: _Footprint, spec: LayerSpec, pat: _Pattern, height: float,
             sign: float, cfg: SynthConfig, rng: np.random.Generator) -> None:
    g = band_gain(height, spec.band_center, BAND_LOG_WIDTH)
    amp = min(max(1.0 + 0.1 * rng.standard_normal(), 0.7), 1.3)
    # The deposit's noise comes from one draw, cut into one block per channel
    # in the draw order of the module docstring.
    rs, re, cs, ce = fp.rect
    class_rects = [fp.slab_rects[b] for b in pat.class_band]
    contour_rects = [fp.strip_rects[k % 4] for k in range(len(pat.contour_idx))]
    n_shared = len(pat.shared_idx) * (re - rs) * (ce - cs)
    noise = rng.normal(0.0, FG_SIGMA, n_shared + sum(
        (r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in class_rects + contour_rects))

    data[pat.shared_idx, rs:re, cs:ce] += (
        SHARED_AMP * g * amp * fp.profile + noise[:n_shared].reshape(-1, re - rs, ce - cs)
    )
    at = n_shared
    for channel_sign, idx, band, (r0, r1, c0, c1) in zip(pat.class_sign, pat.class_idx,
                                                         pat.class_band, class_rects):
        n = (r1 - r0) * (c1 - c0)
        data[idx, r0:r1, c0:c1] += (
            sign * channel_sign * cfg.class_amp * g * amp * fp.slab_profiles[band]
            + noise[at : at + n].reshape(r1 - r0, c1 - c0)
        )
        at += n
    for idx, (r0, r1, c0, c1) in zip(pat.contour_idx, contour_rects):
        n = (r1 - r0) * (c1 - c0)
        data[idx, r0:r1, c0:c1] += (
            cfg.contour_amp * g * amp + noise[at : at + n].reshape(r1 - r0, c1 - c0)
        )
        at += n


def _outline(arr: np.ndarray, rect: list[int], value: float) -> None:
    """Raise the one-pixel border of a ``(row_start, row_end, col_start, col_end)``
    rect to at least ``value``."""
    r0, r1, c0, c1 = rect
    for side in np.s_[r0, c0:c1], np.s_[r1 - 1, c0:c1], np.s_[r0:r1, c0], np.s_[r0:r1, c1 - 1]:
        arr[side] = np.maximum(arr[side], value)


def _jittered(boxes: np.ndarray, rel: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A jittered copy of each (x, y, w, h) row at its relative scale ``rel``.

    Each copy draws four normals, for w, h, x and y; one call draws them all,
    at scales ``rel``, ``rel``, ``rel * w`` and ``rel * h``.
    """
    x, y, w, h = boxes.T
    noise = rng.normal(0.0, np.column_stack([rel, rel, rel * w, rel * h]))
    # math.exp, value by value: numpy's exp can differ from it in the last bit.
    growth = np.array(list(map(math.exp, noise[:, :2].ravel().tolist()))).reshape(-1, 2)
    w = np.minimum(np.maximum(w * growth[:, 0], 4.0), IMAGE_W - 1.0)
    h = np.minimum(np.maximum(h * growth[:, 1], 4.0), IMAGE_H - 1.0)
    x = np.minimum(np.maximum(x + noise[:, 2], 0.0), IMAGE_W - w)
    y = np.minimum(np.maximum(y + noise[:, 3], 0.0), IMAGE_H - h)
    return np.column_stack([x, y, w, h])


def _random_boxes(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` random boxes.  One ``random`` call draws each box's h, x and y uniforms in
    turn, mapped as ``uniform`` maps them, ``low + (high - low) * u`` (x and y: low 0)."""
    u = rng.random((n, 3))
    h = SMALL_HEIGHTS[0] + (LARGE_HEIGHTS[1] - SMALL_HEIGHTS[0]) * u[:, 0]
    w = PED_WIDTH_RATIO * h
    return np.column_stack([(IMAGE_W - w - 1.0) * u[:, 1], (IMAGE_H - h - 1.0) * u[:, 2], w, h])


def generate_dataset(cfg: SynthConfig, seed: int) -> Dataset:
    """Generate a dataset; identical (cfg, seed) pairs yield identical bytes.

    Which channels carry signal is fixed by ``PATTERN_SEED``, not by
    ``seed``, so train/test splits generated with different seeds still share
    the same feature semantics.  A negative seed is a ConfigError.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    patterns = _draw_patterns(
        cfg.layers, np.random.default_rng(np.random.SeedSequence(PATTERN_SEED))
    )
    children = np.random.SeedSequence(seed).spawn(cfg.num_images)

    samples = []
    for i in range(cfg.num_images):
        rng = np.random.default_rng(children[i])
        image_id = f"img{i:04d}"

        n_ped = int(rng.integers(cfg.peds_per_image[0], cfg.peds_per_image[1] + 1))
        n_dis = int(rng.integers(DISTRACTORS_PER_IMAGE[0], DISTRACTORS_PER_IMAGE[1] + 1))
        # Rejection placement: overlapping opposite-sign deposits would cancel
        # each other, so a crowded draw is retried and eventually dropped.
        placed, signs = [], []  # sign +1 for a pedestrian, -1 for a distractor
        for sign, count in ((1.0, n_ped), (-1.0, n_dis)):
            for _ in range(count):
                for _attempt in range(40):
                    box = _place_box(_sample_height(rng), rng)
                    if (iou_matrix(box, placed) <= PLACEMENT_MAX_IOU).all():
                        placed.append(box)
                        signs.append(sign)
                        break
        boxes, peds = np.array(placed).reshape(-1, 4), np.array(signs) > 0
        n_ped, n_dis = int(peds.sum()), int((~peds).sum())  # placement may drop some

        feature_maps = {}
        footprints: dict[int, list[_Footprint]] = {}  # layers of one stride share them
        for name in sorted(cfg.layers):
            spec = cfg.layers[name]
            H = -(-IMAGE_H // spec.stride)
            W = -(-IMAGE_W // spec.stride)
            data = rng.normal(0.0, BG_SIGMA, (spec.channels, H, W)).astype(np.float32)
            if spec.stride not in footprints:
                footprints[spec.stride] = _footprints(boxes, spec.stride, H, W)
            for height, sign, fp in zip(boxes[:, 3].tolist(), signs, footprints[spec.stride]):
                _deposit(data, fp, spec, patterns[name], height, sign, cfg, rng)
            feature_maps[name] = FeatureMap(name, spec.stride, data)

        # Each object's pixel rect on the label and edge maps.
        pixels = map_boxes_to_feature_coords(boxes, 1, IMAGE_H, IMAGE_W).tolist()
        label = np.zeros((IMAGE_H, IMAGE_W), dtype=np.uint8)
        for _ in range(CLUTTER_RECTS):
            cw = int(rng.integers(IMAGE_W // 8, IMAGE_W // 3 + 1))
            chh = int(rng.integers(IMAGE_H // 8, IMAGE_H // 3 + 1))
            cx = int(rng.integers(0, IMAGE_W - cw + 1))
            cy = int(rng.integers(0, IMAGE_H - chh + 1))
            label[cy : cy + chh, cx : cx + cw] = int(rng.choice(_CLUTTER_CLASSES))
        for k in np.flatnonzero(~peds).tolist():
            if rng.random() < DISTRACTOR_MISLABEL_RATE:
                cls = PED_CLASS
            else:
                cls = int(rng.choice(DISTRACTOR_CLASSES))
            r0, r1, c0, c1 = pixels[k]
            label[r0:r1, c0:c1] = cls
        for k in np.flatnonzero(peds).tolist():
            r0, r1, c0, c1 = pixels[k]
            label[r0:r1, c0:c1] = PED_CLASS

        edge = rng.uniform(0.0, 0.12, (IMAGE_H, IMAGE_W)).astype(np.float32)
        for _ in range(EDGE_NOISE_SEGMENTS):
            length = int(rng.integers(8, 41))
            strength = float(rng.uniform(0.3, 1.0))
            if rng.random() < 0.5:
                yy = int(rng.integers(0, IMAGE_H))
                xx = int(rng.integers(0, IMAGE_W - length))
                edge[yy, xx : xx + length] = np.maximum(edge[yy, xx : xx + length], strength)
            else:
                yy = int(rng.integers(0, IMAGE_H - length))
                xx = int(rng.integers(0, IMAGE_W))
                edge[yy : yy + length, xx] = np.maximum(edge[yy : yy + length, xx], strength)
        for rect in pixels:
            _outline(edge, rect, float(rng.uniform(0.6, 1.0)))

        occl, trunc = np.empty(n_ped), np.empty(n_ped)
        for k in range(n_ped):
            if rng.random() < OCCLUDED_FRACTION:
                occl[k] = rng.uniform(0.45, 0.7)
            else:
                occl[k] = rng.uniform(0.0, 0.1)
            trunc[k] = rng.uniform(0.0, 0.08)
        ground_truth = GroundTruth(boxes[peds], occl, trunc)

        # Each pedestrian's fine then rough jittered copies, then each
        # distractor's, then the background boxes.  The loose duplicates
        # imitate the sloppy end of a region-proposal stage; they give
        # training its only box-accuracy contrast.
        per_ped = [PROPOSAL_JITTER] * PROPOSALS_PER_GT + [ROUGH_JITTER] * ROUGH_PROPOSALS_PER_GT
        per_dis = [PROPOSAL_JITTER] * DISTRACTOR_PROPOSALS
        copies = np.repeat(boxes, np.where(peds, len(per_ped), len(per_dis)), axis=0)
        jittered = _jittered(copies, np.array(per_ped * n_ped + per_dis * n_dis), rng)
        props = np.vstack([jittered, _random_boxes(cfg.background_proposals, rng)])
        bonus = np.zeros(len(props))
        bonus[len(per_ped) * n_ped : len(jittered)] = DISTRACTOR_PRIOR_BONUS
        best = iou_matrix(props, ground_truth.boxes).max(axis=1, initial=0.0)
        scores = (PRIOR_BASE + PRIOR_IOU_WEIGHT * best + bonus
                  + rng.normal(0.0, PRIOR_NOISE, len(props)))
        proposals = ScoredBoxes(props, np.minimum(np.maximum(scores, 0.01), 0.99))

        record = ImageRecord(
            image_id=image_id,
            image_w=IMAGE_W,
            image_h=IMAGE_H,
            feature_maps=feature_maps,
            label_map=LabelMap(label),
            edge_map=EdgeMap(edge),
        )
        samples.append(ImageSample(record=record, ground_truth=ground_truth,
                                   proposals=proposals))

    meta = {
        "generator": "samhead.synth",
        "seed": seed,
        "config": asdict(cfg),
        "layers": {name: {"stride": spec.stride, "channels": spec.channels}
                   for name, spec in sorted(cfg.layers.items())},
    }
    return Dataset(samples=samples, meta=meta)
