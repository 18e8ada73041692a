"""Brute-force reference implementations shared by module and acceptance tests.

Everything here favors obviousness over speed: per-pixel Python loops and
exhaustive scans, no vectorization, no code shared with the package beyond
its public data types.  Divisions that define float32 outputs are performed
in float32 so comparisons against the package can be exact.
"""

import math
from dataclasses import asdict, fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from samhead.dataset import Dataset, ImageSample
from samhead.geometry import GroundTruth, ScoredBoxes
from samhead.maps import NUM_LABEL_CLASSES, EdgeMap, FeatureMap, ImageRecord, LabelMap
from samhead.pooling import FeatureRect, PoolGrid
from samhead.synth import PED_WIDTH_RATIO


class Box(NamedTuple):
    """One box, top-left corner plus extent: the per-box form the oracles reason in."""

    x: float
    y: float
    w: float
    h: float

    @property
    def x2(self):
        return self.x + self.w

    @property
    def y2(self):
        return self.y + self.h

    @property
    def cx(self):
        return self.x + 0.5 * self.w

    @property
    def cy(self):
        return self.y + 0.5 * self.h

    @property
    def area(self):
        return self.w * self.h


def boxes_of(record):
    """The (x, y, w, h) rows of a package record, as ``Box`` values."""
    return [Box(*row) for row in record.boxes.tolist()]


def iou(a, b):
    """Intersection over union of two boxes, by the textbook formula."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def oracle_windows(extent, k):
    """Grid slot boundaries: floor(i * extent / k), degenerate slots pinned to one cell."""
    out = []
    for i in range(k):
        a = math.floor(i * extent / k)
        b = math.floor((i + 1) * extent / k)
        if b <= a:
            a = min(a, extent - 1)
            b = a + 1
        out.append((a, b))
    return out


def oracle_max_pool(data, rect, m, n):
    """Channel-major per-cell max via per-pixel scanning; float32 output."""
    channels = data.shape[0]
    rows = oracle_windows(rect.row_end - rect.row_start, m)
    cols = oracle_windows(rect.col_end - rect.col_start, n)
    out = []
    for c in range(channels):
        for r0, r1 in rows:
            for c0, c1 in cols:
                best = -math.inf
                for r in range(rect.row_start + r0, rect.row_start + r1):
                    for cc in range(rect.col_start + c0, rect.col_start + c1):
                        v = float(data[c, r, cc])
                        if v > best:
                            best = v
                out.append(best)
    return np.array(out, dtype=np.float32)


def oracle_histogram_pool(labels, rect, m, n, num_classes):
    """Cell-major per-cell class histograms via per-pixel counting, each cell summing to one."""
    rows = oracle_windows(rect.row_end - rect.row_start, m)
    cols = oracle_windows(rect.col_end - rect.col_start, n)
    out = []
    for r0, r1 in rows:
        for c0, c1 in cols:
            counts = [0] * num_classes
            pixels = 0
            for r in range(rect.row_start + r0, rect.row_start + r1):
                for cc in range(rect.col_start + c0, rect.col_start + c1):
                    counts[int(labels[r, cc])] += 1
                    pixels += 1
            hist = np.array(counts, dtype=np.float32) / np.float32(pixels)
            out.extend(hist.tolist())
    return np.array(out, dtype=np.float32)


def oracle_edge_hist_pool(edges, rect, m, n, bins):
    """Cell-major per-cell edge-strength histograms, value 1.0 in the top bin."""
    rows = oracle_windows(rect.row_end - rect.row_start, m)
    cols = oracle_windows(rect.col_end - rect.col_start, n)
    out = []
    for r0, r1 in rows:
        for c0, c1 in cols:
            counts = [0] * bins
            pixels = 0
            for r in range(rect.row_start + r0, rect.row_start + r1):
                for cc in range(rect.col_start + c0, rect.col_start + c1):
                    q = int(np.float32(edges[r, cc]) * np.float32(bins))
                    counts[min(q, bins - 1)] += 1
                    pixels += 1
            hist = np.array(counts, dtype=np.float32) / np.float32(pixels)
            out.extend(hist.tolist())
    return np.array(out, dtype=np.float32)


def random_pool_instance(rng):
    """One randomized (maps, box, grid) pooling instance overlapping the map."""
    stride = int(rng.choice([1, 2, 4, 8, 16]))
    map_h = int(rng.integers(2, 21))
    map_w = int(rng.integers(2, 21))
    channels = int(rng.integers(1, 5))
    fmap = FeatureMap(
        "layer", stride, rng.normal(size=(channels, map_h, map_w)).astype(np.float32)
    )
    labels = LabelMap(rng.integers(0, 21, size=(map_h, map_w)).astype(np.uint8))
    edges = rng.random(size=(map_h, map_w), dtype=np.float64).astype(np.float32)
    if rng.random() < 0.5:
        edges[int(rng.integers(0, map_h)), int(rng.integers(0, map_w))] = 1.0
    grid = PoolGrid(int(rng.integers(1, 15)), int(rng.integers(1, 15)))
    w_px, h_px = map_w * stride, map_h * stride
    while True:
        x = float(rng.uniform(-0.3 * w_px, 0.95 * w_px))
        y = float(rng.uniform(-0.3 * h_px, 0.95 * h_px))
        bw = float(rng.uniform(0.5, 1.1 * w_px))
        bh = float(rng.uniform(0.5, 1.1 * h_px))
        if x + bw > 0 and y + bh > 0:
            break
    return fmap, labels, EdgeMap(edges), Box(x, y, bw, bh), grid


def random_match_instance(rng, max_boxes=6):
    """Random detections and ground truth for one image, box counts <= max_boxes.

    Ground truth mixes eligible and ignore-worthy boxes (short, occluded, or
    flagged); detections cluster near ground truth often enough to produce
    real matching pressure, and scores are coarse so ties occur.
    """
    def rand_box():
        return Box(float(rng.uniform(0, 150)), float(rng.uniform(0, 150)),
                   float(rng.uniform(5, 60)), float(rng.uniform(20, 100)))

    gts = [
        (rand_box(), float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.3)),
         bool(rng.random() < 0.2))
        for _ in range(int(rng.integers(0, max_boxes + 1)))
    ]
    dets, scores = [], []
    for _ in range(int(rng.integers(0, max_boxes + 1))):
        if gts and rng.random() < 0.6:
            g = gts[int(rng.integers(0, len(gts)))][0]
            b = Box(
                g.x + float(rng.uniform(-5, 5)),
                g.y + float(rng.uniform(-5, 5)),
                g.w * float(rng.uniform(0.8, 1.2)),
                g.h * float(rng.uniform(0.8, 1.2)),
            )
        else:
            b = rand_box()
        dets.append(b)
        scores.append(round(float(rng.uniform(0, 1)), 1))
    return ScoredBoxes(dets, scores), GroundTruth(*zip(*gts)) if gts else GroundTruth()


def oracle_greedy_match(detections, ground_truth, iou_threshold, eligible_flags):
    """Greedy matching, restated with exhaustive pair scans and no sorting tricks.

    ``eligible_flags[k]`` says whether ground_truth[k] counts (ineligible boxes
    act as ignore regions).  Detections are visited in score order, ties by
    input position; each claims its best-overlapping unclaimed eligible box at
    or above the threshold, else is ignored if any ignore region overlaps
    enough, else is a false positive.  Returns (ordered scores, flags,
    eligible count) with flags 1=TP, 0=FP, -1=ignored.
    """
    det_scores = detections.scores.tolist()
    detections, ground_truth = boxes_of(detections), boxes_of(ground_truth)
    remaining = list(range(len(detections)))
    order = []
    while remaining:
        best = remaining[0]
        for idx in remaining[1:]:
            if det_scores[idx] > det_scores[best]:
                best = idx
        remaining.remove(best)
        order.append(best)

    claimed = [False] * len(ground_truth)
    flags = []
    for idx in order:
        det = detections[idx]
        best_k = -1
        best_overlap = 0.0
        for k, gt in enumerate(ground_truth):
            if not eligible_flags[k] or claimed[k]:
                continue
            overlap = iou(det, gt)
            if overlap >= iou_threshold and overlap > best_overlap:
                best_overlap = overlap
                best_k = k
        if best_k >= 0:
            claimed[best_k] = True
            flags.append(1)
            continue
        ignored = False
        for k, gt in enumerate(ground_truth):
            if eligible_flags[k]:
                continue
            if iou(det, gt) >= iou_threshold:
                ignored = True
                break
        flags.append(-1 if ignored else 0)

    scores = [det_scores[idx] for idx in order]
    eligible = sum(1 for f in eligible_flags if f)
    return scores, flags, eligible


def oracle_training_candidates(dataset, top_k, pos_iou, neg_iou):
    """The training samples' choice, by sorting and scalar IoU scans.

    Per image: rank the proposals by descending score (ties in input order),
    keep the first ``top_k``, and drop those not overlapping the image.  A
    kept proposal is a positive at IoU >= pos_iou with some non-ignored
    annotation (so never in an image without one), and enters the
    hard-negative pool at IoU < neg_iou with every annotation.  Returns
    (positives, pool): lists of (image index, box, score) in image order,
    then rank order.
    """
    positives, pool = [], []
    for i, s in enumerate(dataset):
        w, h = s.record.image_w, s.record.image_h
        proposals = zip(boxes_of(s.proposals), s.proposals.scores.tolist())
        ranked = sorted(enumerate(proposals), key=lambda t: (-t[1][1], t[0]))[:top_k]
        every = boxes_of(s.ground_truth)
        real = [g for g, ignore in zip(every, s.ground_truth.ignore.tolist()) if not ignore]
        for _, (b, score) in ranked:
            if not (b.x < w and b.y < h and b.x + b.w > 0 and b.y + b.h > 0):
                continue
            if real and max(iou(b, g) for g in real) >= pos_iou:
                positives.append((i, b, score))
            if max((iou(b, g) for g in every), default=0.0) < neg_iou:
                pool.append((i, b, score))
    return positives, pool


def oracle_cnn_descriptor(record, box, table, projectors):
    """The CNN block of ``box``'s descriptor, cell-major, as float32.

    The box goes to the first bin whose height range holds it (the first bin
    when it is shorter than all of them).  Its layers are max-pooled by
    ``oracle_max_pool`` and stacked per cell; each cell is projected by the
    bin's projector, or, for a bin without one, through an explicit
    ``(v - 0) @ eye(D)``.
    """
    spec = next((b for b in table.bins
                 if b.min_height <= box.h and (b.max_height is None or box.h < b.max_height)),
                table.bins[0])
    m, n = table.grid.m, table.grid.n
    parts = []
    for name in spec.layers:
        fmap = record.layer(name)
        rect = _oracle_feature_rect(box, fmap.stride, fmap.height, fmap.width)
        parts.append(oracle_max_pool(fmap.data, rect, m, n).reshape(fmap.channels, m * n))
    cells = np.concatenate(parts).T.astype(np.float64)  # (m*n, D)
    proj = projectors.get(spec.projector_id)
    if proj is None:
        mean, basis = np.zeros(cells.shape[1]), np.eye(cells.shape[1])
    else:
        mean, basis = proj.mean, proj.basis
    return ((cells - mean) @ basis.T).reshape(-1).astype(np.float32)


def oracle_background_draws(dataset, min_height, max_height, count, neg_iou, seed):
    """The training background boxes, drawn attempt by attempt.

    Each attempt draws, from ``default_rng(seed)``, an image among those
    taller than ``min_height + 2``, a height in [min_height, max_height)
    capped at the image height less 2, and a position inside the image; the
    width is 0.41 times the height.  An attempt whose height range or width
    does not fit is skipped; a box at IoU >= neg_iou with any annotation is
    rejected.  Attempts stop at ``count`` kept boxes or ``200 * count + 1000``
    attempts.  Returns (kept (image index, box) pairs in draw order, number
    of boxes rejected for overlap).
    """
    rng = np.random.default_rng(seed)
    samples = list(dataset)
    usable = [i for i, s in enumerate(samples) if s.record.image_h - 2.0 > min_height]
    kept, rejected, attempts = [], 0, 0
    while len(kept) < count and attempts < 200 * count + 1000:
        attempts += 1
        i = usable[int(rng.integers(len(usable)))]
        s = samples[i]
        w_img, h_img = s.record.image_w, s.record.image_h
        top = h_img - 2.0 if max_height is None else min(max_height, h_img - 2.0)
        if top <= min_height:
            continue
        h = float(rng.uniform(min_height, top))
        w = 0.41 * h
        if w >= w_img - 2.0:
            continue
        x = float(rng.uniform(0.0, w_img - w - 1.0))
        y = float(rng.uniform(0.0, h_img - h - 1.0))
        box = Box(x, y, w, h)
        if max((iou(box, g) for g in boxes_of(s.ground_truth)), default=0.0) >= neg_iou:
            rejected += 1
            continue
        kept.append((i, box))
    return kept, rejected


def oracle_binner(X, max_bins):
    """Reference binning, one column at a time: (cuts per feature, sample-major uint8 bins).

    Columns with at most ``max_bins`` distinct values cut at the midpoints of
    consecutive distinct values; denser columns cut at the distinct values
    among the ``max_bins - 1`` interior ``np.quantile`` points.  A value
    falls in the bin of the first cut it does not exceed.
    """
    X = np.asarray(X)
    n, n_features = X.shape
    cuts = []
    bins = np.empty((n, n_features), dtype=np.uint8)
    interior = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    for f in range(n_features):
        col = X[:, f].astype(np.float64)
        uniq = np.unique(col)
        if uniq.size <= max_bins:
            c = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            c = np.unique(np.quantile(col, interior))
        cuts.append(c)
        bins[:, f] = np.searchsorted(c, col, side="left")
    return cuts, bins


def oracle_train_tree(cuts, bins, w, y, max_depth, eps):
    """Reference greedy tree growth on sample-major bins, minimizing Z.

    Every node builds its positive and negative histograms from scratch and
    scans all (feature, cut) pairs at once; ``np.argmin`` over the
    feature-major flattening picks the lowest feature, then the lowest cut,
    among equal Z.  Needs at least one feature with a cut.

    Returns the tree as five explicit preorder arrays, ``feature``,
    ``threshold``, ``left``, ``right`` and ``value`` (a leaf has feature,
    left and right -1 and threshold 0.0; a split has value 0.0).
    """
    w = np.asarray(w, dtype=np.float64)
    pos = np.asarray(y) > 0
    w_pos = np.where(pos, w, 0.0)
    w_neg = np.where(pos, 0.0, w)
    n_cuts = np.array([c.size for c in cuts], dtype=np.int64)
    B = int(n_cuts.max(initial=0)) + 1
    F = len(cuts)
    col_offset = np.arange(F, dtype=np.int64) * B
    invalid = np.arange(B - 1, dtype=np.int64)[None, :] >= n_cuts[:, None]
    feature, threshold, left, right, value = [], [], [], [], []

    def leaf_score(wp, wn):
        return 0.5 * math.log((wp + eps) / (wn + eps))

    def build(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        wp = float(w_pos[idx].sum())
        wn = float(w_neg[idx].sum())
        if depth >= max_depth or idx.size < 2 or wp == 0.0 or wn == 0.0:
            value[node] = leaf_score(wp, wn)
            return node
        flat = (bins[idx].astype(np.int64) + col_offset[None, :]).reshape(-1)
        hp = np.bincount(flat, weights=np.repeat(w_pos[idx], F), minlength=F * B)
        hn = np.bincount(flat, weights=np.repeat(w_neg[idx], F), minlength=F * B)
        cp = np.cumsum(hp.reshape(F, B), axis=1)[:, : B - 1]
        cn = np.cumsum(hn.reshape(F, B), axis=1)[:, : B - 1]
        rp = np.maximum(wp - cp, 0.0)
        rn = np.maximum(wn - cn, 0.0)
        z = 2.0 * (np.sqrt(cp * cn) + np.sqrt(rp * rn))
        bad = invalid | ((cp + cn) <= 0.0) | ((rp + rn) <= 0.0)
        z[bad] = np.inf
        best = int(np.argmin(z))
        if not np.isfinite(z.reshape(-1)[best]):
            value[node] = leaf_score(wp, wn)
            return node
        f, b = divmod(best, B - 1)
        feature[node] = f
        threshold[node] = float(cuts[f][b])
        goes_left = bins[idx, f] <= b
        left[node] = build(idx[goes_left], depth + 1)
        right[node] = build(idx[~goes_left], depth + 1)
        return node

    build(np.arange(bins.shape[0], dtype=np.int64), 0)
    return SimpleNamespace(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def oracle_tree_apply(tree, X):
    """Leaf value of each sample, walking the tree one sample at a time.

    ``tree`` has the model file's layout: a split's threshold is its
    ``value``, its left child the next node and its right child ``right``.
    """
    out = []
    for x in np.asarray(X):
        node = 0
        while tree.feature[node] >= 0:
            goes_left = x[tree.feature[node]] <= tree.value[node]
            node = node + 1 if goes_left else tree.right[node]
        out.append(tree.value[node])
    return np.array(out, dtype=np.float64)


# --- the synthetic generator as it was before its draws were batched ------
#
# A verbatim copy of ``samhead.synth.generate_dataset`` and its helpers: one
# numpy update and one noise draw per channel, a taper per class slab, and a
# Python ``iou`` per proposal and ground-truth pair.  The batched generator
# must reproduce it bit for bit, with the same draws in the same order.
# The world's fixed values are literals here, not ``samhead.synth``'s
# constants, so a changed constant shows up as a changed byte.

_ORACLE_FIXED = dict(
    image_w=256, image_h=176, small_heights=(52.0, 78.0), large_heights=(96.0, 140.0),
    small_fraction=0.55, placement_max_iou=0.1,
    distractors_per_image=(1, 3), occluded_fraction=0.08,
    proposals_per_gt=6, rough_proposals_per_gt=1, distractor_proposals=2,
    proposal_jitter=0.06, rough_jitter=0.25,
    prior_base=0.25, prior_iou_weight=0.35, prior_noise=0.15, distractor_prior_bonus=0.08,
    class_channels=8, shared_channels=8, contour_channels=4, shared_amp=0.8,
    bg_sigma=1.0, fg_sigma=0.5, band_log_width=0.3,
    ped_class=11, distractor_classes=(4, 13), distractor_mislabel_rate=0.3,
    clutter_rects=6, edge_noise_segments=12,
    pattern_seed=0,
)

_ORACLE_PART_BANDS = ((0.0, 0.4), (0.3, 0.7), (0.6, 1.0))


class _OraclePattern:
    def __init__(self, class_idx, class_sign, class_part, shared_idx, contour_idx):
        self.class_idx = class_idx
        self.class_sign = class_sign
        self.class_part = class_part
        self.shared_idx = shared_idx
        self.contour_idx = contour_idx


class _OracleObject:
    def __init__(self, box, sign):
        self.box = box
        self.sign = sign


def _oracle_draw_patterns(cfg, rng):
    by_width = {}
    patterns = {}
    for name in sorted(cfg.layers):
        width = cfg.layers[name].channels
        if width not in by_width:
            perm = rng.permutation(width)
            part = np.empty((cfg.class_channels, 2))
            for slot, ch in enumerate(rng.permutation(cfg.class_channels)):
                part[ch] = _ORACLE_PART_BANDS[slot % len(_ORACLE_PART_BANDS)]
            n_cs = cfg.class_channels + cfg.shared_channels
            by_width[width] = _OraclePattern(
                class_idx=perm[: cfg.class_channels].copy(),
                class_sign=rng.choice((-1.0, 1.0), size=cfg.class_channels),
                class_part=part,
                shared_idx=perm[cfg.class_channels : n_cs].copy(),
                contour_idx=perm[n_cs : n_cs + cfg.contour_channels].copy(),
            )
        patterns[name] = by_width[width]
    return patterns


def _oracle_band_gain(height, band_center, log_width):
    return math.exp(-((math.log(height / band_center) / log_width) ** 2))


def _oracle_sample_height(cfg, rng):
    if rng.random() < cfg.small_fraction:
        lo, hi = cfg.small_heights
    else:
        lo, hi = cfg.large_heights
    return float(rng.uniform(lo, hi))


def _oracle_place_box(cfg, h, rng):
    w = PED_WIDTH_RATIO * h
    x = float(rng.uniform(1.0, cfg.image_w - w - 1.0))
    y = float(rng.uniform(1.0, cfg.image_h - h - 1.0))
    return Box(x, y, w, h)


def _oracle_feature_rect(box, stride, map_h, map_w):
    rs = min(max(math.floor(box.y / stride), 0), map_h - 1)
    cs = min(max(math.floor(box.x / stride), 0), map_w - 1)
    re = min(max(math.ceil(box.y2 / stride), rs + 1), map_h)
    ce = min(max(math.ceil(box.x2 / stride), cs + 1), map_w)
    return FeatureRect(rs, re, cs, ce)


def _oracle_taper(coords, lo, hi):
    t = (coords - lo) / max(hi - lo, 1e-9)
    edge = np.minimum(t, 1.0 - t)
    w = 0.5 * (1.0 - np.cos(np.pi * np.clip(edge / 0.35, 0.0, 1.0)))
    w[(t < 0.0) | (t > 1.0)] = 0.0
    return w


def _oracle_deposit(data, spec, pat, obj, cfg, rng):
    H, W = data.shape[1], data.shape[2]
    rect = _oracle_feature_rect(obj.box, spec.stride, H, W)
    g = _oracle_band_gain(obj.box.h, spec.band_center, cfg.band_log_width)
    amp = float(np.clip(1.0 + 0.1 * rng.standard_normal(), 0.7, 1.3))
    rows = slice(rect.row_start, rect.row_end)
    cols = slice(rect.col_start, rect.col_end)
    shape = (rect.rows, rect.cols)
    prof_x = _oracle_taper(np.arange(rect.col_start, rect.col_end) + 0.5,
                           obj.box.x / spec.stride, obj.box.x2 / spec.stride)
    prof_y = _oracle_taper(np.arange(rect.row_start, rect.row_end) + 0.5,
                           obj.box.y / spec.stride, obj.box.y2 / spec.stride)
    for idx in pat.shared_idx:
        data[idx, rows, cols] += (cfg.shared_amp * g * amp * np.outer(prof_y, prof_x)
                                  + rng.normal(0.0, cfg.fg_sigma, shape))
    for sign, idx, (plo, phi) in zip(pat.class_sign, pat.class_idx, pat.class_part):
        slab_y0 = obj.box.y + plo * obj.box.h
        slab_y1 = obj.box.y + phi * obj.box.h
        slab = Box(obj.box.x, slab_y0, obj.box.w, slab_y1 - slab_y0)
        sr = _oracle_feature_rect(slab, spec.stride, H, W)
        slab_prof = np.outer(
            _oracle_taper(np.arange(sr.row_start, sr.row_end) + 0.5,
                          slab_y0 / spec.stride, slab_y1 / spec.stride),
            prof_x[sr.col_start - rect.col_start : sr.col_end - rect.col_start],
        )
        data[idx, sr.row_start : sr.row_end, sr.col_start : sr.col_end] += (
            obj.sign * sign * cfg.class_amp * g * amp * slab_prof
            + rng.normal(0.0, cfg.fg_sigma, (sr.rows, sr.cols))
        )
    t = max(1.25 * spec.stride, 0.06 * obj.box.h)
    strips = (
        Box(obj.box.x, obj.box.y, obj.box.w, t),
        Box(obj.box.x, obj.box.y2 - t, obj.box.w, t),
        Box(obj.box.x, obj.box.y, t, obj.box.h),
        Box(obj.box.x2 - t, obj.box.y, t, obj.box.h),
    )
    for k, idx in enumerate(pat.contour_idx):
        rr = _oracle_feature_rect(strips[k % 4], spec.stride, H, W)
        data[idx, rr.row_start : rr.row_end, rr.col_start : rr.col_end] += (
            cfg.contour_amp * g * amp
            + rng.normal(0.0, cfg.fg_sigma, (rr.rows, rr.cols))
        )


def _oracle_paint_rect(arr, box, value):
    x0 = max(int(box.x), 0)
    y0 = max(int(box.y), 0)
    x1 = min(int(math.ceil(box.x2)), arr.shape[1])
    y1 = min(int(math.ceil(box.y2)), arr.shape[0])
    if x1 > x0 and y1 > y0:
        arr[y0:y1, x0:x1] = value


def _oracle_outline(arr, box, value):
    x0 = max(int(box.x), 0)
    y0 = max(int(box.y), 0)
    x1 = min(int(math.ceil(box.x2)), arr.shape[1]) - 1
    y1 = min(int(math.ceil(box.y2)), arr.shape[0]) - 1
    if x1 <= x0 or y1 <= y0:
        return
    arr[y0, x0 : x1 + 1] = np.maximum(arr[y0, x0 : x1 + 1], value)
    arr[y1, x0 : x1 + 1] = np.maximum(arr[y1, x0 : x1 + 1], value)
    arr[y0 : y1 + 1, x0] = np.maximum(arr[y0 : y1 + 1, x0], value)
    arr[y0 : y1 + 1, x1] = np.maximum(arr[y0 : y1 + 1, x1], value)


def _oracle_jittered(box, rel, cfg, rng):
    if rel <= 0.0:
        return box
    w = box.w * math.exp(rng.normal(0.0, rel))
    h = box.h * math.exp(rng.normal(0.0, rel))
    x = box.x + rng.normal(0.0, rel * box.w)
    y = box.y + rng.normal(0.0, rel * box.h)
    w = min(max(w, 4.0), cfg.image_w - 1.0)
    h = min(max(h, 4.0), cfg.image_h - 1.0)
    x = min(max(x, 0.0), cfg.image_w - w)
    y = min(max(y, 0.0), cfg.image_h - h)
    return Box(float(x), float(y), float(w), float(h))


def _oracle_random_box(cfg, rng):
    h = float(rng.uniform(cfg.small_heights[0], cfg.large_heights[1]))
    h = min(h, cfg.image_h - 2.0)
    w = min(PED_WIDTH_RATIO * h, cfg.image_w - 2.0)
    x = float(rng.uniform(0.0, cfg.image_w - w - 1.0))
    y = float(rng.uniform(0.0, cfg.image_h - h - 1.0))
    return Box(x, y, w, h)


def oracle_generate_dataset(cfg, seed):
    """Reference ``generate_dataset``: the per-channel, per-proposal original."""
    meta_config = asdict(cfg)
    cfg = SimpleNamespace(**_ORACLE_FIXED, **{f.name: getattr(cfg, f.name) for f in fields(cfg)})
    patterns = _oracle_draw_patterns(
        cfg, np.random.default_rng(np.random.SeedSequence(cfg.pattern_seed))
    )
    children = np.random.SeedSequence(seed).spawn(cfg.num_images)

    samples = []
    for i in range(cfg.num_images):
        rng = np.random.default_rng(children[i])
        image_id = f"img{i:04d}"

        n_ped = int(rng.integers(cfg.peds_per_image[0], cfg.peds_per_image[1] + 1))
        n_dis = int(rng.integers(cfg.distractors_per_image[0], cfg.distractors_per_image[1] + 1))
        objects = []
        for sign, count in ((1.0, n_ped), (-1.0, n_dis)):
            for _ in range(count):
                for _attempt in range(40):
                    box = _oracle_place_box(cfg, _oracle_sample_height(cfg, rng), rng)
                    if all(iou(box, o.box) <= cfg.placement_max_iou for o in objects):
                        objects.append(_OracleObject(box, sign))
                        break
        peds = [o for o in objects if o.sign > 0]
        distractors = [o for o in objects if o.sign < 0]

        feature_maps = {}
        for name in sorted(cfg.layers):
            spec = cfg.layers[name]
            H = -(-cfg.image_h // spec.stride)
            W = -(-cfg.image_w // spec.stride)
            data = rng.normal(0.0, cfg.bg_sigma, (spec.channels, H, W)).astype(np.float32)
            for obj in objects:
                _oracle_deposit(data, spec, patterns[name], obj, cfg, rng)
            feature_maps[name] = FeatureMap(name, spec.stride, data)

        label = np.zeros((cfg.image_h, cfg.image_w), dtype=np.uint8)
        other = [c for c in range(1, NUM_LABEL_CLASSES) if c != cfg.ped_class]
        for _ in range(cfg.clutter_rects):
            cw = int(rng.integers(cfg.image_w // 8, cfg.image_w // 3 + 1))
            chh = int(rng.integers(cfg.image_h // 8, cfg.image_h // 3 + 1))
            cx = int(rng.integers(0, cfg.image_w - cw + 1))
            cy = int(rng.integers(0, cfg.image_h - chh + 1))
            label[cy : cy + chh, cx : cx + cw] = int(rng.choice(other))
        for obj in distractors:
            if rng.random() < cfg.distractor_mislabel_rate:
                cls = cfg.ped_class
            else:
                cls = int(rng.choice(cfg.distractor_classes))
            _oracle_paint_rect(label, obj.box, cls)
        for obj in peds:
            _oracle_paint_rect(label, obj.box, cfg.ped_class)

        edge = rng.uniform(0.0, 0.12, (cfg.image_h, cfg.image_w)).astype(np.float32)
        for _ in range(cfg.edge_noise_segments):
            length = int(rng.integers(8, 41))
            strength = float(rng.uniform(0.3, 1.0))
            if rng.random() < 0.5:
                yy = int(rng.integers(0, cfg.image_h))
                xx = int(rng.integers(0, max(cfg.image_w - length, 1)))
                edge[yy, xx : xx + length] = np.maximum(edge[yy, xx : xx + length], strength)
            else:
                yy = int(rng.integers(0, max(cfg.image_h - length, 1)))
                xx = int(rng.integers(0, cfg.image_w))
                edge[yy : yy + length, xx] = np.maximum(edge[yy : yy + length, xx], strength)
        for obj in objects:
            _oracle_outline(edge, obj.box, float(rng.uniform(0.6, 1.0)))

        ground_truth = []
        for obj in peds:
            if rng.random() < cfg.occluded_fraction:
                occl = float(rng.uniform(0.45, 0.7))
            else:
                occl = float(rng.uniform(0.0, 0.1))
            ground_truth.append((obj.box, occl, float(rng.uniform(0.0, 0.08))))

        boxes = []
        bonuses = []
        for obj in peds:
            for _ in range(cfg.proposals_per_gt):
                boxes.append(_oracle_jittered(obj.box, cfg.proposal_jitter, cfg, rng))
                bonuses.append(0.0)
            for _ in range(cfg.rough_proposals_per_gt):
                boxes.append(_oracle_jittered(obj.box, cfg.rough_jitter, cfg, rng))
                bonuses.append(0.0)
        for obj in distractors:
            for _ in range(cfg.distractor_proposals):
                boxes.append(_oracle_jittered(obj.box, cfg.proposal_jitter, cfg, rng))
                bonuses.append(cfg.distractor_prior_bonus)
        for _ in range(cfg.background_proposals):
            boxes.append(_oracle_random_box(cfg, rng))
            bonuses.append(0.0)
        scores = []
        for box, bonus in zip(boxes, bonuses):
            best = max((iou(box, g) for g, _, _ in ground_truth), default=0.0)
            score = (cfg.prior_base + cfg.prior_iou_weight * best + bonus
                     + float(rng.normal(0.0, cfg.prior_noise)))
            scores.append(float(np.clip(score, 0.01, 0.99)))

        record = ImageRecord(
            image_id=image_id,
            image_w=cfg.image_w,
            image_h=cfg.image_h,
            feature_maps=feature_maps,
            label_map=LabelMap(label),
            edge_map=EdgeMap(edge),
        )
        samples.append(ImageSample(
            record=record,
            ground_truth=GroundTruth(*zip(*ground_truth)) if ground_truth else GroundTruth(),
            proposals=ScoredBoxes(boxes, scores),
        ))

    meta = {
        "generator": "samhead.synth",
        "seed": seed,
        "config": meta_config,
        "layers": {name: {"stride": spec.stride, "channels": spec.channels}
                   for name, spec in sorted(cfg.layers.items())},
    }
    return Dataset(samples=samples, meta=meta)
