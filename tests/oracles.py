"""Brute-force reference implementations shared by module and acceptance tests.

Everything here favors obviousness over speed: per-pixel Python loops and
exhaustive scans, no vectorization, no code shared with the package beyond
its public data types.  Divisions that define float32 outputs are performed
in float32 so comparisons against the package can be exact.
"""

import math

import numpy as np

from samhead.forest import Tree
from samhead.geometry import Box, Detection, GroundTruthBox, iou
from samhead.maps import EdgeMap, FeatureMap, LabelMap
from samhead.pooling import PoolGrid


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


def oracle_histogram_pool(labels, rect, m, n, num_classes, norm="cell"):
    """Cell-major per-cell class histograms via per-pixel counting."""
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
            denom = pixels if norm == "cell" else m * n
            hist = np.array(counts, dtype=np.float32) / np.float32(denom)
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
        GroundTruthBox(
            rand_box(),
            occlusion=float(rng.uniform(0, 0.5)),
            truncation=float(rng.uniform(0, 0.3)),
            ignore=bool(rng.random() < 0.2),
        )
        for _ in range(int(rng.integers(0, max_boxes + 1)))
    ]
    dets = []
    for _ in range(int(rng.integers(0, max_boxes + 1))):
        if gts and rng.random() < 0.6:
            g = gts[int(rng.integers(0, len(gts)))].box
            b = Box(
                g.x + float(rng.uniform(-5, 5)),
                g.y + float(rng.uniform(-5, 5)),
                g.w * float(rng.uniform(0.8, 1.2)),
                g.h * float(rng.uniform(0.8, 1.2)),
            )
        else:
            b = rand_box()
        dets.append(Detection(b, round(float(rng.uniform(0, 1)), 1)))
    return dets, gts


def oracle_greedy_match(detections, ground_truth, iou_threshold, eligible_flags):
    """Greedy matching, restated with exhaustive pair scans and no sorting tricks.

    ``eligible_flags[k]`` says whether ground_truth[k] counts (ineligible boxes
    act as ignore regions).  Detections are visited in score order, ties by
    input position; each claims its best-overlapping unclaimed eligible box at
    or above the threshold, else is ignored if any ignore region overlaps
    enough, else is a false positive.  Returns (ordered scores, flags,
    eligible count) with flags 1=TP, 0=FP, -1=ignored.
    """
    remaining = list(range(len(detections)))
    order = []
    while remaining:
        best = remaining[0]
        for idx in remaining[1:]:
            if detections[idx].score > detections[best].score:
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
            overlap = iou(det.box, gt.box)
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
            if iou(det.box, gt.box) >= iou_threshold:
                ignored = True
                break
        flags.append(-1 if ignored else 0)

    scores = [detections[idx].score for idx in order]
    eligible = sum(1 for f in eligible_flags if f)
    return scores, flags, eligible


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
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def oracle_tree_apply(tree, X):
    """Leaf value of each sample, walking the tree one sample at a time."""
    out = []
    for x in np.asarray(X):
        node = 0
        while tree.feature[node] >= 0:
            goes_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if goes_left else tree.right[node]
        out.append(tree.value[node])
    return np.array(out, dtype=np.float64)
