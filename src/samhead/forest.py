"""Boosted decision-tree ensembles trained with RealBoost and hard-negative mining.

Trees are grown greedily on quantile-binned features, choosing at every node
the split that minimizes Z = 2 * sum_leaves sqrt(W+ * W-).  Leaf scores are
half log-odds with additive smoothing.  A forest scores a sample as
``prior_weight * prior + sum_t f_t(x)``; the proposal prior therefore acts as
a fixed round-zero margin, and boosting weights are initialized from it.

Layout and exactness.  The binned features, the split search and the scores
are computed so that every cut, bin and tree array is bit-equal to a plain
per-column, per-node reference (``tests/oracles.py``):

- ``FeatureBinner`` sorts each column once, a block of columns at a time.
  Distinct values are counted from adjacent differences of the sorted rows,
  as ``np.unique`` counts them, and the quantile cuts of dense columns repeat
  ``np.quantile``'s linear rule on the sorted rows operation for operation
  (see ``_sorted_quantiles``).  The bins come from the same rows, with one
  search per cut rather than per value: one ``bincount`` and one ``cumsum``
  bin a block in sorted order, and ``argsort`` returns the bins to the
  samples (see ``_column_bins``).  Bins are stored feature-major,
  ``(features, samples)`` uint8, so a node reads each feature's bins for its
  samples as one contiguous row.
- ``train_tree`` builds a node's histograms ``SCAN_BLOCK`` features at a
  time with one ``bincount`` per block.  A sample's key interleaves the two
  labels, ``2 * (k * B + b)`` for a positive in bin b of the block's k-th
  feature and one more for a negative (at most 2**15 - 1, so the keys of a
  tree are one uint16 array built once), so the histogram read as
  complex128 holds ``W+ + 1j * W-`` per bin.  ``bincount`` adds each bin's
  weights in sample order, the order a sample-major histogram adds them in;
  a label's entry only skips the other label's samples, whose weights would
  add 0.0 there, which leaves a nonnegative sum unchanged.
- The split scan runs per block too.  One complex ``cumsum`` along the bins
  gives the left sums of both labels: complex addition is two independent
  float additions, so each part is bit-equal to its own float ``cumsum``;
  the right sums are one complex subtraction.  Those sums and their two
  square roots go into buffers allocated once per tree, every step with
  ``out=``.  The scan minimizes Z / 2, since halving is exact and orders
  cuts as Z does, over the whole bin width, and masks lazily: it takes the
  first minimum of the unmasked Z, and only when that cut is unusable (the
  last bin or past the feature's cuts, or a side without weight) sets every
  unusable cut to inf and takes the argmin again.  A usable first minimum is
  also the masked first minimum: masking only raises entries to inf, so no
  earlier entry can fall to or below it, and an earlier NaN would have been
  the unmasked argmin.  A block's minimum replaces the best so far only when
  strictly smaller, so among equal Z the lowest feature and then the lowest
  cut win, as one argmin over all features would choose; a NaN Z anywhere
  ends the node as a leaf, as that argmin would.  Each block's arrays stay
  in cache where one whole-node pass streamed megabytes through memory.
- Trees are grown in the model file's layout (``Tree``): preorder nodes,
  each with a ``feature``, a ``right`` child and one float ``value``, a
  split's threshold or a leaf's score.  A split's left child is the next
  node, so no node stores it.  ``Forest`` keeps that layout: ``pack`` lays
  the trees' arrays end to end, and the saved forest (``Forest.to_dict``)
  holds ``sizes``, ``feature``, ``right`` and ``value`` as base64 arrays
  (``config.write_array``).
- For the walk, ``Forest`` derives each node's two children in
  ``next_node`` once, when ``realboost_fit`` finishes or
  ``Forest.from_dict`` loads, and ``Forest.apply`` walks all trees at once.
  A leaf points to itself as both children, so every (tree, sample) pair
  takes the forest's depth in steps with no test for having arrived; a pair
  that sits at a leaf stays there, and the walk ends by reading the float
  of the node it reached.  ``Forest.score`` still adds the trees' values
  one tree at a time, in order.
- A forest reads only the features it splits on.  ``Forest`` derives them
  once, sorted and distinct, as ``columns``.  ``Forest.on_columns`` is the
  same forest with each split's feature renumbered to its position in
  ``columns``; it scores ``X[:, columns]`` as the forest scores ``X``, bit
  for bit, since every comparison and every tree's value stay where they
  were.  Detection extracts those columns alone and scores them with it;
  training and mining score full rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import ConfigError, DataError


class TrainingError(DataError):
    """Training inputs are unusable (for example, no positive samples)."""


# --- trees -----------------------------------------------------------------


@dataclass
class Tree:
    """Decision tree as preorder node arrays, the layout of the model file.

    A split keeps its threshold in ``value``; its left child is the next
    node, k + 1, and ``right`` is its right child.  A leaf has feature and
    right child -1 and its score in ``value``.
    """

    feature: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return Forest.pack([self]).apply(X)[0]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


class FeatureBinner:
    """Per-feature threshold candidates: unique-value midpoints, capped by quantiles.

    Features with at most ``max_bins`` distinct values get the midpoints of
    consecutive unique values as candidate thresholds (exact search); denser
    features fall back to at most ``max_bins - 1`` deterministic quantile cut
    points.  Features must be finite.

    ``bins_by_feature`` holds the bin of every sample feature-major, shape
    (features, samples).
    """

    def __init__(self, X: np.ndarray, max_bins: int = 256):
        if max_bins < 2 or max_bins > 256:
            raise ConfigError(f"max_bins must be in [2, 256], got {max_bins}")
        X = np.asarray(X)
        if X.ndim != 2:
            raise TrainingError(f"feature matrix must be 2-D, got shape {X.shape}")
        n, n_features = X.shape
        self.n_features = n_features
        self.cuts: list[np.ndarray] = []
        bins = np.empty((n_features, n), dtype=np.uint8)
        # Columns are converted and sorted a block at a time, which bounds
        # the float64 copies alive at once.
        for f0 in range(0, n_features, _BINNER_BLOCK):
            columns = np.array(X[:, f0 : f0 + _BINNER_BLOCK].T, dtype=np.float64, order="C")
            ordered = np.sort(columns, axis=1)
            cuts = _column_cuts(ordered, max_bins)
            self.cuts += cuts
            bins[f0 : f0 + len(cuts)] = _column_bins(columns, ordered, cuts)
        self.bins_by_feature = bins
        self.n_cuts = np.array([c.size for c in self.cuts], dtype=np.int64)
        self.width = int(self.n_cuts.max(initial=0)) + 1


#: Features converted and sorted together by ``FeatureBinner``.
_BINNER_BLOCK = 256


def _column_cuts(ordered: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Candidate cuts of each row of ``ordered`` (one feature per row, sorted)."""
    # Sorted rows put -inf first and +inf and NaN last.
    if ordered.shape[1] and not np.isfinite(ordered[:, [0, -1]]).all():
        raise TrainingError("features must be finite")
    first_of_run = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first_of_run[:, 1:])
    dense = first_of_run.sum(axis=1) > max_bins
    quantiles = iter(_sorted_quantiles(ordered[dense], max_bins) if dense.any() else ())
    cuts = []
    for row, first, is_dense in zip(ordered, first_of_run, dense):
        if is_dense:
            cuts.append(np.unique(next(quantiles)))
        else:
            uniq = row[first]
            cuts.append((uniq[:-1] + uniq[1:]) / 2.0)
    return cuts


def _column_bins(columns: np.ndarray, ordered: np.ndarray, cuts: list[np.ndarray]) -> np.ndarray:
    """``searchsorted(cuts[f], columns[f], side="left")`` for every row f, as uint8.

    A cut's count of values at or below it is one search in the sorted row.
    The j-th smallest value exceeds exactly the cuts whose count is at most
    j, so the bins in sorted order are a cumulative sum of those counts'
    histogram, and ``argsort`` carries them back to the samples.  Values
    that compare equal share a bin, so how a sort orders ties (-0.0 and
    +0.0 among them) cannot change it.
    """
    rows, n = columns.shape
    counts = [np.searchsorted(row, c, side="right") + f * (n + 1)
              for f, (row, c) in enumerate(zip(ordered, cuts))]
    at_most = np.bincount(np.concatenate(counts), minlength=rows * (n + 1))
    ranked = np.cumsum(at_most.reshape(rows, n + 1)[:, :n], axis=1, dtype=np.uint8)
    bins = np.empty((rows, n), dtype=np.uint8)
    np.put_along_axis(bins, np.argsort(columns, axis=1), ranked, axis=1)
    return bins


def _sorted_quantiles(ordered: np.ndarray, max_bins: int) -> np.ndarray:
    """The ``max_bins - 1`` interior quantiles of each sorted row, as ``np.quantile``.

    Repeats numpy's default ("linear") rule operation for operation, so every
    value is bit-equal to ``np.quantile(row, q)``: with ``v = (n - 1) * q``,
    ``lo = floor(v)`` and ``g = v - lo``, the quantile is ``a + (b - a) * g``,
    or ``b - (b - a) * (1 - g)`` where ``g >= 0.5``, for ``a, b`` the sorted
    values at ``lo`` and ``lo + 1``.  Interior ``q`` keep ``lo + 1 < n``.
    (``np.quantile`` partitions where this sorts, and the two may order -0.0
    and +0.0 differently, so in a column holding both a quantile inside the
    run of zeros can differ in the sign of its zero.)
    """
    interior = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    virtual = (ordered.shape[1] - 1) * interior
    lo = np.floor(virtual).astype(np.intp)
    g = virtual - lo
    a = ordered[:, lo]
    diff = ordered[:, lo + 1] - a
    out = a + diff * g
    np.subtract(ordered[:, lo + 1], diff * (1 - g), out=out, where=g >= 0.5)
    return out


def _leaf_score(wp: float, wn: float, eps: float) -> float:
    return 0.5 * math.log((wp + eps) / (wn + eps))


#: Features per block of the histogram and split scan.  A block's keys,
#: weights and Z buffers stay in cache, and its histogram keys fit in
#: uint16: two labels in each of SCAN_BLOCK * 256 bins are 2**15 keys.
SCAN_BLOCK = 64


def train_tree(
    binner: FeatureBinner,
    w: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    eps: float,
) -> Tree:
    """Grow one tree on binned features, minimizing Z greedily.

    ``w`` must be nonnegative; ``y`` in {-1, +1}.  Ties between equally good
    splits resolve to the smallest feature index, then smallest threshold.
    A node where no feature has a usable cut becomes a leaf.  The tree comes
    out in the model file's layout (``Tree``).
    """
    if max_depth < 1:
        raise ConfigError(f"tree depth must be >= 1, got {max_depth}")
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y)
    bins = binner.bins_by_feature
    if w.shape != y.shape or w.shape[0] != bins.shape[1]:
        raise TrainingError("weights, labels, and features disagree on sample count")
    pos = y > 0
    w_pos = np.where(pos, w, 0.0)
    w_neg = np.where(pos, 0.0, w)
    B = binner.width
    F = binner.n_features
    # Histogram key of bin b of the block's k-th feature: 2 * (k * B + b) for a
    # positive sample, one more for a negative, so a block's histogram read
    # as complex128 holds W+ + 1j * W- per (feature, bin).
    keys = bins.astype(np.uint16)
    keys *= 2
    keys += (np.arange(F) % SCAN_BLOCK * (2 * B)).astype(np.uint16)[:, None]
    keys += ~pos
    n_cuts = binner.n_cuts
    # A block's left and right sums, W+ + 1j * W-, and their two square
    # roots, reused by every block of every node.  ``masses`` views the sums
    # as (side, feature, bin, W+ or W-) floats.
    sums = np.empty((2, SCAN_BLOCK, B), dtype=np.complex128)
    masses = sums.view(np.float64).reshape(2, SCAN_BLOCK, B, 2)
    roots = np.empty((2, SCAN_BLOCK, B), dtype=np.float64)

    feature: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def best_split(idx: np.ndarray, wp: float, wn: float) -> tuple[int, int] | None:
        weights = np.tile(w[idx], SCAN_BLOCK)
        best_z, best = np.inf, None
        for f0 in range(0, F, SCAN_BLOCK):
            nf = min(F - f0, SCAN_BLOCK)
            block_keys = keys[f0 : f0 + nf, idx]
            hist = np.bincount(block_keys.reshape(-1), weights=weights[: block_keys.size],
                               minlength=2 * SCAN_BLOCK * B)
            left, right = sums[:, :nf]
            np.cumsum(hist.view(np.complex128).reshape(SCAN_BLOCK, B)[:nf], axis=1, out=left)
            np.subtract(complex(wp, wn), left, out=right)
            # Right-side masses are differences of nearly equal sums; roundoff
            # can push them a hair below zero, which sqrt would turn into NaN.
            m = masses[:, :nf]
            np.maximum(m[1], 0.0, out=m[1])
            r = roots[:, :nf]
            np.multiply(m[..., 0], m[..., 1], out=r)
            np.sqrt(r, out=r)
            # Z / 2: halving is exact, so it orders the cuts as Z does.
            z = np.add(r[0], r[1], out=r[0])
            f, b = divmod(int(np.argmin(z)), B)
            (lp, ln), (rp, rn) = m[:, f, b]
            # Cut b of feature f is usable when b < n_cuts[f] (the last bin,
            # b = B - 1, never is) and both sides hold weight.  When the
            # first minimum is not, every unusable cut is masked.
            if b >= n_cuts[f0 + f] or lp + ln <= 0.0 or rp + rn <= 0.0:
                side = m[..., 0] + m[..., 1]
                unusable = np.arange(B)[None, :] >= n_cuts[f0 : f0 + nf, None]
                z[unusable | (side[0] <= 0.0) | (side[1] <= 0.0)] = np.inf
                f, b = divmod(int(np.argmin(z)), B)
            if z[f, b] < best_z:
                best_z, best = z[f, b], (f0 + f, b)
            elif np.isnan(z[f, b]):
                # A NaN Z anywhere is what a single argmin over all features
                # would have picked; it ends the node as a leaf.
                return None
        return best

    # Nodes are grown from a stack, left child on top, so they are numbered
    # in preorder: a split's left subtree follows it, then its right subtree.
    # Each entry is (samples, depth, the split it is the right child of, or
    # -1); a left child is the node after its split and needs no link.
    stack = [(np.arange(bins.shape[1], dtype=np.int64), 0, -1)]
    while stack:
        idx, depth, right_of = stack.pop()
        node = len(feature)
        if right_of >= 0:
            right[right_of] = node
        wp = float(w_pos[idx].sum())
        wn = float(w_neg[idx].sum())
        split = None
        if depth < max_depth and idx.size >= 2 and wp != 0.0 and wn != 0.0:
            split = best_split(idx, wp, wn)
        right.append(-1)  # a split's is set when its right child is grown
        if split is None:
            feature.append(-1)
            value.append(_leaf_score(wp, wn, eps))
            continue
        f, b = split
        feature.append(f)
        value.append(float(binner.cuts[f][b]))
        goes_left = bins[f, idx] <= b
        stack.append((idx[~goes_left], depth + 1, node))
        stack.append((idx[goes_left], depth + 1, -1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


# --- boosting ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Staged training schedule plus boosting knobs.

    ``stage_tree_counts[s]`` trees are trained from scratch at stage s; stage
    0 uses ``initial_negatives`` randomly sampled background boxes and every
    later stage appends up to ``hard_negatives_per_stage`` mined false
    positives before retraining.  ``bootstrap_train`` reads neither
    ``initial_negatives`` nor ``seed``: the pipeline draws the background
    boxes (``pipeline._training_samples``) and seeds the draw and the
    projector fits' sampling with ``seed``.  The defaults are the paper's
    six-stage schedule: 64..2048 trees, 30k initial negatives, +5k per
    stage.  Leaf smoothing (``1 / (2 * sample count)``) and the margin at
    which sample weights start to be computed relative to the smallest
    margin (``SHIFT_MARGIN``) are fixed; the sample overlap thresholds are
    ``pipeline.POS_IOU`` and ``pipeline.NEG_IOU``.
    """

    stage_tree_counts: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048)
    initial_negatives: int = 30000
    hard_negatives_per_stage: int = 5000
    max_depth: int = 5
    prior_weight: float = 1.0
    max_bins: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.stage_tree_counts or any(t < 1 for t in self.stage_tree_counts):
            raise ConfigError(f"bad stage tree counts {self.stage_tree_counts}")
        if self.initial_negatives < 1:
            raise ConfigError("initial_negatives must be >= 1")
        if self.hard_negatives_per_stage < 0:
            raise ConfigError("hard_negatives_per_stage must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 2 <= self.max_bins <= 256:
            raise ConfigError(f"max_bins must be in [2, 256], got {self.max_bins}")
        if not math.isfinite(self.prior_weight):
            raise ConfigError(f"prior_weight must be finite, got {self.prior_weight}")


#: Once the smallest margin passes +/- this bound, RealBoost exponentiates
#: margins relative to it (see ``realboost_fit``).
SHIFT_MARGIN = 50.0


@dataclass
class RoundLog:
    """Diagnostics recorded while boosting one stage.

    ``losses[r]`` is the log exponential loss ``log mean exp(-y F(x))``
    after round r.  ``clamp_events`` counts the sample weights that
    underflowed to zero, summed over the initial weights and every round's.
    """

    losses: list[float] = field(default_factory=list)
    weight_sum_errors: list[float] = field(default_factory=list)
    clamp_events: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


@dataclass
class StageLog:
    """Bookkeeping for one bootstrapping stage.

    ``final_loss`` and ``clamp_events`` are the stage's ``RoundLog``
    ``final_loss`` (a log loss) and ``clamp_events`` (underflowed weights).
    """

    stage: int
    tree_count: int
    negatives: int
    hard_added: int
    hard_requested: int
    final_loss: float
    clamp_events: int


#: Bound on trees * samples that ``Forest.score`` walks at once.
_TREE_VALUES_PER_SLICE = 1 << 20


class Forest:
    """Additive tree ensemble with a weighted proposal prior.

    The trees' node arrays lie end to end, tree t at nodes ``offsets[t]`` to
    ``offsets[t] + sizes[t]``, in ``Tree``'s layout, which is the model
    file's: ``feature`` (-1 at a leaf), ``right`` (a split's right child,
    counted from its tree's first node; -1 at a leaf) and ``value`` (a
    split's threshold or a leaf's score).  A split's left child is the next
    node.  The constructor keeps these arrays and derives the walk's once:
    in ``walk_feature`` and ``next_node`` children are global indices, and a
    leaf gets feature 0 and itself as both children, so every (tree, sample)
    pair can take ``depth`` steps with no test for having reached a leaf.
    ``next_node[k]`` holds node k's (right, left) children, the node a
    sample moves to when ``x <= value[k]`` is false or true.  ``columns``
    holds the features the splits read, sorted and distinct (empty when no
    node splits).
    """

    def __init__(
        self,
        sizes: np.ndarray,
        feature: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        prior_weight: float = 1.0,
        n_features: int = 0,
    ):
        self.prior_weight = prior_weight
        self.n_features = n_features
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.feature = np.asarray(feature, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        node = np.arange(self.feature.size)
        split = self.feature >= 0
        self.columns = np.unique(self.feature[split])
        self.walk_feature = np.where(split, self.feature, 0)
        self.next_node = np.stack(
            [np.where(split, self.right + np.repeat(self.offsets, self.sizes), node),
             np.where(split, node + 1, node)],
            axis=1,
        )
        # The longest root-to-leaf path.  Splits reached at each level are
        # deduplicated, so a node shared by two parents is expanded once.
        self.depth = 0
        frontier = self.offsets[split[self.offsets]]
        while frontier.size:
            self.depth += 1
            reached = np.sort(self.next_node[frontier], axis=None)
            reached = reached[np.diff(reached, prepend=-1) != 0]
            frontier = reached[split[reached]]

    @classmethod
    def pack(cls, trees: list[Tree], prior_weight: float = 1.0, n_features: int = 0) -> "Forest":
        """The forest of ``trees``, their node arrays laid end to end."""
        def joined(key: str, dtype) -> np.ndarray:
            return np.concatenate([np.empty(0, dtype)] + [getattr(t, key) for t in trees])

        return cls(
            sizes=[t.n_nodes for t in trees],
            feature=joined("feature", np.int64),
            right=joined("right", np.int64),
            value=joined("value", np.float64),
            prior_weight=prior_weight,
            n_features=n_features,
        )

    @property
    def n_trees(self) -> int:
        return len(self.sizes)

    def on_columns(self) -> "Forest":
        """This forest reading ``X[:, columns]``: each split's feature becomes its
        position in ``columns``.  Every other array is shared, so its scores of
        those columns equal this forest's scores of ``X`` bit for bit."""
        feature = np.where(self.feature >= 0, np.searchsorted(self.columns, self.feature), -1)
        return Forest(self.sizes, feature, self.right, self.value,
                      prior_weight=self.prior_weight, n_features=self.columns.size)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Every tree's leaf value for every sample, shape (trees, samples)."""
        X = np.ascontiguousarray(X)
        flat = X.reshape(-1)
        row_base = (np.arange(X.shape[0]) * X.shape[1])[None, :]
        next_node = self.next_node.reshape(-1)
        node = np.repeat(self.offsets[:, None], X.shape[0], axis=1)
        for _ in range(self.depth):
            x = np.take(flat, np.take(self.walk_feature, node) + row_base)
            node = np.take(next_node, 2 * node + (x <= np.take(self.value, node)))
        return np.take(self.value, node)

    def score(self, X: np.ndarray, priors: np.ndarray | None = None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X))
        if self.n_features and X.shape[1] != self.n_features:
            raise DataError(f"forest expects {self.n_features} features, got {X.shape[1]}")
        if priors is None:
            out = np.zeros(X.shape[0], dtype=np.float64)
        else:
            priors = np.asarray(priors, dtype=np.float64)
            if priors.shape[0] != X.shape[0]:
                raise DataError("priors and samples disagree on count")
            out = self.prior_weight * priors.copy()
        # Samples are scored in slices that keep (trees, samples) arrays small.
        step = max(1, _TREE_VALUES_PER_SLICE // max(1, self.n_trees))
        for start in range(0, X.shape[0], step):
            part = out[start : start + step]
            for values in self.apply(X[start : start + step]):
                part += values
        return out

    def to_dict(self) -> dict:
        """The forest as the constructor takes it, each node array in base64.

        ``sizes``, ``feature`` and ``right`` are ``<i4``, ``value`` ``<f8``.
        """
        return {
            "prior_weight": self.prior_weight,
            "n_features": self.n_features,
            "sizes": config.write_array(self.sizes, "<i4"),
            **{key: config.write_array(getattr(self, key), dtype)
               for key, dtype in _NODE_KEYS.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Forest":
        """The forest ``to_dict`` wrote; one ``score`` could not walk is a DataError."""
        d = config.section(d, "forest", ("prior_weight", "n_features", "sizes", *_NODE_KEYS))
        prior_weight = config.read(float, d["prior_weight"], "prior_weight")
        if not math.isfinite(prior_weight):
            raise DataError(f"prior_weight must be finite, got {prior_weight}")
        n_features = config.read(int, d["n_features"], "n_features")
        sizes = config.read_array(d["sizes"], "<i4", "forest: sizes")
        if (sizes <= 0).any():
            raise DataError(f"tree {int(np.argmax(sizes <= 0))}: a tree needs at least one node")
        n = int(sizes.sum())
        arrays = {
            key: config.read_array(d[key], dtype, f"forest: {key}", n)
            for key, dtype in _NODE_KEYS.items()
        }
        _check_nodes(sizes, n_features, **arrays)
        return cls(sizes, **arrays, prior_weight=prior_weight, n_features=n_features)


#: The node arrays of a saved forest and their file types, in constructor order.
_NODE_KEYS = {"feature": "<i4", "right": "<i4", "value": "<f8"}


def _check_nodes(sizes, n_features, feature, right, value) -> None:
    """Raise DataError naming the tree unless every node has ``train_tree``'s layout.

    Nodes are in preorder, so a split's children (the next node and
    ``right``) exceed its index and stay inside its own tree, and a descent
    ends at a leaf.  A leaf has feature and right child -1; a split has a
    feature in [0, n_features).  Values are finite.
    """
    tree_of = np.repeat(np.arange(sizes.size), sizes)
    local = np.arange(feature.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    size = sizes[tree_of]
    split_ok = (feature >= 0) & (feature < n_features) & (local < right) & (right < size)
    bad = np.flatnonzero(~np.where(feature == -1, right == -1, split_ok))
    if bad.size:
        k = int(bad[0])
        t, j, n = tree_of[k], local[k], size[k]
        raise DataError(
            f"tree {t}: node {j} (feature {feature[k]}, right child {right[k]}) "
            f"is neither a leaf (both -1) nor a split on a feature in [0, {n_features}) "
            f"into nodes in ({j}, {n})"
        )
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        raise DataError(f"tree {tree_of[bad[0]]}: thresholds and values must be finite")


def realboost_fit(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int,
    config: TrainConfig = TrainConfig(),
    priors: np.ndarray | None = None,
) -> tuple[Forest, RoundLog]:
    """Fit ``rounds`` trees by RealBoost.

    Of ``config`` only the boosting knobs are read: ``max_depth``,
    ``max_bins`` and ``prior_weight``.  The margins start at
    ``y * prior_weight * prior`` (0 without priors); a prior margin that is
    not finite raises TrainingError.  Each round's sample weights are
    ``exp(-margin)`` normalized to sum to one, computed as
    ``exp(-(margin - c))``: ``c`` is 0 while the smallest margin lies within
    ``+/- SHIFT_MARGIN`` and that margin beyond, the same normalized weights
    in exact arithmetic with no overflow.  Weights that still underflow to
    zero are counted in the log.  Leaf scores are smoothed by
    ``1 / (2 * sample count)``.  The loss is recorded as
    ``log mean exp(-margin) = log mean exp(-(margin - c)) - c``; it is
    non-increasing round over round, and an increase raises TrainingError.
    """
    X = np.asarray(X, dtype=np.float32)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise TrainingError(f"bad training shapes: X {X.shape}, y {y.shape}")
    if not np.isin(y, (-1.0, 1.0)).all():
        raise TrainingError("labels must be -1 or +1")
    n = X.shape[0]
    if n == 0:
        raise TrainingError("cannot boost on an empty sample set")
    if rounds < 0:
        raise ConfigError(f"rounds must be >= 0, got {rounds}")

    if priors is None:
        margins = np.zeros(n, dtype=np.float64)
    else:
        priors = np.asarray(priors, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            margins = config.prior_weight * priors * 1.0
    margins = y * margins  # signed margin y * F(x)
    if not np.isfinite(margins).all():
        raise TrainingError(
            f"prior margins must be finite; prior_weight is {config.prior_weight}"
        )

    eps = 1.0 / (2.0 * n)
    binner = FeatureBinner(X, max_bins=config.max_bins)
    log = RoundLog()

    def shifted_exp(m: np.ndarray) -> tuple[np.ndarray, float]:
        """``exp(-(m - c))`` and the log loss ``log mean exp(-m)``."""
        low = float(m.min())
        c = low if abs(low) > SHIFT_MARGIN else 0.0
        e = np.exp(c - m)  # exp(-m) itself when c is 0
        log.clamp_events += int(np.count_nonzero(e == 0.0))
        return e, math.log(float(np.mean(e))) - c

    trees: list[Tree] = []
    # One round's exp(-(margin - c)) gives its loss and the next round's weights.
    exp_loss, prev_loss = shifted_exp(margins)
    for _ in range(rounds):
        w = exp_loss / exp_loss.sum()
        log.weight_sum_errors.append(abs(float(w.sum()) - 1.0))
        tree = train_tree(binner, w, y, config.max_depth, eps)
        trees.append(tree)
        margins += y * tree.apply(X)
        exp_loss, loss = shifted_exp(margins)
        if loss > prev_loss + 1e-12:
            raise TrainingError(f"exponential loss increased: log loss {prev_loss} -> {loss}")
        log.losses.append(loss)
        prev_loss = loss

    forest = Forest.pack(trees, prior_weight=config.prior_weight, n_features=X.shape[1])
    return forest, log


# --- hard-negative bootstrapping ---------------------------------------------


def select_hard_negatives(scores: np.ndarray, k: int, taken: np.ndarray) -> np.ndarray:
    """Indices of the top-k scores among the rows ``taken`` does not mark.

    Ordering is by descending score with input order breaking ties; fewer
    than k untaken rows simply yields them all.
    """
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return order[~taken[order]][:k]


def bootstrap_train(positives, negatives, pool, cfg: TrainConfig) -> tuple[Forest, list[StageLog]]:
    """Run the staged schedule: train, mine false positives, retrain from scratch.

    ``positives``, ``negatives`` and ``pool`` are each a pair (X, priors):
    one descriptor row and one prior per sample.  ``negatives`` are the
    initial (background) negatives; ``pool`` holds every sample eligible as
    a hard negative (already overlap-filtered against ground truth), and
    may be empty.  Each stage after the first scores the pool rows not yet
    mined with the previous stage's forest, and mines up to
    ``hard_negatives_per_stage`` of the best scored
    (``select_hard_negatives``).  A stage trains on the positives, then the
    negatives, then the mined pool rows in the order they were mined: each
    stage's picks, best first.

    Returns the final stage's forest and one ``StageLog`` per stage: tree
    count, negative-set size, and how many mined negatives were actually
    added (mining can come up short when the pool is small).
    """
    Xp, Xbg, Xpool = (np.asarray(X, dtype=np.float32) for X, _ in (positives, negatives, pool))
    pp, pbg, ppool = (np.asarray(p, dtype=np.float64) for _, p in (positives, negatives, pool))
    if Xp.ndim != 2 or Xp.shape[0] == 0:
        raise TrainingError("bootstrap training needs at least one positive sample")
    if Xbg.shape[0] == 0:
        raise TrainingError("bootstrap training needs at least one negative sample")
    taken = np.zeros(Xpool.shape[0], dtype=bool)
    mined = np.empty(0, dtype=np.intp)

    forest: Forest | None = None
    history: list[StageLog] = []
    for stage, tree_count in enumerate(cfg.stage_tree_counts):
        added = 0
        if stage > 0 and cfg.hard_negatives_per_stage > 0 and not taken.all():
            scores = forest.score(Xpool, ppool)
            sel = select_hard_negatives(scores, cfg.hard_negatives_per_stage, taken)
            taken[sel] = True
            mined = np.concatenate([mined, sel])
            added = sel.size
        n_neg = Xbg.shape[0] + mined.size
        X = np.vstack([Xp, Xbg, Xpool[mined]])
        y = np.concatenate([np.ones(Xp.shape[0]), -np.ones(n_neg)])
        priors = np.concatenate([pp, pbg, ppool[mined]])
        forest, log = realboost_fit(X, y, tree_count, cfg, priors=priors)
        history.append(
            StageLog(
                stage=stage,
                tree_count=tree_count,
                negatives=n_neg,
                hard_added=added,
                hard_requested=0 if stage == 0 else cfg.hard_negatives_per_stage,
                final_loss=log.final_loss,
                clamp_events=log.clamp_events,
            )
        )
    return forest, history
