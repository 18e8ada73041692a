"""Boosted forest: binning, greedy tree growth, RealBoost, staged bootstrapping."""

import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FOREST_ARRAYS, forest_arrays, time_limit
from oracles import oracle_binner, oracle_train_tree, oracle_tree_apply
from samhead import config
from samhead.errors import ConfigError, DataError
import samhead.forest as forest_module
from samhead.forest import (
    FeatureBinner,
    Forest,
    TrainConfig,
    TrainingError,
    Tree,
    bootstrap_train,
    realboost_fit,
    SCAN_BLOCK,
    SHIFT_MARGIN,
    select_hard_negatives,
    train_tree,
)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([-1.0, 1.0, 1.0, -1.0])
UNIFORM4 = np.full(4, 0.25)


def trees_of(forest):
    """The forest's trees as ``train_tree`` returns them, read back from ``to_dict``."""
    d = forest_arrays(forest.to_dict())
    ends = np.cumsum(d["sizes"])
    return [
        Tree(*(d[k][end - size : end] for k in ("feature", "right", "value")))
        for size, end in zip(d["sizes"], ends)
    ]


def assert_tree_is_the_oracles(got, want):
    """``got`` (a ``Tree``) holds ``oracle_train_tree``'s tree bit for bit."""
    # In the oracle's explicit arrays a split's left child is the next node,
    # so its tree has the file layout: a split's value is its threshold.
    split = want.feature >= 0
    assert (want.left[split] == np.flatnonzero(split) + 1).all()
    want_value = np.where(split, want.threshold, want.value)
    for name, b in (("feature", want.feature), ("right", want.right), ("value", want_value)):
        a = getattr(got, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def random_tree(rng, n_features, max_depth, p_split=0.7):
    """A preorder tree whose root splits and whose deeper nodes split with ``p_split``.

    Thresholds are halves in [-2, 2], so samples drawn from the same grid
    land on them.
    """
    feature, right, value = [], [], []

    def build(depth):
        node = len(feature)
        feature.append(-1)
        right.append(-1)
        value.append(float(rng.normal()))
        if depth < max_depth and (depth == 0 or rng.random() < p_split):
            feature[node] = int(rng.integers(n_features))
            value[node] = rng.integers(-4, 5) / 2.0  # a split's threshold
            build(depth + 1)  # the left child is the next node
            right[node] = build(depth + 1)
        return node

    build(0)
    return Tree(np.array(feature), np.array(right), np.array(value))


def reloaded(forest):
    """``forest`` written with ``to_dict``, through JSON text, and read back."""
    return Forest.from_dict(json.loads(json.dumps(forest.to_dict())))


def oracle_score(trees, prior, X):
    """The prior plus every tree's per-sample walk, added in tree order."""
    out = np.array(prior, dtype=np.float64)
    for tree in trees:
        out = out + oracle_tree_apply(tree, X)
    return out


def separable_blobs(n_per_class=40, seed=123):
    rng = np.random.default_rng(seed)
    pos = rng.normal(loc=(2.0, 2.0), scale=0.4, size=(n_per_class, 2))
    neg = rng.normal(loc=(-2.0, -2.0), scale=0.4, size=(n_per_class, 2))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return X, y


def anti_tree(binner, w, y, max_depth, eps):
    """A stump that votes against every label of ``separable_blobs``."""
    return Tree(
        feature=np.array([0, -1, -1]),
        right=np.array([2, -1, -1]),
        value=np.array([0.0, 1.0, -1.0]),
    )


class TestFeatureBinner:
    def test_sparse_feature_gets_midpoint_cuts(self):
        X = np.array([[0.0], [1.0], [1.0], [3.0]])
        binner = FeatureBinner(X, max_bins=8)
        np.testing.assert_allclose(binner.cuts[0], [0.5, 2.0])
        np.testing.assert_array_equal(binner.bins_by_feature[0], [0, 1, 1, 2])
        assert binner.width == 3

    def test_dense_feature_capped_by_quantiles(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 1))
        binner = FeatureBinner(X, max_bins=16)
        assert binner.cuts[0].size <= 15
        assert binner.bins_by_feature[0].max() <= 15

    def test_binning_respects_cut_semantics(self):
        # bin b collects values <= cuts[b] (and the overflow bin above all cuts).
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        binner = FeatureBinner(X, max_bins=16)
        col = X[:, 0]
        for value, b in zip(col, binner.bins_by_feature[0]):
            if b > 0:
                assert value > binner.cuts[0][b - 1]
            if b < binner.cuts[0].size:
                assert value <= binner.cuts[0][b]

    def test_max_bins_validation(self):
        X = np.zeros((4, 1))
        with pytest.raises(ConfigError):
            FeatureBinner(X, max_bins=1)
        with pytest.raises(ConfigError):
            FeatureBinner(X, max_bins=257)

    def test_requires_matrix(self):
        with pytest.raises(TrainingError):
            FeatureBinner(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, bad):
        X = np.arange(12.0).reshape(6, 2)
        X[3, 1] = bad
        with pytest.raises(TrainingError, match="finite"):
            FeatureBinner(X)
        y = np.array([1.0, -1.0] * 3)
        with pytest.raises(TrainingError, match="finite"):
            realboost_fit(X, y, rounds=1)

    @pytest.mark.parametrize("max_bins", [3, 32, 256])
    def test_dense_cuts_match_oracle_bitwise(self, max_bins):
        # Wide-ranged values make both branches of np.quantile's linear rule
        # round differently from each other.
        rng = np.random.default_rng(max_bins)
        X = (rng.standard_cauchy(size=(1001, 40)) * 1e3).astype(np.float32)
        binner = FeatureBinner(X, max_bins=max_bins)
        cuts, bins = oracle_binner(X, max_bins)
        for got, want in zip(binner.cuts, cuts):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(binner.bins_by_feature.T, bins)

    def test_bins_are_a_view_of_the_feature_major_matrix(self):
        X, _ = separable_blobs(n_per_class=5)
        binner = FeatureBinner(X, max_bins=4)
        assert binner.bins_by_feature.shape == (2, 10)
        assert binner.bins_by_feature.flags.c_contiguous


class TestTrainTree:
    def test_stump_finds_the_separating_threshold(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        eps = 0.01
        tree = train_tree(FeatureBinner(X), UNIFORM4, y, max_depth=1, eps=eps)
        assert tree.feature[0] == 0
        assert tree.value[0] == 2.5
        preds = tree.apply(X)
        assert np.all(np.sign(preds) == y)
        # Pure leaves carry the smoothed half log-odds exactly.
        want = 0.5 * math.log((0.5 + eps) / eps)
        np.testing.assert_allclose(preds[2:], want)
        np.testing.assert_allclose(preds[:2], -want)

    def test_xor_needs_depth_two(self):
        binner = FeatureBinner(XOR_X)
        shallow = train_tree(binner, UNIFORM4, XOR_Y, max_depth=1, eps=0.01)
        np.testing.assert_allclose(shallow.apply(XOR_X), 0.0)
        deep = train_tree(binner, UNIFORM4, XOR_Y, max_depth=2, eps=0.01)
        assert np.all(np.sign(deep.apply(XOR_X)) == XOR_Y)

    def test_feature_tie_breaks_to_smallest_index(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = train_tree(FeatureBinner(X), UNIFORM4, y, max_depth=1, eps=0.01)
        assert tree.feature[0] == 0

    def test_threshold_tie_breaks_to_smallest_cut(self):
        # Splitting off either the first or last sample is equally good.
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        tree = train_tree(FeatureBinner(X), UNIFORM4, y, max_depth=1, eps=0.01)
        assert tree.value[0] == 1.5

    def test_pure_node_stops_early(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.ones(3)
        tree = train_tree(FeatureBinner(X), np.full(3, 1 / 3), y, max_depth=4, eps=0.01)
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1

    def test_leaves_no_reference_cycle(self):
        # A cycle would hold the binner's arrays until the cyclic collector
        # happens to run; with none, the tree's garbage goes on return.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 5))
        y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        binner = FeatureBinner(X)
        gc.collect()
        gc.disable()
        try:
            tree = train_tree(binner, np.full(60, 1 / 60), y, max_depth=3, eps=0.01)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert tree.n_nodes > 3
        assert unreachable == 0

    def test_feature_tie_across_scan_blocks_breaks_to_smaller_index(self):
        # Features 63 and 64 split equally well and sit in different blocks.
        rng = np.random.default_rng(5)
        X = np.full((40, SCAN_BLOCK + 3), 1.0)
        X[:, SCAN_BLOCK - 1] = X[:, SCAN_BLOCK] = np.arange(40.0)
        y = np.where(np.arange(40) < 17, -1.0, 1.0)
        w = rng.random(40)
        tree = train_tree(FeatureBinner(X), w / w.sum(), y, max_depth=1, eps=0.01)
        assert tree.feature[0] == SCAN_BLOCK - 1
        assert tree.value[0] == 16.5

    def test_no_feature_with_a_cut_gives_a_single_leaf(self):
        X = np.full((10, 3), 2.0, dtype=np.float32)
        y = np.array([1.0, -1.0] * 5)
        forest, log = realboost_fit(X, y, rounds=1)
        (tree,) = trees_of(forest)
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1
        assert tree.value[0] == 0.0  # equal class weights
        assert log.losses == [0.0]  # log of an exponential loss of 1

    def test_a_first_block_without_a_usable_cut_defers_to_the_next(self):
        # The first block's features are constant, so every one of its cuts
        # is unusable.  Its unmasked minimum, at the no-split value
        # sqrt(W+ * W-) = 4, ties the second block's only cut, which splits
        # each label's weight in half: 2 + 2.  The first block must be
        # masked for the second block's cut to win.
        X = np.full((8, SCAN_BLOCK + 2), 7.0)
        X[4:, SCAN_BLOCK + 1] = 8.0
        y = np.array([1.0, -1.0] * 4)
        w = np.ones(8)
        binner = FeatureBinner(X)
        cuts, bins = oracle_binner(X, 256)
        got = train_tree(binner, w, y, 2, 0.01)
        want = oracle_train_tree(cuts, bins, w, y, 2, 0.01)
        assert got.feature.tolist() == [SCAN_BLOCK + 1, -1, -1]
        assert_tree_is_the_oracles(got, want)

    def test_a_cut_with_no_weight_on_one_side_is_never_chosen(self):
        # Feature 0's only cut has no weight on its left, and its Z ties
        # feature 1's uninformative cut at the no-split value; only feature
        # 1's cut is usable.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 1.0, -1.0, 1.0, -1.0])
        w = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        binner = FeatureBinner(X)
        cuts, bins = oracle_binner(X, 256)
        got = train_tree(binner, w, y, 1, 0.01)
        want = oracle_train_tree(cuts, bins, w, y, 1, 0.01)
        assert got.feature[0] == 1
        assert_tree_is_the_oracles(got, want)

    def test_the_largest_histogram_key_fits(self):
        # 256 bins and a 64th feature whose last bin holds both labels: that
        # bin's negatives take key 2 * (63 * 256 + 255) + 1 = 2**15 - 1, the
        # last entry of a block's histogram.
        rng = np.random.default_rng(12)
        n = 600
        X = rng.normal(size=(n, SCAN_BLOCK + 6))
        X[:, SCAN_BLOCK - 1] = rng.permutation(n)
        y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
        y[X[:, SCAN_BLOCK - 1] >= n - 3] = [1.0, -1.0, 1.0]
        w = rng.random(n)
        binner = FeatureBinner(X, max_bins=256)
        assert binner.width == 256
        last_bin = binner.bins_by_feature[SCAN_BLOCK - 1] == 255
        assert set(y[last_bin]) == {-1.0, 1.0}
        cuts, bins = oracle_binner(X, 256)
        for depth in (1, 4):
            assert_tree_is_the_oracles(train_tree(binner, w, y, depth, 1e-3),
                                       oracle_train_tree(cuts, bins, w, y, depth, 1e-3))

    @given(
        n=st.integers(2, 400),
        n_features=st.integers(1, 200),
        max_bins=st.sampled_from([2, 3, 8, 32, 256]),
        depth=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_binner_and_tree_match_oracles_bitwise(self, n, n_features, max_bins, depth, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, n_features))
        kinds = rng.integers(0, 6, size=n_features)
        for f in np.flatnonzero(kinds == 1):
            X[:, f] = rng.integers(0, int(rng.integers(1, 2 * max_bins + 2)), size=n)
        X[:, kinds == 2] = 3.0  # constant
        for f in np.flatnonzero(kinds == 4):  # zeros of both signs, which compare equal
            X[:, f] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        for f in np.flatnonzero(kinds == 5):  # a copy of another column
            X[:, f] = X[:, int(rng.integers(0, n_features))]
        if n_features > SCAN_BLOCK:
            X[:, SCAN_BLOCK] = X[:, SCAN_BLOCK - 1]
        X = X.astype(np.float32)
        y = np.where(rng.random(n) < rng.uniform(0.1, 0.9), 1.0, -1.0)
        w = rng.random(n)
        w[rng.random(n) < 0.2] = 0.0

        binner = FeatureBinner(X, max_bins=max_bins)
        cuts, bins = oracle_binner(X, max_bins)
        assert len(binner.cuts) == len(cuts)
        for got, want in zip(binner.cuts, cuts):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert binner.bins_by_feature.dtype == np.uint8
        np.testing.assert_array_equal(binner.bins_by_feature.T, bins)

        assume(binner.width > 1)  # the oracle needs at least one cut
        eps = 1.0 / (2.0 * n)
        got = train_tree(binner, w, y, depth, eps)
        assert_tree_is_the_oracles(got, oracle_train_tree(cuts, bins, w, y, depth, eps))

    def test_validation(self):
        binner = FeatureBinner(XOR_X)
        with pytest.raises(ConfigError):
            train_tree(binner, UNIFORM4, XOR_Y, max_depth=0, eps=0.01)
        with pytest.raises(TrainingError):
            train_tree(binner, np.full(3, 0.25), XOR_Y, max_depth=1, eps=0.01)


class TestRealboost:
    def test_separable_data_drives_loss_down(self):
        X, y = separable_blobs()
        forest, log = realboost_fit(X, y, rounds=32, config=TrainConfig(max_depth=2))
        assert log.losses[-1] < math.log(0.05)
        assert np.all(np.sign(forest.score(X)) == y)

    def test_weight_sums_stay_normalized(self):
        X, y = separable_blobs(seed=7)
        _, log = realboost_fit(X, y, rounds=16, config=TrainConfig(max_depth=2))
        assert len(log.weight_sum_errors) == 16
        assert max(log.weight_sum_errors) < 1e-9

    def test_loss_never_increases(self):
        X, y = separable_blobs(seed=9)
        _, log = realboost_fit(X, y, rounds=24, config=TrainConfig(max_depth=1))
        assert all(b <= a + 1e-12 for a, b in zip(log.losses, log.losses[1:]))

    def test_loss_increase_raises_training_error(self, monkeypatch):
        # A stump that votes against every label drives the loss up.
        X, y = separable_blobs(n_per_class=10)
        monkeypatch.setattr(forest_module, "train_tree", anti_tree)
        with pytest.raises(TrainingError, match="exponential loss increased"):
            realboost_fit(X, y, rounds=1)

    def test_priors_act_as_round_zero_margin(self):
        X, y = separable_blobs(n_per_class=10)
        priors = np.linspace(-1.0, 1.0, 20)
        forest, _ = realboost_fit(
            X, y, rounds=0, config=TrainConfig(prior_weight=2.5), priors=priors
        )
        np.testing.assert_array_equal(forest.score(X, priors), 2.5 * priors)

    def test_loss_increase_past_the_shift_margin_raises(self, monkeypatch):
        # Priors put every margin at 60, past SHIFT_MARGIN; the anti-tree
        # takes each to 59, so the log loss rises from -60 to -59.
        X, y = separable_blobs(n_per_class=10)
        monkeypatch.setattr(forest_module, "train_tree", anti_tree)
        with pytest.raises(TrainingError, match="exponential loss increased"):
            realboost_fit(X, y, rounds=1, priors=60.0 * y)

    def test_margins_past_the_shift_margin_keep_learning(self):
        # Overlapping blobs whose priors put every margin at 60: the trees
        # must keep raising the smallest margin, not fit flat weights.
        rng = np.random.default_rng(0)
        y = np.repeat([-1.0, 1.0], 40)
        X = rng.normal(size=(80, 2)) + 0.6 * y[:, None]
        lows = []
        for rounds in (8, 16, 32):
            forest, log = realboost_fit(X, y, rounds, TrainConfig(max_depth=2), priors=60.0 * y)
            lows.append(float(np.min(y * forest.score(X, 60.0 * y))))
            assert log.clamp_events == 0
        assert lows[0] < lows[1] < lows[2]
        assert lows[0] > SHIFT_MARGIN

    @pytest.mark.parametrize("margins, shift", [((-10.0, 30.0, 70.0, 5.3), 0.0),
                                                 ((60.0, 70.0, 65.1, 90.0), 60.0)])
    def test_weights_are_shifted_only_past_the_shift_margin(self, monkeypatch, margins, shift):
        # Unshifted weights are exp(-m) to the last bit, as before the shift
        # existed, wherever the smallest margin lies within SHIFT_MARGIN.
        seen = []

        def leaf(binner, w, y, max_depth, eps):
            seen.append(w.copy())
            return Tree(feature=np.array([-1]), right=np.array([-1]), value=np.array([0.0]))

        monkeypatch.setattr(forest_module, "train_tree", leaf)
        m = np.array(margins)
        y = np.array([1.0, 1.0, -1.0, -1.0])
        realboost_fit(np.eye(4, 2), y, rounds=1, priors=y * m)
        e = np.exp(-(m - shift))
        np.testing.assert_array_equal(seen[0], e / e.sum())

    def test_weights_that_underflow_are_counted(self):
        # Margins 60 and 60 give both samples weight exp(0); margins 0 and
        # -800 are taken relative to -800, and the sample at margin 0 gets
        # exp(-800), which is 0.0 in float64.
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0])
        _, log = realboost_fit(X, y, rounds=0, priors=np.array([60.0, -60.0]))
        assert log.clamp_events == 0
        _, log = realboost_fit(X, y, rounds=0, priors=np.array([0.0, 800.0]))
        assert log.clamp_events == 1

    def test_log_loss_is_exact_past_the_shift_margin(self):
        # Every margin at -1000: exp(1000) overflows, its log does not.
        X, y = separable_blobs(n_per_class=4)
        _, log = realboost_fit(X, y, rounds=1, config=TrainConfig(max_depth=1),
                               priors=-1000.0 * y)
        assert log.clamp_events == 0
        assert 900.0 < log.final_loss <= 1000.0

    @pytest.mark.parametrize("prior", [math.inf, -math.inf, math.nan, 1e308])
    def test_prior_margins_that_are_not_finite_raise(self, prior):
        X, y = separable_blobs(n_per_class=4)
        priors = np.zeros(8)
        priors[3] = prior
        with pytest.raises(TrainingError, match="prior margins must be finite"):
            realboost_fit(X, y, rounds=1, config=TrainConfig(prior_weight=10.0), priors=priors)

    def test_deterministic(self):
        X, y = separable_blobs(seed=3)
        a, _ = realboost_fit(X, y, rounds=8, config=TrainConfig(max_depth=2))
        b, _ = realboost_fit(X, y, rounds=8, config=TrainConfig(max_depth=2))
        assert a.to_dict() == b.to_dict()

    def test_validation(self):
        X, y = separable_blobs(n_per_class=4)
        with pytest.raises(TrainingError):
            realboost_fit(X, np.zeros(8), rounds=1)
        with pytest.raises(TrainingError):
            realboost_fit(np.empty((0, 2)), np.empty(0), rounds=1)
        with pytest.raises(ConfigError):
            realboost_fit(X, y, rounds=-1)
        with pytest.raises(TrainingError):
            realboost_fit(X, y[:-1], rounds=1)


class TestForest:
    def test_score_is_prior_plus_tree_sum(self):
        X, y = separable_blobs(seed=11)
        priors = np.tanh(X[:, 0])
        forest, _ = realboost_fit(
            X, y, rounds=6, config=TrainConfig(max_depth=2, prior_weight=1.7),
            priors=priors,
        )
        manual = 1.7 * priors.copy()
        for tree in trees_of(forest):
            manual = manual + tree.apply(X)
        np.testing.assert_array_equal(forest.score(X, priors), manual)

    def test_packed_walk_matches_a_per_sample_walk(self, monkeypatch):
        X, y = separable_blobs(seed=13)
        X = X.astype(np.float32)
        forest, _ = realboost_fit(X, y, rounds=5, config=TrainConfig(max_depth=3))
        leaf = Tree(*(np.array([v]) for v in (-1, -1, 0.25)))
        trees = trees_of(forest) + [leaf]
        forest = Forest.pack(trees, n_features=2)
        values = forest.apply(X)
        assert values.shape == (6, X.shape[0])
        for row, tree in zip(values, trees):
            assert row.tobytes() == oracle_tree_apply(tree, X).tobytes()
            assert tree.apply(X).tobytes() == row.tobytes()
        # Scoring in slices of a few samples gives the same bits.
        whole = forest.score(X)
        monkeypatch.setattr(forest_module, "_TREE_VALUES_PER_SLICE", 13)
        assert forest.score(X).tobytes() == whole.tobytes()

    def test_mixed_depths_score_as_the_oracle_in_tree_order(self):
        # Leaf-only trees need no step, stumps one and deep trees six; the
        # walk takes six steps for every tree.
        rng = np.random.default_rng(21)
        X = (rng.integers(-4, 5, size=(40, 7)) / 2.0).astype(np.float32)
        leaf = Tree(*(np.array([v]) for v in (-1, -1, -0.75)))
        stump = random_tree(rng, 7, max_depth=1)
        deep = random_tree(rng, 7, max_depth=6, p_split=1.0)
        trees = [leaf, deep, stump, leaf, random_tree(rng, 7, max_depth=6), stump, deep]
        forest = Forest.pack(trees, prior_weight=0.5, n_features=7)
        assert forest.depth == 6
        priors = rng.normal(size=40)
        want = oracle_score(trees, 0.5 * priors, X)
        assert forest.score(X, priors).tobytes() == want.tobytes()
        assert reloaded(forest).score(X, priors).tobytes() == want.tobytes()
        # A forest of leaves takes no step at all.
        leaves = Forest.pack([leaf, leaf], n_features=7)
        assert leaves.depth == 0
        want = oracle_score([leaf, leaf], np.zeros(40), X)
        assert leaves.score(X).tobytes() == want.tobytes()
        assert reloaded(leaves).score(X).tobytes() == want.tobytes()

    def test_512_random_trees_score_as_the_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 50)).astype(np.float32)
        trees = [random_tree(rng, 50, max_depth=5) for _ in range(512)]
        forest = Forest.pack(trees, prior_weight=1.3, n_features=50)
        priors = rng.normal(size=30)
        want = oracle_score(trees, 1.3 * priors, X)
        assert forest.score(X, priors).tobytes() == want.tobytes()
        assert reloaded(forest).score(X, priors).tobytes() == want.tobytes()
        # One row at a time, too: the trees' values still add in tree order.
        for i in range(3):
            assert forest.score(X[i : i + 1], priors[i : i + 1]).tobytes() == want[i : i + 1].tobytes()

    def test_children_shared_by_a_chain_of_splits_load_at_once(self):
        # Both children of split k are node k + 1: 2**40 root-to-leaf paths,
        # each 40 steps long.  Depth is found per level, not per path.
        arrays = {"sizes": [41], "feature": [0] * 40 + [-1],
                  "right": list(range(1, 41)) + [-1], "value": [0.0] * 40 + [0.5]}
        d = {"prior_weight": 1.0, "n_features": 1,
             **{k: config.write_array(v, FOREST_ARRAYS[k]) for k, v in arrays.items()}}
        with time_limit(10):
            forest = Forest.from_dict(d)
        assert forest.depth == 40
        assert forest.score(np.array([[-1.0], [1.0]])).tolist() == [0.5, 0.5]

    def test_empty_forest_scores_the_prior(self):
        forest = Forest.pack([], prior_weight=2.0)
        X = np.zeros((3, 2))
        assert forest.apply(X).shape == (0, 3)
        np.testing.assert_array_equal(forest.score(X, np.array([0.5, 1.0, -1.0])),
                                      [1.0, 2.0, -2.0])

    def test_to_dict_holds_the_trees_arrays_end_to_end(self):
        rng = np.random.default_rng(3)
        trees = [random_tree(rng, 6, max_depth=d) for d in (0, 1, 3, 2)]
        d = Forest.pack(trees, prior_weight=0.5, n_features=6).to_dict()
        assert set(d) == {"prior_weight", "n_features", *FOREST_ARRAYS}
        assert all(isinstance(d[key], str) for key in FOREST_ARRAYS)
        arrays = forest_arrays(d)
        assert arrays["sizes"].tolist() == [t.n_nodes for t in trees]
        for key in ("feature", "right", "value"):
            want = np.concatenate([getattr(t, key) for t in trees])
            assert arrays[key].tobytes() == want.astype(arrays[key].dtype).tobytes()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("right", 0, "tree 2: node 1 (feature"),
            ("value", float("nan"), "tree 2: thresholds and values must be finite"),
            ("feature", 6, "tree 2: node 1 (feature 6"),
        ],
        ids=["right-child-before-its-parent", "nan-value", "feature-out-of-range"],
    )
    def test_from_dict_names_the_broken_tree(self, key, value, message):
        rng = np.random.default_rng(4)
        trees = [random_tree(rng, 6, max_depth=2, p_split=1.0) for _ in range(3)]
        d = Forest.pack(trees, n_features=6).to_dict()
        array = config.read_array(d[key], FOREST_ARRAYS[key], key)
        array[2 * 7 + 1] = value  # node 1 of tree 2; every tree has 7 nodes
        d[key] = config.write_array(array, FOREST_ARRAYS[key])
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            Forest.from_dict(d)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_from_dict_refuses_a_prior_weight_that_is_not_finite(self, value):
        leaf = Tree(feature=np.array([-1]), right=np.array([-1]), value=np.array([0.5]))
        d = Forest.pack([leaf], n_features=3).to_dict()
        d["prior_weight"] = value
        with pytest.raises(DataError, match=f"^prior_weight must be finite, got {value}$"):
            Forest.from_dict(d)

    def test_feature_count_enforced(self):
        X, y = separable_blobs(n_per_class=5)
        forest, _ = realboost_fit(X, y, rounds=2)
        with pytest.raises(DataError):
            forest.score(np.zeros((3, 5)))
        with pytest.raises(DataError):
            forest.score(X, priors=np.zeros(3))

    def test_dict_round_trip_preserves_scores_bitwise(self):
        X, y = separable_blobs(seed=17)
        forest, _ = realboost_fit(X, y, rounds=10, config=TrainConfig(max_depth=3))
        clone = reloaded(forest)
        rng = np.random.default_rng(0)
        probe = rng.normal(size=(50, 2)).astype(np.float32)
        np.testing.assert_array_equal(forest.score(probe), clone.score(probe))
        assert clone.prior_weight == forest.prior_weight
        assert clone.n_features == forest.n_features
        assert clone.to_dict() == forest.to_dict()


class TestSchedules:
    def test_full_schedule_constants(self):
        cfg = TrainConfig()
        assert cfg.stage_tree_counts == (64, 128, 256, 512, 1024, 2048)
        assert cfg.initial_negatives == 30000
        assert cfg.hard_negatives_per_stage == 5000

    def test_overrides(self):
        cfg = TrainConfig(seed=9, max_depth=3)
        assert cfg.seed == 9
        assert cfg.max_depth == 3
        assert cfg.stage_tree_counts == (64, 128, 256, 512, 1024, 2048)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(stage_tree_counts=())
        with pytest.raises(ConfigError):
            TrainConfig(stage_tree_counts=(4, 0))
        with pytest.raises(ConfigError):
            TrainConfig(initial_negatives=0)
        with pytest.raises(ConfigError):
            TrainConfig(max_depth=0)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_prior_weight_must_be_finite(self, value):
        with pytest.raises(ConfigError, match=f"^prior_weight must be finite, got {value}$"):
            TrainConfig(prior_weight=value)


def hard_negative_oracle(scores, k, taken):
    """The k best-scored untaken rows, by sorting on (-score, index)."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [i for i in ranked if not taken[i]][:k]


class TestSelectHardNegatives:
    def test_frozen_example(self):
        scores = np.array([5.0, 1.0, 5.0, 3.0])
        taken = np.array([True, False, False, False])
        assert select_hard_negatives(scores, 2, taken).tolist() == [2, 3]

    def test_zero_budget(self):
        assert select_hard_negatives(np.array([1.0]), 0, np.zeros(1, bool)).size == 0

    @given(seed=st.integers(0, 5000), k=st.integers(0, 12))
    @settings(max_examples=60)
    def test_matches_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 15))
        scores = rng.integers(0, 6, size=n).astype(np.float64)  # ties on purpose
        taken = rng.random(n) < 0.3
        assert select_hard_negatives(scores, k, taken).tolist() == \
            hard_negative_oracle(scores, k, taken)


def bootstrap_samples(pool_size=20, n_background=5, seed=0):
    """Positives, background negatives and a hard-negative pool, each (X, priors)."""
    rng = np.random.default_rng(seed)
    positives = rng.normal(loc=2.0, scale=0.3, size=(6, 3)), np.full(6, 0.8)
    background = rng.normal(loc=-2.0, scale=0.3, size=(n_background, 3)), np.full(n_background, 0.1)
    pool = (rng.normal(loc=0.5, scale=0.5, size=(pool_size, 3)),
            rng.uniform(0.2, 0.9, size=pool_size))
    return positives, background, pool


class TestBootstrapTrain:
    CFG = dict(max_depth=2, max_bins=32)

    def test_stage_history_follows_schedule(self):
        cfg = TrainConfig(stage_tree_counts=(2, 3, 4), initial_negatives=5,
                          hard_negatives_per_stage=3, seed=42, **self.CFG)
        forest, history = bootstrap_train(*bootstrap_samples(pool_size=20), cfg)
        assert forest.n_trees == 4  # final stage only; earlier stages discarded
        assert [s.stage for s in history] == [0, 1, 2]
        assert [s.tree_count for s in history] == [2, 3, 4]
        assert [s.negatives for s in history] == [5, 8, 11]
        assert [s.hard_added for s in history] == [0, 3, 3]
        assert [s.hard_requested for s in history] == [0, 3, 3]

    def test_small_pool_comes_up_short(self):
        cfg = TrainConfig(stage_tree_counts=(2, 2, 2), hard_negatives_per_stage=3, **self.CFG)
        _, history = bootstrap_train(*bootstrap_samples(pool_size=4), cfg)
        assert [s.hard_added for s in history] == [0, 3, 1]
        assert [s.negatives for s in history] == [5, 8, 9]

    def test_exhausted_pool_adds_nothing(self):
        cfg = TrainConfig(stage_tree_counts=(2, 2, 2), hard_negatives_per_stage=2, **self.CFG)
        _, history = bootstrap_train(*bootstrap_samples(pool_size=2, n_background=4), cfg)
        assert [s.hard_added for s in history] == [0, 2, 0]

    def test_needs_positives(self):
        _, background, pool = bootstrap_samples()
        cfg = TrainConfig(stage_tree_counts=(2,), **self.CFG)
        with pytest.raises(TrainingError):
            bootstrap_train((np.empty((0, 3)), np.empty(0)), background, pool, cfg)

    @pytest.mark.parametrize("schedule, budget", [((2, 3, 4), 3), ((3, 2, 2, 3), 5), ((2, 3), 30)])
    def test_final_forest_is_realboost_on_the_oracle_picks(self, schedule, budget):
        """Each stage refits on positives, background, then the oracle's picks in pick order."""
        positives, background, pool = bootstrap_samples(pool_size=25)
        cfg = TrainConfig(stage_tree_counts=schedule, hard_negatives_per_stage=budget,
                          **self.CFG)
        forest, history = bootstrap_train(positives, background, pool, cfg)

        taken = [False] * len(pool[1])
        picks = []
        for stage, trees in enumerate(schedule):
            if stage > 0:
                scores = want.score(*pool)
                new = hard_negative_oracle(scores, budget, taken)
                for i in new:
                    taken[i] = True
                picks += new
            X = np.vstack([positives[0], background[0], pool[0][picks]])
            priors = np.concatenate([positives[1], background[1], pool[1][picks]])
            y = np.concatenate([np.ones(len(positives[1])),
                                -np.ones(len(background[1]) + len(picks))])
            want, _ = realboost_fit(X, y, trees, cfg, priors=priors)
        assert history[-1].negatives == len(background[1]) + len(picks)
        assert json.dumps(forest.to_dict()) == json.dumps(want.to_dict())

    @pytest.mark.parametrize("schedule, budget", [((2,), 3), ((2, 3), 0)])
    def test_a_schedule_that_cannot_mine_never_scores_the_pool(self, monkeypatch, schedule,
                                                               budget):
        calls = []
        score = Forest.score
        monkeypatch.setattr(Forest, "score", lambda *a, **k: calls.append(1) or score(*a, **k))
        cfg = TrainConfig(stage_tree_counts=schedule, hard_negatives_per_stage=budget,
                          **self.CFG)
        _, history = bootstrap_train(*bootstrap_samples(), cfg)
        assert calls == []
        assert [s.hard_added for s in history] == [0] * len(schedule)
