"""RoI pooling against per-pixel brute-force oracles, plus the coordinate mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Box,
    _oracle_feature_rect,
    oracle_edge_hist_pool,
    oracle_histogram_pool,
    oracle_max_pool,
    oracle_windows,
    random_pool_instance,
)
from samhead.errors import DataError
from samhead.maps import EdgeMap, FeatureMap, LabelMap
from samhead.pooling import (
    DegenerateRoiError,
    FeatureRect,
    PoolGrid,
    edge_codes,
    grid_bounds,
    grid_histogram_pool,
    grid_max_pool,
    map_boxes_to_feature_coords,
    max_windows,
    roi_edge_pool,
    roi_histogram_pool,
    roi_max_pool,
    window_max,
)


def one_rect(x, y, w, h, stride, map_h, map_w):
    """``map_boxes_to_feature_coords`` of a one-row batch, as a tuple."""
    return tuple(map_boxes_to_feature_coords([[x, y, w, h]], stride, map_h, map_w)[0].tolist())


class TestMapToFeatureCoords:
    def test_small_box_spans_one_cell(self):
        assert one_rect(5, 5, 3, 3, stride=16, map_h=4, map_w=4) == (0, 1, 0, 1)

    def test_cell_aligned_box(self):
        assert one_rect(16, 32, 16, 16, stride=16, map_h=8, map_w=8) == (2, 3, 1, 2)

    def test_left_overhang_clamped(self):
        assert one_rect(-6, 2, 10, 6, stride=4, map_h=10, map_w=10) == (0, 2, 0, 1)

    def test_right_overhang_clamped(self):
        assert one_rect(38, 38, 10, 10, stride=4, map_h=10, map_w=10) == (9, 10, 9, 10)

    def test_fully_outside_raises(self):
        with pytest.raises(DegenerateRoiError):
            one_rect(-10, -10, 5, 5, stride=4, map_h=10, map_w=10)
        with pytest.raises(DegenerateRoiError):
            one_rect(200, 0, 5, 5, stride=4, map_h=10, map_w=10)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            one_rect(0, 0, 5, 5, stride=0, map_h=10, map_w=10)
        with pytest.raises(ValueError):
            one_rect(0, 0, 5, 5, stride=4, map_h=0, map_w=10)

    def test_box_past_a_floor_sized_map_pins_to_the_edge_cell(self):
        # A 258-px-wide image with a 64-column stride-4 map, which ImageRecord
        # accepts: a box starting at x = 256.5 lies in the image, right of the
        # map's last column.  It pools that column, and the row likewise.
        assert one_rect(256.5, 10, 1, 60, stride=4, map_h=20, map_w=64) == (2, 18, 63, 64)
        assert one_rect(10, 82, 8, 3, stride=4, map_h=20, map_w=64) == (19, 20, 2, 5)
        data = np.arange(20 * 64, dtype=np.float32).reshape(1, 20, 64)
        rects = map_boxes_to_feature_coords([[256.5, 10, 1, 60]], 4, 20, 64)
        pooled = grid_max_pool(FeatureMap("conv3", 4, data).hwc, rects, PoolGrid(2, 1))
        np.testing.assert_array_equal(pooled[0, 0], [9 * 64 + 63, 17 * 64 + 63])
        # A full cell past the map's far edge is beyond what any image holds.
        with pytest.raises(DegenerateRoiError):
            one_rect(260, 10, 1, 60, stride=4, map_h=20, map_w=64)
        with pytest.raises(DegenerateRoiError):
            one_rect(10, 84, 8, 3, stride=4, map_h=20, map_w=64)

    @given(
        x=st.floats(-40, 150), y=st.floats(-40, 150),
        w=st.floats(0.5, 120), h=st.floats(0.5, 120),
        stride=st.sampled_from([1, 2, 4, 8, 16]),
    )
    def test_overlapping_box_yields_valid_rect(self, x, y, w, h, stride):
        map_h, map_w = 10, 12
        if x >= (map_w + 1) * stride or y >= (map_h + 1) * stride or x + w <= 0 or y + h <= 0:
            with pytest.raises(DegenerateRoiError):
                one_rect(x, y, w, h, stride, map_h, map_w)
            return
        rs, re, cs, ce = one_rect(x, y, w, h, stride, map_h, map_w)
        assert 0 <= rs < re <= map_h
        assert 0 <= cs < ce <= map_w

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), count=st.integers(1, 20),
        stride=st.sampled_from([1, 2, 4, 8, 16]),
        map_h=st.integers(1, 20), map_w=st.integers(1, 20),
        short_h=st.floats(0, 1, exclude_max=True), short_w=st.floats(0, 1, exclude_max=True),
    )
    def test_every_row_matches_the_oracle(self, seed, count, stride, map_h, map_w,
                                          short_h, short_w):
        # The image may run past the map by up to just under one cell, as
        # ImageRecord allows; the boxes are those an image of that size holds.
        image_w, image_h = (map_w + short_w) * stride, (map_h + short_h) * stride
        rng = np.random.default_rng(seed)
        boxes = []
        while len(boxes) < count:
            x, y = rng.uniform(-0.3 * image_w, image_w), rng.uniform(-0.3 * image_h, image_h)
            w, h = rng.uniform(0.5, 1.1 * image_w), rng.uniform(0.5, 1.1 * image_h)
            if x + w > 0 and y + h > 0:
                boxes.append(Box(float(x), float(y), float(w), float(h)))
        rects = map_boxes_to_feature_coords(np.array(boxes), stride, map_h, map_w)
        assert [FeatureRect(*r) for r in rects.tolist()] == [
            _oracle_feature_rect(box, stride, map_h, map_w) for box in boxes
        ]


def slot_windows(extent, k, start=0):
    """``grid_bounds`` of one extent, as a list of (lo, hi) relative to ``start``."""
    lo, hi = grid_bounds(np.array([start]), np.array([extent]), k)
    return list(zip((lo[0] - start).tolist(), (hi[0] - start).tolist()))


class TestGridWindows:
    def test_exact_partition(self):
        assert slot_windows(7, 3) == [(0, 2), (2, 4), (4, 7)]
        assert slot_windows(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_fewer_cells_than_slots(self):
        # Slots overlap rather than going empty.
        assert slot_windows(2, 3) == [(0, 1), (0, 1), (1, 2)]
        assert slot_windows(1, 4) == [(0, 1)] * 4

    @given(extent=st.integers(1, 60), k=st.integers(1, 20), start=st.integers(0, 30))
    def test_windows_cover_every_cell(self, extent, k, start):
        windows = slot_windows(extent, k, start)
        assert windows == oracle_windows(extent, k)
        covered = set()
        for a, b in windows:
            assert 0 <= a < b <= extent
            covered.update(range(a, b))
        assert covered == set(range(extent))
        if extent >= k:
            # Exact partition: consecutive, no overlap.
            assert windows[0][0] == 0 and windows[-1][1] == extent
            assert all(windows[i][1] == windows[i + 1][0] for i in range(k - 1))
        else:
            assert all(b - a == 1 for a, b in windows)


class TestRoiMaxPool:
    def test_hand_example(self):
        data = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        fmap = FeatureMap("conv3", 4, data)
        out = roi_max_pool(fmap, FeatureRect(0, 4, 0, 4), PoolGrid(2, 2))
        np.testing.assert_array_equal(out, np.array([5, 7, 13, 15], dtype=np.float32))

    def test_channel_major_layout(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(3, 6, 6)).astype(np.float32)
        fmap = FeatureMap("conv3", 4, data)
        grid = PoolGrid(2, 3)
        out = roi_max_pool(fmap, FeatureRect(0, 6, 0, 6), grid)
        assert out.shape == (3 * grid.cells,)
        # Channel c's block is out[c*cells : (c+1)*cells].
        for c in range(3):
            np.testing.assert_array_equal(
                out[c * grid.cells : (c + 1) * grid.cells],
                grid_max_pool(data[c][..., None], [[0, 6, 0, 6]], grid)[0, 0],
            )

    def test_constant_map_pools_to_constant(self):
        fmap = FeatureMap("conv3", 4, np.full((2, 5, 7), 2.5, dtype=np.float32))
        out = roi_max_pool(fmap, FeatureRect(1, 5, 2, 7), PoolGrid(3, 4))
        np.testing.assert_array_equal(out, np.full(2 * 12, 2.5, dtype=np.float32))

    def test_rect_outside_map_rejected(self):
        fmap = FeatureMap("conv3", 4, np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(DataError):
            roi_max_pool(fmap, FeatureRect(0, 5, 0, 4), PoolGrid(2, 2))
        with pytest.raises(DataError):
            roi_max_pool(fmap, FeatureRect(2, 2, 0, 4), PoolGrid(2, 2))


class TestRoiHistogramPool:
    def test_hand_example_cell_norm(self):
        codes = np.array([[0, 1], [1, 1]])
        out = grid_histogram_pool(codes, np.array([[0, 2, 0, 2]]), PoolGrid(1, 1), 3)
        np.testing.assert_allclose(out, [[0.25, 0.75, 0.0]])

    def test_cell_major_layout(self):
        labels = LabelMap(np.array([[4, 4, 7], [4, 4, 7]], dtype=np.uint8))
        out = roi_histogram_pool(labels, FeatureRect(0, 2, 0, 3), PoolGrid(1, 3))
        assert out.shape == (21 * 3,)
        assert out[0 * 21 + 4] == 1.0
        assert out[1 * 21 + 4] == 1.0
        assert out[2 * 21 + 7] == 1.0

    def test_every_cell_sums_to_one_under_cell_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            fmap, labels, _, box, grid = random_pool_instance(rng)
            rect = _oracle_feature_rect(box, fmap.stride, labels.height, labels.width)
            out = roi_histogram_pool(labels, rect, grid)
            sums = out.reshape(grid.cells, 21).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestEdgePool:
    def test_max_mode_matches_single_channel_pool(self):
        rng = np.random.default_rng(5)
        data = rng.random((6, 8)).astype(np.float32)
        emap = EdgeMap(data)
        rect = FeatureRect(1, 6, 0, 7)
        grid = PoolGrid(3, 2)
        np.testing.assert_array_equal(
            roi_edge_pool(emap, rect, grid, mode="max"),
            grid_max_pool(data[..., None], [[1, 6, 0, 7]], grid)[0, 0],
        )

    def test_full_strength_lands_in_top_bin(self):
        emap = EdgeMap(np.array([[0.0, 1.0]], dtype=np.float32))
        out = roi_edge_pool(emap, FeatureRect(0, 1, 0, 2), PoolGrid(1, 1),
                            mode="hist", bins=4)
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0, 0.5])

    def test_bad_mode_and_bins_rejected(self):
        emap = EdgeMap(np.zeros((2, 2), dtype=np.float32))
        rect = FeatureRect(0, 2, 0, 2)
        with pytest.raises(ValueError):
            roi_edge_pool(emap, rect, PoolGrid(1, 1), mode="mean")
        with pytest.raises(ValueError):
            roi_edge_pool(emap, rect, PoolGrid(1, 1), mode="hist", bins=0)


class TestAgainstOracles:
    """Randomized sweep mirroring the acceptance check at smaller volume."""

    def test_max_and_histogram_match_brute_force(self):
        rng = np.random.default_rng(20240817)
        for _ in range(150):
            fmap, labels, edges, box, grid = random_pool_instance(rng)
            rect = _oracle_feature_rect(box, fmap.stride, fmap.height, fmap.width)

            got_max = roi_max_pool(fmap, rect, grid)
            want_max = oracle_max_pool(fmap.data, rect, grid.m, grid.n)
            assert np.array_equal(got_max, want_max)

            got_hist = roi_histogram_pool(labels, rect, grid)
            want_hist = oracle_histogram_pool(labels.data, rect, grid.m, grid.n, 21)
            assert np.max(np.abs(got_hist.astype(np.float64)
                                 - want_hist.astype(np.float64))) <= 1e-12

    def test_edge_histogram_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            fmap, _, edges, box, grid = random_pool_instance(rng)
            rect = _oracle_feature_rect(box, fmap.stride, edges.height, edges.width)
            got = roi_edge_pool(edges, rect, grid, mode="hist", bins=16)
            want = oracle_edge_hist_pool(edges.data, rect, grid.m, grid.n, 16)
            assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=40)
@given(m=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_one_pixel_cells_return_the_raw_map(m, n, seed):
    """A grid matching the rect exactly pools each pixel to itself."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(1, m, n)).astype(np.float32)
    fmap = FeatureMap("conv3", 4, data)
    rect = FeatureRect(0, m, 0, n)
    out = roi_max_pool(fmap, rect, PoolGrid(m, n))
    np.testing.assert_array_equal(out, data.reshape(-1))


def random_boxes(rng, fmap, count):
    """Boxes that overlap the map, many overhanging it, some under one cell."""
    w_px, h_px = fmap.width * fmap.stride, fmap.height * fmap.stride
    boxes = []
    while len(boxes) < count:
        x = float(rng.uniform(-0.3 * w_px, 0.95 * w_px))
        y = float(rng.uniform(-0.3 * h_px, 0.95 * h_px))
        bw = float(rng.uniform(0.5, 1.1 * w_px))
        bh = float(rng.uniform(0.5, 1.1 * h_px))
        if x + bw > 0 and y + bh > 0:
            boxes.append(Box(x, y, bw, bh))
    return boxes


class TestBatchedGridPool:
    """All boxes of a map in one call, bit-equal to the per-box oracles."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12))
    def test_every_box_matches_the_oracles(self, seed, count):
        rng = np.random.default_rng(seed)
        fmap, labels, edges, _, grid = random_pool_instance(rng)
        boxes = random_boxes(rng, fmap, count)
        rects = map_boxes_to_feature_coords(np.array(boxes), fmap.stride,
                                            fmap.height, fmap.width)
        pooled = grid_max_pool(fmap.hwc, rects, grid)
        hist = grid_histogram_pool(labels.data, rects, grid, 21)
        edge_hist = grid_histogram_pool(edge_codes(edges.data, 16), rects, grid, 16)
        assert pooled.shape == (count, fmap.channels, grid.cells)
        for i, box in enumerate(boxes):
            rect = _oracle_feature_rect(box, fmap.stride, fmap.height, fmap.width)
            assert FeatureRect(*rects[i].tolist()) == rect
            m, n = grid.m, grid.n
            assert np.array_equal(pooled[i].reshape(-1),
                                  oracle_max_pool(fmap.data, rect, m, n))
            assert np.array_equal(hist[i], oracle_histogram_pool(labels.data, rect, m, n, 21))
            assert np.array_equal(edge_hist[i],
                                  oracle_edge_hist_pool(edges.data, rect, m, n, 16))

    def test_large_batches_split_into_chunks_without_changing_results(self, monkeypatch):
        import samhead.pooling as pooling

        rng = np.random.default_rng(11)
        fmap = FeatureMap("conv3", 4, rng.normal(size=(3, 12, 9)).astype(np.float32))
        boxes = random_boxes(rng, fmap, 40)
        rects = map_boxes_to_feature_coords(np.array(boxes), 4, 12, 9)
        whole = grid_max_pool(fmap.hwc, rects, PoolGrid(3, 2))
        monkeypatch.setattr(pooling, "_GATHER_FLOATS", 1)
        assert np.array_equal(grid_max_pool(fmap.hwc, rects, PoolGrid(3, 2)), whole)

    def test_maps_of_one_geometry_share_windows(self):
        rng = np.random.default_rng(17)
        grid = PoolGrid(3, 2)
        conv3, conv4a = (FeatureMap(name, 4, rng.normal(size=(c, 7, 9)).astype(np.float32))
                         for name, c in (("conv3", 3), ("conv4a", 5)))
        boxes = random_boxes(rng, conv3, 20)
        rects = map_boxes_to_feature_coords(np.array(boxes), 4, 7, 9)
        windows = max_windows(rects, grid, 7, 9)
        for fmap in (conv3, conv4a):
            shared = window_max(fmap.hwc, windows)
            assert np.array_equal(shared, grid_max_pool(fmap.hwc, rects, grid))
            for i, rect in enumerate(rects.tolist()):
                assert np.array_equal(shared[i].reshape(-1),
                                      oracle_max_pool(fmap.data, FeatureRect(*rect), 3, 2))
        with pytest.raises(DataError, match=r"\(7, 9\) map applied to a \(7, 8\) map"):
            window_max(np.zeros((7, 8, 3), dtype=np.float32), windows)

    def test_empty_batch(self):
        fmap = FeatureMap("conv3", 4, np.zeros((2, 4, 4), dtype=np.float32))
        rects = np.empty((0, 4), dtype=np.int64)
        assert grid_max_pool(fmap.hwc, rects, PoolGrid(2, 2)).shape == (0, 2, 4)
        labels = np.zeros((4, 4), dtype=np.uint8)
        assert grid_histogram_pool(labels, rects, PoolGrid(2, 2), 21).shape == (0, 84)

    def test_one_box_outside_the_map_is_degenerate(self):
        boxes = np.array([Box(0, 0, 5, 5), Box(-10, -10, 5, 5)])
        with pytest.raises(DegenerateRoiError, match="-10.0"):
            map_boxes_to_feature_coords(boxes, 4, 10, 10)

    def test_codes_outside_the_bins_are_rejected(self):
        labels = np.array([[0, 5]], dtype=np.uint8)
        with pytest.raises(DataError, match="code 5"):
            grid_histogram_pool(labels, np.array([[0, 1, 0, 2]]), PoolGrid(1, 1), 5)
