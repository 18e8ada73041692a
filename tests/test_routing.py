"""Scale-bin routing tables and descriptor assembly."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samhead.errors import ConfigError, DataError
from samhead.maps import EdgeMap, FeatureMap, ImageRecord, LabelMap
from samhead import routing as routing_module
from samhead.pca import PcaProjector, fit_pca
from samhead.pooling import BoxBatch, DegenerateRoiError, PoolGrid
from samhead.routing import (
    ChannelConfig,
    DescriptorExtractor,
    MissingLayerError,
    RoutingTable,
    ScaleBin,
    default_routing_table,
    pool_bin_cells,
    pool_bin_stacks,
)

from conftest import extract_one
from oracles import (
    Box,
    _oracle_feature_rect,
    oracle_cnn_descriptor,
    oracle_edge_hist_pool,
    oracle_histogram_pool,
    oracle_max_pool,
)

GRID = PoolGrid(3, 2)

SMALL_BOX = Box(10.0, 2.0, 18.0, 60.0)
LARGE_BOX = Box(4.0, 0.0, 40.0, 100.0)


def make_record(channels=(3, 2, 1), with_label=True, with_edge=True, seed=0, size=(64, 48),
                image_id="img0"):
    """A 64x48 (or ``size``) image with conv3/conv4a at stride 4 and conv5a at stride 8."""
    rng = np.random.default_rng(seed)
    c3, c4, c5 = channels
    w, h = size
    fmaps = {
        "conv3": FeatureMap("conv3", 4, rng.normal(size=(c3, h // 4, w // 4))),
        "conv4a": FeatureMap("conv4a", 4, rng.normal(size=(c4, h // 4, w // 4))),
        "conv5a": FeatureMap("conv5a", 8, rng.normal(size=(c5, h // 8, w // 8))),
    }
    return ImageRecord(
        image_id=image_id,
        image_w=w,
        image_h=h,
        feature_maps=fmaps,
        label_map=LabelMap(rng.integers(0, 21, size=(h, w))) if with_label else None,
        edge_map=EdgeMap(rng.random(size=(h, w))) if with_edge else None,
    )


def two_bin_table(grid=GRID, target_dim=0):
    # Both bins stack three channels with the default record, so at
    # target_dim 3 neither bin needs a projector.
    return RoutingTable(
        bins=(
            ScaleBin(50.0, 80.0, ("conv3",), "small"),
            ScaleBin(80.0, None, ("conv4a", "conv5a"), "large"),
        ),
        grid=grid,
        target_dim=target_dim,
    )


def one_bin_table(layers=("conv3", "conv4a"), grid=GRID, target_dim=0):
    return RoutingTable(
        bins=(ScaleBin(50.0, None, layers, "only"),), grid=grid, target_dim=target_dim
    )


def axes_projector(dim, out):
    """A projector onto the first ``out`` of ``dim`` coordinate axes."""
    return PcaProjector(np.zeros(dim), np.eye(dim)[:out])


def oracle_cells(record, box, layers, grid):
    """(cells, sum-of-channels) matrix built from the brute-force max pool."""
    parts = []
    for name in layers:
        fmap = record.layer(name)
        rect = _oracle_feature_rect(box, fmap.stride, fmap.height, fmap.width)
        pooled = oracle_max_pool(fmap.data, rect, grid.m, grid.n)
        parts.append(pooled.reshape(fmap.channels, grid.cells))
    return np.concatenate(parts, axis=0).T


def mixed_table():
    """Two bins: "small" pools conv3 alone (3 channels, the target) and needs no
    projector; "large" pools conv3 and conv4a (5 channels) and needs one to 3."""
    return RoutingTable(
        bins=(
            ScaleBin(50.0, 80.0, ("conv3",), "small"),
            ScaleBin(80.0, None, ("conv3", "conv4a"), "large"),
        ),
        grid=GRID,
        target_dim=3,
    )


class TestScaleBin:
    def test_rejects_nonpositive_min_height(self):
        with pytest.raises(ConfigError):
            ScaleBin(0.0, 80.0, ("conv3",), "s")

    def test_rejects_empty_height_range(self):
        with pytest.raises(ConfigError):
            ScaleBin(80.0, 80.0, ("conv3",), "s")

    def test_rejects_empty_layer_list(self):
        with pytest.raises(ConfigError):
            ScaleBin(50.0, None, (), "s")

    def test_rejects_duplicate_layers(self):
        with pytest.raises(ConfigError):
            ScaleBin(50.0, None, ("conv3", "conv3"), "s")


class TestRoutingTable:
    def test_default_table_is_the_two_bin_split(self):
        table = default_routing_table()
        assert table.bins == (
            ScaleBin(50.0, 80.0, ("conv3", "conv4a"), "small"),
            ScaleBin(80.0, None, ("conv4a", "conv5a"), "large"),
        )
        assert table.grid == PoolGrid()
        assert table.target_dim == 0

    def test_default_table_passes_grid_and_target_dim_through(self):
        table = default_routing_table(grid=PoolGrid(4, 2), target_dim=768)
        assert table.grid == PoolGrid(4, 2)
        assert table.target_dim == 768

    def test_rejects_negative_target_dim(self):
        with pytest.raises(ConfigError, match="target_dim must be >= 0, got -1"):
            default_routing_table(target_dim=-1)

    def test_rejects_empty_table(self):
        with pytest.raises(ConfigError):
            RoutingTable(bins=())

    def test_rejects_gap_between_bins(self):
        with pytest.raises(ConfigError, match="contiguous"):
            RoutingTable(
                bins=(
                    ScaleBin(50.0, 80.0, ("conv3",), "a"),
                    ScaleBin(90.0, None, ("conv5a",), "b"),
                )
            )

    def test_rejects_overlapping_bins(self):
        with pytest.raises(ConfigError, match="contiguous"):
            RoutingTable(
                bins=(
                    ScaleBin(50.0, 80.0, ("conv3",), "a"),
                    ScaleBin(70.0, None, ("conv5a",), "b"),
                )
            )

    def test_rejects_unbounded_bin_in_the_middle(self):
        with pytest.raises(ConfigError, match="contiguous"):
            RoutingTable(
                bins=(
                    ScaleBin(50.0, None, ("conv3",), "a"),
                    ScaleBin(80.0, None, ("conv5a",), "b"),
                )
            )

    def test_rejects_bounded_last_bin(self):
        with pytest.raises(ConfigError, match="unbounded"):
            RoutingTable(bins=(ScaleBin(50.0, 80.0, ("conv3",), "a"),))

    def test_rejects_duplicate_projector_ids(self):
        with pytest.raises(ConfigError, match="unique"):
            RoutingTable(
                bins=(
                    ScaleBin(50.0, 80.0, ("conv3",), "same"),
                    ScaleBin(80.0, None, ("conv5a",), "same"),
                )
            )


def routed(table, *heights):
    return table.route(np.array(heights)).tolist()


def first_bin_holding(table, height):
    """The first bin whose half-open range holds ``height``, or the first bin if none does."""
    return next((i for i, b in enumerate(table.bins)
                 if b.min_height <= height and (b.max_height is None or height < b.max_height)),
                0)


class TestRoute:
    def test_routes_by_height(self):
        table = default_routing_table()
        assert routed(table, 50.0, 79.9, 79.999, 80.0, 640.0, 1e9) == [0, 0, 0, 1, 1, 1]

    def test_height_below_first_bin_routes_to_it(self):
        table = default_routing_table()
        assert routed(table, 49.9, 1.0) == [0, 0]

    def test_no_heights_route_to_no_bins(self):
        assert routed(default_routing_table()) == []

    def test_three_bins(self):
        table = RoutingTable(bins=(ScaleBin(30.0, 50.0, ("conv3",), "far"),
                                   ScaleBin(50.0, 80.0, ("conv3",), "medium"),
                                   ScaleBin(80.0, None, ("conv5a",), "near")))
        assert routed(table, 10.0, 30.0, 49.99, 50.0, 79.99, 80.0) == [0, 0, 0, 1, 1, 2]

    @given(st.lists(st.floats(min_value=0.5, max_value=1e6), max_size=30))
    def test_each_height_goes_to_the_first_bin_holding_it(self, heights):
        table = default_routing_table()
        assert routed(table, *heights) == [first_bin_holding(table, h) for h in heights]


class TestPoolBinCells:
    def test_shape_is_cells_by_channel_sum(self):
        record = make_record()
        cells = pool_bin_cells(record, LARGE_BOX, two_bin_table(), 1)
        assert cells.shape == (GRID.cells, 3)  # conv4a (2) + conv5a (1)

    def test_values_match_per_layer_oracle(self):
        record = make_record()
        table = two_bin_table()
        got = pool_bin_cells(record, LARGE_BOX, table, 1)
        expected = oracle_cells(record, LARGE_BOX, ("conv4a", "conv5a"), GRID)
        assert np.array_equal(got, expected)

    def test_missing_layer_names_image_and_layer(self):
        record = make_record()
        fmaps = {k: v for k, v in record.feature_maps.items() if k != "conv4a"}
        partial = ImageRecord(
            image_id="img7",
            image_w=64,
            image_h=48,
            feature_maps=fmaps,
            label_map=record.label_map,
            edge_map=record.edge_map,
        )
        with pytest.raises(MissingLayerError, match="img7.*conv4a"):
            pool_bin_cells(partial, LARGE_BOX, two_bin_table(), 1)


class TestPoolBinStacks:
    def test_one_call_per_image_stacks_each_boxs_cells(self):
        record = make_record()
        table = two_bin_table()
        boxes = np.array([LARGE_BOX, (0.0, 0.0, 30.0, 48.0), (20.5, 3.25, 22.0, 90.0)])
        stacks = pool_bin_stacks([record], boxes, [len(boxes)], table, 1)
        assert stacks.shape == (3, GRID.cells, 3) and stacks.flags.c_contiguous
        for box, stack in zip(boxes, stacks):
            assert np.array_equal(stack, pool_bin_cells(record, box, table, 1))
            assert np.array_equal(stack, oracle_cells(record, Box(*box.tolist()),
                                                      ("conv4a", "conv5a"), GRID))


class TestChannelConfig:
    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (ChannelConfig(), 0),
            (ChannelConfig(semantic=True), 21 * 6),
            (ChannelConfig(edge=True, edge_pooling="max"), 6),
            (ChannelConfig(edge=True), 6),
            (ChannelConfig(edge=True, edge_pooling="hist"), 16 * 6),
            (ChannelConfig(semantic=True, edge=True, edge_pooling="hist"), 21 * 6 + 16 * 6),
            (ChannelConfig(semantic=True, edge=True), 21 * 6 + 6),
        ],
    )
    def test_block_length(self, cfg, expected):
        assert cfg.block_length(GRID) == expected

    def test_rejects_unknown_edge_pooling(self):
        with pytest.raises(ConfigError):
            ChannelConfig(edge_pooling="avg")


class TestDescriptorExtractor:
    def test_length_counts_cnn_and_aux_blocks(self):
        extractor = DescriptorExtractor(
            one_bin_table(target_dim=5), {}, ChannelConfig(semantic=True, edge=True)
        )
        assert extractor.cell_dim == 5
        assert extractor.length == 5 * 6 + 21 * 6 + 6

    def test_projector_less_descriptor_layout(self):
        # CNN block first (cell-major), then semantic histograms, then edge max.
        record = make_record()
        extractor = DescriptorExtractor(
            one_bin_table(target_dim=5), {}, ChannelConfig(semantic=True, edge=True)
        )
        got = extract_one(extractor, record, np.array([SMALL_BOX]))[0]
        rect1 = _oracle_feature_rect(SMALL_BOX, 1, 48, 64)
        expected = np.concatenate(
            [
                oracle_cells(record, SMALL_BOX, ("conv3", "conv4a"), GRID).reshape(-1),
                oracle_histogram_pool(record.label_map.data, rect1, GRID.m, GRID.n, 21),
                oracle_max_pool(record.edge_map.data[None], rect1, GRID.m, GRID.n),
            ]
        ).astype(np.float32)
        assert got.dtype == np.float32
        assert np.array_equal(got, expected)

    def test_edge_histogram_block(self):
        record = make_record()
        extractor = DescriptorExtractor(
            one_bin_table(target_dim=5), {},
            ChannelConfig(edge=True, edge_pooling="hist"),
        )
        got = extract_one(extractor, record, np.array([SMALL_BOX]))[0]
        rect1 = _oracle_feature_rect(SMALL_BOX, 1, 48, 64)
        expected_aux = oracle_edge_hist_pool(record.edge_map.data, rect1, GRID.m, GRID.n, 16)
        assert got.shape == (5 * 6 + 16 * 6,)
        assert np.allclose(got[30:], expected_aux, rtol=0.0, atol=1e-12)

    def test_routing_switches_bins_by_box_height(self):
        record = make_record()
        extractor = DescriptorExtractor(two_bin_table(target_dim=3), {})
        small = extract_one(extractor, record, np.array([SMALL_BOX]))[0]
        large = extract_one(extractor, record, np.array([LARGE_BOX]))[0]
        exp_small = oracle_cells(record, SMALL_BOX, ("conv3",), GRID).reshape(-1)
        exp_large = oracle_cells(record, LARGE_BOX, ("conv4a", "conv5a"), GRID).reshape(-1)
        assert np.array_equal(small, exp_small.astype(np.float32))
        assert np.array_equal(large, exp_large.astype(np.float32))
        assert not np.array_equal(small, large)

    def test_fitted_projector_applies_per_cell(self):
        record = make_record(seed=3)
        table = one_bin_table(target_dim=2)
        boxes = [Box(2.0 + 3 * i, 1.0 + 2 * i, 20.0, 55.0 + 4 * i) for i in range(8)]
        training = np.concatenate(
            [pool_bin_cells(record, b, table, 0) for b in boxes], axis=0
        )
        proj, _ = fit_pca(training, components=2)
        extractor = DescriptorExtractor(table, {"only": proj})
        got = extract_one(extractor, record, np.array(boxes[:1]))[0]
        cells = pool_bin_cells(record, boxes[0], table, 0)
        expected = ((cells.astype(np.float64) - proj.mean) @ proj.basis.T).reshape(-1)
        assert extractor.length == 2 * GRID.cells
        assert np.array_equal(got, expected.astype(np.float32))

    def test_extract_many_projects_each_box_like_one_box(self):
        record = make_record(seed=3)
        table = two_bin_table(target_dim=2)
        boxes = [Box(2.0 + 3 * i, 1.0 + 2 * i, 20.0, 55.0 + 7 * i) for i in range(8)]
        projectors = {}
        for i, pid in enumerate(("small", "large")):
            training = np.concatenate([pool_bin_cells(record, b, table, i) for b in boxes])
            projectors[pid], _ = fit_pca(training, components=2)
        extractor = DescriptorExtractor(table, projectors, ChannelConfig(semantic=True))
        got = extract_one(extractor, record, np.array(boxes))
        for k, b in enumerate(boxes):
            i = first_bin_holding(table, b.h)
            proj = projectors[table.bins[i].projector_id]
            expected = proj.project(pool_bin_cells(record, b, table, i)).reshape(-1)
            assert np.array_equal(got[k, : 2 * GRID.cells], expected.astype(np.float32))
            assert np.array_equal(got[k], extract_one(extractor, record, np.array([b]))[0])

    def test_extract_many_stacks_extract(self):
        record = make_record()
        extractor = DescriptorExtractor(one_bin_table(target_dim=5), {}, ChannelConfig(edge=True))
        boxes = [SMALL_BOX, LARGE_BOX, Box(0.0, 0.0, 30.0, 48.0)]
        got = extract_one(extractor, record, np.array(boxes))
        assert got.shape == (3, extractor.length)
        assert got.dtype == np.float32
        for i, b in enumerate(boxes):
            assert np.array_equal(got[i], extract_one(extractor, record, np.array([b]))[0])

    def test_fresh_extractor_matches_batched_extract(self):
        record = make_record()
        table = one_bin_table(target_dim=5)
        projectors = {}
        channels = ChannelConfig(semantic=True)
        one_shot = extract_one(DescriptorExtractor(table, projectors, channels), record,
                               np.array([SMALL_BOX]))[0]
        extracted = extract_one(DescriptorExtractor(table, projectors, channels), record,
                                np.array([LARGE_BOX, SMALL_BOX]))[1]
        assert np.array_equal(one_shot, extracted)

    def test_projector_less_table_needs_a_target_dim(self):
        with pytest.raises(ConfigError, match="target_dim must be >= 1, got 0"):
            DescriptorExtractor(two_bin_table(), {})

    def test_rejects_target_dim_0_even_with_projectors(self):
        # The cell width comes from the table alone, never from the projectors.
        with pytest.raises(ConfigError, match="target_dim must be >= 1, got 0"):
            DescriptorExtractor(one_bin_table(), {"only": axes_projector(5, 3)})

    def test_rejects_projector_of_no_bin(self):
        with pytest.raises(ConfigError, match=r"projectors \['spare'\] belong to no routing bin"):
            DescriptorExtractor(two_bin_table(target_dim=2), {"spare": axes_projector(3, 2)})

    def test_rejects_mixed_projection_dims(self):
        with pytest.raises(ConfigError, match="projector 'large' produces 3 dims per cell, "
                                              "table expects 2"):
            DescriptorExtractor(
                two_bin_table(target_dim=2),
                {"small": axes_projector(3, 2), "large": axes_projector(3, 3)},
            )

    def test_rejects_target_dim_mismatch(self):
        with pytest.raises(ConfigError, match="expects 2"):
            DescriptorExtractor(one_bin_table(target_dim=2), {"only": axes_projector(5, 3)})

    def test_projector_input_mismatch_fails_at_extract(self):
        record = make_record()
        extractor = DescriptorExtractor(
            one_bin_table(target_dim=2), {"only": axes_projector(4, 2)}
        )
        with pytest.raises(ConfigError, match="expects 4"):
            extract_one(extractor, record, np.array([SMALL_BOX]))[0]

    def test_projector_less_bin_of_another_width_fails_at_extract(self):
        record = make_record()
        extractor = DescriptorExtractor(
            two_bin_table(target_dim=2), {"large": axes_projector(3, 2)}
        )
        assert extract_one(extractor, record, np.array([LARGE_BOX])).shape == (1, 2 * GRID.cells)
        message = "bin 'small' pools 3 channels per cell but it has no projector and the target is 2"
        with pytest.raises(ConfigError, match=message):
            extract_one(extractor, record, np.array([LARGE_BOX, SMALL_BOX]))

    def test_mixed_table_matches_the_oracle(self, monkeypatch):
        record = make_record(seed=3)
        table = mixed_table()
        boxes = [Box(2.0 + 3 * i, 1.0 + 2 * i, 20.0, 41.0 + 7 * i) for i in range(10)]
        training = np.concatenate([pool_bin_cells(record, b, table, 1) for b in boxes])
        projectors = {"large": fit_pca(training, components=3)[0]}
        extractor = DescriptorExtractor(table, projectors)
        calls = []
        project = PcaProjector.project

        def counting_project(self, v):
            calls.append(self)
            return project(self, v)

        monkeypatch.setattr(PcaProjector, "project", counting_project)
        got = extract_one(extractor, record, np.array(boxes))
        bins = [first_bin_holding(table, b.h) for b in boxes]
        assert 0 < bins.count(0) < len(boxes)
        assert calls == [projectors["large"]]
        for k, b in enumerate(boxes):
            assert np.array_equal(got[k], oracle_cnn_descriptor(record, b, table, projectors))

        calls.clear()
        small_only = [b for b, i in zip(boxes, bins) if i == 0]
        assert np.array_equal(
            extract_one(extractor, record, np.array(small_only)), got[np.array(bins) == 0]
        )
        assert calls == []

    def test_missing_label_map_is_reported(self):
        record = make_record(with_label=False)
        extractor = DescriptorExtractor(
            one_bin_table(target_dim=5), {}, ChannelConfig(semantic=True)
        )
        with pytest.raises(MissingLayerError, match="label map"):
            extract_one(extractor, record, np.array([SMALL_BOX]))[0]

    def test_missing_edge_map_is_reported(self):
        record = make_record(with_edge=False)
        extractor = DescriptorExtractor(one_bin_table(target_dim=5), {}, ChannelConfig(edge=True))
        with pytest.raises(MissingLayerError, match="edge map"):
            extract_one(extractor, record, np.array([SMALL_BOX]))[0]


class TestBatchedExtract:
    """One batch of several images, pooled at once, equal row by row to the oracles."""

    @pytest.mark.parametrize("edge_pooling", ["hist", "max"])
    def test_rows_match_the_oracles(self, edge_pooling):
        # Two image sizes, so two geometries per layer; image 1 has no candidate.
        records = [make_record(seed=3),
                   make_record(seed=4, size=(80, 56), image_id="big4"),
                   make_record(seed=5, size=(80, 56), image_id="big5"),
                   make_record(seed=6, image_id="img6")]
        table = mixed_table()
        heights = (45.0, 90.0, 60.0, 100.0, 55.0, 85.0, 70.0, 95.0, 50.0, 110.0)
        boxes = [Box(2.0 + 3 * i, 1.0 + 2 * i, 20.0, h) for i, h in enumerate(heights)]
        training = np.concatenate([pool_bin_cells(records[0], b, table, 1) for b in boxes])
        projectors = {"large": fit_pca(training, components=3)[0]}
        channels = ChannelConfig(semantic=True, edge=True, edge_pooling=edge_pooling)
        extractor = DescriptorExtractor(table, projectors, channels)
        counts = [4, 0, 3, 3]
        image = np.repeat(np.arange(4), counts)
        got = extractor.extract_many(records, np.array(boxes), counts)
        assert got.shape == (10, extractor.length)
        bins = [first_bin_holding(table, b.h) for b in boxes]
        for i in (0, 2, 3):
            assert {bins[k] for k in np.flatnonzero(image == i)} == {0, 1}
        m, n = GRID.m, GRID.n
        for k, (i, box) in enumerate(zip(image.tolist(), boxes)):
            rec = records[i]
            rect1 = _oracle_feature_rect(box, 1, rec.image_h, rec.image_w)
            if edge_pooling == "hist":
                edge = oracle_edge_hist_pool(rec.edge_map.data, rect1, m, n, 16)
            else:
                edge = oracle_max_pool(rec.edge_map.data[None], rect1, m, n)
            want = np.concatenate([
                oracle_cnn_descriptor(rec, box, table, projectors),
                oracle_histogram_pool(rec.label_map.data, rect1, m, n, 21),
                edge,
            ]).astype(np.float32)
            assert np.array_equal(got[k], want)
        for i, rec in enumerate(records):
            mine = np.array(boxes)[image == i]
            assert np.array_equal(extract_one(extractor, rec, mine), got[image == i])

    def test_a_layer_must_have_one_width_across_the_batch(self):
        records = [make_record(seed=3), make_record(channels=(4, 2, 1), seed=4)]
        extractor = DescriptorExtractor(mixed_table(), {"large": axes_projector(5, 3)})
        with pytest.raises(DataError, match="layer 'conv3' has inconsistent channel counts"):
            extractor.extract_many(records, np.array([SMALL_BOX, SMALL_BOX]), [1, 1])

    @pytest.mark.parametrize("call", ["extract_many", "pool_bin_stacks"])
    @pytest.mark.parametrize("counts, message", [
        ([3], "1 box counts for 2 images"),
        ([1, 1, 1], "3 box counts for 2 images"),
        ([[1, 2]], "box counts must be 1-D"),
        ([1, 1], "summing to the 3 boxes"),
        ([4, -1], "non-negative"),
        ([1.5, 1.5], "integers"),
        ([1.0, 2.0], "integers"),
    ])
    def test_counts_must_give_each_image_its_boxes(self, call, counts, message):
        # The records hold no feature map, so reading one would raise MissingLayerError.
        records = [make_record(seed=3), make_record(seed=4)]
        for record in records:
            record.feature_maps.clear()
        boxes = np.array([SMALL_BOX, LARGE_BOX, SMALL_BOX])
        table = one_bin_table(target_dim=5)
        with pytest.raises(ValueError, match=message):
            if call == "extract_many":
                DescriptorExtractor(table, {}).extract_many(records, boxes, counts)
            else:
                pool_bin_stacks(records, boxes, counts, table, 0)

    @pytest.mark.parametrize("coordinate", ["x", "h"])
    def test_a_box_with_a_nan_edge_is_degenerate(self, coordinate):
        box = np.array([SMALL_BOX], dtype=np.float64)
        box[0, "xywh".index(coordinate)] = np.nan
        extractor = DescriptorExtractor(two_bin_table(target_dim=3), {})
        with pytest.raises(DegenerateRoiError, match="NaN edge"):
            extractor.extract_many([make_record()], box, [1])

    @pytest.mark.parametrize("table_kind", ["mixed", "two bins"])
    @settings(max_examples=25, deadline=None, report_multiple_bugs=False)
    @given(data=st.data())
    def test_each_images_rows_are_its_batch_of_one_rows(self, table_kind, data):
        # Per-image counts with zeros in between, on images of two map sizes.
        counts = data.draw(st.lists(st.integers(0, 3), max_size=len(MIXED_RECORDS)))
        corner = st.tuples(st.floats(0, 30), st.floats(0, 20), st.floats(45, 110))
        drawn = data.draw(st.lists(corner, min_size=sum(counts), max_size=sum(counts)))
        boxes = np.array([(x, y, 0.41 * h, h) for x, y, h in drawn]).reshape(-1, 4)
        extractor = cached_column_extractor(table_kind)
        columns = data.draw(st.none() | st.sets(st.integers(0, extractor.length - 1),
                                               max_size=40).map(sorted))
        records = MIXED_RECORDS[: len(counts)]
        got = extractor.extract_many(records, boxes, counts, columns)
        ends = np.cumsum([0, *counts]).tolist()
        for record, a, b in zip(records, ends, ends[1:]):
            alone = extractor.extract_many([record], boxes[a:b], [b - a], columns)
            assert alone.tobytes() == got[a:b].tobytes()


#: Images of two sizes, so two map geometries per layer.
MIXED_RECORDS = [make_record(seed=20 + i, size=((64, 48), (80, 56))[i % 2], image_id=f"img{i}")
                 for i in range(5)]


def column_records():
    """Four images of two sizes; image 1 gets no candidate in ``COLUMN_COUNTS``."""
    return [make_record(seed=3), make_record(seed=4, size=(80, 56), image_id="big4"),
            make_record(seed=5, size=(80, 56), image_id="big5"),
            make_record(seed=6, image_id="img6")]


COLUMN_HEIGHTS = (45.0, 90.0, 60.0, 100.0, 55.0, 85.0, 70.0, 95.0, 50.0, 110.0)
COLUMN_BOXES = np.array([Box(2.0 + 3 * i, 1.0 + 2 * i, 20.0, h)
                         for i, h in enumerate(COLUMN_HEIGHTS)])
COLUMN_COUNTS = [4, 0, 3, 3]


def column_extractor(table_kind, edge_pooling):
    """A mixed table with a fitted projector, or a projector-less one- or two-bin table,
    each with the semantic and edge channels."""
    channels = ChannelConfig(semantic=True, edge=True, edge_pooling=edge_pooling)
    if table_kind == "one bin":
        return DescriptorExtractor(one_bin_table(target_dim=5), {}, channels)
    if table_kind == "two bins":
        return DescriptorExtractor(two_bin_table(target_dim=3), {}, channels)
    table = mixed_table()
    training = np.concatenate([pool_bin_cells(make_record(seed=3), b, table, 1)
                               for b in COLUMN_BOXES])
    return DescriptorExtractor(table, {"large": fit_pca(training, components=3)[0]}, channels)


TABLE_KINDS = ["mixed", "one bin", "two bins"]


@functools.lru_cache(maxsize=None)
def cached_column_extractor(table_kind):
    """``column_extractor(table_kind, "hist")``, built once per kind."""
    return column_extractor(table_kind, "hist")


class TestColumns:
    """``extract_many(..., columns=c)`` is ``extract_many(...)[:, c]``, bit for bit."""

    @staticmethod
    def check(extractor, columns, boxes=COLUMN_BOXES, counts=COLUMN_COUNTS):
        records = column_records()
        columns = np.asarray(columns, dtype=np.int64)
        got = extractor.extract_many(records, boxes, counts, columns=columns)
        want = extractor.extract_many(records, boxes, counts)[:, columns]
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edge_pooling", ["hist", "max"])
    @pytest.mark.parametrize("table_kind", TABLE_KINDS)
    @given(data=st.data())
    def test_random_columns(self, table_kind, edge_pooling, data):
        extractor = column_extractor(table_kind, edge_pooling)
        n = extractor.length
        self.check(extractor, sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))))

    @pytest.mark.parametrize("edge_pooling", ["hist", "max"])
    @pytest.mark.parametrize("table_kind", TABLE_KINDS)
    @pytest.mark.parametrize("subset", ["none", "all", "cnn", "aux", "semantic", "edge"])
    def test_named_columns(self, table_kind, edge_pooling, subset):
        extractor = column_extractor(table_kind, edge_pooling)
        cnn = extractor.cell_dim * GRID.cells
        semantic = cnn + 21 * GRID.cells
        self.check(extractor, {
            "none": [], "all": range(extractor.length), "cnn": range(cnn),
            "aux": range(cnn, extractor.length), "semantic": range(cnn, semantic),
            "edge": range(semantic, extractor.length),
        }[subset])

    @pytest.mark.parametrize("heights", ["projected bin", "projector-less bin"])
    def test_boxes_of_one_bin(self, heights):
        extractor = column_extractor("mixed", "hist")
        mine = (COLUMN_BOXES[:, 3] >= 80.0) == (heights == "projected bin")
        rng = np.random.default_rng(1)
        for size in (1, 5, extractor.length // 2):
            columns = np.sort(rng.choice(extractor.length, size, replace=False))
            image = np.repeat(np.arange(4), COLUMN_COUNTS)[mine]
            self.check(extractor, columns, COLUMN_BOXES[mine], np.bincount(image, minlength=4))

    def test_no_boxes(self):
        extractor = column_extractor("mixed", "max")
        got = extractor.extract_many(column_records(), np.empty((0, 4)), [0, 0, 0, 0],
                                     columns=[1, 7])
        assert got.shape == (0, 2) and got.dtype == np.float32

    @pytest.mark.parametrize("share", [0.0, 1.0])
    @pytest.mark.parametrize("table_kind", TABLE_KINDS)
    def test_pair_and_row_gathers_agree(self, monkeypatch, table_kind, share):
        # Share 0 sends every used layer to the pixel-row gather, share 1 to
        # the pair gather.
        monkeypatch.setattr(routing_module, "PAIR_GATHER_SHARE", share)
        calls = []
        pairs = BoxBatch.max_pool_pairs

        def counting_pairs(self, *args):
            calls.append(len(args[1]))
            return pairs(self, *args)

        monkeypatch.setattr(BoxBatch, "max_pool_pairs", counting_pairs)
        extractor = column_extractor(table_kind, "hist")
        rng = np.random.default_rng(2)
        for size in (1, 4, 30, extractor.length):
            self.check(extractor, np.sort(rng.choice(extractor.length, size, replace=False)))
        assert bool(calls) == (share == 1.0)

    @pytest.mark.parametrize("columns", [[3, 3], [4, 2], [-1], [10**6]])
    def test_columns_must_be_increasing_indices(self, columns):
        extractor = column_extractor("mixed", "max")
        with pytest.raises(ValueError, match="columns must be increasing indices"):
            extractor.extract_many(column_records(), COLUMN_BOXES, COLUMN_COUNTS, columns=columns)


def cells_of(dims, cell_dim, cells=GRID.cells):
    """The CNN-block columns of per-cell dims ``dims``, every cell."""
    return [c * cell_dim + d for c in range(cells) for d in dims]


class TestColumnErrors:
    """A layer or block none of whose columns is asked for still raises as for full rows."""

    @pytest.mark.parametrize("columns", ["none", "other layer"])
    def test_missing_routed_layer(self, columns):
        record = make_record()
        del record.feature_maps["conv4a"]
        extractor = DescriptorExtractor(one_bin_table(target_dim=5), {})
        cols = [] if columns == "none" else cells_of(range(3), 5)  # conv3's
        with pytest.raises(MissingLayerError, match="lacks routed layer 'conv4a'"):
            extractor.extract_many([record], np.array([SMALL_BOX]), [1],
                                   columns=cols)

    @pytest.mark.parametrize("columns", ["none", "cnn"])
    @pytest.mark.parametrize("missing", ["label", "edge"])
    def test_missing_channel_map(self, missing, columns):
        record = make_record(with_label=missing != "label", with_edge=missing != "edge")
        extractor = DescriptorExtractor(one_bin_table(target_dim=5), {},
                                        ChannelConfig(semantic=True, edge=True))
        cols = [] if columns == "none" else range(5 * GRID.cells)
        with pytest.raises(MissingLayerError, match=f"lacks an? {missing} map"):
            extractor.extract_many([record], np.array([SMALL_BOX]), [1],
                                   columns=cols)

    @pytest.mark.parametrize("columns", ["none", "other layer"])
    def test_inconsistent_channel_counts(self, columns):
        records = [make_record(seed=3), make_record(channels=(3, 4, 1), seed=4)]
        extractor = DescriptorExtractor(one_bin_table(target_dim=5), {})
        cols = [] if columns == "none" else cells_of(range(3), 5)  # conv3's
        with pytest.raises(DataError, match="layer 'conv4a' has inconsistent channel counts"):
            extractor.extract_many(records, np.array([SMALL_BOX, SMALL_BOX]), [1, 1],
                                   columns=cols)

    @pytest.mark.parametrize("columns", ["none", "some"])
    @pytest.mark.parametrize("projector", [True, False])
    def test_bin_width_mismatch(self, projector, columns):
        record = make_record()
        if projector:  # the bin pools 5 channels, its projector takes 4
            extractor = DescriptorExtractor(one_bin_table(target_dim=2),
                                            {"only": axes_projector(4, 2)})
            message = "bin 'only' pools 5 channels per cell but its projector expects 4"
        else:  # the small bin pools 3 channels and has no projector to 2
            extractor = DescriptorExtractor(two_bin_table(target_dim=2),
                                            {"large": axes_projector(3, 2)})
            message = ("bin 'small' pools 3 channels per cell but it has no projector "
                       "and the target is 2")
        cols = [] if columns == "none" else [0, 1]
        with pytest.raises(ConfigError, match=message):
            extractor.extract_many([record], np.array([SMALL_BOX, LARGE_BOX]),
                                   [2], columns=cols)
