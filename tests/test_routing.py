"""Scale-bin routing tables and descriptor assembly."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from samhead.errors import ConfigError
from samhead.maps import EdgeMap, FeatureMap, ImageRecord, LabelMap
from samhead.pca import PcaProjector, fit_pca
from samhead.pooling import PoolGrid
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


def make_record(channels=(3, 2, 1), with_label=True, with_edge=True, seed=0):
    """64x48 image with conv3/conv4a at stride 4 and conv5a at stride 8."""
    rng = np.random.default_rng(seed)
    c3, c4, c5 = channels
    fmaps = {
        "conv3": FeatureMap("conv3", 4, rng.normal(size=(c3, 12, 16))),
        "conv4a": FeatureMap("conv4a", 4, rng.normal(size=(c4, 12, 16))),
        "conv5a": FeatureMap("conv5a", 8, rng.normal(size=(c5, 6, 8))),
    }
    return ImageRecord(
        image_id="img0",
        image_w=64,
        image_h=48,
        feature_maps=fmaps,
        label_map=LabelMap(rng.integers(0, 21, size=(48, 64))) if with_label else None,
        edge_map=EdgeMap(rng.random(size=(48, 64))) if with_edge else None,
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
        stacks = pool_bin_stacks(record, boxes, table, 1)
        assert stacks.shape == (3, 3, GRID.cells)
        for box, stack in zip(boxes, stacks):
            assert np.array_equal(stack.T, pool_bin_cells(record, box, table, 1))
            assert np.array_equal(stack.T, oracle_cells(record, Box(*box.tolist()),
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
        got = extractor.extract_many(record, np.array([SMALL_BOX]))[0]
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
        got = extractor.extract_many(record, np.array([SMALL_BOX]))[0]
        rect1 = _oracle_feature_rect(SMALL_BOX, 1, 48, 64)
        expected_aux = oracle_edge_hist_pool(record.edge_map.data, rect1, GRID.m, GRID.n, 16)
        assert got.shape == (5 * 6 + 16 * 6,)
        assert np.allclose(got[30:], expected_aux, rtol=0.0, atol=1e-12)

    def test_routing_switches_bins_by_box_height(self):
        record = make_record()
        extractor = DescriptorExtractor(two_bin_table(target_dim=3), {})
        small = extractor.extract_many(record, np.array([SMALL_BOX]))[0]
        large = extractor.extract_many(record, np.array([LARGE_BOX]))[0]
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
        got = extractor.extract_many(record, np.array(boxes[:1]))[0]
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
        got = extractor.extract_many(record, np.array(boxes))
        for k, b in enumerate(boxes):
            i = first_bin_holding(table, b.h)
            proj = projectors[table.bins[i].projector_id]
            expected = proj.project(pool_bin_cells(record, b, table, i)).reshape(-1)
            assert np.array_equal(got[k, : 2 * GRID.cells], expected.astype(np.float32))
            assert np.array_equal(got[k], extractor.extract_many(record, np.array([b]))[0])

    def test_extract_many_stacks_extract(self):
        record = make_record()
        extractor = DescriptorExtractor(one_bin_table(target_dim=5), {}, ChannelConfig(edge=True))
        boxes = [SMALL_BOX, LARGE_BOX, Box(0.0, 0.0, 30.0, 48.0)]
        got = extractor.extract_many(record, np.array(boxes))
        assert got.shape == (3, extractor.length)
        assert got.dtype == np.float32
        for i, b in enumerate(boxes):
            assert np.array_equal(got[i], extractor.extract_many(record, np.array([b]))[0])

    def test_fresh_extractor_matches_batched_extract(self):
        record = make_record()
        table = one_bin_table(target_dim=5)
        projectors = {}
        channels = ChannelConfig(semantic=True)
        one_shot = DescriptorExtractor(table, projectors, channels).extract_many(
            record, np.array([SMALL_BOX])
        )[0]
        extracted = DescriptorExtractor(table, projectors, channels).extract_many(
            record, np.array([LARGE_BOX, SMALL_BOX])
        )[1]
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
            extractor.extract_many(record, np.array([SMALL_BOX]))[0]

    def test_projector_less_bin_of_another_width_fails_at_extract(self):
        record = make_record()
        extractor = DescriptorExtractor(
            two_bin_table(target_dim=2), {"large": axes_projector(3, 2)}
        )
        assert extractor.extract_many(record, np.array([LARGE_BOX])).shape == (1, 2 * GRID.cells)
        message = "bin 'small' pools 3 channels per cell but it has no projector and the target is 2"
        with pytest.raises(ConfigError, match=message):
            extractor.extract_many(record, np.array([LARGE_BOX, SMALL_BOX]))

    def test_mixed_table_matches_the_oracle(self, monkeypatch):
        # "small" pools conv3 alone (3 channels, the target) and has no
        # projector; "large" pools 5 channels and gets a fitted PCA to 3.
        record = make_record(seed=3)
        table = RoutingTable(
            bins=(
                ScaleBin(50.0, 80.0, ("conv3",), "small"),
                ScaleBin(80.0, None, ("conv3", "conv4a"), "large"),
            ),
            grid=GRID,
            target_dim=3,
        )
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
        got = extractor.extract_many(record, np.array(boxes))
        bins = [first_bin_holding(table, b.h) for b in boxes]
        assert 0 < bins.count(0) < len(boxes)
        assert calls == [projectors["large"]]
        for k, b in enumerate(boxes):
            assert np.array_equal(got[k], oracle_cnn_descriptor(record, b, table, projectors))

        calls.clear()
        small_only = [b for b, i in zip(boxes, bins) if i == 0]
        assert np.array_equal(
            extractor.extract_many(record, np.array(small_only)), got[np.array(bins) == 0]
        )
        assert calls == []

    def test_missing_label_map_is_reported(self):
        record = make_record(with_label=False)
        extractor = DescriptorExtractor(
            one_bin_table(target_dim=5), {}, ChannelConfig(semantic=True)
        )
        with pytest.raises(MissingLayerError, match="label map"):
            extractor.extract_many(record, np.array([SMALL_BOX]))[0]

    def test_missing_edge_map_is_reported(self):
        record = make_record(with_edge=False)
        extractor = DescriptorExtractor(one_bin_table(target_dim=5), {}, ChannelConfig(edge=True))
        with pytest.raises(MissingLayerError, match="edge map"):
            extractor.extract_many(record, np.array([SMALL_BOX]))[0]
