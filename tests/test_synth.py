"""The synthetic dataset generator: determinism, geometry, and signal knobs."""

import math

import numpy as np
import pytest

from conftest import tiny_synth_config
from oracles import boxes_of, iou
from samhead.errors import ConfigError
from samhead.synth import (
    DISTRACTOR_PROPOSALS,
    DISTRACTORS_PER_IMAGE,
    IMAGE_H,
    IMAGE_W,
    LARGE_HEIGHTS,
    PED_CLASS,
    PED_WIDTH_RATIO,
    PLACEMENT_MAX_IOU,
    PROPOSALS_PER_GT,
    ROUGH_PROPOSALS_PER_GT,
    SMALL_HEIGHTS,
    LayerSpec,
    band_gain,
    generate_dataset,
)


def _maps_equal(a, b):
    for sa, sb in zip(a.samples, b.samples):
        for name in sa.record.feature_maps:
            if not np.array_equal(sa.record.feature_maps[name].data,
                                  sb.record.feature_maps[name].data):
                return False
        if not np.array_equal(sa.record.label_map.data, sb.record.label_map.data):
            return False
        if not np.array_equal(sa.record.edge_map.data, sb.record.edge_map.data):
            return False
    return True


@pytest.fixture(scope="module")
def small_set():
    return generate_dataset(tiny_synth_config(num_images=6), seed=21)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        cfg = tiny_synth_config(num_images=4)
        a = generate_dataset(cfg, seed=9)
        b = generate_dataset(cfg, seed=9)
        assert _maps_equal(a, b)
        assert a.ground_truth_by_image() == b.ground_truth_by_image()
        assert a.proposals_by_image() == b.proposals_by_image()
        assert a.meta == b.meta

    def test_different_seed_different_data(self):
        cfg = tiny_synth_config(num_images=4)
        a = generate_dataset(cfg, seed=9)
        b = generate_dataset(cfg, seed=10)
        assert a.ground_truth_by_image() != b.ground_truth_by_image()


class TestGeometry:
    def test_ground_truth_boxes_are_plausible(self, small_set):
        cfg = tiny_synth_config(num_images=6)
        for sample in small_set:
            gts = sample.ground_truth
            assert len(gts) <= cfg.peds_per_image[1]
            for box, occl, trunc in zip(boxes_of(gts), gts.occl.tolist(), gts.trunc.tolist()):
                h = box.h
                in_small = SMALL_HEIGHTS[0] <= h <= SMALL_HEIGHTS[1]
                in_large = LARGE_HEIGHTS[0] <= h <= LARGE_HEIGHTS[1]
                assert in_small or in_large
                assert box.w == pytest.approx(PED_WIDTH_RATIO * h)
                assert box.x >= 0 and box.x2 <= IMAGE_W
                assert box.y >= 0 and box.y2 <= IMAGE_H
                assert (0.0 <= occl <= 0.1) or (0.45 <= occl <= 0.7)
                assert 0.0 <= trunc <= 0.08
            assert not gts.ignore.any()

    def test_objects_do_not_pile_up(self, small_set):
        for sample in small_set:
            gts = boxes_of(sample.ground_truth)
            for i in range(len(gts)):
                for j in range(i + 1, len(gts)):
                    assert iou(gts[i], gts[j]) <= PLACEMENT_MAX_IOU

    def test_proposals_cover_every_object(self, small_set):
        cfg = tiny_synth_config(num_images=6)
        for sample in small_set:
            n = len(sample.proposals)
            floor = len(sample.ground_truth) * (
                PROPOSALS_PER_GT + ROUGH_PROPOSALS_PER_GT
            ) + cfg.background_proposals
            ceil = floor + DISTRACTORS_PER_IMAGE[1] * DISTRACTOR_PROPOSALS
            assert floor <= n <= ceil
            assert ((0.01 <= sample.proposals.scores) & (sample.proposals.scores <= 0.99)).all()
            for box in boxes_of(sample.proposals):
                assert box.x >= 0 and box.x2 <= IMAGE_W
                assert box.y >= 0 and box.y2 <= IMAGE_H

    def test_map_shapes_follow_strides(self, small_set):
        cfg = tiny_synth_config(num_images=6)
        for sample in small_set:
            rec = sample.record
            for name, spec in cfg.layers.items():
                fm = rec.feature_maps[name]
                assert fm.stride == spec.stride
                assert fm.channels == spec.channels
                assert fm.height == math.ceil(IMAGE_H / spec.stride)
                assert fm.width == math.ceil(IMAGE_W / spec.stride)
            assert rec.label_map.data.shape == (IMAGE_H, IMAGE_W)
            assert rec.edge_map.data.shape == (IMAGE_H, IMAGE_W)

    def test_pedestrians_are_labeled(self, small_set):
        for sample in small_set:
            label = sample.record.label_map.data
            for g in boxes_of(sample.ground_truth):
                cx = int(g.x + g.w / 2)
                cy = int(g.y + g.h / 2)
                assert label[cy, cx] == PED_CLASS

    def test_object_outlines_reach_the_edge_map(self, small_set):
        for sample in small_set:
            edge = sample.record.edge_map.data
            for g in boxes_of(sample.ground_truth):
                top = edge[int(g.y), int(g.x) : int(math.ceil(g.x2))]
                assert top.max() >= 0.6


class TestMeta:
    def test_meta_echoes_inputs(self, small_set):
        cfg = tiny_synth_config(num_images=6)
        meta = small_set.meta
        assert meta["seed"] == 21
        assert meta["config"]["num_images"] == 6
        assert meta["config"]["class_amp"] == cfg.class_amp
        assert set(meta["config"]) == {"num_images", "layers", "peds_per_image",
                                       "background_proposals", "class_amp", "contour_amp"}
        assert meta["layers"]["conv3"] == {"stride": 4, "channels": 64}
        assert len(small_set) == 6
        assert small_set.image_ids == [f"img{i:04d}" for i in range(6)]


class TestBandGain:
    def test_peak_at_center(self):
        assert band_gain(84.0, 84.0, 0.3) == pytest.approx(1.0)

    def test_log_symmetric(self):
        for r in (1.2, 1.5, 2.0):
            assert band_gain(84.0 * r, 84.0, 0.3) == pytest.approx(
                band_gain(84.0 / r, 84.0, 0.3)
            )

    def test_decays_away_from_center(self):
        gains = [band_gain(h, 84.0, 0.3) for h in (84.0, 100.0, 120.0, 150.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))
        assert band_gain(150.0, 84.0, 0.3) < 0.05


class TestValidation:
    def test_overlapping_height_ranges(self):
        # The fixed height ranges are ordered, positive and disjoint.
        assert 0 < SMALL_HEIGHTS[0] <= SMALL_HEIGHTS[1] <= LARGE_HEIGHTS[0] <= LARGE_HEIGHTS[1]

    def test_object_must_fit_image(self):
        # The tallest object, and a background box of that height, fit the
        # fixed image with a pixel to spare on each side.
        assert LARGE_HEIGHTS[1] + 2 <= IMAGE_H
        assert PED_WIDTH_RATIO * LARGE_HEIGHTS[1] + 2 <= IMAGE_W

    def test_channel_budget_enforced(self):
        layers = {"conv3": LayerSpec(stride=4, channels=12, band_center=56.0)}
        with pytest.raises(ConfigError):
            generate_dataset(tiny_synth_config(layers=layers), seed=0)

    def test_layer_spec_validation(self):
        with pytest.raises(ConfigError):
            LayerSpec(stride=0, channels=8, band_center=56.0)
        with pytest.raises(ConfigError):
            LayerSpec(stride=4, channels=8, band_center=0.0)
        with pytest.raises(ConfigError):
            LayerSpec(stride=3, channels=32, band_center=56.0)

    def test_population_validation(self):
        with pytest.raises(ConfigError):
            tiny_synth_config(peds_per_image=(0, 0))
        with pytest.raises(ConfigError):
            tiny_synth_config(peds_per_image=(3, 2))
        with pytest.raises(ConfigError):
            tiny_synth_config(background_proposals=-1)
        with pytest.raises(ConfigError):
            tiny_synth_config(num_images=0)
