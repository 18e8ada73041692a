"""Boxes, IoU and NMS."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samhead.geometry import (
    Box,
    Candidate,
    Detection,
    GroundTruthBox,
    iou,
    iou_matrix,
    nms,
    pairwise_iou,
)


def boxes_strategy():
    coord = st.floats(-50.0, 150.0, allow_nan=False, width=32)
    extent = st.floats(0.5, 80.0, allow_nan=False, width=32)
    return st.builds(Box, coord, coord, extent, extent)


class TestBox:
    def test_derived_coordinates(self):
        b = Box(2.0, 3.0, 10.0, 20.0)
        assert (b.x2, b.y2) == (12.0, 23.0)
        assert (b.cx, b.cy) == (7.0, 13.0)
        assert b.area == 200.0
        assert b.as_tuple() == (2.0, 3.0, 10.0, 20.0)

    @pytest.mark.parametrize("w,h", [(0.0, 5.0), (5.0, 0.0), (-1.0, 5.0)])
    def test_rejects_empty_extent(self, w, h):
        with pytest.raises(ValueError):
            Box(0.0, 0.0, w, h)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box(float("nan"), 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Box(0.0, 0.0, float("inf"), 1.0)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_in_any_field(self, field, bad):
        coords = [0.0, 0.0, 1.0, 1.0]
        coords[field] = bad
        with pytest.raises(ValueError, match="finite"):
            Box(*coords)

    def test_candidate_score_range(self):
        Candidate(Box(0, 0, 1, 1), 0.0)
        Candidate(Box(0, 0, 1, 1), 1.0)
        with pytest.raises(ValueError):
            Candidate(Box(0, 0, 1, 1), 1.5)

    def test_ground_truth_fraction_range(self):
        with pytest.raises(ValueError):
            GroundTruthBox(Box(0, 0, 1, 1), occlusion=1.2)
        with pytest.raises(ValueError):
            GroundTruthBox(Box(0, 0, 1, 1), truncation=-0.1)


class TestIou:
    def test_half_offset_thirds(self):
        # Overlap 50, union 150.
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10)) == pytest.approx(1.0 / 3.0)

    def test_identical_boxes(self):
        b = Box(3.0, 4.0, 7.0, 11.0)
        assert iou(b, b) == 1.0

    def test_disjoint_and_touching(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 0, 10, 10)) == 0.0
        # Shared edge has zero area.
        assert iou(Box(0, 0, 10, 10), Box(10, 0, 10, 10)) == 0.0

    def test_contained_box_is_area_ratio(self):
        outer = Box(0, 0, 10, 10)
        inner = Box(2, 2, 5, 4)
        assert iou(outer, inner) == pytest.approx(20.0 / 100.0)

    @given(boxes_strategy(), boxes_strategy())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert iou(b, a) == pytest.approx(v, abs=1e-12)


def nms_oracle(detections, threshold):
    """Direct restatement of the suppression rule, no shortcuts."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    kept = []
    for i in order:
        ok = True
        for k in kept:
            if iou(detections[i].box, k.box) > threshold:
                ok = False
        if ok:
            kept.append(detections[i])
    return kept


class TestNms:
    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dets = [
                Detection(
                    Box(
                        float(rng.uniform(0, 60)),
                        float(rng.uniform(0, 60)),
                        float(rng.uniform(4, 30)),
                        float(rng.uniform(4, 30)),
                    ),
                    float(rng.normal()),
                )
                for _ in range(int(rng.integers(0, 12)))
            ]
            thr = float(rng.uniform(0.0, 1.0))
            assert nms(dets, thr) == nms_oracle(dets, thr)

    @given(
        n=st.integers(0, 200),
        threshold=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_crowded_sets(self, n, threshold, seed):
        # Integer grid coordinates make touching edges, duplicate boxes and
        # tied scores common.
        rng = np.random.default_rng(seed)
        dets = []
        for _ in range(n):
            if dets and rng.random() < 0.2:
                box = dets[int(rng.integers(0, len(dets)))].box
            else:
                box = Box(*(float(v) for v in rng.integers(0, 40, size=2)),
                          *(float(v) for v in rng.integers(1, 20, size=2)))
            dets.append(Detection(box, float(rng.integers(0, 8)) / 4.0))
        got = nms(dets, threshold)
        want = nms_oracle(dets, threshold)
        assert [id(d) for d in got] == [id(d) for d in want]

    def test_pairwise_iou_equals_iou_exactly(self):
        rng = np.random.default_rng(12)
        boxes = [Box(float(rng.uniform(-20, 60)), float(rng.uniform(-20, 60)),
                     float(rng.uniform(0.5, 40)), float(rng.uniform(0.5, 40)))
                 for _ in range(40)]
        boxes += [Box(0.0, 0.0, 10.0, 10.0), Box(10.0, 0.0, 5.0, 10.0), Box(0, 0, 10, 10)]
        matrix = pairwise_iou(boxes)
        for i, a in enumerate(boxes):
            for j, b in enumerate(boxes):
                assert matrix[i, j] == iou(a, b)
        assert pairwise_iou([]).shape == (0, 0)

    def test_iou_matrix_equals_iou_exactly(self):
        rng = np.random.default_rng(13)
        def boxes(n):
            return [Box(float(rng.uniform(-20, 60)), float(rng.uniform(-20, 60)),
                        float(rng.uniform(0.5, 40)), float(rng.uniform(0.5, 40)))
                    for _ in range(n)]
        a, b = boxes(30) + [Box(0.0, 0.0, 10.0, 10.0)], boxes(7) + [Box(10.0, 0.0, 5.0, 10.0)]
        matrix = iou_matrix(a, b)
        assert matrix.shape == (31, 8)
        for i, p in enumerate(a):
            for j, q in enumerate(b):
                assert matrix[i, j] == iou(p, q)
        assert iou_matrix(a, []).shape == (31, 0)
        assert iou_matrix([], b).shape == (0, 8)

    def test_keeps_all_at_threshold_one(self):
        dets = [Detection(Box(0, 0, 10, 10), 1.0), Detection(Box(1, 1, 10, 10), 0.5)]
        assert len(nms(dets, 1.0)) == 2

    def test_suppresses_duplicates_at_zero(self):
        dets = [Detection(Box(0, 0, 10, 10), 1.0), Detection(Box(0, 0, 10, 10), 0.9)]
        kept = nms(dets, 0.0)
        assert kept == [dets[0]]

    def test_survivors_sorted_by_score(self):
        dets = [
            Detection(Box(0, 0, 10, 10), 0.2),
            Detection(Box(40, 0, 10, 10), 0.9),
            Detection(Box(80, 0, 10, 10), 0.5),
        ]
        kept = nms(dets, 0.5)
        assert [d.score for d in kept] == [0.9, 0.5, 0.2]

    def test_ties_keep_input_order(self):
        dets = [Detection(Box(0, 0, 10, 10), 0.5), Detection(Box(2, 0, 10, 10), 0.5)]
        assert nms(dets, 0.9) == dets

    def test_empty_input(self):
        assert nms([], 0.5) == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            nms([], 1.5)


def test_detection_requires_finite_score():
    with pytest.raises(ValueError):
        Detection(Box(0, 0, 1, 1), math.inf)
