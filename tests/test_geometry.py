"""Box records, IoU and NMS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Box, iou
from samhead.geometry import GroundTruth, ScoredBoxes, iou_matrix, nms


def boxes_strategy():
    coord = st.floats(-50.0, 150.0, allow_nan=False, width=32)
    extent = st.floats(0.5, 80.0, allow_nan=False, width=32)
    return st.builds(Box, coord, coord, extent, extent)


def one_iou(a, b) -> float:
    return float(iou_matrix(np.array([a]), np.array([b]))[0, 0])


class TestRecords:
    def test_columns_take_their_dtypes_and_shapes(self):
        dets = ScoredBoxes([(1, 2, 3, 4), (5, 6, 7, 8)], [0.5, 2])
        assert dets.boxes.dtype == np.float64 and dets.boxes.shape == (2, 4)
        assert dets.scores.dtype == np.float64 and dets.scores.tolist() == [0.5, 2.0]
        gts = GroundTruth([(1, 2, 3, 4)], ignore=[1])
        assert gts.occl.tolist() == [0.0] and gts.trunc.tolist() == [0.0]
        assert gts.ignore.dtype == bool and gts.ignore.tolist() == [True]

    @pytest.mark.parametrize("make", [ScoredBoxes, GroundTruth])
    def test_empty_record_is_falsy_with_four_columns_of_boxes(self, make):
        record = make()
        assert not record and len(record) == 0
        assert record.boxes.shape == (0, 4)
        assert make([(0, 0, 1, 1)], *([[0.5]] if make is ScoredBoxes else []))

    def test_equality_is_a_plain_bool(self):
        a = ScoredBoxes([(1, 2, 3, 4)], [0.5])
        assert (a == ScoredBoxes([(1, 2, 3, 4)], [0.5])) is True
        assert (a == ScoredBoxes([(1, 2, 3, 4)], [0.25])) is False
        assert (a == ScoredBoxes([(1, 2, 3, 5)], [0.5])) is False
        assert (a == ScoredBoxes()) is False
        assert (a != ScoredBoxes()) is True
        assert ({"i": a} == {"i": ScoredBoxes([(1, 2, 3, 4)], [0.5])}) is True
        assert (GroundTruth([(1, 2, 3, 4)]) == GroundTruth([(1, 2, 3, 4)], ignore=[True])) is False
        assert (GroundTruth() == ScoredBoxes()) is False

    def test_take_keeps_the_index_order(self):
        dets = ScoredBoxes([(0, 0, 1, 1), (1, 0, 1, 1), (2, 0, 1, 1)], [0.1, 0.2, 0.3])
        assert dets.take([2, 0]) == ScoredBoxes([(2, 0, 1, 1), (0, 0, 1, 1)], [0.3, 0.1])
        assert dets.take(np.array([False, True, False])) == ScoredBoxes([(1, 0, 1, 1)], [0.2])

    def test_a_column_of_another_length_is_refused(self):
        with pytest.raises(ValueError, match="a column of 1 values beside 2 boxes"):
            ScoredBoxes([(0, 0, 1, 1), (1, 0, 1, 1)], [0.5])
        with pytest.raises(ValueError):
            GroundTruth([(0, 0, 1, 1)], occl=[0.1, 0.2])


class TestIou:
    def test_half_offset_thirds(self):
        # Overlap 50, union 150.
        assert one_iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1.0 / 3.0)

    def test_identical_boxes(self):
        b = (3.0, 4.0, 7.0, 11.0)
        assert one_iou(b, b) == 1.0

    def test_disjoint_and_touching(self):
        assert one_iou((0, 0, 10, 10), (20, 0, 10, 10)) == 0.0
        # Shared edge has zero area.
        assert one_iou((0, 0, 10, 10), (10, 0, 10, 10)) == 0.0

    def test_contained_box_is_area_ratio(self):
        assert one_iou((0, 0, 10, 10), (2, 2, 5, 4)) == pytest.approx(20.0 / 100.0)

    @given(boxes_strategy(), boxes_strategy())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = one_iou(a, b)
        assert 0.0 <= v <= 1.0
        assert one_iou(b, a) == pytest.approx(v, abs=1e-12)

    def test_matrix_equals_the_oracle_exactly(self):
        rng = np.random.default_rng(13)

        def boxes(n):
            return [Box(float(rng.uniform(-20, 60)), float(rng.uniform(-20, 60)),
                        float(rng.uniform(0.5, 40)), float(rng.uniform(0.5, 40)))
                    for _ in range(n)]

        a, b = boxes(30) + [Box(0.0, 0.0, 10.0, 10.0)], boxes(7) + [Box(10.0, 0.0, 5.0, 10.0)]
        for left, right in ((a, b), (a, a)):
            matrix = iou_matrix(np.array(left), np.array(right))
            assert matrix.shape == (len(left), len(right))
            for i, p in enumerate(left):
                for j, q in enumerate(right):
                    assert matrix[i, j] == iou(p, q)
        empty = np.empty((0, 4))
        assert iou_matrix(np.array(a), empty).shape == (31, 0)
        assert iou_matrix(empty, np.array(b)).shape == (0, 8)
        assert iou_matrix(empty, empty).shape == (0, 0)


def nms_oracle(detections, threshold):
    """Direct restatement of the suppression rule, no shortcuts: the kept indices."""
    boxes, scores = [Box(*row) for row in detections.boxes.tolist()], detections.scores.tolist()
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(iou(boxes[i], boxes[k]) <= threshold for k in kept):
            kept.append(i)
    return kept


class TestNms:
    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(0, 12))
            dets = ScoredBoxes(
                np.column_stack([rng.uniform(0, 60, n), rng.uniform(0, 60, n),
                                 rng.uniform(4, 30, n), rng.uniform(4, 30, n)]),
                rng.normal(size=n),
            )
            thr = float(rng.uniform(0.0, 1.0))
            assert nms(dets, thr) == dets.take(nms_oracle(dets, thr))

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
        boxes, scores = [], []
        for _ in range(n):
            if boxes and rng.random() < 0.2:
                boxes.append(boxes[int(rng.integers(0, len(boxes)))])
            else:
                boxes.append((*rng.integers(0, 40, size=2).tolist(),
                              *rng.integers(1, 20, size=2).tolist()))
            scores.append(float(rng.integers(0, 8)) / 4.0)
        dets = ScoredBoxes(boxes, scores)
        assert nms(dets, threshold) == dets.take(nms_oracle(dets, threshold))

    def test_keeps_all_at_threshold_one(self):
        dets = ScoredBoxes([(0, 0, 10, 10), (1, 1, 10, 10)], [1.0, 0.5])
        assert len(nms(dets, 1.0)) == 2

    def test_suppresses_duplicates_at_zero(self):
        dets = ScoredBoxes([(0, 0, 10, 10), (0, 0, 10, 10)], [1.0, 0.9])
        assert nms(dets, 0.0) == dets.take([0])

    def test_survivors_sorted_by_score(self):
        dets = ScoredBoxes([(0, 0, 10, 10), (40, 0, 10, 10), (80, 0, 10, 10)], [0.2, 0.9, 0.5])
        assert nms(dets, 0.5).scores.tolist() == [0.9, 0.5, 0.2]

    def test_ties_keep_input_order(self):
        dets = ScoredBoxes([(0, 0, 10, 10), (2, 0, 10, 10)], [0.5, 0.5])
        assert nms(dets, 0.9) == dets

    def test_empty_input(self):
        assert nms(ScoredBoxes(), 0.5) == ScoredBoxes()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            nms(ScoredBoxes(), 1.5)
