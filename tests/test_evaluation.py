"""Matching and metrics against hand-computed fixtures and a brute-force matcher.

The two frozen fixtures below were worked out on paper; the expected values
are written as closed forms so the arithmetic can be re-checked by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Box, oracle_greedy_match, random_match_instance
from samhead.errors import ConfigError, DataError
from samhead.evaluation import (
    EVAL_REGION,
    FP,
    IGNORED,
    IOU_THRESHOLD,
    KITTI_DIFFICULTIES,
    KITTI_EASY,
    KITTI_MODERATE,
    TP,
    EvalCurve,
    EvalProtocol,
    MetricUndefinedError,
    average_precision,
    evaluate_detections,
    log_average_miss_rate,
    match_image,
    metrics_summary,
    read_curve_csv,
    summary_and_curves,
    write_curve_csv,
)
from samhead.geometry import GroundTruth, ScoredBoxes

PROTO = EvalProtocol()


def gt(x, y=0.0, w=30.0, h=60.0, occlusion=0.0, truncation=0.0, ignore=False):
    """One annotation, as a one-box record."""
    return GroundTruth([(x, y, w, h)], [occlusion], [truncation], [ignore])


def det(score, x, y=0.0, w=30.0, h=60.0):
    """One detection, as a one-box record."""
    return ScoredBoxes([(x, y, w, h)], [score])


def cat(*records):
    """The boxes of one-image records of one type, in order, as one record."""
    if isinstance(records[0], GroundTruth):
        columns = ("boxes", "occl", "trunc", "ignore")
        return GroundTruth(*(np.concatenate([getattr(r, c) for r in records]) for c in columns))
    return ScoredBoxes(np.concatenate([r.boxes for r in records]),
                       np.concatenate([r.scores for r in records]))


@pytest.fixture
def miss_rate_fixture():
    """3 images, 4 eligible boxes, pooled flags [TP, TP, FP, TP] by score.

    Curve: fppi [0, 0, 1/3, 1/3], miss [3/4, 1/2, 1/2, 1/4].  Reference
    points below 1/3 read miss 1/2 (the 0.75 start is shadowed by the later
    point at the same fppi); points at or above 1/3 read 1/4.
    """
    gts = {
        "img1": cat(gt(0.0), gt(100.0)),
        "img2": gt(0.0),
        "img3": gt(0.0),
    }
    dets = {
        "img1": cat(det(0.9, 0.0), det(0.8, 100.0)),
        "img2": cat(det(0.7, 200.0), det(0.6, 0.0)),
    }
    return dets, gts


@pytest.fixture
def ap_fixture():
    """1 image, 3 boxes, flags [TP, FP, TP, FP, TP] by descending score.

    Recall [1/3, 1/3, 2/3, 2/3, 1], precision [1, 1/2, 2/3, 1/2, 3/5];
    11-point AP = (4*1 + 3*(2/3) + 4*(3/5)) / 11 = 8.4/11.
    """
    gts = {"i": cat(gt(0.0), gt(100.0), gt(200.0))}
    dets = {"i": cat(det(0.9, 0.0), det(0.8, 400.0), det(0.7, 100.0),
                  det(0.6, 500.0), det(0.5, 200.0))}
    return dets, gts


class TestMatchImage:
    def test_basic_assignment(self):
        gts = cat(gt(0.0), gt(100.0))
        dets = cat(det(0.9, 1.0), det(0.8, 101.0))
        (m,) = match_image(dets, gts, (PROTO,))
        np.testing.assert_array_equal(m.flags, [TP, TP])
        assert m.eligible_gt == 2
        np.testing.assert_array_equal(m.gt_matched, [True, True])

    def test_second_hit_on_claimed_box_is_fp(self):
        gts = gt(0.0)
        dets = cat(det(0.9, 0.0), det(0.8, 1.0))
        (m,) = match_image(dets, gts, (PROTO,))
        np.testing.assert_array_equal(m.flags, [TP, FP])

    def test_score_tie_resolves_to_input_order(self):
        gts = gt(0.0)
        dets = cat(det(0.5, 0.0), det(0.5, 0.0))
        (m,) = match_image(dets, gts, (PROTO,))
        np.testing.assert_array_equal(m.flags, [TP, FP])

    def test_best_overlap_wins_not_first(self):
        gts = cat(gt(0.0), gt(20.0))
        dets = det(0.9, 18.0)  # overlaps both; much closer to the second
        (m,) = match_image(dets, gts, (PROTO,))
        np.testing.assert_array_equal(m.flags, [TP])
        np.testing.assert_array_equal(m.gt_matched, [False, True])

    def test_ignored_ground_truth_absorbs_detections(self):
        gts = gt(0.0, ignore=True)
        dets = cat(det(0.9, 0.0), det(0.8, 300.0))
        (m,) = match_image(dets, gts, (PROTO,))
        np.testing.assert_array_equal(m.flags, [IGNORED, FP])
        assert m.eligible_gt == 0

    def test_short_ground_truth_acts_as_ignore_region(self):
        gts = gt(0.0, h=30.0, w=15.0)
        dets = ScoredBoxes([(0.0, 0.0, 15.0, 30.0)], [0.9])
        (m,) = match_image(dets, gts, (PROTO,))
        np.testing.assert_array_equal(m.flags, [IGNORED])

    def test_gt_matched_indexes_eligible_boxes_only(self):
        gts = cat(gt(0.0, ignore=True), gt(100.0))
        dets = det(0.9, 100.0)
        (m,) = match_image(dets, gts, (PROTO,))
        assert m.eligible_gt == 1
        np.testing.assert_array_equal(m.gt_matched, [True])

    def test_flags_follow_descending_score_order(self):
        gts = gt(0.0)
        dets = cat(det(0.2, 500.0), det(0.9, 0.0))
        (m,) = match_image(dets, gts, (PROTO,))
        np.testing.assert_array_equal(m.scores, [0.9, 0.2])
        np.testing.assert_array_equal(m.flags, [TP, FP])


class TestEveryFilterAtOnce:
    FILTERS = (PROTO, EvalProtocol(50.0, 80.0), *KITTI_DIFFICULTIES)

    def test_match_image_gives_each_filter_its_own_result(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            dets, gts = random_match_instance(rng)
            together = match_image(dets, gts, self.FILTERS)
            assert len(together) == len(self.FILTERS)
            for flt, m in zip(self.FILTERS, together):
                (alone,) = match_image(dets, gts, (flt,))
                np.testing.assert_array_equal(m.scores, alone.scores)
                np.testing.assert_array_equal(m.flags, alone.flags)
                np.testing.assert_array_equal(m.gt_matched, alone.gt_matched)
                assert m.eligible_gt == alone.eligible_gt

    def test_evaluate_detections_gives_one_list_per_filter(self, miss_rate_fixture):
        dets, gts = miss_rate_fixture
        per_filter = evaluate_detections(dets, gts, self.FILTERS)
        assert len(per_filter) == len(self.FILTERS)
        for flt, matches in zip(self.FILTERS, per_filter):
            assert len(matches) == len(gts)
            (alone,) = evaluate_detections(dets, gts, (flt,))
            for m, a in zip(matches, alone):
                np.testing.assert_array_equal(m.flags, a.flags)


class TestMatcherAgainstBruteForce:
    def test_randomized_small_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(400):
            dets, gts = random_match_instance(rng)
            (m,) = match_image(dets, gts, (PROTO,))
            eligible_flags = PROTO.eligible(gts).tolist()
            scores, flags, eligible = oracle_greedy_match(
                dets, gts, IOU_THRESHOLD, eligible_flags
            )
            np.testing.assert_array_equal(m.scores, scores)
            np.testing.assert_array_equal(m.flags, flags)
            assert m.eligible_gt == eligible

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dets, gts = random_match_instance(rng)
            (m,) = match_image(dets, gts, (PROTO,))
            assert len(m.flags) == len(dets)
            assert (m.flags == TP).sum() == m.gt_matched.sum()
            assert (m.flags == TP).sum() <= m.eligible_gt
            assert np.all(np.diff(m.scores) <= 0)


class TestEligibility:
    def test_height_boundaries(self):
        proto = EvalProtocol(height_min=50.0, height_max=80.0)
        assert proto.eligible(gt(0.0, h=50.0))
        assert not proto.eligible(gt(0.0, h=49.999))
        assert proto.eligible(gt(0.0, h=79.999))
        assert not proto.eligible(gt(0.0, h=80.0))

    def test_occlusion_strictly_below_cutoff(self):
        assert PROTO.eligible(gt(0.0, occlusion=0.349))
        assert not PROTO.eligible(gt(0.0, occlusion=0.35))

    def test_region_filters_on_center(self):
        proto = EvalProtocol()  # default clipped region
        inside = gt(300.0, 200.0)
        outside = gt(-14.0, 200.0)  # center x = 1 < region min 5
        assert proto.eligible(inside)
        assert not proto.eligible(outside)

    def test_kitti_difficulties_nest(self):
        rng = np.random.default_rng(31)
        n = 300
        g = GroundTruth(np.column_stack([np.zeros(n), np.zeros(n), np.full(n, 30.0),
                                         rng.uniform(10, 120, n)]),
                        rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        easy, moderate, hard = (d.eligible(g) for d in KITTI_DIFFICULTIES)
        assert easy.any() and (moderate & ~easy).any() and (hard & ~moderate).any()
        # easy -> moderate -> hard
        assert not (easy & ~moderate).any()
        assert not (moderate & ~hard).any()

    def test_eligibility_is_one_flag_per_box(self):
        gts = cat(gt(0.0, ignore=True), gt(300.0, 200.0), gt(300.0, 200.0, h=40.0),
                  gt(300.0, 200.0, occlusion=0.4))
        assert PROTO.eligible(gts).tolist() == [False, True, False, False]
        assert KITTI_EASY.eligible(gts).tolist() == [False, True, True, False]
        assert KITTI_MODERATE.eligible(gts).tolist() == [False, True, True, True]
        assert PROTO.eligible(GroundTruth()).shape == (0,)

    def test_protocol_validation(self):
        with pytest.raises(ConfigError):
            EvalProtocol(height_min=50.0, height_max=50.0)


class TestEvalRegion:
    """The Caltech region clause, [5, 635] x [5, 475] on the box center, via ``metrics_summary``."""

    # Top-left corners of a 30x60 box centered just outside, then exactly
    # on, each edge of the region.
    OUTSIDE = {"left": (-10.5, 200.0), "right": (620.5, 200.0),
               "top": (300.0, -25.5), "bottom": (300.0, 445.5)}
    ON_EDGE = {"left": (-10.0, 200.0), "right": (620.0, 200.0),
               "top": (300.0, -25.0), "bottom": (300.0, 445.0)}

    @staticmethod
    def summaries(x, y):
        """Summaries with the edge box detected, then with only the inner box detected."""
        gts = {"a": cat(gt(300.0, 200.0), gt(x, y))}
        both = {"a": ScoredBoxes(gts["a"].boxes, [0.9, 0.8])}
        return metrics_summary(both, gts), metrics_summary({"a": both["a"].take([0])}, gts)

    def test_region_constant(self):
        assert EVAL_REGION == (5.0, 635.0, 5.0, 475.0)

    @pytest.mark.parametrize("edge", OUTSIDE)
    def test_center_just_outside_is_an_ignore_region_for_miss_rate(self, edge):
        detected, missed = self.summaries(*self.OUTSIDE[edge])
        assert detected["counts"] == {"images": 1, "eligible_gt": 1, "detections": 2,
                                      "tp": 1, "fp": 0, "ignored_detections": 1}
        assert missed["mr2"] == pytest.approx(1e-10)
        # KITTI has no region: the box is a second eligible box.
        for name in ("ap_easy", "ap_moderate", "ap_hard"):
            assert detected[name] == 1.0
            assert missed[name] == pytest.approx(6.0 / 11.0)

    @pytest.mark.parametrize("edge", ON_EDGE)
    def test_center_on_an_edge_counts(self, edge):
        detected, missed = self.summaries(*self.ON_EDGE[edge])
        assert detected["counts"] == {"images": 1, "eligible_gt": 2, "detections": 2,
                                      "tp": 2, "fp": 0, "ignored_detections": 0}
        assert missed["mr2"] == pytest.approx(0.5)
        assert missed["ap_moderate"] == pytest.approx(6.0 / 11.0)

    @given(st.floats(-20.0, 660.0), st.floats(-20.0, 500.0))
    @settings(max_examples=100, deadline=None)
    def test_clause_matches_center_arithmetic(self, cx, cy):
        g = gt(cx - 15.0, cy - 30.0)
        box = Box(*g.boxes[0].tolist())
        assert PROTO.eligible(g)[0] == (5.0 <= box.cx <= 635.0 and 5.0 <= box.cy <= 475.0)


class TestLogAverageMissRate:
    def test_frozen_three_image_fixture(self, miss_rate_fixture):
        dets, gts = miss_rate_fixture
        (matches,) = evaluate_detections(dets, gts, (PROTO,))

        mr2, curve = log_average_miss_rate(matches, -2.0)
        assert mr2 == pytest.approx(2.0 ** (-11.0 / 9.0), abs=1e-12)
        expected_samples = [
            (0.9, 0.0, 0.75),
            (0.8, 0.0, 0.5),
            (0.7, 1.0 / 3.0, 0.5),
            (0.6, 1.0 / 3.0, 0.25),
        ]
        assert len(curve.samples) == 4
        for got, want in zip(curve.samples, expected_samples):
            assert got == pytest.approx(want, abs=1e-12)

        mr4, _ = log_average_miss_rate(matches, -4.0)
        assert mr4 == pytest.approx(2.0 ** (-10.0 / 9.0), abs=1e-12)

    def test_perfect_detector_hits_the_floor(self, miss_rate_fixture):
        _, gts = miss_rate_fixture
        dets = {
            image_id: ScoredBoxes(g.boxes, 0.9 - 0.01 * np.arange(len(g)))
            for image_id, g in gts.items()
        }
        (matches,) = evaluate_detections(dets, gts, (PROTO,))
        mr, _ = log_average_miss_rate(matches, -2.0)
        assert mr < 1e-9

    def test_empty_detector_misses_everything(self, miss_rate_fixture):
        _, gts = miss_rate_fixture
        (matches,) = evaluate_detections({}, gts, (PROTO,))
        mr, curve = log_average_miss_rate(matches, -2.0)
        assert mr == 1.0
        assert curve.samples == []

    def test_duplicate_scores_collapse_to_one_point(self):
        gts = {"a": cat(gt(0.0), gt(100.0))}
        dets = {"a": cat(det(0.5, 0.0), det(0.5, 100.0))}
        (matches,) = evaluate_detections(dets, gts, (PROTO,))
        _, curve = log_average_miss_rate(matches, -2.0)
        assert len(curve.samples) == 1
        assert curve.samples[0] == (0.5, 0.0, 0.0)

    def test_undefined_without_images_or_ground_truth(self):
        with pytest.raises(MetricUndefinedError):
            log_average_miss_rate([], -2.0)
        gts = {"a": gt(0.0, ignore=True)}
        (matches,) = evaluate_detections({}, gts, (PROTO,))
        with pytest.raises(MetricUndefinedError):
            log_average_miss_rate(matches, -2.0)

    def test_unknown_image_rejected(self, miss_rate_fixture):
        dets, gts = miss_rate_fixture
        dets = dict(dets)
        dets["mystery"] = det(0.5, 0.0)
        with pytest.raises(DataError):
            evaluate_detections(dets, gts, (PROTO,))


class TestAveragePrecision:
    def test_frozen_pr_fixture(self, ap_fixture):
        dets, gts = ap_fixture
        (matches,) = evaluate_detections(dets, gts, (PROTO,))
        ap, curve = average_precision(matches)
        assert ap == pytest.approx(8.4 / 11.0, abs=1e-9)
        recalls = [s[1] for s in curve.samples]
        precisions = [s[2] for s in curve.samples]
        assert recalls == pytest.approx([1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0])
        assert precisions == pytest.approx([1.0, 0.5, 2 / 3, 0.5, 0.6])

    def test_perfect_and_empty_limits(self, ap_fixture):
        _, gts = ap_fixture
        perfect = {
            "i": ScoredBoxes(gts["i"].boxes, 0.9 - 0.01 * np.arange(len(gts["i"])))
        }
        (matches,) = evaluate_detections(perfect, gts, (PROTO,))
        assert average_precision(matches)[0] == 1.0
        (matches,) = evaluate_detections({}, gts, (PROTO,))
        assert average_precision(matches)[0] == 0.0

    def test_kitti_filter_matches_plain_ap(self, ap_fixture):
        dets, gts = ap_fixture
        ap, _ = average_precision(*evaluate_detections(dets, gts, (KITTI_EASY,)))
        assert ap == pytest.approx(8.4 / 11.0, abs=1e-9)


class TestMetricsSummary:
    def test_counts_and_frozen_values(self, miss_rate_fixture):
        dets, gts = miss_rate_fixture
        out = metrics_summary(dets, gts)
        assert out["mr2"] == pytest.approx(2.0 ** (-11.0 / 9.0), abs=1e-12)
        assert out["mr4"] == pytest.approx(2.0 ** (-10.0 / 9.0), abs=1e-12)
        assert out["counts"] == {
            "images": 3,
            "eligible_gt": 4,
            "detections": 4,
            "tp": 3,
            "fp": 1,
            "ignored_detections": 0,
        }
        for name in ("ap_easy", "ap_moderate", "ap_hard"):
            assert 0.0 <= out[name] <= 1.0

    def test_each_metric_equals_its_own_evaluation(self):
        rng = np.random.default_rng(13)
        dets, gts = {}, {}
        for k in range(30):
            dets[f"i{k}"], gts[f"i{k}"] = random_match_instance(rng)
        out = metrics_summary(dets, gts)
        (matches,) = evaluate_detections(dets, gts, (PROTO,))
        assert out["mr2"] == log_average_miss_rate(matches, -2.0)[0]
        assert out["mr4"] == log_average_miss_rate(matches, -4.0)[0]
        for diff in KITTI_DIFFICULTIES:
            want = average_precision(*evaluate_detections(dets, gts, (diff,)))[0]
            assert out[f"ap_{diff.name}"] == want

    def test_metrics_null_when_nothing_eligible(self):
        gts = {"a": gt(0.0, ignore=True)}
        out = metrics_summary({}, gts)
        assert out["mr2"] is None
        assert out["mr4"] is None
        assert out["ap_easy"] is None
        assert out["counts"]["eligible_gt"] == 0

    def test_moderate_pool_can_exceed_easy(self):
        # A heavily occluded box counts for moderate/hard but not easy.
        gts = {"a": gt(0.0, occlusion=0.4, h=60.0)}
        dets = {"a": det(0.9, 0.0)}
        with pytest.raises(MetricUndefinedError):
            average_precision(*evaluate_detections(dets, gts, (KITTI_EASY,)))
        ap_mod, _ = average_precision(*evaluate_detections(dets, gts, (KITTI_MODERATE,)))
        assert ap_mod == 1.0


class TestSummaryAndCurves:
    def test_curves_are_the_summary_metrics_curves(self, miss_rate_fixture):
        dets, gts = miss_rate_fixture
        summary, curves = summary_and_curves(dets, gts)
        assert summary == metrics_summary(dets, gts)
        assert list(curves) == ["fppi_miss", "pr"]
        (matches,) = evaluate_detections(dets, gts, (PROTO,))
        mr2, mr_curve = log_average_miss_rate(matches, -2.0)
        ap, pr_curve = average_precision(*evaluate_detections(dets, gts, (KITTI_MODERATE,)))
        assert curves["fppi_miss"] == mr_curve and mr_curve.summary == summary["mr2"] == mr2
        assert curves["pr"] == pr_curve and pr_curve.summary == summary["ap_moderate"] == ap

    def test_a_curve_is_left_out_when_its_metric_is_undefined(self):
        # 40 px tall: below the Caltech 50 px floor, above KITTI moderate's 25 px.
        gts = {"a": gt(0.0, h=40.0)}
        summary, curves = summary_and_curves({}, gts)
        assert summary["mr2"] is None and summary["ap_moderate"] == 0.0
        assert list(curves) == ["pr"]
        _, curves = summary_and_curves({}, {"a": gt(0.0, ignore=True)})
        assert curves == {}


class TestCurveCsv:
    def test_round_trip_fppi_miss(self, tmp_path, miss_rate_fixture):
        dets, gts = miss_rate_fixture
        (matches,) = evaluate_detections(dets, gts, (PROTO,))
        _, curve = log_average_miss_rate(matches, -2.0)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        loaded = read_curve_csv(path)
        assert loaded.kind == curve.kind
        assert loaded.summary == curve.summary
        assert loaded.samples == curve.samples

    def test_round_trip_pr(self, tmp_path, ap_fixture):
        dets, gts = ap_fixture
        (matches,) = evaluate_detections(dets, gts, (PROTO,))
        _, curve = average_precision(matches)
        path = tmp_path / "pr.csv"
        write_curve_csv(path, curve)
        loaded = read_curve_csv(path)
        assert loaded.samples == curve.samples
        assert loaded.summary == curve.summary

    def test_bad_inputs(self, tmp_path):
        with pytest.raises(DataError):
            write_curve_csv(tmp_path / "x.csv", EvalCurve(kind="roc"))
        path = tmp_path / "bad.csv"
        path.write_text("kind,fppi_miss,0.5\nwrong,columns,here\n")
        with pytest.raises(DataError):
            read_curve_csv(path)
        path.write_text("hello\n")
        with pytest.raises(DataError):
            read_curve_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "not a curve file"),
            ("kind,pr\nthreshold,recall,precision\n", "not a curve file"),
            ("kind\nthreshold,recall,precision\n", "not a curve file"),
            ("kind,pr,0.5\nthreshold,recall,precision\n0.9,0.1\n", "malformed curve row"),
            ("kind,pr,0.5\nthreshold,recall,precision\n0.9,0.1,high\n", "malformed curve row"),
            ("kind,pr,best\nthreshold,recall,precision\n0.9,0.1,1.0\n", "malformed curve row"),
            ("kind,pr,0.5\nthreshold,recall,precision\n0.9,0.1,1.0\n0.8,nan,0.5\n",
             r"bad\.csv:4: non-finite curve sample \[0\.8, nan, 0\.5\]"),
            ("kind,fppi_miss,0.5\nthreshold,fppi,miss_rate\ninf,0.1,0.9\n",
             r"bad\.csv:3: non-finite curve sample \[inf, 0\.1, 0\.9\]"),
            ("kind,fppi_miss,0.5\nthreshold,fppi,miss_rate\n0.9,0.1,-inf\n",
             r"bad\.csv:3: non-finite curve sample"),
        ],
        ids=["empty", "short-first-row", "one-field-first-row", "short-sample-row",
             "non-numeric-sample", "non-numeric-summary", "nan-sample", "inf-threshold",
             "negative-inf-sample"],
    )
    def test_malformed_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_curve_csv(path)

    @pytest.mark.parametrize("summary", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["fppi_miss", "pr"])
    def test_a_curve_with_samples_needs_a_finite_summary(self, tmp_path, kind, summary):
        path = tmp_path / "bad.csv"
        header = ",".join(["threshold", "fppi", "miss_rate"] if kind == "fppi_miss"
                          else ["threshold", "recall", "precision"])
        path.write_text(f"kind,{kind},{summary}\n{header}\n0.9,0.1,0.5\n")
        with pytest.raises(DataError, match=rf"bad\.csv: curve summary {summary} is not finite"):
            read_curve_csv(path)

    @pytest.mark.parametrize("summary", ["inf", "-inf"])
    def test_an_empty_curve_refuses_an_infinite_summary(self, tmp_path, summary):
        path = tmp_path / "bad.csv"
        path.write_text(f"kind,pr,{summary}\nthreshold,recall,precision\n")
        with pytest.raises(DataError, match=rf"bad\.csv: curve summary {summary} is not finite"):
            read_curve_csv(path)

    def test_empty_curve_with_nan_summary_survives(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_curve_csv(path, EvalCurve(kind="pr"))
        loaded = read_curve_csv(path)
        assert loaded.samples == []
        assert math.isnan(loaded.summary)
