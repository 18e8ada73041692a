"""Binary map containers and the JSONL/CSV box formats, including corruption handling."""

import json
import struct

import numpy as np
import pytest

from samhead.formats import (
    BadMagicError,
    DimensionError,
    FormatError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    ValueRangeError,
    read_detections_csv,
    read_edge_map,
    read_feature_maps,
    read_ground_truth_jsonl,
    read_json,
    read_label_map,
    read_proposals_jsonl,
    write_detections_csv,
    write_edge_map,
    write_feature_maps,
    write_ground_truth_jsonl,
    write_json,
    write_label_map,
    write_proposals_jsonl,
)
from samhead.geometry import GroundTruth, ScoredBoxes
from samhead.maps import EdgeMap, FeatureMap, LabelMap


@pytest.fixture
def fmap_path(tmp_path):
    rng = np.random.default_rng(7)
    layers = [
        FeatureMap("conv3", 4, rng.normal(size=(3, 6, 8)).astype(np.float32)),
        FeatureMap("conv5a", 8, rng.normal(size=(5, 3, 4)).astype(np.float32)),
    ]
    path = tmp_path / "img.fmap"
    write_feature_maps(path, layers)
    return path, layers


class TestFeatureMapFile:
    def test_round_trip(self, fmap_path):
        path, layers = fmap_path
        loaded = read_feature_maps(path)
        assert [l.layer_name for l in loaded] == ["conv3", "conv5a"]
        assert [l.stride for l in loaded] == [4, 8]
        for a, b in zip(layers, loaded):
            np.testing.assert_array_equal(a.data, b.data)

    def test_bad_magic(self, fmap_path):
        path, _ = fmap_path
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XMAP"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_feature_maps(path)

    def test_unsupported_version(self, fmap_path):
        path, _ = fmap_path
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            read_feature_maps(path)

    def test_truncated_payload(self, fmap_path):
        path, _ = fmap_path
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TruncatedPayloadError):
            read_feature_maps(path)

    def test_trailing_bytes(self, fmap_path):
        path, _ = fmap_path
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_feature_maps(path)

    def test_non_finite_value_reports_index(self, fmap_path):
        path, layers = fmap_path
        raw = bytearray(path.read_bytes())
        # Overwrite the first float of conv3's payload with NaN.
        offset = 4 + 4 + 4 + 4 + len(b"conv3") + 4 * 4
        raw[offset : offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueRangeError) as exc:
            read_feature_maps(path)
        assert exc.value.index == 0

    def test_file_bytes_follow_the_documented_layout(self, fmap_path):
        path, layers = fmap_path
        want = b"FMAP" + struct.pack("<II", 2, len(layers))
        for fm in layers:
            name = fm.layer_name.encode("utf-8")
            want += struct.pack("<I", len(name)) + name
            want += struct.pack("<4I", fm.stride, *fm.data.shape)
            # Row-major over (H, W, C): each pixel's channels are contiguous.
            c, h, w = fm.data.shape
            want += b"".join(struct.pack("<f", fm.data[k, i, j])
                             for i in range(h) for j in range(w) for k in range(c))
        assert path.read_bytes() == want

    def test_version_1_is_unsupported(self, fmap_path):
        path, _ = fmap_path
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError, match="unsupported version 1"):
            read_feature_maps(path)

    def test_loaded_layer_is_a_view_of_the_file_bytes(self, fmap_path, monkeypatch):
        path, layers = fmap_path
        read = []
        real_read_bytes = type(path).read_bytes

        def read_bytes(self):
            read.append(real_read_bytes(self))
            return read[-1]

        monkeypatch.setattr(type(path), "read_bytes", read_bytes)
        loaded = read_feature_maps(path)
        file_buffer = np.frombuffer(read[0], dtype=np.uint8)
        for fm, want in zip(loaded, layers):
            assert np.shares_memory(fm.hwc, file_buffer)
            assert np.shares_memory(fm.data, file_buffer)
            np.testing.assert_array_equal(fm.data, want.data)

    def test_a_layer_stored_twice_is_rejected(self, fmap_path):
        path, layers = fmap_path
        write_feature_maps(path, [*layers, layers[0]])
        with pytest.raises(FormatError, match=r"img\.fmap: layer 'conv3' appears more than once"):
            read_feature_maps(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_in_a_later_layer_reports_its_index(self, fmap_path, bad):
        path, layers = fmap_path
        raw = bytearray(path.read_bytes())
        conv5a = 12 + (4 + len(b"conv3") + 16) + 4 * layers[0].data.size
        offset = conv5a + 4 + len(b"conv5a") + 16 + 4 * 17
        raw[offset : offset + 4] = struct.pack("<f", bad)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueRangeError, match="conv5a") as exc:
            read_feature_maps(path)
        # Index 17 of conv5a's (3, 4, 5) channel-last payload: pixel (0, 3),
        # channel 2.
        assert exc.value.index == 17

    def test_non_finite_value_wins_over_a_bad_stride(self, tmp_path):
        path = tmp_path / "bad.fmap"
        header = b"FMAP" + struct.pack("<II", 2, 1) + struct.pack("<I", 1) + b"x"
        # C = 2, H = 1, W = 2: the NaN is pixel (0, 0)'s channel 1, index 1
        # of the channel-last payload (it would be index 2 channel-major).
        payload = struct.pack("<4f", 0.0, float("nan"), 1.0, 2.0)
        path.write_bytes(header + struct.pack("<4I", 3, 2, 1, 2) + payload)
        with pytest.raises(ValueRangeError) as exc:
            read_feature_maps(path)
        assert exc.value.index == 1
        path.write_bytes(header + struct.pack("<4I", 3, 2, 1, 2) + struct.pack("<4f", 0, 1, 2, 3))
        with pytest.raises(DimensionError, match="stride"):
            read_feature_maps(path)

    def test_layer_name_that_is_not_utf8_is_a_format_error(self, fmap_path):
        path, _ = fmap_path
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"conv3", b"\xffonv3", 1))
        with pytest.raises(FormatError, match=r"img\.fmap: a layer name is not UTF-8"):
            read_feature_maps(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "bad.fmap"
        buf = b"FMAP" + struct.pack("<I", 2) + struct.pack("<I", 1)
        name = b"x"
        buf += struct.pack("<I", len(name)) + name
        buf += struct.pack("<I", 4) + struct.pack("<III", 0, 3, 3)
        path.write_bytes(buf)
        with pytest.raises(DimensionError):
            read_feature_maps(path)


class TestLabelAndEdgeFiles:
    def test_label_round_trip(self, tmp_path):
        lmap = LabelMap(np.arange(12, dtype=np.uint8).reshape(3, 4) % 21)
        path = tmp_path / "a.lmap"
        write_label_map(path, lmap)
        loaded = read_label_map(path)
        np.testing.assert_array_equal(lmap.data, loaded.data)

    @staticmethod
    def _write_raw_label_map(path, data):
        # LabelMap refuses a class >= 21, so the file is written by hand.
        h, w = data.shape
        path.write_bytes(b"LMAP" + struct.pack("<I", 1) + struct.pack("<II", h, w)
                         + data.astype(np.uint8).tobytes())

    def test_label_class_out_of_range(self, tmp_path):
        path = tmp_path / "a.lmap"
        self._write_raw_label_map(path, np.full((2, 2), 21))
        with pytest.raises(ValueRangeError, match=r"class index 21 outside \[0, 20\]") as exc:
            read_label_map(path)
        assert exc.value.index == 0

    def test_label_class_out_of_range_reports_first_index(self, tmp_path):
        data = np.zeros((3, 4), dtype=np.uint8)
        data[1, 2] = 21
        data[2, 3] = 25
        path = tmp_path / "a.lmap"
        self._write_raw_label_map(path, data)
        with pytest.raises(ValueRangeError, match="class index 21") as exc:
            read_label_map(path)
        assert exc.value.index == 6

    def test_edge_round_trip(self, tmp_path):
        emap = EdgeMap(np.linspace(0.0, 1.0, 12, dtype=np.float32).reshape(3, 4))
        path = tmp_path / "a.emap"
        write_edge_map(path, emap)
        loaded = read_edge_map(path)
        np.testing.assert_array_equal(emap.data, loaded.data)

    def test_edge_value_out_of_range(self, tmp_path):
        path = tmp_path / "a.emap"
        buf = b"EMAP" + struct.pack("<I", 1) + struct.pack("<II", 1, 2)
        buf += struct.pack("<ff", 0.5, 1.25)
        path.write_bytes(buf)
        with pytest.raises(ValueRangeError) as exc:
            read_edge_map(path)
        assert exc.value.index == 1

    def test_edge_non_finite_value_reports_index(self, tmp_path):
        path = tmp_path / "a.emap"
        buf = b"EMAP" + struct.pack("<I", 1) + struct.pack("<II", 2, 2)
        buf += struct.pack("<4f", 0.5, 0.25, float("nan"), 2.0)
        path.write_bytes(buf)
        with pytest.raises(ValueRangeError) as exc:
            read_edge_map(path)
        assert exc.value.index == 2

    def test_edge_magic_mismatch(self, tmp_path):
        path = tmp_path / "a.emap"
        write_label_map(path, LabelMap(np.zeros((2, 2), dtype=np.uint8)))
        with pytest.raises(BadMagicError):
            read_edge_map(path)


class TestJsonlBoxes:
    def test_ground_truth_round_trip(self, tmp_path):
        by_image = {
            "img0": GroundTruth([(1, 2, 3, 4), (5, 6, 7, 8)], occl=[0.2, 0.0],
                                trunc=[0.1, 0.0], ignore=[False, True]),
            "img1": GroundTruth(),
        }
        path = tmp_path / "gt.jsonl"
        write_ground_truth_jsonl(path, by_image)
        assert read_ground_truth_jsonl(path) == by_image

    def test_proposals_round_trip(self, tmp_path):
        by_image = {"img0": ScoredBoxes([(1, 2, 3, 4)], [0.25]), "img1": ScoredBoxes()}
        path = tmp_path / "props.jsonl"
        write_proposals_jsonl(path, by_image)
        assert read_proposals_jsonl(path) == by_image

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "a", "boxes": []}\nnot json\n')
        with pytest.raises(FormatError, match=":2:"):
            read_ground_truth_jsonl(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "a"}\n')
        with pytest.raises(FormatError):
            read_ground_truth_jsonl(path)

    def test_bad_box_payload(self, tmp_path):
        path = tmp_path / "props.jsonl"
        path.write_text('{"image_id": "a", "boxes": [{"x": 1, "y": 2, "w": 3}]}\n')
        with pytest.raises(FormatError):
            read_proposals_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('\n{"image_id": "a", "boxes": []}\n\n')
        assert read_ground_truth_jsonl(path) == {"a": GroundTruth()}

    @pytest.mark.parametrize("reader", [read_ground_truth_jsonl, read_proposals_jsonl])
    @pytest.mark.parametrize(
        "boxes", ["5", '{"x": 1}', '"abc"', "[5]", '[[1, 2, 3, 4]]', '["x"]'],
        ids=["number", "object", "string", "number-box", "list-box", "string-box"],
    )
    def test_boxes_must_be_a_list_of_objects(self, tmp_path, reader, boxes):
        path = tmp_path / "boxes.jsonl"
        path.write_text('{"image_id": "a", "boxes": []}\n{"image_id": "b", "boxes": %s}\n' % boxes)
        with pytest.raises(FormatError, match=":2: expected an object with image_id"):
            reader(path)

    @pytest.mark.parametrize("reader", [read_ground_truth_jsonl, read_proposals_jsonl])
    def test_a_second_row_for_an_image_id_is_rejected(self, tmp_path, reader):
        path = tmp_path / "boxes.jsonl"
        box = '{"x": 1, "y": 2, "w": 3, "h": 4, "score": 0.5}'
        path.write_text('{"image_id": "a", "boxes": [%s]}\n{"image_id": "b", "boxes": []}\n'
                        '{"image_id": "a", "boxes": []}\n' % box)
        with pytest.raises(FormatError, match=r"boxes\.jsonl:3: image id 'a' has a second row"):
            reader(path)

    _BOX = {"x": 1, "y": 2, "w": 3, "h": 4, "occl": 0.0, "trunc": 0.0, "ignore": False,
            "score": 0.5}

    @pytest.mark.parametrize("reader, key", [
        *[(read_ground_truth_jsonl, key) for key in ("x", "y", "w", "h", "occl", "trunc")],
        *[(read_proposals_jsonl, key) for key in ("x", "y", "w", "h", "score")],
    ])
    @pytest.mark.parametrize("value", [True, False, "2"], ids=["true", "false", "string"])
    def test_a_value_that_is_not_a_json_number_is_rejected(self, tmp_path, reader, key, value):
        path = tmp_path / "boxes.jsonl"
        rows = [{"image_id": "a", "boxes": [self._BOX]},
                {"image_id": "b", "boxes": [self._BOX, {**self._BOX, key: value}]}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(FormatError, match=rf"boxes\.jsonl:2: bad .* box \({key} must be a "
                                              "number"):
            reader(path)

    @pytest.mark.parametrize("reader", [read_ground_truth_jsonl, read_proposals_jsonl])
    def test_an_integer_past_float_range_is_rejected(self, tmp_path, reader):
        path = tmp_path / "boxes.jsonl"
        path.write_text('{"image_id": "a", "boxes": [{"x": 1%s, "y": 2, "w": 3, "h": 4, '
                        '"score": 0.5}]}\n' % ("0" * 400))
        with pytest.raises(FormatError, match=r"boxes\.jsonl:1: bad .* box"):
            reader(path)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None],
                             ids=["string-false", "string-true", "zero", "one", "null"])
    def test_ignore_must_be_true_or_false(self, tmp_path, value):
        path = tmp_path / "gt.jsonl"
        row = {"image_id": "a", "boxes": [{**self._BOX, "ignore": value}]}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError, match=r"gt\.jsonl:1: bad ground-truth box \(ignore "
                                              "must be true or false"):
            read_ground_truth_jsonl(path)


    _READERS = {"ground-truth": read_ground_truth_jsonl, "proposal": read_proposals_jsonl}

    def _write_second_row_box(self, tmp_path, **change):
        path = tmp_path / "boxes.jsonl"
        rows = [{"image_id": "a", "boxes": [self._BOX, self._BOX]},
                {"image_id": "b", "boxes": [self._BOX, {**self._BOX, **change}]}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return path

    @pytest.mark.parametrize("kind", sorted(_READERS))
    @pytest.mark.parametrize("key", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_a_coordinate_that_is_not_finite_is_refused_at_its_line(self, tmp_path, kind, key,
                                                                    bad):
        path = self._write_second_row_box(tmp_path, **{key: bad})
        with pytest.raises(FormatError, match=rf"boxes\.jsonl:2: bad {kind} box \(box "
                                              "coordinates must be finite"):
            self._READERS[kind](path)

    @pytest.mark.parametrize("kind", sorted(_READERS))
    @pytest.mark.parametrize("key", ["w", "h"])
    @pytest.mark.parametrize("bad", [0, -1.5])
    def test_an_extent_that_is_not_positive_is_refused_at_its_line(self, tmp_path, kind, key,
                                                                   bad):
        path = self._write_second_row_box(tmp_path, **{key: bad})
        with pytest.raises(FormatError, match=rf"boxes\.jsonl:2: bad {kind} box \(box "
                                              "extent must be positive"):
            self._READERS[kind](path)

    @pytest.mark.parametrize("kind, key", [("proposal", "score"), ("ground-truth", "occl"),
                                           ("ground-truth", "trunc")])
    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")], ids=["above", "below", "nan"])
    def test_a_fraction_outside_the_unit_interval_is_refused_at_its_line(self, tmp_path, kind,
                                                                        key, bad):
        path = self._write_second_row_box(tmp_path, **{key: bad})
        with pytest.raises(FormatError, match=rf"boxes\.jsonl:2: bad {kind} box \({key} "
                                              r"must be in \[0, 1\]"):
            self._READERS[kind](path)

    def test_a_missing_score_is_refused_at_its_line(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        box = {k: v for k, v in self._BOX.items() if k != "score"}
        path.write_text(json.dumps({"image_id": "a", "boxes": [self._BOX]}) + "\n"
                        + json.dumps({"image_id": "b", "boxes": [box]}) + "\n")
        with pytest.raises(FormatError, match=r"boxes\.jsonl:2: bad proposal box \('score'\)"):
            read_proposals_jsonl(path)

    def test_columns_are_checked_in_turn(self, tmp_path):
        # A score out of range on line 1 and a coordinate that is not finite
        # on line 2: the coordinates are checked first.
        path = tmp_path / "boxes.jsonl"
        rows = [{"image_id": "a", "boxes": [{**self._BOX, "score": 2.0}]},
                {"image_id": "b", "boxes": [{**self._BOX, "x": float("nan")}]}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(FormatError, match=r"boxes\.jsonl:2: bad proposal box \(box coord"):
            read_proposals_jsonl(path)


class TestDetectionsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        by_image = {
            "img0": ScoredBoxes([(0.1, 0.2, 3.033333333333333, 4.7)], [-1.23456789012345]),
            "img1": ScoredBoxes([(5, 6, 7, 8), (1e-300, -0.0, 1e300, 0.1)], [2.0, -0.0]),
        }
        path = tmp_path / "dets.csv"
        write_detections_csv(path, by_image)
        assert read_detections_csv(path) == by_image

    def test_header_checked(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("a,b\n")
        with pytest.raises(FormatError):
            read_detections_csv(path)

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("image_id,x,y,w,h,score\nimg0,1,2,3\n")
        with pytest.raises(FormatError, match=":2:"):
            read_detections_csv(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("image_id,x,y,w,h,score\nimg0,1,2,0,4,0.5\n")
        with pytest.raises(FormatError):
            read_detections_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("img1,abc,2,3,4,0.5", "could not convert string to float: 'abc'"),
        ("img1,1,2,3,4,", "could not convert string to float: ''"),
        ("img1,nan,2,3,4,0.5", "box coordinates must be finite"),
        ("img1,1,2,inf,4,0.5", "box coordinates must be finite"),
        ("img1,1,2,0,4,0.5", "box extent must be positive, got w=0.0 h=4.0"),
        ("img1,1,2,3,-4,0.5", "box extent must be positive"),
        ("img1,1,2,3,4,inf", "score must be finite"),
        ("img1,1,2,3,4,nan", "score must be finite"),
    ], ids=["word", "empty", "nan-x", "inf-w", "zero-w", "negative-h", "inf-score",
            "nan-score"])
    def test_a_bad_value_is_refused_at_its_line(self, tmp_path, row, message):
        path = tmp_path / "dets.csv"
        path.write_text(f"image_id,x,y,w,h,score\nimg0,1,2,3,4,0.5\n\n{row}\n")
        with pytest.raises(FormatError, match=rf"dets\.csv:4: bad detection box \({message}"):
            read_detections_csv(path)

    def test_an_images_rows_need_not_be_adjacent(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("image_id,x,y,w,h,score\nb,1,1,1,1,0.1\na,2,2,2,2,0.2\n"
                        "b,3,3,3,3,0.3\n\na,4,4,4,4,0.4\n")
        got = read_detections_csv(path)
        assert list(got) == ["b", "a"]
        assert got["b"] == ScoredBoxes([(1, 1, 1, 1), (3, 3, 3, 3)], [0.1, 0.3])
        assert got["a"] == ScoredBoxes([(2, 2, 2, 2), (4, 4, 4, 4)], [0.2, 0.4])

    def test_header_only_reads_as_no_images(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("image_id,x,y,w,h,score\n")
        assert read_detections_csv(path) == {}

    def test_write_read_write_reproduces_the_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        by_image = {}
        for k, n in enumerate([3, 0, 7, 1]):
            boxes = np.column_stack([rng.normal(50, 30, n), rng.normal(50, 30, n),
                                     rng.uniform(1e-3, 80, n), rng.uniform(1e-3, 160, n)])
            scores = rng.normal(0, 5, n) * 10.0 ** rng.integers(-8, 8, n)
            by_image[f"img{k}"] = ScoredBoxes(boxes, scores)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        write_detections_csv(one, by_image)
        write_detections_csv(two, read_detections_csv(one))
        assert one.read_bytes() == two.read_bytes()


def test_metrics_json_round_trip(tmp_path):
    path = tmp_path / "metrics.json"
    payload = {"mr2": 0.125, "counts": {"tp": 3}}
    write_json(path, payload)
    assert read_json(path) == payload
    # Stable serialization: keys sorted, trailing newline.
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == payload


def test_metrics_json_invalid(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text("{nope")
    with pytest.raises(FormatError):
        read_json(path)


@pytest.mark.parametrize("reader", [read_json, read_ground_truth_jsonl, read_proposals_jsonl])
def test_json_nested_too_deep_to_parse_is_a_format_error(tmp_path, reader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(FormatError, match=r"deep\.json"):
        reader(path)
