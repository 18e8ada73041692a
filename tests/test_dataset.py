"""Dataset container: disk round trip, height-restricted views, validation."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import integer_ids, rename_image_id, tiny_synth_config
from samhead.dataset import Dataset, ImageSample
from samhead.errors import DataError
from samhead.geometry import GroundTruth
from samhead.maps import FeatureMap, ImageRecord
from samhead.synth import generate_dataset


@pytest.fixture(scope="module")
def disk_set():
    return generate_dataset(tiny_synth_config(num_images=3), seed=14)


class TestRoundTrip:
    def test_save_load_is_exact(self, disk_set, tmp_path):
        root = tmp_path / "ds"
        disk_set.save(root)
        loaded = Dataset.load(root)
        assert loaded.image_ids == disk_set.image_ids
        assert "image_w" not in loaded.meta and "image_h" not in loaded.meta
        for a, b in zip(disk_set.samples, loaded.samples):
            assert a.ground_truth == b.ground_truth
            assert a.proposals == b.proposals
            assert set(a.record.feature_maps) == set(b.record.feature_maps)
            for name, fm in a.record.feature_maps.items():
                other = b.record.feature_maps[name]
                assert fm.stride == other.stride
                np.testing.assert_array_equal(fm.data, other.data)
            np.testing.assert_array_equal(a.record.label_map.data,
                                          b.record.label_map.data)
            np.testing.assert_array_equal(a.record.edge_map.data,
                                          b.record.edge_map.data)

    def test_load_then_save_reproduces_every_file(self, disk_set, tmp_path):
        one, two = tmp_path / "a", tmp_path / "b"
        disk_set.save(one)
        Dataset.load(one).save(two)
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
        assert len(files) == 3 + 3 * len(disk_set)
        for rel in files:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), str(rel)

    def test_saving_twice_produces_identical_files(self, disk_set, tmp_path):
        one, two = tmp_path / "a", tmp_path / "b"
        disk_set.save(one)
        disk_set.save(two)
        for rel in sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file()):
            assert (one / rel).read_bytes() == (two / rel).read_bytes()

    def test_load_requires_meta(self, tmp_path):
        with pytest.raises(DataError):
            Dataset.load(tmp_path)

    def test_duplicated_image_id_rejected(self, disk_set, tmp_path):
        root = tmp_path / "ds"
        disk_set.save(root)
        meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
        meta["image_ids"][2] = meta["image_ids"][0]
        (root / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(DataError, match="image id 'img0000' is listed more than once"):
            Dataset.load(root)


class TestImageIds:
    def test_integer_ids_are_rejected(self, disk_set, tmp_path):
        root = tmp_path / "ds"
        disk_set.save(root)
        integer_ids(root)
        with pytest.raises(DataError, match="image id 0 is not a JSON string"):
            Dataset.load(root)

    @pytest.mark.parametrize("name", ["annotations.jsonl", "proposals.jsonl"])
    def test_integer_id_in_a_row_is_rejected(self, disk_set, tmp_path, name):
        root = tmp_path / "ds"
        disk_set.save(root)
        path = root / name
        path.write_text(path.read_text(encoding="utf-8") + '{"image_id": 7, "boxes": []}\n',
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"{name}:4: expected an object with image_id"):
            Dataset.load(root)

    @pytest.mark.parametrize("name", ["annotations.jsonl", "proposals.jsonl"])
    def test_row_for_an_unlisted_image_is_rejected(self, disk_set, tmp_path, name):
        root = tmp_path / "ds"
        disk_set.save(root)
        meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
        meta["image_ids"][1] = "img9999"
        (root / "maps" / "img0001.fmap").rename(root / "maps" / "img9999.fmap")
        (root / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        other = {"annotations.jsonl": "proposals.jsonl",
                 "proposals.jsonl": "annotations.jsonl"}[name]
        # Only ``name`` still holds a row for img0001.
        rows = (root / other).read_text(encoding="utf-8").replace('"img0001"', '"img9999"')
        (root / other).write_text(rows, encoding="utf-8")
        with pytest.raises(DataError, match=f"{name}: image id 'img0001' is not in meta.json"):
            Dataset.load(root)

    @pytest.mark.parametrize("name", ["annotations.jsonl", "proposals.jsonl"])
    def test_a_second_row_for_an_image_is_rejected(self, disk_set, tmp_path, name):
        root = tmp_path / "ds"
        disk_set.save(root)
        path = root / name
        rows = path.read_text(encoding="utf-8")
        path.write_text(rows + rows.splitlines(keepends=True)[1], encoding="utf-8")
        with pytest.raises(DataError, match=f"{name}:4: image id 'img0001' has a second row"):
            Dataset.load(root)

    @pytest.mark.parametrize("name", ["annotations.jsonl", "proposals.jsonl"])
    def test_a_missing_row_is_rejected(self, disk_set, tmp_path, name):
        root = tmp_path / "ds"
        disk_set.save(root)
        path = root / name
        rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(rows[0] + rows[2], encoding="utf-8")
        with pytest.raises(DataError, match=f"{name}: no row for image id 'img0001'"):
            Dataset.load(root)

    @pytest.mark.parametrize("image_id", ["", ".", "..", "../x", "sub/img0", "sub\\img0",
                                          "img\0"])
    def test_an_id_that_is_not_a_plain_file_name_is_rejected(self, disk_set, tmp_path,
                                                             monkeypatch, image_id):
        root = tmp_path / "ds"
        disk_set.save(root)
        rename_image_id(root, "img0001", image_id)
        opened = []
        monkeypatch.setattr(Path, "read_bytes", lambda path: opened.append(path))
        with pytest.raises(DataError, match=f"image id {re.escape(repr(image_id))} is not a "
                                            "plain file name"):
            Dataset.load(root)
        assert opened == []

    @pytest.mark.parametrize("image_id", ["", "..", "../../x", "sub/img0"])
    def test_save_refuses_an_id_that_is_not_a_plain_file_name(self, tmp_path, image_id):
        ds = Dataset(samples=[ImageSample(record=_sized_record("img0", 64, 40)),
                              ImageSample(record=_sized_record(image_id, 64, 40))])
        with pytest.raises(DataError, match="is not a plain file name"):
            ds.save(tmp_path / "a" / "ds")
        assert list(tmp_path.rglob("*")) == []


def _sized_record(image_id, image_w, image_h):
    fm = FeatureMap("conv3", 4, np.full((2, -(-image_h // 4), -(-image_w // 4)), 0.5,
                                        dtype=np.float32))
    return ImageRecord(image_id=image_id, image_w=image_w, image_h=image_h,
                       feature_maps={"conv3": fm})


class TestPerImageSizes:
    def test_round_trip_keeps_each_images_size(self, tmp_path):
        ds = Dataset(samples=[ImageSample(record=_sized_record("wide", 64, 40)),
                              ImageSample(record=_sized_record("tall", 36, 80))])
        ds.save(tmp_path / "ds")
        meta = json.loads((tmp_path / "ds" / "meta.json").read_text(encoding="utf-8"))
        assert meta["image_sizes"] == [[64, 40], [36, 80]]
        loaded = Dataset.load(tmp_path / "ds")
        assert [(s.record.image_w, s.record.image_h) for s in loaded] == [(64, 40), (36, 80)]
        assert loaded.samples[1].record.feature_maps["conv3"].data.shape == (2, 20, 9)

    def test_size_count_must_match_image_count(self, disk_set, tmp_path):
        root = tmp_path / "ds"
        disk_set.save(root)
        meta_path = root / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["image_sizes"] = meta["image_sizes"][:-1]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(DataError, match="image sizes"):
            Dataset.load(root)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta: json.dumps(meta)[:-3], "is not valid JSON"),
            (lambda meta: json.dumps([meta]), "JSON object with an image_ids list"),
            (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "image_ids"}),
             "JSON object with an image_ids list"),
            (lambda meta: json.dumps({**meta, "image_sizes": [["wide", 40]] * 3}),
             "bad image sizes"),
            (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "image_sizes"}),
             "bad image sizes"),
            (lambda meta: json.dumps({**meta, "image_sizes": [[64.9, 40]] * 3}),
             "bad image sizes"),
            (lambda meta: json.dumps({**meta, "image_sizes": [["64", 40]] * 3}),
             "bad image sizes"),
            (lambda meta: json.dumps({**meta, "image_sizes": [[True, 40]] * 3}),
             "bad image sizes"),
            (lambda meta: json.dumps({**meta, "image_sizes": [[64, 40, 1]] * 3}),
             "bad image sizes"),
            (lambda meta: json.dumps({**meta, "image_sizes": {"img0": [64, 40]}}),
             "bad image sizes"),
        ],
        ids=["invalid-json", "not-an-object", "no-image-ids", "non-numeric-size",
             "no-image-sizes", "float-size", "string-size", "boolean-size", "size-triple",
             "sizes-object"],
    )
    def test_malformed_meta_is_a_data_error(self, disk_set, tmp_path, edit, message):
        root = tmp_path / "ds"
        disk_set.save(root)
        meta_path = root / "meta.json"
        meta_path.write_text(edit(json.loads(meta_path.read_text(encoding="utf-8"))),
                             encoding="utf-8")
        with pytest.raises(DataError, match=message):
            Dataset.load(root)


class TestSubsetByHeight:
    def test_out_of_range_becomes_ignore(self, disk_set):
        cut = disk_set.subset_by_height(80.0, None)
        for orig, view in zip(disk_set.samples, cut.samples):
            assert view.proposals == orig.proposals
            g_orig, g_view = orig.ground_truth, view.ground_truth
            np.testing.assert_array_equal(g_view.boxes, g_orig.boxes)
            np.testing.assert_array_equal(g_view.occl, g_orig.occl)
            np.testing.assert_array_equal(g_view.trunc, g_orig.trunc)
            tall = g_orig.boxes[:, 3] >= 80.0
            np.testing.assert_array_equal(g_view.ignore, g_orig.ignore | ~tall)
        assert any(s.ground_truth.ignore.any() for s in cut.samples)
        # The source dataset is untouched.
        assert not any(s.ground_truth.ignore.any() for s in disk_set.samples)

    def test_bounded_interval(self, disk_set):
        cut = disk_set.subset_by_height(50.0, 80.0)
        for s in cut.samples:
            h = s.ground_truth.boxes[:, 3]
            np.testing.assert_array_equal(s.ground_truth.ignore, ~((50.0 <= h) & (h < 80.0)))

    def test_an_ignored_box_stays_ignored(self):
        gts = GroundTruth([(0, 0, 10, 60), (0, 0, 10, 90)], ignore=[True, False])
        ds = Dataset([ImageSample(ImageRecord("a", 16, 16), gts)])
        assert ds.subset_by_height(50.0, None).samples[0].ground_truth.ignore.tolist() == [
            True, False]


class TestLayerChannels:
    def test_uniform_counts_reported(self, disk_set):
        assert disk_set.layer_channels() == {"conv3": 64, "conv4a": 64, "conv5a": 64}

    def test_inconsistent_counts_rejected(self):
        def record(image_id, channels):
            fm = FeatureMap("conv3", 4, np.zeros((channels, 4, 4), dtype=np.float32))
            return ImageRecord(image_id=image_id, image_w=16, image_h=16,
                               feature_maps={"conv3": fm})

        ds = Dataset(samples=[
            ImageSample(record=record("a", 8)),
            ImageSample(record=record("b", 9)),
        ])
        with pytest.raises(DataError):
            ds.layer_channels()


class TestFeatureMapLayout:
    def test_stored_channel_last_with_a_read_only_view(self):
        chw = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        fm = FeatureMap("conv3", 4, chw)
        assert fm.hwc.shape == (3, 4, 2) and fm.hwc.flags.c_contiguous
        np.testing.assert_array_equal(fm.hwc, chw.transpose(1, 2, 0))
        np.testing.assert_array_equal(fm.data, chw)
        assert np.shares_memory(fm.data, fm.hwc)
        assert not fm.data.flags.writeable and not fm.hwc.flags.writeable
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 1.0
        assert (fm.channels, fm.height, fm.width) == (2, 3, 4)

    def test_a_transposed_channel_last_array_is_not_copied(self):
        hwc = np.arange(24, dtype=np.float32).reshape(3, 4, 2)
        fm = FeatureMap("conv3", 4, hwc.transpose(2, 0, 1))
        assert np.shares_memory(fm.hwc, hwc)
        assert hwc.flags.writeable  # only the map's own view is frozen

    def test_non_finite_value_rejected(self):
        chw = np.zeros((2, 3, 4), dtype=np.float32)
        chw[1, 2, 3] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            FeatureMap("conv3", 4, chw)


class TestImageRecordValidation:
    def test_map_must_cover_image(self):
        fm = FeatureMap("conv3", 4, np.zeros((2, 3, 3), dtype=np.float32))
        with pytest.raises(DataError):
            ImageRecord(image_id="a", image_w=64, image_h=64,
                        feature_maps={"conv3": fm})

    def test_key_must_match_layer_name(self):
        fm = FeatureMap("conv3", 4, np.zeros((2, 4, 4), dtype=np.float32))
        with pytest.raises(DataError):
            ImageRecord(image_id="a", image_w=16, image_h=16,
                        feature_maps={"conv4a": fm})

    def test_missing_layer_lookup(self):
        fm = FeatureMap("conv3", 4, np.zeros((2, 4, 4), dtype=np.float32))
        rec = ImageRecord(image_id="a", image_w=16, image_h=16,
                          feature_maps={"conv3": fm})
        assert rec.layer("conv3") is fm
        with pytest.raises(DataError):
            rec.layer("conv9")
