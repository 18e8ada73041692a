"""The command-line entry points: exit codes, diagnostics and outputs."""

import base64
import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import (
    FOREST_ARRAYS,
    fast_train_settings,
    forest_arrays,
    integer_ids,
    rename_image_id,
    time_limit,
    tiny_synth_config,
)
from samhead import config as samhead_config
from samhead import evaluation
from samhead.cli import EXIT_CONFIG, EXIT_DATA, _train_settings, main
from samhead.dataset import Dataset
from samhead.errors import ConfigError
from samhead.evaluation import metrics_summary, read_curve_csv
from samhead.forest import Forest
from samhead.formats import (
    read_detections_csv,
    read_feature_maps,
    read_json,
    write_feature_maps,
)
from samhead.pipeline import (
    MODEL_FORMAT,
    MODEL_VERSION,
    PRIOR_LOGIT_CLAMP,
    TrainSettings,
    model_from_dict,
    save_model,
    train_detector,
)
from samhead.synth import generate_dataset

SYNTH_SECTION = {"num_images": 2, "peds_per_image": [2, 3], "background_proposals": 30}
_MODEL_HEADER = {"format": MODEL_FORMAT, "version": MODEL_VERSION}


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _write_forest(forest, arrays, types=FOREST_ARRAYS):
    """Store ``arrays`` (decoded forest arrays) in the forest section ``forest``."""
    for key, values in arrays.items():
        forest[key] = samhead_config.write_array(values, types[key])


def _projector(target_dim):
    """A well-formed projector entry of the model file: zero mean, identity basis."""
    return {"mean": samhead_config.write_array(np.zeros(target_dim), "<f8"),
            "basis": samhead_config.write_array(np.eye(target_dim), "<f8")}


def _one_json_line(text):
    lines = text.strip().splitlines()
    assert len(lines) == 1, text
    return json.loads(lines[0])


def _assert_failed(capsys, code, want_code, error):
    assert code == want_code
    out, err = capsys.readouterr()
    assert out == ""
    payload = _one_json_line(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == error
    return payload


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    config = _write_config(tmp_path, {"synth": SYNTH_SECTION})
    assert main(["synth", "--config", config, "--out", str(out), "--seed", "3"]) == 0
    capsys.readouterr()
    return out


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, tiny_train_set):
    model, _ = train_detector(tiny_train_set, fast_train_settings())
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, model)
    return path


class TestSynth:
    def test_output_loads_equal_to_generate_dataset(self, tmp_path, capsys):
        out = tmp_path / "data"
        config = _write_config(tmp_path, {"synth": SYNTH_SECTION})
        assert main(["synth", "--config", config, "--out", str(out), "--seed", "3"]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        assert _one_json_line(stdout) == {"command": "synth", "out": str(out),
                                          "images": 2, "seed": 3}

        want = generate_dataset(tiny_synth_config(num_images=2), seed=3)
        got = Dataset.load(out)
        assert got.image_ids == want.image_ids
        assert got.ground_truth_by_image() == want.ground_truth_by_image()
        assert got.proposals_by_image() == want.proposals_by_image()
        for a, b in zip(got.samples, want.samples):
            ra, rb = a.record, b.record
            assert (ra.image_w, ra.image_h) == (rb.image_w, rb.image_h)
            for name, fm in rb.feature_maps.items():
                assert ra.feature_maps[name].data.tobytes() == fm.data.tobytes()
            assert ra.label_map.data.tobytes() == rb.label_map.data.tobytes()
            assert ra.edge_map.data.tobytes() == rb.edge_map.data.tobytes()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = _write_config(tmp_path, {"synth": {"num_images": 1, "bogus": 1}})
        code = main(["synth", "--config", config, "--out", str(tmp_path / "data")])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert "bogus" in payload["message"]
        assert not (tmp_path / "data").exists()

    # Every value the synth world fixes, as it was set before it became a
    # constant of samhead.synth.
    _REMOVED = {
        "image_w": 256, "image_h": 176, "small_heights": [52.0, 78.0],
        "large_heights": [96.0, 140.0], "small_fraction": 0.55, "placement_max_iou": 0.1,
        "distractors_per_image": [1, 3], "occluded_fraction": 0.08,
        "proposals_per_gt": 6, "rough_proposals_per_gt": 1, "distractor_proposals": 2,
        "proposal_jitter": 0.06, "rough_jitter": 0.25,
        "prior_base": 0.25, "prior_iou_weight": 0.35, "prior_noise": 0.15,
        "distractor_prior_bonus": 0.08,
        "class_channels": 8, "shared_channels": 8, "contour_channels": 4, "shared_amp": 0.8,
        "bg_sigma": 1.0, "fg_sigma": 0.5, "band_log_width": 0.3,
        "ped_class": 11, "distractor_classes": [4, 13], "distractor_mislabel_rate": 0.3,
        "clutter_rects": 6, "edge_noise_segments": 12,
        "pattern_seed": 0,
    }

    @pytest.mark.parametrize("key", [*_REMOVED, "quality"])
    def test_unknown_synth_keys_exit_2(self, tmp_path, capsys, key):
        if key == "quality":
            layer = {"stride": 4, "channels": 64, "band_center": 56.0, "quality": 1.0}
            section, where = {"layers": {"conv3": layer}}, "layers['conv3']"
        else:
            section, where = {**SYNTH_SECTION, key: self._REMOVED[key]}, "synth"
        config = _write_config(tmp_path, {"synth": section})
        code = main(["synth", "--config", config, "--out", str(tmp_path / "data")])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert payload["message"].startswith(f"unknown {where} keys [{key!r}]")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"background_proposals": -1}, "background_proposals must be >= 0, got -1"),
            ({"layers": {"conv3": {"stride": 3, "channels": 64, "band_center": 56.0}}},
             "bad layer spec: stride=3"),
        ],
        ids=["background_proposals", "stride-3"],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, section, message):
        config = _write_config(tmp_path, {"synth": section})
        code = main(["synth", "--config", config, "--out", str(tmp_path / "data")])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert payload["message"].startswith(message)
        assert not (tmp_path / "data").exists()

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"synth": {"num_images": 1,', encoding="utf-8")
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "data")])
        _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")


@pytest.mark.parametrize("command", ["synth", "train", "sweep"])
def test_negative_seed_exits_2_and_writes_nothing(synth_dir, tmp_path, capsys, command):
    config = _write_config(tmp_path, {"synth": SYNTH_SECTION})
    before = sorted(tmp_path.rglob("*"))
    data = {"synth": [],
            "train": ["--data", str(synth_dir)],
            "sweep": ["--train-data", str(synth_dir), "--test-data", str(synth_dir)]}[command]
    code = main([command, "--config", config, *data, "--out", str(tmp_path / "out"),
                 "--seed", "-1"])
    payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
    assert "seed must be >= 0, got -1" in payload["message"]
    assert sorted(tmp_path.rglob("*")) == before


class TestMissingOrBrokenData:
    def test_train_without_meta_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["train", "--data", str(empty), "--out", str(tmp_path / "m.json")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert "meta.json" in payload["message"]

    def test_detect_without_meta_exits_3(self, tmp_path, capsys, model_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["detect", "--data", str(empty), "--model", str(model_path),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert "meta.json" in payload["message"]
        assert not (tmp_path / "dets.csv").exists()

    def test_truncated_fmap_exits_3(self, synth_dir, tmp_path, capsys, model_path):
        fmap = synth_dir / "maps" / "img0001.fmap"
        fmap.write_bytes(fmap.read_bytes()[:-7])
        code = main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "TruncatedPayloadError")
        assert "img0001.fmap" in payload["message"]

    def test_version_1_fmap_exits_3(self, synth_dir, tmp_path, capsys, model_path):
        fmap = synth_dir / "maps" / "img0000.fmap"
        raw = bytearray(fmap.read_bytes())
        assert raw[4:8] == (2).to_bytes(4, "little")
        raw[4:8] = (1).to_bytes(4, "little")
        fmap.write_bytes(bytes(raw))
        code = main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "UnsupportedVersionError")
        assert "img0000.fmap" in payload["message"]
        assert not (tmp_path / "dets.csv").exists()

    def test_fmap_with_a_layer_twice_exits_3(self, synth_dir, tmp_path, capsys, model_path):
        fmap = synth_dir / "maps" / "img0000.fmap"
        layers = read_feature_maps(fmap)
        assert layers[0].layer_name == "conv3"
        write_feature_maps(fmap, [*layers, layers[0]])
        code = main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "FormatError")
        assert "img0000.fmap: layer 'conv3' appears more than once" in payload["message"]
        assert not (tmp_path / "dets.csv").exists()

    @staticmethod
    def _duplicate_first_id(synth_dir):
        meta_path = synth_dir / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        assert meta["image_ids"] == ["img0000", "img0001"]
        meta["image_ids"] = ["img0000", "img0000"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")

    def test_duplicated_image_id_exits_3_at_detect(self, synth_dir, tmp_path, capsys,
                                                   model_path):
        self._duplicate_first_id(synth_dir)
        code = main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert "image id 'img0000' is listed more than once" in payload["message"]
        assert not (tmp_path / "dets.csv").exists()

    def test_duplicated_image_id_exits_3_at_eval(self, synth_dir, tmp_path, capsys,
                                                 model_path):
        dets = tmp_path / "dets.csv"
        assert main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(dets)]) == 0
        capsys.readouterr()
        self._duplicate_first_id(synth_dir)
        out = tmp_path / "metrics.json"
        code = main(["eval", "--data", str(synth_dir), "--dets", str(dets),
                     "--out", str(out), "--curves", str(tmp_path / "c")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert "image id 'img0000' is listed more than once" in payload["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data", "dets.csv"]

    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_integer_image_ids_exit_3(self, synth_dir, tmp_path, capsys, model_path, command):
        dets = tmp_path / "dets.csv"
        if command == "eval":
            assert main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                         "--out", str(dets)]) == 0
            capsys.readouterr()
        integer_ids(synth_dir)
        out = tmp_path / {"detect": "dets.csv", "eval": "metrics.json"}[command]
        args = {"detect": ["--model", str(model_path)], "eval": ["--dets", str(dets)]}[command]
        code = main([command, "--data", str(synth_dir), *args, "--out", str(out)])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert "image id 0 is not a JSON string" in payload["message"]
        assert not out.exists()

    def test_a_repeated_annotation_row_exits_3(self, synth_dir, tmp_path, capsys, model_path):
        path = synth_dir / "annotations.jsonl"
        rows = path.read_text(encoding="utf-8")
        path.write_text(rows + rows.splitlines(keepends=True)[0], encoding="utf-8")
        code = main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "FormatError")
        assert "annotations.jsonl:3: image id 'img0000' has a second row" in payload["message"]
        assert not (tmp_path / "dets.csv").exists()

    def test_an_image_id_outside_the_dataset_exits_3(self, synth_dir, tmp_path, capsys,
                                                     model_path):
        # maps/../x names files beside maps/, which a loader that let the id
        # through would read.
        for path in (synth_dir / "maps").glob("img0000.*"):
            path.rename(synth_dir / f"x{path.suffix}")
        rename_image_id(synth_dir, "img0000", "../x")
        code = main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert "image id '../x' is not a plain file name" in payload["message"]
        assert not (tmp_path / "dets.csv").exists()

    def test_detect_on_intact_data_exits_0(self, synth_dir, tmp_path, capsys, model_path):
        out = tmp_path / "dets.csv"
        code = main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(out)])
        assert code == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        assert _one_json_line(stdout)["images"] == 2
        assert out.exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (["caps", "test_top_k"], "5", "test_top_k must be an integer, got '5'"),
            (["channels", "edge_pooling"], 16, "edge_pooling must be a string, got 16"),
            (["channels", "semantic"], 1, "semantic must be true or false, got 1"),
            (["routing", "target_dim"], 2.5, "target_dim must be an integer, got 2.5"),
            (["routing", "bins", 0, "layers"], "conv4a",
             "layers must be a JSON list, got 'conv4a'"),
        ],
        ids=["caps", "channels-int", "channels-bool", "routing", "bin-layers"],
    )
    def test_wrong_typed_model_section_exits_3(self, synth_dir, tmp_path, capsys, model_path,
                                               path, value, message):
        model = json.loads(model_path.read_text(encoding="utf-8"))
        node = model
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code = main(["detect", "--data", str(synth_dir), "--model", str(bad),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"] == f"malformed model file: {message}"
        assert not (tmp_path / "dets.csv").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ([1, 2], "top level must be a JSON object, got list"),
            ("x", "top level must be a JSON object, got str"),
            ({**_MODEL_HEADER, "projectors": [1]},
             "projectors section must be a JSON object, got list"),
            ({**_MODEL_HEADER, "projectors": {"small": 1}},
             "projectors['small'] section must be a JSON object, got int"),
        ],
        ids=["list", "string", "projectors-list", "projector-entry"],
    )
    def test_non_object_model_exits_3(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content), encoding="utf-8")
        code = main(["detect", "--data", str(tmp_path / "data"), "--model", str(bad),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"] == f"malformed model file: {message}"
        assert not (tmp_path / "dets.csv").exists()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_stale_model_version_exits_3(self, synth_dir, tmp_path, capsys, model_path,
                                         version):
        # The version check rejects a file before its layout is read, so the
        # current layout under an old number stands for every old layout.
        model = json.loads(model_path.read_text(encoding="utf-8"))
        model["version"] = version
        old = tmp_path / "old.json"
        old.write_text(json.dumps(model), encoding="utf-8")
        code = main(["detect", "--data", str(synth_dir), "--model", str(old),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"] == (
            f"unsupported model version {version}; this build reads {MODEL_VERSION}"
        )
        assert not (tmp_path / "dets.csv").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("forest", "prior_weight", "1.0", "prior_weight must be a number, got '1.0'"),
            ("forest", "n_features", 2304.9, "n_features must be an integer, got 2304.9"),
            ("projector", "mean", "0.0,0.0",
             "projector 'small' mean is not base64: Only base64 data is allowed"),
            ("projector", "mean", True, "projector 'small' mean must be a base64 string, got bool"),
            ("projector", "basis", "[[1.0, 0.0]]",
             "projector 'small' basis (target_dim 128 x mean length 128) is not base64: "
             "Only base64 data is allowed"),
            ("projector", "basis", True,
             "projector 'small' basis (target_dim 128 x mean length 128) must be a base64 "
             "string, got bool"),
            ("projector", "basis", samhead_config.write_array(np.eye(128)[0], "<f8"),
             "projector 'small' basis (target_dim 128 x mean length 128) must hold 16384 "
             "8-byte values, got 1024 bytes"),
            ("projector", "basis", np.eye(128).tolist(),
             "projector 'small' basis (target_dim 128 x mean length 128) must be a base64 "
             "string, got list"),
        ],
        ids=["prior_weight", "n_features", "mean-string", "mean-bool", "basis-string",
             "basis-bool", "basis-flat", "basis-not-a-list"],
    )
    def test_wrong_typed_model_scalar_exits_3(self, synth_dir, tmp_path, capsys, model_path,
                                              section, key, value, message):
        model = json.loads(model_path.read_text(encoding="utf-8"))
        assert model["routing"]["target_dim"] == 128
        if section == "projector":
            model["projectors"]["small"] = {**_projector(128), key: value}
        else:
            model["forest"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code = main(["detect", "--data", str(synth_dir), "--model", str(bad),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"] == f"malformed model file: {message}"
        assert not (tmp_path / "dets.csv").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_prior_weight_that_is_not_finite_exits_3(self, synth_dir, tmp_path, capsys,
                                                        model_path, value):
        # json writes these as the tokens NaN, Infinity and -Infinity, which
        # its reader accepts.
        model = json.loads(model_path.read_text(encoding="utf-8"))
        model["forest"]["prior_weight"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code = main(["detect", "--data", str(synth_dir), "--model", str(bad),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"] == f"malformed model file: prior_weight must be finite, got {value}"
        assert not (tmp_path / "dets.csv").exists()

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_a_prior_weight_whose_prior_margins_overflow_exits_3(
            self, synth_dir, tmp_path, capsys, model_path, value):
        # A finite weight that times a prior logit of 10 overflows would score
        # proposals +/-inf.
        model = json.loads(model_path.read_text(encoding="utf-8"))
        model["forest"]["prior_weight"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code = main(["detect", "--data", str(synth_dir), "--model", str(bad),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"] == (
            f"malformed model file: prior_weight {value} times the prior logit bound "
            f"{PRIOR_LOGIT_CLAMP} is not finite")
        assert not (tmp_path / "dets.csv").exists()

    @pytest.mark.parametrize(
        "key, case",
        [(key, case) for key in ("sizes", "feature", "right", "value", "mean", "basis")
         for case in ("not-a-string", "non-alphabet", "bad-padding", "odd-bytes",
                      "wrong-count")]
        + [("value", "nan"), ("mean", "nan"), ("basis", "nan"),
           ("right", "outside-its-tree"), ("feature", "n_features")],
    )
    def test_malformed_array_exits_3(self, tmp_path, capsys, model_path, key, case):
        model = json.loads(model_path.read_text(encoding="utf-8"))
        target_dim = model["routing"]["target_dim"]
        model["projectors"]["small"] = _projector(target_dim)
        model_from_dict(model)  # the base model is valid
        forest = model["forest"]
        if key in FOREST_ARRAYS:
            section, dtype = forest, FOREST_ARRAYS[key]
            # Fewer sizes mean fewer nodes than the node arrays hold.
            named = "feature" if (key, case) == ("sizes", "wrong-count") else key
            where = {"nan": "tree 0: ", "outside-its-tree": "tree 0: node 0 ",
                     "n_features": "tree 0: node 0 "}.get(case, f"forest: {named} ")
        else:
            section, dtype = model["projectors"]["small"], "<f8"
            where = "projector 'small'"
        array = samhead_config.read_array(section[key], dtype, key)
        text = section[key]
        if case == "not-a-string":
            section[key] = array.tolist()
        elif case == "non-alphabet":
            section[key] = text[:4] + "*" + text[5:]
        elif case == "bad-padding":
            section[key] = text[:-1]
        elif case == "odd-bytes":
            section[key] = base64.b64encode(
                np.asarray(array, dtype=dtype).tobytes() + b"\0").decode("ascii")
        elif case == "wrong-count":
            section[key] = samhead_config.write_array(array[:-1], dtype)
        else:
            assert forest_arrays(forest)["feature"][0] >= 0  # node 0 of tree 0 splits
            array[0] = {"nan": np.nan, "outside-its-tree": forest_arrays(forest)["sizes"][0],
                        "n_features": forest["n_features"]}[case]
            section[key] = samhead_config.write_array(array, dtype)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code = main(["detect", "--data", str(tmp_path / "data"), "--model", str(bad),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"].startswith(f"malformed model file: {where}")
        assert not (tmp_path / "dets.csv").exists()

    @pytest.mark.parametrize(
        "where, key",
        [((), "nms_threshold"), (("forest",), "stage_history"), (("forest",), "trees")],
        ids=["top-level", "forest", "tree"],
    )
    def test_unknown_model_key_exits_3(self, synth_dir, tmp_path, capsys, model_path,
                                       where, key):
        model = json.loads(model_path.read_text(encoding="utf-8"))
        node = model
        for step in where:
            node = node[step]
        node[key] = 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code = main(["detect", "--data", str(synth_dir), "--model", str(bad),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        name = {(): "model", ("forest",): "forest"}[where]
        want = f"malformed model file: unknown {name} keys [{key!r}]"
        assert payload["message"].startswith(want)
        assert not (tmp_path / "dets.csv").exists()

    # Node 0 splits into node 1 (a split into leaves 2 and 3) and leaf 4.  Every
    # sample descends 0 -> 1 -> 3 (x <= 1e30 holds, x <= -1e30 does not), so a
    # cycle on that path would never end.  A split's left child is the next
    # node; ``value`` holds a split's threshold and a leaf's score.  The tests
    # put this tree in front of the trained model's trees.
    _TREE = {"feature": [0, 1, -1, -1, -1], "right": [4, 3, -1, -1, -1],
             "value": [1e30, -1e30, 0.1, 0.2, -0.3]}

    @pytest.mark.parametrize(
        "key, index, value, where",
        [
            ("right", 1, 1, "tree 0"),
            ("right", 1, 0, "tree 0"),
            ("right", 0, "nodes", "tree 0"),
            ("right", 4, 2, "tree 0"),
            ("feature", 1, "n_features", "tree 0"),
            ("feature", 1, -2, "tree 0"),
            ("value", 4, "delete", "forest"),
            ("value", 2, float("nan"), "tree 0"),
            ("value", 0, float("inf"), "tree 0"),
            (None, None, "empty", "tree 0"),
            ("right", None, "as <f8", "forest"),
            ("feature", None, "as bool", "forest"),
            ("right", 0, 5, "tree 0"),
            ("sizes", 0, 6, "forest"),
            ("sizes", 0, "insert 0", "tree 0"),
        ],
        ids=["self-child", "cycle", "child-out-of-range", "leaf-with-child",
             "feature-out-of-range", "negative-feature", "ragged", "nan-value",
             "inf-threshold", "empty", "float-child", "bool-feature", "child-in-next-tree",
             "sizes-miss-the-node-count", "zero-size"],
    )
    def test_malformed_tree_exits_3(self, synth_dir, tmp_path, capsys, model_path,
                                    key, index, value, where):
        model = json.loads(model_path.read_text(encoding="utf-8"))
        forest = model["forest"]
        arrays = {k: v.tolist() for k, v in forest_arrays(forest).items()}
        arrays["sizes"].insert(0, 5)
        for k, nodes in self._TREE.items():
            arrays[k][:0] = nodes
        _write_forest(forest, arrays)
        Forest.from_dict(forest)  # the base forest is valid
        types = FOREST_ARRAYS
        if value == "empty":  # tree 0 keeps its size entry but has no nodes
            arrays["sizes"][0] = 0
            for k in self._TREE:
                del arrays[k][:5]
        elif value == "delete":
            del arrays[key][index]
        elif value == "insert 0":
            arrays[key].insert(index, 0)
        elif value in ("as <f8", "as bool"):  # the array written with another item type
            types = {**FOREST_ARRAYS, key: value[3:]}
        else:
            counts = {"nodes": len(arrays["feature"]), "n_features": forest["n_features"]}
            arrays[key][index] = counts.get(value, value) if isinstance(value, str) else value
        _write_forest(forest, arrays, types)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        with time_limit(20):
            code = main(["detect", "--data", str(synth_dir), "--model", str(bad),
                         "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"].startswith(f"malformed model file: {where}: ")
        assert not (tmp_path / "dets.csv").exists()


class TestNonUtf8Input:
    """A file that is not UTF-8 text is bad input, not an unexpected error."""

    _BOM = b"\xff\xfe"  # a UTF-16 byte-order mark; 0xff never occurs in UTF-8

    def test_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(self._BOM + json.dumps({"synth": SYNTH_SECTION}).encode("utf-8"))
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "data")])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert "not UTF-8 text" in payload["message"]
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("name", ["meta.json", "annotations.jsonl", "proposals.jsonl"])
    def test_dataset_file_exits_3(self, synth_dir, tmp_path, capsys, name):
        path = synth_dir / name
        path.write_bytes(self._BOM + path.read_bytes())
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "m.json")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "FormatError")
        assert f"{name} is not UTF-8 text" in payload["message"]
        assert not (tmp_path / "m.json").exists()

    def test_feature_map_layer_name_exits_3(self, synth_dir, tmp_path, capsys):
        fmap = synth_dir / "maps" / "img0000.fmap"
        fmap.write_bytes(fmap.read_bytes().replace(b"conv3", b"\xffonv3", 1))
        code = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "m.json")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "FormatError")
        assert "img0000.fmap: a layer name is not UTF-8" in payload["message"]
        assert not (tmp_path / "m.json").exists()

    def test_model_exits_3(self, tmp_path, capsys, model_path):
        bad = tmp_path / "model.json"
        bad.write_bytes(self._BOM + model_path.read_bytes())
        code = main(["detect", "--data", str(tmp_path / "data"), "--model", str(bad),
                     "--out", str(tmp_path / "dets.csv")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "FormatError")
        assert "model.json is not UTF-8 text" in payload["message"]
        assert not (tmp_path / "dets.csv").exists()

    def test_detections_csv_exits_3(self, synth_dir, tmp_path, capsys):
        dets = tmp_path / "dets.csv"
        dets.write_bytes(self._BOM + b"image_id,x,y,w,h,score\n")
        code = main(["eval", "--data", str(synth_dir), "--dets", str(dets),
                     "--out", str(tmp_path / "metrics.json")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "FormatError")
        assert "dets.csv is not UTF-8 text" in payload["message"]
        assert not (tmp_path / "metrics.json").exists()

    def test_curve_csv_exits_3(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_bytes(self._BOM + b"kind,pr,0.5\nthreshold,recall,precision\n")
        code = main(["plot", "--curve", str(curve), "--out", str(tmp_path / "curve.svg")])
        payload = _assert_failed(capsys, code, EXIT_DATA, "FormatError")
        assert "curve.csv is not UTF-8 text" in payload["message"]
        assert not (tmp_path / "curve.svg").exists()


class TestTrainKeys:
    def test_every_settings_field_is_accepted(self):
        routing = {"grid": {"m": 3, "n": 2},
                   "bins": [{"min_height": 1.0, "max_height": None,
                             "layers": ["conv4a"], "projector_id": "all"}]}
        section = {"routing": routing, "channels": {"semantic": True}, "forest": {},
                   "caps": {"test_top_k": 7}}
        assert set(section) == {f.name for f in dataclasses.fields(TrainSettings)}
        settings = _train_settings(section, seed=9)
        assert (settings.routing.grid.m, settings.routing.grid.n) == (3, 2)
        assert settings.routing.bins[0].layers == ("conv4a",)
        assert settings.channels.semantic
        assert settings.caps.test_top_k == 7
        assert settings.forest.seed == 9

    def test_unknown_key_is_rejected_with_the_allowed_list(self):
        allowed = sorted(f.name for f in dataclasses.fields(TrainSettings))
        with pytest.raises(ConfigError) as info:
            _train_settings({"caps": {}, "bogus": 1, "alpha": 2}, seed=None)
        assert str(info.value) == f"unknown train keys ['alpha', 'bogus']; allowed: {allowed}"

    def test_unknown_key_exits_2(self, synth_dir, tmp_path, capsys):
        config = _write_config(tmp_path, {"train": {"bogus": 1}})
        code = main(["train", "--config", config, "--data", str(synth_dir),
                     "--out", str(tmp_path / "m.json")])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert "unknown train keys ['bogus']" in payload["message"]

    @pytest.mark.parametrize(
        "section, message",
        [
            ([], "train section must be a JSON object, got list"),
            (None, "train section must be a JSON object, got NoneType"),
            ({"channels": ["semantic"]}, "channels section must be a JSON object"),
            ({"routing": []}, "routing section must be a JSON object, got list"),
            ({"forest": []}, "forest section must be a JSON object"),
            ({"forest": {"max_depth": 0}}, "max_depth must be >= 1, got 0"),
            ({"forest": {"leaf_smoothing": 0.0}}, "unknown forest keys ['leaf_smoothing']"),
            ({"forest": {"margin_clamp": 0.0}}, "unknown forest keys ['margin_clamp']"),
            ({"channels": {"semantic_pooling": "max"}},
             "unknown channels keys ['semantic_pooling']"),
            ({"channels": {"histogram_norm": "grid"}}, "unknown channels keys ['histogram_norm']"),
            ({"forest": {"max_bins": 1}}, "max_bins must be in [2, 256], got 1"),
            ({"pca_sample_cap": 500}, "unknown train keys ['pca_sample_cap']"),
            ({"pca_min_samples": 4}, "unknown train keys ['pca_min_samples']"),
            ({"prior_logit_clamp": 5.0}, "unknown train keys ['prior_logit_clamp']"),
            ({"background_prior_score": 0.2}, "unknown train keys ['background_prior_score']"),
            ({"nms_threshold": 0.4}, "unknown train keys ['nms_threshold']"),
            ({"caps": {"train_top_k": 10}}, "unknown caps keys ['train_top_k']"),
            ({"forest": {"pos_iou": 0.5}}, "unknown forest keys ['pos_iou']"),
            ({"forest": {"neg_iou": 0.3}}, "unknown forest keys ['neg_iou']"),
            ({"forest": {"schedule": "basic"}}, "unknown forest keys ['schedule']"),
            ({"channels": {"edge_bins": 16}}, "unknown channels keys ['edge_bins']"),
            ({"channels": {"label_classes": 21}}, "unknown channels keys ['label_classes']"),
        ],
        ids=["train-list", "train-null", "channels-list", "routing-list", "forest-list",
             "max_depth", "leaf_smoothing", "margin_clamp", "semantic_pooling",
             "histogram_norm", "max_bins", "pca_sample_cap", "pca_min_samples",
             "prior_logit_clamp", "background_prior_score", "nms_threshold", "train_top_k",
             "pos_iou", "neg_iou", "schedule", "edge_bins", "label_classes"],
    )
    def test_bad_section_exits_2(self, tmp_path, capsys, section, message):
        # The data directory does not exist: a bad section must be rejected
        # when the config is parsed, before any data is read or trained on.
        config = _write_config(tmp_path, {"train": section})
        code = main(["train", "--config", config, "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "m.json")])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert message in payload["message"]


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_prior_weight_that_is_not_finite_exits_2_and_writes_no_model(
            self, synth_dir, tmp_path, capsys, value):
        # A short schedule, so that a build which let the value through would
        # fail this test quickly instead of training the paper's schedule.
        forest = {"stage_tree_counts": [2], "initial_negatives": 20, "max_depth": 1,
                  "prior_weight": value}
        config = _write_config(tmp_path, {"train": {"forest": forest}})
        out = tmp_path / "m.json"
        code = main(["train", "--config", config, "--data", str(synth_dir), "--out", str(out)])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert f"prior_weight must be finite, got {value}" in payload["message"]
        assert not out.exists()
        assert not (tmp_path / "m.json.manifest.json").exists()

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_a_prior_weight_whose_prior_margins_overflow_exits_2_and_writes_no_model(
            self, synth_dir, tmp_path, capsys, value):
        forest = {"stage_tree_counts": [2], "initial_negatives": 20, "max_depth": 1,
                  "prior_weight": value}
        config = _write_config(tmp_path, {"train": {"forest": forest}})
        out = tmp_path / "m.json"
        code = main(["train", "--config", config, "--data", str(synth_dir), "--out", str(out)])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert payload["message"] == (
            f"prior_weight {value} times the prior logit bound {PRIOR_LOGIT_CLAMP} "
            "is not finite")
        assert not out.exists()
        assert not (tmp_path / "m.json.manifest.json").exists()


class TestSweep:
    @pytest.mark.parametrize(
        "section, message",
        [
            ({"combinations": [["conv4a"]], "subsets": ["tiny"]}, "unknown subset 'tiny'"),
            ({"bogus": 1}, "unknown sweep keys ['bogus']"),
            ([], "sweep section must be a JSON object"),
        ],
        ids=["unknown-subset", "unknown-key", "sweep-list"],
    )
    def test_bad_sweep_section_exits_2(self, synth_dir, tmp_path, capsys, section, message):
        config = _write_config(tmp_path, {"sweep": section})
        with time_limit(20):
            code = main(["sweep", "--config", config, "--train-data", str(synth_dir),
                         "--test-data", str(synth_dir), "--out", str(tmp_path / "sweep.csv")])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert message in payload["message"]
        assert not (tmp_path / "sweep.csv").exists()


class TestEval:
    def test_curves_match_the_summary_and_plot(self, synth_dir, tmp_path, capsys, model_path):
        dets_path, out, prefix = tmp_path / "dets.csv", tmp_path / "metrics.json", tmp_path / "c"
        assert main(["detect", "--data", str(synth_dir), "--model", str(model_path),
                     "--out", str(dets_path)]) == 0
        capsys.readouterr()
        code = main(["eval", "--data", str(synth_dir), "--dets", str(dets_path),
                     "--out", str(out), "--curves", str(prefix)])
        assert code == 0
        assert _one_json_line(capsys.readouterr().out)["curves"] == [
            f"{prefix}.fppi_miss.csv", f"{prefix}.pr.csv"]

        want = metrics_summary(read_detections_csv(dets_path),
                               Dataset.load(synth_dir).ground_truth_by_image())
        metrics = read_json(out)
        assert metrics == json.loads(json.dumps(want))
        assert metrics["mr2"] is not None and metrics["ap_moderate"] is not None
        for kind, key in (("fppi_miss", "mr2"), ("pr", "ap_moderate")):
            curve_path = tmp_path / f"c.{kind}.csv"
            curve = read_curve_csv(curve_path)
            assert curve.kind == kind
            assert curve.summary == metrics[key]
            svg = tmp_path / f"{kind}.svg"
            assert main(["plot", "--curve", str(curve_path), "--out", str(svg)]) == 0
            assert _one_json_line(capsys.readouterr().out)["kind"] == kind
            assert svg.read_text(encoding="utf-8").startswith("<svg")

    def test_each_image_is_matched_once(self, synth_dir, tmp_path, capsys, monkeypatch):
        calls = []
        match_image = evaluation.match_image

        def counted(*args):
            calls.append(args)
            return match_image(*args)

        monkeypatch.setattr(evaluation, "match_image", counted)
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,x,y,w,h,score\n", encoding="utf-8")
        code = main(["eval", "--data", str(synth_dir), "--dets", str(dets),
                     "--out", str(tmp_path / "metrics.json"), "--curves", str(tmp_path / "c")])
        assert code == 0
        assert _one_json_line(capsys.readouterr().out)["curves"]
        assert len(calls) == len(Dataset.load(synth_dir))

    @pytest.mark.parametrize("change, kinds", [
        ({"h": 40.0, "occl": 0.0, "trunc": 0.0}, ["pr"]),  # below Caltech's 50 px floor
        ({"ignore": True}, []),
    ], ids=["all-40px-tall", "all-ignored"])
    def test_the_json_line_lists_the_curves_written(self, synth_dir, tmp_path, capsys,
                                                     change, kinds):
        path = synth_dir / "annotations.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row["boxes"] = [{**box, **change} for box in row["boxes"]]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        dets, prefix = tmp_path / "dets.csv", tmp_path / "c"
        dets.write_text("image_id,x,y,w,h,score\n", encoding="utf-8")
        code = main(["eval", "--data", str(synth_dir), "--dets", str(dets),
                     "--out", str(tmp_path / "metrics.json"), "--curves", str(prefix)])
        assert code == 0
        payload = _one_json_line(capsys.readouterr().out)
        assert payload["mr2"] is None
        assert payload["curves"] == [f"{prefix}.{kind}.csv" for kind in kinds]
        for kind in ("fppi_miss", "pr"):
            assert (tmp_path / f"c.{kind}.csv").exists() == (kind in kinds)

    def test_plot_refuses_a_non_finite_sample(self, tmp_path, capsys):
        curve, svg = tmp_path / "curve.csv", tmp_path / "curve.svg"
        curve.write_text("kind,fppi_miss,0.5\nthreshold,fppi,miss_rate\n"
                         "0.9,nan,0.2\n0.5,inf,nan\n0.1,0.5,0.1\n", encoding="utf-8")
        code = main(["plot", "--curve", str(curve), "--out", str(svg)])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"] == f"{curve}:3: non-finite curve sample [0.9, nan, 0.2]"
        assert not svg.exists()

    @pytest.mark.parametrize("summary", ["inf", "-inf", "nan"])
    def test_plot_refuses_a_non_finite_summary(self, tmp_path, capsys, summary):
        curve, svg = tmp_path / "curve.csv", tmp_path / "curve.svg"
        curve.write_text(f"kind,pr,{summary}\nthreshold,recall,precision\n0.9,0.5,1.0\n",
                         encoding="utf-8")
        code = main(["plot", "--curve", str(curve), "--out", str(svg)])
        payload = _assert_failed(capsys, code, EXIT_DATA, "DataError")
        assert payload["message"] == f"{curve}: curve summary {summary} is not finite"
        assert not svg.exists()

    # Every evaluation value that is now a constant of samhead.evaluation or a
    # height range only the layer sweep sets, at its former default.
    _REMOVED = {
        "iou_threshold": 0.5, "occlusion_max": 0.35, "region": [5.0, 635.0, 5.0, 475.0],
        "fppi_exponents": [-2.0, 0.0], "num_points": 9, "height_min": 50.0,
        "height_max": None,
    }

    @pytest.mark.parametrize("key", _REMOVED)
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_removed_eval_key_exits_2(self, tmp_path, capsys, command, key):
        # Every data path is missing: the key must be rejected when the
        # config is parsed, before any data is read.
        missing = str(tmp_path / "missing")
        data_args = {
            "eval": ["--data", missing, "--dets", missing],
            "sweep": ["--train-data", missing, "--test-data", missing],
        }[command]
        config = _write_config(tmp_path, {"eval": {key: self._REMOVED[key]}})
        code = main([command, "--config", config, "--out", str(tmp_path / "out"), *data_args])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert payload["message"] == f"unknown eval keys [{key!r}]; allowed: []"
        assert not (tmp_path / "out").exists()


_BIN = {"min_height": 1.0, "max_height": None, "layers": "conv4a", "projector_id": "all"}
_LAYER = {"stride": "4", "channels": 64, "band_center": 56.0}


class TestWrongJsonType:
    @pytest.mark.parametrize(
        "command, section, key",
        [
            ("train", {"forest": {"max_depth": "3"}}, "max_depth"),
            ("train", {"forest": {"stage_tree_counts": 4}}, "stage_tree_counts"),
            ("train", {"caps": {"test_top_k": "5"}}, "test_top_k"),
            ("train", {"channels": {"edge_pooling": 16}}, "edge_pooling"),
            ("train", {"forest": {"prior_weight": "1.0"}}, "prior_weight"),
            ("train", {"routing": {"bins": [_BIN]}}, "layers"),
            ("synth", {"num_images": "2"}, "num_images"),
            ("synth", {"peds_per_image": 3}, "peds_per_image"),
            ("synth", {"layers": {"conv3": _LAYER}}, "stride"),
            ("sweep", {"combinations": "conv4a"}, "combinations"),
        ],
        ids=["max_depth", "stage_tree_counts", "test_top_k", "edge_pooling", "prior_weight",
             "bin-layers", "num_images", "peds_per_image", "layer-stride", "combinations"],
    )
    def test_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, command, section, key):
        # Every data path is missing: the value must be rejected when the
        # config is parsed, before any data is read.
        missing = str(tmp_path / "missing")
        data_args = {
            "synth": [],
            "train": ["--data", missing],
            "sweep": ["--train-data", missing, "--test-data", missing],
        }[command]
        config = _write_config(tmp_path, {command: section})
        code = main([command, "--config", config, "--out", str(tmp_path / "out"), *data_args])
        payload = _assert_failed(capsys, code, EXIT_CONFIG, "ConfigError")
        assert payload["message"].startswith(key)
        assert not (tmp_path / "out").exists()

    def test_routing_bin_must_spell_max_height(self):
        bin_ = {k: v for k, v in _BIN.items() if k != "max_height"}
        with pytest.raises(ConfigError, match=r"lacks required keys \['max_height'\]"):
            _train_settings({"routing": {"bins": [{**bin_, "layers": ["conv4a"]}]}}, seed=None)

    def test_integer_in_a_float_field_is_read_as_a_float(self):
        bin_ = {**_BIN, "min_height": 1, "layers": ["conv4a"]}
        settings = _train_settings(
            {"forest": {"prior_weight": 2}, "routing": {"bins": [bin_]}}, seed=None
        )
        assert type(settings.forest.prior_weight) is float
        assert type(settings.routing.bins[0].min_height) is float
