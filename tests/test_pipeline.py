"""Training and detection end to end, plus background sampling limits."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import fast_train_settings, time_limit
from samhead.dataset import Dataset, ImageSample
from samhead.forest import TrainingError
from samhead.maps import FeatureMap, ImageRecord
from samhead.pipeline import (
    ablation_sweep,
    detect_dataset,
    load_model,
    save_model,
    train_detector,
    write_sweep_csv,
)
from samhead.pooling import PoolGrid
from samhead.routing import ChannelConfig, RoutingTable, ScaleBin


AUX = ChannelConfig(semantic=True, edge=True, edge_pooling="hist")


@pytest.fixture(scope="module", params=["cnn", "aux"])
def trained(request, tiny_train_set):
    settings = fast_train_settings()
    if request.param == "aux":
        settings = replace(settings, channels=AUX)
    model, _ = train_detector(tiny_train_set, settings)
    return model


def test_saved_model_detects_like_the_trained_one(trained, tiny_test_set, tmp_path):
    want = detect_dataset(trained, tiny_test_set)
    assert sum(len(d) for d in want.values()) > 0
    save_model(tmp_path / "model.json", trained)
    loaded = load_model(tmp_path / "model.json")
    assert detect_dataset(loaded, tiny_test_set) == want


def test_thread_count_does_not_change_detections(trained, tiny_test_set):
    assert detect_dataset(trained, tiny_test_set, threads=2) == detect_dataset(
        trained, tiny_test_set, threads=1
    )


def test_training_is_repeatable(tiny_train_set, tmp_path):
    a, manifest_a = train_detector(tiny_train_set, fast_train_settings())
    b, manifest_b = train_detector(tiny_train_set, fast_train_settings())
    save_model(tmp_path / "a.json", a)
    save_model(tmp_path / "b.json", b)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert manifest_a == manifest_b


def narrow_dataset(width=34, height=120, images=2):
    """Images too narrow for any box of height >= 80 at the background aspect."""
    rng = np.random.default_rng(0)
    samples = []
    for k in range(images):
        maps = {
            "conv3": FeatureMap("conv3", 4, rng.normal(size=(2, height // 4, -(-width // 4)))),
            "conv4a": FeatureMap("conv4a", 4, rng.normal(size=(3, height // 4, -(-width // 4)))),
        }
        samples.append(ImageSample(ImageRecord(f"n{k}", width, height, maps)))
    return Dataset(samples)


def test_pca_sampling_without_room_for_a_background_box_raises():
    # The [80, inf) bin pools 3 channels against a target of 2, so it needs
    # a PCA fit, and no 0.41:1 box of height >= 80 fits a 34-px-wide image.
    settings = replace(
        fast_train_settings(),
        routing=RoutingTable(
            bins=(
                ScaleBin(50.0, 80.0, ("conv3",), "small"),
                ScaleBin(80.0, None, ("conv4a",), "large"),
            ),
            grid=PoolGrid(4, 2),
        ),
    )
    with time_limit(20), pytest.raises(TrainingError, match="background box"):
        train_detector(narrow_dataset(), settings)


def test_ablation_sweep_gives_one_row_per_combination_and_subset(
    tiny_train_set, tiny_test_set, tmp_path
):
    settings = fast_train_settings(stage_tree_counts=(4,))
    combos = [("conv4a",), ("conv3", "conv4a")]
    with time_limit(20):
        rows = ablation_sweep(tiny_train_set, tiny_test_set, combos, settings=settings)
    assert [(r["combination"], r["subset"]) for r in rows] == [
        (name, subset)
        for name in ("conv4a", "conv3+conv4a")
        for subset in ("small", "large", "all")
    ]
    assert all(0.0 <= r["mr4"] <= 1.0 for r in rows)

    write_sweep_csv(tmp_path / "sweep.csv", rows)
    lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "combination,subset,mr4"
    assert lines[1:] == [f"{r['combination']},{r['subset']},{float(r['mr4'])!r}" for r in rows]
