"""Shared fixtures: a tiny generated dataset and a fast training setup.

The tiny dataset is generated once per session; tests that mutate nothing
share it to keep the suite quick.
"""

import json
import signal
from contextlib import contextmanager

import pytest

from samhead import config
from samhead.forest import TrainConfig
from samhead.pipeline import TrainSettings
from samhead.pooling import PoolGrid
from samhead.routing import default_routing_table
from samhead.synth import SynthConfig, generate_dataset


def tiny_synth_config(**overrides) -> SynthConfig:
    """A dataset small enough to train against in a couple of seconds."""
    base = dict(
        num_images=10,
        peds_per_image=(2, 3),
        background_proposals=30,
    )
    base.update(overrides)
    return SynthConfig(**base)


def fast_train_settings(**forest_overrides) -> TrainSettings:
    forest = dict(
        stage_tree_counts=(4, 8),
        initial_negatives=80,
        hard_negatives_per_stage=40,
        max_depth=2,
        max_bins=32,
        prior_weight=2.0,
        seed=5,
    )
    forest.update(forest_overrides)
    return TrainSettings(
        routing=default_routing_table(grid=PoolGrid(4, 2)),
        forest=TrainConfig(**forest),
    )


#: The arrays of a saved forest and their file types.
FOREST_ARRAYS = {"sizes": "<i4", "feature": "<i4", "right": "<i4", "value": "<f8"}


def forest_arrays(section) -> dict:
    """A saved forest's arrays, decoded."""
    return {key: config.read_array(section[key], dtype, key)
            for key, dtype in FOREST_ARRAYS.items()}


def integer_ids(root):
    """Rewrite the saved dataset at ``root`` under the integer image ids 0, 1, ..."""
    meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    for k, image_id in enumerate(meta["image_ids"]):
        for path in (root / "maps").glob(f"{image_id}.*"):
            path.rename(path.with_name(f"{k}{path.suffix}"))
    for name in ("annotations.jsonl", "proposals.jsonl"):
        rows = [json.loads(line) for line in (root / name).read_text(encoding="utf-8").splitlines()]
        (root / name).write_text("".join(
            json.dumps({**row, "image_id": meta["image_ids"].index(row["image_id"])}) + "\n"
            for row in rows), encoding="utf-8")
    meta["image_ids"] = list(range(len(meta["image_ids"])))
    (root / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def rename_image_id(root, old, new):
    """Replace image id ``old`` by ``new`` in the saved dataset's meta.json and row files."""
    for name in ("meta.json", "annotations.jsonl", "proposals.jsonl"):
        text = (root / name).read_text(encoding="utf-8")
        assert json.dumps(old) in text
        (root / name).write_text(text.replace(json.dumps(old), json.dumps(new)), encoding="utf-8")


@contextmanager
def time_limit(seconds):
    """Fail the test instead of hanging past ``seconds``."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def tiny_train_set():
    return generate_dataset(tiny_synth_config(), seed=3)


@pytest.fixture(scope="session")
def tiny_test_set():
    return generate_dataset(tiny_synth_config(num_images=8), seed=4)
