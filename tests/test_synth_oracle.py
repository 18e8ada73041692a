"""The batched generator against the per-channel original in ``tests/oracles.py``.

Both outputs must agree bit for bit: every feature, label and edge map,
every ground-truth box and proposal, and every file ``Dataset.save`` writes.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import tiny_synth_config
from oracles import oracle_generate_dataset
from samhead.synth import LayerSpec, SynthConfig, default_synth_layers, generate_dataset


def _assert_bit_equal(got, want):
    assert got.meta == want.meta
    assert got.image_ids == want.image_ids
    for a, b in zip(got.samples, want.samples):
        assert a.ground_truth == b.ground_truth
        assert a.proposals == b.proposals
        ra, rb = a.record, b.record
        assert (ra.image_w, ra.image_h) == (rb.image_w, rb.image_h)
        assert list(ra.feature_maps) == list(rb.feature_maps)
        for name, fm in ra.feature_maps.items():
            other = rb.feature_maps[name]
            assert fm.stride == other.stride
            assert fm.data.shape == other.data.shape
            assert fm.data.tobytes() == other.data.tobytes(), name
        assert ra.label_map.data.tobytes() == rb.label_map.data.tobytes()
        assert ra.edge_map.data.tobytes() == rb.edge_map.data.tobytes()


def _assert_same_files(got, want, tmp_path):
    one, two = tmp_path / "batched", tmp_path / "oracle"
    got.save(one)
    want.save(two)
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    assert len(files) == 3 + 3 * len(got)
    for rel in files:
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), str(rel)


def _hard_synth():
    """The benchmark's test-set synth: low amplitudes, denser scenes, conv3 at 32 channels."""
    layers = dict(default_synth_layers())
    layers["conv3"] = replace(layers["conv3"], channels=32)
    return SynthConfig(num_images=3, class_amp=0.9, contour_amp=1.2, peds_per_image=(3, 5),
                       layers=layers)


CONFIGS = {
    "tiny": lambda: tiny_synth_config(num_images=3),
    # Crowded enough that placement drops some objects.
    "crowded": lambda: SynthConfig(num_images=3, peds_per_image=(16, 16), background_proposals=5),
    "hard_conv3_32": _hard_synth,
    "strides_1_2_16": lambda: tiny_synth_config(
        num_images=2,
        layers={
            "fine": LayerSpec(stride=1, channels=24, band_center=40.0),
            "mid": LayerSpec(stride=2, channels=32, band_center=70.0),
            "coarse": LayerSpec(stride=16, channels=24, band_center=120.0),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batched_generator_writes_the_oracles_files(name, tmp_path):
    cfg = CONFIGS[name]()
    got = generate_dataset(cfg, seed=31)
    want = oracle_generate_dataset(cfg, seed=31)
    _assert_bit_equal(got, want)
    _assert_same_files(got, want, tmp_path)


_LAYER_NAMES = ("conv3", "conv4a", "conv5a")


@st.composite
def synth_configs(draw):
    layers = {
        name: LayerSpec(stride=draw(st.sampled_from([2, 4, 8])),
                        channels=draw(st.sampled_from([20, 24, 32])),
                        band_center=draw(st.floats(30.0, 160.0)))
        for name in _LAYER_NAMES[: draw(st.integers(1, 3))]
    }
    lo = draw(st.integers(0, 3))
    return SynthConfig(
        num_images=draw(st.integers(1, 2)),
        layers=layers,
        peds_per_image=(lo, draw(st.integers(max(lo, 1), 7))),
        background_proposals=draw(st.integers(0, 80)),
        class_amp=draw(st.floats(-3.0, 3.0)),
        contour_amp=draw(st.floats(0.0, 4.0)),
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=synth_configs(), seed=st.integers(0, 2**32 - 1))
def test_batched_generator_matches_oracle_on_random_knobs(cfg, seed):
    _assert_bit_equal(generate_dataset(cfg, seed), oracle_generate_dataset(cfg, seed))
