"""Training and detection end to end, plus background sampling limits."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import extract_one, fast_train_settings, forest_arrays, time_limit, tiny_synth_config
from oracles import oracle_background_draws, oracle_detections, oracle_training_candidates
from samhead import config, pipeline, routing
from samhead.dataset import Dataset, ImageSample
from samhead.forest import Forest, TrainConfig, TrainingError, Tree
from samhead.formats import read_detections_csv, write_detections_csv
from samhead.geometry import GroundTruth, ScoredBoxes
from samhead.maps import EdgeMap, FeatureMap, ImageRecord, LabelMap
from samhead.pipeline import (
    _collect_pca_samples,
    _training_samples,
    ablation_sweep,
    detect_dataset,
    detect_image,
    load_model,
    prior_logits,
    save_model,
    train_detector,
    write_sweep_csv,
)
from samhead.pooling import PoolGrid
from samhead.routing import (
    ChannelConfig,
    DescriptorExtractor,
    RoutingTable,
    ScaleBin,
    default_routing_table,
    pool_bin_cells,
)
from samhead.synth import default_synth_layers, generate_dataset


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
    save_model(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()


def test_model_with_one_fitted_bin_round_trips(tiny_train_set, tiny_test_set, tmp_path):
    # The small bin pools conv4a alone, the 64-channel target, so only the
    # large bin (conv4a + conv5a, 128 channels) gets a fitted projector.
    routing = RoutingTable(
        bins=(
            ScaleBin(50.0, 80.0, ("conv4a",), "small"),
            ScaleBin(80.0, None, ("conv4a", "conv5a"), "large"),
        ),
        grid=PoolGrid(4, 2),
    )
    settings = replace(fast_train_settings(), routing=routing)
    model, manifest = train_detector(tiny_train_set, settings)
    assert list(model.projectors) == ["large"]
    assert [manifest["pca"][pid]["identity"] for pid in ("small", "large")] == [True, False]
    save_model(tmp_path / "model.json", model)
    text = (tmp_path / "model.json").read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("\n")  # compact, one line
    saved = json.loads(text)
    assert saved["version"] == 7
    assert list(saved["projectors"]) == ["large"]
    # The file holds what detection reads, and nothing else.
    assert set(saved) == {"format", "version", "routing", "channels", "caps", "projectors",
                          "forest"}
    assert set(saved["routing"]) == {"bins", "grid", "target_dim"}
    assert set(saved["channels"]) == {"semantic", "edge", "edge_pooling"}
    assert set(saved["caps"]) == {"test_top_k"}
    assert set(saved["projectors"]["large"]) == {"mean", "basis"}
    projector = model.projectors["large"]
    mean, basis = (config.read_array(saved["projectors"]["large"][key], "<f8", key)
                   for key in ("mean", "basis"))
    assert mean.tobytes() == projector.mean.tobytes()
    assert basis.tobytes() == projector.basis.tobytes()
    assert projector.basis.shape == (model.table.target_dim, mean.size)
    forest = saved["forest"]
    assert set(forest) == {"prior_weight", "n_features", "sizes", "feature", "right", "value"}
    arrays = forest_arrays(forest)
    assert arrays["sizes"].sum() == arrays["feature"].size == arrays["value"].size

    loaded = load_model(tmp_path / "model.json")
    # Saving the loaded model writes the same bytes.
    save_model(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == text.encode("utf-8")
    trained = detect_dataset(model, tiny_test_set)
    write_detections_csv(tmp_path / "trained.csv", trained)
    write_detections_csv(tmp_path / "loaded.csv", detect_dataset(loaded, tiny_test_set))
    heights = np.concatenate([dets.boxes[:, 3] for dets in trained.values()])
    assert min(heights) < 80.0 <= max(heights)
    assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "trained.csv").read_bytes()


def test_thread_count_does_not_change_detections(trained, tiny_test_set):
    assert detect_dataset(trained, tiny_test_set, threads=2) == detect_dataset(
        trained, tiny_test_set, threads=1
    )


@pytest.mark.parametrize("bound", [1, 1 << 18, 1 << 40])
def test_batch_bound_never_changes_detections(trained, tiny_test_set, monkeypatch, bound):
    # One image per batch, a few images, or all of them: each batch gives
    # what detect_image, a batch of one, gives image by image.
    want = {s.image_id: detect_image(trained, s.record, s.proposals) for s in tiny_test_set}
    monkeypatch.setattr(pipeline, "_BATCH_FLOATS", bound)
    caps = [min(len(s.proposals), trained.caps.test_top_k) for s in tiny_test_set]
    n = len(tiny_test_set)
    batches = len(pipeline._batches(caps, trained.extractor.length))
    assert batches in {1: {n}, 1 << 18: set(range(2, n)), 1 << 40: {1}}[bound]
    assert detect_dataset(trained, tiny_test_set) == want
    assert detect_dataset(trained, tiny_test_set, threads=2) == want


def test_batches_are_runs_of_images_under_the_bound(monkeypatch):
    monkeypatch.setattr(pipeline, "_BATCH_FLOATS", 100)
    assert pipeline._batches([3, 0, 5, 2, 20, 1], 10) == [(0, 4), (4, 5), (5, 6)]
    assert pipeline._batches([], 10) == []
    monkeypatch.setattr(pipeline, "_BATCH_FLOATS", 1)
    assert pipeline._batches([3, 0, 5], 10) == [(0, 1), (1, 2), (2, 3)]


def test_training_samples_do_not_depend_on_the_batch_bound(tiny_train_set, monkeypatch):
    extractor = _conv4a_extractor(tiny_train_set)
    whole = _training_samples(tiny_train_set, extractor, MINING)
    monkeypatch.setattr(pipeline, "_BATCH_FLOATS", 1)
    for (X, priors), (want_X, want_priors) in zip(
        _training_samples(tiny_train_set, extractor, MINING), whole
    ):
        assert np.array_equal(X, want_X) and np.array_equal(priors, want_priors)


def test_boxes_past_floor_sized_maps_are_detected(trained, tiny_train_set):
    # A 66x130 image whose maps stop short of its right and bottom edges by
    # less than one of their cells, as ImageRecord allows.  Each proposal
    # starts at x = 64.5, right of every feature map's last column (64 px).
    rng = np.random.default_rng(2)
    maps = {name: FeatureMap(name, f.stride, rng.normal(
                size=(f.channels, 128 // f.stride, 64 // f.stride)).astype(np.float32))
            for name, f in tiny_train_set.samples[0].record.feature_maps.items()}
    record = ImageRecord("floor", 66, 130, maps,
                         LabelMap(rng.integers(0, 21, size=(129, 65)).astype(np.uint8)),
                         EdgeMap(rng.random((129, 65)).astype(np.float32)))
    boxes = [(64.5, 2.0, 1.0, 55.0), (64.5, 45.0, 1.2, 84.0), (10.0, 20.0, 25.0, 60.0)]
    dataset = Dataset([ImageSample(record, GroundTruth(), ScoredBoxes(boxes, [0.5] * 3))])
    with time_limit(20):
        dets = detect_dataset(trained, dataset)["floor"]
    assert sorted(map(tuple, dets.boxes.tolist())) == sorted(boxes)


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


def test_pca_rank_shortfall_is_a_training_error_naming_the_bin():
    # conv4a is constant, so the "large" bin's 3 pooled channels have rank 0
    # against the target of 2 that conv3 sets.
    rng = np.random.default_rng(0)
    samples = []
    for k in range(2):
        maps = {
            "conv3": FeatureMap("conv3", 4, rng.normal(size=(2, 30, 16))),
            "conv4a": FeatureMap("conv4a", 4, np.full((3, 30, 16), 0.5)),
        }
        samples.append(ImageSample(ImageRecord(f"c{k}", 64, 120, maps)))
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
    message = "projector for bin 'large': requested 2 components but the sample rank is 0"
    with time_limit(20), pytest.raises(TrainingError, match=message):
        train_detector(Dataset(samples), settings)


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


def hand_made_dataset():
    """64x128 images covering the corners of the candidate rule."""
    rng = np.random.default_rng(1)

    def image(name, ground_truth, boxes_and_scores):
        maps = {"conv4a": FeatureMap("conv4a", 4, rng.normal(size=(3, 32, 16)))}
        return ImageSample(
            ImageRecord(name, 64, 128, maps),
            ground_truth,
            ScoredBoxes([b for b, _ in boxes_and_scores], [s for _, s in boxes_and_scores]),
        )

    return Dataset([
        image("annotated",
              GroundTruth([(10, 20, 20, 50), (40, 60, 15, 40)], ignore=[False, True]),
              [((11, 21, 20, 50), 0.9),
               ((-30, 10, 20, 50), 0.95),  # best score, left of the image
               ((10, 20, 20, 50), 0.9),  # ties with the first, comes after it
               ((40, 60, 15, 40), 0.5),  # on the ignored annotation
               ((16, 30, 20, 50), 0.6),  # IoU 0.389 with the annotation
               ((64, 0, 10, 30), 0.7),  # starts at the right edge
               ((5, 100, 20, 40), 0.3),  # runs past the bottom edge
               ((30, 70, 20, 50), 0.4),
               ((0, 0, 10, 30), 0.01)]),
        image("unannotated", GroundTruth(),
              [((0, 0, 20, 50), 0.8), ((10, -60, 20, 50), 0.9), ((30, 60, 20, 50), 0.2)]),
        image("only-ignored", GroundTruth([(20, 40, 20, 50)], ignore=[True]),
              [((20, 40, 20, 50), 0.6), ((21, 42, 20, 50), 0.5), ((0, 70, 20, 50), 0.4)]),
        image("no-proposals", GroundTruth([(20, 40, 20, 50)]), []),
        image("tied", GroundTruth([(20, 40, 20, 50)]),  # eight boxes per score
              [((2.0 * k, 3.0 * k, 20, 50), (0.3, 0.5, 0.7)[k % 3]) for k in range(24)]),
    ])


def _conv4a_extractor(dataset):
    """An extractor whose descriptors are conv4a pooled on a 2x2 grid, for every height."""
    return DescriptorExtractor(
        RoutingTable(
            bins=(ScaleBin(1.0, None, ("conv4a",), "only"),),
            grid=PoolGrid(2, 2),
            target_dim=dataset.layer_channels()["conv4a"],
        ),
        {},
    )


#: A schedule that mines, so ``_training_samples`` extracts the pool.
MINING = TrainConfig(stage_tree_counts=(1, 1), initial_negatives=300, seed=7)


def _expected_samples(extractor, dataset, selected):
    """Rows and priors of oracle picks, extracted image by image as `_training_samples` does."""
    rows, priors = [], []
    for i, s in enumerate(dataset):
        mine = [pick for pick in selected if pick[0] == i]
        if mine:
            rows.append(extract_one(extractor, s.record, np.array([pick[1] for pick in mine])))
            priors.extend(prior_logits([pick[2] for pick in mine]))
    X = np.vstack(rows) if rows else np.empty((0, extractor.length), dtype=np.float32)
    return X, np.asarray(priors, dtype=np.float64)


@pytest.mark.parametrize("top_k", [6, 1000])
@pytest.mark.parametrize("pos_iou, neg_iou", [(0.5, 0.3), (0.4, 0.4), (0.35, 0.2), (0.0, 0.0)])
@pytest.mark.parametrize("data", ["tiny", "hand-made"])
def test_training_samples_follow_the_candidate_rule(
    request, monkeypatch, data, top_k, pos_iou, neg_iou
):
    dataset = request.getfixturevalue("tiny_train_set") if data == "tiny" else hand_made_dataset()
    monkeypatch.setattr(pipeline, "POS_IOU", pos_iou)
    monkeypatch.setattr(pipeline, "NEG_IOU", neg_iou)
    monkeypatch.setattr(pipeline, "TRAIN_TOP_K", top_k)
    # At NEG_IOU 0 no background box qualifies; the draw has its own test.
    monkeypatch.setattr(pipeline, "_draw_background_boxes",
                        lambda *args, **kwargs: (np.array([0]), np.array([[0.0, 0, 10, 30]])))
    extractor = _conv4a_extractor(dataset)
    want_positives, want_pool = oracle_training_candidates(dataset, top_k, pos_iou, neg_iou)

    assert want_positives
    positives, _, pool = _training_samples(dataset, extractor, MINING)
    for (X, priors), want in ((positives, want_positives), (pool, want_pool)):
        want_X, want_priors = _expected_samples(extractor, dataset, want)
        assert np.array_equal(X, want_X)
        assert np.array_equal(priors, want_priors)


def test_images_without_a_real_annotation_give_no_positive(monkeypatch):
    unannotated = Dataset(hand_made_dataset().samples[1:3])
    monkeypatch.setattr(pipeline, "POS_IOU", 0.0)
    monkeypatch.setattr(pipeline, "NEG_IOU", 0.0)
    with pytest.raises(TrainingError, match="no proposal reaches IoU 0.0"):
        _training_samples(unannotated, _conv4a_extractor(unannotated), MINING)


@pytest.mark.parametrize("neg_iou", [0.3, 0.05])
def test_background_negatives_keep_the_oracle_draws(tiny_train_set, monkeypatch, neg_iou):
    monkeypatch.setattr(pipeline, "NEG_IOU", neg_iou)
    extractor = _conv4a_extractor(tiny_train_set)
    drawn = []
    draw = pipeline._draw_background_boxes

    def recording_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(pipeline, "_draw_background_boxes", recording_draw)
    _, (X, priors), _ = _training_samples(tiny_train_set, extractor, MINING)
    want, rejected = oracle_background_draws(tiny_train_set, 1.0, None, 300, neg_iou, seed=7)
    assert rejected > 0
    ((image, boxes),) = drawn
    assert image.tolist() == [i for i, _ in want]
    assert boxes.tolist() == [list(b) for _, b in want]
    samples = list(tiny_train_set)
    rows = [
        extract_one(extractor, s.record, np.array([b for i, b in want if i == k]))
        for k, s in enumerate(samples)
        if any(i == k for i, _ in want)
    ]
    assert np.array_equal(X, np.vstack(rows))
    assert np.array_equal(priors, np.full(len(want), prior_logits(0.1)))


@pytest.mark.parametrize("schedule, budget, mines", [
    ((4,), 40, False),
    ((4, 8), 0, False),
    ((4, 8), 40, True),
])
def test_only_a_schedule_that_mines_extracts_and_scores_the_pool(
    tiny_train_set, monkeypatch, schedule, budget, mines
):
    extracted, scored = [], []
    extract_many, score = DescriptorExtractor.extract_many, Forest.score
    monkeypatch.setattr(DescriptorExtractor, "extract_many",
                        lambda self, records, boxes, counts: extracted.append(len(boxes))
                        or extract_many(self, records, boxes, counts))
    monkeypatch.setattr(Forest, "score", lambda *a, **k: scored.append(1) or score(*a, **k))
    settings = fast_train_settings(stage_tree_counts=schedule, hard_negatives_per_stage=budget)
    _, manifest = train_detector(tiny_train_set, settings)

    positives, pool = oracle_training_candidates(
        tiny_train_set, pipeline.TRAIN_TOP_K, pipeline.POS_IOU, pipeline.NEG_IOU
    )
    background = manifest["stages"][0]["negatives"]
    assert sum(extracted) == len(positives) + background + (len(pool) if mines else 0)
    assert len(scored) == (len(schedule) - 1 if mines else 0)
    assert (manifest["stages"][-1]["hard_added"] > 0) == mines


def test_mining_can_take_every_pool_row_whatever_the_image_ids(tiny_train_set):
    # An image named "bg" once shared its pool rows' keys with the background
    # negatives, so its best-ranked candidates could never be mined.
    first = tiny_train_set.samples[0]
    renamed = Dataset([ImageSample(replace(first.record, image_id="bg"), first.ground_truth,
                                   first.proposals), *tiny_train_set.samples[1:]])
    _, pool = oracle_training_candidates(
        renamed, pipeline.TRAIN_TOP_K, pipeline.POS_IOU, pipeline.NEG_IOU
    )
    settings = fast_train_settings(hard_negatives_per_stage=len(pool))
    _, manifest = train_detector(renamed, settings)
    assert [s["hard_added"] for s in manifest["stages"]] == [0, len(pool)]


def test_detections_read_back_and_write_the_same_csv(trained, tiny_test_set, tmp_path):
    dets = detect_dataset(trained, tiny_test_set)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    write_detections_csv(one, dets)
    read = read_detections_csv(one)
    assert read == {k: v for k, v in dets.items() if v}
    write_detections_csv(two, read)
    assert one.read_bytes() == two.read_bytes()


def test_an_image_without_candidates_detects_an_empty_record(trained, tiny_test_set):
    sample = tiny_test_set.samples[0]
    for proposals in (ScoredBoxes(), ScoredBoxes([(-50.0, 0.0, 20.0, 50.0)], [0.9])):
        dets = detect_image(trained, sample.record, proposals)
        assert dets == ScoredBoxes() and not dets


def test_pca_rows_are_positives_image_by_image_then_background_in_draw_order(
    tiny_train_set, monkeypatch
):
    table = default_routing_table(grid=PoolGrid(3, 2))
    drawn = []
    draw = pipeline._draw_background_boxes

    def recording_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(pipeline, "_draw_background_boxes", recording_draw)
    samples, n_pos = _collect_pca_samples(tiny_train_set, table, 1, 128, 64, 5)
    # One pooled box at a time, in the documented order.  Synthesis places
    # every pedestrian inside its image.
    want = []
    for s in tiny_train_set:
        g = s.ground_truth
        for box, ignore in zip(g.boxes, g.ignore.tolist()):
            if not ignore and box[3] >= 80.0:
                want.append(pool_bin_cells(s.record, box, table, 1))
    assert n_pos == len(want) * table.grid.cells > 0
    ((image, boxes),) = drawn
    assert len(set(image.tolist())) > 1
    records = [s.record for s in tiny_train_set]
    want += [pool_bin_cells(records[i], box, table, 1) for i, box in zip(image.tolist(), boxes)]
    assert samples.dtype == np.float64
    assert samples.tobytes() == np.vstack(want).astype(np.float64).tobytes()


# The benchmark's settings at test size: speed_train's 6x3 grid on the
# default world; quality_aux's 4x2 grid, 32-channel conv3, and semantic and
# edge-histogram channels.  Depth-5 trees on 256 bins read more columns than
# depth-2 trees on 32.
BENCHMARK_LIKE = {
    "speed_train": ((6, 3), 64, ChannelConfig()),
    "quality_aux": ((4, 2), 32, AUX),
}


@pytest.fixture(scope="module", params=sorted(BENCHMARK_LIKE))
def benchmark_like(request):
    grid, conv3, channels = BENCHMARK_LIKE[request.param]
    layers = dict(default_synth_layers())
    layers["conv3"] = replace(layers["conv3"], channels=conv3)
    train = generate_dataset(tiny_synth_config(layers=layers), seed=3)
    test = generate_dataset(tiny_synth_config(num_images=8, layers=layers), seed=4)
    settings = replace(fast_train_settings(max_depth=5, max_bins=256),
                       routing=default_routing_table(grid=PoolGrid(*grid)), channels=channels)
    model, _ = train_detector(train, settings)
    return model, test


def same_bits(got: dict, want: dict) -> bool:
    return list(got) == list(want) and all(
        got[k].boxes.tobytes() == want[k].boxes.tobytes()
        and got[k].scores.tobytes() == want[k].scores.tobytes() for k in want)


@pytest.mark.parametrize("rows_only", [False, True])
@pytest.mark.parametrize("splits", [True, False])
def test_detection_matches_the_full_descriptor_reference(benchmark_like, monkeypatch,
                                                         rows_only, splits):
    model, test = benchmark_like
    if splits:
        assert 0 < model.forest.columns.size < model.extractor.length
    else:
        leaf = Tree(np.array([-1]), np.array([-1]), np.array([0.25]))
        model = replace(model, forest=Forest.pack(
            [leaf], model.forest.prior_weight, model.forest.n_features))
        assert model.forest.columns.size == 0
    if rows_only:  # every layer with a used column takes the pixel-row gather
        monkeypatch.setattr(routing, "PAIR_GATHER_SHARE", 0.0)
    want = oracle_detections(model, test)
    assert sum(len(d) for d in want.values()) > 0
    assert same_bits(detect_dataset(model, test), want)
    assert same_bits({s.image_id: detect_image(model, s.record, s.proposals) for s in test}, want)
