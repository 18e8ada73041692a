"""Training and inference orchestration.

Wires the pieces together: fit per-bin projectors, build descriptors for
proposal boxes, run the staged boosting schedule, then score and NMS test
proposals.  Also holds model (de)serialization and the layer-ablation sweep.

Training extracts full descriptor rows.  Detection extracts only the
columns the forest splits on (``Forest.columns``; see ``routing`` for how
they are pooled) and scores them with the forest renumbered onto those
columns (``Forest.on_columns``), built once per ``DetectorModel``.  Every
margin, and so every detection, is bit-equal to scoring full rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import config
from .dataset import Dataset
from .errors import ConfigError, DataError
from .evaluation import EvalProtocol, evaluate_detections, log_average_miss_rate
from .forest import Forest, TrainConfig, TrainingError, bootstrap_train
from .formats import read_json
from .geometry import ScoredBoxes, iou_matrix, nms
from .maps import ImageRecord
from .pca import PcaError, PcaProjector, fit_pca
# pool_bin_cells is not called here; it stays importable from this module
# because perfbench/tracing.py hooks it here.
from .routing import (  # noqa: F401
    ChannelConfig,
    DescriptorExtractor,
    RoutingTable,
    ScaleBin,
    default_routing_table,
    pool_bin_cells,
    pool_bin_stacks,
)

MODEL_FORMAT = "samhead-model"
MODEL_VERSION = 7
# The keys a model file holds at each level; ``model_from_dict`` rejects others
# (``Forest.from_dict`` checks the forest section's).
_MODEL_KEYS = ("format", "version", "routing", "channels", "caps", "projectors", "forest")
_PROJECTOR_KEYS = ("mean", "basis")

_BG_ASPECT = 0.41  # width/height of sampled background boxes

# Training samples: a candidate at IoU >= POS_IOU with a non-ignored
# annotation is a positive; one under NEG_IOU with every annotation may be a
# negative.  Training draws from each image's top TRAIN_TOP_K proposals.
POS_IOU = 0.5
NEG_IOU = 0.3
TRAIN_TOP_K = 1000
# Rows per projector fit: at most PCA_SAMPLE_CAP, and at least
# max(2 * target_dim, PCA_MIN_SAMPLES) where the background boxes allow.
PCA_SAMPLE_CAP = 100000
PCA_MIN_SAMPLES = 512
# A proposal's score enters the forest as its log-odds, clamped to
# +/- PRIOR_LOGIT_CLAMP; background boxes, which have no score, get
# BACKGROUND_PRIOR_SCORE.
PRIOR_LOGIT_CLAMP = 10.0
BACKGROUND_PRIOR_SCORE = 0.1
# NMS drops a detection whose IoU with a better-scored survivor exceeds this.
NMS_THRESHOLD = 0.5
# Descriptor floats one batch of images holds at most (4 MiB of float32),
# beside pooling's gather bound.  Detection and training extract images in
# consecutive batches under it; it bounds memory and never changes a result,
# so it is not a setting.
_BATCH_FLOATS = 1 << 20


@dataclass(frozen=True)
class Caps:
    """Per-image proposal budget of detection."""

    test_top_k: int = 100

    def __post_init__(self) -> None:
        if self.test_top_k < 1:
            raise ConfigError(f"test_top_k must be >= 1, got {self.test_top_k}")


@dataclass(frozen=True)
class TrainSettings:
    """Everything train_detector needs besides the dataset itself."""

    routing: RoutingTable = field(default_factory=default_routing_table)
    channels: ChannelConfig = field(default_factory=ChannelConfig)
    forest: TrainConfig = field(default_factory=TrainConfig)
    caps: Caps = field(default_factory=Caps)

    def __post_init__(self) -> None:
        _check_prior_weight(self.forest.prior_weight)


def _check_prior_weight(prior_weight: float) -> None:
    """ConfigError unless ``prior_weight`` times every prior logit is finite."""
    if not math.isfinite(prior_weight * PRIOR_LOGIT_CLAMP):
        raise ConfigError(
            f"prior_weight {prior_weight} times the prior logit bound {PRIOR_LOGIT_CLAMP} "
            "is not finite"
        )


def settings_hash(settings: TrainSettings) -> str:
    """Stable 16-hex digest of the full training configuration."""
    blob = json.dumps(asdict(settings), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def prior_logits(scores) -> np.ndarray:
    """Proposal scores in (0, 1) mapped to log-odds clamped to +/- PRIOR_LOGIT_CLAMP."""
    s = np.clip(np.asarray(scores, dtype=np.float64), 1e-9, 1.0 - 1e-9)
    return np.clip(np.log(s / (1.0 - s)), -PRIOR_LOGIT_CLAMP, PRIOR_LOGIT_CLAMP)


def _inside(record: ImageRecord, boxes: np.ndarray) -> np.ndarray:
    """Which (x, y, w, h) boxes overlap the image with a positive area."""
    x, y, w, h = boxes.T
    return (x < record.image_w) & (y < record.image_h) & (x + w > 0) & (y + h > 0)


def _candidates(record: ImageRecord, proposals: ScoredBoxes, k: int) -> ScoredBoxes:
    """The image's top-k proposals by score (ties keep input order) that lie inside it,
    best first."""
    top = np.argsort(-proposals.scores, kind="stable")[:k]
    return proposals.take(top[_inside(record, proposals.boxes[top])])


def _batches(counts: list[int], row_floats: int) -> list[tuple[int, int]]:
    """Consecutive image ranges ``[a, b)`` whose rows, ``counts[i]`` per image of
    ``row_floats`` floats each, hold at most ``_BATCH_FLOATS`` floats together.

    An image whose rows alone exceed the bound is a batch of its own.
    """
    spans, first, floats = [], 0, 0
    for i, n in enumerate(counts):
        if i > first and floats + n * row_floats > _BATCH_FLOATS:
            spans.append((first, i))
            first, floats = i, 0
        floats += n * row_floats
    if first < len(counts):
        spans.append((first, len(counts)))
    return spans


def _extract(
    extractor: DescriptorExtractor, records: list[ImageRecord], boxes_per_image: list[np.ndarray]
) -> np.ndarray:
    """Descriptor rows of each image's boxes, image after image, extracted in batches."""
    counts = [len(b) for b in boxes_per_image]
    out = np.empty((sum(counts), extractor.length), dtype=np.float32)
    row = 0
    for a, b in _batches(counts, extractor.length):
        n = sum(counts[a:b])
        if n:
            out[row : row + n] = extractor.extract_many(
                records[a:b], np.concatenate(boxes_per_image[a:b]), counts[a:b]
            )
        row += n
    return out


def _best_iou(boxes: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Each box's highest IoU with any of ``others``; 0 when there are none."""
    return iou_matrix(boxes, others).max(axis=1, initial=0.0)


def _training_samples(dataset: Dataset, extractor: DescriptorExtractor, cfg: TrainConfig):
    """The positives, background negatives and hard-negative pool ``bootstrap_train`` takes.

    Each is a pair (X, priors): one float32 descriptor row and one prior
    logit per sample.  Training draws from the same candidates detection
    scores: each image's top ``TRAIN_TOP_K`` proposals inside the image (see
    ``_candidates``).  Positives are those at IoU >= ``POS_IOU`` with a
    non-ignored annotation.  The pool keeps those under ``NEG_IOU`` with
    every annotation, ignored ones included, so don't-care regions seed no
    negatives.  Both are in image order, then rank order, with the
    proposal's prior.  The background negatives are ``cfg.initial_negatives``
    random boxes drawn with ``cfg.seed`` and rejection-sampled under the
    same overlap rule (``_draw_background_boxes``), in image order, then
    draw order, with the prior of a ``BACKGROUND_PRIOR_SCORE`` proposal.

    The work, and its errors, come in that order: positives (a TrainingError
    when there is none, or a scale bin gets none), then the background draw,
    then the pool.  The pool is extracted only when some stage can mine it,
    that is with more than one stage and ``hard_negatives_per_stage > 0``;
    otherwise it is empty.
    """
    table = extractor.table
    images = [(s, _candidates(s.record, s.proposals, TRAIN_TOP_K)) for s in dataset]
    records = [s.record for s, _ in images]

    def extract(boxes_per_image: list[np.ndarray]) -> np.ndarray:
        return _extract(extractor, records, boxes_per_image)

    def select(masks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Descriptors and priors of the candidates each image's mask keeps."""
        X = extract([c.boxes[m] for (_, c), m in zip(images, masks)])
        priors = [prior_logits(c.scores[m]) for (_, c), m in zip(images, masks)]
        return X, np.concatenate([np.empty(0), *priors])

    gt_boxes = [s.ground_truth.boxes for s, _ in images]
    positive = []
    for (s, c), gt in zip(images, gt_boxes):
        real = gt[~s.ground_truth.ignore]
        # An image without a real annotation gives no positive, even at POS_IOU 0.
        positive.append(
            _best_iou(c.boxes, real) >= POS_IOU if len(real) else np.zeros(len(c), bool)
        )
    heights = np.concatenate([np.empty(0), *(c.boxes[m, 3] for (_, c), m in zip(images, positive))])
    if not heights.size:
        raise TrainingError(f"no proposal reaches IoU {POS_IOU} with a non-ignored annotation")
    per_bin = np.bincount(table.route(heights), minlength=len(table.bins))
    for b, n in zip(table.bins, per_bin.tolist()):
        if n == 0:
            raise TrainingError(
                f"scale bin {b.projector_id!r} [{b.min_height}, {b.max_height}) "
                "received no positive samples; restrict the routing table or widen "
                "the training subset"
            )
    positives = select(positive)

    def clear_of_annotations(i: int, box: np.ndarray) -> bool:
        return iou_matrix(box, gt_boxes[i]).max(initial=0.0) < NEG_IOU

    image, boxes = _draw_background_boxes(
        np.random.default_rng(cfg.seed),
        records,
        table.bins[0].min_height,
        table.bins[-1].max_height,
        cfg.initial_negatives,
        keep=clear_of_annotations,
    )
    X = extract([boxes[image == i] for i in range(len(images))])
    background = X, np.full(X.shape[0], prior_logits(BACKGROUND_PRIOR_SCORE), dtype=np.float64)

    if len(cfg.stage_tree_counts) > 1 and cfg.hard_negatives_per_stage > 0:
        pool = select([_best_iou(c.boxes, gt) < NEG_IOU for (_, c), gt in zip(images, gt_boxes)])
    else:  # no stage mines
        pool = extract([]), np.empty(0)
    return positives, background, pool


def _draw_background_boxes(
    rng: np.random.Generator,
    records: list[ImageRecord],
    min_height: float,
    max_height: float | None,
    count: int,
    keep=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample up to ``count`` random boxes: (record index, (x, y, w, h) row) arrays
    in draw order.

    Each attempt picks an image tall enough for ``min_height``, a height in
    [min_height, max_height) capped by the image, a width of ``_BG_ASPECT``
    times the height, and a position inside the image; ``keep(i, box)`` may
    still reject the box.  Attempts are capped at ``200 * count + 1000``;
    placing no box at all is a TrainingError, placing fewer than ``count``
    a warning.  An attempt's draws depend on the one before, so they run one by one.
    """
    usable = [i for i, rec in enumerate(records) if rec.image_h - 2.0 > min_height]
    if not usable:
        raise TrainingError(
            f"no image is tall enough to hold a height->{min_height} background box"
        )
    image, boxes = [], []
    attempts, max_attempts = 0, 200 * count + 1000
    while len(boxes) < count and attempts < max_attempts:
        attempts += 1
        i = usable[int(rng.integers(len(usable)))]
        rec = records[i]
        hmax = min(max_height if max_height is not None else rec.image_h - 2.0,
                   rec.image_h - 2.0)
        if hmax <= min_height:
            continue
        h = float(rng.uniform(min_height, hmax))
        w = _BG_ASPECT * h
        if w >= rec.image_w - 2.0:
            continue
        box = np.array([rng.uniform(0.0, rec.image_w - w - 1.0),
                        rng.uniform(0.0, rec.image_h - h - 1.0), w, h])
        if keep is not None and not keep(i, box):
            continue
        image.append(i)
        boxes.append(box)
    if count > 0 and not boxes:
        raise TrainingError(
            f"could not place a single background box of height >= {min_height} "
            f"in {max_attempts} attempts"
        )
    if len(boxes) < count:
        warnings.warn(
            f"background sampling placed {len(boxes)} of {count} requested boxes",
            stacklevel=3,
        )
    return np.array(image, dtype=np.int64), np.array(boxes).reshape(-1, 4)


def _collect_pca_samples(
    dataset: Dataset,
    table: RoutingTable,
    bin_index: int,
    bin_dim: int,
    target_dim: int,
    seed,
) -> tuple[np.ndarray, int]:
    """Per-cell channel vectors for fitting one bin's projector.

    Annotated pedestrians in the bin's height range supply up to half the
    cap; random background boxes (overlap with objects is harmless here)
    fill the rest, and always enough of them that the covariance can reach
    the requested rank.
    """
    rng = np.random.default_rng(seed)
    spec = table.bins[bin_index]
    records = [s.record for s in dataset]

    def pooled(boxes: np.ndarray, counts) -> np.ndarray:
        """Each box's per-cell channel vectors, (N, m*n, bin_dim), as ``pool_bin_stacks``."""
        if not len(boxes):
            return np.empty((0, table.grid.cells, bin_dim), dtype=np.float32)
        return pool_bin_stacks(records, boxes, counts, table, bin_index)

    mine = []
    for s in dataset:
        g = s.ground_truth
        mine.append(g.boxes[~g.ignore & (table.route(g.boxes[:, 3]) == bin_index)
                            & _inside(s.record, g.boxes)])
    pos = pooled(np.concatenate(mine), [len(b) for b in mine]).reshape(-1, bin_dim)
    half = PCA_SAMPLE_CAP // 2
    if pos.shape[0] > half:
        sel = rng.choice(pos.shape[0], size=half, replace=False)
        sel.sort()
        pos = pos[sel]
    min_total = max(2 * target_dim, PCA_MIN_SAMPLES)
    bg_needed = max(pos.shape[0], min_total - pos.shape[0])
    bg_needed = min(bg_needed, PCA_SAMPLE_CAP - pos.shape[0])

    # Every background box adds one row per grid cell.  The boxes are pooled
    # grouped by image, and their rows go back to draw order.
    cells = table.grid.cells
    image, boxes = _draw_background_boxes(
        rng, records, spec.min_height, spec.max_height, max(0, -(-bg_needed // cells))
    )
    order = np.argsort(image, kind="stable")
    bg = np.empty((len(boxes), cells, bin_dim), dtype=np.float32)
    bg[order] = pooled(boxes[order], np.bincount(image, minlength=len(records)))
    return np.vstack([pos, bg.reshape(-1, bin_dim)]).astype(np.float64), pos.shape[0]


@dataclass
class DetectorModel:
    """A trained detector: routing, the fitted projectors, channel config, and the forest.

    Construction also builds the descriptor extractor and the forest that
    detection scores with, renumbered onto the columns it reads.
    """

    table: RoutingTable
    projectors: dict[str, PcaProjector]
    channels: ChannelConfig
    forest: Forest
    caps: Caps = field(default_factory=Caps)

    def __post_init__(self) -> None:
        _check_prior_weight(self.forest.prior_weight)
        self._extractor = DescriptorExtractor(self.table, self.projectors, self.channels)
        if self.forest.n_features != self._extractor.length:
            raise ConfigError(
                f"forest scores {self.forest.n_features} features but descriptors "
                f"have {self._extractor.length}"
            )
        self._detect_forest = self.forest.on_columns()

    @property
    def extractor(self) -> DescriptorExtractor:
        return self._extractor


def train_detector(dataset: Dataset, settings: TrainSettings) -> tuple[DetectorModel, dict]:
    """Fit projectors, run the staged boosting schedule, return model + manifest.

    The manifest is JSON-ready and fully determined by (dataset, settings):
    config hash, seed, per-bin projector report, and per-stage training logs.
    """
    if len(dataset) == 0:
        raise TrainingError("cannot train on an empty dataset")
    layer_dims = dataset.layer_channels()
    table = settings.routing
    bin_dims = []
    for b in table.bins:
        missing = [n for n in b.layers if n not in layer_dims]
        if missing:
            raise ConfigError(
                f"routing bin {b.projector_id!r} wants layers {missing}, dataset has "
                f"{sorted(layer_dims)}"
            )
        bin_dims.append(sum(layer_dims[n] for n in b.layers))
    target = table.target_dim if table.target_dim else min(bin_dims)
    low = [b.projector_id for b, d in zip(table.bins, bin_dims) if d < target]
    if low:
        raise ConfigError(
            f"bins {low} pool fewer than the {target} target channels per cell"
        )
    table = replace(table, target_dim=target)

    pca_seeds = np.random.SeedSequence(settings.forest.seed).spawn(len(table.bins))
    projectors: dict[str, PcaProjector] = {}
    pca_report: dict[str, dict] = {}
    for i, (b, dim) in enumerate(zip(table.bins, bin_dims)):
        if dim == target:  # the bin's pooled stack is already the target width
            pca_report[b.projector_id] = {
                "identity": True,
                "input_dim": dim,
                "output_dim": target,
                "energy": 1.0,
                "samples": 0,
                "positive_samples": 0,
            }
            continue
        samples, n_pos = _collect_pca_samples(dataset, table, i, dim, target, pca_seeds[i])
        try:
            proj, energy = fit_pca(samples, components=target)
        except PcaError as e:
            raise TrainingError(
                f"projector for bin {b.projector_id!r}: {e}; supply more training data"
            ) from e
        projectors[b.projector_id] = proj
        pca_report[b.projector_id] = {
            "identity": False,
            "input_dim": dim,
            "output_dim": target,
            "energy": energy,
            "samples": int(samples.shape[0]),
            "positive_samples": int(n_pos),
        }

    extractor = DescriptorExtractor(table, projectors, settings.channels)
    forest, history = bootstrap_train(
        *_training_samples(dataset, extractor, settings.forest), settings.forest
    )
    model = DetectorModel(
        table=table,
        projectors=projectors,
        channels=settings.channels,
        forest=forest,
        caps=settings.caps,
    )
    manifest = {
        "config_hash": settings_hash(settings),
        "seed": settings.forest.seed,
        "descriptor_length": extractor.length,
        "target_dim": target,
        "dataset": {
            "images": len(dataset),
            "generator_seed": dataset.meta.get("seed"),
        },
        "caps": asdict(settings.caps),
        "pca": pca_report,
        "stages": [asdict(h) for h in history],
    }
    return model, manifest


# --- inference ----------------------------------------------------------------


def _detect_batch(
    model: DetectorModel, records: list[ImageRecord], proposals: list[ScoredBoxes]
) -> list[ScoredBoxes]:
    """``detect_image`` of each image, with every image's candidates scored as one batch."""
    cands = [_candidates(r, p, model.caps.test_top_k) for r, p in zip(records, proposals)]
    counts = [len(c) for c in cands]
    if not any(counts):
        return cands
    boxes = np.concatenate([c.boxes for c in cands])
    X = model.extractor.extract_many(records, boxes, counts, columns=model.forest.columns)
    priors = prior_logits(np.concatenate([c.scores for c in cands]))
    margins = model._detect_forest.score(X, priors)
    out, row = [], 0
    for c, n in zip(cands, counts):
        out.append(nms(ScoredBoxes(c.boxes, margins[row : row + n]), NMS_THRESHOLD) if n else c)
        row += n
    return out


def detect_image(
    model: DetectorModel, record: ImageRecord, proposals: ScoredBoxes
) -> ScoredBoxes:
    """Score the image's candidates and return NMS survivors, best first.

    The candidates are the top ``caps.test_top_k`` proposals by score that
    lie inside the image, the same rule training draws its samples by.  A
    detection's score is the forest's margin.  This is ``detect_dataset``'s
    batch path run on a batch of one image, so both give the same bytes.
    """
    return _detect_batch(model, [record], [proposals])[0]


def detect_dataset(
    model: DetectorModel, dataset: Dataset, threads: int = 1
) -> dict[str, ScoredBoxes]:
    """Detections per image id, as ``detect_image`` gives them.

    Images are scored in consecutive batches, each holding at most
    ``_BATCH_FLOATS`` descriptor floats for its images' candidate caps.  The
    bound caps memory and is not a setting: a box's descriptor and margin do
    not depend on its batch.  A batch's candidates go to ``extract_many``
    image after image, with each image's candidate count.  Per batch, routing,
    box mapping, pooling windows, each bin's PCA projection and forest scoring
    run once; only the gather from each image's maps and NMS run per image.  With
    ``threads`` > 1 a thread pool works through the batches (``threads`` < 1
    means one per CPU); the thread count never changes the result.
    """
    import os

    samples = list(dataset)
    if threads < 1:
        threads = os.cpu_count() or 1
    caps = [min(len(s.proposals), model.caps.test_top_k) for s in samples]

    def run(span: tuple[int, int]) -> list[ScoredBoxes]:
        batch = samples[span[0] : span[1]]
        return _detect_batch(model, [s.record for s in batch], [s.proposals for s in batch])

    spans = _batches(caps, model.extractor.length)
    if threads == 1:
        results = [run(span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(run, spans))
    return {s.image_id: d for s, d in zip(samples, (d for r in results for d in r))}


# --- model serialization --------------------------------------------------------


def model_to_dict(model: DetectorModel) -> dict:
    """The model file's content, version 7.

    Every numeric array is one string, the padded standard base64 of its
    little-endian bytes (``config.write_array``).

    ``projectors`` maps the id of each bin that needs a projection to its
    ``mean`` (D float64s) and ``basis`` (d * D float64s, the d x D matrix
    row by row, d the routing table's ``target_dim``); a bin whose layers
    pool the target width has no entry.

    The ``forest`` section holds the JSON scalars ``prior_weight`` and
    ``n_features``, ``sizes`` (the node count of each tree, in tree order,
    int32) and one array each for ``feature`` and ``right`` (int32) and
    ``value`` (float64): every tree's preorder nodes, end to end.  A leaf has
    feature and right child -1 and its score as value; a split has its
    threshold as value, its left child is the next node, and ``right``
    counts from the first node of its own tree.
    """
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "routing": asdict(model.table),
        "channels": asdict(model.channels),
        "caps": asdict(model.caps),
        "projectors": {
            pid: {"mean": config.write_array(p.mean, "<f8"),
                  "basis": config.write_array(p.basis, "<f8")}
            for pid, p in sorted(model.projectors.items())
        },
        "forest": model.forest.to_dict(),
    }


def model_from_dict(d) -> DetectorModel:
    """The model a parsed model file holds; any malformation is a DataError."""
    if not isinstance(d, dict):
        raise DataError(
            f"malformed model file: top level must be a JSON object, got {type(d).__name__}"
        )
    if d.get("format") != MODEL_FORMAT:
        raise DataError(f"not a detector model file (format {d.get('format')!r})")
    if d.get("version") != MODEL_VERSION:
        raise DataError(
            f"unsupported model version {d.get('version')!r}; this build reads {MODEL_VERSION}"
        )
    try:
        config.section(d, "model", _MODEL_KEYS)
        entries = {
            pid: config.section(p, f"projectors[{pid!r}]", _PROJECTOR_KEYS)
            for pid, p in config.section(d["projectors"], "projectors").items()
        }
        table = config.read(RoutingTable, d["routing"], "routing")
        model = DetectorModel(
            table=table,
            projectors={pid: _read_projector(pid, p, table.target_dim)
                        for pid, p in entries.items()},
            channels=config.read(ChannelConfig, d["channels"], "channels"),
            forest=Forest.from_dict(d["forest"]),
            caps=config.read(Caps, d["caps"], "caps"),
        )
    except (ConfigError, DataError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise DataError(f"malformed model file: {e}") from e
    return model


def _read_projector(pid: str, entry: dict, rows: int) -> PcaProjector:
    """Projector ``pid`` from its file entry; its basis has ``rows`` rows."""
    mean = config.read_array(entry["mean"], "<f8", f"projector {pid!r} mean")
    basis = config.read_array(
        entry["basis"], "<f8",
        f"projector {pid!r} basis (target_dim {rows} x mean length {mean.size})",
        rows * mean.size,
    )
    try:
        return PcaProjector(mean, basis.reshape(rows, mean.size))
    except PcaError as e:
        raise DataError(f"projector {pid!r}: {e}") from None


def save_model(path, model: DetectorModel) -> None:
    text = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_model(path) -> DetectorModel:
    return model_from_dict(read_json(path))


# --- layer ablation sweep --------------------------------------------------------

SUBSET_BOUNDS: dict[str, tuple[float, float | None]] = {
    "small": (50.0, 80.0),
    "large": (80.0, None),
    "all": (50.0, None),
}


def ablation_sweep(
    train_set: Dataset,
    test_set: Dataset,
    combinations: list[tuple[str, ...]],
    subsets: tuple[str, ...] = ("small", "large", "all"),
    settings: TrainSettings | None = None,
) -> list[dict]:
    """Train one fixed-layer detector per (combination, subset) and report MR.

    Each run routes every candidate to the same layer combination, trains on
    a height-restricted view of the training set, and scores the full test
    set under a protocol restricted to the same height range.  Miss rate is
    log-averaged over FPPI 1e-4..1.
    """
    if settings is None:
        settings = TrainSettings()
    for name in subsets:
        if name not in SUBSET_BOUNDS:
            raise ConfigError(
                f"unknown subset {name!r}; expected one of {sorted(SUBSET_BOUNDS)}"
            )
    rows = []
    for combo in combinations:
        combo = tuple(combo)
        for name in subsets:
            lo, hi = SUBSET_BOUNDS[name]
            run_settings = replace(
                settings,
                routing=RoutingTable(
                    bins=(ScaleBin(lo, None, combo, "only"),),
                    grid=settings.routing.grid,
                    target_dim=0,
                ),
            )
            model, _ = train_detector(train_set.subset_by_height(lo, hi), run_settings)
            dets = detect_dataset(model, test_set)
            (matches,) = evaluate_detections(
                dets, test_set.ground_truth_by_image(), (EvalProtocol(lo, hi),)
            )
            mr, _ = log_average_miss_rate(matches, -4.0)
            rows.append({"combination": "+".join(combo), "subset": name, "mr4": mr})
    return rows


def write_sweep_csv(path, rows: list[dict]) -> None:
    """One ``combination,subset,mr4`` header line, then one line per row."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["combination", "subset", "mr4"])
        for r in rows:
            w.writerow([r["combination"], r["subset"], repr(float(r["mr4"]))])
