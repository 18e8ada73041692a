"""Scale-aware multi-layer detection head.

Candidates are routed by pixel height to a layer combination, RoI-pooled on
a fixed grid, compressed per cell to a common dimension, optionally extended
with semantic-histogram and edge channels, and scored by a boosted forest
trained with staged hard-negative mining.
"""

from .dataset import Dataset, ImageSample
from .errors import ConfigError, DataError, SamheadError
from .evaluation import (
    EvalCurve,
    EvalProtocol,
    KITTI_DIFFICULTIES,
    KITTI_EASY,
    KITTI_HARD,
    KITTI_MODERATE,
    KittiDifficulty,
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
from .forest import (
    Forest,
    StageLog,
    TrainConfig,
    TrainingError,
    Tree,
    bootstrap_train,
    realboost_fit,
    select_hard_negatives,
)
from .formats import (
    FormatError,
    read_detections_csv,
    read_edge_map,
    read_feature_maps,
    read_ground_truth_jsonl,
    read_label_map,
    read_json,
    read_proposals_jsonl,
    write_detections_csv,
    write_edge_map,
    write_feature_maps,
    write_ground_truth_jsonl,
    write_json,
    write_label_map,
    write_proposals_jsonl,
)
from .geometry import GroundTruth, ScoredBoxes, iou_matrix, nms
from .maps import EdgeMap, FeatureMap, ImageRecord, LabelMap, NUM_LABEL_CLASSES
from .pca import PcaError, PcaProjector, fit_pca
from .pipeline import (
    Caps,
    DetectorModel,
    TrainSettings,
    ablation_sweep,
    detect_dataset,
    detect_image,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    settings_hash,
    train_detector,
    write_sweep_csv,
)
from .plotting import render_curve_svg, write_curve_svg
from .pooling import (
    DegenerateRoiError,
    FeatureRect,
    PoolGrid,
    roi_edge_pool,
    roi_histogram_pool,
    roi_max_pool,
)
from .routing import (
    ChannelConfig,
    DescriptorExtractor,
    MissingLayerError,
    RoutingTable,
    ScaleBin,
    default_routing_table,
)
from .synth import LayerSpec, SynthConfig, band_gain, default_synth_layers, generate_dataset

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
