"""derainkit: desk-scale LiDAR rain simulation, annotation, and de-raining.

Pipeline: synthesize clean labeled scans (scene), bin them onto the polar
beam grid (pgm), inject Marshall-Palmer rain (rainsim), auto-annotate
(annotate), de-rain with statistical filters (filters), and score/tune
(evaluation). fileio holds the binary and JSON formats; cli composes
everything end to end.
"""
from .core import (
    BACKGROUND,
    BIKE,
    CAR,
    CLASS_NAMES,
    NUM_CLASSES,
    PEDESTRIAN,
    RAIN,
    ROAD,
    SPRINKLER,
    TARGETS,
    ConfusionCounts,
    LabelSet,
    PointCloud,
    SensorCalibration,
    grid_calibration,
    merge_clouds,
)
from .pgm import PolarGridMap, flatten, nearest_angle_index, project_to_pgm, to_euclidean, to_polar
from .scene import OrientedBox, SceneSpec, builtin_scene, raycast_scene
from .rainsim import (
    RainConfig,
    RainDrop,
    expected_drop_concentration,
    inject_rain,
    intersect_beam,
    marshall_palmer_lambda,
    sample_drop_field,
)
from .filters import Dror, Dsor, Ror, Sor, apply_filter, brute_force_mask, build_index
from .annotate import (
    AnnotationScene,
    PlaneModel,
    RansacConfig,
    annotation_scene_from_spec,
    auto_annotate,
    brute_force_transfer,
    ransac_plane,
    transfer_labels,
)
from .evaluation import (
    BenchmarkRow,
    MetricReport,
    benchmark_run,
    confusion,
    derive_metrics,
    f1_from_precision_recall,
    iou_from_f1,
    tune_filter,
)

__version__ = "0.1.0"
