"""Label assignment strategies for box detectors: static overlap matching,
prediction-guided re-ranking for both tasks, anchor-free point variants, plus
the anchor grids, NMS, AP evaluation and trajectory simulator used to study
them without training a network."""

from types import ModuleType as _ModuleType

from .anchors import (
    AnchorGridSpec,
    AnchorSet,
    LevelSpec,
    PointSet,
    generate_anchors,
    generate_points,
    level_scale_ranges,
)
from .assignment import (
    IGNORED,
    NEGATIVE,
    Assignment,
    DynamicLabels,
    MatchingConfig,
    amplified_iou,
    classify_to_localize,
    localize_to_classify,
    mutual_guidance_assign,
    static_assign,
)
from .evaluation import (
    COCO_IOU_THRESHOLDS,
    Detection,
    Detections,
    EvalResult,
    GroundTruth,
    MisalignmentResult,
    average_precision,
    misalignment_rate,
    nms,
)
from .fcos import (
    centerness,
    fcos_assign_original,
    fcos_classify_to_localize,
    fcos_localize_to_classify,
)
from .geometry import Box, area, boxes_to_array, iou, pairwise_iou
from .simulator import (
    Scene,
    SceneSpec,
    TrajectoryConfig,
    TrajectoryResult,
    TrajectorySnapshot,
    detections_from_snapshot,
    ground_truth_from_scene,
    run_trajectory,
    synth_point_predictions,
    synth_predictions,
    synth_scene,
)

__version__ = "0.1.0"

# the public names are those bound above: every name that is neither private nor a submodule
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
