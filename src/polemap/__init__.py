"""Pole landmark mapping and localization from labeled LiDAR frames.

The toolkit builds semantic cluster maps out of pole-like structures, matches
those maps to each other through a rotation-invariant edge descriptor, and
uses the resulting rigid transform to keep a drifting odometry estimate
anchored to a prior map.
"""

from .association import (
    UNMATCHED,
    AssociationParams,
    MatchPair,
    associate_maps,
    edge_pair_distance,
    sub_edge_distance,
)
from .cluster_map import (
    POLE,
    TRUNK,
    Cluster,
    ClusterMap,
    Frame,
    other_label,
)
from .config import Config, default_config, dump_config, load_config, parse_config
from .dataset_io import (
    Dataset,
    LabelMap,
    load_frame,
    load_poses,
    save_poses,
    write_dataset,
    write_frame,
)
from .errors import ConfigError, DatasetError, MapFormatError, PolemapError
from .evaluate import (
    EvalReport,
    cluster_density,
    evaluate_localization,
    evaluate_relocalization,
    success,
    trajectory_length,
)
from .extraction import ExtractionParams, extract_clusters
from .geometry import PoseSE3, rotation_about_z
from .localization import (
    AnchoredPose,
    OdometryIncrement,
    PipelineConfig,
    PipelineResult,
    apply_global_fix,
    apply_increment,
    relocalize_frame,
    run_pipeline,
)
from .map_io import load_map, save_map
from .registration import (
    RegistrationParams,
    RegistrationStats,
    build_local_map,
    register_frame,
)
from .relocalization import (
    RelocalizationFailure,
    RelocParams,
    RelocResult,
    coarse_align,
    estimate_rigid_transform,
    fine_align,
    fit_pairs,
    geometric_consistency_filter,
    guided_pairs,
    ransac_filter,
    relocalize,
)
from .simulate import (
    DriftSpec,
    Scene,
    SceneSpec,
    SensorSpec,
    SimRun,
    TrajectorySpec,
    generate_scene,
    retain_clusters,
    sensor_frame,
    simulate_run,
)

__version__ = "0.1.0"
