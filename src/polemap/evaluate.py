"""Success metrics and evaluation protocols for synthetic scenes.

Relocalization is evaluated by dropping a vehicle at random poses and driving
until the estimated position lands within a success radius of the truth; the
distance traveled until that first success is aggregated over trials, per map
retention variant. Localization is evaluated as position RMSE against ground
truth over aligned timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import AssociationParams
from .extraction import ExtractionParams
from .geometry import PoseSE3, rotation_about_z
from .localization import relocalize_frame
from .relocalization import RelocalizationFailure, RelocParams
from .simulate import Scene, SensorSpec, retain_clusters, sensor_frame


# The relocalization study's one drive protocol.
SUCCESS_RADIUS = 2.0  # m from the truth for a fix to count
MAX_DISTANCE = 120.0  # m driven before a trial is censored
SPEED = 5.0  # m/s
FRAME_PERIOD = 0.5  # s
REFERENCE_LENGTH = 500.0  # m of path per reported density
START_MARGIN = 0.25  # share of each area side that starts keep clear of


def success(position_est, position_gt, delta: float) -> bool:
    """Strict position test: estimate closer than delta to the truth."""
    est = np.asarray(position_est, dtype=float).reshape(-1)
    gt = np.asarray(position_gt, dtype=float).reshape(-1)
    return bool(np.linalg.norm(est - gt) < delta)


def cluster_density(n_clusters: int, path_length: float) -> float:
    """Landmark clusters per meter of mapped path."""
    if path_length <= 0:
        raise ValueError("path_length must be positive")
    return n_clusters / path_length


def trajectory_length(positions) -> float:
    """Total arc length of a polyline of positions."""
    pts = np.asarray(positions, dtype=float)
    if len(pts) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


@dataclass(frozen=True)
class EvalReport:
    retention: float
    trial_count: int
    success_count: int
    success_rate: float
    distance_p50: float
    distance_p90: float
    distance_p95: float
    distance_p99: float
    cluster_density: float


def evaluate_relocalization(
    scene: Scene,
    retentions,
    trials: int,
    *,
    extraction: ExtractionParams | None = None,
    association: AssociationParams | None = None,
    relocalization: RelocParams | None = None,
    sensor: SensorSpec | None = None,
) -> list[EvalReport]:
    """Distance-to-first-relocalization study over map retention variants.

    Trials are paired across retentions: trial k replays the same start pose
    and sensor stream against each retained map, so sparser maps differ only
    in the clusters they kept (retention v: seed v; trial k: default_rng((0, k))).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    sensor = sensor or SensorSpec()

    reports = []
    for v, retention in enumerate(retentions):
        retained = retain_clusters(scene.cluster_map, retention, seed=v)
        distances = []
        successes = 0
        for trial in range(trials):
            dist = _drive_until_success(
                scene, retained, trial, extraction, association, relocalization, sensor
            )
            if dist is not None:
                successes += 1
                distances.append(dist)
            else:
                distances.append(MAX_DISTANCE)
        p50, p90, p95, p99 = np.percentile(distances, [50, 90, 95, 99])
        reports.append(
            EvalReport(
                retention=float(retention),
                trial_count=trials,
                success_count=successes,
                success_rate=successes / trials,
                distance_p50=float(p50),
                distance_p90=float(p90),
                distance_p95=float(p95),
                distance_p99=float(p99),
                cluster_density=cluster_density(len(retained), REFERENCE_LENGTH),
            )
        )
    return reports


def _drive_until_success(
    scene: Scene,
    retained_map,
    trial: int,
    extraction: ExtractionParams | None,
    association: AssociationParams | None,
    relocalization: RelocParams | None,
    sensor: SensorSpec,
) -> float | None:
    rng = np.random.default_rng((0, trial))
    width, height = scene.spec.area
    mx, my = START_MARGIN * width, START_MARGIN * height
    start = np.array(
        [rng.uniform(mx, width - mx), rng.uniform(my, height - my)]
    )
    to_center = np.array([width / 2.0, height / 2.0]) - start
    base_heading = math.atan2(to_center[1], to_center[0])
    heading = base_heading + math.radians(rng.uniform(-45.0, 45.0))
    step = SPEED * FRAME_PERIOD
    direction = np.array([math.cos(heading), math.sin(heading)])

    traveled = 0.0
    k = 0
    while traveled <= MAX_DISTANCE:
        position = start + traveled * direction
        pose = PoseSE3(
            rotation_about_z(heading), np.array([position[0], position[1], 0.0])
        )
        frame = sensor_frame(rng, scene, pose, k * FRAME_PERIOD, sensor)
        try:
            fix = relocalize_frame(
                frame, pose, retained_map, extraction, association, relocalization
            )
        except RelocalizationFailure:
            pass
        else:
            if success(fix.pose.translation, pose.translation, SUCCESS_RADIUS):
                return traveled
        traveled += step
        k += 1
    return None


def evaluate_localization(true_poses, estimated) -> float:
    """Position RMSE between two timestamped trajectories.

    Both sequences must cover identical timestamps in the same order.
    """
    true_poses = list(true_poses)
    estimated = list(estimated)
    if len(true_poses) != len(estimated):
        raise ValueError("misaligned trajectories: lengths differ")
    errors = []
    for (t_gt, pose_gt), (t_est, pose_est) in zip(true_poses, estimated):
        if abs(t_gt - t_est) > 1e-9:
            raise ValueError(f"misaligned trajectories: timestamps {t_gt} and {t_est}")
        errors.append(np.sum((pose_gt.translation - pose_est.translation) ** 2))
    return float(np.sqrt(np.mean(errors))) if errors else 0.0
