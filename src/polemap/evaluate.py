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


@dataclass(frozen=True)
class RelocEvalProtocol:
    """Drive parameters for the distance-to-relocalization study."""

    success_radius: float = 2.0
    max_distance: float = 120.0
    speed: float = 5.0
    frame_period: float = 0.5
    reference_length: float = 500.0
    start_margin: float = 0.25  # fraction of each area dimension kept clear
    seed: int = 0


def evaluate_relocalization(
    scene: Scene,
    retentions=(1.0, 0.8, 0.6),
    trials: int = 50,
    *,
    protocol: RelocEvalProtocol | None = None,
    extraction: ExtractionParams | None = None,
    association: AssociationParams | None = None,
    relocalization: RelocParams | None = None,
    sensor: SensorSpec | None = None,
) -> list[EvalReport]:
    """Distance-to-first-relocalization study over map retention variants.

    Trials are paired across retentions: trial k replays the same start pose
    and sensor stream against each retained map, so sparser maps differ only
    in the clusters they kept.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    protocol = protocol or RelocEvalProtocol()
    sensor = sensor or SensorSpec()

    reports = []
    for v, retention in enumerate(retentions):
        retained = retain_clusters(
            scene.cluster_map, retention, seed=(protocol.seed * 1000 + v)
        )
        distances = []
        successes = 0
        for trial in range(trials):
            dist = _drive_until_success(
                scene, retained, trial, protocol, extraction, association, relocalization, sensor
            )
            if dist is not None:
                successes += 1
                distances.append(dist)
            else:
                distances.append(protocol.max_distance)
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
                cluster_density=cluster_density(len(retained), protocol.reference_length),
            )
        )
    return reports


def _drive_until_success(
    scene: Scene,
    retained_map,
    trial: int,
    protocol: RelocEvalProtocol,
    extraction: ExtractionParams | None,
    association: AssociationParams | None,
    relocalization: RelocParams | None,
    sensor: SensorSpec,
) -> float | None:
    rng = np.random.default_rng((protocol.seed, trial))
    width, height = scene.spec.area
    mx, my = protocol.start_margin * width, protocol.start_margin * height
    start = np.array(
        [rng.uniform(mx, width - mx), rng.uniform(my, height - my)]
    )
    to_center = np.array([width / 2.0, height / 2.0]) - start
    base_heading = math.atan2(to_center[1], to_center[0])
    heading = base_heading + math.radians(rng.uniform(-45.0, 45.0))
    step = protocol.speed * protocol.frame_period
    direction = np.array([math.cos(heading), math.sin(heading)])

    traveled = 0.0
    k = 0
    while traveled <= protocol.max_distance:
        position = start + traveled * direction
        pose = PoseSE3(
            rotation_about_z(heading), np.array([position[0], position[1], 0.0])
        )
        frame = sensor_frame(rng, scene, pose, k * protocol.frame_period, sensor)
        try:
            fix = relocalize_frame(
                frame, pose, retained_map, extraction, association, relocalization
            )
        except RelocalizationFailure:
            pass
        else:
            if success(fix.pose.translation, pose.translation, protocol.success_radius):
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
