"""Synthetic scenes, trajectories and drifting odometry for evaluation.

Scenes plant pole and trunk landmarks with a minimum spacing, sample member
points around each landmark, and expose the result both as a cluster map and
as a ground-truth list. Runs drive a straight or gently curving path through
the scene, emit sensor-frame frames of the visible landmarks, and corrupt the
true odometry increments according to a drift model. Everything is
deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster_map import POLE, TRUNK, Cluster, ClusterMap, Frame, other_label
from .geometry import PoseSE3, rotation_about_z
from .localization import OdometryIncrement

POLE_HEIGHT = 4.0
TRUNK_HEIGHT = 2.5

# Caps on the size of a simulation, checked when a spec is built, before any
# allocation or loop. The largest drive in use (the benchmark's two 600 m
# laps) has 481 frames of 40 points per landmark and no clutter; each cap
# leaves a margin of 200x or more.
MAX_FRAMES = 100_000
MAX_POINTS_PER_CLUSTER = 10_000
MAX_CLUTTER_POINTS = 100_000


@dataclass(frozen=True)
class SceneSpec:
    area: tuple[float, float] = (300.0, 300.0)
    n_clusters: int = 160
    label_mix: float = 0.5  # fraction of pole landmarks
    min_spacing: float = 6.0
    points_per_cluster: int = 40
    point_noise_sigma: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if not self.n_clusters >= 0:
            raise ValueError("n_clusters must be non-negative")
        if not 0.0 <= self.label_mix <= 1.0:
            raise ValueError("label_mix must lie in [0, 1]")
        if not (self.min_spacing >= 0 and self.points_per_cluster >= 1):
            raise ValueError("invalid scene spec")
        if self.points_per_cluster > MAX_POINTS_PER_CLUSTER:
            raise ValueError(f"points_per_cluster must be at most {MAX_POINTS_PER_CLUSTER}")
        if not self.point_noise_sigma >= 0:
            raise ValueError("point_noise_sigma must be non-negative")
        if not all(side > 0 for side in self.area):
            raise ValueError("scene width and height must be positive")
        if not math.isfinite(self.min_spacing * self.min_spacing):
            raise ValueError("min_spacing is too large")
        if not self.seed >= 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Landmark:
    x: float
    y: float
    label: int  # POLE or TRUNK


@dataclass(frozen=True)
class Scene:
    cluster_map: ClusterMap
    landmarks: tuple[Landmark, ...]
    spec: SceneSpec

    def __post_init__(self):
        object.__setattr__(self, "landmarks", tuple(self.landmarks))


@dataclass(frozen=True)
class TrajectorySpec:
    start: tuple[float, float] = (50.0, 150.0)
    heading_deg: float = 0.0
    speed: float = 5.0
    length: float = 500.0
    frame_period: float = 0.5
    turn_rate_deg_per_m: float = 0.0

    def __post_init__(self):
        if not (self.speed > 0 and self.frame_period > 0 and self.length >= 0):
            raise ValueError("invalid trajectory spec")
        if self.length > MAX_FRAMES * self.speed * self.frame_period:
            raise ValueError(
                f"trajectory needs more than {MAX_FRAMES} frames: "
                "length / (speed * frame_period) is too large"
            )


@dataclass(frozen=True)
class SensorSpec:
    radius: float = 60.0
    label_flip_rate: float = 0.0
    clutter_points: int = 0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("sensor radius must be positive")
        if not 0.0 <= self.label_flip_rate <= 1.0:
            raise ValueError("label_flip_rate must lie in [0, 1]")
        if not self.clutter_points >= 0:
            raise ValueError("clutter_points must be non-negative")
        if self.clutter_points > MAX_CLUTTER_POINTS:
            raise ValueError(f"clutter_points must be at most {MAX_CLUTTER_POINTS}")


@dataclass(frozen=True)
class DriftSpec:
    translational_drift: float = 0.0  # fraction of distance traveled
    rotational_drift: float = 0.0  # degrees of yaw bias per meter
    noise_sigma: float = 0.0  # per-increment translation noise, meters
    seed: int = 0

    def __post_init__(self):
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be non-negative")
        if not self.seed >= 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SimRun:
    frames: tuple[Frame, ...]
    true_poses: tuple[tuple[float, PoseSE3], ...]
    increments: tuple[OdometryIncrement, ...]
    initial_pose: PoseSE3


def _landmark_points(rng: np.random.Generator, landmark: Landmark, count: int, sigma: float):
    height = POLE_HEIGHT if landmark.label == POLE else TRUNK_HEIGHT
    xy = rng.normal(0.0, sigma, size=(count, 2)) if sigma > 0 else np.zeros((count, 2))
    z = rng.uniform(0.0, height, size=count)
    return np.column_stack([landmark.x + xy[:, 0], landmark.y + xy[:, 1], z])


def generate_scene(spec: SceneSpec | None = None) -> Scene:
    """Plant landmarks with rejection sampling and sample their member points.

    Raises when the spacing constraint cannot be met inside the area after a
    bounded number of attempts.
    """
    spec = spec or SceneSpec()
    rng = np.random.default_rng(spec.seed)
    width, height = spec.area
    positions: list[tuple[float, float]] = []
    max_attempts = 1000 + 200 * spec.n_clusters
    attempts = 0
    while len(positions) < spec.n_clusters:
        if attempts >= max_attempts:
            raise ValueError(
                f"scene spec infeasible: placed {len(positions)} of "
                f"{spec.n_clusters} clusters with spacing {spec.min_spacing}"
            )
        attempts += 1
        x = float(rng.uniform(0.0, width))
        y = float(rng.uniform(0.0, height))
        if all((x - px) ** 2 + (y - py) ** 2 >= spec.min_spacing**2 for px, py in positions):
            positions.append((x, y))
    landmarks = [
        Landmark(x, y, POLE if rng.random() < spec.label_mix else TRUNK) for x, y in positions
    ]
    cluster_map = ClusterMap()
    for landmark in landmarks:
        pts = _landmark_points(rng, landmark, spec.points_per_cluster, spec.point_noise_sigma)
        cluster_map.add(landmark.label, pts)
    return Scene(cluster_map=cluster_map, landmarks=tuple(landmarks), spec=spec)


def retain_clusters(cluster_map: ClusterMap, fraction: float, seed: int = 0) -> ClusterMap:
    """Random sub-map keeping round(fraction * size) clusters, ids preserved."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    ids = cluster_map.ids()
    keep = int(round(fraction * len(ids)))
    rng = np.random.default_rng(seed)
    kept = sorted(rng.choice(len(ids), size=keep, replace=False).tolist())
    retained = ClusterMap()
    for idx in kept:
        cluster = cluster_map.get(ids[idx])
        retained.insert(
            Cluster(
                cluster.cluster_id,
                cluster.label,
                cluster.points.copy(),
                cluster.centroid3d.copy(),
                cluster.observed,
            )
        )
    return retained


def _true_pose(x: float, y: float, heading_rad: float) -> PoseSE3:
    return PoseSE3(rotation_about_z(heading_rad), np.array([x, y, 0.0]))


def simulate_run(
    scene: Scene,
    trajectory: TrajectorySpec | None = None,
    drift: DriftSpec | None = None,
    sensor: SensorSpec | None = None,
) -> SimRun:
    """Drive through the scene, emitting frames and corrupted odometry.

    The drift model scales each increment translation by the translational
    fraction, adds a yaw bias proportional to the step length, and adds
    Gaussian translation noise. Zero drift reproduces the true increments.
    """
    trajectory = trajectory or TrajectorySpec()
    drift = drift or DriftSpec()
    sensor = sensor or SensorSpec()
    rng = np.random.default_rng(drift.seed)

    step = trajectory.speed * trajectory.frame_period
    n_steps = int(math.floor(trajectory.length / step + 1e-9)) if step > 0 else 0
    xs, ys, headings, times = [], [], [], []
    x, y = trajectory.start
    heading = math.radians(trajectory.heading_deg)
    turn = math.radians(trajectory.turn_rate_deg_per_m)
    for k in range(n_steps + 1):
        xs.append(x)
        ys.append(y)
        headings.append(heading)
        times.append(k * trajectory.frame_period)
        mid = heading + turn * step / 2.0
        x += step * math.cos(mid)
        y += step * math.sin(mid)
        heading += turn * step

    true_poses = [
        (t, _true_pose(px, py, h)) for t, px, py, h in zip(times, xs, ys, headings)
    ]
    frames = [
        sensor_frame(rng, scene, pose, t, sensor) for t, pose in true_poses
    ]

    increments: list[OdometryIncrement] = []
    for k in range(1, len(true_poses)):
        t_prev = true_poses[k - 1][1]
        t_curr = true_poses[k][1]
        rel = t_prev.inverse() @ t_curr
        step_len = float(np.linalg.norm(rel.translation))
        translation = rel.translation * (1.0 + drift.translational_drift)
        if drift.noise_sigma > 0:
            translation = translation + rng.normal(0.0, drift.noise_sigma, size=3)
        rotation = rel.rotation @ rotation_about_z(math.radians(drift.rotational_drift * step_len))
        increments.append(
            OdometryIncrement(times[k], PoseSE3(rotation, translation))
        )
    return SimRun(
        frames=tuple(frames),
        true_poses=tuple(true_poses),
        increments=tuple(increments),
        initial_pose=true_poses[0][1] if true_poses else PoseSE3.identity(),
    )


def sensor_frame(
    rng: np.random.Generator,
    scene: Scene,
    pose: PoseSE3,
    timestamp: float,
    sensor: SensorSpec | None = None,
) -> Frame:
    """One labeled scan of the landmarks visible from a pose."""
    sensor = sensor or SensorSpec()
    inv = pose.inverse()
    position = pose.translation[:2]
    xyz: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for landmark in scene.landmarks:
        if (landmark.x - position[0]) ** 2 + (landmark.y - position[1]) ** 2 > sensor.radius**2:
            continue
        world = _landmark_points(
            rng, landmark, scene.spec.points_per_cluster, scene.spec.point_noise_sigma
        )
        label = landmark.label
        if sensor.label_flip_rate > 0 and rng.random() < sensor.label_flip_rate:
            label = TRUNK if label == POLE else POLE
        xyz.append(inv.apply(world))
        labels.append(np.full(len(world), label))
    if sensor.clutter_points > 0:
        clutter = rng.uniform(-sensor.radius, sensor.radius, size=(sensor.clutter_points, 3))
        clutter[:, 2] = np.abs(clutter[:, 2]) % 2.0
        xyz.append(clutter)
        labels.append(np.full(len(clutter), other_label(9)))
    if not xyz:
        return Frame(timestamp, (), ())
    return Frame(timestamp, np.concatenate(xyz), np.concatenate(labels))
