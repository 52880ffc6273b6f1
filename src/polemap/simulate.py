"""Synthetic scenes, trajectories and drifting odometry for evaluation.

Scenes plant pole and trunk landmarks with a minimum spacing, sample member
points around each landmark, and expose the result both as a cluster map and
as a ground-truth list. A landmark is a vertical line, or with a radius a
cylinder: the map samples its whole ring, while a scan samples only the half
that faces the sensor. Nothing occludes anything. Runs drive a straight or
gently curving path through the scene, emit sensor-frame frames of the
landmarks in range, and corrupt the true odometry increments according to a
drift model. Everything is deterministic per seed.

Outputs stay byte-identical only while the random streams are drawn in one
order. A scene, and each scan, draws its landmarks in scene order; for each
landmark the xy noise (when its sigma is above 0), then the heights, then
the ring angles (when its radius is above 0), then, in a scan, the label
flip (when the flip rate is above 0). A scan draws its clutter last. A
change that drops landmarks from a scan or draws a drive frame by frame
has to keep this order to keep the pinned outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import FINITE, bounded, check_bounds
from .cluster_map import POLE, TRUNK, Cluster, ClusterMap, Frame, other_label
from .dataset_io import MAX_COORDINATE
from .geometry import PoseSE3, rotation_about_z
from .localization import OdometryIncrement

POLE_HEIGHT = 4.0
TRUNK_HEIGHT = 2.5

# Caps on the size of a simulation, checked when a spec is built, before any
# allocation or loop. The largest drive in use (the benchmark's two 600 m
# laps) has 481 frames of 40 points per landmark and no clutter; each of
# those caps leaves a margin of 200x or more. Landmark placement makes up to
# 1000 + 200 * n_clusters attempts, so MAX_CLUSTERS (15x the default 160)
# bounds the time to give up on a crowded area: at the default 300 m area,
# 2,500 landmarks are refused after about 11 s on a 2-core x86 host.
# MAX_SCENE_POINTS bounds n_clusters * points_per_cluster, which the two caps
# alone would let reach 25M. It is 31x the largest scene in use (160
# landmarks of 400 points in the memory probe) and admits each cap at the
# other key's default (160 x 10,000); at the cap, generate_scene takes about
# 0.3 s and 85 MB peak RSS on the same host.
MAX_FRAMES = 100_000
MAX_CLUSTERS = 2_500
MAX_POINTS_PER_CLUSTER = 10_000
MAX_SCENE_POINTS = 2_000_000
MAX_CLUTTER_POINTS = 100_000
# Landmark radii go up to that of a broad old trunk, a sixth of the default
# landmark spacing.
MAX_LANDMARK_RADIUS = 1.0


@dataclass(frozen=True)
class SceneSpec:
    area: tuple[float, float] = bounded(
        (300.0, 300.0), 0, MAX_COORDINATE, above=True, name="scene width and height"
    )
    n_clusters: int = bounded(160, 0, MAX_CLUSTERS)
    label_mix: float = bounded(0.5, 0.0, 1.0)  # fraction of pole landmarks
    min_spacing: float = bounded(6.0, 0, MAX_COORDINATE)
    points_per_cluster: int = bounded(40, 1, MAX_POINTS_PER_CLUSTER)
    point_noise_sigma: float = bounded(0.03, 0)
    pole_radius: float = bounded(0.0, 0, MAX_LANDMARK_RADIUS)
    trunk_radius: float = bounded(0.0, 0, MAX_LANDMARK_RADIUS)
    seed: int = bounded(0, 0)

    def __post_init__(self):
        check_bounds(self)
        if self.n_clusters * self.points_per_cluster > MAX_SCENE_POINTS:
            raise ValueError(
                f"scene needs more than {MAX_SCENE_POINTS} points: "
                "n_clusters * points_per_cluster is too large"
            )


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
    # read-only (n, 2) landmark x, y in landmark order
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "landmarks", tuple(self.landmarks))
        positions = np.array([(lm.x, lm.y) for lm in self.landmarks], dtype=float).reshape(-1, 2)
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)


@dataclass(frozen=True)
class TrajectorySpec:
    start: tuple[float, float] = bounded(
        (50.0, 150.0), -MAX_COORDINATE, MAX_COORDINATE, name="trajectory start"
    )
    heading_deg: float = bounded(0.0, *FINITE)
    speed: float = bounded(5.0, 0, MAX_COORDINATE, above=True)
    length: float = bounded(500.0, 0)
    frame_period: float = bounded(0.5, 0, MAX_COORDINATE, above=True)
    turn_rate_deg_per_m: float = bounded(0.0, -360, 360)

    def __post_init__(self):
        check_bounds(self)
        if self.length > MAX_FRAMES * self.speed * self.frame_period:
            raise ValueError(
                f"trajectory needs more than {MAX_FRAMES} frames: "
                "length / (speed * frame_period) is too large"
            )


@dataclass(frozen=True)
class SensorSpec:
    radius: float = bounded(60.0, 0, MAX_COORDINATE, above=True, name="sensor radius")
    label_flip_rate: float = bounded(0.0, 0.0, 1.0)
    clutter_points: int = bounded(0, 0, MAX_CLUTTER_POINTS)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class DriftSpec:
    translational_drift: float = bounded(0.0, -1, 1)  # fraction of distance traveled
    rotational_drift: float = bounded(0.0, -360, 360)  # degrees of yaw bias per meter
    vertical_drift: float = bounded(0.0, -1, 1)  # meters of height per meter
    noise_sigma: float = bounded(0.0, 0, MAX_COORDINATE)  # per-increment translation noise, m
    seed: int = bounded(0, 0)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class SimRun:
    frames: tuple[Frame, ...]
    true_poses: tuple[tuple[float, PoseSE3], ...]
    increments: tuple[OdometryIncrement, ...]
    initial_pose: PoseSE3


def _landmark_points(rng: np.random.Generator, landmark: Landmark, spec: SceneSpec, out,
                     facing=None) -> None:
    """Write the member points of a landmark into the rows of the (n, 3)
    array out, from the ground to its height, with Gaussian noise in xy,
    but as xy offsets from the landmark's position, which the caller adds.
    A landmark of radius 0 is its axis, and no angle is drawn. Otherwise
    each point lies on its ring, at an angle drawn from the whole ring, or
    from the half facing the xy position facing when it is given.
    """
    count = len(out)
    sigma = spec.point_noise_sigma
    if landmark.label == POLE:
        height, radius = POLE_HEIGHT, spec.pole_radius
    else:
        height, radius = TRUNK_HEIGHT, spec.trunk_radius
    out[:, :2] = rng.normal(0.0, sigma, size=(count, 2)) if sigma > 0 else 0.0
    out[:, 2] = rng.uniform(0.0, height, size=count)
    if radius > 0:
        if facing is None:
            angle = rng.uniform(-math.pi, math.pi, size=count)
        else:
            toward = math.atan2(facing[1] - landmark.y, facing[0] - landmark.x)
            angle = toward + rng.uniform(-math.pi / 2, math.pi / 2, size=count)
        out[:, 0] += radius * np.cos(angle)
        out[:, 1] += radius * np.sin(angle)


def generate_scene(spec: SceneSpec | None = None) -> Scene:
    """Plant landmarks with rejection sampling and sample their member points.

    Raises when the spacing constraint cannot be met inside the area after a
    bounded number of attempts.
    """
    spec = spec or SceneSpec()
    rng = np.random.default_rng(spec.seed)
    width, height = spec.area
    xs, ys = np.empty(spec.n_clusters), np.empty(spec.n_clusters)
    placed = 0
    max_attempts = 1000 + 200 * spec.n_clusters
    attempts = 0
    while placed < spec.n_clusters:
        if attempts >= max_attempts:
            raise ValueError(
                f"scene spec infeasible: placed {placed} of "
                f"{spec.n_clusters} clusters with spacing {spec.min_spacing}"
            )
        attempts += 1
        x = rng.uniform(0.0, width)
        y = rng.uniform(0.0, height)
        dx, dy = xs[:placed] - x, ys[:placed] - y
        if (dx * dx + dy * dy >= spec.min_spacing**2).all():
            xs[placed], ys[placed] = x, y
            placed += 1
    landmarks = [
        Landmark(x, y, POLE if rng.random() < spec.label_mix else TRUNK)
        for x, y in zip(xs.tolist(), ys.tolist())
    ]
    count = spec.points_per_cluster
    points = np.empty((len(landmarks), count, 3))
    for landmark, out in zip(landmarks, points):
        _landmark_points(rng, landmark, spec, out)
    scene = Scene(cluster_map=ClusterMap(), landmarks=tuple(landmarks), spec=spec)
    points[:, :, :2] += scene.positions[:, None, :]
    scene.cluster_map.absorb([-1] * len(landmarks), [lm.label for lm in landmarks],
                             points.reshape(-1, 3), [count] * len(landmarks))
    return scene


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
    fraction, adds a height gain and a yaw bias proportional to the step
    length, and adds Gaussian translation noise. Zero drift reproduces the
    true increments.
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
        if drift.vertical_drift:
            translation[2] += drift.vertical_drift * step_len
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
    """One labeled scan of the landmarks within sensor range of a pose; a
    landmark with a radius shows the half of its ring that faces the pose.

    The landmarks in range are drawn into one (k, n, 3) buffer and posed
    by one apply, which multiplies each landmark's (n, 3) block on its own,
    as posing them one by one did; flattened to (k * n, 3), n = 1 would
    differ in the last bits.
    """
    sensor = sensor or SensorSpec()
    position = pose.translation[:2]
    # float_power squares through the C library's pow, as a scalar ** 2 does,
    # where an array ** 2 multiplies and may land one unit off
    squared = np.float_power(scene.positions - position, 2.0)
    visible = np.flatnonzero(~(squared[:, 0] + squared[:, 1] > sensor.radius**2))
    count = scene.spec.points_per_cluster
    world = np.empty((len(visible), count, 3))
    labels = np.full(world.size // 3 + sensor.clutter_points, other_label(9))
    for slot, index in enumerate(visible.tolist()):
        landmark = scene.landmarks[index]
        _landmark_points(rng, landmark, scene.spec, world[slot], facing=position)
        label = landmark.label
        if sensor.label_flip_rate > 0 and rng.random() < sensor.label_flip_rate:
            label = TRUNK if label == POLE else POLE
        labels[slot * count:(slot + 1) * count] = label
    world[:, :, :2] += scene.positions[visible][:, None, :]
    xyz = pose.inverse().apply(world).reshape(-1, 3)
    if sensor.clutter_points > 0:
        clutter = rng.uniform(-sensor.radius, sensor.radius, size=(sensor.clutter_points, 3))
        clutter[:, 2] = np.abs(clutter[:, 2]) % 2.0
        xyz = np.concatenate([xyz, clutter])
    return Frame(timestamp, xyz, labels)
