"""Dataset reading and writing.

A dataset directory holds one binary point file and one binary label file per
frame plus text pose files:

    points/000000.bin   float32 little-endian x, y, z, intensity per point
    labels/000000.label uint32 little-endian per point, class id in the low
                        16 bits (instance bits are ignored)
    poses.txt           one "timestamp tx ty tz qx qy qz qw" line per frame
    odometry.txt        optional, same format, a drifting odometry track

Frames are the point files in sorted order; each needs a label file of the
same stem, and the i-th pose belongs to the i-th frame.

Pose components are written with shortest round-trip decimals so that
load(save(x)) reproduces x exactly. Decoders reject truncated or oversized
files, non-finite pose fields, translations beyond MAX_COORDINATE and
timestamps that do not strictly increase instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import bounded, check_bounds
from .cluster_map import POLE, TRUNK, Frame, other_label
from .errors import DatasetError
from .geometry import PoseSE3

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4
# Largest magnitude, in meters, of a pose translation or map centroid field
# read from a file: 100x what Earth-fixed frames need (ECEF within 6.4e6 m,
# UTM northings below 1e7 m), and far below where sums and squares overflow.
MAX_COORDINATE = 1e9


@dataclass(frozen=True)
class LabelMap:
    """Mapping between raw class ids and frame label codes (see Frame)."""

    # label files carry the class id in their low 16 bits
    pole_id: int = bounded(5, 0, 0xFFFF, name="label ids")
    trunk_id: int = bounded(6, 0, 0xFFFF, name="label ids")

    def __post_init__(self):
        check_bounds(self)
        if self.pole_id == self.trunk_id:
            raise ValueError("pole and trunk label ids must differ")

    def decode(self, class_ids) -> np.ndarray:
        ids = np.asarray(class_ids, dtype=np.int64)
        return np.select(
            [ids == self.pole_id, ids == self.trunk_id],
            [POLE, TRUNK],
            ids + other_label(0),
        )

    def encode(self, codes) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        return np.select(
            [codes == POLE, codes == TRUNK],
            [self.pole_id, self.trunk_id],
            codes - other_label(0),
        )


def read_point_file(path) -> np.ndarray:
    """Raw (n, 4) float32 array of x, y, z, intensity records."""
    raw = Path(path).read_bytes()
    if len(raw) % POINT_RECORD_BYTES != 0:
        raise DatasetError(
            f"{path}: size {len(raw)} is not a multiple of {POINT_RECORD_BYTES} bytes"
        )
    return np.frombuffer(raw, dtype="<f4").reshape(-1, 4).copy()


def write_point_file(path, points: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(points, dtype="<f4").reshape(-1, 4))
    Path(path).write_bytes(arr.tobytes())


def read_label_file(path) -> np.ndarray:
    """Raw uint32 label words, one per point."""
    raw = Path(path).read_bytes()
    if len(raw) % LABEL_RECORD_BYTES != 0:
        raise DatasetError(
            f"{path}: size {len(raw)} is not a multiple of {LABEL_RECORD_BYTES} bytes"
        )
    return np.frombuffer(raw, dtype="<u4").copy()


def write_label_file(path, labels: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(labels, dtype="<u4").reshape(-1))
    Path(path).write_bytes(arr.tobytes())


def load_frame(point_path, label_path, label_map: LabelMap, timestamp: float) -> Frame:
    """Decode one frame, pairing each point with its label code."""
    points = read_point_file(point_path)
    labels = read_label_file(label_path)
    if len(points) != len(labels):
        raise DatasetError(
            f"{label_path}: {len(labels)} labels for {len(points)} points in {point_path}"
        )
    xyz = points[:, :3].astype(float)
    if not np.isfinite(xyz).all():
        raise DatasetError(f"{point_path}: non-finite point coordinate")
    return Frame(timestamp, xyz, label_map.decode(labels & 0xFFFF))


def _check_frame(point_path, frame: Frame) -> None:
    """Refuse a point beyond the float32 range, which load_frame reads as non-finite."""
    if not (np.abs(frame.xyz) <= np.finfo("<f4").max).all():
        raise DatasetError(f"{point_path}: point beyond the float32 range")


def write_frame(point_path, label_path, frame: Frame, label_map: LabelMap) -> None:
    _check_frame(point_path, frame)
    pts = np.zeros((len(frame.xyz), 4), dtype="<f4")
    pts[:, :3] = frame.xyz
    write_point_file(point_path, pts)
    write_label_file(label_path, label_map.encode(frame.labels) & 0xFFFF)


def load_poses(path) -> list[tuple[float, PoseSE3]]:
    """Parse a timestamped pose file. Every field must be finite, each
    translation field at most MAX_COORDINATE in magnitude, timestamps must
    strictly increase and quaternions must be unit to 1e-6."""
    poses = []
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise DatasetError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                values = [float(v) for v in parts]
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric field") from None
            if not all(map(math.isfinite, values)):
                raise DatasetError(f"{path}:{lineno}: non-finite field")
            t, tx, ty, tz, qx, qy, qz, qw = values
            if max(abs(tx), abs(ty), abs(tz)) > MAX_COORDINATE:
                raise DatasetError(f"{path}:{lineno}: translation beyond {MAX_COORDINATE:g} m")
            if poses and t <= poses[-1][0]:
                raise DatasetError(f"{path}:{lineno}: timestamp {t!r} does not increase")
            norm = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
            if abs(norm - 1.0) > 1e-6:
                raise DatasetError(f"{path}:{lineno}: quaternion norm {norm} is not 1")
            poses.append((t, PoseSE3.from_quaternion((tx, ty, tz), (qx, qy, qz, qw))))
    return poses


def _encode_poses(path, poses) -> bytes:
    """Timestamped poses in exact round-trip decimals; refuses what load_poses rejects."""
    lines = []
    previous = -math.inf
    for index, (t, pose) in enumerate(poses):
        if not (math.isfinite(t) and np.isfinite(pose.as_matrix()).all()):
            raise DatasetError(f"{path}: pose {index}: non-finite field")
        if not pose.is_valid():
            raise DatasetError(f"{path}: pose {index}: rotation is not orthonormal")
        if np.abs(pose.translation).max() > MAX_COORDINATE:
            raise DatasetError(f"{path}: pose {index}: translation beyond {MAX_COORDINATE:g} m")
        if not t > previous:
            raise DatasetError(f"{path}: pose {index}: timestamp {float(t)!r} does not increase")
        previous = t
        fields = [t, *pose.translation.tolist(), *pose.quaternion_xyzw().tolist()]
        lines.append(" ".join(repr(float(v)) for v in fields))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("ascii")


def save_poses(path, poses) -> None:
    """Write timestamped poses with exact round-trip decimals; refuse what load_poses rejects."""
    Path(path).write_bytes(_encode_poses(path, poses))


class Dataset:
    """Accessor for a frame directory with pose files."""

    def __init__(self, root):
        self.root = Path(root)
        self.points_dir = self.root / "points"
        self.labels_dir = self.root / "labels"
        self.poses_path = self.root / "poses.txt"
        self.odometry_path = self.root / "odometry.txt"
        if not self.points_dir.is_dir() or not self.labels_dir.is_dir():
            raise DatasetError(f"{root}: missing points/ or labels/ directory")
        if not self.poses_path.is_file():
            raise DatasetError(f"{root}: missing poses.txt")
        self._point_files = sorted(self.points_dir.glob("*.bin"))
        self._label_files = sorted(self.labels_dir.glob("*.label"))
        if len(self._point_files) != len(self._label_files):
            raise DatasetError(
                f"{root}: {len(self._point_files)} point files but "
                f"{len(self._label_files)} label files"
            )
        for point_file, label_file in zip(self._point_files, self._label_files):
            if point_file.stem != label_file.stem:
                raise DatasetError(
                    f"{root}: points/{point_file.name} pairs with "
                    f"labels/{label_file.name}; file stems must match"
                )

    @property
    def frame_count(self) -> int:
        return len(self._point_files)

    def poses(self) -> list[tuple[float, PoseSE3]]:
        poses = load_poses(self.poses_path)
        if len(poses) != self.frame_count:
            raise DatasetError(
                f"{self.poses_path}: {len(poses)} poses for {self.frame_count} frames"
            )
        return poses

    def odometry(self) -> list[tuple[float, PoseSE3]]:
        if not self.odometry_path.is_file():
            raise DatasetError(f"{self.root}: no odometry.txt")
        odom = load_poses(self.odometry_path)
        if len(odom) != self.frame_count:
            raise DatasetError(
                f"{self.odometry_path}: {len(odom)} poses for {self.frame_count} frames"
            )
        return odom

    def frame(self, index: int, label_map: LabelMap, timestamp: float) -> Frame:
        return load_frame(
            self._point_files[index], self._label_files[index], label_map, timestamp
        )


def write_files(files: dict) -> None:
    """Write each path -> contents item of files."""
    for path, data in files.items():
        path.write_bytes(data)


def write_dataset(root, frames, poses, label_map: LabelMap, odometry=None) -> None:
    """Lay out a dataset directory from in-memory frames and pose tracks.
    Every frame and pose track is checked before the first file is written."""
    root = Path(root)
    for i, frame in enumerate(frames):
        _check_frame(root / "points" / f"{i:06d}.bin", frame)
    tracks = {root / "poses.txt": _encode_poses(root / "poses.txt", poses)}
    if odometry is not None:
        tracks[root / "odometry.txt"] = _encode_poses(root / "odometry.txt", odometry)
    (root / "points").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_frame(
            root / "points" / f"{i:06d}.bin",
            root / "labels" / f"{i:06d}.label",
            frame,
            label_map,
        )
    write_files(tracks)
