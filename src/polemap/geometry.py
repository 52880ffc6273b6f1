"""Rigid-body transforms shared by mapping, relocalization and localization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

ORTHONORMALITY_TOL = 1e-9


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform acting as x_out = rotation @ x_in + translation.

    The rotation block must stay orthonormal with determinant +1; long
    composition chains should call renormalized() occasionally to shed
    accumulated round-off.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3).copy()
        tra = np.asarray(self.translation, dtype=float).reshape(3).copy()
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_quaternion(cls, translation, quat_xyzw) -> "PoseSE3":
        rot = Rotation.from_quat(np.asarray(quat_xyzw, dtype=float)).as_matrix()
        return cls(rot, translation)

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def quaternion_xyzw(self) -> np.ndarray:
        q = Rotation.from_matrix(self.rotation).as_quat()
        if q[3] < 0.0:
            q = -q
        return q

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation

    def __matmul__(self, other: "PoseSE3") -> "PoseSE3":
        return PoseSE3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "PoseSE3":
        rot_t = self.rotation.T
        return PoseSE3(rot_t, -rot_t @ self.translation)

    def renormalized(self) -> "PoseSE3":
        u, _, vt = np.linalg.svd(self.rotation)
        d = np.sign(np.linalg.det(u @ vt))
        rot = u @ np.diag([1.0, 1.0, d]) @ vt
        return PoseSE3(rot, self.translation)

    def is_valid(self) -> bool:
        if not np.all(np.isfinite(self.rotation)) or not np.all(np.isfinite(self.translation)):
            return False
        gram_err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        det_err = abs(np.linalg.det(self.rotation) - 1.0)
        return bool(gram_err <= ORTHONORMALITY_TOL and det_err <= ORTHONORMALITY_TOL)

    def require_valid(self) -> None:
        if not self.is_valid():
            raise ValueError("invalid rigid transform: rotation is not orthonormal")


def rotation_about_z(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

