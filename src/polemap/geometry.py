"""Rigid-body transforms shared by mapping, relocalization and localization.

Quaternion conversion follows scipy 1.17.1's Rotation.from_quat, as_matrix,
from_matrix and as_quat operation for operation, so every result is
bit-equal to scipy's without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHONORMALITY_TOL = 1e-9
# np.isclose(gram, eye, rtol=1e-5, atol=1e-12) written out: |gram - eye|
# may reach atol + rtol * |eye| in each entry.
_EYE = np.eye(3)
_GRAM_TOL = 1e-12 + 1e-5 * _EYE


def _unit_quaternion(x: float, y: float, z: float, w: float) -> tuple[float, float, float, float]:
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    if norm == 0.0:
        raise ValueError("zero-norm quaternion")
    return x / norm, y / norm, z / norm, w / norm


def _quaternion_matrix(quat_xyzw) -> np.ndarray:
    """Rotation matrix of an (x, y, z, w) quaternion, normalized first."""
    x, y, z, w = _unit_quaternion(*np.asarray(quat_xyzw, dtype=float).reshape(4).tolist())
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([
        [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
        [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
        [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
    ])


def _matrix_quaternion(matrix) -> np.ndarray:
    """(x, y, z, w) quaternion of a rotation matrix by Shepperd's method.

    A matrix whose Gram matrix is not the identity to rtol 1e-5, atol 1e-12
    is first replaced by the nearest orthonormal one, U @ Vt of its SVD. A
    determinant <= 0 raises ValueError.
    """
    m = np.asarray(matrix, dtype=float).reshape(3, 3)
    if np.linalg.det(m) <= 0:
        raise ValueError("non-positive determinant (left-handed or null coordinate frame)")
    if not (np.abs(m @ m.T - _EYE) <= _GRAM_TOL).all():
        u, _, vt = np.linalg.svd(m[None], full_matrices=False)
        m = (u @ vt)[0]
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    trace = m00 + m11 + m22
    decision = [m00, m11, m22, trace]
    choice = decision.index(max(decision))  # the first maximum, as np.argmax
    if choice == 0:
        quat = (1 - trace + 2 * m00, m10 + m01, m20 + m02, m21 - m12)
    elif choice == 1:
        quat = (m10 + m01, 1 - trace + 2 * m11, m21 + m12, m02 - m20)
    elif choice == 2:
        quat = (m20 + m02, m21 + m12, 1 - trace + 2 * m22, m10 - m01)
    else:
        quat = (m21 - m12, m02 - m20, m10 - m01, 1 + trace)
    return np.array(_unit_quaternion(*quat))


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
        return cls(_quaternion_matrix(quat_xyzw), translation)

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def quaternion_xyzw(self) -> np.ndarray:
        q = _matrix_quaternion(self.rotation)
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

