import math

import numpy as np
import pytest

from polemap.geometry import PoseSE3, rotation_about_z


def random_pose(rng):
    quat = rng.standard_normal(4)
    quat /= np.linalg.norm(quat)
    return PoseSE3.from_quaternion(rng.uniform(-10, 10, 3), quat)


def test_identity_is_noop():
    pose = PoseSE3.identity()
    p = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(pose.apply(p), p)
    assert pose.is_valid()


def test_compose_matches_matrix_product(rng):
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        combined = a @ b
        expected = a.as_matrix() @ b.as_matrix()
        assert np.allclose(combined.as_matrix(), expected, atol=1e-12)


def test_compose_then_apply_equals_sequential(rng):
    a, b = random_pose(rng), random_pose(rng)
    pts = rng.uniform(-5, 5, (40, 3))
    assert np.allclose((a @ b).apply(pts), a.apply(b.apply(pts)), atol=1e-12)


def test_inverse_roundtrip(rng):
    for _ in range(20):
        pose = random_pose(rng)
        back = pose.inverse() @ pose
        assert np.allclose(back.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(back.translation, 0.0, atol=1e-12)


def test_apply_single_and_batch_agree(rng):
    pose = random_pose(rng)
    pts = rng.uniform(-5, 5, (7, 3))
    batch = pose.apply(pts)
    for k in range(7):
        assert np.allclose(batch[k], pose.apply(pts[k]), atol=1e-12)


def test_matrix_roundtrip(rng):
    pose = random_pose(rng)
    m = pose.as_matrix()
    again = PoseSE3(m[:3, :3], m[:3, 3])
    assert np.array_equal(again.rotation, pose.rotation)
    assert np.array_equal(again.translation, pose.translation)


def test_quaternion_roundtrip_and_sign(rng):
    for _ in range(30):
        pose = random_pose(rng)
        q = pose.quaternion_xyzw()
        assert q[3] >= 0.0
        again = PoseSE3.from_quaternion(pose.translation, q)
        assert np.allclose(again.rotation, pose.rotation, atol=1e-12)


def test_quaternion_conversion_is_bit_equal_to_scipy(rng):
    from scipy.spatial.transform import Rotation

    def scipy_quaternion(m):
        q = Rotation.from_matrix(m).as_quat()
        return -q if q[3] < 0.0 else q

    quats = rng.standard_normal((300, 4))
    quats[:100] /= np.linalg.norm(quats[:100], axis=1, keepdims=True)
    quats[200:] *= 1e3
    for q in quats:
        pose = PoseSE3.from_quaternion(np.zeros(3), q)
        assert np.array_equal(pose.rotation, Rotation.from_quat(q).as_matrix())
        assert np.array_equal(pose.quaternion_xyzw(), scipy_quaternion(pose.rotation))
    # Shepperd's method picks its case by the largest of m00, m11, m22 and the trace.
    tilt = PoseSE3.from_quaternion(np.zeros(3), [0.01, -0.02, 0.03, 1.0]).rotation
    cases = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
             np.diag([-1.0, -1.0, 1.0]), rotation_about_z(0.1)]
    for case, m in enumerate(cases):
        tilted = m @ tilt
        assert np.argmax([*np.diag(tilted), np.trace(tilted)]) == case
        assert np.array_equal(PoseSE3(tilted, np.zeros(3)).quaternion_xyzw(), scipy_quaternion(tilted))
    # A Gram error of 1e-10 takes the re-orthogonalizing SVD branch.
    for q in quats[:50]:
        m = Rotation.from_quat(q).as_matrix() + 1e-10 * rng.standard_normal((3, 3))
        assert not np.allclose(m @ m.T, np.eye(3), rtol=1e-5, atol=1e-12)
        assert np.array_equal(PoseSE3(m, np.zeros(3)).quaternion_xyzw(), scipy_quaternion(m))
    for m in (np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3))):
        with pytest.raises(ValueError):
            Rotation.from_matrix(m)
        with pytest.raises(ValueError):
            PoseSE3(m, np.zeros(3)).quaternion_xyzw()
    with pytest.raises(ValueError):
        Rotation.from_quat(np.zeros(4))
    with pytest.raises(ValueError):
        PoseSE3.from_quaternion(np.zeros(3), np.zeros(4))


def test_rotation_about_z_quarter_turn():
    rot = rotation_about_z(math.pi / 2)
    assert np.allclose(rot @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(rot @ np.array([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-15)


def test_invalid_rotation_rejected():
    bad = PoseSE3(np.eye(3) * 2.0, np.zeros(3))
    assert not bad.is_valid()
    with pytest.raises(ValueError, match="orthonormal"):
        bad.require_valid()
    scaled = PoseSE3(np.full((3, 3), np.nan), np.zeros(3))
    assert not scaled.is_valid()


def test_renormalized_repairs_drift(rng):
    pose = random_pose(rng)
    # accumulate round-off by composing many small rotations
    step = PoseSE3(rotation_about_z(1e-3), np.zeros(3))
    for _ in range(20000):
        pose = pose @ step
    repaired = pose.renormalized()
    assert repaired.is_valid()
    assert np.allclose(repaired.rotation, pose.rotation, atol=1e-9)


def test_post_init_copies_and_reshapes():
    rot = np.eye(3)
    pose = PoseSE3(rot, [1.0, 2.0, 3.0])
    rot[0, 0] = 99.0
    assert pose.rotation[0, 0] == 1.0
    assert pose.translation.shape == (3,)

