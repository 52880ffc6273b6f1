import re

import numpy as np
import pytest

from conftest import random_map
from polemap import POLE, TRUNK, DatasetError, MapFormatError, PoseSE3
from polemap.cluster_map import Cluster, ClusterMap, Frame, other_label
from polemap.dataset_io import (
    Dataset,
    LabelMap,
    load_frame,
    load_poses,
    read_label_file,
    read_point_file,
    save_poses,
    write_dataset,
    write_frame,
    write_label_file,
    write_point_file,
)
from polemap.geometry import rotation_about_z
from polemap.map_io import load_map, save_map


# ------------------------------------------------------------ raw records


def test_point_file_round_trip(tmp_path, rng):
    path = tmp_path / "scan.bin"
    points = rng.normal(0.0, 10.0, size=(57, 4)).astype("<f4")
    write_point_file(path, points)
    np.testing.assert_array_equal(read_point_file(path), points)


def test_point_file_rejects_truncation(tmp_path):
    path = tmp_path / "scan.bin"
    write_point_file(path, np.zeros((3, 4), dtype="<f4"))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DatasetError, match="not a multiple"):
        read_point_file(path)


def test_label_file_round_trip(tmp_path, rng):
    path = tmp_path / "scan.label"
    labels = rng.integers(0, 2**32, size=41, dtype=np.uint32)
    write_label_file(path, labels)
    np.testing.assert_array_equal(read_label_file(path), labels)


def test_label_file_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "scan.label"
    write_label_file(path, np.arange(5, dtype=np.uint32))
    path.write_bytes(path.read_bytes() + b"\x01\x02")
    with pytest.raises(DatasetError, match="not a multiple"):
        read_label_file(path)


# ---------------------------------------------------------------- frames


def test_frame_round_trip_preserves_float32_coordinates(tmp_path):
    label_map = LabelMap()
    xs = np.float32([0.125, 1.75, 2.5, 3.0]).astype(float)
    xyz = np.column_stack([xs, np.full(4, 0.25), np.full(4, -1.5)])
    labels = [POLE if x < 2 else TRUNK for x in xs]
    frame = Frame(timestamp=1.5, xyz=xyz, labels=labels)
    write_frame(tmp_path / "f.bin", tmp_path / "f.label", frame, label_map)
    loaded = load_frame(tmp_path / "f.bin", tmp_path / "f.label", label_map, 1.5)
    assert loaded.timestamp == 1.5
    assert loaded.xyz.dtype == np.float64
    np.testing.assert_array_equal(loaded.xyz, xyz)
    np.testing.assert_array_equal(loaded.labels, labels)


def test_frame_decoding_ignores_instance_bits(tmp_path):
    label_map = LabelMap(pole_id=5, trunk_id=6)
    write_point_file(tmp_path / "f.bin", np.zeros((3, 4), dtype="<f4"))
    raw = np.array([(7 << 16) | 5, (1 << 24) | 6, 99], dtype="<u4")
    write_label_file(tmp_path / "f.label", raw)
    frame = load_frame(tmp_path / "f.bin", tmp_path / "f.label", label_map, 0.0)
    assert frame.labels.tolist() == [
        POLE, TRUNK, other_label(99)
    ]


def test_frame_count_mismatch_rejected(tmp_path):
    write_point_file(tmp_path / "f.bin", np.zeros((4, 4), dtype="<f4"))
    write_label_file(tmp_path / "f.label", np.zeros(3, dtype="<u4"))
    with pytest.raises(DatasetError, match="3 labels for 4 points"):
        load_frame(tmp_path / "f.bin", tmp_path / "f.label", LabelMap(), 0.0)


# ----------------------------------------------------------------- poses


def _random_poses(rng, n=12):
    poses = []
    for k in range(n):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        pose = PoseSE3.from_quaternion(rng.normal(0.0, 100.0, size=3), q)
        poses.append((0.5 * k, pose))
    return poses


def test_pose_file_round_trip(tmp_path, rng):
    path = tmp_path / "poses.txt"
    poses = _random_poses(rng)
    save_poses(path, poses)
    loaded = load_poses(path)
    assert len(loaded) == len(poses)
    for (t0, p0), (t1, p1) in zip(poses, loaded):
        assert t1 == t0
        np.testing.assert_array_equal(p1.translation, p0.translation)
        np.testing.assert_allclose(p1.rotation, p0.rotation, atol=1e-12)
    # the coordinate limit itself is written and read back
    save_poses(path, [(0.0, _planar(-1e9)), (0.5, _planar(1e9))])
    assert [p.translation[0] for _, p in load_poses(path)] == [-1e9, 1e9]


def test_pose_file_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("# header\n\n0.0 1.0 2.0 3.0 0.0 0.0 0.0 1.0\n", encoding="ascii")
    loaded = load_poses(path)
    assert len(loaded) == 1
    np.testing.assert_array_equal(loaded[0][1].translation, [1.0, 2.0, 3.0])


def test_pose_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("0.0 1.0 2.0\n", encoding="ascii")
    with pytest.raises(DatasetError, match=r"poses\.txt:1: expected 8 fields"):
        load_poses(path)
    path.write_text("0.0 1.0 2.0 3.0 0.0 zero 0.0 1.0\n", encoding="ascii")
    with pytest.raises(DatasetError, match=":1: non-numeric"):
        load_poses(path)


def test_pose_file_rejects_denormalized_quaternion(tmp_path):
    path = tmp_path / "poses.txt"
    good = "0.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n"
    bad = "0.5 0.0 0.0 0.0 0.5 0.0 0.0 0.5\n"
    path.write_text(good + bad, encoding="ascii")
    with pytest.raises(DatasetError, match=":2: quaternion norm"):
        load_poses(path)


@pytest.mark.parametrize(
    "line, error",
    [
        ("0.5 nan 0.0 0.0 0.0 0.0 0.0 1.0", "non-finite field"),
        ("0.5 5.0 0.0 0.0 nan 0.0 0.0 1.0", "non-finite field"),
        ("0.5 5.0 0.0 0.0 0.0 0.0 0.0 inf", "non-finite field"),
        ("0.5 -inf 0.0 0.0 0.0 0.0 0.0 1.0", "non-finite field"),
        ("nan 5.0 0.0 0.0 0.0 0.0 0.0 1.0", "non-finite field"),
        ("0.0 5.0 0.0 0.0 0.0 0.0 0.0 1.0", "timestamp 0.0 does not increase"),
        ("-0.5 5.0 0.0 0.0 0.0 0.0 0.0 1.0", "timestamp -0.5 does not increase"),
    ],
    ids=["nan-translation", "nan-quaternion", "inf-quaternion", "inf-translation",
         "nan-timestamp", "repeated-timestamp", "decreasing-timestamp"],
)
def test_pose_file_rejects_non_finite_fields_and_unordered_timestamps(tmp_path, line, error):
    path = tmp_path / "poses.txt"
    first, last = "0.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0", "1.0 9.0 0.0 0.0 0.0 0.0 0.0 1.0"
    path.write_text(f"{first}\n{line}\n{last}\n", encoding="ascii")
    with pytest.raises(DatasetError) as exc:
        load_poses(path)
    assert str(exc.value) == f"{path}:2: {error}"


@pytest.mark.parametrize(
    "index, t, x, error",
    [
        (1, 0.5, float("nan"), "non-finite field"),
        (1, float("nan"), 5.0, "non-finite field"),
        (1, 0.5, 2e9, "translation beyond 1e+09 m"),
        (1, 0.5, -2e9, "translation beyond 1e+09 m"),
        (1, 0.0, 5.0, "timestamp 0.0 does not increase"),
        (1, -0.5, 5.0, "timestamp -0.5 does not increase"),
    ],
    ids=["nan-translation", "nan-timestamp", "huge-translation", "huge-negative-translation",
         "repeated-timestamp", "decreasing-timestamp"],
)
def test_save_poses_refuses_what_load_poses_rejects(tmp_path, index, t, x, error):
    path = tmp_path / "poses.txt"
    poses = [(0.0, PoseSE3.identity()), (t, _planar(x)), (1.0, _planar(9.0))]
    with pytest.raises(DatasetError) as exc:
        save_poses(path, poses)
    assert str(exc.value) == f"{path}: pose {index}: {error}"
    assert not path.exists()


@pytest.mark.parametrize(
    "rotation",
    [1.001 * np.eye(3), np.diag([1.0, 1.0, -1.0])],
    ids=["scaled", "reflection"],
)
def test_save_poses_refuses_a_rotation_that_is_not_orthonormal(tmp_path, rotation):
    path = tmp_path / "poses.txt"
    poses = [(0.0, PoseSE3.identity()), (0.5, PoseSE3(rotation, [5.0, 0.0, 0.0])), (1.0, _planar(9.0))]
    with pytest.raises(DatasetError) as exc:
        save_poses(path, poses)
    assert str(exc.value) == f"{path}: pose 1: rotation is not orthonormal"
    assert not path.exists()


# --------------------------------------------------------------- dataset


def _frame(ts, xs, label=POLE):
    xyz = [(float(x), 0.0, 1.0) for x in xs]
    return Frame(timestamp=ts, xyz=xyz, labels=[label] * len(xs))


def _planar(x, yaw=0.0):
    return PoseSE3(rotation_about_z(yaw), np.array([x, 0.0, 0.0]))


def test_write_and_open_dataset(tmp_path):
    frames = [_frame(0.0, [1, 2, 3]), _frame(0.5, [4, 5]), _frame(1.0, [6])]
    poses = [(f.timestamp, _planar(5.0 * f.timestamp)) for f in frames]
    odom = [(t, _planar(p.translation[0] * 1.01)) for t, p in poses]
    write_dataset(tmp_path, frames, poses, LabelMap(), odometry=odom)

    ds = Dataset(tmp_path)
    assert ds.frame_count == 3
    assert [t for t, _ in ds.poses()] == [0.0, 0.5, 1.0]
    assert ds.odometry() is not None
    frame = ds.frame(1, LabelMap(), 0.5)
    assert len(frame.xyz) == 2
    assert frame.xyz[0, 0] == 4.0


def test_write_dataset_refuses_a_frame_beyond_float32_before_writing(tmp_path):
    # frame 1 is finite as float64 but would read back as inf
    frames = [_frame(0.0, [1]), _frame(0.5, [4e38]), _frame(1.0, [2])]
    poses = [(f.timestamp, _planar(0.0)) for f in frames]
    with pytest.raises(DatasetError) as exc:
        write_dataset(tmp_path / "data", frames, poses, LabelMap())
    assert str(exc.value) == f"{tmp_path}/data/points/000001.bin: point beyond the float32 range"
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(DatasetError, match="float32 range"):
        write_frame(tmp_path / "f.bin", tmp_path / "f.label", frames[1], LabelMap())
    assert list(tmp_path.iterdir()) == []


def test_dataset_without_odometry(tmp_path):
    frames = [_frame(0.0, [1])]
    write_dataset(tmp_path, frames, [(0.0, _planar(0.0))], LabelMap())
    assert Dataset(tmp_path).odometry() is None


def test_dataset_missing_layout_rejected(tmp_path):
    with pytest.raises(DatasetError, match="missing points"):
        Dataset(tmp_path)
    (tmp_path / "points").mkdir()
    (tmp_path / "labels").mkdir()
    with pytest.raises(DatasetError, match="missing poses"):
        Dataset(tmp_path)


def test_dataset_file_count_mismatch_rejected(tmp_path):
    frames = [_frame(0.0, [1]), _frame(0.5, [2])]
    poses = [(f.timestamp, _planar(0.0)) for f in frames]
    write_dataset(tmp_path, frames, poses, LabelMap())
    (tmp_path / "labels" / "000001.label").unlink()
    with pytest.raises(DatasetError, match="2 point files but 1 label files"):
        Dataset(tmp_path)


def test_dataset_file_stem_mismatch_rejected(tmp_path):
    frames = [_frame(0.0, [1]), _frame(0.5, [2]), _frame(1.0, [3])]
    poses = [(f.timestamp, _planar(0.0)) for f in frames]
    write_dataset(tmp_path, frames, poses, LabelMap())
    # the counts agree, but frame 1 would read 000002.bin with 000001.label
    (tmp_path / "points" / "000001.bin").unlink()
    (tmp_path / "labels" / "000002.label").unlink()
    with pytest.raises(DatasetError, match=r"points/000002\.bin pairs with labels/000001\.label"):
        Dataset(tmp_path)


def test_dataset_pose_count_mismatch_rejected(tmp_path):
    frames = [_frame(0.0, [1]), _frame(0.5, [2])]
    poses = [(f.timestamp, _planar(0.0)) for f in frames]
    write_dataset(tmp_path, frames, poses, LabelMap())
    save_poses(tmp_path / "poses.txt", poses[:1])
    with pytest.raises(DatasetError, match="1 poses for 2 frames"):
        Dataset(tmp_path).poses()


# ------------------------------------------------------------------ maps


def test_map_round_trip_with_points(tmp_path, rng):
    original = random_map(rng, 14)
    path = tmp_path / "map.txt"
    save_map(original, path)
    loaded = load_map(path)
    assert loaded.ids() == original.ids()
    for cid in original.ids():
        a, b = original.get(cid), loaded.get(cid)
        assert b.label == a.label
        np.testing.assert_array_equal(b.centroid3d, a.centroid3d)
        np.testing.assert_array_equal(b.centroid2d, a.centroid2d)
        assert b.n_points == a.n_points
        np.testing.assert_array_equal(b.points, a.points.astype("<f4").astype(float))


@pytest.mark.parametrize(
    "points, error",
    [
        ([(2e9, 0.0, 1.0)], "cluster 7: centroid beyond 1e+09 m"),
        ([(0.0, -1e9 - 1.0, 1.0), (0.0, -1e9 - 3.0, 1.0)], "cluster 7: centroid beyond 1e+09 m"),
        # the mean is 0, but neither member is finite as float32
        ([(4e38, 0.0, 1.0), (-4e38, 0.0, 1.0)], "member point beyond the float32 range"),
    ],
    ids=["centroid-x", "centroid-negative-y", "member-overflows-float32"],
)
def test_save_map_refuses_what_load_map_rejects(tmp_path, points, error):
    cluster_map = ClusterMap()
    for cid, label, members in ((3, POLE, [(1.0, 2.0, 1.0)]), (7, TRUNK, points)):
        members = np.array(members)
        cluster_map.insert(Cluster(cid, label, members, members.mean(axis=0)))
    path = tmp_path / "map.txt"
    with pytest.raises(MapFormatError) as exc:
        save_map(cluster_map, path)
    assert str(exc.value) == f"{path}: {error}"
    assert list(tmp_path.iterdir()) == []


def test_map_without_sidecar_synthesizes_centroid_points(tmp_path, rng):
    original = random_map(rng, 6)
    path = tmp_path / "map.txt"
    save_map(original, path)
    (tmp_path / "map.txt.points").unlink()
    loaded = load_map(path)
    for cid in loaded.ids():
        cluster = loaded.get(cid)
        assert len(cluster.points) == 1
        np.testing.assert_array_equal(cluster.points[0], cluster.centroid3d)


def test_map_sidecar_size_mismatch_rejected(tmp_path, rng):
    original = random_map(rng, 5)
    path = tmp_path / "map.txt"
    save_map(original, path)
    sidecar = tmp_path / "map.txt.points"
    sidecar.write_bytes(sidecar.read_bytes()[:-12])
    with pytest.raises(MapFormatError, match="does not match declared counts"):
        load_map(path)


def test_map_header_validation(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("", encoding="ascii")
    with pytest.raises(MapFormatError, match="empty"):
        load_map(path)
    path.write_text("something-else 1\n", encoding="ascii")
    with pytest.raises(MapFormatError, match="not a polemap-map file"):
        load_map(path)
    path.write_text("polemap-map one\n", encoding="ascii")
    with pytest.raises(MapFormatError, match="bad version"):
        load_map(path)
    path.write_text("polemap-map 3\nlabels pole=5 trunk=6\n", encoding="ascii")
    with pytest.raises(MapFormatError, match="unsupported map version 3"):
        load_map(path)
    path.write_text("polemap-map 1\n", encoding="ascii")
    with pytest.raises(MapFormatError, match="missing labels"):
        load_map(path)


def test_map_unreadable_file_rejected(tmp_path):
    with pytest.raises(MapFormatError, match=f"^{re.escape(str(tmp_path))}: "):
        load_map(tmp_path)
    path = tmp_path / "map.txt"
    path.write_bytes(b"polemap-map 2\nlabels pole=5 trunk=6\n\xe9\n")
    with pytest.raises(MapFormatError, match="can't decode byte 0xe9"):
        load_map(path)


def test_map_body_validation(tmp_path):
    head = "polemap-map 1\nlabels pole=5 trunk=6\n"
    path = tmp_path / "map.txt"
    path.write_text(head + "cluster 0 pole 1.0 2.0 0.5 1.0 2.0\n", encoding="ascii")
    with pytest.raises(MapFormatError, match=":3: unexpected line"):
        load_map(path)
    path.write_text(head + "cluster 0 lamp 1.0 2.0 0.5 1.0 2.0 4\n", encoding="ascii")
    with pytest.raises(MapFormatError, match=":3: unparseable"):
        load_map(path)
    path.write_text(head + "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 0\n", encoding="ascii")
    with pytest.raises(MapFormatError, match="count must be positive"):
        load_map(path)
    path.write_text(head + "cluster 0 pole 1.0 2.0 0.5 1.5 2.0 4\n", encoding="ascii")
    with pytest.raises(MapFormatError, match="2D centroid disagrees"):
        load_map(path)
    for bad in ("nan 2.0 0.5 nan", "1.0 2.0 -inf 1.0"):
        path.write_text(head + f"cluster 0 pole {bad} 2.0 1\n", encoding="ascii")
        with pytest.raises(MapFormatError, match=":3: non-finite centroid"):
            load_map(path)
    path.write_text(head + "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 1\n", encoding="ascii")
    load_map(path)  # canonical final newline is fine
    path.write_text(head + "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 1\n\n", encoding="ascii")
    with pytest.raises(MapFormatError, match="blank line"):
        load_map(path)


def test_map_duplicate_id_rejected(tmp_path):
    head = "polemap-map 1\nlabels pole=5 trunk=6\n"
    row = "cluster 3 pole 1.0 2.0 0.5 1.0 2.0 1\n"
    path = tmp_path / "map.txt"
    path.write_text(head + row + row, encoding="ascii")
    with pytest.raises(MapFormatError, match="duplicate cluster id"):
        load_map(path)


def test_version_1_map_loads_with_observed_equal_to_npoints(tmp_path):
    path = tmp_path / "v1.txt"
    path.write_text(
        "polemap-map 1\nlabels pole=5 trunk=6\n"
        "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 3\n"
        "cluster 4 trunk -1.5 2.25 0.75 -1.5 2.25 1\n",
        encoding="ascii",
    )
    points = np.array([[0.5, 2.0, 0.5], [1.0, 2.0, 0.5], [1.5, 2.0, 0.5], [-1.5, 2.25, 0.75]])
    points.astype("<f4").tofile(tmp_path / "v1.txt.points")
    loaded = load_map(path)
    assert [(c.cluster_id, c.n_points, c.observed) for c in loaded] == [(0, 3, 3), (4, 1, 1)]
    np.testing.assert_array_equal(loaded.get(0).points, points[:3])
    save_map(loaded, tmp_path / "v2.txt")
    assert (tmp_path / "v2.txt").read_text(encoding="ascii").split("\n")[0::2] == [
        "polemap-map 2",
        "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 3 3",
        "",
    ]


@pytest.mark.parametrize(
    "record, error",
    [
        ("1.0 2.0 0.5 1.0 2.0 4", ":3: unexpected line"),
        ("1.0 2.0 0.5 1.0 2.0 4 four", ":3: unparseable cluster record"),
        ("1.0 2.0 0.5 1.0 2.0 4 4.0", ":3: unparseable cluster record"),
        ("1.0 2.0 0.5 1.0 2.0 4 3", ":3: observed count must lie in npoints"),
        ("1.0 2.0 0.5 1.0 2.0 4 9007199254740993", ":3: observed count must lie in npoints"),
    ],
    ids=["missing", "word", "float", "below-npoints", "above-2**53"],
)
def test_map_v2_observed_validation(tmp_path, record, error):
    path = tmp_path / "map.txt"
    path.write_text(f"polemap-map 2\nlabels pole=5 trunk=6\ncluster 0 pole {record}\n",
                    encoding="ascii")
    with pytest.raises(MapFormatError, match=error):
        load_map(path)


def test_map_without_sidecar_keeps_its_weights(tmp_path, rng):
    original = random_map(rng, 5)
    for cluster in original:
        new = rng.normal(cluster.centroid3d, 0.1, size=(32, 3))
        original.absorb([cluster.cluster_id], [cluster.label], new, [len(new)])
    first, second, third = (tmp_path / f"{name}.txt" for name in ("first", "second", "third"))
    save_map(original, first)
    (tmp_path / "first.txt.points").unlink()
    loaded = load_map(first)
    save_map(loaded, second)
    (tmp_path / "second.txt.points").unlink()
    # Each line keeps its centroid and observed count; only npoints becomes
    # the one synthetic member the load made.
    want = [line.rsplit(" ", 2) for line in first.read_text(encoding="ascii").split("\n")]
    got = [line.rsplit(" ", 2) for line in second.read_text(encoding="ascii").split("\n")]
    assert [w[0] for w in want[2:-1]] == [g[0] for g in got[2:-1]]
    assert [(w[2], "1") for w in want[2:-1]] == [(g[2], g[1]) for g in got[2:-1]]
    assert [c.observed for c in loaded] == [c.observed for c in original] == [40] * 5
    # a second round trip is byte-stable
    save_map(load_map(second), third)
    assert third.read_bytes() == second.read_bytes()
    # the next merge weighs the stored centroid by its 40 observed points
    new = rng.normal(loaded.get(0).centroid3d, 0.1, size=(10, 3))
    centroid = loaded.get(0).centroid3d
    loaded.absorb([0], [loaded.get(0).label], new, [len(new)])
    merged = loaded.get(0)
    assert merged.observed == 50
    np.testing.assert_allclose(merged.centroid3d, (40 * centroid + new.sum(axis=0)) / 50, rtol=0, atol=1e-12)
