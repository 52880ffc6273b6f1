import math

import numpy as np
import pytest

from polemap import (
    POLE,
    TRUNK,
    Cluster,
    ClusterMap,
    PoseSE3,
    RegistrationStats,
    SceneSpec,
    TrajectorySpec,
    build_local_map,
    generate_scene,
    register_frame,
    simulate_run,
)
from polemap import cluster_map as cluster_map_module
from polemap.extraction import ExtractionParams, extract_clusters
from polemap.cluster_map import VOXEL_SIZE, Frame, voxel_keys
from polemap.geometry import rotation_about_z
from polemap.map_io import save_map
from conftest import cluster_points
from oracles import oracle_build_map, oracle_local_map, oracle_register_frame


def single_cluster(rng, center, label=POLE):
    frame = Frame(0.0, cluster_points(rng, center, n=12), np.full(12, label))
    return extract_clusters(frame, ExtractionParams(min_points=1))


def test_build_local_map_poses_points_and_centroid(rng):
    clusters = single_cluster(rng, (2.0, 0.0, 1.0), label=TRUNK)
    pose = PoseSE3(rotation_about_z(math.pi / 2), np.array([1.0, 0.0, 0.0]))
    local = build_local_map(clusters, pose)
    assert len(local) == 1
    src, dst = clusters[0], local.get(0)
    assert dst.label == TRUNK
    assert dst.points.tobytes() == pose.apply(src.points).tobytes()
    # (2, 0) rotates onto (0, 2), then shifts to (1, 2)
    assert np.allclose(dst.centroid2d, [1.0, 2.0], atol=0.2)
    assert np.allclose(dst.centroid3d, pose.apply(src.centroid3d), atol=1e-12)


def test_build_local_map_rejects_bad_pose(rng):
    clusters = single_cluster(rng, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="orthonormal"):
        build_local_map(clusters, PoseSE3(np.eye(3) * 1.5, np.zeros(3)))


@pytest.mark.parametrize("pose", [
    PoseSE3(np.eye(3) * 1.5, np.zeros(3)),
    PoseSE3(np.eye(3), np.array([np.nan, 0.0, 0.0])),
], ids=["scaled", "non-finite"])
def test_register_rejects_bad_pose_before_touching_the_map(rng, pose):
    cluster_map = ClusterMap()
    register_frame(cluster_map, single_cluster(rng, (5.0, 5.0, 2.0)), PoseSE3.identity())
    register_frame(cluster_map, single_cluster(rng, (5.0, 5.0, 2.0)), PoseSE3.identity())
    register_frame(cluster_map, single_cluster(rng, (9.0, 5.0, 2.0)), PoseSE3.identity())
    before = [(c.cluster_id, c.points.copy(), c.centroid3d.copy()) for c in cluster_map]
    with pytest.raises(ValueError, match="invalid rigid transform: rotation is not orthonormal"):
        register_frame(cluster_map, single_cluster(rng, (5.0, 5.0, 2.0)), pose)
    after = list(cluster_map)
    assert [c.cluster_id for c in after] == [cid for cid, _, _ in before]
    for cluster, (_, points, centroid) in zip(after, before):
        assert np.array_equal(cluster.points, points)
        assert np.array_equal(cluster.centroid3d, centroid)


def test_register_inserts_into_empty_map(rng):
    cluster_map = ClusterMap()
    clusters = single_cluster(rng, (5.0, 5.0, 2.0))
    stats = register_frame(cluster_map, clusters, PoseSE3.identity())
    assert (stats.inserted, stats.merged) == (1, 0)
    assert len(cluster_map) == 1


def test_register_empty_frame_changes_nothing():
    cluster_map = ClusterMap()
    assert register_frame(cluster_map, [], PoseSE3.identity()) == RegistrationStats(0, 0)
    assert len(cluster_map) == 0
    assert len(build_local_map([], PoseSE3.identity())) == 0


def test_register_merges_within_radius(rng):
    cluster_map = ClusterMap()
    register_frame(
        cluster_map, single_cluster(rng, (5.0, 5.0, 2.0)), PoseSE3.identity()
    )
    before = cluster_map.get(0).n_points
    # second observation of the same pole, slightly offset
    stats = register_frame(
        cluster_map, single_cluster(rng, (5.4, 5.0, 2.0)), PoseSE3.identity()
    )
    assert (stats.inserted, stats.merged) == (0, 1)
    assert len(cluster_map) == 1
    assert cluster_map.get(0).n_points > before


def test_register_inserts_beyond_radius(rng):
    cluster_map = ClusterMap()
    register_frame(
        cluster_map, single_cluster(rng, (5.0, 5.0, 2.0)), PoseSE3.identity()
    )
    stats = register_frame(
        cluster_map, single_cluster(rng, (8.0, 5.0, 2.0)), PoseSE3.identity()
    )
    assert (stats.inserted, stats.merged) == (1, 0)
    assert len(cluster_map) == 2


def test_merge_adopts_map_label(rng):
    cluster_map = ClusterMap()
    register_frame(
        cluster_map, single_cluster(rng, (5.0, 5.0, 2.0), POLE), PoseSE3.identity()
    )
    register_frame(
        cluster_map, single_cluster(rng, (5.3, 5.0, 2.0), TRUNK), PoseSE3.identity()
    )
    assert len(cluster_map) == 1
    assert cluster_map.get(0).label == POLE


def test_register_applies_pose(rng):
    cluster_map = ClusterMap()
    clusters = single_cluster(rng, (2.0, 0.0, 1.0))
    pose = PoseSE3(rotation_about_z(math.pi), np.array([0.0, 0.0, 0.0]))
    register_frame(cluster_map, clusters, pose)
    assert np.allclose(cluster_map.get(0).centroid2d, [-2.0, 0.0], atol=0.2)


def test_merge_targets_snapshot_not_running_map(rng):
    # two incoming clusters both near one map cluster: the second must merge
    # into the original target, not chain onto the freshly merged result
    cluster_map = ClusterMap()
    register_frame(
        cluster_map, single_cluster(rng, (0.0, 0.0, 2.0)), PoseSE3.identity()
    )
    frame = Frame(
        0.0,
        np.concatenate([
            cluster_points(rng, (0.9, 0.0, 2.0), n=12, spread=0.05),
            cluster_points(rng, (-0.9, 0.0, 2.0), n=12, spread=0.05),
        ]),
        np.full(24, POLE),
    )
    incoming = extract_clusters(frame, ExtractionParams(min_points=1))
    assert len(incoming) == 2
    stats = register_frame(cluster_map, incoming, PoseSE3.identity())
    assert (stats.inserted, stats.merged) == (0, 2)
    assert len(cluster_map) == 1


def test_build_local_map_numbers_from_zero(rng):
    frame_clusters = []
    for k in range(4):
        frame_clusters.extend(single_cluster(rng, (4.0 * k, 0.0, 2.0)))
    pose = PoseSE3(rotation_about_z(0.3), np.array([1.0, 2.0, 0.0]))
    local = build_local_map(frame_clusters, pose)
    assert local.ids() == [0, 1, 2, 3]
    assert len(local) == 4


# A closed 150 m loop around the centre of a small scene, 60 frames a lap.
LAP_FRAMES = 60


@pytest.fixture(scope="module")
def loop_frames():
    """(clusters, true pose) of each frame of the loop driven four times."""
    scene = generate_scene(SceneSpec(area=(120.0, 120.0), n_clusters=20, seed=3))
    lap = 2.5 * LAP_FRAMES
    run = simulate_run(scene, TrajectorySpec(
        start=(60.0, 60.0 - lap / (2 * math.pi)), length=4 * lap,
        turn_rate_deg_per_m=360.0 / lap))
    return [(extract_clusters(frame), pose)
            for frame, (_, pose) in zip(run.frames[:4 * LAP_FRAMES], run.true_poses)]


def test_laps_after_the_first_add_fewer_members_than_it(loop_frames):
    cluster_map = ClusterMap()
    added = []
    for lap in range(4):
        before = sum(c.n_points for c in cluster_map)
        for clusters, pose in loop_frames[lap * LAP_FRAMES:(lap + 1) * LAP_FRAMES]:
            register_frame(cluster_map, clusters, pose)
        added.append(sum(c.n_points for c in cluster_map) - before)
    assert sum(added[1:]) < added[0]
    observed = sum(c.n_points for clusters, _ in loop_frames for c in clusters)
    assert sum(c.observed for c in cluster_map) == observed
    assert sum(c.n_points for c in cluster_map) < observed / 10


def _saved(tmp_path, name, cluster_map) -> tuple[bytes, bytes]:
    path = tmp_path / name
    save_map(cluster_map, path)
    return path.read_bytes(), (tmp_path / f"{name}.points").read_bytes()


def test_register_matches_point_by_point_reference(tmp_path, loop_frames):
    # Half a lap and its return: merges into clusters built many frames ago.
    frames = loop_frames[:30] + loop_frames[LAP_FRAMES:LAP_FRAMES + 10]
    built = ClusterMap()
    for clusters, pose in frames:
        register_frame(built, clusters, pose)
    reference = ClusterMap()
    for cid, (label, members, centroid, observed) in oracle_build_map(
            frames, 1.0, VOXEL_SIZE).items():
        reference.insert(Cluster(cid, label, members, centroid, observed))
    assert _saved(tmp_path, "built.txt", built) == _saved(tmp_path, "reference.txt", reference)
    assert sum(c.n_points for c in built) < sum(c.observed for c in built) / 3


def test_far_points_never_alias():
    # Pairs of points one voxel apart, at the origin, across zero and at
    # growing distances; from 2**53 cells out a point gets a key of its own,
    # so even the pair that rounds to one point keeps two keys.
    pairs = [(base, base + VOXEL_SIZE) for base in (0.0, 300.0, 1e15, 1e25, 1e300)]
    pairs.append((-VOXEL_SIZE / 2, VOXEL_SIZE / 2))
    points = np.array([[x, 0.0, 0.0] for pair in pairs for x in pair])
    keys = voxel_keys(points)
    assert all(a != b for a, b in zip(keys[::2], keys[1::2]))
    cluster_map = ClusterMap()
    for pair in points.reshape(-1, 2, 3):
        assert cluster_map.absorb([-1], [POLE], pair, [2], capped=True)[0].n_points == 2
    # the first pair's cells are exact, so seeing it again adds no member
    cluster_map.absorb([0], [POLE], points[:2], [2])
    cluster = cluster_map.get(0)
    assert (cluster.n_points, cluster.observed) == (2, 4)


def test_capped_merge_knows_the_members_it_did_not_add(rng):
    points = cluster_points(rng, (5.0, 5.0, 1.0), n=30)
    cluster_map = ClusterMap()
    cluster_map.insert(Cluster(7, POLE, points, points.mean(axis=0)))
    # a stored cluster's members fill its voxels before its first merge
    cluster_map.absorb([7], [POLE], points, [len(points)])
    cluster = cluster_map.get(7)
    assert (cluster.n_points, cluster.observed) == (30, 60)


def test_voxel_keys_fold_signed_zero_and_keep_far_points_apart():
    a, b = voxel_keys(np.array([[0.0, -0.0, 0.05], [-0.0, 0.0, 0.0]]))
    assert a == b
    far = np.array([[np.finfo(float).max, 0.0, 0.0]] * 2)
    assert len(set(voxel_keys(far))) == 2


def _state(cluster_map) -> list:
    """Everything registration changes, per cluster: id, label, member and
    centroid bytes, observed count, kept coordinate sum and voxel set."""
    state = []
    for c in cluster_map:
        total = cluster_map._sums.get(c.cluster_id)
        voxels = cluster_map._voxels.get(c.cluster_id)
        state.append((
            c.cluster_id, c.label, c.points.tobytes(), c.centroid3d.tobytes(), c.observed,
            None if total is None else total.tobytes(),
            None if voxels is None else frozenset(voxels),
        ))
    return state


def _start_map(case, seed) -> ClusterMap:
    """Empty for the loop drive; else an ordinary cluster at (0, 0), and for
    the loaded target a loaded cluster at (8, 0) whose centroid weighs 40
    observed points and 3 members."""
    cluster_map = ClusterMap()
    if case == "loop":
        return cluster_map
    rng = np.random.default_rng(seed)
    points = cluster_points(rng, (0.0, 0.0, 2.0), n=12)
    cluster_map.absorb([-1], [POLE], points, [len(points)], capped=True)
    if case == "loaded-target":
        members = cluster_points(rng, (8.0, 0.0, 2.0), n=3)
        cluster_map.insert(Cluster(1, TRUNK, members, np.array([8.01, -0.02, 2.03]), 40))
    return cluster_map


@pytest.mark.parametrize("case", ["loop", "two-into-one", "loaded-target"])
def test_register_matches_one_cluster_at_a_time(tmp_path, rng, loop_frames, case):
    frames = loop_frames
    if case != "loop":
        # two clusters within merge_radius of (0, 0), one near (8, 0) and
        # one far from both
        frame = Frame(0.0, np.concatenate([
            cluster_points(rng, (0.9, 0.0, 2.0), n=12, spread=0.05),
            cluster_points(rng, (-0.9, 0.0, 2.0), n=9, spread=0.05),
            cluster_points(rng, (8.3, 0.2, 2.0), n=7, spread=0.05),
            cluster_points(rng, (20.0, 5.0, 2.0), n=5, spread=0.05),
        ]), np.array([POLE] * 21 + [TRUNK] * 12))
        incoming = extract_clusters(frame, ExtractionParams(min_points=1))
        assert len(incoming) == 4
        nudge = PoseSE3(rotation_about_z(0.01), np.array([0.05, -0.02, 0.0]))
        frames = [(incoming, PoseSE3.identity()), (incoming, nudge)]
    seed = int(rng.integers(1 << 30))
    built, reference = _start_map(case, seed), _start_map(case, seed)
    for k, (clusters, pose) in enumerate(frames):
        stats = register_frame(built, clusters, pose)
        oracle_register_frame(reference, clusters, pose)
        if case != "loop" and k == 0:
            assert stats.merged == (2 if case == "two-into-one" else 3)
    assert _saved(tmp_path, "built.txt", built) == _saved(tmp_path, "reference.txt", reference)
    assert _state(built) == _state(reference)
    if case == "loaded-target":
        assert built.get(1).observed > built.get(1).n_points + 40


def test_register_frame_is_atomic(rng):
    # The first merge is ordinary; the second targets a loaded cluster whose
    # sum overflows. Nothing of the frame may land, the insert included.
    cluster_map = ClusterMap()
    ordinary = cluster_points(rng, (0.0, 0.0, 2.0), n=12)
    cluster_map.absorb([-1], [POLE], ordinary, [len(ordinary)], capped=True)
    cluster_map.absorb([0], [POLE], ordinary, [len(ordinary)])
    loaded = np.array([1e308, 1e308, 1.0])
    cluster_map.insert(Cluster(1, POLE, loaded[None].copy(), loaded.copy(), 3))
    scan = ClusterMap()
    frame = [
        scan.add(POLE, cluster_points(rng, (0.2, 0.0, 2.0), n=12)),
        scan.add(POLE, [loaded]),
        scan.add(TRUNK, cluster_points(rng, (30.0, 0.0, 2.0), n=6)),
    ]
    nearest = cluster_map.nearest_within([c.centroid2d for c in frame], math.inf)
    assert nearest.tolist() == [0, 1, 0]
    before = _state(cluster_map)
    assert cluster_map.get(0).observed == 24
    with pytest.raises(ValueError, match="coordinate sum overflows"):
        register_frame(cluster_map, frame, PoseSE3.identity())
    assert _state(cluster_map) == before
    assert cluster_map.get(0).observed == 24


def test_one_voxel_key_pass_per_registered_frame(rng, monkeypatch):
    # Keys for the whole frame come from one call, however many targets and
    # inserts it has: keys per cluster took 181-197 ms per mapping pass
    # against 23 ms for keys per frame.
    cluster_map = ClusterMap()
    first_scan, scan = ClusterMap(), ClusterMap()
    start = [first_scan.add(POLE, cluster_points(rng, (8.0 * k, 0.0, 2.0), n=12)) for k in range(2)]
    register_frame(cluster_map, start, PoseSE3.identity())
    frame = [
        scan.add(POLE, cluster_points(rng, center, n=9, spread=0.05))
        for center in [(0.4, 0.0, 2.0), (-0.4, 0.0, 2.0), (8.3, 0.0, 2.0), (30.0, 0.0, 2.0)]
    ]
    calls = []

    def spy(points):
        calls.append(len(points))
        return voxel_keys(points)

    monkeypatch.setattr(cluster_map_module, "voxel_keys", spy)
    stats = register_frame(cluster_map, frame, PoseSE3.identity())
    assert (stats.merged, stats.inserted) == (3, 1)
    assert calls == [36]


def test_build_local_map_matches_one_cluster_at_a_time(rng):
    scan = ClusterMap()
    frame_clusters = [
        scan.add(POLE if k % 2 else TRUNK, cluster_points(rng, (3.0 * k, -2.0 * k, 1.0), n=n))
        for k, n in enumerate([1, 7, 40, 2, 500, 13])
    ]
    for pose in (PoseSE3.identity(),
                 PoseSE3(rotation_about_z(2.1), np.array([150.0, -35.5, 0.25]))):
        local = build_local_map(frame_clusters, pose)
        assert _state(local) == _state(oracle_local_map(frame_clusters, pose))
