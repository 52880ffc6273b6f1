import math

import numpy as np
import pytest

from polemap import (
    POLE,
    TRUNK,
    ClusterMap,
    PoseSE3,
    build_local_map,
    register_frame,
    transform_clusters,
)
from polemap.extraction import ExtractionParams, extract_clusters
from polemap.cluster_map import Frame
from polemap.geometry import rotation_about_z
from conftest import cluster_points


def single_cluster(rng, center, label=POLE):
    frame = Frame(0.0, cluster_points(rng, center, n=12), np.full(12, label))
    return extract_clusters(frame, ExtractionParams(min_points=1))


def test_transform_moves_points_and_centroid(rng):
    clusters = single_cluster(rng, (2.0, 0.0, 1.0))
    pose = PoseSE3(rotation_about_z(math.pi / 2), np.array([1.0, 0.0, 0.0]))
    moved = transform_clusters(clusters, pose)
    assert len(moved) == 1
    src, dst = clusters[0], moved[0]
    assert dst.cluster_id == src.cluster_id
    assert dst.label == src.label
    # (2, 0) rotates onto (0, 2), then shifts to (1, 2)
    assert np.allclose(dst.centroid2d, [1.0, 2.0], atol=0.2)
    assert np.allclose(
        dst.centroid3d, pose.apply(src.centroid3d), atol=1e-12
    )
    assert dst.n_points == src.n_points


def test_transform_rejects_bad_pose(rng):
    clusters = single_cluster(rng, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="orthonormal"):
        transform_clusters(clusters, PoseSE3(np.eye(3) * 1.5, np.zeros(3)))


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
