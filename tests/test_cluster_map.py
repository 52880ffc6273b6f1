import numpy as np
import pytest

from polemap import POLE, TRUNK, Cluster, ClusterMap, Frame, other_label
from conftest import cluster_points


def test_centroid_is_arithmetic_mean():
    pts = [(0.0, 0.0, 0.0), (2.0, 4.0, 6.0), (4.0, 2.0, 0.0)]
    cluster = Cluster.from_points(0, POLE, pts)
    assert np.allclose(cluster.centroid3d, [2.0, 2.0, 2.0])
    assert np.allclose(cluster.centroid2d, [2.0, 2.0])
    assert cluster.centroid2d.shape == (2,)
    assert cluster.points.shape == (3, 3)


def test_empty_cluster_rejected():
    with pytest.raises(ValueError, match="empty cluster"):
        Cluster.from_points(0, POLE, [])


def test_non_finite_point_rejected():
    bad = [(0.0, float("nan"), 0.0)]
    with pytest.raises(ValueError, match="non-finite"):
        Frame(0.0, bad, [0])
    with pytest.raises(ValueError, match="non-finite"):
        ClusterMap().add(POLE, bad)
    cluster_map = ClusterMap()
    cluster_map.add(POLE, [(0.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="non-finite"):
        cluster_map.merge_points(0, [(float("inf"), 0.0, 0.0)])


def test_non_landmark_cluster_rejected():
    pts = [(0.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="pole or trunk"):
        Cluster.from_points(0, other_label(3), pts)


def test_ids_are_monotone_and_iteration_sorted(rng):
    cluster_map = ClusterMap()
    for k in range(5):
        c = cluster_map.add(POLE, cluster_points(rng, (float(k), 0.0, 1.0)))
        assert c.cluster_id == k
    cluster_map.remove(2)
    c = cluster_map.add(TRUNK, cluster_points(rng, (9.0, 0.0, 1.0)))
    assert c.cluster_id == 5  # removed ids are never reused
    assert [c.cluster_id for c in cluster_map] == [0, 1, 3, 4, 5]
    assert cluster_map.ids() == [0, 1, 3, 4, 5]


def test_insert_rejects_duplicate_id(rng):
    cluster_map = ClusterMap()
    first = cluster_map.add(POLE, cluster_points(rng, (0.0, 0.0, 1.0)))
    clone = Cluster.from_points(first.cluster_id, POLE, first.points)
    with pytest.raises(ValueError, match="duplicate cluster id"):
        cluster_map.insert(clone)


def test_merge_points_recomputes_centroid():
    cluster_map = ClusterMap()
    cluster_map.add(POLE, [(0.0, 0.0, 0.0)])
    cluster_map.merge_points(0, [(2.0, 2.0, 2.0)])
    merged = cluster_map.get(0)
    assert merged.n_points == 2
    assert np.allclose(merged.centroid3d, [1.0, 1.0, 1.0])
    assert np.allclose(merged.centroid2d, [1.0, 1.0])


def test_nearest_breaks_ties_toward_lowest_id():
    cluster_map = ClusterMap()
    cluster_map.add(POLE, [(-3.0, 0.0, 1.0)])
    cluster_map.add(POLE, [(3.0, 0.0, 1.0)])
    cid, dist = cluster_map.nearest((0.0, 0.0))
    assert cid == 0
    assert dist == 3.0
    assert ClusterMap().nearest((0.0, 0.0)) is None


def test_index_refreshes_after_mutation(rng):
    cluster_map = ClusterMap()
    cluster_map.add(POLE, cluster_points(rng, (0.0, 0.0, 1.0)))
    assert cluster_map.nearest((0.0, 0.0))[0] == 0
    cluster_map.add(POLE, cluster_points(rng, (1.0, 1.0, 1.0)))
    cid, _ = cluster_map.nearest((1.0, 1.0))
    assert cid == 1
    cluster_map.remove(1)
    cid, _ = cluster_map.nearest((1.0, 1.0))
    assert cid == 0
