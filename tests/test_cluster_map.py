import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from polemap import POLE, TRUNK, Cluster, ClusterMap, Frame, other_label
from polemap.cluster_map import VOXEL_SIZE, segment_sums
from polemap.map_io import load_map, save_map
from conftest import cluster_points


def test_centroid_is_arithmetic_mean():
    pts = [(0.0, 0.0, 0.0), (2.0, 4.0, 6.0), (4.0, 2.0, 0.0)]
    cluster = ClusterMap().add(POLE, pts)
    assert np.allclose(cluster.centroid3d, [2.0, 2.0, 2.0])
    assert np.allclose(cluster.centroid2d, [2.0, 2.0])
    assert cluster.centroid2d.shape == (2,)
    assert cluster.points.shape == (3, 3)


def test_empty_cluster_rejected():
    with pytest.raises(ValueError, match="empty cluster"):
        ClusterMap().add(POLE, [])


def test_non_finite_point_rejected():
    bad = [(0.0, float("nan"), 0.0)]
    with pytest.raises(ValueError, match="non-finite"):
        Frame(0.0, bad, [0])
    with pytest.raises(ValueError, match="non-finite"):
        ClusterMap().add(POLE, bad)
    cluster_map = ClusterMap()
    cluster_map.add(POLE, [(0.0, 0.0, 0.0)])
    far = [(float("inf"), 0.0, 0.0)]
    with pytest.raises(ValueError, match="non-finite"):
        cluster_map.absorb([0], [POLE], far, [1])


def test_frame_needs_one_label_per_point():
    with pytest.raises(ValueError, match="2 labels for 3 points"):
        Frame(0.0, np.zeros((3, 3)), [0, 0])


def test_overflowing_coordinate_sum_rejected():
    huge = (1e308, 0.0, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        ClusterMap().absorb([-1], [POLE], [huge, huge], [2], capped=True)
    cluster_map = ClusterMap()
    with pytest.raises(ValueError, match="overflows"):
        cluster_map.add(POLE, [huge, huge])
    assert len(cluster_map) == 0
    cluster_map.absorb([-1], [POLE], [huge], [1], capped=True)
    small = (0.0, 5.0, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        cluster_map.absorb([0], [POLE], [huge, small], [2])
    cluster = cluster_map.get(0)
    assert (cluster.n_points, cluster.observed) == (1, 1)
    assert np.array_equal(cluster.centroid3d, huge)
    # the rejected merge claimed no voxel, so small still becomes a member
    cluster_map.absorb([0], [POLE], [small], [1])
    cluster = cluster_map.get(0)
    assert (cluster.n_points, cluster.observed) == (2, 2)
    assert np.isfinite(cluster.centroid3d).all()
    # a stored cluster's running sum is centroid3d * observed
    cluster_map.insert(Cluster(5, POLE, np.array([huge]), np.array(huge), 2))
    origin = [(0.0, 0.0, 1.0)]
    with pytest.raises(ValueError, match="overflows"):
        cluster_map.absorb([5], [POLE], origin, [1])
    assert cluster_map.get(5).observed == 2


def test_non_landmark_cluster_rejected():
    pts = [(0.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="pole or trunk"):
        ClusterMap().add(other_label(3), pts)


def test_insert_rejects_non_landmark_label():
    cluster_map = ClusterMap()
    point = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="pole or trunk"):
        cluster_map.insert(Cluster(0, other_label(5), point, point[0].copy()))
    assert len(cluster_map) == 0
    assert cluster_map.add(POLE, point).cluster_id == 0


@pytest.mark.parametrize("cid", [-1, 2**63 - 1, 99999999999999999999])
def test_insert_rejects_ids_int64_cannot_hold(rng, cid):
    # -1 is nearest_within's "no cluster", and int64 must hold both a
    # stored id and the next free id
    cluster_map = ClusterMap()
    kept = cluster_map.add(POLE, cluster_points(rng, (0.0, 0.0, 1.0)))
    points = cluster_points(rng, (3.0, 0.0, 1.0))
    with pytest.raises(ValueError, match=f"cluster id {cid} outside 0 to {2**63 - 2}"):
        cluster_map.insert(Cluster(cid, POLE, points, points.mean(axis=0)))
    assert cluster_map.ids() == [kept.cluster_id]
    ids, cents, _ = cluster_map.centroid_table()
    assert ids.tolist() == [0] and np.array_equal(cents, kept.centroid2d[None])
    assert cluster_map.add(POLE, points).cluster_id == 1


def test_insert_takes_the_highest_id_int64_holds(rng):
    cluster_map = ClusterMap()
    points = cluster_points(rng, (3.0, 0.0, 1.0))
    cluster_map.insert(Cluster(2**63 - 2, POLE, points, points.mean(axis=0)))
    assert cluster_map.centroid_table()[0].tolist() == [2**63 - 2]
    assert cluster_map.nearest_within(points[:1, :2], 1.0).tolist() == [2**63 - 2]
    with pytest.raises(ValueError, match=f"cluster id {2**63 - 1} outside 0 to {2**63 - 2}"):
        cluster_map.add(TRUNK, points + 1.0)


def test_absorb_refuses_ids_int64_cannot_hold(rng):
    # after the highest id, a new cluster would need one past it: the call
    # fails before any change, also when another run lands in a stored cluster
    cluster_map = ClusterMap()
    kept = cluster_map.add(POLE, cluster_points(rng, (0.0, 0.0, 1.0)))
    points = cluster_points(rng, (3.0, 0.0, 1.0))
    cluster_map.insert(Cluster(2**63 - 2, POLE, points, points.mean(axis=0)))
    before = [(c.cluster_id, c.points.copy(), c.centroid3d.copy(), c.observed) for c in cluster_map]
    more = cluster_points(rng, (6.0, 0.0, 1.0))
    attempts = [
        lambda: cluster_map.add(TRUNK, more),
        lambda: cluster_map.absorb(
            [kept.cluster_id, -1], [POLE, TRUNK], np.vstack([more, more + 1.0]), [len(more)] * 2
        ),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError, match=f"cluster id {2**63 - 1} outside 0 to {2**63 - 2}"):
            attempt()
        assert cluster_map.ids() == [kept.cluster_id, 2**63 - 2] and len(cluster_map) == 2
        for (cid, pts, centroid, observed), c in zip(before, cluster_map):
            assert c.cluster_id == cid and c.observed == observed
            assert np.array_equal(c.points, pts) and np.array_equal(c.centroid3d, centroid)
        ids, cents, _ = cluster_map.centroid_table()
        assert ids.tolist() == [kept.cluster_id, 2**63 - 2]
        assert np.array_equal(cents, np.array([centroid[:2] for _, _, centroid, _ in before]))
    # a run into a stored cluster still lands
    cluster_map.absorb([kept.cluster_id], [POLE], more, [len(more)])
    assert cluster_map.get(kept.cluster_id).observed == before[0][3] + len(more)


def test_ids_are_monotone_and_iteration_sorted(rng):
    cluster_map = ClusterMap()
    for cid in (7, 2):
        points = cluster_points(rng, (float(cid), 0.0, 1.0))
        cluster_map.insert(Cluster(cid, POLE, points, points.mean(axis=0)))
    for k in range(3):
        c = cluster_map.add(POLE, cluster_points(rng, (float(k), 5.0, 1.0)))
        assert c.cluster_id == 8 + k  # add never reuses an id at or below one stored
    assert [c.cluster_id for c in cluster_map] == [2, 7, 8, 9, 10]
    assert cluster_map.ids() == [2, 7, 8, 9, 10]


def test_insert_rejects_duplicate_id(rng):
    cluster_map = ClusterMap()
    first = cluster_map.add(POLE, cluster_points(rng, (0.0, 0.0, 1.0)))
    clone = Cluster(first.cluster_id, POLE, first.points, first.points.mean(axis=0))
    with pytest.raises(ValueError, match="duplicate cluster id"):
        cluster_map.insert(clone)


def test_merge_recomputes_centroid():
    cluster_map = ClusterMap()
    cluster_map.add(POLE, [(0.0, 0.0, 0.0)])
    cluster_map.absorb([0], [POLE], [(2.0, 2.0, 2.0)], [1])
    merged = cluster_map.get(0)
    assert merged.n_points == 2
    assert np.array_equal(merged.centroid3d, [1.0, 1.0, 1.0])
    assert np.array_equal(merged.centroid2d, [1.0, 1.0])


# Each op: which cluster (an index into ids(); past the end adds a cluster),
# how many points, and the offset of the points from the origin.
MERGE_OPS = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from([1, 2, 3, 17, 400]),
              st.sampled_from([0.0, 300.0, -300.0])),
    min_size=1, max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=MERGE_OPS)
def test_merged_centroid_is_bitwise_the_mean_of_all_observed_points(seed, ops):
    # absorb folds new rows onto a kept sum; this holds only while
    # numpy's mean over axis 0 adds the rows of a C-ordered array in order.
    # The voxel cap drops members, never observed points, so the reference
    # is the mean of every point each cluster was given.
    rng = np.random.default_rng(seed)
    cluster_map = ClusterMap()
    given_points = {}
    for label, points in ((TRUNK, rng.uniform(-300.0, 300.0, size=(100_000, 3))),
                          (POLE, np.array([(300.0, -300.0, 1.0)]))):
        given_points[cluster_map.add(label, points).cluster_id] = [points]
    for index, n, offset in [(0, 1, 300.0), (1, 1, -300.0)] + ops:
        scale = rng.choice([1e-3, 1.0, 50.0])
        points = offset + scale * rng.standard_normal((n, 3))
        ids = cluster_map.ids()
        if index >= len(ids):
            given_points[cluster_map.add(POLE, points).cluster_id] = [points]
            continue
        given_points[ids[index]].append(points)
        cluster = cluster_map.get(ids[index])
        cluster_map.absorb([cluster.cluster_id], [cluster.label], points, [n])
        every = np.concatenate(given_points[ids[index]])
        assert cluster.observed == len(every)
        assert np.array_equal(cluster.centroid3d, every.mean(axis=0))


def folded(cluster_map, merges) -> ClusterMap:
    """A copy of the map with each (id, points) merge applied the way a
    loaded cluster takes it: the new rows are summed onto centroid3d *
    observed, in order, and a new row becomes a member only when no member
    before it shares its voxel."""
    copy = ClusterMap()
    for cluster in cluster_map:
        new = [points for cid, points in merges if cid == cluster.cluster_id]
        if not new:
            copy.insert(cluster)
            continue
        rows = np.concatenate([(cluster.centroid3d * cluster.observed)[None], *new])
        observed = len(rows) - 1 + cluster.observed
        members = list(cluster.points)
        cells = {tuple(np.floor(p / VOXEL_SIZE)) for p in members}
        for point in np.concatenate(new):
            cell = tuple(np.floor(point / VOXEL_SIZE))
            if cell not in cells:
                cells.add(cell)
                members.append(point)
        copy.insert(Cluster(cluster.cluster_id, cluster.label, np.array(members),
                            rows.sum(axis=0) / observed, observed))
    return copy


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no-sidecar"])
def test_merge_into_loaded_cluster_continues_stored_weight(tmp_path, rng, sidecar):
    original = ClusterMap()
    for k in range(4):
        original.add(POLE, cluster_points(rng, (250.0 + 10 * k, -280.0, 2.0), n=30))
    path = tmp_path / "map.txt"
    save_map(original, path)
    if not sidecar:
        (tmp_path / "map.txt.points").unlink()
    loaded = load_map(path)
    assert [c.observed for c in loaded] == [30] * 4
    before = load_map(path)
    merges = [(1, cluster_points(rng, (260.0, -280.0, 2.0), n=7)),
              (1, cluster_points(rng, (260.0, -280.0, 2.0), n=1)),
              (3, cluster_points(rng, (280.0, -280.0, 2.0), n=12))]
    for cid, new in merges:
        loaded.absorb([cid], [POLE], new, [len(new)])
    # the stored centroid weighs its 30 observed points, with or without
    # the sidecar's members
    assert [c.observed for c in loaded] == [30, 38, 30, 42]
    kept = loaded.get(0)
    assert np.array_equal(kept.centroid3d, original.get(0).centroid3d)
    want, got = tmp_path / "want.txt", tmp_path / "got.txt"
    save_map(folded(before, merges), want)
    save_map(loaded, got)
    assert got.read_bytes() == want.read_bytes()
    assert (tmp_path / "got.txt.points").read_bytes() == (tmp_path / "want.txt.points").read_bytes()


def test_rejected_merge_changes_nothing(rng):
    start, first, second = (cluster_points(rng, (300.0, 0.0, 1.0)) for _ in range(3))
    clean, rejected = ClusterMap(), ClusterMap()
    for cluster_map in (clean, rejected):
        cluster_map.add(POLE, start)
        cluster_map.absorb([0], [POLE], first, [len(first)])
    points, centroid = rejected.get(0).points.copy(), rejected.get(0).centroid3d.copy()
    bad = np.vstack([cluster_points(rng, (300.0, 0.0, 1.0), n=3), [(np.nan, 0.0, 1.0)]])
    with pytest.raises(ValueError, match="non-finite"):
        rejected.absorb([0], [POLE], bad, [len(bad)])
    assert np.array_equal(rejected.get(0).points, points)
    assert np.array_equal(rejected.get(0).centroid3d, centroid)
    for cluster_map in (clean, rejected):
        cluster_map.absorb([0], [POLE], second, [len(second)])
    assert np.array_equal(rejected.get(0).points, clean.get(0).points)
    assert np.array_equal(rejected.get(0).centroid3d, clean.get(0).centroid3d)
    every = np.concatenate([start, first, second])
    assert np.array_equal(rejected.get(0).centroid3d, every.mean(axis=0))


def assert_nearest(cluster_map, centers, want, labels=None):
    """nearest_within agrees with want, one (id, distance) or None per row:
    one call at an infinite radius returns every row's id, -1 for None; and
    each row's gate passes at exactly its distance and fails just below."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    got = cluster_map.nearest_within(centers, math.inf, labels)
    assert got.dtype.kind == "i"
    assert got.tolist() == [-1 if hit is None else hit[0] for hit in want]
    codes = [None] * len(centers) if labels is None else [[code] for code in labels]
    for center, code, hit in zip(centers, codes, want):
        if hit is not None:
            cid, d = hit
            assert cluster_map.nearest_within([center], d, code).tolist() == [cid]
            assert cluster_map.nearest_within([center], np.nextafter(d, -np.inf), code).tolist() == [-1]


def test_nearest_breaks_ties_toward_lowest_id():
    cluster_map = ClusterMap()
    cluster_map.add(POLE, [(-3.0, 0.0, 1.0)])
    cluster_map.add(POLE, [(3.0, 0.0, 1.0)])
    assert_nearest(cluster_map, [(0.0, 0.0)], [(0, 3.0)])
    assert_nearest(ClusterMap(), [(0.0, 0.0)], [None])


def test_index_refreshes_after_mutation(rng):
    cluster_map = ClusterMap()
    cluster_map.add(POLE, cluster_points(rng, (0.0, 0.0, 1.0)))
    assert cluster_map.nearest_within([(1.0, 1.0)], math.inf).tolist() == [0]
    cluster_map.add(POLE, cluster_points(rng, (1.0, 1.0, 1.0)))
    assert cluster_map.nearest_within([(1.0, 1.0)], math.inf).tolist() == [1]
    # a merge far away moves cluster 1's centroid off (1, 1)
    far = cluster_points(rng, (40.0, 40.0, 1.0), n=200)
    cluster_map.absorb([1], [POLE], far, [len(far)])
    assert cluster_map.nearest_within([(1.0, 1.0)], math.inf).tolist() == [0]
    point = np.array([(1.0, 1.5, 1.0)])
    cluster_map.insert(Cluster(5, TRUNK, point, point[0].copy()))
    assert_nearest(cluster_map, [(1.0, 1.0)], [(5, 0.5)])


def point_map(xys, labels=None) -> ClusterMap:
    """One single-point cluster per (x, y), so each centroid is exact; all
    poles unless one label code per point is given."""
    cluster_map = ClusterMap()
    for (x, y), label in zip(xys, [POLE] * len(xys) if labels is None else labels):
        cluster_map.add(label, [(x, y, 1.0)])
    return cluster_map


def brute_nearest(cluster_map, center, label=None):
    """(id, distance) of the closest centroid, ties to the lowest id, among
    the clusters of label when one is given; None when there is none."""
    best = None
    for cluster in cluster_map:
        if label is not None and cluster.label != label:
            continue
        dx, dy = cluster.centroid2d - center
        d2 = dx * dx + dy * dy
        if best is None or d2 < best[1]:
            best = (cluster.cluster_id, d2)
    return best and (best[0], float(np.sqrt(best[1])))


# the twelve integer points exactly 5 m from the origin, more ties than an
# eight-nearest query returns, and twelve farther off
RING_5M = [(5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (3, -4), (-3, 4), (-3, -4),
           (4, 3), (4, -3), (-4, 3), (-4, -3)]
FAR = [(x, y) for x in (-9, 0, 9) for y in (-9, 0, 9) if (x, y) != (0, 0)]
FAR += [(12, 12), (-12, 12), (12, -12), (-12, -12)]


def test_nearest_keeps_lowest_id_among_more_ties_than_it_queries(rng):
    xys = RING_5M + FAR
    orders = [rng.permutation(len(xys)) for _ in range(40)]
    maps = [point_map([xys[i] for i in order]) for order in orders]
    # ids are positions in order; the ring holds entries 0..11 of xys
    lowest_on_ring = [int(np.flatnonzero(order < len(RING_5M))[0]) for order in orders]
    assert [m.nearest_within([(0.0, 0.0)], 5.0)[0] for m in maps] == lowest_on_ring
    for order, cluster_map, cid in zip(orders, maps, lowest_on_ring):
        assert_nearest(
            cluster_map, [(0.0, 0.0), (5.0, 0.0)],
            [(cid, 5.0), (int(np.flatnonzero(order == 0)[0]), 0.0)],
        )


@pytest.mark.parametrize(
    "grid, labelled", [(False, False), (True, False), (True, True)],
    ids=["random", "integer-grid", "labelled"],
)
def test_nearest_each_matches_brute_force(rng, grid, labelled):
    missed = 0
    for trial in range(30):
        n = int(rng.integers(1, 40))
        if grid:
            # many exact ties: centroids and centers on a small integer grid
            xys = rng.integers(-4, 5, size=(n, 2)).astype(float)
            centers = rng.integers(-6, 7, size=(25, 2)) / 2.0
        else:
            xys = rng.uniform(-20.0, 20.0, size=(n, 2))
            centers = rng.uniform(-25.0, 25.0, size=(25, 2))
        codes, labels = None, [None] * len(centers)
        if labelled:
            # a random code per centroid and per center; the first map holds
            # poles only, so its trunk centers find no cluster
            codes = rng.integers(POLE, TRUNK + 1, size=n) if trial else np.full(n, POLE)
            labels = rng.integers(POLE, TRUNK + 1, size=len(centers))
        cluster_map = point_map(xys, codes)
        queried = None if codes is None else labels
        want = [brute_nearest(cluster_map, c, label) for c, label in zip(centers, labels)]
        assert_nearest(cluster_map, centers, want, queried)
        missed += want.count(None)
        # one query for all rows gives each row's answer; grid distances
        # of exactly 3 m pass the gate
        radius = 3.0
        got = cluster_map.nearest_within(centers, radius, queried)
        assert got.tolist() == [
            cluster_map.nearest_within([c], radius, None if codes is None else [label])[0]
            for c, label in zip(centers, labels)
        ]
        assert got.tolist() == [hit[0] if hit and hit[1] <= radius else -1 for hit in want]
    assert (missed > 0) == labelled


def test_nearest_each_edge_cases():
    assert_nearest(ClusterMap(), [(0.0, 0.0), (1.0, 1.0)], [None, None])
    single = point_map([(3.0, 4.0)])
    for cluster_map in (ClusterMap(), single):
        for empty in (np.empty((0, 2)), []):
            got = cluster_map.nearest_within(empty, math.inf)
            assert got.dtype.kind == "i" and got.tolist() == []
    # one cluster: a distance matrix with a single column
    assert_nearest(single, [(0.0, 0.0), (3.0, 4.0)], [(0, 5.0), (0, 0.0)])
    # no cluster of the row's label: no cluster even at an infinite radius
    assert single.nearest_within([(3.0, 4.0)], math.inf, [TRUNK]).tolist() == [-1]
    assert_nearest(single, [(3.0, 4.0), (3.0, 4.0)], [None, (0, 0.0)], [TRUNK, POLE])
    # a squared distance that overflows: no cluster lies at a finite distance
    far = point_map([(1e300, 0.0)])
    assert_nearest(far, [(-1e300, 0.0), (1e300, 3.0)], [None, (0, 3.0)])
    two = point_map([(1e300, 0.0), (1e300, 5.0)])
    assert_nearest(two, [(0.0, 0.0), (1e300, 4.0)], [None, (1, 1.0)])
    # one label code per center, or none at all
    for cluster_map in (ClusterMap(), single):
        with pytest.raises(ValueError, match="2 labels for 1 centers"):
            cluster_map.nearest_within([(0.0, 0.0)], 1.0, [POLE, TRUNK])


def test_centroid_table_is_read_only_and_follows_every_mutation():
    cluster_map = point_map([(0.0, 0.0), (4.0, 0.0)])
    centers, labels = [(1.0, 0.0), (3.0, 0.0)], [TRUNK, POLE]

    def state(want):
        """The table as lists, checked read-only and against the clusters;
        the labelled nearest_within answers for centers must be want."""
        assert_nearest(cluster_map, centers, want, labels)
        table = cluster_map.centroid_table()
        for column in table:
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = 0
        ids, cents, codes = (column.tolist() for column in table)
        assert ids == cluster_map.ids()
        assert cents == [c.centroid2d.tolist() for c in cluster_map]
        assert codes == [c.label for c in cluster_map]
        got_ids, got_cents = cluster_map.centroids_2d()
        assert (got_ids.tolist(), got_cents.tolist()) == (ids, cents)
        return ids, cents, codes

    # no trunk yet: the trunk center finds no cluster
    assert state([None, (1, 1.0)]) == ([0, 1], [[0.0, 0.0], [4.0, 0.0]], [POLE, POLE])
    cluster_map.add(TRUNK, [(2.0, 0.0, 1.0)])
    assert state([(2, 1.0), (1, 1.0)]) == (
        [0, 1, 2], [[0.0, 0.0], [4.0, 0.0], [2.0, 0.0]], [POLE, POLE, TRUNK],
    )
    # a merge moves cluster 1's centroid from (4, 0) to (5, 0)
    cluster_map.absorb([1], [POLE], [(6.0, 0.0, 1.0)], [1])
    assert state([(2, 1.0), (1, 2.0)]) == (
        [0, 1, 2], [[0.0, 0.0], [5.0, 0.0], [2.0, 0.0]], [POLE, POLE, TRUNK],
    )
    point = np.array([(1.0, 0.5, 1.0)])
    cluster_map.insert(Cluster(7, TRUNK, point, point[0].copy()))
    assert state([(7, 0.5), (1, 2.0)]) == (
        [0, 1, 2, 7], [[0.0, 0.0], [5.0, 0.0], [2.0, 0.0], [1.0, 0.5]],
        [POLE, POLE, TRUNK, TRUNK],
    )


def kdtree_nearest(cluster_map, centers) -> tuple[list, int]:
    """The nearest cluster from a kd-tree queried for every cluster, as
    (id, distance): the lowest id tied at the smallest distance, None where
    that distance is not finite; and the most clusters tied for any center."""
    ids, cents = cluster_map.centroids_2d()
    dists, rows = cKDTree(cents).query(centers, k=list(range(1, len(ids) + 1)))
    out, most_tied = [], 0
    for d, r in zip(dists, rows):
        if not np.isfinite(d[0]):
            out.append(None)
            continue
        tied = r[d == d[0]]
        most_tied = max(most_tied, len(tied))
        out.append((int(ids[tied.min()]), float(d[0])))
    return out, most_tied


@pytest.mark.parametrize("kind", ["random", "tied-grid", "wide-scale", "overflow"])
def test_nearest_each_distances_are_bitwise_the_kdtree_ones(rng, kind):
    # merge decisions gate these distances at merge_radius, so each row must
    # pass its gate at exactly the kd-tree's distance, with the kd-tree's id,
    # and fail one ulp below it
    most_tied = 0
    for _ in range(30):
        n = int(rng.integers(1, 60))
        if kind == "random":
            xys = rng.uniform(-50.0, 50.0, size=(n, 2))
            centers = rng.uniform(-60.0, 60.0, size=(40, 2))
        elif kind == "tied-grid":
            # repeated points on a 5 x 5 grid and half-integer centers
            xys = rng.integers(-2, 3, size=(n + 40, 2)).astype(float)
            centers = rng.integers(-6, 7, size=(40, 2)) / 2.0
        elif kind == "wide-scale":
            scale = 10.0 ** int(rng.integers(-3, 7))
            xys = scale * rng.standard_normal((n, 2))
            centers = scale * rng.standard_normal((40, 2))
        else:
            # half the centers are too far for a finite squared distance
            xys = 1e300 * rng.uniform(-1.0, 1.0, size=(n, 2))
            near = xys[rng.integers(n, size=20)] + 1e150 * rng.uniform(-1.0, 1.0, size=(20, 2))
            centers = np.vstack([1e300 * rng.uniform(-1.0, 1.0, size=(20, 2)), near])
        cluster_map = point_map(xys)
        want, tied = kdtree_nearest(cluster_map, centers)
        most_tied = max(most_tied, tied)
        assert_nearest(cluster_map, centers, want)
        if kind == "overflow":
            assert None in want and any(hit is not None for hit in want)
    if kind == "tied-grid":
        assert most_tied > 8


def test_segment_sums_add_each_run_in_order(rng):
    counts = np.concatenate([np.arange(1, 21), rng.integers(1, 501, 40), [500]])
    for magnitude in (1e-3, 1.0, 1e3, 1e8):
        points = magnitude * rng.standard_normal((int(counts.sum()), 3))
        points[::7] *= 1e3  # magnitudes mixed within a run
        sums = segment_sums(points, counts)
        stops = np.cumsum(counts)
        want = [points[s:e].sum(axis=0) for s, e in zip(stops - counts, stops)]
        assert [row.tobytes() for row in sums] == [row.tobytes() for row in want]
        means = sums / counts[:, None]
        assert [row.tobytes() for row in means] == [
            points[s:e].mean(axis=0).tobytes() for s, e in zip(stops - counts, stops)]
    assert segment_sums(np.zeros((0, 3)), []).shape == (0, 3)


def test_absorb_checks_every_run_before_any_change(rng):
    cluster_map = ClusterMap()
    start = cluster_points(rng, (0.0, 0.0, 1.0), n=6)
    cluster_map.absorb([-1], [POLE], start, [len(start)], capped=True)
    before = (cluster_map.ids(), cluster_map.get(0).points.tobytes(), cluster_map.get(0).observed)
    runs = np.concatenate([cluster_points(rng, (0.1, 0.0, 1.0), n=4),
                           cluster_points(rng, (9.0, 0.0, 1.0), n=3)])
    bad = [
        (([0, -1], [POLE, other_label(1)], runs, [4, 3]), ValueError, "pole or trunk"),
        (([0, -1], [POLE, TRUNK], runs, [7, 0]), ValueError, "empty cluster"),
        (([0, 5], [POLE, TRUNK], runs, [4, 3]), KeyError, "5"),
    ]
    for args, error, message in bad:
        with pytest.raises(error, match=message):
            cluster_map.absorb(*args)
        assert (cluster_map.ids(), cluster_map.get(0).points.tobytes(),
                cluster_map.get(0).observed) == before
    (new,) = cluster_map.absorb([0, -1], [POLE, TRUNK], runs, [4, 3], capped=True)
    assert (new.cluster_id, new.label, new.observed) == (1, TRUNK, 3)
    assert cluster_map.get(0).observed == 10


def test_absorb_needs_run_counts_covering_every_point():
    cluster_map = ClusterMap()
    with pytest.raises(ValueError, match="one run count per target"):
        cluster_map.absorb([-1], [POLE], np.zeros((3, 3)), [2])
    with pytest.raises(ValueError, match="one run count per target"):
        cluster_map.absorb([-1, -1], [POLE, POLE], np.zeros((3, 3)), [3])
    assert len(cluster_map) == 0


@pytest.mark.parametrize("targets, labels", [([-1, -1], [POLE]), ([-1, 0], [POLE, POLE, TRUNK])],
                         ids=["short", "long"])
def test_absorb_needs_one_label_per_target(targets, labels):
    cluster_map = ClusterMap()
    cluster_map.add(POLE, [(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)])

    def state():
        return [(c.cluster_id, c.label, c.points.tobytes(), c.centroid3d.tobytes(), c.observed)
                for c in cluster_map]

    before = state()
    with pytest.raises(ValueError, match="one label and one run count per target"):
        cluster_map.absorb(targets, labels, np.zeros((4, 3)), [2, 2])
    assert state() == before
    assert cluster_map.add(TRUNK, [(5.0, 0.0, 1.0)]).cluster_id == 1


def test_absorb_lands_each_run_in_one_cluster_in_run_order(rng):
    # Runs for one existing cluster may interleave with new ones: the new
    # ids follow run order, and the merged runs fold onto the kept sum in
    # run order, so the centroid is the mean of every point observed.
    cluster_map = ClusterMap()
    start = cluster_points(rng, (0.0, 0.0, 1.0), n=5)
    cluster_map.add(POLE, start)
    runs = [cluster_points(rng, center, n=n) for center, n in
            [((0.1, 0.0, 1.0), 3), ((9.0, 0.0, 1.0), 2), ((0.0, 0.1, 1.0), 4), ((20.0, 0.0, 1.0), 1)]]
    created = cluster_map.absorb([0, -1, 0, -1], [TRUNK, TRUNK, TRUNK, POLE],
                                 np.concatenate(runs), [3, 2, 4, 1])
    assert [(c.cluster_id, c.label, c.observed) for c in created] == [(1, TRUNK, 2), (2, POLE, 1)]
    merged = cluster_map.get(0)
    assert (merged.label, merged.observed) == (POLE, 12)
    observed = np.concatenate([start, runs[0], runs[2]])
    assert merged.centroid3d.tobytes() == observed.mean(axis=0).tobytes()
    assert created[0].centroid3d.tobytes() == runs[1].mean(axis=0).tobytes()
    assert cluster_map.absorb([], [], np.zeros((0, 3)), [], capped=True) == []
    assert cluster_map.ids() == [0, 1, 2]
