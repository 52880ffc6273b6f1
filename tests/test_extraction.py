import numpy as np
import pytest

from polemap import (
    POLE,
    TRUNK,
    ExtractionParams,
    Frame,
    euclidean_cluster,
    extract_clusters,
    other_label,
)
from oracles import oracle_components, oracle_extract_clusters


def blob(rng, center, n, spread=0.12):
    return np.asarray(center, dtype=float) + spread * rng.standard_normal((n, 3))


def labeled_frame(*blobs):
    """Frame from (points, label) pairs, points in the given order."""
    xyz = np.concatenate([pts for pts, _ in blobs])
    labels = np.concatenate([np.full(len(pts), label) for pts, label in blobs])
    return Frame(0.0, xyz, labels)


def as_membership(groups):
    return [frozenset(map(tuple, g)) for g in groups]


def test_filter_keeps_only_landmarks():
    frame = Frame(
        0.0,
        [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
        [POLE, other_label(4), TRUNK],
    )
    clusters = extract_clusters(frame, ExtractionParams(min_points=1))
    assert [(c.label, c.centroid2d.tolist()) for c in clusters] == [
        (POLE, [0.0, 0.0]),
        (TRUNK, [2.0, 0.0]),
    ]


def assert_matches_oracle(pts, params):
    """euclidean_cluster gives the oracle's groups exactly: group order,
    member order and bytes, with min_points applied to whole components."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    got = euclidean_cluster(pts, params)
    want = oracle_components([tuple(p) for p in pts], params.cluster_distance)
    want = [g for g in want if len(g) >= params.min_points]
    assert [g.tobytes() for g in got] == [pts[g].tobytes() for g in want]


def test_clustering_matches_union_find(rng):
    params = ExtractionParams(cluster_distance=0.5, min_points=1)
    for trial in range(25):
        pts = []
        n_blobs = int(rng.integers(1, 6))
        for _ in range(n_blobs):
            center = rng.uniform(0, 20, 3)
            pts.extend(blob(rng, center, int(rng.integers(3, 15))))
        # loose scatter that may or may not bridge blobs
        for _ in range(int(rng.integers(0, 10))):
            pts.append(rng.uniform(0, 20, 3))
        assert_matches_oracle(pts, params)


def _chain(n, step=0.3):
    return np.column_stack([step * np.arange(n), np.zeros(n), np.zeros(n)])


def _hub(spokes=5, length=40, step=0.45):
    """Radial chains that touch only through a hub at the origin, which the
    caller appends last."""
    angles = 2.0 * np.pi * np.arange(spokes) / spokes
    radii = step * np.arange(1, length + 1)
    arms = [np.column_stack([radii * np.cos(a), radii * np.sin(a), np.zeros(length)]) for a in angles]
    return np.concatenate(arms)


def _grid(side=20, step=0.4):
    x, y = np.meshgrid(np.arange(side) * step, np.arange(side) * step)
    return np.column_stack([x.ravel(), y.ravel(), np.zeros(side * side)])


@pytest.mark.parametrize(
    "shape",
    ["shuffled-chain", "hub-last", "shuffled-grid", "coincident", "one-point", "no-pairs",
     "min-points-after-grouping"],
)
def test_clustering_matches_union_find_on_hard_shapes(rng, shape):
    params = ExtractionParams(cluster_distance=0.5, min_points=1)
    if shape == "shuffled-chain":
        # two chains, so the shuffle interleaves their members
        pts = np.concatenate([_chain(200), _chain(150) + (0.0, 5.0, 0.0)])
        pts = pts[rng.permutation(len(pts))]
    elif shape == "hub-last":
        arms = _hub()
        pts = np.concatenate([arms[rng.permutation(len(arms))], [(0.0, 0.0, 0.0)]])
    elif shape == "shuffled-grid":
        pts = _grid()
        pts = pts[rng.permutation(len(pts))]
    elif shape == "coincident":
        pts = np.repeat([(1.0, 2.0, 3.0), (4.0, 2.0, 3.0)], [30, 20], axis=0)
        pts = pts[rng.permutation(len(pts))]
    elif shape == "one-point":
        pts = np.array([(1.0, 2.0, 3.0)])
        assert euclidean_cluster(pts, ExtractionParams(min_points=2)) == []
    elif shape == "no-pairs":
        pts = _chain(10, step=1.0)
    else:
        # a 12-point chain in which no point has 10 neighbors survives,
        # a 9-point blob does not, and the survivors keep their order
        params = ExtractionParams(cluster_distance=0.5, min_points=10)
        pts = np.concatenate([
            blob(rng, (0.0, 5.0, 0.0), 9, spread=0.05),
            _chain(12),
            blob(rng, (0.0, -5.0, 0.0), 15, spread=0.05),
        ])
        pts = pts[rng.permutation(len(pts))]
        assert [len(g) for g in euclidean_cluster(pts, params)] in ([12, 15], [15, 12])
    assert_matches_oracle(pts, params)


def test_cluster_distance_boundary_is_inclusive():
    params = ExtractionParams(cluster_distance=0.5, min_points=1)
    touching = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)]
    assert len(euclidean_cluster(touching, params)) == 1
    apart = [(0.0, 0.0, 0.0), (0.5 + 1e-9, 0.0, 0.0)]
    assert len(euclidean_cluster(apart, params)) == 2


def test_min_points_filter(rng):
    params = ExtractionParams(cluster_distance=0.5, min_points=10)
    pts = np.concatenate([blob(rng, (0, 0, 0), 10), blob(rng, (10, 0, 0), 9)])
    groups = euclidean_cluster(pts, params)
    assert len(groups) == 1
    assert len(groups[0]) == 10


def test_empty_input():
    assert euclidean_cluster([]) == []


def test_extract_orders_by_centroid_and_numbers_ids(rng):
    frame = labeled_frame(
        (blob(rng, (8.0, 1.0, 2.0), 12), POLE),
        (blob(rng, (2.0, 5.0, 2.0), 12), TRUNK),
        (blob(rng, (5.0, 9.0, 2.0), 12), POLE),
    )
    clusters = extract_clusters(frame, ExtractionParams(min_points=10))
    assert [c.cluster_id for c in clusters] == [0, 1, 2]
    xs = [float(c.centroid2d[0]) for c in clusters]
    assert xs == sorted(xs)
    assert [c.label for c in clusters] == [TRUNK, POLE, POLE]


def test_extract_is_permutation_invariant(rng):
    frame = labeled_frame(
        (blob(rng, (0.0, 0.0, 2.0), 15), POLE),
        (blob(rng, (6.0, 3.0, 2.0), 13), TRUNK),
        (blob(rng, (3.0, 8.0, 2.0), 11), POLE),
    )
    shuffled = rng.permutation(len(frame.xyz))
    frame2 = Frame(0.0, frame.xyz[shuffled], frame.labels[shuffled])
    a = extract_clusters(frame, ExtractionParams(min_points=10))
    b = extract_clusters(frame2, ExtractionParams(min_points=10))
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.label == cb.label
        assert as_membership([ca.points]) == as_membership([cb.points])
        assert np.allclose(ca.centroid3d, cb.centroid3d, atol=1e-12)


def test_label_classes_cluster_independently(rng):
    # a pole blob and a trunk blob closer than cluster_distance stay separate
    frame = labeled_frame(
        (blob(rng, (0.0, 0.0, 1.0), 12, spread=0.05), POLE),
        (blob(rng, (0.3, 0.0, 1.0), 12, spread=0.05), TRUNK),
    )
    clusters = extract_clusters(frame, ExtractionParams(min_points=10))
    assert sorted(c.label for c in clusters) == [POLE, TRUNK]


def test_minority_label_residue_dropped(rng):
    # flipped labels inside a pole cluster fall below min_points on their own
    frame = labeled_frame(
        (blob(rng, (0.0, 0.0, 1.0), 12, spread=0.05), POLE),
        (blob(rng, (0.0, 0.0, 1.0), 3, spread=0.05), TRUNK),
    )
    clusters = extract_clusters(frame, ExtractionParams(min_points=4))
    assert len(clusters) == 1
    assert clusters[0].label == POLE
    assert clusters[0].n_points == 12


def test_params_validated():
    with pytest.raises(ValueError):
        ExtractionParams(cluster_distance=0.0)
    with pytest.raises(ValueError):
        ExtractionParams(min_points=0)


def _cluster_bytes(clusters):
    return [(c.cluster_id, c.label, c.points.tobytes(), c.centroid3d.tobytes(), c.observed)
            for c in clusters]


@pytest.mark.parametrize("min_points", [1, 4, 10])
def test_extract_matches_per_group_mean_and_key_sort(rng, min_points):
    params = ExtractionParams(min_points=min_points)
    for _ in range(20):
        blobs = [(blob(rng, rng.uniform(-20, 20, 3), int(rng.integers(1, 30))),
                  [POLE, TRUNK, other_label(2)][int(rng.integers(3))])
                 for _ in range(int(rng.integers(1, 12)))]
        frame = labeled_frame(*blobs)
        assert _cluster_bytes(extract_clusters(frame, params)) == _cluster_bytes(
            oracle_extract_clusters(frame, params))


def test_extract_orders_ties_like_the_key_sort():
    # Equal x across the two labels, a pole and a trunk at one (x, y), and
    # -0.0 against 0.0: ties keep pole groups first, then group order.
    frame = labeled_frame(
        (np.array([[1.0, 5.0, 0.0]]), TRUNK),
        (np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), POLE),
        (np.array([[1.0, 1.0, 9.0]]), TRUNK),
        (np.array([[-0.0, 3.0, 9.0]]), TRUNK),
        (np.array([[0.0, 3.0, 0.0]]), POLE),
        (np.array([[-0.0, -0.0, 5.0]]), POLE),
        (np.array([[0.0, 0.0, 0.0]]), TRUNK),
        (np.array([[0.0, -0.0, 2.0]]), POLE),
    )
    params = ExtractionParams(min_points=1)
    got = extract_clusters(frame, params)
    assert _cluster_bytes(got) == _cluster_bytes(oracle_extract_clusters(frame, params))
    assert [(c.label, c.centroid3d.tolist()) for c in got[:4]] == [
        (POLE, [-0.0, -0.0, 5.0]), (POLE, [0.0, -0.0, 2.0]), (TRUNK, [0.0, 0.0, 0.0]),
        (POLE, [0.0, 3.0, 0.0]),
    ]
