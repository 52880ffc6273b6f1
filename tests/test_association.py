import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polemap import (
    POLE,
    TRUNK,
    UNMATCHED,
    AssociationParams,
    Cluster,
    ClusterMap,
    MatchPair,
    associate_maps,
    edge_pair_distance,
    load_map,
    save_map,
    sub_edge_distance,
)
from polemap.association import _EdgeData, _length_gate, _Stars, _stars
from conftest import (
    association_scene,
    cluster_points,
    moved_copy,
    planar_pose,
    random_map,
    reference_star_scene,
)
from oracles import (
    embedding_distance,
    oracle_associate,
    oracle_edge_stars,
    oracle_length_bounds,
    oracle_length_matching,
)


def grid_map(coords, label=POLE) -> ClusterMap:
    m = ClusterMap()
    for x, y in coords:
        m.add(label, [(float(x), float(y), 2.0)])
    return m


def polar(angle_deg, radius, label=POLE):
    rad = math.radians(angle_deg)
    return (radius * math.cos(rad), radius * math.sin(rad), label)


def star_maps(local_subs, global_subs):
    """Local and global stars around an anchor at the origin.

    Both stars hold the reference neighbor (10, 0) plus their own sub-edge
    neighbors, each an (x, y, label); ids: anchor 0, reference 1, sub-edges
    from 2 in the given order.
    """
    maps = []
    for subs in (local_subs, global_subs):
        m = ClusterMap()
        for x, y, label in [(0.0, 0.0, POLE), (10.0, 0.0, POLE), *subs]:
            m.add(label, [(x, y, 2.0)])
        maps.append(m)
    return maps


# Three sub-edges shared exactly by both stars, one unpartnered local
# sub-edge, and the pair under test: with four required sub-edge matches the
# reference edges pair iff the tested sub-edges pass every gate, scoring
# log(5 / 4) times a quarter of their feature distance.
SHARED_SUBS = [(-5.0, 0.0, POLE), (0.0, 6.0, POLE), (0.0, -7.0, TRUNK)]
LONE_SUB = (3.0, -12.0, POLE)


def gated_distance(local_sub, global_sub, **params):
    local_map, global_map = star_maps(
        SHARED_SUBS + [local_sub, LONE_SUB], SHARED_SUBS + [global_sub]
    )
    return edge_pair_distance(
        local_map, global_map, (0, 1), (0, 1),
        AssociationParams(min_sub_edge_matches=4, **params),
    )


def gated_score(feature_distance):
    return math.log(5.0 / 4.0) * feature_distance / 4.0


# ---------------------------------------------------------------- stars


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_stars_match_reference(cluster_map, radius):
    """_stars equals the per-anchor reference byte for byte. The reference
    orders neighbors by np.linalg.norm, so maps here avoid two distances
    that norm and np.hypot order differently (see the tie test below)."""
    got = _stars(cluster_map, radius)
    ids, stars, anchor_labels = oracle_edge_stars(cluster_map, radius)
    assert got.ids == tuple(ids)
    assert same_bytes(got.anchor_labels, anchor_labels)
    assert len(got.stars) == len(stars)
    for star, want in zip(got.stars, stars):
        for name, column in zip(("neighbor_ids", "lengths", "phis", "labels"), want):
            assert same_bytes(getattr(star, name), column), name
        # the documented order is literal: by stored length, then id
        assert (np.lexsort((star.neighbor_ids, star.lengths)) == np.arange(star.count)).all()
    flat = np.concatenate([np.empty(0)] + [want[1] for want in stars])
    assert same_bytes(got.lengths, flat)
    assert np.array_equal(got.owners, np.repeat(np.arange(len(stars)), got.counts))
    assert np.array_equal(got.by_length, np.argsort(flat, kind="stable"))
    return got


def test_stars_match_reference_on_random_maps(rng):
    for trial in range(12):
        cluster_map = random_map(rng, int(rng.integers(2, 40)), extent=60.0, min_spacing=0.5)
        for radius in (4.0, 15.0, 50.0):
            assert_stars_match_reference(cluster_map, radius)


def test_stars_match_reference_on_integer_grids():
    # equal lengths in every direction and mirrored offsets around each anchor
    coords = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    for radius in (1.0, 5.0, 7.5):
        assert_stars_match_reference(grid_map(coords), radius)
    mixed = ClusterMap()
    for k, (x, y) in enumerate(coords):
        mixed.add(POLE if k % 3 else TRUNK, [(float(x), float(y), 2.0)])
    assert_stars_match_reference(mixed, 7.5)


def test_stars_match_reference_on_edge_cases():
    assert assert_stars_match_reference(ClusterMap(), 50.0).ids == ()
    one = assert_stars_match_reference(grid_map([(3.0, 4.0)]), 50.0)
    assert one.stars[0].count == 0
    # coincident centroids give no edge to each other
    twins = assert_stars_match_reference(grid_map([(0, 0), (0, 0), (3, 4), (3, 4), (1, 1)]), 50.0)
    assert twins.stars[0].neighbor_ids.tolist() == [4, 2, 3]
    # the cutoff is inclusive: (3, 4) sits exactly at radius 5 from the origin
    edge = assert_stars_match_reference(grid_map([(0, 0), (3, 4), (6, 8)]), 5.0)
    assert edge.stars[0].neighbor_ids.tolist() == [1]
    assert edge.stars[1].neighbor_ids.tolist() == [0, 2]


def test_star_order_ties_on_stored_length():
    # Both neighbors store np.hypot length 3.7, so they keep id order, though
    # np.linalg.norm puts (1.2, 3.5) at 3.6999999999999997.
    star = _stars(grid_map([(0.0, 0.0), (0.0, 3.7), (1.2, 3.5)]), 5.0).stars[0]
    assert star.lengths.tolist() == [3.7, 3.7]
    assert star.neighbor_ids.tolist() == [1, 2]


# ---------------------------------------------------------------- sub-edges


def test_sub_edge_distance_known_values():
    assert sub_edge_distance(3.0, 40.0, 3.0, 40.0) == 0.0
    assert sub_edge_distance(3.0, 40.0, 4.0, 40.0) == pytest.approx(1.0)
    assert sub_edge_distance(1.0, 0.0, 1.0, 90.0) == pytest.approx(math.sqrt(2.0))
    # the documented reject example
    d = sub_edge_distance(5.0, 30.0, 5.2, 35.0)
    assert d == pytest.approx(0.48773, abs=1e-4)
    assert d > AssociationParams().sub_edge_tolerance


def test_sub_edge_distance_wraps_angle():
    near_zero = sub_edge_distance(5.0, 359.0, 5.0, 1.0)
    direct = sub_edge_distance(5.0, 1.0, 5.0, 3.0)
    assert near_zero == pytest.approx(direct, abs=1e-12)


def test_sub_edge_distance_is_plane_distance(rng):
    d1, d2 = rng.uniform(0.1, 30.0, (2, 300))
    t1, t2 = rng.uniform(0.0, 360.0, (2, 300))
    batch = sub_edge_distance(d1, t1, d2, t2)
    for k in range(300):
        got = sub_edge_distance(d1[k], t1[k], d2[k], t2[k])
        assert got == batch[k]
        assert got == pytest.approx(embedding_distance(d1[k], t1[k], d2[k], t2[k]), abs=1e-9)
        assert got == sub_edge_distance(d2[k], t2[k], d1[k], t1[k])


def test_match_sub_edges_gates():
    near = gated_distance((0.0, 3.0, POLE), (0.0, 3.05, POLE))
    assert near == pytest.approx(gated_score(0.05))
    # label mismatch loses regardless of geometry
    assert gated_distance((0.0, 3.0, POLE), (0.0, 3.0, TRUNK)) is UNMATCHED
    # length gate is strict: a gap of exactly the tolerance is out
    gap = dict(local_sub=(0.0, 3.0, POLE), global_sub=(0.0, 3.25, POLE), sub_edge_tolerance=0.3)
    assert gated_distance(**gap, length_tolerance=0.25) is UNMATCHED
    assert gated_distance(**gap, length_tolerance=np.nextafter(0.25, 1.0)) == pytest.approx(
        gated_score(0.25)
    )
    # angle gate is strict: sub-edges at exactly the tolerance apart are out
    turn = dict(local_sub=(0.0, 0.1, POLE), global_sub=polar(45.0, 0.1))
    assert gated_distance(**turn, angle_tolerance=45.0) is UNMATCHED
    assert gated_distance(**turn, angle_tolerance=np.nextafter(45.0, 90.0)) < UNMATCHED
    # at the default tolerances the angle gate binds only for short sub-edges
    assert gated_distance(polar(90.0, 1.0), polar(79.5, 1.0)) is UNMATCHED
    assert sub_edge_distance(1.0, 90.0, 1.0, 79.5) < AssociationParams().sub_edge_tolerance
    assert gated_distance(polar(90.0, 1.0), polar(80.5, 1.0)) == pytest.approx(
        gated_score(sub_edge_distance(1.0, 90.0, 1.0, 80.5))
    )
    # feature distance gate: equal lengths, small angle, still too far apart
    assert sub_edge_distance(3.0, 90.0, 3.0, 86.0) > AssociationParams().sub_edge_tolerance
    assert gated_distance(polar(90.0, 3.0), polar(86.0, 3.0)) is UNMATCHED
    assert gated_distance(polar(90.0, 3.0), polar(86.5, 3.0)) < UNMATCHED


# ---------------------------------------------------------------- candidates

# Local star of seven edges; the edge to (0, 5) is the one under test.
RANKED_STAR = [(0.0, 0.0), (0.0, 5.0), (8.0, 1.0), (3.0, -9.0), (-3.0, 7.0),
               (10.0, 7.0), (6.0, -6.5), (-7.0, -6.0)]


def anchor_match(partner, decoy, candidate_count):
    """Anchor pair of RANKED_STAR against a copy whose (0, 5) neighbor moved
    to partner and which gains a decoy neighbor in a wrong direction."""
    local_map = grid_map(RANKED_STAR)
    global_map = grid_map(RANKED_STAR[:1] + [partner] + RANKED_STAR[2:] + [decoy])
    pairs = associate_maps(local_map, global_map, AssociationParams(candidate_count=candidate_count))
    return pairs[0]


def test_candidate_edges_ranked_by_length_gap():
    # the decoy's length is nearer 5 than the partner's, so it takes the only slot
    assert anchor_match((0.0, 5.125), (-5.0625, 0.0), 1) == MatchPair(0, 0, 6)
    assert anchor_match((0.0, 5.125), (-5.0625, 0.0), 2) == MatchPair(0, 0, 7)
    # a decoy further away in length leaves the partner first
    assert anchor_match((0.0, 5.125), (-5.25, 0.0), 1) == MatchPair(0, 0, 7)


def test_candidate_edges_stable_on_ties():
    # equal length gaps keep star order, shorter edge first
    assert anchor_match((0.0, 5.125), (-4.875, 0.0), 1) == MatchPair(0, 0, 6)
    assert anchor_match((0.0, 4.875), (-5.125, 0.0), 1) == MatchPair(0, 0, 7)


# ---------------------------------------------------------------- edge pairs


def test_edge_pair_distance_identical_stars_is_zero():
    local_map, _ = reference_star_scene()
    params = AssociationParams(min_sub_edge_matches=4)
    assert edge_pair_distance(local_map, local_map, (0, 1), (0, 1), params) == 0.0


def test_edge_pair_distance_four_tenth_offsets():
    local_map, global_map = reference_star_scene()
    params = AssociationParams(min_sub_edge_matches=4)
    score = edge_pair_distance(local_map, global_map, (0, 1), (0, 1), params)
    # eight local sub-edges, four paired at distance 0.1 each
    assert score == pytest.approx(math.log(2.0) * 0.1, abs=1e-9)


def test_edge_pair_distance_unmatched_below_minimum():
    # push one partner outside the feature distance gate: three pairs remain
    local_map, global_map = reference_star_scene(partner_offsets=(0.1, 0.1, 0.1, 0.25))
    params = AssociationParams(min_sub_edge_matches=4)
    score = edge_pair_distance(local_map, global_map, (0, 1), (0, 1), params)
    assert score is UNMATCHED
    assert math.isinf(UNMATCHED)


def test_edge_pair_distance_requires_enough_sub_edges():
    # stars of three edges cannot reach the default five sub-edge matches
    m = grid_map([(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (-5.0, 0.0)])
    assert edge_pair_distance(m, m, (0, 1), (0, 1)) is UNMATCHED


def test_edge_pair_distance_rejects_edges_outside_the_star():
    local_map, global_map = reference_star_scene()
    with pytest.raises(ValueError, match="not in the star"):
        edge_pair_distance(local_map, global_map, (0, 1), (0, 9))
    with pytest.raises(ValueError, match="not in the star"):
        edge_pair_distance(local_map, global_map, (0, 0), (0, 1))


def test_edge_pair_distance_rejects_an_unknown_anchor():
    local_map, global_map = reference_star_scene()
    with pytest.raises(KeyError):
        edge_pair_distance(local_map, global_map, (99, 1), (0, 1))
    with pytest.raises(KeyError):
        edge_pair_distance(local_map, global_map, (0, 1), (99, 1))


# ---------------------------------------------------------------- clusters


def test_match_clusters_label_gate():
    coords = [(0.0, 0.0)] + [
        ((6.0 + 0.7 * k) * math.cos(k), (6.0 + 0.7 * k) * math.sin(k))
        for k in range(1, 8)
    ]
    pole_map = grid_map(coords, POLE)
    trunk_map = grid_map(coords, TRUNK)
    assert associate_maps(pole_map, trunk_map) == []
    assert associate_maps(pole_map, pole_map)[0] == MatchPair(0, 0, 7)


def test_associate_maps_identity(rng):
    global_map = grid_map(
        [(0, 0), (7, 2), (3, 9), (11, 6), (5, 15), (14, 12), (9, 1), (1, 13)]
    )
    pairs = associate_maps(global_map, global_map)
    assert [p.local_id for p in pairs] == list(range(8))
    assert all(p.local_id == p.global_id for p in pairs)
    assert all(p.matched_edges == 7 for p in pairs)


def test_associate_maps_empty():
    assert associate_maps(ClusterMap(), ClusterMap()) == []
    one = grid_map([(0, 0), (5, 0), (0, 5), (5, 5), (2, 8), (8, 2)])
    assert associate_maps(ClusterMap(), one) == []
    assert associate_maps(one, ClusterMap()) == []


def test_associate_maps_matches_oracle(rng):
    params = AssociationParams()
    for trial in range(8):
        local, global_map = association_scene(rng)
        got = {
            (p.local_id, p.global_id, p.matched_edges)
            for p in associate_maps(local, global_map, params)
        }
        want = oracle_associate(local, global_map, params)
        assert got == want, f"trial {trial}"


def rebuilt(cluster_map, without=None) -> ClusterMap:
    """A fresh map holding copies of the same clusters under the same ids,
    leaving out the cluster with id without."""
    out = ClusterMap()
    for c in cluster_map:
        if c.cluster_id != without:
            out.insert(Cluster(c.cluster_id, c.label, c.points, c.points.mean(axis=0)))
    return out


def test_derived_stars_follow_every_mutation(rng):
    local, full_map = association_scene(rng)
    left_out = full_map.get(associate_maps(local, full_map)[0].global_id)
    global_map = rebuilt(full_map, without=left_out.cluster_id)
    before = associate_maps(local, global_map)

    def changed():
        nonlocal before
        after = associate_maps(local, global_map)
        # every step changes the result, so stars kept from before would show
        assert after != before
        assert after == associate_maps(local, rebuilt(global_map))
        before = after

    added = global_map.add(left_out.label, left_out.points)
    changed()
    moved = left_out.points + (30.0, 0.0, 0.0)
    global_map.absorb([added.cluster_id], [added.label], moved, [len(moved)])
    changed()
    global_map.insert(replace(left_out, cluster_id=added.cluster_id + 1))
    changed()


def test_isolated_last_cluster_changes_nothing(rng):
    # the cluster with the highest id has an empty star
    for _ in range(4):
        local, global_map = association_scene(rng)
        want = associate_maps(local, global_map)
        global_map.add(POLE, cluster_points(rng, (1000.0, 1000.0, 2.0)))
        assert associate_maps(local, global_map) == want


# Lengths on a 1/8 grid meet the 1/4 tolerance exactly; floats fill between.
lengths = st.one_of(st.integers(0, 48).map(lambda k: k / 8.0), st.floats(0.0, 6.0))
edges = st.lists(st.tuples(lengths, st.integers(0, 1)), max_size=10)


def edge_star(edge_list) -> _EdgeData:
    n = len(edge_list)
    return _EdgeData(
        np.arange(n),
        np.array([d for d, _ in edge_list], dtype=float),
        np.zeros(n),
        np.array([c for _, c in edge_list], dtype=int),
    )


def flat_stars(star_edges) -> _Stars:
    """_Stars of one star per list of (length, label) edges."""
    stars = [edge_star(e) for e in star_edges]
    counts = np.array([star.count for star in stars], dtype=int)
    lengths = np.concatenate([np.empty(0)] + [star.lengths for star in stars])
    return _Stars(
        tuple(range(len(stars))),
        tuple(stars),
        np.zeros(len(stars), dtype=int),
        counts,
        np.repeat(np.arange(len(stars)), counts),
        lengths,
        np.concatenate([np.empty(0, dtype=int)] + [star.labels for star in stars]),
        np.argsort(lengths, kind="stable"),
    )


@settings(max_examples=300, deadline=None)
@given(local=edges, star_edges=st.lists(edges, min_size=1, max_size=6))
def test_length_bound_never_below_greedy_matching(local, star_edges):
    tol = 0.25
    (bounds,) = _length_gate(flat_stars([local]), flat_stars(star_edges), tol)
    for bound, star in zip(bounds, star_edges):
        exact = oracle_length_matching(
            [d for d, _ in local], [c for _, c in local], [d for d, _ in star], [c for _, c in star],
            tol,
        )
        assert bound >= exact
        if not star:
            assert bound == 0


@settings(max_examples=300, deadline=None)
@given(
    local_stars=st.lists(edges, max_size=4),
    star_edges=st.lists(edges, max_size=6),
    tol=st.sampled_from([0.125, 0.25, 0.3]),
)
# gaps of exactly tol on the 1/8 grid, an empty global star, no local edges
@example(local_stars=[[(1.0, 0), (2.0, 1)]], star_edges=[[(1.25, 0), (0.75, 0)], [], [(2.25, 1)]],
         tol=0.25)
@example(local_stars=[[], []], star_edges=[[(1.0, 0)]], tol=0.25)
def test_length_gate_equals_dense_oracle(local_stars, star_edges, tol):
    glob = flat_stars(star_edges)
    got = _length_gate(flat_stars(local_stars), glob, tol)
    assert got.shape == (len(local_stars), len(star_edges))
    for row, local in zip(got, local_stars):
        want = oracle_length_bounds([d for d, _ in local], [c for _, c in local], glob, tol)
        assert np.array_equal(row, want)


@pytest.mark.parametrize("mutation", ["add", "insert", "absorb"])
def test_length_gate_follows_mutation_between_calls(rng, tmp_path, mutation):
    local, global_map = association_scene(rng)
    target = global_map.get(associate_maps(local, global_map)[0].global_id)
    if mutation != "absorb":
        global_map = rebuilt(global_map, without=target.cluster_id)
    before = associate_maps(local, global_map)
    if mutation == "add":
        global_map.add(target.label, target.points)
    elif mutation == "insert":
        global_map.insert(target)
    else:
        moved = target.points + (30.0, 0.0, 0.0)
        global_map.absorb([target.cluster_id], [target.label], moved, [len(moved)])
    after = associate_maps(local, global_map)
    save_map(global_map, tmp_path / "map.txt")
    fresh = load_map(tmp_path / "map.txt")
    assert after != before
    assert after == associate_maps(local, fresh)
    params = AssociationParams()
    gates = [
        _length_gate(_stars(local, params.search_radius), _stars(m, params.search_radius),
                     params.length_tolerance)
        for m in (global_map, fresh)
    ]
    assert np.array_equal(*gates)


def test_associate_maps_output_sorted_and_deterministic(rng):
    local, global_map = association_scene(rng)
    a = associate_maps(local, global_map)
    b = associate_maps(local, global_map)
    assert a == b
    assert [p.local_id for p in a] == sorted(p.local_id for p in a)


def test_associate_ties_break_toward_lowest_global_id(rng):
    base = [(0.0, 0.0), (6.0, 1.0), (2.0, 7.0), (9.0, 5.0), (4.0, 12.0), (12.0, 10.0), (8.0, 15.0)]
    doubled = base + [(x + 500.0, y) for x, y in base]
    global_map = grid_map(doubled)
    local = grid_map(base)
    pairs = associate_maps(local, global_map)
    assert len(pairs) == 7
    # both constellations match equally well; the first copy wins
    assert all(p.global_id == p.local_id for p in pairs)


def test_association_survives_rigid_motion(rng):
    local, global_map = association_scene(rng)
    baseline = {
        (p.local_id, p.global_id, p.matched_edges)
        for p in associate_maps(local, global_map)
    }
    for _ in range(5):
        pose = planar_pose(rng, max_shift=200.0)
        moved = moved_copy(local, pose)
        moved_pairs = {
            (p.local_id, p.global_id, p.matched_edges)
            for p in associate_maps(moved, global_map)
        }
        assert moved_pairs == baseline


def test_params_validation():
    with pytest.raises(ValueError):
        AssociationParams(search_radius=0.0)
    with pytest.raises(ValueError):
        AssociationParams(min_edge_matches=0)
    with pytest.raises(ValueError):
        AssociationParams(angle_tolerance=-1.0)


def test_match_pair_is_value_object():
    assert MatchPair(1, 2, 6) == MatchPair(1, 2, 6)
