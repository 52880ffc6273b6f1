import math

import numpy as np
import pytest

from polemap import (
    POLE,
    TRUNK,
    UNMATCHED,
    AssociationParams,
    ClusterMap,
    Edge,
    MatchPair,
    SubEdgeFeature,
    associate_maps,
    candidate_edges,
    edge_pair_distance,
    match_clusters,
    match_sub_edges,
    neighbor_edges,
    sub_edge_distance,
    sub_edge_feature,
)
from conftest import association_scene, moved_copy, planar_pose, reference_star_scene
from oracles import embedding_distance, oracle_associate


def make_edge(direction_deg, length=1.0, neighbor=1, label=POLE):
    rad = math.radians(direction_deg)
    return Edge(0, neighbor, length, np.array([math.cos(rad), math.sin(rad)]), label)


def grid_map(coords, label=POLE) -> ClusterMap:
    m = ClusterMap()
    for x, y in coords:
        m.add(label, [(float(x), float(y), 2.0)])
    return m


# ---------------------------------------------------------------- sub-edges


def test_sub_edge_angle_is_clockwise():
    ref = make_edge(0.0)
    # a neighbor rotated counterclockwise sits at 360 minus the turn
    assert sub_edge_feature(ref, make_edge(90.0, 2.0)).theta == pytest.approx(270.0)
    assert sub_edge_feature(ref, make_edge(-90.0, 2.0)).theta == pytest.approx(90.0)
    assert sub_edge_feature(ref, make_edge(0.0, 2.0)).theta == pytest.approx(0.0)
    feat = sub_edge_feature(make_edge(30.0), make_edge(75.0, 4.0))
    assert feat.theta == pytest.approx(315.0)
    assert feat.d == 4.0


def test_sub_edge_feature_range():
    with pytest.raises(ValueError, match="theta"):
        SubEdgeFeature(1.0, 360.0)
    with pytest.raises(ValueError, match="length"):
        SubEdgeFeature(0.0, 10.0)


def test_sub_edge_distance_known_values():
    assert sub_edge_distance(SubEdgeFeature(3.0, 40.0), SubEdgeFeature(3.0, 40.0)) == 0.0
    assert sub_edge_distance(
        SubEdgeFeature(3.0, 40.0), SubEdgeFeature(4.0, 40.0)
    ) == pytest.approx(1.0)
    assert sub_edge_distance(
        SubEdgeFeature(1.0, 0.0), SubEdgeFeature(1.0, 90.0)
    ) == pytest.approx(math.sqrt(2.0))


def test_sub_edge_distance_wraps_angle():
    near_zero = sub_edge_distance(SubEdgeFeature(5.0, 359.0), SubEdgeFeature(5.0, 1.0))
    direct = sub_edge_distance(SubEdgeFeature(5.0, 1.0), SubEdgeFeature(5.0, 3.0))
    assert near_zero == pytest.approx(direct, abs=1e-12)


def test_sub_edge_distance_is_plane_distance(rng):
    for _ in range(300):
        d1, d2 = rng.uniform(0.1, 30.0, 2)
        t1, t2 = rng.uniform(0.0, 360.0, 2)
        a, b = SubEdgeFeature(d1, t1 % 360.0), SubEdgeFeature(d2, t2 % 360.0)
        assert sub_edge_distance(a, b) == pytest.approx(
            embedding_distance(d1, t1, d2, t2), abs=1e-9
        )
        assert sub_edge_distance(a, b) == sub_edge_distance(b, a)


def test_match_sub_edges_gates():
    params = AssociationParams()
    a = SubEdgeFeature(5.0, 30.0)
    assert match_sub_edges(a, SubEdgeFeature(5.05, 30.0), POLE, POLE, params)
    # label mismatch loses regardless of geometry
    assert not match_sub_edges(a, a, POLE, TRUNK, params)
    # length gate is strict: a gap at the tolerance is out
    assert not match_sub_edges(
        SubEdgeFeature(1.0, 30.0), SubEdgeFeature(1.3, 30.0), POLE, POLE, params
    )
    # angle gate is strict at 10 degrees
    assert not match_sub_edges(
        SubEdgeFeature(5.0, 0.0), SubEdgeFeature(5.0, 10.0), POLE, POLE, params
    )
    # feature distance gate: equal lengths, small angle, still too far apart
    far = SubEdgeFeature(5.0, 32.5)
    assert sub_edge_distance(a, far) > params.sub_edge_tolerance
    assert not match_sub_edges(a, far, POLE, POLE, params)
    # the documented reject example
    d = sub_edge_distance(SubEdgeFeature(5.0, 30.0), SubEdgeFeature(5.2, 35.0))
    assert d == pytest.approx(0.48773, abs=1e-4)
    assert not match_sub_edges(
        SubEdgeFeature(5.0, 30.0), SubEdgeFeature(5.2, 35.0), POLE, POLE, params
    )


# ---------------------------------------------------------------- candidates


def test_candidate_edges_ranked_by_length_gap():
    target = make_edge(0.0, 5.1)
    pool = [make_edge(0.0, l, neighbor=k) for k, l in enumerate((3.0, 5.0, 9.0, 20.0))]
    picked = candidate_edges(target, pool, 2)
    assert [e.length for e in picked] == [5.0, 3.0]
    assert [e.length for e in candidate_edges(target, pool, 10)] == [5.0, 3.0, 9.0, 20.0]


def test_candidate_edges_stable_on_ties():
    target = make_edge(0.0, 5.0)
    pool = [make_edge(0.0, 4.0, neighbor=1), make_edge(0.0, 6.0, neighbor=2)]
    picked = candidate_edges(target, pool, 2)
    assert [e.neighbor_id for e in picked] == [1, 2]


# ---------------------------------------------------------------- edge pairs


def test_edge_pair_distance_identical_stars_is_zero():
    local_map, _ = reference_star_scene()
    params = AssociationParams(min_sub_edge_matches=4)
    local_edges = neighbor_edges(local_map, 0, params.search_radius)
    ref = next(e for e in local_edges if e.neighbor_id == 1)
    assert edge_pair_distance(ref, ref, local_edges, local_edges, params) == 0.0


def test_edge_pair_distance_four_tenth_offsets():
    local_map, global_map = reference_star_scene()
    params = AssociationParams(min_sub_edge_matches=4)
    local_edges = neighbor_edges(local_map, 0, params.search_radius)
    global_edges = neighbor_edges(global_map, 0, params.search_radius)
    ref = next(e for e in local_edges if e.neighbor_id == 1)
    cand = next(e for e in global_edges if e.neighbor_id == 1)
    score = edge_pair_distance(ref, cand, local_edges, global_edges, params)
    # eight local sub-edges, four paired at distance 0.1 each
    assert score == pytest.approx(math.log(2.0) * 0.1, abs=1e-9)


def test_edge_pair_distance_unmatched_below_minimum():
    # push one partner outside the feature distance gate: three pairs remain
    local_map, global_map = reference_star_scene(partner_offsets=(0.1, 0.1, 0.1, 0.25))
    params = AssociationParams(min_sub_edge_matches=4)
    local_edges = neighbor_edges(local_map, 0, params.search_radius)
    global_edges = neighbor_edges(global_map, 0, params.search_radius)
    ref = next(e for e in local_edges if e.neighbor_id == 1)
    cand = next(e for e in global_edges if e.neighbor_id == 1)
    score = edge_pair_distance(ref, cand, local_edges, global_edges, params)
    assert score is UNMATCHED
    assert math.isinf(UNMATCHED)


def test_edge_pair_distance_requires_enough_sub_edges():
    # stars of three edges cannot reach the default five sub-edge matches
    coords = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (-5.0, 0.0)]
    m = grid_map(coords)
    edges = neighbor_edges(m, 0, 50.0)
    assert edge_pair_distance(edges[0], edges[0], edges, edges) is UNMATCHED


# ---------------------------------------------------------------- clusters


def test_match_clusters_label_gate(rng):
    coords = [(0.0, 0.0)] + [
        ((6.0 + 0.7 * k) * math.cos(k), (6.0 + 0.7 * k) * math.sin(k))
        for k in range(1, 8)
    ]
    pole_map = grid_map(coords, POLE)
    trunk_map = grid_map(coords, TRUNK)
    ok, k_e = match_clusters(
        pole_map.get(0), trunk_map.get(0), pole_map, trunk_map
    )
    assert (ok, k_e) == (False, 0)
    ok, k_e = match_clusters(pole_map.get(0), pole_map.get(0), pole_map, pole_map)
    assert ok
    assert k_e == 7


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
