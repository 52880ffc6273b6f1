import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from polemap import (
    POLE,
    TRUNK,
    ClusterMap,
    MatchPair,
    PoseSE3,
    RelocalizationFailure,
    RelocParams,
    coarse_align,
    estimate_rigid_transform,
    fine_align,
    fit_pairs,
    geometric_consistency_filter,
    guided_pairs,
    ransac_filter,
    relocalize,
)
from polemap import relocalization
from polemap.association import AssociationParams
from polemap.geometry import rotation_about_z
from polemap.map_io import load_map, save_map
from polemap.relocalization import _ransac_samples
from conftest import moved_copy, planar_pose, random_map
import oracles
from oracles import oracle_fine_align, oracle_ransac_filter


def point_map(coords) -> ClusterMap:
    m = ClusterMap()
    for x, y in coords:
        m.add(POLE, [(float(x), float(y), 0.0)])
    return m


def identity_pairs(n):
    return [MatchPair(i, i, 5) for i in range(n)]


def rotation_angle_deg(rot) -> float:
    return math.degrees(math.acos(np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)))


# ------------------------------------------------------------- consistency


def test_consistency_keeps_agreeing_triangle():
    # local triangle sides 10, 7, 12.1; global sides 10.4, 7.1, 12.0; every
    # difference stays within the 0.5 tolerance, the fourth pair agrees with
    # nothing
    lx = (100.0 - 146.41 + 49.0) / 20.0
    local = point_map(
        [(0.0, 0.0), (10.0, 0.0), (lx, math.sqrt(49.0 - lx * lx)), (3.0, 3.0)]
    )
    gx = (108.16 - 144.0 + 50.41) / 20.8
    global_map = point_map(
        [(0.0, 0.0), (10.4, 0.0), (gx, math.sqrt(50.41 - gx * gx)), (50.0, 50.0)]
    )
    pairs = identity_pairs(4)
    kept = geometric_consistency_filter(pairs, local, global_map, tolerance=0.5)
    assert kept == pairs[:3]


def test_consistency_tolerance_is_inclusive():
    local = point_map([(0.0, 0.0), (10.0, 0.0)])
    stretched = point_map([(0.0, 0.0), (10.5, 0.0)])
    pairs = identity_pairs(2)
    assert geometric_consistency_filter(pairs, local, stretched, 0.5) == pairs
    too_far = point_map([(0.0, 0.0), (10.5 + 1e-6, 0.0)])
    assert len(geometric_consistency_filter(pairs, local, too_far, 0.5)) == 1


def test_consistency_small_inputs_pass_through():
    local = point_map([(0.0, 0.0)])
    assert geometric_consistency_filter([], local, local, 0.5) == []
    pairs = identity_pairs(1)
    assert geometric_consistency_filter(pairs, local, local, 0.5) == pairs


def test_consistency_output_sorted_by_local_id(rng):
    global_map = random_map(rng, 10, extent=30.0)
    pairs = list(reversed(identity_pairs(10)))
    kept = geometric_consistency_filter(pairs, global_map, global_map, 0.5)
    assert [p.local_id for p in kept] == list(range(10))


# --------------------------------------------------------------- rigid fit


def test_rigid_fit_recovers_random_transform(rng):
    for _ in range(20):
        src = rng.uniform(-10, 10, (12, 3))
        quat = rng.standard_normal(4)
        quat /= np.linalg.norm(quat)
        pose = PoseSE3.from_quaternion(rng.uniform(-30, 30, 3), quat)
        dst = pose.apply(src)
        fit = estimate_rigid_transform(src, dst)
        assert np.allclose(fit.rotation, pose.rotation, atol=1e-9)
        assert np.allclose(fit.translation, pose.translation, atol=1e-8)
        assert abs(np.linalg.det(fit.rotation) - 1.0) < 1e-9


def test_rigid_fit_rejects_collinear():
    src = np.array([[float(k), 0.0, 0.0] for k in range(5)])
    with pytest.raises(ValueError, match="degenerate"):
        estimate_rigid_transform(src, src)


def test_rigid_fit_rejects_short_or_mismatched_input():
    two = np.zeros((2, 3))
    with pytest.raises(ValueError, match="degenerate"):
        estimate_rigid_transform(two, two)
    with pytest.raises(ValueError, match="degenerate"):
        estimate_rigid_transform(np.zeros((4, 3)), np.zeros((5, 3)))


def test_rigid_fit_never_returns_reflection(rng):
    # nearly planar clouds invite reflections; determinant must stay +1
    for _ in range(20):
        src = rng.uniform(-5, 5, (8, 3))
        src[:, 2] *= 1e-6
        dst = planar_pose(rng).apply(src) + 0.01 * rng.standard_normal((8, 3))
        fit = estimate_rigid_transform(src, dst)
        assert np.linalg.det(fit.rotation) > 0.999


# ------------------------------------------------------------------ ransac


def outlier_scene(rng, n_inliers=15, n_outliers=5):
    pose = planar_pose(rng, max_shift=40.0)
    global_coords = [tuple(rng.uniform(0, 60, 2)) for _ in range(n_inliers + n_outliers)]
    global_map = point_map(global_coords)
    inv = pose.inverse()
    local = ClusterMap()
    for k, c in enumerate(global_map):
        if k < n_inliers:
            p = inv.apply(c.centroid3d)
        else:
            # matched to the wrong global cluster: place it far off
            p = inv.apply(c.centroid3d) + rng.uniform(5.0, 20.0, 3)
        local.add(POLE, [p])
    return local, global_map, pose, identity_pairs(n_inliers + n_outliers)


def test_ransac_drops_gross_outliers(rng):
    local, global_map, _, pairs = outlier_scene(rng)
    kept = ransac_filter(pairs, local, global_map, RelocParams(seed=3))
    assert [p.local_id for p in kept] == list(range(15))


def test_ransac_is_deterministic(rng):
    local, global_map, _, pairs = outlier_scene(rng)
    params = RelocParams(seed=42)
    a = ransac_filter(pairs, local, global_map, params)
    b = ransac_filter(pairs, local, global_map, params)
    assert a == b


def test_ransac_needs_three_pairs(rng):
    local = point_map([(0.0, 0.0), (5.0, 0.0)])
    with pytest.raises(ValueError, match="insufficient"):
        ransac_filter(identity_pairs(2), local, local)


def test_ransac_all_samples_degenerate(rng):
    line = point_map([(float(k) * 2.0, 0.0) for k in range(6)])
    with pytest.raises(ValueError, match="insufficient"):
        ransac_filter(identity_pairs(6), line, line)
    with pytest.raises(ValueError, match="insufficient"):
        oracle_ransac_filter(identity_pairs(6), line, line, RelocParams())


def two_motion_scene(rng):
    """Pairs 0-5 agree with one motion and 6-11 with another, so samples
    from either half find six inliers; the first such sample decides."""
    global_map = point_map([tuple(rng.uniform(0, 60, 2)) for _ in range(12)])
    local = ClusterMap()
    for k, c in enumerate(global_map):
        pose = planar_pose(np.random.default_rng(k // 6), max_shift=40.0)
        local.add(POLE, [pose.apply(c.centroid3d)])
    return local, global_map, identity_pairs(12)


def collinear_scene(rng):
    """Five centroids on a line and three off it: many samples are degenerate."""
    coords = [(3.0 * k, 0.0) for k in range(5)] + [(2.0, 9.0), (11.0, -7.0), (5.0, 4.0)]
    global_map = point_map(coords)
    local = moved_copy(global_map, planar_pose(rng))
    return local, global_map, identity_pairs(len(coords))


def assert_ransac_agrees(pairs, local, global_map, params):
    try:
        want = oracle_ransac_filter(pairs, local, global_map, params)
    except ValueError:
        with pytest.raises(ValueError, match="insufficient"):
            ransac_filter(pairs, local, global_map, params)
        return
    assert ransac_filter(pairs, local, global_map, params) == want


def test_ransac_matches_reference_loop(rng):
    scenes = [two_motion_scene(rng), collinear_scene(rng)]
    for n_outliers in (5, 10):
        local, global_map, _, pairs = outlier_scene(rng, 8, n_outliers)
        scenes.append((local, global_map, pairs))
    for local, global_map, pairs in scenes:
        for seed in range(8):
            for iterations in (1, 5, 200):
                params = RelocParams(seed=seed, ransac_iterations=iterations)
                assert_ransac_agrees(pairs, local, global_map, params)


def test_ransac_sample_memo(rng):
    _ransac_samples.cache_clear()
    table = _ransac_samples(3, 10, 50)
    assert table is _ransac_samples(3, 10, 50)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0
    assert _ransac_samples.cache_info().maxsize == 64
    # Interleaved keys, each (seed, n, iterations) with its own samples. On
    # these scenes a change of any one key part alone changes the outcome.
    scenes = [two_motion_scene(rng), collinear_scene(rng)]
    calls = [(0, 12, 0, 200), (0, 12, 6, 200), (0, 12, 1, 1), (0, 12, 0, 1),
             (0, 12, 5, 5), (0, 12, 5, 200), (1, 8, 1, 1), (1, 6, 1, 1),
             (0, 12, 6, 200), (1, 8, 1, 1), (0, 12, 0, 200), (0, 12, 5, 5)]
    for scene, n, seed, iterations in calls:
        local, global_map, pairs = scenes[scene]
        params = RelocParams(seed=seed, ransac_iterations=iterations)
        assert_ransac_agrees(pairs[:n], local, global_map, params)
    assert _ransac_samples.cache_info().hits >= 4


# --------------------------------------------------------------- alignment


def test_coarse_align_on_identity_pairs(rng):
    global_map = random_map(rng, 10, extent=30.0)
    pose = planar_pose(rng)
    local = moved_copy(global_map, pose)
    fit = coarse_align(identity_pairs(10), local, global_map)
    # mapping local -> global undoes the motion
    assert np.allclose(fit.as_matrix(), pose.inverse().as_matrix(), atol=1e-9)


def test_fine_align_improves_perturbed_start(rng):
    global_map = random_map(rng, 10, extent=30.0)
    pose = planar_pose(rng, max_shift=20.0)
    local = moved_copy(global_map, pose)
    truth = pose.inverse()
    nudge = PoseSE3(rotation_about_z(0.01), np.array([0.2, -0.1, 0.05]))
    init = nudge @ truth
    refined, rms = fine_align(identity_pairs(10), local, global_map, init)
    assert rms <= 0.35
    assert np.allclose(refined.translation, truth.translation, atol=0.3)


def test_fine_align_never_degrades(rng):
    global_map = random_map(rng, 8, extent=25.0)
    local = moved_copy(global_map, planar_pose(rng))
    bad_init = PoseSE3.identity()
    _, rms = fine_align(identity_pairs(8), local, global_map, bad_init)

    # recompute the starting residual the same way fine_align does
    src = np.vstack([c.points for c in local])
    dst = np.vstack([c.points for c in global_map])
    d, _ = cKDTree(dst).query(bad_init.apply(src))
    init_rms = float(np.sqrt(np.mean(d * d)))
    assert rms <= init_rms + 1e-12


def test_fine_align_rejects_empty_pairs(rng):
    global_map = random_map(rng, 4, extent=20.0)
    local = moved_copy(global_map, PoseSE3.identity())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="insufficient pairs"):
            fine_align([], local, global_map, PoseSE3.identity())


def icp_scene(seed):
    """Ten jittered clusters and a start up to 3 degrees and 0.5 m off."""
    rng = np.random.default_rng(seed)
    global_map = random_map(rng, 10)
    truth = planar_pose(rng, max_shift=10.0)
    local = moved_copy(global_map, truth.inverse(), rng, sigma=0.02)
    return local, global_map, planar_pose(rng, 3.0, 0.5) @ truth


def tied_scene():
    """Five two-point global clusters and a local map holding each midpoint:
    at the identity start every source point is exactly 1 m from two
    targets, and a k=2 query lists the later of the two first."""
    centers = [(0.0, 0.0), (7.0, 1.0), (3.0, 9.0), (-6.0, 5.0), (-2.0, -8.0)]
    global_map, local = ClusterMap(), ClusterMap()
    for x, y in centers:
        global_map.add(POLE, [(x - 1.0, y, 0.0), (x + 1.0, y, 0.0)])
        local.add(POLE, [(x, y, 0.0)])
    return local, global_map


def doubled(cluster_map) -> ClusterMap:
    """The map with every member point stored twice."""
    out = ClusterMap()
    for cluster in cluster_map:
        out.add(cluster.label, np.vstack([cluster.points, cluster.points]))
    return out


def test_fine_align_matches_reference_loop(tmp_path):
    cases = []
    for seed in range(6):
        local, global_map, init = icp_scene(seed)
        for iterations in (30, 1):
            params = RelocParams(icp_max_iterations=iterations)
            cases.append((identity_pairs(10), local, global_map, init, params))
    # one member point per cluster, all on a line: the first step is degenerate
    line = point_map([(2.0 * k, 0.0) for k in range(6)])
    nudge = PoseSE3(np.eye(3), np.array([0.3, 0.2, 0.0]))
    cases.append((identity_pairs(6), line, line, nudge, RelocParams()))
    # every source point tied between two targets at the start
    local, global_map = tied_scene()
    cases.append((identity_pairs(5), local, global_map, PoseSE3.identity(), RelocParams()))
    # a map saved without its sidecar: one target point per pair
    local, global_map, init = icp_scene(6)
    save_map(global_map, tmp_path / "map.txt")
    (tmp_path / "map.txt.points").unlink()
    centroids_only = load_map(tmp_path / "map.txt")
    assert all(c.n_points == 1 for c in centroids_only)
    cases.append((identity_pairs(10), local, centroids_only, init, RelocParams()))
    # every target point duplicated: every query is a tie
    local, global_map, init = icp_scene(7)
    cases.append((identity_pairs(10), local, doubled(global_map), init, RelocParams()))
    # a start far enough off that most rows go stale on the first steps
    rng = np.random.default_rng(8)
    local, global_map, init = icp_scene(8)
    far = planar_pose(rng, 20.0, 3.0) @ init
    cases.append((identity_pairs(10), local, global_map, far, RelocParams()))
    # a far start still closing in when icp_max_iterations stops it
    rng = np.random.default_rng(9)
    local, global_map, init = icp_scene(9)
    far = planar_pose(rng, 20.0, 3.0) @ init
    cases.append((identity_pairs(10), local, global_map, far, RelocParams(icp_max_iterations=8)))
    exits = []
    for case in cases:
        want_pose, want_rms, exit_ = oracle_fine_align(*case)
        pose, rms = fine_align(*case)
        assert pose.rotation.tobytes() == want_pose.rotation.tobytes()
        assert pose.translation.tobytes() == want_pose.translation.tobytes()
        assert rms == want_rms
        exits.append(exit_)
    assert set(exits) == {"converged", "rose", "degenerate", "iterations"}
    assert exits[-1] == "iterations"


def test_fine_align_correspondences_exact_along_swinging_path(monkeypatch):
    """Scripted ICP steps swing the sources back and forth across dense
    targets with shrinking amplitude, so nearest targets change, change
    back and tie; every step's correspondences must be a full query's."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        global_map = ClusterMap()
        for _ in range(4):
            center = rng.uniform(-5.0, 5.0, size=2)
            xy = center + rng.uniform(-0.3, 0.3, size=(40, 2))
            global_map.add(POLE, np.c_[xy, rng.uniform(0.0, 1.0, 40)])
        dst = np.vstack([c.points for c in global_map])
        tree = cKDTree(dst)
        angle, shift = rng.normal(0.0, 0.03), rng.normal(0.0, 0.3, size=2)
        path = [
            PoseSE3(rotation_about_z(angle * (-0.8) ** k), np.r_[shift * (-0.8) ** k, 0.0])
            for k in range(31)
        ]

        def scripted(check):
            steps = iter(range(1, len(path)))

            def step(moved, matched):
                if check:
                    assert np.array_equal(matched, dst[tree.query(moved)[1]])
                k = next(steps)
                return path[k] @ path[k - 1].inverse()

            return step

        # the sources are the targets themselves, so the truth is the identity
        params = RelocParams(icp_convergence=-np.inf)
        case = (identity_pairs(4), global_map, global_map, path[0], params)
        monkeypatch.setattr(oracles, "estimate_rigid_transform", scripted(False))
        want_pose, want_rms, exit_ = oracle_fine_align(*case)
        assert exit_ == "iterations"
        monkeypatch.setattr(relocalization, "estimate_rigid_transform", scripted(True))
        pose, rms = fine_align(*case)
        assert pose.as_matrix().tobytes() == want_pose.as_matrix().tobytes()
        assert rms == want_rms


def test_fine_align_requeries_only_stale_rows(monkeypatch):
    rows = []

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            rows.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(relocalization, "cKDTree", CountingTree)
    local, global_map, init = icp_scene(0)
    n_src = sum(c.n_points for c in local)
    # no convergence stop: ICP runs until its residual rises
    fine_align(identity_pairs(10), local, global_map, init, RelocParams(icp_convergence=0.0))
    # the start queries every row; each later query only the stale ones
    assert rows[0] == n_src
    assert len(rows) > 3
    assert all(0 < r < n_src for r in rows[2:])


# -------------------------------------------------------------- relocalize


def test_relocalize_recovers_pose(rng):
    global_map = random_map(rng, 25, extent=60.0, min_spacing=4.0)
    pose = planar_pose(rng, max_shift=80.0)
    local = moved_copy(global_map, pose, rng, sigma=0.02)
    result = relocalize(local, global_map)
    truth = pose.inverse()
    assert np.linalg.norm(result.pose.translation - truth.translation) < 0.1
    assert rotation_angle_deg(result.pose.rotation.T @ truth.rotation) < 0.5
    assert len(result.inlier_pairs) >= 20
    assert result.residual_rms < 0.2
    ids = [p.local_id for p in result.inlier_pairs]
    assert ids == sorted(ids)


def test_relocalize_no_matches(rng):
    sparse = point_map([(0.0, 0.0), (30.0, 0.0)])
    global_map = random_map(rng, 15, extent=40.0)
    with pytest.raises(RelocalizationFailure) as info:
        relocalize(sparse, global_map)
    assert info.value.reason == "no-matches"


def scrambled_piece_scene(rng):
    """Two rigid 4-cluster pieces whose relative placement disagrees.

    Association (relaxed thresholds) pairs the pieces correctly, but no rigid
    transform explains both at once, so any consistent subset caps out at one
    piece of four pairs.
    """
    piece_a = [(0.0, 0.0), (6.0, 1.0), (2.0, 7.0), (8.0, 5.5)]
    piece_b = [(0.0, 0.0), (5.0, 2.0), (1.0, 6.0), (7.5, 7.0)]
    global_map = point_map(piece_a + [(x + 200.0, y) for x, y in piece_b])
    # local keeps both pieces but at a wrong relative offset
    local = point_map(piece_a + [(x + 90.0, y + 40.0) for x, y in piece_b])
    assoc = AssociationParams(min_sub_edge_matches=2, min_edge_matches=2, candidate_count=4)
    return local, global_map, assoc


def test_relocalize_consistency_collapse(rng):
    local, global_map, assoc = scrambled_piece_scene(rng)
    with pytest.raises(RelocalizationFailure) as info:
        relocalize(local, global_map, assoc, RelocParams(min_pairs=5))
    assert info.value.reason == "consistency-collapse"


def test_relocalize_ransac_failure(monkeypatch):
    """A mirror image keeps every pairwise distance, so the consistency
    filter keeps all five pairs, but no proper rigid motion fits more than
    three of five points that are not coplanar."""
    corners = [(0, 0, 0), (20, 0, 0), (0, 20, 0), (0, 0, 20), (20, 20, 20)]
    global_map, mirrored = ClusterMap(), ClusterMap()
    for x, y, z in corners:
        global_map.add(POLE, [(float(x), float(y), float(z))])
        mirrored.add(POLE, [(float(-x), float(y), float(z))])
    monkeypatch.setattr(relocalization, "associate_maps", lambda *args: identity_pairs(5))
    with pytest.raises(RelocalizationFailure) as info:
        relocalize(mirrored, global_map)
    assert info.value.reason == "ransac-failure"


# ------------------------------------------------------------ guided path


def labeled_map(rows) -> ClusterMap:
    """One single-point cluster per (label, x, y) row, ids in row order."""
    m = ClusterMap()
    for label, x, y in rows:
        m.add(label, [(float(x), float(y), 0.0)])
    return m


def test_guided_pairs_same_label_inclusive_gate_lowest_id():
    global_map = labeled_map([
        (TRUNK, 0.0, 0.0),    # 0: on top of local 0, but the wrong label
        (POLE, 2.0, 0.0),     # 1: exactly at the gate
        (POLE, 0.0, 2.0),     # 2: tied with 1, the higher id
        (TRUNK, 22.5, 0.0),   # 3: beyond the gate of local 1
        (POLE, 40.0, 0.5),    # 4: the wrong label for local 2
        (TRUNK, 41.5, 0.0),   # 5
    ])
    local = labeled_map([(POLE, 0.0, 0.0), (TRUNK, 20.0, 0.0), (TRUNK, 40.0, 0.0)])
    assert guided_pairs(local, global_map, 2.0) == [MatchPair(0, 1, 0), MatchPair(2, 5, 0)]
    assert guided_pairs(local, global_map, 1.999) == [MatchPair(2, 5, 0)]
    # an unbounded gate still pairs within a label only: local 1 reaches
    # trunk 3, and a local trunk finds no pair among poles alone
    assert guided_pairs(local, global_map, math.inf) == [
        MatchPair(0, 1, 0), MatchPair(1, 3, 0), MatchPair(2, 5, 0)
    ]
    assert guided_pairs(local, labeled_map([(POLE, 40.0, 0.5)]), math.inf) == [MatchPair(0, 0, 0)]
    assert guided_pairs(local, ClusterMap(), 2.0) == []
    assert guided_pairs(ClusterMap(), global_map, 2.0) == []


def test_guided_path_serves_a_local_map_posed_at_a_good_estimate(rng, monkeypatch):
    global_map = random_map(rng, 25, extent=60.0, min_spacing=4.0)
    # posed at an estimate 0.3 m off: every cluster lies within the gate
    offset = PoseSE3(rotation_about_z(0.002), np.array([0.3, -0.1, 0.0]))
    local = moved_copy(global_map, offset, rng, sigma=0.02)
    star = relocalize(local, global_map)

    def no_star(*args):
        raise AssertionError("star association ran on the guided path")

    monkeypatch.setattr(relocalization, "associate_maps", no_star)
    guided = relocalize(local, global_map, guided=True)
    assert (star.path, guided.path) == ("star", "guided")
    assert all(p.matched_edges == 0 for p in guided.inlier_pairs)
    truth = offset.inverse()
    assert np.linalg.norm(guided.pose.translation - truth.translation) < 0.1
    assert rotation_angle_deg(guided.pose.rotation.T @ truth.rotation) < 0.5


def test_too_few_guided_pairs_fall_back_to_star_in_one_call(rng):
    global_map = random_map(rng, 25, extent=60.0, min_spacing=4.0)
    # posed 350 m away: no global centroid lies within the gate
    pose = PoseSE3(rotation_about_z(0.7), np.array([300.0, -180.0, 0.0]))
    local = moved_copy(global_map, pose, rng, sigma=0.02)
    assert guided_pairs(local, global_map, 2.0) == []
    result = relocalize(local, global_map, guided=True)
    star = relocalize(local, global_map)
    assert result.path == "star"
    assert result.pose.as_matrix().tobytes() == star.pose.as_matrix().tobytes()
    assert result.inlier_pairs == star.inlier_pairs


def test_failed_fallback_reports_the_star_reason(rng):
    # the guided path finds piece a's four pairs, one short of min_pairs;
    # the star path then fails at the consistency filter, and that is raised
    local, global_map, assoc = scrambled_piece_scene(rng)
    assert len(guided_pairs(local, global_map, 2.0)) == 4
    with pytest.raises(RelocalizationFailure) as info:
        relocalize(local, global_map, assoc, RelocParams(min_pairs=5), guided=True)
    assert info.value.reason == "consistency-collapse"


# Exact (dyadic) offsets of each cluster's member points from its center, so
# centroids and the distances between shifted copies carry no rounding.
_POLE_POINTS = [(dx, dy, z) for dx, dy in ((0.125, 0.0), (-0.125, 0.0), (0.0, 0.125), (0.0, -0.125))
                for z in (0.5, 1.5, 2.5, 3.5)]
_TRUNK_POINTS = [(dx, dy, z) for dx, dy in ((0.25, 0.0), (-0.25, 0.0), (0.0, 0.25), (0.0, -0.25))
                 for z in (0.25, 0.75, 1.25)]
# Irregular off-row trunks, so the row's period does not hold for the scene.
_ROW_TRUNKS = [(5.0, 7.0), (21.0, -6.0), (38.0, 9.0), (59.0, -4.5), (77.0, 6.5)]


def pole_row_map(shift=0.0, rng=None, sigma=0.0) -> ClusterMap:
    """12 poles 8 m apart along x plus 5 off-row trunks, shifted along x;
    with rng, every member point gets Gaussian noise of sigma meters."""
    m = ClusterMap()
    rows = [(POLE, 8.0 * k, 0.0, _POLE_POINTS) for k in range(12)]
    rows += [(TRUNK, x, y, _TRUNK_POINTS) for x, y in _ROW_TRUNKS]
    for label, x, y, offsets in rows:
        points = np.array([(x + shift + dx, y + dy, z) for dx, dy, z in offsets])
        if rng is not None:
            points += sigma * rng.standard_normal(points.shape)
        m.add(label, points)
    return m


@pytest.mark.parametrize("offset, path", [(2.0, "guided"), (3.0, "star"), (4.0, "star")])
def test_periodic_pole_row(offset, path):
    # The vehicle sits at the origin of the global frame, and its estimate is
    # off by offset along the row, so the local map lies shifted by it. At 2 m
    # every cluster pairs with its own landmark; at 3 and 4 m none lies within
    # the gate, and star association, which ignores the estimate, serves.
    estimate = PoseSE3(np.eye(3), np.array([offset, 0.0, 0.0]))
    result = relocalize(pole_row_map(offset), pole_row_map(), guided=True)
    fix = result.pose @ estimate
    assert (result.path, len(result.inlier_pairs)) == (path, 17)
    assert np.linalg.norm(fix.translation) < 0.1
    assert rotation_angle_deg(fix.rotation) < 0.5


def test_collinear_guided_inliers_fall_back_to_star():
    # Off by one full period of the noisy row, each pole lies within the gate
    # of its neighbour's landmark and no trunk lies within the gate of its
    # own. fit_pairs accepts those 11 collinear pairs, which confirm the wrong
    # estimate and leave the roll about the row free; they do not span the
    # plane, so star association serves and finds the true pose.
    rng = np.random.default_rng(5)
    global_map = pole_row_map(rng=rng, sigma=0.02)
    local = pole_row_map(8.0, rng=rng, sigma=0.02)
    pairs = guided_pairs(local, global_map, 2.0)
    assert [(p.local_id, p.global_id) for p in pairs] == [(k, k + 1) for k in range(11)]
    assert len(fit_pairs(pairs, local, global_map).inlier_pairs) == 11
    estimate = PoseSE3(np.eye(3), np.array([8.0, 0.0, 0.0]))
    result = relocalize(local, global_map, guided=True)
    fix = result.pose @ estimate
    assert (result.path, len(result.inlier_pairs)) == ("star", 17)
    assert np.linalg.norm(fix.translation) < 0.1
    assert rotation_angle_deg(fix.rotation) < 0.5


def test_reloc_params_validated():
    with pytest.raises(ValueError):
        RelocParams(min_pairs=2)
    with pytest.raises(ValueError):
        RelocParams(ransac_iterations=0)
    # values that would turn relocalization off without a word
    for name in ("consistency_tolerance", "ransac_threshold"):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                RelocParams(**{name: value})
    with pytest.raises(ValueError, match="icp_max_iterations must be non-negative"):
        RelocParams(icp_max_iterations=-5)
    # no ICP step is valid: the coarse fit alone
    assert RelocParams(icp_max_iterations=0).icp_max_iterations == 0
