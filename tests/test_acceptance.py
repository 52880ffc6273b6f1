"""End-to-end acceptance gate.

Each test checks one headline property of the toolkit at its stated tolerance
and records a single PASS/FAIL line; the lines are echoed in the terminal
summary so a full run reads as a checklist. Tolerances and trial counts are
part of the contract and must not be loosened.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    cluster_points,
    moved_copy,
    planar_pose,
    random_map,
    reference_star_scene,
    scatter_centers,
)
from oracles import embedding_distance, oracle_associate, oracle_v3_members
from polemap import POLE, TRUNK, ClusterMap, PoseSE3
from polemap.association import (
    UNMATCHED,
    AssociationParams,
    associate_maps,
    edge_pair_distance,
    sub_edge_distance,
)
from polemap.cluster_map import Frame
from polemap.dataset_io import (
    LabelMap,
    load_frame,
    load_poses,
    read_label_file,
    read_point_file,
    save_poses,
    write_frame,
    write_label_file,
    write_point_file,
)
from polemap.evaluate import cluster_density, evaluate_localization, evaluate_relocalization, success
from polemap.localization import run_pipeline
from polemap.map_io import load_map, save_map
from polemap.relocalization import RelocalizationFailure, relocalize
from polemap.simulate import DriftSpec, SceneSpec, TrajectorySpec, generate_scene, simulate_run

RESULTS: list[tuple[str, bool, str]] = []


def _report(name: str, ok: bool, detail: str) -> None:
    RESULTS.append((name, ok, detail))
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _rotation_angle_deg(rot: np.ndarray) -> float:
    cos = (np.trace(rot) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def _overlap_scene(rng, max_clusters: int):
    """Partially overlapping (local, global) pair, global size up to the cap."""
    n_global = int(rng.integers(8, max_clusters + 1))
    global_map = random_map(rng, n_global)
    keep = [c for c in global_map if rng.random() < 0.8]
    pose = planar_pose(rng, max_shift=20.0)
    sigma = float(rng.choice([0.0, 0.01, 0.03]))
    subset = ClusterMap()
    for cluster in keep:
        subset.add(cluster.label, cluster.points)
    local = moved_copy(subset, pose, rng, sigma)
    for x, y in scatter_centers(rng, int(rng.integers(0, 4)), 45.0, 3.0):
        label = POLE if rng.random() < 0.5 else TRUNK
        local.add(label, cluster_points(rng, (x + 60.0, y, 2.0)))
    return local, global_map


def test_association_agrees_with_brute_force_reference():
    rng = np.random.default_rng(90201)
    params = AssociationParams()
    started = time.perf_counter()
    agreeing = 0
    mismatch = ""
    for trial in range(100):
        local, global_map = _overlap_scene(rng, max_clusters=30)
        got = {
            (p.local_id, p.global_id, p.matched_edges)
            for p in associate_maps(local, global_map, params)
        }
        want = oracle_associate(local, global_map, params)
        if got == want:
            agreeing += 1
        elif not mismatch:
            mismatch = f"; first mismatch at trial {trial}"
    elapsed = time.perf_counter() - started
    _report(
        "association-oracle",
        agreeing == 100 and elapsed < 60.0,
        f"{agreeing}/100 scenes agree exactly{mismatch}, {elapsed:.1f} s",
    )


def test_association_is_rigid_motion_invariant():
    rng = np.random.default_rng(90202)
    unchanged = 0
    total = 0
    for scene in range(10):
        local, global_map = _overlap_scene(rng, max_clusters=18)
        baseline = {
            (p.local_id, p.global_id, p.matched_edges)
            for p in associate_maps(local, global_map)
        }
        for _ in range(10):
            motion = planar_pose(rng, max_shift=200.0)
            moved = moved_copy(local, motion)
            moved_pairs = {
                (p.local_id, p.global_id, p.matched_edges)
                for p in associate_maps(moved, global_map)
            }
            total += 1
            if moved_pairs == baseline:
                unchanged += 1
    _report(
        "rigid-invariance",
        unchanged == total == 100,
        f"{unchanged}/{total} transforms leave the match set unchanged",
    )


def test_sub_edge_distance_law_matches_vector_oracle():
    rng = np.random.default_rng(90203)
    worst = 0.0
    for _ in range(10_000):
        d1, d2 = rng.uniform(0.05, 60.0, size=2)
        t1, t2 = rng.uniform(0.0, 360.0, size=2)
        got = sub_edge_distance(d1, t1, d2, t2)
        want = embedding_distance(d1, t1, d2, t2)
        worst = max(worst, abs(got - want))
    _report(
        "sub-edge-distance-law",
        worst <= 1e-9,
        f"10000 inputs, max |law - vector| = {worst:.2e}",
    )


def _landmark_map(rng, n):
    """Single-point clusters centred on the origin: the member point is the
    centroid, so the planted per-cluster jitter is exactly centroid noise,
    and the pose translation is measured where the landmarks live rather
    than at a distant corner."""
    cluster_map = ClusterMap()
    for x, y in scatter_centers(rng, n, 120.0, 3.0):
        label = POLE if rng.random() < 0.5 else TRUNK
        z = float(rng.uniform(1.0, 4.0))
        cluster_map.add(label, [(x - 60.0, y - 60.0, z)])
    return cluster_map


def test_transform_recovery_under_noise():
    started = time.perf_counter()
    recovered = 0
    for seed in range(100):
        rng = np.random.default_rng((90204, seed))
        global_map = _landmark_map(rng, 20 + seed % 11)
        pose = planar_pose(rng, max_angle_deg=180.0, max_shift=100.0)
        local = moved_copy(global_map, pose, rng, sigma=0.05)
        try:
            result = relocalize(local, global_map)
        except RelocalizationFailure:
            continue
        truth = pose.inverse()
        trans_err = float(np.linalg.norm(result.pose.translation - truth.translation))
        rot_err = _rotation_angle_deg(result.pose.rotation.T @ truth.rotation)
        if trans_err < 0.1 and rot_err < 0.5:
            recovered += 1
    elapsed = time.perf_counter() - started
    _report(
        "transform-recovery",
        recovered >= 95 and elapsed < 30.0,
        f"{recovered}/100 seeds within 0.1 m and 0.5 deg, {elapsed:.1f} s",
    )


def test_retention_trend_and_success_rate():
    scene = generate_scene(SceneSpec())
    reports = evaluate_relocalization(scene, retentions=(1.0, 0.8, 0.6), trials=50)
    p90 = [r.distance_p90 for r in reports]
    trend_ok = p90[0] <= p90[1] <= p90[2]
    rate = reports[0].success_rate
    _report(
        "retention-trend",
        trend_ok and rate >= 0.95,
        f"p90 by retention {p90[0]:.1f}/{p90[1]:.1f}/{p90[2]:.1f} m, "
        f"full-map success rate {rate:.2f}",
    )


def _drifted_run():
    scene = generate_scene(SceneSpec())
    run = simulate_run(
        scene,
        # a 500 m loop that stays inside the mapped area
        TrajectorySpec(start=(150.0, 70.0), length=500.0, turn_rate_deg_per_m=0.72),
        DriftSpec(translational_drift=0.01, rotational_drift=0.02),
    )
    return scene, run


def _run_corrected(scene, run):
    return run_pipeline(
        run.frames, run.increments, scene.cluster_map, initial_pose=run.initial_pose
    )


def test_drift_correction_on_long_run():
    scene, run = _drifted_run()
    started = time.perf_counter()
    corrected = _run_corrected(scene, run)
    elapsed = time.perf_counter() - started
    # against an empty map every attempt fails: the odometry alone
    raw = run_pipeline(run.frames, run.increments, ClusterMap(), initial_pose=run.initial_pose)
    rmse_fixed = evaluate_localization(run.true_poses, corrected.trajectory)
    rmse_raw = evaluate_localization(run.true_poses, raw.trajectory)

    scene2, run2 = _drifted_run()
    repeat = _run_corrected(scene2, run2)
    deterministic = len(repeat.trajectory) == len(corrected.trajectory) and all(
        t1 == t2 and np.array_equal(p1.as_matrix(), p2.as_matrix())
        for (t1, p1), (t2, p2) in zip(corrected.trajectory, repeat.trajectory)
    )
    _report(
        "drift-correction",
        rmse_fixed < 0.5 and rmse_raw > 4.0 and deterministic and elapsed < 60.0,
        f"pipeline rmse {rmse_fixed:.3f} m, odometry rmse {rmse_raw:.1f} m, "
        f"deterministic={deterministic}, {elapsed:.1f} s",
    )


def test_edge_pair_distance_reference_examples():
    params = AssociationParams(min_sub_edge_matches=4)

    local_map, global_map = reference_star_scene()
    zero = edge_pair_distance(local_map, local_map, (0, 1), (0, 1), params)
    offset = edge_pair_distance(local_map, global_map, (0, 1), (0, 1), params)

    pushed_local, pushed_global = reference_star_scene(partner_offsets=(0.1, 0.1, 0.1, 0.25))
    below = edge_pair_distance(pushed_local, pushed_global, (0, 1), (0, 1), params)

    ok = (
        zero == 0.0
        and abs(offset - math.log(2.0) * 0.1) <= 1e-9
        and below is UNMATCHED
    )
    _report(
        "edge-distance-examples",
        ok,
        f"identical={zero}, offset={offset:.12f} vs {math.log(2.0) * 0.1:.12f}, "
        f"below-minimum={'UNMATCHED' if below is UNMATCHED else below}",
    )


def test_success_boundary_and_density_references():
    boundary_ok = (
        not success([0.0, 0.0], [10.0, 0.0], 10.0)
        and success([0.0, 0.0], [10.0 - 1e-9, 0.0], 10.0)
        and not success([6.0, 8.0], [0.0, 0.0], 10.0)
    )
    dense = cluster_density(827, 1400.0)
    sparse = cluster_density(496, 1400.0)
    density_ok = abs(dense - 0.59) < 0.005 and abs(sparse - 0.35) < 0.005
    _report(
        "success-and-density",
        boundary_ok and density_ok,
        f"boundary strict at 10 m: {boundary_ok}; densities {dense:.4f}, {sparse:.4f}",
    )


def _fuzz_points(rng, root, case):
    path = root / f"p{case}.bin"
    pts = rng.normal(0.0, 50.0, size=(int(rng.integers(0, 50)), 4)).astype("<f4")
    write_point_file(path, pts)
    return np.array_equal(read_point_file(path), pts)


def _fuzz_labels(rng, root, case):
    path = root / f"l{case}.label"
    labels = rng.integers(0, 2**32, size=int(rng.integers(0, 80)), dtype=np.uint32)
    write_label_file(path, labels)
    return np.array_equal(read_label_file(path), labels)


def _fuzz_frame(rng, root, case):
    label_map = LabelMap()
    labels = [POLE, TRUNK, POLE]
    rows = [
        (
            float(np.float32(rng.normal(0, 30))),
            float(np.float32(rng.normal(0, 30))),
            float(np.float32(rng.uniform(0, 5))),
            labels[int(rng.integers(0, 3))],
        )
        for _ in range(int(rng.integers(1, 30)))
    ]
    frame = Frame(float(case), [r[:3] for r in rows], [r[3] for r in rows])
    write_frame(root / f"f{case}.bin", root / f"f{case}.label", frame, label_map)
    loaded = load_frame(root / f"f{case}.bin", root / f"f{case}.label", label_map, float(case))
    return np.array_equal(loaded.xyz, frame.xyz) and np.array_equal(loaded.labels, frame.labels)


def _fuzz_poses(rng, root, case):
    path = root / f"poses{case}.txt"
    poses = []
    for k in range(int(rng.integers(1, 8))):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        poses.append((0.1 * k, PoseSE3.from_quaternion(rng.normal(0, 200, size=3), q)))
    save_poses(path, poses)
    loaded = load_poses(path)
    if len(loaded) != len(poses):
        return False
    return all(
        t1 == t0
        and np.array_equal(p1.translation, p0.translation)
        and np.max(np.abs(p1.rotation - p0.rotation)) <= 1e-12
        for (t0, p0), (t1, p1) in zip(poses, loaded)
    )


def _fuzz_map(rng, root, case):
    path = root / f"m{case}.txt"
    original = ClusterMap()
    for x, y in scatter_centers(rng, int(rng.integers(1, 7)), 30.0, 2.0):
        label = POLE if rng.random() < 0.5 else TRUNK
        original.add(label, cluster_points(rng, (x, y, 2.0), n=int(rng.integers(1, 6))))
    with_points = bool(rng.random() < 0.7)
    save_map(original, path)
    if not with_points:
        path.with_name(path.name + ".points").unlink()
    loaded = load_map(path)
    if loaded.ids() != original.ids():
        return False
    for cid in original.ids():
        a, b = original.get(cid), loaded.get(cid)
        if b.label != a.label:
            return False
        if not np.array_equal(b.centroid3d, a.centroid3d):
            return False
        if not np.array_equal(b.centroid2d, a.centroid2d):
            return False
        if with_points:
            want, _ = oracle_v3_members(a.points, a.centroid3d)
            if not np.array_equal(b.points, want):
                return False
    return True


def test_io_round_trip_fuzz(tmp_path):
    rng = np.random.default_rng(90209)
    cases = [_fuzz_points, _fuzz_labels, _fuzz_frame, _fuzz_poses, _fuzz_map]
    failures = 0
    first = ""
    for case in range(1000):
        fuzz = cases[case % len(cases)]
        if not fuzz(rng, tmp_path, case):
            failures += 1
            if not first:
                first = f"; first failure: {fuzz.__name__} case {case}"
    _report(
        "io-round-trip",
        failures == 0,
        f"1000 encode/decode cases, {failures} failures{first}",
    )
