import math
from dataclasses import replace

import numpy as np
import pytest

from polemap import ClusterMap, PoseSE3, POLE, TRUNK
from polemap.evaluate import (
    MAX_DISTANCE,
    EvalReport,
    cluster_density,
    evaluate_localization,
    evaluate_relocalization,
    success,
    trajectory_length,
)
from polemap.geometry import rotation_about_z
from polemap.simulate import (
    DriftSpec,
    Landmark,
    Scene,
    SceneSpec,
    SensorSpec,
    TrajectorySpec,
    generate_scene,
    retain_clusters,
    sensor_frame,
    simulate_run,
)
from oracles import oracle_sensor_frame


# ---------------------------------------------------------------- scenes


def test_generate_scene_respects_count_and_spacing():
    spec = SceneSpec(area=(150.0, 150.0), n_clusters=60, min_spacing=5.0, seed=4)
    scene = generate_scene(spec)
    assert len(scene.landmarks) == 60
    assert len(scene.cluster_map) == 60
    xy = np.array([(lm.x, lm.y) for lm in scene.landmarks])
    diffs = xy[:, None, :] - xy[None, :, :]
    dist = np.sqrt(np.sum(diffs**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= 5.0
    assert xy[:, 0].min() >= 0.0 and xy[:, 0].max() <= 150.0
    assert xy[:, 1].min() >= 0.0 and xy[:, 1].max() <= 150.0


def test_generate_scene_is_deterministic_per_seed():
    a = generate_scene(SceneSpec(area=(80.0, 80.0), n_clusters=20, seed=7))
    b = generate_scene(SceneSpec(area=(80.0, 80.0), n_clusters=20, seed=7))
    c = generate_scene(SceneSpec(area=(80.0, 80.0), n_clusters=20, seed=8))
    assert a.landmarks == b.landmarks
    assert a.landmarks != c.landmarks
    for cid in a.cluster_map.ids():
        np.testing.assert_array_equal(
            a.cluster_map.get(cid).centroid3d, b.cluster_map.get(cid).centroid3d
        )


def test_generate_scene_infeasible_spacing_raises():
    with pytest.raises(ValueError, match="infeasible"):
        generate_scene(SceneSpec(area=(10.0, 10.0), n_clusters=50, min_spacing=6.0))


def test_generate_scene_label_mix_extremes():
    poles = generate_scene(SceneSpec(area=(90.0, 90.0), n_clusters=15, label_mix=1.0))
    trunks = generate_scene(SceneSpec(area=(90.0, 90.0), n_clusters=15, label_mix=0.0))
    assert all(lm.label == POLE for lm in poles.landmarks)
    assert all(lm.label == TRUNK for lm in trunks.landmarks)


# ------------------------------------------------------------- retention


def test_retain_clusters_keeps_rounded_fraction_with_original_ids():
    scene = generate_scene(SceneSpec(area=(120.0, 120.0), n_clusters=30, seed=2))
    retained = retain_clusters(scene.cluster_map, 0.6, seed=9)
    assert len(retained) == 18
    assert set(retained.ids()) <= set(scene.cluster_map.ids())
    for cid in retained.ids():
        np.testing.assert_array_equal(
            retained.get(cid).centroid3d, scene.cluster_map.get(cid).centroid3d
        )


def test_retain_clusters_full_and_empty():
    scene = generate_scene(SceneSpec(area=(90.0, 90.0), n_clusters=12, seed=1))
    assert retain_clusters(scene.cluster_map, 1.0).ids() == scene.cluster_map.ids()
    assert len(retain_clusters(scene.cluster_map, 0.0)) == 0
    with pytest.raises(ValueError, match="fraction"):
        retain_clusters(scene.cluster_map, 1.5)


def test_retain_clusters_copies_do_not_alias_centroids():
    scene = generate_scene(SceneSpec(area=(90.0, 90.0), n_clusters=10, seed=3))
    retained = retain_clusters(scene.cluster_map, 1.0)
    cid = retained.ids()[0]
    retained.get(cid).centroid3d[0] += 100.0
    assert scene.cluster_map.get(cid).centroid3d[0] != retained.get(cid).centroid3d[0]


# ------------------------------------------------------------ simulation


def _small_run(drift):
    scene = generate_scene(SceneSpec(area=(100.0, 100.0), n_clusters=25, seed=5))
    return simulate_run(
        scene,
        TrajectorySpec(start=(20.0, 50.0), length=30.0),
        drift,
        SensorSpec(),
    )


def test_simulate_run_zero_drift_reproduces_true_increments():
    run = _small_run(DriftSpec())
    assert len(run.increments) == len(run.frames) - 1
    for k, inc in enumerate(run.increments, start=1):
        rel = run.true_poses[k - 1][1].inverse() @ run.true_poses[k][1]
        assert np.allclose(inc.relative_pose.as_matrix(), rel.as_matrix(), atol=1e-12)
        assert inc.timestamp == run.true_poses[k][0]


def test_simulate_run_translational_drift_scales_steps():
    clean = _small_run(DriftSpec())
    drifted = _small_run(DriftSpec(translational_drift=0.02))
    for a, b in zip(clean.increments, drifted.increments):
        np.testing.assert_allclose(
            b.relative_pose.translation, a.relative_pose.translation * 1.02, atol=1e-12
        )
        np.testing.assert_array_equal(b.relative_pose.rotation, a.relative_pose.rotation)


def test_simulate_run_rotational_drift_biases_yaw():
    run = _small_run(DriftSpec(rotational_drift=0.04))
    # straight path: each true relative rotation is identity, so every
    # increment carries exactly the per-step yaw bias
    step_len = 5.0 * 0.5
    expected = rotation_about_z(math.radians(0.04 * step_len))
    for inc in run.increments:
        np.testing.assert_allclose(inc.relative_pose.rotation, expected, atol=1e-12)


def test_simulate_run_vertical_drift_climbs_per_meter():
    clean = _small_run(DriftSpec())
    drifted = _small_run(DriftSpec(vertical_drift=0.002))
    for a, b in zip(clean.increments, drifted.increments):
        step_len = float(np.linalg.norm(a.relative_pose.translation))
        want = a.relative_pose.translation + [0.0, 0.0, 0.002 * step_len]
        np.testing.assert_allclose(b.relative_pose.translation, want, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(b.relative_pose.rotation, a.relative_pose.rotation)


def test_simulate_run_noise_is_seeded():
    a = _small_run(DriftSpec(noise_sigma=0.01, seed=42))
    b = _small_run(DriftSpec(noise_sigma=0.01, seed=42))
    c = _small_run(DriftSpec(noise_sigma=0.01, seed=43))
    for x, y in zip(a.increments, b.increments):
        np.testing.assert_array_equal(x.relative_pose.translation, y.relative_pose.translation)
    assert any(
        not np.array_equal(x.relative_pose.translation, y.relative_pose.translation)
        for x, y in zip(a.increments, c.increments)
    )


def test_simulate_run_curved_trajectory_changes_heading():
    scene = generate_scene(SceneSpec(area=(200.0, 200.0), n_clusters=20, seed=6))
    run = simulate_run(
        scene,
        TrajectorySpec(start=(40.0, 100.0), length=60.0, turn_rate_deg_per_m=1.5),
        DriftSpec(),
        SensorSpec(),
    )
    first = run.true_poses[0][1].rotation
    last = run.true_poses[-1][1].rotation
    yaw = math.degrees(math.atan2(last[1, 0], last[0, 0]))
    assert not np.allclose(first, last)
    assert yaw == pytest.approx(1.5 * 60.0, abs=1e-6)


# ---------------------------------------------------------------- sensor


def _bare_scene(landmarks, sigma=0.0, points_per_cluster=5):
    spec = SceneSpec(
        area=(200.0, 200.0),
        n_clusters=0,
        points_per_cluster=points_per_cluster,
        point_noise_sigma=sigma,
    )
    return Scene(cluster_map=ClusterMap(), landmarks=tuple(landmarks), spec=spec)


def test_sensor_frame_visibility_radius():
    scene = _bare_scene(
        [
            Landmark(10.0, 0.0, POLE),
            Landmark(59.9, 0.0, POLE),
            Landmark(60.1, 0.0, TRUNK),
        ]
    )
    rng = np.random.default_rng(0)
    frame = sensor_frame(rng, scene, PoseSE3.identity(), 0.0, SensorSpec(radius=60.0))
    xs = sorted(set(frame.xyz[:, 0].tolist()))
    assert xs == [10.0, 59.9]


def test_sensor_frame_points_are_in_vehicle_coordinates():
    scene = _bare_scene([Landmark(30.0, 40.0, POLE)])
    pose = PoseSE3(rotation_about_z(math.pi / 2), np.array([30.0, 30.0, 0.0]))
    rng = np.random.default_rng(0)
    frame = sensor_frame(rng, scene, pose, 0.0, SensorSpec(radius=60.0))
    # landmark sits 10 m ahead of the rotated sensor, i.e. along body +x
    np.testing.assert_allclose(frame.xyz[:, 0], 10.0, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(frame.xyz[:, 1], 0.0, rtol=0.0, atol=1e-9)


def test_half_ring_scan_centroid_sits_2r_over_pi_toward_the_sensor():
    # no noise: each scanned point lies on the ring, on the half facing the
    # sensor, so the scan's centroid moves toward it by r * E[cos] = 2r/pi
    # over uniform angles in +-90 degrees; the map's full ring stays centred
    r, n = 0.25, 10_000
    landmark = Landmark(30.0, 40.0, TRUNK)
    spec = SceneSpec(area=(200.0, 200.0), n_clusters=0, points_per_cluster=n,
                     point_noise_sigma=0.0, pole_radius=0.1, trunk_radius=r)
    scene = Scene(cluster_map=ClusterMap(), landmarks=(landmark,), spec=spec)
    pose = PoseSE3(rotation_about_z(0.4), np.array([20.0, 30.0, 0.0]))
    frame = sensor_frame(np.random.default_rng(3), scene, pose, 0.0, SensorSpec(radius=60.0))
    offsets = pose.apply(frame.xyz)[:, :2] - (landmark.x, landmark.y)
    toward = (pose.translation[:2] - (landmark.x, landmark.y)) / math.hypot(10.0, 10.0)
    across = np.array([-toward[1], toward[0]])
    np.testing.assert_allclose(np.hypot(offsets[:, 0], offsets[:, 1]), r, rtol=0.0, atol=1e-9)
    assert (offsets @ toward >= -1e-9).all()
    # the sampling spread of the mean is 0.31 r / sqrt(n) along, 0.71 r /
    # sqrt(n) across; both tolerances are about five of those
    assert abs(offsets.mean(axis=0) @ toward - 2 * r / math.pi) < 0.004
    assert abs(offsets.mean(axis=0) @ across) < 0.01
    full = generate_scene(replace(spec, n_clusters=1))
    ring = full.cluster_map.get(0).points[:, :2] - (full.landmarks[0].x, full.landmarks[0].y)
    np.testing.assert_allclose(np.hypot(ring[:, 0], ring[:, 1]),
                               r if full.landmarks[0].label == TRUNK else 0.1, rtol=0.0, atol=1e-9)
    assert np.hypot(*ring.mean(axis=0)) < 0.01


def test_sensor_frame_label_flips():
    scene = _bare_scene([Landmark(5.0, 0.0, POLE), Landmark(-5.0, 0.0, TRUNK)])
    rng = np.random.default_rng(0)
    frame = sensor_frame(
        rng, scene, PoseSE3.identity(), 0.0, SensorSpec(radius=60.0, label_flip_rate=1.0)
    )
    ahead = frame.xyz[:, 0] > 0
    assert set(frame.labels[ahead].tolist()) == {TRUNK}
    assert set(frame.labels[~ahead].tolist()) == {POLE}


def test_sensor_frame_clutter_points_use_unknown_label():
    scene = _bare_scene([Landmark(5.0, 0.0, POLE)], points_per_cluster=3)
    rng = np.random.default_rng(0)
    frame = sensor_frame(
        rng, scene, PoseSE3.identity(), 0.0, SensorSpec(radius=60.0, clutter_points=7)
    )
    assert len(frame.xyz) == 10
    landmark = np.isin(frame.labels, [POLE, TRUNK])
    assert int(np.sum(~landmark)) == 7


def _assert_frames_as_oracle(scene, poses, sensor, seed=0):
    for k, pose in enumerate(poses):
        rng, oracle_rng = np.random.default_rng(seed + k), np.random.default_rng(seed + k)
        frame = sensor_frame(rng, scene, pose, 0.5 * k, sensor)
        expected = oracle_sensor_frame(oracle_rng, scene, pose, 0.5 * k, sensor)
        assert frame.timestamp == expected.timestamp
        assert frame.xyz.shape == expected.xyz.shape and frame.xyz.dtype == expected.xyz.dtype
        assert frame.xyz.tobytes() == expected.xyz.tobytes()
        assert frame.labels.dtype == expected.labels.dtype
        assert frame.labels.tobytes() == expected.labels.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("radii, points_per_cluster, flip_rate, clutter", [
    ((0.0, 0.0), 40, 0.0, 0),
    ((0.1, 0.25), 40, 0.0, 0),
    ((0.1, 0.25), 40, 0.3, 20),
    ((0.0, 0.0), 1, 0.3, 20),
    ((0.1, 0.25), 1, 0.0, 0),
], ids=["axis", "cylinder", "cylinder-flip-clutter", "axis-1pt-flip-clutter", "cylinder-1pt"])
def test_sensor_frame_draws_as_the_per_landmark_oracle(radii, points_per_cluster, flip_rate, clutter):
    # bytes and random stream after the call; the last pose sees no
    # landmark, so its frame is empty or all clutter
    spec = SceneSpec(area=(160.0, 160.0), n_clusters=70, points_per_cluster=points_per_cluster,
                     pole_radius=radii[0], trunk_radius=radii[1], seed=7)
    scene = generate_scene(spec)
    rng = np.random.default_rng(11)
    poses = [PoseSE3(rotation_about_z(rng.uniform(-math.pi, math.pi)),
                     np.array([*rng.uniform(0.0, 160.0, size=2), 0.0])) for _ in range(12)]
    poses.append(PoseSE3(rotation_about_z(0.3), np.array([1000.0, -1000.0, 0.0])))
    _assert_frames_as_oracle(scene, poses, SensorSpec(radius=40.0, label_flip_rate=flip_rate,
                                                      clutter_points=clutter))


def _radius_whose_square_rounds_low():
    """A radius r whose r**2 (the C library's pow) is below the correctly
    rounded r * r, where that pow is not correctly rounded; else 60.0."""
    for step in range(100_000):
        radius = 50.0 + step / 1024 + 1e-6
        if radius**2 < radius * radius:
            return radius
    return 60.0


@pytest.mark.parametrize("radius", [60.0, _radius_whose_square_rounds_low()])
def test_sensor_frame_keeps_a_landmark_at_exactly_the_sensor_radius(radius):
    scene = _bare_scene([Landmark(radius, 0.0, POLE), Landmark(0.0, -radius, TRUNK),
                         Landmark(radius + 1e-9, 0.0, TRUNK), Landmark(-radius, 0.0, POLE)])
    sensor = SensorSpec(radius=radius)
    frame = sensor_frame(np.random.default_rng(0), scene, PoseSE3.identity(), 0.0, sensor)
    assert len(frame.xyz) == 3 * 5
    _assert_frames_as_oracle(scene, [PoseSE3.identity()], sensor)


# --------------------------------------------------------------- metrics


def test_success_is_strict_at_the_boundary():
    assert success([0.0, 0.0], [1.999, 0.0], 2.0)
    assert not success([0.0, 0.0], [2.0, 0.0], 2.0)
    assert success([1.0, 2.0, 3.0], [1.0, 2.0, 3.5], 0.6)


def test_cluster_density_reference_values():
    assert cluster_density(827, 1400.0) == pytest.approx(0.5907, abs=5e-5)
    assert cluster_density(496, 1400.0) == pytest.approx(0.3543, abs=5e-5)
    with pytest.raises(ValueError, match="positive"):
        cluster_density(10, 0.0)


def test_trajectory_length_polyline():
    assert trajectory_length([(0.0, 0.0), (3.0, 4.0)]) == pytest.approx(5.0)
    assert trajectory_length([(0.0, 0.0), (3.0, 4.0), (3.0, 4.0)]) == pytest.approx(5.0)
    assert trajectory_length([(1.0, 1.0)]) == 0.0
    assert trajectory_length([]) == 0.0


def test_evaluate_localization_rmse_and_alignment_checks():
    poses = [(float(t), PoseSE3(np.eye(3), np.array([t, 0.0, 0.0]))) for t in range(5)]
    shifted = [
        (t, PoseSE3(p.rotation, p.translation + np.array([3.0, 0.0, 0.0]))) for t, p in poses
    ]
    assert evaluate_localization(poses, poses) == 0.0
    assert evaluate_localization(poses, shifted) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="lengths"):
        evaluate_localization(poses, shifted[:-1])
    mistimed = [(t + 0.5, p) for t, p in shifted]
    with pytest.raises(ValueError, match="timestamps"):
        evaluate_localization(poses, mistimed)


# ----------------------------------------------------- relocalization eval


def test_evaluate_relocalization_reports_and_pairing():
    scene = generate_scene(SceneSpec(area=(100.0, 100.0), n_clusters=30, seed=12))
    kwargs = dict(retentions=(1.0, 0.5), trials=3)
    reports = evaluate_relocalization(scene, **kwargs)
    again = evaluate_relocalization(scene, **kwargs)
    assert reports == again
    assert [r.retention for r in reports] == [1.0, 0.5]
    for report in reports:
        assert isinstance(report, EvalReport)
        assert report.trial_count == 3
        assert 0 <= report.success_count <= 3
        assert report.success_rate == report.success_count / 3
        assert report.distance_p50 <= report.distance_p90 <= report.distance_p95
        assert report.distance_p95 <= report.distance_p99 <= MAX_DISTANCE
    # a full map over a well-covered scene relocates without driving far
    assert reports[0].success_rate == 1.0
    assert reports[0].distance_p90 <= 10.0


def test_evaluate_relocalization_needs_a_trial():
    scene = generate_scene(SceneSpec(area=(100.0, 100.0), n_clusters=0, seed=0))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        evaluate_relocalization(scene, retentions=(1.0,), trials=0)


def test_evaluate_relocalization_censors_failed_trials_at_max_distance():
    scene = generate_scene(SceneSpec(area=(100.0, 100.0), n_clusters=0, seed=0))
    reports = evaluate_relocalization(scene, retentions=(1.0,), trials=4)
    report = reports[0]
    assert report.success_count == 0
    assert report.success_rate == 0.0
    # the study's one protocol censors at 120 m
    assert MAX_DISTANCE == 120.0
    assert report.distance_p50 == 120.0
    assert report.distance_p99 == 120.0
