import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from polemap import (
    AnchoredPose,
    ClusterMap,
    Frame,
    OdometryIncrement,
    PipelineConfig,
    PoseSE3,
    apply_global_fix,
    apply_increment,
    relocalize_frame,
    run_pipeline,
)
from polemap import localization
from polemap.localization import RENORM_PERIOD
from polemap.extraction import extract_clusters
from polemap.registration import build_local_map
from polemap.relocalization import TRACK_GATE, RelocalizationFailure, RelocResult, relocalize
from polemap.simulate import (
    DriftSpec,
    SceneSpec,
    SensorSpec,
    TrajectorySpec,
    generate_scene,
    simulate_run,
)
from polemap.evaluate import evaluate_localization, evaluate_relocalization
from polemap.geometry import rotation_about_z


def step(ts, dx=1.0, dyaw=0.0):
    return OdometryIncrement(ts, PoseSE3(rotation_about_z(dyaw), np.array([dx, 0.0, 0.0])))


def fix_at(pose):
    return RelocResult(pose=pose, inlier_pairs=(), residual_rms=0.0)


def test_output_composes_anchor_and_increments():
    anchor = PoseSE3(rotation_about_z(math.pi / 2), np.array([5.0, 0.0, 0.0]))
    state = AnchoredPose.start(anchor)
    assert np.allclose(state.output.as_matrix(), anchor.as_matrix())
    state = apply_increment(state, step(0.1))
    state = apply_increment(state, step(0.2))
    # two unit steps along body x, rotated into +y by the anchor
    assert np.allclose(state.output.translation, [5.0, 2.0, 0.0], atol=1e-12)
    assert state.last_timestamp == 0.2
    assert state.compose_count == 2


def test_increments_must_move_forward_in_time():
    state = apply_increment(AnchoredPose.start(PoseSE3.identity()), step(1.0))
    with pytest.raises(ValueError, match="out-of-order"):
        apply_increment(state, step(1.0))
    with pytest.raises(ValueError, match="out-of-order"):
        apply_increment(state, step(0.5))


def test_global_fix_at_latest_timestamp_replays_nothing():
    state = AnchoredPose.start(PoseSE3.identity())
    for k in range(1, 4):
        state = apply_increment(state, step(float(k)))
    target = PoseSE3(rotation_about_z(0.3), np.array([7.0, -1.0, 0.0]))
    fixed = apply_global_fix(state, fix_at(target), 3.0)
    assert fixed.output.as_matrix().tobytes() == target.as_matrix().tobytes()
    assert fixed.last_timestamp == 3.0
    assert fixed.compose_count == 0
    # later increments compose onto the new anchor
    moved = apply_increment(fixed, step(4.0))
    assert np.allclose(moved.output.translation, target.apply(np.array([1.0, 0.0, 0.0])))


def test_global_fix_cannot_lead_the_stream():
    state = apply_increment(AnchoredPose.start(PoseSE3.identity()), step(1.0))
    with pytest.raises(ValueError, match="ahead"):
        apply_global_fix(state, fix_at(PoseSE3.identity()), 2.0)


def test_global_fix_cannot_trail_the_stream():
    state = AnchoredPose.start(PoseSE3.identity())
    for k in range(1, 4):
        state = apply_increment(state, step(float(k)))
    with pytest.raises(ValueError, match="behind"):
        apply_global_fix(state, fix_at(PoseSE3.identity()), 2.0)


def test_rotation_stays_orthonormal_over_long_runs():
    state = AnchoredPose.start(PoseSE3.identity())
    for k in range(1, 5 * RENORM_PERIOD):
        state = apply_increment(state, step(float(k), dx=0.1, dyaw=0.013))
    assert state.output.is_valid()


def test_pipeline_config_rejects_bad_period():
    with pytest.raises(ValueError, match="reloc_period"):
        PipelineConfig(reloc_period=0.0)


def test_pipeline_rejects_mismatched_lengths():
    frames = [Frame(0.0, (), ()), Frame(0.5, (), ())]
    with pytest.raises(ValueError, match="one increment"):
        run_pipeline(frames, [], ClusterMap())


def _sim_setup(length=60.0, drift=None):
    scene = generate_scene(SceneSpec(area=(120.0, 120.0), n_clusters=45, seed=11))
    run = simulate_run(
        scene,
        TrajectorySpec(start=(15.0, 60.0), length=length),
        drift or DriftSpec(),
        SensorSpec(),
    )
    return scene, run


def test_pipeline_with_zero_drift_tracks_truth():
    scene, run = _sim_setup()
    result = run_pipeline(
        run.frames, run.increments, scene.cluster_map, initial_pose=run.initial_pose
    )
    rmse = evaluate_localization(run.true_poses, result.trajectory)
    assert rmse < 0.1
    assert result.attempts > 0


def test_pipeline_corrects_drifting_odometry():
    scene, run = _sim_setup(
        drift=DriftSpec(translational_drift=0.015, rotational_drift=0.03, noise_sigma=0.005, seed=3)
    )
    corrected = run_pipeline(
        run.frames, run.increments, scene.cluster_map, initial_pose=run.initial_pose
    )
    # no map, no fix: the odometry alone
    uncorrected = run_pipeline(
        run.frames, run.increments, ClusterMap(), initial_pose=run.initial_pose
    )
    rmse_fixed = evaluate_localization(run.true_poses, corrected.trajectory)
    rmse_raw = evaluate_localization(run.true_poses, uncorrected.trajectory)
    assert corrected.fixes_applied > 0
    assert rmse_fixed < 0.3
    assert rmse_raw > 3.0 * rmse_fixed


def test_pipeline_attempt_cadence():
    scene, run = _sim_setup(length=20.0)
    # 20 m at 5 m/s with 0.5 s frames: 9 frames spanning t=0..4, so a 2 s
    # period fires at t=0, 2 and 4
    assert len(run.frames) == 9
    result = run_pipeline(
        run.frames,
        run.increments,
        scene.cluster_map,
        initial_pose=run.initial_pose,
        config=PipelineConfig(reloc_period=2.0),
    )
    assert result.attempts == 3


def test_pipeline_against_empty_map_is_odometry_only():
    scene, run = _sim_setup(length=20.0)
    result = run_pipeline(
        run.frames, run.increments, ClusterMap(), initial_pose=run.initial_pose
    )
    assert result.attempts == len(run.frames)
    assert result.fixes_applied == 0
    assert {reason for _, reason in result.failures} <= {"no-clusters", "no-matches"}
    state = AnchoredPose.start(run.initial_pose)
    odometry = [state.output]
    for increment in run.increments:
        state = apply_increment(state, increment)
        odometry.append(state.output)
    assert [t for t, _ in result.trajectory] == [frame.timestamp for frame in run.frames]
    assert all(
        pose.as_matrix().tobytes() == want.as_matrix().tobytes()
        for (_, pose), want in zip(result.trajectory, odometry)
    )


def _spy_relocalize(monkeypatch):
    """Record each relocalize call of the localization module as
    (guided, path of the result or the failure reason)."""
    calls = []

    def spy(*args, guided=False):
        try:
            result = relocalize(*args, guided=guided)
        except RelocalizationFailure as exc:
            calls.append((guided, exc.reason))
            raise
        calls.append((guided, result.path))
        return result

    monkeypatch.setattr(localization, "relocalize", spy)
    return calls


def test_pipeline_tracks_with_the_gate_after_the_first_fix(monkeypatch):
    calls = _spy_relocalize(monkeypatch)
    scene, run = _sim_setup(length=20.0)
    result = run_pipeline(
        run.frames, run.increments, scene.cluster_map, initial_pose=run.initial_pose
    )
    # one relocalize call per attempt: the first prior-free, every later one
    # guided at the gate
    assert result.attempts == len(calls) == len(run.frames)
    assert result.fixes_applied == result.attempts
    assert calls == [(False, "star")] + [(True, "guided")] * (len(calls) - 1)
    # a guided cluster cannot reach its neighbour's landmark while the
    # estimate lies within the gate of the truth
    assert TRACK_GATE < SceneSpec().min_spacing / 2


def test_pipeline_stays_prior_free_until_a_fix(monkeypatch):
    # the edge drive starts outside the map: no fix, so no gate, until the
    # first landmarks come into view
    calls = _spy_relocalize(monkeypatch)
    scene, run = _edge_drive()
    result = run_pipeline(
        run.frames, run.increments, scene.cluster_map, initial_pose=run.initial_pose
    )
    first_fix = next(i for i, (_, outcome) in enumerate(calls) if outcome == "star")
    assert all(not guided for guided, _ in calls[: first_fix + 1])
    assert all(guided for guided, _ in calls[first_fix + 1:])
    # frames without a cluster never reach relocalize
    no_clusters = sum(reason == "no-clusters" for _, reason in result.failures)
    assert len(calls) == result.attempts - no_clusters


def test_pipeline_failure_makes_the_next_attempt_prior_free(monkeypatch):
    # The edge drive with a 2 s sensor blackout well after the first fix: the
    # blank frames fail with no-clusters, which drops the gate, so the vehicle
    # comes back onto the map with a prior-free attempt, as on first entry.
    calls = _spy_relocalize(monkeypatch)
    scene, run = _edge_drive()
    blackout = [i for i, frame in enumerate(run.frames) if 20.0 <= frame.timestamp < 22.0]
    frames = list(run.frames)
    for i in blackout:
        frames[i] = Frame(frames[i].timestamp, (), ())
    result = run_pipeline(frames, run.increments, scene.cluster_map, initial_pose=run.initial_pose)
    assert [f for f in result.failures if f[0] >= 15.5] == [
        (20.0, "no-clusters"), (20.5, "no-clusters"), (21.0, "no-clusters"), (21.5, "no-clusters")
    ]
    # the first fix is at 15.5 s; the eight attempts from 16.0 s to 19.5 s
    # each follow a fix, the first attempt after the blackout does not
    first_fix = calls.index((False, "star"))
    resumed = calls.index((False, "star"), first_fix + 1)
    assert calls[first_fix + 1: resumed] == [(True, "guided")] * 8
    assert len(calls) > resumed + 1
    assert calls[resumed + 1:] == [(True, "guided")] * (len(calls) - resumed - 1)


def test_relocalization_study_never_passes_the_gate(monkeypatch):
    calls = _spy_relocalize(monkeypatch)
    scene = generate_scene(SceneSpec(area=(120.0, 120.0), n_clusters=45, seed=11))
    evaluate_relocalization(scene, retentions=(1.0, 0.4), trials=2)
    assert calls and all(not guided for guided, _ in calls)


def test_pipeline_fix_removes_a_planted_offset():
    scene, run = _sim_setup(length=20.0)
    # a teleported start 42 m off: every fix is applied, however far it jumps
    shifted = PoseSE3(
        run.initial_pose.rotation, run.initial_pose.translation + np.array([30.0, 30.0, 0.0])
    )
    result = run_pipeline(
        run.frames,
        run.increments,
        scene.cluster_map,
        initial_pose=shifted,
    )
    assert result.fixes_applied > 0
    # the first applied fix removes the planted offset for the rest of the run
    final = result.trajectory[-1][1].translation
    truth = run.true_poses[-1][1].translation
    assert np.linalg.norm(final - truth) < 1.0


def _edge_drive():
    """The golden 160 m scene entered from 80 m outside its west edge, so a
    45 m sensor sees no landmark in the first frames."""
    scene = generate_scene(SceneSpec(area=(160.0, 160.0), n_clusters=70, seed=7))
    run = simulate_run(
        scene,
        TrajectorySpec(start=(-80.0, 80.0), length=150.0),
        DriftSpec(translational_drift=0.01, noise_sigma=0.004, seed=4),
        SensorSpec(radius=45.0),
    )
    return scene, run


def test_pipeline_reports_each_failure_reason():
    scene, run = _edge_drive()
    result = run_pipeline(
        run.frames, run.increments, scene.cluster_map, initial_pose=run.initial_pose
    )
    assert (result.attempts, result.fixes_applied) == (61, 30)
    assert Counter(reason for _, reason in result.failures) == {"no-clusters": 17, "no-matches": 14}
    assert result.failures[:3] == ((0.0, "no-clusters"), (0.5, "no-clusters"), (1.0, "no-clusters"))


def test_relocalize_frame_returns_the_global_vehicle_pose():
    scene, run = _sim_setup(length=20.0)
    frame = run.frames[4]
    truth = run.true_poses[4][1]
    estimate = PoseSE3(truth.rotation, truth.translation + np.array([0.8, -0.5, 0.0]))
    fix = relocalize_frame(frame, estimate, scene.cluster_map)
    local_map = build_local_map(extract_clusters(frame), estimate)
    result = relocalize(local_map, scene.cluster_map)
    assert fix.pose.as_matrix().tobytes() == (result.pose @ estimate).as_matrix().tobytes()
    assert fix.inlier_pairs == result.inlier_pairs
    assert fix.residual_rms == result.residual_rms
    assert np.linalg.norm(fix.pose.translation - truth.translation) < 0.2


def test_relocalize_frame_without_clusters_fails():
    with pytest.raises(RelocalizationFailure) as failure:
        relocalize_frame(Frame(0.0, (), ()), PoseSE3.identity(), ClusterMap())
    assert failure.value.reason == "no-clusters"


def test_pipeline_trajectory_timestamps_match_frames():
    scene, run = _sim_setup(length=20.0)
    result = run_pipeline(
        run.frames, run.increments, scene.cluster_map, initial_pose=run.initial_pose
    )
    assert [t for t, _ in result.trajectory] == [f.timestamp for f in run.frames]


@pytest.mark.parametrize("empty_map", [True, False], ids=["empty-map", "scene-map"])
@pytest.mark.parametrize("first", [0, 3])
def test_pipeline_rejects_increments_off_the_frame_timestamps(empty_map, first):
    # a fix lands at the newest increment, so increments[i-1] must carry
    # frames[i]'s timestamp; the check comes before any attempt, with either map
    scene, run = _sim_setup(length=20.0)
    increments = list(run.increments)
    for i in range(first, len(increments)):
        increments[i] = replace(increments[i], timestamp=increments[i].timestamp + 0.25)
    global_map = ClusterMap() if empty_map else scene.cluster_map
    expected = rf"increments\[{first}\]\.timestamp .* differs from frames\[{first + 1}\]"
    with pytest.raises(ValueError, match=expected):
        run_pipeline(run.frames, increments, global_map, initial_pose=run.initial_pose)
