import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import polemap
from polemap import POLE, ClusterMap, DatasetError
from polemap.cli import main
from polemap.dataset_io import Dataset, load_poses, read_point_file, save_poses, write_point_file
from polemap.map_io import load_map, save_map

CONFIG_TEXT = """
# compact deterministic scenario for CLI tests
scene.width = 120.0
scene.height = 120.0
scene.n_clusters = 40
scene.seed = 21
trajectory.start_x = 15.0
trajectory.start_y = 60.0
trajectory.length = 40.0
drift.translational_drift = 0.01
drift.noise_sigma = 0.003
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG_TEXT, encoding="ascii")
    data = root / "data"
    code = main(["simulate", "--out", str(data), "--config", str(cfg)])
    assert code == 0
    return root


def test_simulate_lays_out_a_dataset(workspace, capsys):
    data = workspace / "data"
    assert (data / "points").is_dir()
    assert (data / "labels").is_dir()
    assert (data / "poses.txt").is_file()
    assert (data / "odometry.txt").is_file()
    assert (data / "map.txt").is_file()
    assert len(load_poses(data / "poses.txt")) == 17
    # drift separates the odometry track from the truth
    truth = load_poses(data / "poses.txt")
    odom = load_poses(data / "odometry.txt")
    gap = np.linalg.norm(truth[-1][1].translation - odom[-1][1].translation)
    assert gap > 0.05


def test_build_map_from_dataset(workspace, capsys):
    data = workspace / "data"
    out = workspace / "built.txt"
    code = main(
        ["build-map", "--data", str(data), "--out", str(out), "--config", str(workspace / "run.cfg")]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("clusters ")
    built = load_map(out)
    reference = load_map(data / "map.txt")
    assert len(built) > 0.5 * len(reference)


def test_relocalize_identity_between_overlapping_maps(workspace, capsys):
    data = workspace / "data"
    piece = workspace / "piece.txt"
    code = main(
        [
            "build-map",
            "--data",
            str(data),
            "--out",
            str(piece),
            "--frames",
            "4:12",
            "--config",
            str(workspace / "run.cfg"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["relocalize", "--local", str(piece), "--map", str(data / "map.txt")])
    captured = capsys.readouterr()
    assert code == 0
    record = json.loads(captured.out)
    assert record["inliers"] >= 3
    assert record["residual_rms"] < 0.5
    # both maps live in the same world frame, so the alignment is identity
    assert np.linalg.norm(record["translation"]) < 0.5


def test_relocalize_failure_exits_4(workspace, capsys):
    sparse = ClusterMap()
    for k, x in enumerate((0.0, 200.0, 400.0)):
        sparse.add(POLE, [(x + dx, 0.0, 1.0) for dx in (0.0, 0.05, -0.05)])
    path = workspace / "sparse.txt"
    save_map(sparse, path)
    code = main(["relocalize", "--local", str(path), "--map", str(workspace / "data" / "map.txt")])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out) == {"failure": "no-matches"}


def test_localize_corrects_odometry(workspace, capsys):
    data = workspace / "data"
    out = workspace / "trajectory.txt"
    code = main(
        ["localize", "--data", str(data), "--map", str(data / "map.txt"), "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("fixes ")
    rmse = float(lines[1].split()[1])
    assert rmse < 0.3
    assert len(load_poses(out)) == 17


def test_evaluate_localization_mode(workspace, capsys):
    data = workspace / "data"
    out = workspace / "loc.csv"
    code = main(
        [
            "evaluate",
            "--mode",
            "loc",
            "--data",
            str(data),
            "--map",
            str(data / "map.txt"),
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    rows = dict(
        line.split(",") for line in out.read_text(encoding="ascii").strip().split("\n")[1:]
    )
    assert float(rows["rmse_pipeline"]) < float(rows["rmse_odometry"])
    assert int(rows["fixes"]) > 0
    assert captured.out.startswith("metric,value")


def test_evaluate_relocalization_mode(workspace, capsys):
    code = main(
        [
            "evaluate",
            "--mode",
            "reloc",
            "--config",
            str(workspace / "run.cfg"),
            "--retentions",
            "1.0",
            "--trials",
            "2",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("retention,trials")
    fields = lines[1].split(",")
    assert fields[0] == "1.0"
    assert fields[1] == "2"


def test_evaluate_loc_mode_requires_data_and_map(capsys):
    code = main(["evaluate", "--mode", "loc"])
    captured = capsys.readouterr()
    assert code == 3
    assert "needs --data and --map" in captured.err


def test_config_subcommand_shows_effective_values(workspace, capsys):
    code = main(["config", "--config", str(workspace / "run.cfg")])
    captured = capsys.readouterr()
    assert code == 0
    assert "scene.n_clusters = 40" in captured.out
    assert "association.search_radius = 50.0" in captured.out


BUILD_MAP = ["build-map", "--data", "{data}", "--out", "{out}"]
EVALUATE_RELOC = ["evaluate", "--mode", "reloc", "--config", "{config}"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-command"),
        pytest.param(["simulate", "--no-such-flag"], id="unknown-flag"),
        # simulate always writes its map to OUT/map.txt
        pytest.param(["simulate", "--out", "{out}", "--map", "{out}"], id="removed-simulate-map"),
        pytest.param(BUILD_MAP + ["--frames", "a:b"], id="frames-not-integers"),
        pytest.param(BUILD_MAP + ["--frames", "5"], id="frames-without-colon"),
        pytest.param(EVALUATE_RELOC + ["--retentions", "1.0,abc"], id="retention-not-a-number"),
        pytest.param(EVALUATE_RELOC + ["--retentions", "1.5"], id="retention-above-1"),
        pytest.param(EVALUATE_RELOC + ["--retentions", ""], id="retentions-empty"),
        pytest.param(EVALUATE_RELOC + ["--trials", "0"], id="trials-0"),
        pytest.param(EVALUATE_RELOC + ["--trials", "-1"], id="trials-negative"),
        pytest.param(EVALUATE_RELOC + ["--trials", "abc"], id="trials-not-an-integer"),
    ],
)
def test_usage_errors_exit_2(workspace, tmp_path, capsys, argv):
    paths = {
        "data": workspace / "data",
        "out": tmp_path / "x.txt",
        "config": workspace / "run.cfg",
    }
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert "usage: polemap" in capsys.readouterr().err


def test_data_errors_exit_3(workspace, tmp_path, capsys):
    code = main(["build-map", "--data", str(tmp_path / "nowhere"), "--out", "x.txt"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")
    code = main(
        [
            "build-map",
            "--data",
            str(workspace / "data"),
            "--out",
            str(tmp_path / "x.txt"),
            "--frames",
            "10:99",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "out of bounds" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["build-map", "--data", "{data}", "--out", "{missing}/x.txt"], id="build-map"),
        pytest.param(["localize", "--data", "{data}", "--map", "{map}", "--out", "{missing}/x.txt"],
                     id="localize"),
        pytest.param(["evaluate", "--mode", "loc", "--data", "{data}", "--map", "{map}",
                      "--out", "{missing}/x.csv"], id="evaluate-loc"),
        # the default 50 trials per retention would run for minutes before writing
        pytest.param(["evaluate", "--mode", "reloc", "--out", "{missing}/x.csv"],
                     id="evaluate-reloc"),
        pytest.param(["simulate", "--out", "{file}/x"], id="simulate"),
    ],
)
def test_unwritable_output_exits_3_before_any_work(workspace, tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("generate_scene", "extract_clusters", "run_pipeline", "load_map"):
        monkeypatch.setattr(f"polemap.cli.{name}", no_work)
    (tmp_path / "file").write_text("", encoding="ascii")
    paths = {
        "data": workspace / "data",
        "map": workspace / "data" / "map.txt",
        "missing": tmp_path / "missing",
        "file": tmp_path / "file",
    }
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")
    assert "is not a directory" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_failed_write_exits_3(workspace, tmp_path, capsys):
    # the parent exists, but the output path is itself a directory
    code = main(["build-map", "--data", str(workspace / "data"), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")
    assert str(tmp_path) in captured.err


@pytest.mark.parametrize("shift", [-0.25, 0.25])
def test_odometry_timestamps_must_match_poses(workspace, tmp_path, capsys, shift):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    odometry = load_poses(data / "odometry.txt")
    ts, pose = odometry[3]
    odometry[3] = (ts + shift, pose)
    save_poses(data / "odometry.txt", odometry)
    out = tmp_path / "trajectory.txt"
    code = main(["localize", "--data", str(data), "--map", str(data / "map.txt"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {data}: odometry.txt timestamps differ from poses.txt\n"


def test_localize_without_odometry_exits_3(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    (data / "odometry.txt").unlink()
    out = tmp_path / "trajectory.txt"
    code = main(["localize", "--data", str(data), "--map", str(data / "map.txt"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {data}: no odometry.txt\n"
    assert not out.exists()


# Both commands replay a dataset through cli._run_localization.
localization_commands = pytest.mark.parametrize(
    "command", [["localize"], ["evaluate", "--mode", "loc"]], ids=["localize", "evaluate-loc"]
)


@localization_commands
def test_dataset_without_frames_exits_3(workspace, tmp_path, capsys, command):
    data = tmp_path / "empty"
    for name in ("points", "labels"):
        (data / name).mkdir(parents=True)
    for name in ("poses.txt", "odometry.txt"):
        (data / name).write_text("", encoding="ascii")
    out = tmp_path / "out.txt"
    code = main([*command, "--data", str(data), "--map", str(workspace / "data" / "map.txt"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {data}: no frames\n"
    assert not out.exists()


# Frames are decoded as the pipeline reaches them: the one being tracked and
# the one being decoded are the most that are ever alive together.
@localization_commands
def test_localization_holds_at_most_two_decoded_frames(workspace, tmp_path, capsys,
                                                       monkeypatch, command):
    decode = Dataset.frame
    decoded = []
    most = 0

    def spy(self, *args):
        nonlocal most
        frame = decode(self, *args)
        decoded.append(weakref.ref(frame))
        most = max(most, sum(ref() is not None for ref in decoded))
        return frame

    monkeypatch.setattr(Dataset, "frame", spy)
    data = workspace / "data"
    code = main([*command, "--data", str(data), "--map", str(data / "map.txt"),
                 "--out", str(tmp_path / "out.txt")])
    capsys.readouterr()
    assert code == 0
    assert len(decoded) == Dataset(data).frame_count
    assert most <= 2


def test_short_odometry_rejected(workspace, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    save_poses(data / "odometry.txt", load_poses(data / "odometry.txt")[:-1])
    with pytest.raises(DatasetError) as exc:
        Dataset(data).odometry()
    assert str(exc.value) == f"{data}/odometry.txt: 16 poses for 17 frames"


def test_non_finite_point_file_exits_3(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    point_file = data / "points" / "000003.bin"
    points = read_point_file(point_file)
    points[0, 1] = np.nan
    write_point_file(point_file, points)
    code = main(["build-map", "--data", str(data), "--out", str(tmp_path / "x.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {point_file}: non-finite point coordinate\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_map_centroid_exits_3(workspace, tmp_path, capsys, value):
    path = tmp_path / "bad.txt"
    path.write_text(
        "polemap-map 1\nlabels pole=5 trunk=6\n"
        "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 1\n"
        f"cluster 1 trunk {value} 2.0 0.5 {value} 2.0 1\n",
        encoding="ascii",
    )
    code = main(["relocalize", "--local", str(path), "--map", str(workspace / "data" / "map.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {path}:4: non-finite centroid\n"


def test_map_centroid_beyond_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(
        "polemap-map 2\nlabels pole=5 trunk=6\n"
        "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 1 1\n"
        "cluster 1 trunk 1e308 2.0 0.5 1e308 2.0 1 1\n",
        encoding="ascii",
    )
    code = main(["relocalize", "--local", str(path), "--map", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {path}:4: centroid beyond 1e+09 m\n"


@pytest.mark.parametrize("cid", ["-1", "99999999999999999999"])
def test_map_cluster_id_int64_cannot_hold_exits_3(tmp_path, capsys, cid):
    # -1 would read as "no cluster" to lookups, and a larger id than int64
    # holds used to end relocalize in an OverflowError traceback
    path = tmp_path / "ids.txt"
    path.write_text(
        "polemap-map 2\nlabels pole=5 trunk=6\n"
        "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 1 1\n"
        f"cluster {cid} trunk 4.0 2.0 0.5 4.0 2.0 1 1\n",
        encoding="ascii",
    )
    code = main(["relocalize", "--local", str(path), "--map", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {path}: cluster id {cid} outside 0 to {2**63 - 2}\n"


def test_non_finite_map_sidecar_exits_3(workspace, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    shutil.copy(workspace / "data" / "map.txt", path)
    raw = np.fromfile(workspace / "data" / "map.txt.points", dtype="<f4")
    raw[7] = np.inf
    sidecar = tmp_path / "bad.txt.points"
    raw.tofile(sidecar)
    code = main(["relocalize", "--local", str(path), "--map", str(workspace / "data" / "map.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {sidecar}: non-finite point coordinate\n"


@pytest.mark.parametrize(
    "key",
    ["pipeline.reloc_enabled", "pipeline.max_fix_jump", "reloc.ransac_first", "reloc.seed",
     "registration.strict_labels"],
)
def test_removed_config_key_exits_3(tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 1\n", encoding="ascii")
    code = main(["config", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {cfg}:1: unknown key {key!r}\n"


def _set_pose_field(path, lineno, index, value):
    lines = path.read_text(encoding="ascii").split("\n")
    fields = lines[lineno - 1].split()
    fields[index] = value
    lines[lineno - 1] = " ".join(fields)
    path.write_text("\n".join(lines), encoding="ascii")


@pytest.mark.parametrize(
    "command, name, index, value, error",
    [
        ("build-map", "poses.txt", 1, "nan", "non-finite field"),
        ("build-map", "poses.txt", 4, "nan", "non-finite field"),
        ("build-map", "poses.txt", 1, "inf", "non-finite field"),
        ("build-map", "poses.txt", 0, "0.0", "timestamp 0.0 does not increase"),
        ("localize", "poses.txt", 1, "nan", "non-finite field"),
        ("localize", "poses.txt", 0, "0.0", "timestamp 0.0 does not increase"),
        ("localize", "odometry.txt", 4, "nan", "non-finite field"),
        ("localize", "odometry.txt", 0, "0.0", "timestamp 0.0 does not increase"),
        ("build-map", "poses.txt", 1, "1e308", "translation beyond 1e+09 m"),
        ("localize", "odometry.txt", 1, "1e308", "translation beyond 1e+09 m"),
    ],
    ids=["build-map-nan-translation", "build-map-nan-quaternion", "build-map-inf-translation",
         "build-map-repeated-timestamp", "localize-nan-translation",
         "localize-repeated-timestamp", "localize-odometry-nan-quaternion",
         "localize-odometry-repeated-timestamp", "build-map-huge-translation",
         "localize-odometry-huge-translation"],
)
def test_bad_pose_file_exits_3(workspace, tmp_path, capsys, command, name, index, value, error):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    _set_pose_field(data / name, 2, index, value)
    out = str(tmp_path / "out.txt")
    if command == "build-map":
        argv = ["build-map", "--data", str(data), "--out", out]
    else:
        argv = ["localize", "--data", str(data), "--map", str(data / "map.txt"), "--out", out]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {data / name}:2: {error}\n"


def test_non_finite_config_value_exits_3(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("trajectory.length = inf\n", encoding="ascii")
    code = main(["simulate", "--out", str(tmp_path / "data"), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: {cfg}:1: bad value for trajectory.length")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "text, command, error",
    [
        ("scene.width = -5", ["simulate", "--out", "data"],
         "error: {cfg}: scene width and height must lie in (0, 1e+09]"),
        # two landmarks cannot be 1e9 m apart inside the default area
        ("scene.n_clusters = 2\nscene.min_spacing = 1e9", ["simulate", "--out", "data"],
         "error: scene spec infeasible: placed 1 of 2 clusters"),
        ("scene.n_clusters = 2\nscene.min_spacing = 1e9", ["evaluate", "--mode", "reloc"],
         "error: scene spec infeasible: placed 1 of 2 clusters"),
    ],
    ids=["negative-width", "infeasible-simulate", "infeasible-evaluate"],
)
def test_impossible_scene_exits_3(tmp_path, capsys, monkeypatch, text, command, error):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(text + "\n", encoding="ascii")
    code = main([*command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(error.format(cfg=cfg))
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "text, error",
    [
        ("sensor.radius = -60", "sensor radius must lie in (0, 1e+09]"),
        ("sensor.label_flip_rate = 1.5", "label_flip_rate must lie in [0, 1]"),
        ("sensor.clutter_points = -5", "clutter_points must lie in [0, 100000]"),
        ("scene.point_noise_sigma = -0.03", "point_noise_sigma must be non-negative"),
        ("drift.noise_sigma = -1", "noise_sigma must lie in [0, 1e+09]"),
        # values that would overflow the drive's arithmetic
        ("drift.rotational_drift = 1e308", "rotational_drift must lie in [-360, 360]"),
        ("drift.translational_drift = 1e308", "translational_drift must lie in [-1, 1]"),
        ("drift.noise_sigma = 1e308", "noise_sigma must lie in [0, 1e+09]"),
        ("trajectory.start_x = 1e308", "trajectory start must lie in [-1e+09, 1e+09]"),
    ],
    ids=["radius", "flip-rate", "clutter", "point-noise", "drift-noise", "rotational-drift",
         "translational-drift", "drift-noise-overflow", "start-overflow"],
)
def test_bad_simulator_spec_exits_3(tmp_path, capsys, text, error):
    # the config load refuses each value before numpy could warn
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("trajectory.length = 20.0\n" + text + "\n", encoding="ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--out", str(tmp_path / "data"), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {cfg}: {error}\n"
    assert not (tmp_path / "data").exists()


# Values that once ran out of memory or time, raised OverflowError on
# squaring, or made the heading infinite (ValueError from math.cos); each
# must stop at its bound while the config loads, before any allocation or
# loop.
@pytest.mark.parametrize(
    "text, command, error",
    [
        ("trajectory.speed = 1e-12", ["simulate", "--out", "data"],
         "trajectory needs more than 100000 frames"),
        ("trajectory.frame_period = 1e-12", ["simulate", "--out", "data"],
         "trajectory needs more than 100000 frames"),
        ("scene.points_per_cluster = 1000000000", ["simulate", "--out", "data"],
         "points_per_cluster must lie in [1, 10000]"),
        ("sensor.clutter_points = 1000000000", ["simulate", "--out", "data"],
         "clutter_points must lie in [0, 100000]"),
        ("reloc.ransac_iterations = 1000000000", ["evaluate", "--mode", "reloc", "--trials", "1"],
         "ransac_iterations must lie in [1, 10000]"),
        ("scene.width = 1e300", ["simulate", "--out", "data"],
         "scene width and height must lie in (0, 1e+09]"),
        ("scene.height = 1e300", ["simulate", "--out", "data"],
         "scene width and height must lie in (0, 1e+09]"),
        ("sensor.radius = 1e300", ["simulate", "--out", "data"],
         "sensor radius must lie in (0, 1e+09]"),
        ("sensor.radius = 1e300", ["evaluate", "--mode", "reloc", "--trials", "1"],
         "sensor radius must lie in (0, 1e+09]"),
        ("scene.n_clusters = 1000000000", ["simulate", "--out", "data"],
         "n_clusters must lie in [0, 2500]"),
        ("trajectory.turn_rate_deg_per_m = 1e308", ["simulate", "--out", "data"],
         "turn_rate_deg_per_m must lie in [-360, 360]"),
        ("trajectory.turn_rate_deg_per_m = 1\ntrajectory.speed = 1e308\n"
         "trajectory.frame_period = 10", ["simulate", "--out", "data"],
         "speed must lie in (0, 1e+09]"),
        ("scene.n_clusters = 2500\nscene.points_per_cluster = 10000\n"
         "scene.width = 3000\nscene.height = 3000", ["simulate", "--out", "data"],
         "scene needs more than 2000000 points"),
    ],
    ids=["speed", "frame-period", "points-per-cluster", "clutter-points", "ransac-iterations",
         "scene-width", "scene-height", "sensor-radius-simulate", "sensor-radius-evaluate",
         "n-clusters", "turn-rate", "huge-speed", "scene-points"],
)
def test_oversized_work_exits_3(tmp_path, capsys, monkeypatch, text, command, error):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text + "\n", encoding="ascii")
    code = main([*command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: {cfg}: {error}")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "text, error",
    [
        ("reloc.consistency_tolerance = -1", "consistency_tolerance must be positive"),
        ("reloc.ransac_threshold = 0", "ransac_threshold must be positive"),
        ("reloc.icp_max_iterations = -5", "icp_max_iterations must be non-negative"),
    ],
    ids=["consistency-tolerance", "ransac-threshold", "icp-iterations"],
)
def test_reloc_value_that_disables_relocalization_exits_3(workspace, tmp_path, capsys, text, error):
    cfg = tmp_path / "reloc.cfg"
    cfg.write_text(text + "\n", encoding="ascii")
    out = tmp_path / "est.txt"
    data = workspace / "data"
    code = main(["localize", "--data", str(data), "--map", str(data / "map.txt"),
                 "--out", str(out), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {cfg}: {error}\n"
    assert not out.exists()


def test_bad_observed_count_exits_3(workspace, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("polemap-map 2\nlabels pole=5 trunk=6\n"
                    "cluster 0 pole 1.0 2.0 0.5 1.0 2.0 4 3\n", encoding="ascii")
    code = main(["relocalize", "--local", str(path), "--map", str(workspace / "data" / "map.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: {path}:3: observed count must lie in npoints")


# README demo config on a 40 m drive. The digests pin the bytes that
# simulate, build-map and localize write, and the stdout of relocalizing the
# built map in the simulated one; any change to them is a change of output
# that needs its own justification.
GOLDEN_CONFIG = """
scene.width = 160.0
scene.height = 160.0
scene.n_clusters = 70
scene.seed = 7
trajectory.start_x = 20.0
trajectory.start_y = 80.0
trajectory.length = 40.0
drift.translational_drift = 0.01
drift.noise_sigma = 0.004
drift.seed = 7
"""
GOLDEN_SHA256 = {
    "data/map.txt": "9a6b1b8203547df1f4557e1314352f2e7da011862435c22c0946393161b25aa8",
    "data/map.txt.points": "a95d5350bcd29396d903b990399701c95a3c20663ed39053cd2ad2b72bbc196b",
    "built.txt": "facdb537e75809ae264a43bc154eb6b76416ab7c2a1a0820474bd70dc5dc7b80",
    "built.txt.points": "eddd84b20c58bb77ec8d36718151fe5c1e9d9f8690efdac0d84f328010a73446",
    "estimated.txt": "711431271e1abed24ff7233b29a86e3ad929661144e454660682e5757aad4d38",
}
GOLDEN_RELOCALIZE_SHA256 = "37d01b6c4297e023395dbbcba8b8c8425f1f97a5e4d0392bd8ea8849b93a395f"
# The distance-to-relocalize study on the same scene, four trials per
# retention; at 0.25 every trial is censored at the drive's maximum distance.
GOLDEN_EVALUATE_SHA256 = "9d87fcb4bb0a1f2168e379f35fc7ca2dcdbd2edcad8b26a332b396e450e77f5a"


def test_outputs_are_byte_exact(tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CONFIG, encoding="ascii")
    data, built, estimated = tmp_path / "data", tmp_path / "built.txt", tmp_path / "estimated.txt"
    assert main(["simulate", "--out", str(data), "--config", str(cfg)]) == 0
    assert main(["build-map", "--data", str(data), "--out", str(built), "--config", str(cfg)]) == 0
    assert main(["localize", "--data", str(data), "--map", str(built), "--out", str(estimated),
                 "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "frames 17", "clusters 70", "length 40.000",
        "clusters 37", "density 0.925000",
        "fixes 17 attempts 17", "rmse 0.034145", "",
    ]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
    assert main(["relocalize", "--local", str(built), "--map", str(data / "map.txt"),
                 "--config", str(cfg)]) == 0
    relocalized = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(relocalized).hexdigest() == GOLDEN_RELOCALIZE_SHA256


# sha256 over every file that simulate writes (relative path, NUL, bytes,
# NUL, in path order), recorded before landmark radii and vertical drift
# existed. The second config also turns, flips labels, adds clutter and
# drifts in yaw, so every random stream of the simulator is drawn.
BUSY_CONFIG = GOLDEN_CONFIG + """drift.rotational_drift = 0.005
sensor.label_flip_rate = 0.05
sensor.clutter_points = 20
trajectory.turn_rate_deg_per_m = 0.6
"""
ZERO_EXTENSIONS = "scene.pole_radius = 0.0\nscene.trunk_radius = 0.0\ndrift.vertical_drift = 0.0\n"
# The cylinder config CI simulates and localizes: both radii above 0, so
# scans draw the facing half of each ring, and vertical drift. Its digest was
# recorded while sensor_frame still drew, posed and labeled one landmark at
# a time.
CYLINDER_CONFIG = GOLDEN_CONFIG + """scene.pole_radius = 0.1
scene.trunk_radius = 0.25
drift.vertical_drift = 0.002
"""


def _simulate_digest(tmp_path, text):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text, encoding="ascii")
    data = tmp_path / "data"
    assert main(["simulate", "--out", str(data), "--config", str(cfg)]) == 0
    total = hashlib.sha256()
    for path in sorted(p for p in data.rglob("*") if p.is_file()):
        total.update(path.relative_to(data).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return total.hexdigest()


@pytest.mark.parametrize("text, digest", [
    (GOLDEN_CONFIG, "2f765294b112928cba606275389267f65e0624659af03f00f4af98d8d9db7a35"),
    (BUSY_CONFIG, "0f149616c2230a3ec5b05a1f7049348074fcd99f4af736a7fa395db7f1aec3d9"),
], ids=["golden", "busy"])
def test_zero_radius_and_vertical_drift_simulate_as_before(tmp_path, capsys, text, digest):
    assert _simulate_digest(tmp_path, text + ZERO_EXTENSIONS) == digest


def test_cylinder_simulate_is_byte_exact(tmp_path, capsys):
    digest = "a573ba8eb3d85cdd1b4d1719aea8994fd3e0c5ec12429cea5bc4339d0b7ecb0c"
    assert _simulate_digest(tmp_path, CYLINDER_CONFIG) == digest


def test_build_map_from_odometry_poses(tmp_path, capsys):
    # The README demo dataset: the full 120 m drive of GOLDEN_CONFIG's scene.
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOLDEN_CONFIG.replace("trajectory.length = 40.0", "trajectory.length = 120.0"),
                   encoding="ascii")
    data = tmp_path / "data"
    assert main(["simulate", "--out", str(data), "--config", str(cfg)]) == 0
    capsys.readouterr()
    densities = []
    for track in ("poses", "odometry"):
        out = tmp_path / f"{track}.txt"
        assert main(["build-map", "--data", str(data), "--out", str(out), "--config", str(cfg),
                     "--poses", track]) == 0
        densities.append(capsys.readouterr().out)
    # the drifting track's length, not the truth's, divides the cluster count
    assert densities == ["clusters 57\ndensity 0.475000\n", "clusters 57\ndensity 0.470412\n"]
    (data / "odometry.txt").unlink()
    out = tmp_path / "none.txt"
    code = main(["build-map", "--data", str(data), "--out", str(out), "--config", str(cfg),
                 "--poses", "odometry"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {data}: no odometry.txt\n"
    assert not out.exists()


def test_relocalization_study_output_is_byte_exact(tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CONFIG, encoding="ascii")
    assert main(["evaluate", "--mode", "reloc", "--trials", "4", "--retentions", "1.0,0.4,0.25",
                 "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.split("\n")[-2] == "0.25,4,0,0.0000,120.000,120.000,120.000,120.000,0.036000"
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GOLDEN_EVALUATE_SHA256


def test_config_output_is_byte_exact(tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CONFIG, encoding="ascii")
    digests = []
    for extra in ([], ["--config", str(cfg)]):
        assert main(["config", *extra]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest())
    assert digests == [
        "2b5abab8eea6172d791f61e1da832c4a834a70fd3e71f54bbe4e60d5f00e4465",
        "c30eecef1e09c804e93756082c815d3d1dec2e562e979c16ff106c4badb89637",
    ]


def test_build_map_refuses_a_map_its_reader_rejects(tmp_path, capsys):
    # GOLDEN_CONFIG's 40 m drive moved to within 80 m of the 1e9 m limit:
    # every pose loads, but the landmarks seen ahead lie beyond it
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CONFIG, encoding="ascii")
    data, out = tmp_path / "data", tmp_path / "far.txt"
    assert main(["simulate", "--out", str(data), "--config", str(cfg)]) == 0
    capsys.readouterr()
    lines = []
    for line in (data / "poses.txt").read_text(encoding="ascii").splitlines():
        fields = line.split()
        fields[1] = repr(float(fields[1]) + 1e9 - 80.0)
        lines.append(" ".join(fields) + "\n")
    (data / "poses.txt").write_text("".join(lines), encoding="ascii")
    code = main(["build-map", "--data", str(data), "--out", str(out), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert re.fullmatch(rf"error: {re.escape(str(out))}: cluster \d+: centroid beyond 1e\+09 m\n",
                        captured.err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "golden.cfg"]


@pytest.mark.parametrize(
    "lines, error",
    [
        # landmark members scattered 1e10 m: the frames fit float32, the map does not
        (["scene.point_noise_sigma = 1e10"],
         r"data/map\.txt: cluster \d+: centroid beyond 1e\+09 m"),
        # a start within the config's range, driven past the limit
        (["trajectory.start_x = 999999970.0"],
         r"data/poses\.txt: pose 13: translation beyond 1e\+09 m"),
        # the drive stays within the limit, its doubled odometry does not
        (["trajectory.start_x = 999999940.0", "drift.translational_drift = 1.0"],
         r"data/odometry\.txt: pose 13: translation beyond 1e\+09 m"),
    ],
    ids=["scene-beyond-limit", "drive-beyond-limit", "odometry-beyond-limit"],
)
def test_simulate_refuses_files_its_readers_reject(tmp_path, capsys, lines, error):
    # every file is checked before the first is written, so none is left behind
    cfg = tmp_path / "far.cfg"
    text = GOLDEN_CONFIG
    for line in lines:
        key = line.split(" = ")[0]
        text = re.sub(rf"^{re.escape(key)} = .*$", line, text, flags=re.M)
        text = text if line in text else text + line + "\n"
    cfg.write_text(text, encoding="ascii")
    code = main(["simulate", "--out", str(tmp_path / "data"), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert re.fullmatch(rf"error: {re.escape(str(tmp_path))}/{error}\n", captured.err)
    assert not (tmp_path / "data").exists()


# Runs in a fresh interpreter: each step's exit code and the scipy.spatial
# modules loaded after it.
COLD_START = """
import contextlib, io, json, sys

def spatial():
    return sorted(m for m in sys.modules if m == "scipy.spatial" or m.startswith("scipy.spatial."))

cfg, bad, out, report = sys.argv[1:]
steps = []
import polemap.cli
steps.append(["import", 0, spatial()])
for name, argv in [("config", ["config"]), ("config-error", ["config", "--config", bad]),
                   ("simulate", ["simulate", "--out", out, "--config", cfg])]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = polemap.cli.main(argv)
    steps.append([name, code, spatial()])
with open(report, "w", encoding="ascii") as handle:
    json.dump(steps, handle)
"""


def test_commands_that_build_no_kdtree_never_import_scipy_spatial(tmp_path):
    cfg, bad = tmp_path / "golden.cfg", tmp_path / "bad.cfg"
    cfg.write_text(GOLDEN_CONFIG, encoding="ascii")
    bad.write_text("reloc.seed = 0\n", encoding="ascii")
    report = tmp_path / "report.json"
    src = str(Path(polemap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", COLD_START, str(cfg), str(bad), str(tmp_path / "data"),
                    str(report)], env=env, check=True, timeout=120)
    assert json.loads(report.read_text(encoding="ascii")) == [
        ["import", 0, []], ["config", 0, []], ["config-error", 3, []], ["simulate", 0, []],
    ]
    assert len(load_poses(tmp_path / "data" / "poses.txt")) == 17
