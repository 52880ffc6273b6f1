"""Command line front end.

Subcommands cover the whole workflow: simulate a dataset, build a cluster map
from labeled frames, relocalize one map inside another, run the online
localization pipeline, and batch-evaluate either stage.

Exit codes: 0 success, 2 usage, 3 bad input data or an unwritable output, 4
relocalization failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cluster_map import ClusterMap
from .config import Config, default_config, dump_config, load_config
from .dataset_io import Dataset, save_poses, write_dataset, write_files
from .errors import ConfigError, PolemapError
from .evaluate import (
    cluster_density,
    evaluate_localization,
    evaluate_relocalization,
    trajectory_length,
)
from .extraction import extract_clusters
from .localization import OdometryIncrement, run_pipeline
from .map_io import load_map, map_files, save_map
from .registration import register_frame
from .relocalization import RelocalizationFailure, relocalize
from .simulate import generate_scene, simulate_run


def _load_config(path: str | None) -> Config:
    if path is None:
        return default_config()
    return load_config(path)


def _generate_scene(cfg: Config):
    try:
        return generate_scene(cfg.scene)
    except ValueError as exc:  # no spacing-respecting layout was found
        raise ConfigError(str(exc)) from None


def _frame_range(text: str) -> slice:
    """argparse type for START:STOP; either bound may be left out."""
    start_text, sep, stop_text = text.partition(":")
    try:
        if sep:
            start = int(start_text) if start_text else None
            return slice(start, int(stop_text) if stop_text else None)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected START:STOP, got {text!r}")


def _retentions(text: str) -> tuple[float, ...]:
    """argparse type for comma-separated retention fractions in [0, 1]."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError(f"retentions must lie in [0, 1], got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _bounded_range(frames: slice, n: int) -> tuple[int, int]:
    start = 0 if frames.start is None else frames.start
    stop = n if frames.stop is None else frames.stop
    if not (0 <= start < stop <= n):
        raise PolemapError(f"frame range {start}:{stop} out of bounds for {n} frames")
    return start, stop


def _check_out(path, tree: bool = False) -> None:
    """Fail before any work unless the output's parent is a directory; for a
    tree made with its parents, the nearest existing of path and ancestors."""
    parent = Path(path).parent
    if tree:
        parent = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not parent.is_dir():
        raise PolemapError(f"{path}: {parent} is not a directory")


def _odometry_increments(odometry) -> tuple:
    increments = []
    for (_, prev), (ts, curr) in zip(odometry, odometry[1:]):
        increments.append(OdometryIncrement(ts, prev.inverse() @ curr))
    return tuple(increments)


def _cmd_simulate(args) -> int:
    _check_out(args.out, tree=True)
    cfg = _load_config(args.config)
    scene = _generate_scene(cfg)
    run = simulate_run(scene, cfg.trajectory, cfg.drift, cfg.sensor)

    odometry = [(run.true_poses[0][0], run.initial_pose)]
    pose = run.initial_pose
    for inc in run.increments:
        pose = pose @ inc.relative_pose
        odometry.append((inc.timestamp, pose))

    # the map is checked before the dataset, which is checked before it is written
    map_contents = map_files(scene.cluster_map, Path(args.out) / "map.txt", cfg.labels)
    write_dataset(args.out, run.frames, run.true_poses, cfg.labels, odometry=odometry)
    write_files(map_contents)

    length = trajectory_length([p.translation for _, p in run.true_poses])
    print(f"frames {len(run.frames)}")
    print(f"clusters {len(scene.cluster_map)}")
    print(f"length {length:.3f}")
    return 0


def _cmd_build_map(args) -> int:
    _check_out(args.out)
    cfg = _load_config(args.config)
    dataset = Dataset(args.data)
    poses = dataset.odometry() if args.poses == "odometry" else dataset.poses()

    start, stop = _bounded_range(args.frames, dataset.frame_count)
    cluster_map = ClusterMap()
    for i in range(start, stop):
        ts, pose = poses[i]
        frame = dataset.frame(i, cfg.labels, ts)
        clusters = extract_clusters(frame, cfg.extraction)
        register_frame(cluster_map, clusters, pose, cfg.registration)

    save_map(cluster_map, args.out, cfg.labels)
    positions = [pose.translation for _, pose in poses[start:stop]]
    length = trajectory_length(positions)
    print(f"clusters {len(cluster_map)}")
    if length > 0:
        print(f"density {cluster_density(len(cluster_map), length):.6f}")
    return 0


def _cmd_relocalize(args) -> int:
    cfg = _load_config(args.config)
    local_map = load_map(args.local)
    global_map = load_map(args.map)
    try:
        result = relocalize(local_map, global_map, cfg.association, cfg.reloc)
    except RelocalizationFailure as exc:
        print(json.dumps({"failure": exc.reason}))
        return 4
    record = {
        "inliers": len(result.inlier_pairs),
        "residual_rms": result.residual_rms,
        "translation": [float(v) for v in result.pose.translation],
        "quaternion_xyzw": [float(v) for v in result.pose.quaternion_xyzw()],
    }
    print(json.dumps(record))
    return 0


def _run_localization(cfg: Config, data: str, map_path: str):
    """Replay a dataset's odometry against a map: (true poses, odometry, result)."""
    dataset = Dataset(data)
    global_map = load_map(map_path)
    odometry = dataset.odometry()
    true_poses = dataset.poses()
    if [ts for ts, _ in odometry] != [ts for ts, _ in true_poses]:
        # each fix lands at its frame's timestamp, which must be an increment's
        raise PolemapError(f"{data}: odometry.txt timestamps differ from poses.txt")
    if not true_poses:
        raise PolemapError(f"{data}: no frames")
    result = run_pipeline(
        (dataset.frame(i, cfg.labels, ts) for i, (ts, _) in enumerate(true_poses)),
        _odometry_increments(odometry),
        global_map,
        initial_pose=odometry[0][1],
        extraction=cfg.extraction,
        association=cfg.association,
        relocalization=cfg.reloc,
        config=cfg.pipeline,
    )
    return true_poses, odometry, result


def _cmd_localize(args) -> int:
    _check_out(args.out)
    cfg = _load_config(args.config)
    true_poses, _, result = _run_localization(cfg, args.data, args.map)
    save_poses(args.out, result.trajectory)
    rmse = evaluate_localization(true_poses, result.trajectory)
    print(f"fixes {result.fixes_applied} attempts {result.attempts}")
    print(f"rmse {rmse:.6f}")
    return 0


def _cmd_evaluate(args) -> int:
    if args.out:
        _check_out(args.out)
    cfg = _load_config(args.config)
    if args.mode == "reloc":
        scene = _generate_scene(cfg)
        reports = evaluate_relocalization(
            scene,
            retentions=args.retentions,
            trials=args.trials,
            extraction=cfg.extraction,
            association=cfg.association,
            relocalization=cfg.reloc,
            sensor=cfg.sensor,
        )
        rows = ["retention,trials,successes,success_rate,p50,p90,p95,p99,density"]
        for r in reports:
            rows.append(
                f"{r.retention},{r.trial_count},{r.success_count},"
                f"{r.success_rate:.4f},{r.distance_p50:.3f},{r.distance_p90:.3f},"
                f"{r.distance_p95:.3f},{r.distance_p99:.3f},{r.cluster_density:.6f}"
            )
    else:
        # localization mode: pipeline RMSE next to raw odometry RMSE
        if not args.data or not args.map:
            raise PolemapError("--mode loc needs --data and --map")
        true_poses, odometry, result = _run_localization(cfg, args.data, args.map)
        rmse_pipeline = evaluate_localization(true_poses, result.trajectory)
        rmse_odometry = evaluate_localization(true_poses, odometry)
        rows = [
            "metric,value",
            f"rmse_pipeline,{rmse_pipeline:.6f}",
            f"rmse_odometry,{rmse_odometry:.6f}",
            f"fixes,{result.fixes_applied}",
            f"attempts,{result.attempts}",
        ]
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_config(args) -> int:
    cfg = _load_config(args.config)
    print(dump_config(cfg), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polemap",
        description="Pole landmark mapping and localization tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic labeled dataset")
    p.add_argument("--out", required=True, help="dataset and map.txt output directory")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-map", help="build a cluster map from a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="map output path")
    p.add_argument("--config", help="key=value config file")
    p.add_argument(
        "--poses",
        choices=("poses", "odometry"),
        default="poses",
        help="which pose track positions the frames (default: poses)",
    )
    p.add_argument(
        "--frames",
        type=_frame_range,
        default=":",
        help="half-open frame range START:STOP (default: all)",
    )
    p.set_defaults(func=_cmd_build_map)

    p = sub.add_parser("relocalize", help="align a local map to a global map")
    p.add_argument("--local", required=True, help="local map path")
    p.add_argument("--map", required=True, help="global map path")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_relocalize)

    p = sub.add_parser("localize", help="correct drifting odometry against a map")
    p.add_argument("--data", required=True, help="dataset directory with odometry.txt")
    p.add_argument("--map", required=True, help="global map path")
    p.add_argument("--out", required=True, help="estimated trajectory output path")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("evaluate", help="batch evaluation")
    p.add_argument("--mode", choices=("reloc", "loc"), required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="CSV output path")
    p.add_argument(
        "--retentions", type=_retentions, default="1.0,0.8,0.6", help="reloc mode only"
    )
    p.add_argument("--trials", type=_positive_int, default=50, help="reloc mode only")
    p.add_argument("--data", help="loc mode: dataset directory")
    p.add_argument("--map", help="loc mode: global map path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("config", help="print the effective configuration")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolemapError, OSError) as exc:  # OSError: a write no up-front check foresaw
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
