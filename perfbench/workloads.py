"""The benchmark workloads: program set-up, one timed pass, output checks.

Each workload is built from a directory that generate.py wrote (program
set-up: decoding the inputs the way the CLI would), runs one pass of its work
with the timer around program calls only, and then checks the pass's outputs
against the ground truth stored beside the inputs.

A pass calls polemap through module attributes (``extraction.extract_clusters``
rather than a name bound at import), so a Tracer installed for the pass sees
every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from polemap import extraction, localization, map_io, registration
from polemap.cluster_map import ClusterMap
from polemap.dataset_io import Dataset, LabelMap
from polemap.evaluate import evaluate_localization
from polemap.geometry import PoseSE3
from polemap.localization import OdometryIncrement, PipelineConfig

from tracing import patched

SUCCESS_RADIUS_M = 2.0  # a fix counts as right within this distance of the truth
CENTROID_TOLERANCE_M = 0.5  # a built centroid must lie this close to a landmark
RELOC_PERIOD_S = 1.0


class CheckFailed(Exception):
    """An output check failed; every unit of the run counts as failed."""


@dataclass
class Pass:
    wall_s: float
    units: int  # frames
    latencies_ms: list[float]
    output: object


def _map_bytes(path: Path) -> int:
    sidecar = path.with_name(path.name + ".points")
    return path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


def _landmarks(data: Path) -> np.ndarray:
    rows = json.loads((data / "landmarks.json").read_text(encoding="ascii"))
    return np.array([[x, y] for x, y, _ in rows])


class Track:
    """polemap localize: load the prior map, run_pipeline over one drifting lap."""

    name = "track"
    # run_pipeline owns the loop, so the tracer opens an attempt per extraction.
    attempt_starts_at_extraction = True

    def __init__(self, data: Path):
        dataset = Dataset(data / "drive")
        self.true_poses = dataset.poses()
        self.odometry = dataset.odometry()
        labels = LabelMap()
        self.frames = [dataset.frame(i, labels, ts) for i, (ts, _) in enumerate(self.true_poses)]
        self.units = len(self.frames)
        self.increments = [
            OdometryIncrement(ts, prev.inverse() @ curr)
            for (_, prev), (ts, curr) in zip(self.odometry, self.odometry[1:])
        ]
        self.map_path = data / "map.txt"
        self.map_points = sum(c.n_points for c in map_io.load_map(self.map_path))
        self.map_bytes = _map_bytes(self.map_path)

    def run(self, tracer) -> Pass:
        latencies: list[float] = []
        fixes: list[tuple[float, PoseSE3]] = []
        relocalize = localization.relocalize
        apply_global_fix = localization.apply_global_fix

        def timed_relocalize(*args, **kwargs):
            start = perf_counter()
            try:
                return relocalize(*args, **kwargs)
            finally:
                latencies.append(1000.0 * (perf_counter() - start))

        def recorded_fix(state, fix, fix_timestamp):
            new_state = apply_global_fix(state, fix, fix_timestamp)
            fixes.append((fix_timestamp, fix.pose))
            return new_state

        with patched(relocalize, timed_relocalize), patched(apply_global_fix, recorded_fix):
            start = perf_counter()
            result = localization.run_pipeline(
                self.frames,
                self.increments,
                map_io.load_map(self.map_path),
                initial_pose=self.odometry[0][1],
                config=PipelineConfig(reloc_period=RELOC_PERIOD_S),
            )
            wall = perf_counter() - start
        return Pass(wall, self.units, latencies, (result, fixes))

    def evaluate(self, output) -> dict[str, float]:
        result, fixes = output
        frames = self.units
        trajectory = result.trajectory
        if len(trajectory) != frames or any(
            t != ts for (t, _), (ts, _) in zip(trajectory, self.true_poses)
        ):
            raise CheckFailed(f"trajectory has {len(trajectory)} poses for {frames} frames")
        rmse = evaluate_localization(self.true_poses, trajectory)
        rmse_odometry = evaluate_localization(self.true_poses, self.odometry)
        # Re-integrating the odometry reproduces its rmse up to rounding, so
        # the fixes must at least halve it to count as correcting drift.
        if not rmse < 0.5 * rmse_odometry:
            raise CheckFailed(f"pipeline rmse {rmse:.4f} m is not below half "
                              f"the odometry's {rmse_odometry:.4f} m")
        truth = {t: pose.translation for t, pose in self.true_poses}
        correct = sum(
            np.linalg.norm(pose.translation - truth[t]) < SUCCESS_RADIUS_M for t, pose in fixes
        )
        errors = [
            np.linalg.norm(est.translation - gt.translation)
            for (_, est), (_, gt) in zip(trajectory, self.true_poses)
        ]
        return {
            "success_rate": correct / result.attempts,
            "err_m_p50": float(np.median(errors)),
            "map_points": self.map_points,
            "map_bytes": self.map_bytes,
            "fix_rate": result.fixes_applied / result.attempts,
            "rmse_m": rmse,
            "centroid_rmse_m": 0.0,
        }


class Mapping:
    """build-map over an on-disk two-lap drive, then save the map."""

    name = "mapping"
    attempt_starts_at_extraction = False

    def __init__(self, data: Path):
        self.dataset = Dataset(data / "drive")
        self.poses = self.dataset.poses()
        self.units = len(self.poses)
        self.landmarks = _landmarks(data)
        self.out_path = data / "built.txt"

    def run(self, tracer) -> Pass:
        labels = LabelMap()
        cluster_map = ClusterMap()
        latencies = []
        start = perf_counter()
        for i, (ts, pose) in enumerate(self.poses):
            if tracer is not None:
                tracer.new_attempt()
            # Registration is left out of the per-frame latency: its cost grows
            # with the map along the drive, so a percentile over frames would
            # time only the seconds in which the middle frames ran. It counts
            # in the pass's wall time.
            frame_start = perf_counter()
            clusters = extraction.extract_clusters(self.dataset.frame(i, labels, ts))
            latencies.append(1000.0 * (perf_counter() - frame_start))
            registration.register_frame(cluster_map, clusters, pose)
        map_io.save_map(cluster_map, self.out_path)
        wall = perf_counter() - start
        return Pass(wall, self.units, latencies, cluster_map)

    def evaluate(self, built: ClusterMap) -> dict[str, float]:
        reloaded = map_io.load_map(self.out_path)
        if reloaded.ids() != built.ids():
            raise CheckFailed("reloaded map has other cluster ids")
        for a in built:
            b = reloaded.get(a.cluster_id)
            if (
                a.label != b.label
                or a.n_points != b.n_points
                or not np.array_equal(a.centroid3d, b.centroid3d)
                or not np.array_equal(a.centroid2d, b.centroid2d)
            ):
                raise CheckFailed(f"cluster {a.cluster_id} differs after save and load")
        _, centroids = built.centroids_2d()
        offsets = centroids[:, None, :] - self.landmarks[None, :, :]
        gaps = np.linalg.norm(offsets, axis=2).min(axis=1)
        far = int(np.sum(gaps >= CENTROID_TOLERANCE_M))
        if far:
            raise CheckFailed(f"{far} centroids lie {CENTROID_TOLERANCE_M} m "
                              "or more from any landmark")
        return {
            "success_rate": float(np.mean(gaps < CENTROID_TOLERANCE_M)),
            "err_m_p50": float(np.median(gaps)),
            "map_points": sum(c.n_points for c in built),
            "map_bytes": _map_bytes(self.out_path),
            "fix_rate": 0.0,
            "rmse_m": 0.0,
            "centroid_rmse_m": float(np.sqrt(np.mean(gaps**2))),
        }


WORKLOADS = {w.name: w for w in (Track, Mapping)}
