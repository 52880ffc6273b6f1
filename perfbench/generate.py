"""Write the inputs of one workload to a directory.

Run as its own process by run.py, so that the memory input generation takes
never counts toward the measured process's peak:

    python3 perfbench/generate.py WORKLOAD SEED OUT_DIR

Both workloads use the default 160-cluster scene and drive the same loop. The
seed draws the sensor point noise of every frame.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polemap import (  # noqa: E402
    DriftSpec,
    LabelMap,
    SceneSpec,
    TrajectorySpec,
    generate_scene,
    save_map,
    simulate_run,
    write_dataset,
)

# One lap of this loop is 600 m: a closed circle around the scene centre.
LAP_M = 600.0
LOOP = {"start": (150.0, 55.0), "turn_rate_deg_per_m": 0.603}
DRIFT = {"translational_drift": 0.01, "rotational_drift": 0.005}
LAPS = {"track": 1, "mapping": 2}


def generate(workload: str, seed: int, out: Path) -> None:
    """The drive as a dataset, plus the prior map (track) or the landmarks (mapping)."""
    if workload not in LAPS:
        raise ValueError(f"unknown workload {workload!r}")
    scene = generate_scene(SceneSpec())
    run = simulate_run(
        scene,
        TrajectorySpec(length=LAPS[workload] * LAP_M, **LOOP),
        DriftSpec(seed=seed, **DRIFT),
    )
    odometry = [(run.true_poses[0][0], run.initial_pose)]
    for inc in run.increments:
        odometry.append((inc.timestamp, odometry[-1][1] @ inc.relative_pose))
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(out / "drive", run.frames, run.true_poses, LabelMap(), odometry=odometry)
    if workload == "track":
        save_map(scene.cluster_map, out / "map.txt")
    else:
        rows = [[lm.x, lm.y, str(lm.label)] for lm in scene.landmarks]
        (out / "landmarks.json").write_text(json.dumps(rows), encoding="ascii")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: generate.py WORKLOAD SEED OUT_DIR")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
