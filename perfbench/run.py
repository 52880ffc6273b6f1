"""Benchmark entry point.

    python3 perfbench/run.py --workload track --seed 1 --seconds 45 --trace 0

Run from the root of a polemap checkout. Set-up (input generation in a child
process, then decoding the inputs) is repeated SETUP_REPEATS times and
reported as its median. The timed phase repeats whole passes of the workload
for up to --seconds (always at least one). With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs one untraced and one traced pass
and reports the per-layer metrics. The last line of standard output is one
JSON object; a record with the environment goes to --record.
"""

from __future__ import annotations

import os

# One process, one thread: BLAS must not add threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "polemap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def set_up(workload_cls, seed: int, work: Path):
    """Generate the inputs in a child process, then decode them here."""
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(HERE / "generate.py"), workload_cls.name, str(seed), str(work)],
        check=True,
    )
    return workload_cls(work)


def measure(bench, seconds: float):
    """Untraced passes for up to `seconds`; each pass's outputs are checked."""
    passes, qualities = [], []
    start = time.perf_counter()
    while True:
        done = bench.run(None)
        qualities.append(bench.evaluate(done.output))
        done.output = None
        passes.append(done)
        if time.perf_counter() - start + done.wall_s > seconds:
            return passes, qualities


def end_to_end(passes, quality, setup_s: float, peak_rss_mb: float) -> dict:
    import numpy as np

    latencies = [ms for p in passes for ms in p.latencies_ms]
    p50, p90 = np.percentile(latencies, [50, 90])
    return {
        "setup_s": (setup_s, "s"),
        "frames_per_s": (statistics.median(p.units / p.wall_s for p in passes), "1/s"),
        "attempt_ms_p50": (float(p50), "ms"),
        "attempt_ms_p90": (float(p90), "ms"),
        "success_rate": (quality["success_rate"], "ratio"),
        "err_m_p50": (quality["err_m_p50"], "m"),
        "map_points": (quality["map_points"], "count"),
        "map_bytes": (quality["map_bytes"], "bytes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(bench):
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    import tracing
    from workloads import CheckFailed

    plain = bench.run(None)
    quality = bench.evaluate(plain.output)
    plain.output = None
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, bench.attempt_starts_at_extraction)
        done = bench.run(tracer)
    finally:
        tracer.close()
    if bench.evaluate(done.output) != quality:
        raise CheckFailed("tracing changed the workload's outputs")
    metrics = tracing.layer_metrics(tracer, done.wall_s)
    metrics["trace.overhead_s"] = (done.wall_s - plain.wall_s, "s")
    metrics["result.fix_rate"] = (quality["fix_rate"], "ratio")
    metrics["result.rmse_m"] = (quality["rmse_m"], "m")
    metrics["result.centroid_rmse_m"] = (quality["centroid_rmse_m"], "m")
    return metrics, tracer, plain.units + done.units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=str(ROOT / ".perfbench_out"),
                        help="directory for the run record and spans")
    args = parser.parse_args(argv)

    if not (SRC / "polemap" / "__init__.py").is_file():
        print(f"perfbench: no polemap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    record_dir = Path(args.record)
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    env = environment()

    attempted, failed, metrics = 0, 0, {}
    try:
        setups, bench = [], None
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            bench = None  # free the previous inputs before decoding new ones
            start = time.perf_counter()
            bench = set_up(workload_cls, args.seed, work)
            setups.append(time.perf_counter() - start)
        if args.trace == 0:
            passes, qualities = measure(bench, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted = sum(p.units for p in passes)
            if any(q != qualities[0] for q in qualities):
                raise workloads.CheckFailed("outputs differ between passes")
            metrics = end_to_end(passes, qualities[0], statistics.median(setups), peak_rss_mb)
        else:
            metrics, tracer, attempted = traced(bench)
            tracer.write(record_dir / f"{stem}.spans.jsonl")
    except workloads.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        attempted = failed = max(attempted, bench.units)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        if correct else {},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result}
    (record_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(f"# {args.workload} seed {args.seed} trace {args.trace} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:34s} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
