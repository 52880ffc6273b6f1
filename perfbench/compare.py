"""Compare two sets of benchmark records, refusing different environments.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records run.py writes (its --record option). For
every workload and end-to-end metric this prints each side's median and
quartiles and the change as a share of the base median, signed so that a
positive share is worse, beside the metric's bound from BENCHMARK.json.
Records whose Python, numpy, scipy, core count or CPU model differ are not
compared at all.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT_KEYS = ("python", "numpy", "scipy", "nproc", "cpu")


def _records(directory: str) -> list[dict]:
    paths = sorted(Path(directory).glob("*.json"))
    records = [json.loads(p.read_text(encoding="ascii")) for p in paths]
    return [r for r in records if r["trace"] == 0 and r["correct"]]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = _records(argv[0]), _records(argv[1])
    if not base or not change:
        print("compare: each directory needs a correct untraced record", file=sys.stderr)
        return 2
    environments = {tuple(r["environment"][k] for k in ENVIRONMENT_KEYS) for r in base + change}
    if len(environments) > 1:
        print("compare: refusing to compare records from different environments:", file=sys.stderr)
        for env in sorted(environments):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(ENVIRONMENT_KEYS, env)), file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    print(f"{'workload':9s} {'metric':15s} {'n':>5s} {'base q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'worse by':>9s} {'bound':>6s}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in change}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in change if r["workload"] == workload]
            qa, qb = _quartiles(a), _quartiles(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            base_spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            if base_spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = ""
            print(f"{workload:9s} {name:15s} {len(a):>2d}/{len(b):<2d} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>32s} {'/'.join(f'{v:.4g}' for v in qb):>32s} "
                  f"{worse:>+9.3f} {metric['bound']:>6.2f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
