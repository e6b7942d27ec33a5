"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --runs 10 [--workloads census walks]

Runs run.py once per seed 1..N on each workload (untraced) and prints, per
metric, the median and the interquartile range as a share of the median
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = 0.0
    for wl in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + "  ".join(
                f"{n} {values[n][-1]:.4f}" for n in bounds), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"{wl:<8} {name:<12} median {med:10.4f}  iqr/median {share:6.3f}  "
                  f"bound {bounds[name]:.2f}  min {min(vals):.4f}  max {max(vals):.4f}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
