"""Benchmark of the mealy library and CLI; see perfbench/README.md.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

With --trace 0 a run times the interpreter set-up several times, then makes
passes of the workload, each in a fresh interpreter, and reports the
end-to-end metrics of BENCHMARK.json as medians over the passes.  With
--trace 1 it makes one untraced and one traced pass and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "graphs", "orbits", "walks")
SETUP_REPS = 7
SETUP_IMPORTS = "import mealy, mealy.cli, numpy, scipy.sparse.linalg"
DEADLINE_S = 170  # the whole run stays under the 180 s a run may take
TMP = ROOT / ".perfbench-tmp"
OUT = ROOT / ".perfbench-out"


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    # a key cache would let the census skip its key pass
    env.pop("MEALY_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _setup_seconds(tmp: str, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that only import the library stack."""
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORTS], cwd=tmp, env=_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        if rep:  # the first one may compile bytecode
            times.append(time.perf_counter() - t0)
    return times


def _pass(workload: str, seed: int, trace: bool, small: bool, tmp_root: str,
          deadline: float) -> dict:
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--out", tmp]
    cmd += ["--trace"] if trace else []
    cmd += ["--small"] if small else []
    try:
        proc = subprocess.run(cmd, env=_env(), stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass overran the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    with open(os.path.join(tmp, "result.json")) as fh:
        result = json.load(fh)
    if trace:
        OUT.mkdir(exist_ok=True)
        shutil.move(os.path.join(tmp, "spans.tsv"), OUT / f"{workload}.spans.tsv")
    shutil.rmtree(tmp)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the harness self-test only")
    args = ap.parse_args()

    if not (ROOT / "src" / "mealy" / "__init__.py").is_file():
        print(f"run.py: no mealy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    TMP.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=TMP)
    try:
        if args.trace:
            passes = [_pass(args.workload, args.seed, False, args.small, tmp_root, deadline),
                      _pass(args.workload, args.seed, True, args.small, tmp_root, deadline)]
            layers = dict(passes[1]["layers"])
            layers["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
            values = layers
            wanted = spec["per_layer"]
        else:
            setup = _setup_seconds(tmp_root, deadline)
            passes = []
            start = time.monotonic()
            while True:
                passes.append(_pass(args.workload, args.seed, False, args.small, tmp_root,
                                    deadline))
                walls = [p["wall_s"] for p in passes]
                projected = time.monotonic() - start + statistics.median(walls)
                if projected > args.seconds or time.monotonic() + 2 * max(walls) > deadline:
                    break
            values = {name: statistics.median([p[name] for p in passes])
                      for name in ("wall_s", "cpu_s", "peak_rss_mb")}
            values["setup_s"] = statistics.median(setup)
            wanted = spec["end_to_end"]
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    last = passes[-1]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  nproc {len(os.sched_getaffinity(0))}  git {_git_rev()}")
    print("versions " + "  ".join(f"{k} {v}" for k, v in last["versions"].items()))
    for i, p in enumerate(passes):
        print(f"pass {i}: wall_s {p['wall_s']:.3f}  cpu_s {p['cpu_s']:.3f}  "
              f"peak_rss_mb {p['peak_rss_mb']:.1f}  ops {p['attempted']}  failed {p['failed']}")
        for line in p["failures"]:
            print(f"  FAILED {line}")
    for key, val in last["notes"].items():
        print(f"note {key}: {val}")
    print(f"error_rate {failed / attempted if attempted else 1.0:.6f} ratio "
          f"({failed} of {attempted} operations failed)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {values[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
