"""One pass of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--small]

Imports the library from the checkout's ``src/`` (never an installed copy),
optionally installs the tracer, then times the workload from its first call
to its last checked output.  Writes ``result.json`` (and, when traced,
``spans.tsv``) into DIR, which is also the working directory for CLI output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (set-up cost stays outside the timed interval)
    import scipy.sparse.linalg  # noqa: F401

    import mealy
    import mealy.cli  # noqa: F401

    if Path(mealy.__file__).resolve().parent != SRC / "mealy":
        print(f"worker: imported mealy from {mealy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(mealy)
    import workloads  # after install, so its names are the traced ones

    run = workloads.Run(args.out, args.seed, args.small)
    fn = workloads.WORKLOADS[args.workload]
    os.chdir(args.out)

    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    fn(run)
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "notes": run.notes,
        "versions": _versions(),
    }
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer)
        tracer.dump(os.path.join(args.out, "spans.tsv"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
