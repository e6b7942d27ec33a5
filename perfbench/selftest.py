"""Fast self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at reduced sizes, untraced and traced, and checks that
each run's last line is a correct result naming exactly the metrics of
BENCHMARK.json with their units.  Then checks that run.py refuses to run
from a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=180)


def _problems(out: subprocess.CompletedProcess, trace: int) -> list[str]:
    if out.returncode != 0:
        return [f"exit {out.returncode}: {out.stderr.strip()[-500:]}"]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"incorrect: attempted {res['attempted']}, failed {res['failed']}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(wanted):
        problems.append(f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            problems.append(f"{name}: {m}")
    if not trace and any(got[n]["value"] <= 0 for n in wanted if n in got):
        problems.append("an end-to-end metric is not positive")
    return problems


def main() -> int:
    failures = 0
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems = _problems(_run(ROOT, w["name"], trace), trace)
            print(f"{w['name']:<8} trace {trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(bare, SPEC["workloads"][0]["name"], 0)
        refused = out.returncode != 0 and not out.stdout.strip()
    finally:
        shutil.rmtree(bare)
    print(f"without sources: {'refused' if refused else 'FAIL: did not refuse'}")
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
