"""The four benchmark workloads, each with independent checks of its outputs.

A workload is one closed-loop caller: it makes each call only after the
previous one returned and was checked.  Every call counts as one attempted
operation; a call that raises, exits nonzero, or fails its check counts as
failed.  CLI calls go through ``mealy.cli.main`` in-process and write their
files and manifests into the run's temporary directory.

Import this module only after the tracer (if any) is installed, so the
names bound here are the traced ones.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from itertools import product as iproduct

import numpy as np

from mealy import cli
from mealy.automaton import act, act_inf, builtin, dual
from mealy.levels import is_single_cycle, level_maps
from mealy.schreier import find_level_witness, first_divergence, steer_to
from mealy.transitivity import orbit_cycle, stabilizes_infinite
from mealy.words import EventuallyPeriodicWord, GroupWord

FIXED_BUILTINS = ("adding", "aleshin", "bellaterra", "bireversible52", "conjugator", "div3")

# Pinned results, from the acceptance criteria and the documented census.
CENSUS32 = {"classes": 544, "yes": 5, "unknown": 0, "cocyclic_witnesses": 4, "conjugation": 1}
CENSUS42 = {"classes": 22592, "no": 22592, "levels": {1: 11166, 2: 11338, 3: 88}}
DIAMETERS = {
    "bellaterra": [1, 2, 3, 4, 5, 8, 9, 10, 12, 12, 14],
    "aleshin": [1, 1, 2, 2, 3, 4, 4, 5, 6, 6, 7],
}
# Criterion 8's gap bands on levels 8..12.
GAP_BANDS = {"aleshin": (0.10, 0.40), "bellaterra": (0.01, 0.12)}
# A level projection is a graph covering, so the level-n spectrum lies in
# the level-(n+1) spectrum and the gap can only shrink.  The slack covers
# the iterative solver's tolerance.
GAP_SLACK = 1e-6


class Run:
    """Counts operations and failures for one pass of one workload."""

    def __init__(self, tmp: str, seed: int, small: bool):
        self.tmp = tmp
        self.seed = seed
        self.small = small
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict[str, object] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def op(self, label: str, fn, *args) -> None:
        """Run one operation; fn returns whether its output checked out."""
        self.attempted += 1
        try:
            ok = bool(fn(*args))
            detail = "check failed"
        except Exception as e:  # any exception is a failed operation
            ok, detail = False, f"{type(e).__name__}: {e}"
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {detail}")

    def cli(self, *argv) -> str:
        """Standard output of one in-process CLI call; a nonzero exit raises."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def cli_file(self, out_flag: str, name: str, *argv) -> str:
        """Run a CLI call writing name via out_flag; return the file's text."""
        path = self.path(name)
        self.cli(*argv, out_flag, path)
        with open(path + ".manifest.json") as fh:
            manifest = json.load(fh)
        if manifest.get("subcommand") != argv[0]:
            raise RuntimeError(f"manifest names {manifest.get('subcommand')!r}")
        with open(path) as fh:
            return fh.read()


# -- census -------------------------------------------------------------------


def _census32_ok(rep: dict) -> bool:
    w = rep["witnesses"]
    return (rep["classes_total"] == CENSUS32["classes"]
            and rep["cotransitive_yes"] == CENSUS32["yes"]
            and rep["cotransitive_unknown"] == CENSUS32["unknown"]
            and rep["cotransitive_yes"] + rep["cotransitive_no"] == rep["classes_total"]
            and sum(1 for x in w if x["cocyclic"]) == CENSUS32["cocyclic_witnesses"]
            and sum(1 for x in w if x["decided_by"] == "conjugation") == CENSUS32["conjugation"])


def _census42_ok(rep: dict) -> bool:
    levels = {int(k): v for k, v in rep["refutation_levels"].items()}
    return (rep["classes_total"] == CENSUS42["classes"]
            and rep["cotransitive_no"] == CENSUS42["no"]
            and rep["cotransitive_yes"] == 0 and rep["cotransitive_unknown"] == 0
            and levels == CENSUS42["levels"])


def census(run: Run) -> None:
    """mealy classify (3,2), then (4,2) with --jobs = nproc threads."""
    run.op("classify (3,2)", lambda: _census32_ok(json.loads(
        run.cli_file("--out", "census32.json", "classify", "--states", 3, "--letters", 2))))
    if run.small:
        return
    jobs = len(os.sched_getaffinity(0))
    run.notes["census_jobs"] = jobs
    run.op("classify (4,2)", lambda: _census42_ok(json.loads(
        run.cli_file("--out", "census42.json", "classify", "--states", 4, "--letters", 2,
                     "--jobs", jobs))))


# -- graphs -------------------------------------------------------------------


def _gap_rows(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        n, nv = int(r["n"]), int(r["vertices"])
        lam2, lam_min, gap = float(r["lambda2"]), float(r["lambda_min"]), float(r["gap"])
        if nv != 2**n:
            raise AssertionError(f"level {n} has {nv} vertices")
        # the normalized gap of a 3-regular graph, recomputed from the row
        if abs(gap - (1 - max(lam2, -lam_min) / 3)) > 1e-9 or not 0 < gap <= 1:
            raise AssertionError(f"level {n}: gap {gap} disagrees with its eigenvalues")
    return rows


def _non_increasing(gaps: list[float]) -> bool:
    return all(b <= a + GAP_SLACK for a, b in zip(gaps, gaps[1:]))


def graphs(run: Run) -> None:
    """Gap series on both sides of the dense/iterative switch, exact diameters."""
    lo, hi = (4, 6) if run.small else (6, 12)
    series: dict[str, list[float]] = {}

    def gap_series(name: str) -> bool:
        rows = _gap_rows(run.cli_file("--csv", f"gap-{name}.csv", "gap", "--builtin", name,
                                      "--from", lo, "--to", hi))
        if [int(r["n"]) for r in rows] != list(range(lo, hi + 1)):
            return False
        gaps = [float(r["gap"]) for r in rows]
        series[name] = gaps
        band = GAP_BANDS.get(name)
        in_band = band is None or all(
            band[0] <= g <= band[1] for r, g in zip(rows, gaps) if int(r["n"]) >= 8)
        return _non_increasing(gaps) and in_band

    for name in ("aleshin", "bellaterra", "div3"):
        run.op(f"gap {name} {lo}..{hi}", gap_series, name)
    run.op("gap aleshin above bellaterra",
           lambda: all(a > b for a, b in zip(series["aleshin"], series["bellaterra"])))

    big = (14, 14) if run.small else (14, 16)

    def gap_big() -> bool:
        rows = _gap_rows(run.cli_file("--csv", "gap-div3-big.csv", "gap", "--builtin", "div3",
                                      "--from", big[0], "--to", big[1]))
        gaps = [float(r["gap"]) for r in rows]
        run.notes["div3_gap"] = {int(r["n"]): round(g, 6) for r, g in
                                 zip(rows, gaps)} | {hi: round(series["div3"][-1], 6)}
        return len(rows) == big[1] - big[0] + 1 and _non_increasing([series["div3"][-1]] + gaps)

    run.op(f"gap div3 {big[0]}..{big[1]}", gap_big)

    top = 6 if run.small else 11
    for name in ("bellaterra", "aleshin"):
        def diameters(name=name) -> bool:
            text = run.cli_file("--csv", f"diam-{name}.csv", "diameter", "--builtin", name,
                                "--mode", "exact", "--from", 1, "--to", top)
            got = [int(line.split(",")[1]) for line in text.split()[1:]]
            return got == DIAMETERS[name][:top]
        run.op(f"diameter {name} 1..{top}", diameters)


# -- orbits -------------------------------------------------------------------


def _walk_cycle_length(p: np.ndarray) -> int:
    """Length of the cycle through 0, by following p point by point."""
    v, steps = int(p[0]), 1
    while v != 0:
        v, steps = int(p[v]), steps + 1
    return steps


def orbits(run: Run) -> None:
    """Big-level orbit kernels: criterion 11, div3 arithmetic, orbit periods."""
    D = dual(builtin("bireversible52"))
    xi = D.states.index("0")
    top = 6 if run.small else 10

    def single_cycle(n: int) -> bool:
        p = level_maps(D, n)[xi]
        ok = is_single_cycle(p)
        # an independent route on the levels small enough to walk
        return ok and (n > 6 or _walk_cycle_length(p) == 5**n)

    for n in range(1, top + 1):
        run.op(f"bireversible52 dual state 0 level {n}", single_cycle, n)

    div3 = builtin("div3")

    def div3_forward(n: int) -> bool:
        size = 2**n
        v = np.arange(size, dtype=np.int64)
        ms = level_maps(div3, n)
        inv3 = pow(3, -1, size)
        return all(np.array_equal(ms[qi], ((v - int(q)) * inv3) % size)
                   for qi, q in enumerate(div3.states))

    dD = dual(div3)

    def div3_dual(m: int) -> bool:
        size = 3**m
        v = np.arange(size, dtype=np.int64)
        ms = level_maps(dD, m)
        inv2 = pow(2, -1, size)
        return all(np.array_equal(ms[j], ((v - int(x)) * inv2) % size)
                   for j, x in enumerate(dD.states))

    for n in range(1, (8 if run.small else 16) + 1):
        run.op(f"div3 2-adic level {n}", div3_forward, n)
    m_top = 5 if run.small else 10
    for m in range(1, m_top + 1):
        run.op(f"div3 3-adic level {m}", div3_dual, m)
    for m in range(1, m_top + 1):
        run.op(f"div3 orbit period {m}",
               lambda m=m: orbit_cycle(div3, "0", "0" * (m - 1) + "1") == (0, 2 * 3 ** (m - 1)))

    budget = 4 if run.small else 9

    def cotransitive() -> bool:
        text = run.cli("cotransitive", "--builtin", "bireversible52", "--budget", budget,
                       "--json")
        v = json.loads(text)
        # dual state 0 spans every level checked above, so no refutation
        return v["verdict"] == "unknown" and "'0'" in v["evidence"]["surviving_states"]

    run.op(f"cotransitive bireversible52 budget {budget}", cotransitive)


# -- walks --------------------------------------------------------------------


def _random_words(seed: int, total: int):
    """Criterion 12's random (machine, word, letter) triples, stratified.

    Every run gets the same number of words of each length 1..8 on each
    machine, as criterion 12 does in expectation.  The cost of act_inf on
    x x x ... is the period of the image, which for a bireversible52 word of
    length k reaches 5^k, so a few long words on that machine would make a
    run's cost depend on the seed; those strata (length >= 5) are drawn from
    a fixed seed and the seed picks every other word.
    """
    strata = [(name, k) for name in FIXED_BUILTINS for k in range(1, 9)]
    out = []
    for i, (name, k) in enumerate(strata):
        M = builtin(name)
        fixed = name == "bireversible52" and k >= 5
        rng = random.Random(f"{name}-{k}" if fixed else f"{seed}-{name}-{k}")
        for _ in range(total // len(strata) + (i < total % len(strata))):
            w = GroupWord([(rng.choice(M.states), rng.choice((1, -1))) for _ in range(k)])
            out.append((M, w, rng.choice(M.alphabet)))
    return out


def walks(run: Run) -> None:
    """Scalar transducer walks: seeded random words, steering, witnesses, verify."""
    def stabilizer(M, w, x) -> bool:
        tail = EventuallyPeriodicWord.constant(x)
        return stabilizes_infinite(M, w, x) == (act_inf(M, w, tail) == tail)

    for i, (M, w, x) in enumerate(_random_words(run.seed, 100 if run.small else 10_000)):
        run.op(f"stabilizer word {i}", stabilizer, M, w, x)

    bits = 6 if run.small else 10
    for name in ("aleshin", "bellaterra"):
        M = builtin(name)
        for letters in iproduct("01", repeat=bits):
            v = "".join(letters)

            def steer(M=M, v=v) -> bool:
                w = steer_to(M, "0", v)
                return act(M, w, v) == "0" * bits and len(w) <= bits * bits

            run.op(f"steer {name} {v}", steer)

    for name in ("bellaterra", "aleshin"):
        M = builtin(name)
        for x in M.alphabet:
            for n in range(1, (6 if run.small else 14) + 1):
                def witness(M=M, x=x, n=n) -> bool:
                    u = find_level_witness(M, x, n, budget=n)
                    fd = first_divergence(M, u, x)
                    return len(u) <= 2 * n and act(M, u, x * n) == x * n and fd is not None \
                        and fd >= n

                run.op(f"witness {name} {x} level {n}", witness)

    n, adding_n = (200, 1000) if run.small else (2000, 10_000)

    def preperiod() -> bool:
        text = run.cli_file("--csv", "heights.csv", "verify", "preperiod", "--n", n,
                            "--adding-n", adding_n)
        return len(text.splitlines()) == n

    run.op("verify preperiod", preperiod)
    level, lemma_n = (6, 8) if run.small else (10, 14)

    def bellaterra() -> bool:
        text = run.cli("verify", "bellaterra", "--level", level, "--lemma-n", lemma_n)
        lines = [ln for ln in text.splitlines() if ln.strip()]
        return len(lines) == 4 and all(ln.rstrip().endswith("PASS") for ln in lines)

    run.op("verify bellaterra", bellaterra)


WORKLOADS = {"census": census, "graphs": graphs, "orbits": orbits, "walks": walks}
