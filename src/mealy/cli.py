"""Command-line front end: experiments over built-in or file-loaded automata.

Every subcommand reads an automaton via --builtin/--file, prints a short
table to stdout, and mirrors any file output (CSV, JSON, DOT, dat) with a
.manifest.json recording the exact invocation, so a run can be reproduced
from its artifacts alone.

Exit codes: 0 success, 1 a verification target, an eigen solve or an
internal self-check failed, 2 usage error (including a request above a
library size cap or an exhausted search budget).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from . import __version__
from .automaton import Automaton, act, builtin, dual_act, properties
from .bellaterra import (
    F_solution,
    aleshin_relation_check,
    lemma_transitive_check,
    preperiod_growth,
    wreath_table_check,
)
from .classify import classify_cotransitive, table_space_size
from .levels import _levels, _oversize, is_single_cycle
from .schreier import WitnessNotFound, build, diameter, find_level_witness, steer_to
from .spectral import CSV_HEADER, SolverError, gap_series
from .transitivity import cotransitivity, first_intransitive_level

LONG_RUN_TABLES = 1 << 22
DOT_VERTEX_CAP = 4096


class UsageError(Exception):
    pass


def _machine() -> dict:
    """The facts a run's timings depend on: CPUs, interpreter and BLAS."""
    import numpy
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def _manifest(args: argparse.Namespace, started: float) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    return {
        "subcommand": args.subcommand,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
        "machine": _machine(),
    }


def _write(path: str, text: str, args: argparse.Namespace, started: float,
           extra: dict | None = None) -> None:
    """Write one output file, then the .manifest.json next to it, with the
    keys of extra added to the manifest."""
    with open(path, "w") as fh:
        fh.write(text)
    with open(path + ".manifest.json", "w") as fh:
        fh.write(json.dumps(_manifest(args, started) | (extra or {}), indent=2) + "\n")


def _heights(heights) -> str:
    return "".join(f"{n} {h}\n" for n, h in enumerate(heights, start=1))


def _load(args: argparse.Namespace) -> Automaton:
    if args.builtin and args.file:
        raise UsageError("give either --builtin or --file, not both")
    if args.builtin:
        return builtin(args.builtin)
    if args.file:
        try:
            with open(args.file) as fh:
                return Automaton.from_text(fh.read())
        except (OSError, ValueError) as e:
            raise UsageError(f"cannot load {args.file}: {e}") from None
    raise UsageError("an automaton is required: --builtin NAME or --file PATH")


def _automaton_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", "--automaton", dest="builtin",
                   help="built-in automaton name (--automaton is an alias)")
    p.add_argument("--file", help="load automaton from a table file")


# -- subcommands -------------------------------------------------------------


def _cmd_info(args, started):
    M = _load(args)
    p = properties(M)
    if args.json:
        print(json.dumps({"name": M.name, "states": list(M.states),
                          "alphabet": list(M.alphabet), "properties": p.as_dict()}, indent=2))
    else:
        print(M.to_text())
        print("properties:", ", ".join(k for k, v in p.as_dict().items() if v) or "none")
    return 0


def _cmd_act(args, started):
    M = _load(args)
    if args.dual:
        print(dual_act(M, args.input, args.word))
    else:
        print(act(M, args.word, args.input))
    return 0


def _cmd_schreier(args, started):
    M = _load(args)
    if args.dot and (why := _oversize(M.t.shape, args.level, DOT_VERTEX_CAP)):
        raise UsageError(f"too large for DOT output: {why}")
    G = build(M, args.level)
    if args.dot:
        lines = ["digraph schreier {"]
        for qi, q in enumerate(M.states):
            for v in range(G.n_vertices):
                lines.append(f'  {v} -> {int(G.perms[qi][v])} [label="{q}"];')
        lines.append("}")
        _write(args.dot, "\n".join(lines) + "\n", args, started)
    print(f"level {G.n} graph: {G.n_vertices} vertices, {len(G.perms)} generators")
    return 0


def _cmd_diameter(args, started):
    M = _load(args)
    rows = []
    for n in range(args.from_, args.to + 1):
        G = build(M, n)
        if args.mode == "exact":
            rows.append((n, diameter(G, "exact")))
        else:
            lo, hi = diameter(G, "bound", seed=args.seed)
            rows.append((n, lo, hi))
    header = "n,diameter" if args.mode == "exact" else "n,lower,upper"
    body = [",".join(str(x) for x in r) for r in rows]
    table = header + "\n" + "\n".join(body) + "\n"
    if args.csv:
        _write(args.csv, table, args, started)
    print(table, end="")
    return 0


def _cmd_gap(args, started):
    M = _load(args)
    reports = gap_series(M, args.from_, args.to)
    table = "".join(f"{line}\n" for line in [CSV_HEADER, *(r.csv_row() for r in reports)])
    # how each level's fiber matrix was solved, and its certificate
    levels = {"levels": [{"n": r.level, "route": r.route, "tolerance": r.tolerance,
                          "residual": r.residual} for r in reports]}
    if args.csv:
        _write(args.csv, table, args, started, levels)
    if args.dat:
        # two-column n gap rows, gnuplot style; normalized gap
        _write(args.dat, "".join(f"{r.level} {r.gap_normalized:.10f}\n" for r in reports),
               args, started, levels)
    print(table, end="")
    return 0


def _cmd_transitive(args, started):
    M = _load(args)
    qi = M.state_index(args.state)
    if properties(M).cyclic:
        lvl = first_intransitive_level(M, args.state)
        if lvl is None:
            print(f"{args.state}: transitive on every level (exact)")
        else:
            print(f"{args.state}: not transitive, first failing level {lvl} (exact)")
        return 0
    # level 0 is one point, so the search fails first at level 1 or later;
    # _levels refuses --levels below 0 and stops at the level caps
    for n, P in enumerate(_levels(M, args.levels)):
        if not is_single_cycle(P[qi]):
            print(f"{args.state}: not transitive, first failing level {n} (orbit check)")
            return 0
    capped = ", the highest the level caps allow" if n < args.levels else ""
    print(f"{args.state}: transitive up to level {n}{capped} (no exact criterion; unknown beyond)")
    return 0


def _cmd_cotransitive(args, started):
    M = _load(args)
    v = cotransitivity(M, args.budget)
    detail = {"verdict": v.kind, "witness": v.witness, "level": v.level,
              "evidence": {str(k): str(val) for k, val in v.evidence.items()}}
    if args.json:
        print(json.dumps(detail, indent=2))
    else:
        extra = f" (dual state {v.witness})" if v.kind == "yes" else (
            f" (every dual state fails by level {v.level})" if v.kind == "no" else
            f" (undecided within budget {args.budget})" if "capped_at" not in v.evidence else
            f" (undecided at level {v.level}, the highest the level caps allow)")
        print(f"cotransitive: {v.kind}{extra}")
    return 0


def _parse_shard(text):
    i, sep, k = text.partition("/")
    if not sep:
        raise UsageError("--shard takes i/k, e.g. 0/4")
    try:
        shard = (int(i), int(k))
    except ValueError:
        raise UsageError("--shard takes i/k, e.g. 0/4") from None
    if not (0 <= shard[0] < shard[1]):
        raise UsageError("--shard needs 0 <= i < k")
    return shard


def _cmd_classify(args, started):
    q, a = args.states, args.letters
    if args.jobs < 1:
        raise UsageError("--jobs needs at least 1 thread")
    if table_space_size(q, a) > LONG_RUN_TABLES and not args.long:
        raise UsageError(
            f"({q},{a}) enumerates {table_space_size(q, a)} tables; pass --long to confirm"
        )
    shard = _parse_shard(args.shard) if args.shard else None
    report = classify_cotransitive(q, a, args.budget, shard=shard, jobs=args.jobs)
    if args.out:
        _write(args.out, report.to_json() + "\n", args, started)
    print(f"({q},{a}) classes: {report.classes_total}  "
          f"cotransitive yes/no/unknown: {report.cotransitive_yes}/"
          f"{report.cotransitive_no}/{report.cotransitive_unknown}")
    for w in report.witnesses:
        print(f"  {w['name']}: cotransitive via {w['decided_by']}, dual state {w['dual_state']}")
    return 0


def _check_line(name: str, ok: bool) -> bool:
    print(f"  {name:<28} {'PASS' if ok else 'FAIL'}")
    return ok


def _cmd_verify(args, started):
    if args.target == "bellaterra":
        if args.level < 0 or args.lemma_n < 0:
            raise UsageError("--level and --lemma-n need at least 0")
        all_ok = True
        w = wreath_table_check(args.level)
        all_ok &= _check_line(f"wreath table (n={args.level})", bool(w))
        try:
            F_solution()
            all_ok &= _check_line("series solution + parity", True)
        except (ValueError, AssertionError):
            all_ok &= _check_line("series solution + parity", False)
        all_ok &= _check_line(f"dual transitivity (n={args.lemma_n})",
                              lemma_transitive_check(args.lemma_n))
        a = aleshin_relation_check(args.level)
        all_ok &= _check_line(f"sister relation (n={args.level})", a.holds and a.even_path_ok)
        return 0 if all_ok else 1
    # argparse's choices leave "preperiod" as the only other target
    rep = preperiod_growth(args.n, args.adding_n)
    in_band = 0.57 <= rep.slope <= 0.70
    if args.csv:
        _write(args.csv, _heights(rep.heights), args, started)
    _check_line(f"slope {rep.slope:.4f} in [0.57, 0.70]", in_band)
    _check_line("adding machine height bound", rep.adding_ok)
    return 0 if in_band and rep.adding_ok else 1


def _cmd_growth(args, started):
    rep = preperiod_growth(args.n, args.adding_n)
    if args.csv:
        _write(args.csv, _heights(rep.heights), args, started)
    print(f"slope {rep.slope:.5f} over n <= {args.n}; "
          f"adding-machine max height {rep.adding_max_h} for n <= {args.adding_n}")
    return 0


def _cmd_steer(args, started):
    M = _load(args)
    if args.witness_level is not None:
        w = find_level_witness(M, args.letter, args.witness_level, args.budget)
        print(w)
        return 0
    if not args.input:
        raise UsageError("steer needs --input or --witness-level")
    w = steer_to(M, args.letter, args.input)
    print(w)
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mealy", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"mealy {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("info", help="print an automaton table and its properties")
    _automaton_flags(p)
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("act", help="apply a group word to a finite word")
    _automaton_flags(p)
    p.add_argument("--word", required=True, help="group word over states; prime for inverse")
    p.add_argument("--input", required=True, help="letter word to act on")
    p.add_argument("--dual", action="store_true",
                   help="dual action: --word is a letter word acting on the state word --input")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("schreier", help="build a level graph, optionally exporting DOT")
    _automaton_flags(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--dot", help="write graph in DOT format")
    p.set_defaults(func=_cmd_schreier)

    p = sub.add_parser("diameter", help="diameters of level graphs")
    _automaton_flags(p)
    p.add_argument("--from", dest="from_", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "bound"), default="exact")
    p.add_argument("--seed", type=int, default=0, help="source sampling seed for --mode bound")
    p.add_argument("--csv", help="write n,diameter rows")
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("gap", help="two-sided spectral gap series of level graphs")
    _automaton_flags(p)
    p.add_argument("--from", dest="from_", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--csv", help="write full spectrum rows")
    p.add_argument("--dat", help="write two-column n gap rows")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("transitive", help="is a state's action transitive on every level")
    _automaton_flags(p)
    p.add_argument("--state", required=True)
    p.add_argument("--levels", type=int, default=8, help="orbit-check budget when no exact criterion")
    p.set_defaults(func=_cmd_transitive)

    p = sub.add_parser("cotransitive", help="does some dual state act spherically transitively")
    _automaton_flags(p)
    p.add_argument("--budget", type=int, default=4, help="refutation level budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cotransitive)

    p = sub.add_parser("classify", help="census of invertible (q,a) classes by cotransitivity")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--letters", "--alphabet", dest="letters", type=int, required=True)
    p.add_argument("--budget", type=int, default=4)
    p.add_argument("--long", action="store_true", help="confirm an enumeration beyond 2^22 tables")
    p.add_argument("--shard", help="i/k: process classes with index = i mod k")
    p.add_argument("--jobs", type=int, default=1,
                   help="threads for the canonical-key pass (at most the CPUs available)")
    p.add_argument("--out", help="write the census report as JSON")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="self-checks with PASS/FAIL lines; exit 1 on failure")
    p.add_argument("target", choices=("bellaterra", "preperiod"))
    p.add_argument("--level", type=int, default=10, help="table/relation depth for bellaterra")
    p.add_argument("--lemma-n", type=int, default=12, help="dual transitivity depth")
    p.add_argument("--n", type=int, default=2000, help="preperiod: codings to sample")
    p.add_argument("--adding-n", type=int, default=10000, help="preperiod: adding-machine range")
    p.add_argument("--csv", help="preperiod: write n height rows")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("growth", help="preperiod growth data without pass/fail")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--adding-n", type=int, default=10000)
    p.add_argument("--csv", help="write n height rows")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("steer", help="find a group word mapping a word to x^n")
    _automaton_flags(p)
    p.add_argument("--letter", required=True, help="target letter x")
    p.add_argument("--input", help="word to steer to x^n")
    p.add_argument("--witness-level", type=int, help="instead: word fixing x^n moving position n")
    p.add_argument("--budget", type=int, default=64, help="witness search length budget")
    p.set_defaults(func=_cmd_steer)

    return ap


def main(argv=None) -> int:
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args, started)
    except (UsageError, ValueError, KeyError, OSError, MemoryError, WitnessNotFound) as e:
        # str() of a KeyError is the repr of its message
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return 2
    except (SolverError, AssertionError) as e:
        # the input was fine; an eigen solve or a self-check was not
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
