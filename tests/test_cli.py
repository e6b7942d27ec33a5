import itertools
import json
import os
import platform
import time

import numpy as np
import pytest
import scipy

from mealy import cli
from mealy.bellaterra import AleshinReport, WreathReport
from mealy.cli import main


def run(args):
    try:
        return main(args)
    except SystemExit as e:  # argparse --help raises
        return e.code or 0


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "classify" in capsys.readouterr().out


def test_act_prints_image(capsys):
    assert run(["act", "--builtin", "bellaterra", "--word", "c", "--input", "0000"]) == 0
    assert capsys.readouterr().out.strip() == "1001"


def test_act_dual(capsys):
    assert run(["act", "--builtin", "bellaterra", "--dual",
                "--word", "0", "--input", "abc"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 3 and set(out) <= set("abc")


def test_info_lists_properties(capsys):
    assert run(["info", "--builtin", "aleshin"]) == 0
    out = capsys.readouterr().out
    assert "bireversible" in out
    assert "a 0" in out


def test_info_json(capsys):
    assert run(["info", "--builtin", "adding", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["properties"]["cyclic"] is True
    assert d["states"] == ["r", "i"]


def test_gap_writes_csv_and_manifest(tmp_path, capsys):
    csv = tmp_path / "gaps.csv"
    assert run(["gap", "--builtin", "bellaterra", "--from", "2", "--to", "4",
                "--csv", str(csv)]) == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0].startswith("n,")
    assert len(rows) == 4
    man = json.loads((tmp_path / "gaps.csv.manifest.json").read_text())
    assert man["subcommand"] == "gap"
    assert man["flags"]["to"] == 4
    assert "wall_time_s" in man


def test_gap_dat_is_reproducible(tmp_path):
    # level 12 is lifted by a Lanczos solve, which starts from a fixed vector
    for lo, hi in (("2", "5"), ("9", "12")):
        a, b = tmp_path / f"a{lo}.dat", tmp_path / f"b{lo}.dat"
        for p in (a, b):
            assert run(["gap", "--builtin", "aleshin", "--from", lo, "--to", hi,
                        "--dat", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_gap_over_three_letters_is_reproducible_and_non_increasing(tmp_path):
    # every level above 4 is lifted through the 2x2 blocks of a 3-sheeted cover
    a, b = tmp_path / "a.dat", tmp_path / "b.dat"
    for p in (a, b):
        assert run(["gap", "--builtin", "affine(2,3)", "--from", "4", "--to", "9",
                    "--dat", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [line.split() for line in a.read_text().splitlines()]
    assert [int(r[0]) for r in rows] == list(range(4, 10))
    gaps = [float(r[1]) for r in rows]
    assert all(x >= y for x, y in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_gap_solver_failure_is_error_line(monkeypatch, capsys):
    import numpy as np
    import scipy.sparse.linalg as spl

    def never_converges(S, **kw):
        raise spl.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spl, "eigsh", never_converges)
    # level 9 is the first level whose fiber matrix (256 rows) runs Lanczos
    assert run(["gap", "--builtin", "aleshin", "--from", "6", "--to", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: level 9: ")
    assert "tolerance 1e-06" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("args", [
    ["schreier", "--builtin", "aleshin", "--level", "-2"],
    ["schreier", "--builtin", "aleshin", "--level", "1000000000"],
    ["diameter", "--builtin", "aleshin", "--from", "-2", "--to", "1"],
    ["gap", "--builtin", "aleshin", "--from", "-2", "--to", "1"],
    ["cotransitive", "--builtin", "bellaterra", "--budget", "-2"],
    ["transitive", "--builtin", "affine(2,3)", "--state", "0", "--levels", "-3"],
    ["steer", "--builtin", "bellaterra", "--letter", "0", "--witness-level", "-2"],
])
def test_level_out_of_range_is_usage_error(args, capsys):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("args", [
    ["classify", "--states", "0", "--letters", "2"],
    ["classify", "--states", "2", "--letters", "0"],
    ["classify", "--states", "-1", "--letters", "2"],
    ["growth", "--n", "0"],
    ["growth", "--n", "1", "--adding-n", "5"],
    ["growth", "--n", "5", "--adding-n", "-1"],
    ["verify", "preperiod", "--n", "0"],
    ["verify", "preperiod", "--n", "-3"],
    ["verify", "bellaterra", "--lemma-n", "-2"],
    ["verify", "bellaterra", "--level", "-2"],
    ["info", "--builtin", "affine(300,301)"],
])
def test_size_without_an_answer_is_usage_error(args, capsys):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("args, start", [
    (["act", "--builtin", "bellaterra", "--word", "x", "--input", "00"], "error: unknown state 'x'"),
    (["info", "--builtin", "nosuch"], "error: unknown builtin 'nosuch'"),
])
def test_unknown_name_error_line_is_unquoted(args, start, capsys):
    assert run(args) == 2
    assert capsys.readouterr().err.startswith(start)


def test_gap_above_spectral_cap_is_usage_error(capsys):
    assert run(["gap", "--builtin", "div3", "--from", "21", "--to", "21"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "spectral cap" in err


def test_diameter_exact_csv(tmp_path):
    csv = tmp_path / "diam.csv"
    assert run(["diameter", "--builtin", "bellaterra", "--from", "1", "--to", "4",
                "--mode", "exact", "--csv", str(csv)]) == 0
    rows = [r.split(",") for r in csv.read_text().strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [1, 2, 3, 4]


# every file-writing subcommand: argv, output flag, and the file's bytes
# where they are pinned
WRITERS = {
    "schreier-dot": (["schreier", "--builtin", "aleshin", "--level", "3"], "--dot", None),
    "diameter-csv": (["diameter", "--builtin", "bellaterra", "--from", "1", "--to", "4"],
                     "--csv", b"n,diameter\n1,1\n2,2\n3,3\n4,4\n"),
    "diameter-empty": (["diameter", "--builtin", "bellaterra", "--from", "3", "--to", "2"],
                       "--csv", b"n,diameter\n\n"),
    "gap-csv": (["gap", "--builtin", "bellaterra", "--from", "2", "--to", "4"], "--csv", None),
    "gap-dat": (["gap", "--builtin", "bellaterra", "--from", "2", "--to", "4"], "--dat", None),
    "classify-out": (["classify", "--states", "2", "--letters", "2"], "--out", None),
    "verify-preperiod-csv": (["verify", "preperiod", "--n", "200", "--adding-n", "500"],
                             "--csv", None),
    "growth-csv": (["growth", "--n", "150", "--adding-n", "300"], "--csv", None),
}


@pytest.mark.parametrize("argv, flag, pinned", WRITERS.values(), ids=WRITERS)
def test_every_output_file_has_a_manifest(tmp_path, capsys, argv, flag, pinned):
    out = tmp_path / "out"
    assert run([*argv, flag, str(out)]) == 0
    printed = capsys.readouterr().out
    text = out.read_text()
    man = json.loads((tmp_path / "out.manifest.json").read_text())
    assert man["subcommand"] == argv[0]
    assert man["flags"][flag[2:]] == str(out)
    machine = man["machine"]
    assert set(machine) == {"nproc", "python", "numpy", "scipy", "blas", "blas_version"}
    assert machine["nproc"] == len(os.sched_getaffinity(0)) >= 1
    assert machine["python"] == platform.python_version()
    assert (machine["numpy"], machine["scipy"]) == (np.__version__, scipy.__version__)
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (machine["blas"], machine["blas_version"]) == (blas["name"], blas.get("version"))
    if argv[0] in ("diameter", "gap") and flag == "--csv":
        assert text == printed
    if flag == "--dat":  # n and the normalized gap of each printed row
        rows = [r.split(",") for r in printed.splitlines()[1:]]
        assert text == "".join(f"{r[0]} {r[4]}\n" for r in rows)
        assert [r[0] for r in rows] == ["2", "3", "4"]
    if pinned is not None:
        assert out.read_bytes() == pinned


def test_manifest_wall_time_survives_clock_step(tmp_path, monkeypatch):
    # the wall clock steps back 1000 s at every read, as a clock correction can
    clock = itertools.count(1e9, -1000.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    csv = tmp_path / "diam.csv"
    assert run(["diameter", "--builtin", "bellaterra", "--from", "1", "--to", "4",
                "--csv", str(csv)]) == 0
    man = json.loads((tmp_path / "diam.csv.manifest.json").read_text())
    assert man["wall_time_s"] >= 0


def test_diameter_bound_mode(capsys):
    assert run(["diameter", "--builtin", "aleshin", "--from", "3", "--to", "3",
                "--mode", "bound", "--seed", "7"]) == 0
    assert capsys.readouterr().out == "n,lower,upper\n3,2,4\n"
    assert run(["diameter", "--builtin", "bellaterra", "--from", "12", "--to", "16",
                "--mode", "bound"]) == 0
    assert capsys.readouterr().out == ("n,lower,upper\n12,14,28\n13,16,30\n14,17,34\n"
                                       "15,18,36\n16,19,38\n")


def test_schreier_dot_export(tmp_path):
    dot = tmp_path / "g.dot"
    assert run(["schreier", "--builtin", "bellaterra", "--level", "2",
                "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("graph") or text.startswith("digraph")
    assert (tmp_path / "g.dot.manifest.json").exists()


def test_schreier_dot_limit_checked_before_building(tmp_path, monkeypatch, capsys):
    def build(*args, **kw):
        raise AssertionError("graph built before the DOT limit was checked")

    monkeypatch.setattr(cli, "build", build)
    dot = tmp_path / "g.dot"
    for level in ("13", "24", "1000000000"):
        assert run(["schreier", "--builtin", "aleshin", "--level", level,
                    "--dot", str(dot)]) == 2
        assert "too large for DOT" in capsys.readouterr().err
    assert not dot.exists()


def test_automaton_is_a_second_spelling_of_builtin(capsys):
    assert run(["info", "--builtin", "aleshin"]) == 0
    aleshin = capsys.readouterr().out
    assert run(["info", "--builtin", "bellaterra"]) == 0
    bellaterra = capsys.readouterr().out
    assert aleshin != bellaterra
    assert run(["info", "--builtin", "bellaterra", "--automaton", "aleshin"]) == 0
    assert capsys.readouterr().out == aleshin
    assert run(["info", "--automaton", "aleshin", "--builtin", "bellaterra"]) == 0
    assert capsys.readouterr().out == bellaterra
    assert run(["info", "--automaton", "aleshin", "--file", "x.txt"]) == 2


def test_transitive_subcommand(capsys):
    assert run(["transitive", "--builtin", "adding", "--state", "r"]) == 0
    assert "transitive" in capsys.readouterr().out


# outputs (0 1 2) and (0 1) generate S3, so no exact criterion applies
S3_MACHINE = """states: a b
alphabet: 0 1 2
a 0 1 a
a 1 2 b
a 2 0 b
b 0 1 b
b 1 0 b
b 2 2 a
"""


def test_transitive_orbit_fallback(tmp_path, capsys):
    from mealy.automaton import Automaton
    from mealy.levels import is_single_cycle, level_permutation

    table = tmp_path / "s3.aut"
    table.write_text(S3_MACHINE)
    M = Automaton.from_text(S3_MACHINE)
    for q, want in (("a", 6), ("b", 1)):
        # reference: one level permutation rebuilt per level
        first = next(n for n in range(1, 9) if not is_single_cycle(level_permutation(M, q, n)))
        assert first == want
        for levels in ("8", "30", "1000000000"):
            assert run(["transitive", "--file", str(table), "--state", q,
                        "--levels", levels]) == 0
            out = capsys.readouterr().out
            assert out.strip() == f"{q}: not transitive, first failing level {want} (orbit check)"
    assert run(["transitive", "--file", str(table), "--state", "a", "--levels", "5"]) == 0
    assert "transitive up to level 5" in capsys.readouterr().out


def test_transitive_stops_at_the_level_cap(tmp_path, monkeypatch, capsys):
    from mealy.automaton import builtin, dual

    # a cap of 5^4 points keeps the search cheap; the verdicts below it stand
    monkeypatch.setattr(cli, "LEVEL_CAP", 5**4)
    d52, s3 = tmp_path / "d52.aut", tmp_path / "s3.aut"
    d52.write_text(dual(builtin("bireversible52")).to_text())
    s3.write_text(S3_MACHINE)
    unknown = " (no exact criterion; unknown beyond)"
    for table, q, levels, out in (
        (d52, "0", "12", "0: transitive up to level 4, the highest the level caps allow" + unknown),
        (d52, "0", "4", "0: transitive up to level 4" + unknown),
        (d52, "0", "3", "0: transitive up to level 3" + unknown),
        # a fails first at level 6, and 3^6 points are above the cap
        (s3, "a", "8", "a: transitive up to level 5, the highest the level caps allow" + unknown),
        (s3, "b", "8", "b: not transitive, first failing level 1 (orbit check)"),
    ):
        assert run(["transitive", "--file", str(table), "--state", q, "--levels", levels]) == 0
        assert capsys.readouterr().out.strip() == out
    assert run(["transitive", "--file", str(d52), "--state", "0", "--levels", "-3"]) == 2
    assert capsys.readouterr().err.strip() == "error: level -3 is below 0"


def test_cotransitive_subcommand(capsys):
    assert run(["cotransitive", "--builtin", "bellaterra", "--budget", "4"]) == 0
    out = capsys.readouterr().out
    assert "no" in out


def test_cotransitive_budget_past_the_cap_reports_unknown(capsys):
    # level 11 is above the level cap: the verdict reached at level 10 is kept
    args = ["cotransitive", "--builtin", "bireversible52", "--budget", "12"]
    assert run(args + ["--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["verdict"], d["level"], d["evidence"]["capped_at"]) == ("unknown", 10, "10")
    assert "'0'" in d["evidence"]["surviving_states"]
    assert run(args) == 0
    assert capsys.readouterr().out.strip() == (
        "cotransitive: unknown (undecided at level 10, the highest the level caps allow)")


def test_classify_writes_report(tmp_path, capsys):
    out = tmp_path / "census.json"
    assert run(["classify", "--states", "2", "--letters", "2", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["classes_total"] == 24
    assert (tmp_path / "census.json.manifest.json").exists()


def test_classify_jobs_match_single(tmp_path):
    single, jobs = tmp_path / "s.json", tmp_path / "j.json"
    assert run(["classify", "--states", "3", "--letters", "2",
                "--out", str(single)]) == 0
    assert run(["classify", "--states", "3", "--letters", "2", "--jobs", "2",
                "--out", str(jobs)]) == 0
    ds, dj = json.loads(single.read_text()), json.loads(jobs.read_text())
    ds.pop("shard"), dj.pop("shard")
    assert ds == dj


def test_classify_shard(capsys):
    assert run(["classify", "--states", "2", "--letters", "2", "--shard", "0/2"]) == 0
    assert "classes" in capsys.readouterr().out


def test_classify_jobs_below_one_is_usage_error(capsys):
    for jobs in ("0", "-3"):
        assert run(["classify", "--states", "2", "--letters", "2", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


def test_classify_jobs_reach_key_pass_with_shard(tmp_path, key_pass, monkeypatch):
    from mealy import levels
    from mealy.classify import classify_cotransitive

    out = tmp_path / "s.json"
    # (3,2) is below the cut, and so are its level passes: no pool; above
    # it, min(jobs, CPUs) ranges (key_pass has 3 CPUs), and the level
    # passes of the pipeline split on the pool too
    for cut, jobs, k in ((levels._SPLIT_CUT, "2", 1), (1, "1", 1), (1, "2", 2), (1, "100000", 3)):
        monkeypatch.setattr(levels, "_SPLIT_CUT", cut)
        key_pass.ranges.clear()
        key_pass.shares.clear()
        key_pass.pool.submitted = 0
        assert run(["classify", "--states", "3", "--letters", "2", "--shard", "1/3",
                    "--jobs", jobs, "--out", str(out)]) == 0
        assert key_pass.ranges == [k]
        assert (key_pass.pool.submitted > 0) == (cut == 1)
        assert sorted(key_pass.shares) == [(5832 * i // k, 5832 * (i + 1) // k) for i in range(k)]
        want = classify_cotransitive(3, 2, shard=(1, 3))
        assert out.read_text() == want.to_json() + "\n"


def test_verify_bellaterra(capsys):
    assert run(["verify", "bellaterra", "--level", "6", "--lemma-n", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 3
    assert "FAIL" not in out


def _series_fails():
    raise ValueError("parity")


@pytest.mark.parametrize("name,broken,line", [
    ("wreath_table_check", lambda n: WreathReport(n, ok=False), "wreath table"),
    ("F_solution", _series_fails, "series solution"),
    ("lemma_transitive_check", lambda n: False, "dual transitivity"),
    ("aleshin_relation_check", lambda n: AleshinReport(n, {}, False, True), "sister relation"),
    ("aleshin_relation_check", lambda n: AleshinReport(n, {}, True, False), "sister relation"),
])
def test_verify_bellaterra_fails_on_each_check(monkeypatch, capsys, name, broken, line):
    monkeypatch.setattr(cli, name, broken)
    assert run(["verify", "bellaterra", "--level", "2", "--lemma-n", "2"]) == 1
    failed = [row for row in capsys.readouterr().out.splitlines() if "FAIL" in row]
    assert len(failed) == 1 and line in failed[0]


def test_verify_bellaterra_sister_relation_from_level_2(capsys):
    for level, code in ((0, 1), (1, 1), (2, 0), (3, 0)):
        assert run(["verify", "bellaterra", "--level", str(level), "--lemma-n", "2"]) == code
        failed = [row for row in capsys.readouterr().out.splitlines() if "FAIL" in row]
        assert [row.split()[0] for row in failed] == ["sister"] * code


def test_verify_preperiod(tmp_path, capsys):
    csv = tmp_path / "h.csv"
    assert run(["verify", "preperiod", "--n", "200", "--adding-n", "500",
                "--csv", str(csv)]) == 0
    assert "PASS" in capsys.readouterr().out
    rows = csv.read_text().strip().splitlines()
    assert len(rows) == 200
    assert rows[0] == "1 1"


def test_growth_subcommand(tmp_path, capsys):
    csv = tmp_path / "g.csv"
    assert run(["growth", "--n", "150", "--adding-n", "300", "--csv", str(csv)]) == 0
    assert "slope" in capsys.readouterr().out
    assert len(csv.read_text().strip().splitlines()) == 150


def test_steer_by_input(capsys):
    assert run(["steer", "--builtin", "aleshin", "--letter", "0",
                "--input", "11011"]) == 0
    assert capsys.readouterr().out.strip()


def test_steer_by_witness_level(capsys):
    assert run(["steer", "--builtin", "bellaterra", "--letter", "1",
                "--witness-level", "6"]) == 0
    assert capsys.readouterr().out.strip()


def test_failed_steering_self_check_is_no_usage_error(monkeypatch, capsys):
    from mealy import schreier

    monkeypatch.setattr(schreier, "act", lambda M, w, s: tuple(s))
    code = run(["steer", "--builtin", "aleshin", "--letter", "0", "--input", "0110"])
    assert code not in (0, 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: steering self-check failed")


def test_steer_without_a_cycling_section_is_usage_error(tmp_path, capsys):
    from mealy.automaton import builtin, dual

    # no power of dual(div3)'s level-0 cycler turns letter 0 into 1
    table = tmp_path / "dual-div3.aut"
    table.write_text(dual(builtin("div3")).to_text())
    assert run(["steer", "--file", str(table), "--letter", "1", "--input", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: level 0: 3 applications of the level cycler do not put "
                            "letter '1' at position 0\n")


def test_file_loading(tmp_path, capsys):
    from mealy.automaton import builtin
    table = tmp_path / "m.aut"
    table.write_text(builtin("adding").to_text())
    assert run(["info", "--file", str(table)]) == 0
    assert "cyclic" in capsys.readouterr().out


# usage errors: exit code 2, no traceback

def test_exhausted_witness_budget_is_usage_error(capsys):
    assert run(["steer", "--builtin", "bellaterra", "--letter", "1",
                "--witness-level", "9", "--budget", "2"]) == 2
    assert "error: no witness for level 9 within budget 2" in capsys.readouterr().err


def test_missing_automaton_is_usage_error():
    assert run(["info"]) == 2


def test_unknown_builtin_is_usage_error():
    assert run(["info", "--builtin", "nonesuch"]) == 2


def test_bad_shard_is_usage_error():
    assert run(["classify", "--states", "2", "--letters", "2", "--shard", "5"]) == 2


def test_big_census_needs_long_flag():
    assert run(["classify", "--states", "5", "--letters", "2"]) == 2


def test_steer_needs_target():
    assert run(["steer", "--builtin", "aleshin", "--letter", "0"]) == 2


def test_act_rejects_foreign_letters():
    assert run(["act", "--builtin", "adding", "--word", "r", "--input", "012"]) == 2


def test_level_above_cap_is_usage_error(capsys):
    assert run(["schreier", "--builtin", "aleshin", "--level", "30"]) == 2
    assert "error:" in capsys.readouterr().err


def test_diameter_above_exact_cap_is_usage_error(capsys):
    assert run(["diameter", "--builtin", "aleshin", "--from", "15", "--to", "15"]) == 2
    assert "error:" in capsys.readouterr().err
