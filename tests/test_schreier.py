import os
import subprocess
import sys
import tracemalloc
from itertools import product as iproduct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealy import schreier
from mealy.automaton import BUILTIN_NAMES, Automaton, act, act_inf, builtin, dual, union
from mealy.levels import index_word, level_permutation, word_index
from mealy.schreier import (
    EXACT_DIAMETER_CAP,
    LiftReport,
    WitnessNotFound,
    ball_size,
    build,
    diameter,
    eccentricity,
    find_level_witness,
    first_divergence,
    level_cycler,
    lift_rules,
    steer_to,
    verify_lift,
)
from mealy.words import EventuallyPeriodicWord, GroupWord

B = builtin("bellaterra")
A = builtin("aleshin")


def test_build_shapes():
    G = build(B, 5)
    assert G.n_vertices == 32
    assert G.perms.shape == (3, 32)


def test_generator_rows_drop_repeats():
    # bellaterra's three generators are involutions: each map is its own
    # inverse, so level 6 gives exactly its 3 maps; union(B, B) repeats them.
    # Aleshin has no involution; the adding machine's identity state i is one
    for M, n, count in ((B, 6, 3), (union(B, B), 6, 3), (A, 6, 6), (builtin("adding"), 5, 3)):
        G = build(M, n)
        rows = schreier._generator_rows(G)
        oracle = {tuple(p) for p in G.perms} | {tuple(np.argsort(p)) for p in G.perms}
        assert len(rows) == len(oracle) == count
        assert {tuple(r) for r in rows} == oracle
    G = build(B, 6)
    assert all(np.array_equal(r, p) for r, p in zip(schreier._generator_rows(G), G.perms))


def test_build_requires_invertible():
    from mealy.automaton import Automaton
    M = Automaton(["q"], ["0", "1"], {("q", "0"): "q", ("q", "1"): "q"},
                  {("q", "0"): "0", ("q", "1"): "0"})
    with pytest.raises(ValueError):
        build(M, 3)


def _reference_distances(G, source):
    """Plain BFS over the undirected generator edges; -1 marks unreachable."""
    nbrs = [row.tolist() for p in G.perms for row in (p, np.argsort(p))]
    ref = [-1] * G.n_vertices
    ref[source] = 0
    frontier = [source]
    r = 0
    while frontier:
        r += 1
        nxt = []
        for v in frontier:
            for row in nbrs:
                u = row[v]
                if ref[u] < 0:
                    ref[u] = r
                    nxt.append(u)
        frontier = nxt
    return np.array(ref)


def _reference_eccentricity(G, source):
    """The reference BFS's greatest distance; None when the graph is disconnected."""
    d = _reference_distances(G, source)
    return None if (d < 0).any() else int(d.max())


def test_eccentricity_against_reference_bfs():
    G = build(B, 6)
    for v in range(G.n_vertices):
        assert eccentricity(G, v) == _reference_distances(G, v).max()


def test_diameter_series_pinned():
    # levels 12..14 (4,097..16,384 vertices, several source passes) pinned
    # from a per-vertex eccentricity maximum
    levels = [*range(1, 9), 12, 13, 14]
    assert [diameter(build(B, n)) for n in levels] == [1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17]
    assert [diameter(build(A, n)) for n in levels] == [1, 1, 2, 2, 3, 4, 4, 5, 7, 8, 8]


@st.composite
def _random_levels(draw):
    """A random invertible machine over 2 or 3 letters and a small level."""
    a = draw(st.sampled_from([2, 3]))
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    letters = [str(x) for x in range(a)]
    trans, out = {}, {}
    for s in states:
        for x, y in zip(letters, draw(st.permutations(letters))):
            trans[s, x] = draw(st.sampled_from(states))
            out[s, x] = y
    n = draw(st.integers(0, 8 if a == 2 else 5))
    return Automaton(states, letters, trans, out), n


@settings(max_examples=150, deadline=None)
@given(_random_levels(), st.sampled_from([schreier._PASS_SOURCES, 64, 37, 9, 5]),
       st.sampled_from([schreier._GATHER, 100, 7, 1]))
def test_diameter_matches_eccentricity_oracle(machine, pass_sources, gather):
    # 3^n vertices fill no whole 64-lane word; a small pass size splits the
    # sources into several passes with a partial last one, on 8-bit lanes
    # below 9 sources; a small gather size splits each level's gathers the
    # same way
    M, n = machine
    G = build(M, n)
    ecc = [_reference_eccentricity(G, v) for v in range(G.n_vertices)]
    with mock.patch.object(schreier, "_PASS_SOURCES", pass_sources), \
            mock.patch.object(schreier, "_GATHER", gather):
        if None in ecc:
            with pytest.raises(ValueError, match="disconnected"):
                diameter(G)
        else:
            assert diameter(G) == max(ecc)
    if n == 0:
        assert diameter(G) == 0


@settings(max_examples=100, deadline=None)
@given(_random_levels(), st.sampled_from([1, 16, 40]), st.integers(0, 3),
       st.sampled_from([schreier._GATHER, 7]))
def test_diameter_bounds_match_reference_eccentricities(machine, sample, seed, gather):
    # 1, 16 and 40 samples plus x^n run on 8-, 32- and 64-bit lanes
    M, n = machine
    G = build(M, n)
    sources = {0}
    if G.n_vertices > 1:
        rng = np.random.default_rng(seed)
        sources |= set(rng.integers(0, G.n_vertices, size=min(sample, G.n_vertices)).tolist())
    ecc = [_reference_eccentricity(G, v) for v in sorted(sources)]
    with mock.patch.object(schreier, "_GATHER", gather):
        if None in ecc:
            with pytest.raises(ValueError, match="disconnected"):
                diameter(G, "bound", sample, seed)
        else:
            assert diameter(G, "bound", sample, seed) == (max(ecc), 2 * ecc[0])


def test_diameter_bound_rejects_negative_sample():
    with pytest.raises(ValueError, match="sample"):
        diameter(build(B, 3), "bound", sample=-1)


def test_diameter_trivial_and_disconnected():
    ident = Automaton(["e"], "012", {("e", x): "e" for x in "012"}, {("e", x): x for x in "012"})
    assert diameter(build(ident, 0)) == 0
    assert diameter(build(B, 0)) == 0
    with pytest.raises(ValueError, match="disconnected"):
        diameter(build(ident, 2))
    with pytest.raises(ValueError, match="disconnected"):
        eccentricity(build(ident, 2), 4)


def test_exact_diameter_memory_at_cap():
    # the largest exact size; one dense n_v x n_v bool matrix would be 256 MB
    G = build(A, 14)
    assert G.n_vertices == EXACT_DIAMETER_CAP
    tracemalloc.start()
    try:
        assert diameter(G) == 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_diameter_bounds_sandwich_exact():
    for n in (5, 7):
        G = build(B, n)
        lo, hi = diameter(G, "bound", sample=8, seed=3)
        assert lo <= diameter(G) <= hi


def test_eccentricity_at_most_diameter():
    G = build(A, 7)
    assert eccentricity(G, 0) <= diameter(G)


def test_ball_size_monotone_and_saturating():
    sizes = [ball_size(B, "1", r) for r in range(8)]
    assert sizes == sorted(sizes)
    assert sizes[:7] == [1, 3, 7, 15, 31, 61, 127]


def test_ball_size_is_infinite_level_count():
    # radius-r ball around 1^inf only depends on the first ~r letters;
    # with an explicit horizon the count must agree
    assert ball_size(B, "1", 4) == ball_size(B, "1", 4, L=16)


def test_find_level_witness_contract():
    for M in (B, A):
        for n in range(1, 13):
            u = find_level_witness(M, "1", n, 2 * n)
            assert len(u) <= 2 * n
            assert act(M, u, "1" * n) == "1" * n
            d = first_divergence(M, u, "1")
            assert d is not None and d >= n


def test_find_level_witness_budget_failure():
    with pytest.raises(WitnessNotFound):
        find_level_witness(B, "1", 9, 2)


def test_first_divergence():
    u = find_level_witness(B, "0", 5, 10)
    assert first_divergence(B, u, "0") == 5


BUILTINS = ("adding", "aleshin", "bellaterra", "bireversible52", "conjugator", "div3",
            "affine(2,3)", "affine(3,4)")


def _act_inf_scan(M, w, x):
    """First letter other than x in the act_inf image of x x x ..., or None."""
    img = act_inf(M, w, EventuallyPeriodicWord.constant(x))
    return next((i for i, y in enumerate(img.preperiod + img.period) if y != x), None)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(BUILTINS), st.data())
def test_first_divergence_matches_act_inf_scan(name, data):
    M = builtin(name)
    letter = st.tuples(st.sampled_from(M.states), st.sampled_from((1, -1)))
    w = GroupWord(data.draw(st.lists(letter, max_size=5)))
    x = data.draw(st.sampled_from(M.alphabet))
    assert first_divergence(M, w, x) == _act_inf_scan(M, w, x)


def test_first_divergence_of_empty_word():
    for name in BUILTINS:
        M = builtin(name)
        for x in M.alphabet:
            assert first_divergence(M, GroupWord(), x) is None
            assert _act_inf_scan(M, GroupWord(), x) is None


def test_level_cycler_diverges_exactly_at_level():
    for m in range(6):
        w = level_cycler(B, "1", m)
        assert first_divergence(B, w, "1") == m


def test_level_cycler_cache_keys_on_budget():
    level_cycler(B, "1", 6)
    with pytest.raises(WitnessNotFound):
        level_cycler(B, "1", 6, budget=1)


def test_level_cycler_checks_the_witness_contract(monkeypatch):
    # a witness that never moves x x x ... breaks the contract: an explicit raise
    monkeypatch.setattr(schreier, "find_level_witness", lambda *args: GroupWord())
    with pytest.raises(AssertionError, match="witness contract violated"):
        level_cycler(B, "1", 3, budget=97)


def test_level_cycler_cache_is_bounded():
    from mealy.schreier import _level_cycler
    for b in range(256 + 5):
        level_cycler(B, "1", 0, budget=b + 1)
    assert _level_cycler.cache_info().currsize <= 256


@settings(deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=9))
def test_steer_to_reaches_target(s):
    w = steer_to(A, "0", s)
    assert act(A, w, s) == "0" * len(s)


def _steer_naive(M, x, s, counts):
    """steer_to on letter symbols: act on the whole image for every applied
    cycler, and one product per application; appends the number of
    applications per level to counts."""
    letters = tuple(s)
    cur = letters
    total = GroupWord()
    for m in range(len(letters)):
        if cur[m] == x:
            continue
        cyc = level_cycler(M, x, m)
        applied = 0
        while cur[m] != x:
            applied += 1
            if applied > M.n_letters:
                raise ValueError(f"level {m}: {M.n_letters} applications of the level cycler "
                                 f"do not put letter {x!r} at position {m}")
            cur = tuple(act(M, cyc, cur))
            total = cyc * total
        counts.append(applied)
    return total.reduce()


def _steer_outcome(steer, *args):
    try:
        return steer(*args)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("M", [A, B, dual(builtin("div3"))], ids=["aleshin", "bellaterra", "dual-div3"])
def test_steer_to_matches_symbol_loop(M):
    counts = []
    # every word of length <= 8 over two letters, <= 6 over three
    for n in range(9 if M.n_letters == 2 else 7):
        for s in iproduct(M.alphabet, repeat=n):
            for x in M.alphabet:
                want = _steer_outcome(_steer_naive, M, x, s, counts)
                assert _steer_outcome(steer_to, M, x, s) == want, (x, s)
    # the 3-letter alphabet of dual(div3) needs a cycler twice on one level
    assert max(counts) == M.n_letters - 1


def test_steer_to_self_check_raises(monkeypatch):
    # act returns the input unmoved: the final check must fail, and as an
    # explicit raise, so python -O keeps it
    monkeypatch.setattr(schreier, "act", lambda M, w, s: tuple(s))
    with pytest.raises(AssertionError, match="steering self-check failed"):
        steer_to(A, "0", "0110")


def test_checks_survive_optimized_python():
    code = ("from mealy import schreier\n"
            "from mealy.automaton import builtin\n"
            "schreier.act = lambda M, w, s: tuple(s)\n"
            "schreier.steer_to(builtin('aleshin'), '0', '0110')\n")
    src = str(Path(schreier.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode != 0
    assert "AssertionError: steering self-check failed" in done.stderr


def test_steer_word_length_quadratic():
    w = steer_to(B, "0", "1" * 10)
    assert len(w) <= 100


def test_lift_rules_pinned():
    assert lift_rules(B) == {
        "a": (("c", "c"), True),
        "b": (("a", "b"), False),
        "c": (("b", "a"), False),
    }
    assert lift_rules(A) == {
        "a": (("c", "c"), False),
        "b": (("a", "b"), True),
        "c": (("b", "a"), True),
    }


def test_lift_rules_need_two_clean_preimages():
    # the identity state of the adding machine has three incoming edges
    assert lift_rules(builtin("adding")) is None


def test_lift_rules_conjugator_pinned():
    assert lift_rules(builtin("conjugator")) == {
        "a": (("c", "a"), False),
        "b": (("b", "b"), True),
        "c": (("a", "c"), False),
    }


def test_lift_rules_absent_for_large_alphabet():
    assert lift_rules(builtin("affine(1,3)")) is None


def test_verify_lift_levels():
    for M in (B, A):
        r = verify_lift(M, 8)
        assert bool(r)
        assert r.max_level == 8


def test_lift_report_truth_is_ok():
    assert not LiftReport(False, None, {"level": 1}, 3)
    assert LiftReport(True, None, None, 3)


def test_verify_lift_catches_tampering():
    from mealy.automaton import Automaton
    M = Automaton.from_text(B.to_text())
    assert verify_lift(M, 6)
    # the walk route reads the step table; a wrong output of c on 0 shows on level 1
    M.step_table()[2][0] = (0, 0)
    r = verify_lift(M, 6)
    assert not r
    assert (r.counterexample["level"], r.counterexample["state"]) == (1, "c")
    # a wrong next state of a on 0 (c instead of b) shows on level 2
    M = Automaton.from_text(B.to_text())
    M.step_table()[0][0] = (0, 2)
    r = verify_lift(M, 6)
    assert not r
    assert (r.counterexample["level"], r.counterexample["state"]) == (2, "a")


def test_level_edges_match_permutation_action():
    G = build(A, 6)
    for qi, q in enumerate(A.states):
        assert np.array_equal(G.perms[qi], level_permutation(A, q, 6))


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "affine(k,m)"]
                         + ["affine(2,3)", "affine(3,4)"])
def test_act_index_matches_act(name):
    # rows 0..|Q|-1 are the states, |Q|..2|Q|-1 their inverses
    M = builtin(name)
    gens = [GroupWord([(q, s)]) for s in (1, -1) for q in M.states]
    for row, w in enumerate(gens):
        for n in range(7):
            for v in range(M.n_letters**n):
                want = word_index(M, act(M, w, index_word(M, v, n)))
                assert schreier._act_index(M, row, v, n) == want, (row, v, n)


def _bfs_by_act(M, x, L, rounds):
    """The walk of _word_bfs from x^L through act on letter words, each state
    before its inverse."""
    gens = [(q, s) for q in M.states for s in (1, -1)]
    v0 = word_index(M, (x,) * L)
    out, seen, frontier = [(v0, None, None)], {v0}, [v0]
    for _ in range(rounds):
        nxt = []
        for v in frontier:
            for g in gens:
                u = word_index(M, act(M, GroupWord([g]), index_word(M, v, L)))
                if u not in seen:
                    seen.add(u)
                    out.append((u, v, g))
                    nxt.append(u)
        frontier = nxt
    return out


@pytest.mark.parametrize("name", ["bellaterra", "aleshin", "affine(2,3)"])
def test_word_bfs_order_matches_act(name):
    M = builtin(name)
    for x in M.alphabet:
        assert list(schreier._word_bfs(M, x, 7, 4)) == _bfs_by_act(M, x, 7, 4)
