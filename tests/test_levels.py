import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealy import levels
from mealy.automaton import BUILTIN_NAMES, Automaton, act, builtin, dual
from mealy.classify import _key_tables, canonical_keys
from mealy.levels import (
    LEVEL_CAP,
    WALK_CUTOFF,
    all_level_maps,
    has_spanning_orbit,
    index_word,
    invert_perm,
    is_single_cycle,
    level_maps,
    level_permutation,
    word_index,
)

B = builtin("bellaterra")
A = builtin("aleshin")


def test_word_index_is_lsd_first():
    # first letter is the least significant digit
    assert word_index(B, "10") == 1
    assert word_index(B, "01") == 2
    assert word_index(B, "111") == 7


@given(st.integers(min_value=0, max_value=255))
def test_index_word_roundtrip(v):
    assert word_index(B, index_word(B, v, 8)) == v


def test_level_maps_agree_with_act():
    n = 6
    P = level_maps(B, n)
    for qi, q in enumerate(B.states):
        for v in range(0, 2**n, 7):
            w = index_word(B, v, n)
            assert index_word(B, int(P[qi][v]), n) == tuple(act(B, q, w))


def test_level_maps_are_permutations():
    P = level_maps(A, 7)
    for row in P:
        assert np.array_equal(np.sort(row), np.arange(2**7))


def test_all_level_maps_prefix_consistency():
    ms = all_level_maps(B, 5)  # levels 0..5
    assert [m.shape[1] for m in ms] == [1, 2, 4, 8, 16, 32]
    # image of a prefix is the prefix of the image: P_{k+1}(v) mod 2^k = P_k(v mod 2^k)
    for k in range(5):
        v = np.arange(2 ** (k + 1))
        for qi in range(3):
            assert np.array_equal(ms[k + 1][qi][v] % 2**k, ms[k][qi][v % 2**k])


def test_invert_perm():
    p = np.array([2, 0, 1])
    assert np.array_equal(invert_perm(p)[p], np.arange(3))


def test_level_permutation_composes():
    n = 6
    pa = level_permutation(A, "a", n)
    pb = level_permutation(A, "b", n)
    # rightmost acts first: word ab is a after b
    assert np.array_equal(level_permutation(A, "ab", n), pa[pb])


def test_level_permutation_primed():
    n = 5
    pc = level_permutation(B, "c", n)
    assert np.array_equal(level_permutation(B, "c'", n), invert_perm(pc))


def test_is_single_cycle():
    assert is_single_cycle(np.array([1, 2, 0]))
    assert not is_single_cycle(np.array([1, 0, 2]))
    assert is_single_cycle(np.array([0]))


def test_adding_machine_is_a_full_cycle_every_level():
    ADD = builtin("adding")
    for n in range(1, 9):
        assert is_single_cycle(level_permutation(ADD, "r", n))


def test_has_spanning_orbit():
    assert has_spanning_orbit(np.array([1, 2, 3, 0]))  # 4-cycle
    assert not has_spanning_orbit(np.array([1, 0, 3, 2]))  # two 2-cycles
    # non-bijective: tail 0 -> 1 feeding the cycle 1 -> 2 -> 3 -> 1
    assert has_spanning_orbit(np.array([1, 2, 3, 1]))
    assert not has_spanning_orbit(np.array([0, 0, 3, 3]))  # two points missing


def test_maps_out_of_range_are_refused():
    # not maps into range(N): False, not an IndexError or a bincount ValueError
    high = level_permutation(builtin("adding"), "r", 12)
    low = high.copy()
    high[5] += len(high)  # p % 2 still looks compatible
    low[5] -= len(low)
    for F in ([3, 0, 1], [1, 2, 5], [-1, 0, 1], [1, -2, 0], [1], high, low):
        for dtype in (np.int32, np.int64):
            assert not is_single_cycle(np.array(F, dtype=dtype)), F
            assert not has_spanning_orbit(np.array(F, dtype=dtype)), F
    assert not has_spanning_orbit([3, 0, 1])


def _orbit_oracle(F):
    """(has a spanning orbit, is one full cycle) from a set-based orbit of
    every start point."""
    F = [int(v) for v in F]
    N = len(F)

    def orbit_size(v):
        seen = set()
        while v not in seen:
            seen.add(v)
            v = F[v]
        return len(seen)

    spans = any(orbit_size(v) == N for v in range(N))
    return spans, spans and sorted(F) == list(range(N))


@st.composite
def level_like_maps(draw):
    """(kind, map): a permutation, a single cycle, a tail into a cycle, or a
    permutation with one or two points sent to another point's image; as an
    int32 or int64 array, possibly a strided view."""
    kind = draw(st.sampled_from(["perm", "cycle", "tail", "one_missing", "two_missing"]))
    N = draw(st.integers({"tail": 2, "one_missing": 2, "two_missing": 4}.get(kind, 1), 40))
    order = draw(st.permutations(range(N)))
    F = list(order)
    if kind in ("cycle", "tail"):
        for i in range(N):
            F[order[i]] = order[(i + 1) % N]
    if kind == "tail":
        # order[0] leaves the image: a tail into the cycle through order[k]
        F[order[-1]] = order[draw(st.integers(1, N - 1))]
    if kind in ("one_missing", "two_missing"):
        # each redirected point's old image leaves the image
        pts = draw(st.permutations(range(N)))
        F[pts[0]] = F[pts[1]]
        if kind == "two_missing":
            F[pts[2]] = F[pts[3]]
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    arr = np.array(F, dtype=dtype)
    if draw(st.booleans()):
        buf = np.full(2 * N, -1, dtype=dtype)
        buf[::2] = arr
        arr = buf[::2]
    return kind, arr


@settings(max_examples=300, deadline=None)
@given(level_like_maps())
def test_orbit_walk_matches_set_oracle(case):
    kind, F = case
    spans, cycle = _orbit_oracle(F)
    assert has_spanning_orbit(F) == spans
    assert is_single_cycle(F) == cycle
    if kind == "cycle":
        assert cycle
    if kind == "tail":
        assert spans and not cycle
    if kind == "two_missing":
        assert not spans


def _walk_oracle(F):
    """(has a spanning orbit, is one full cycle) by one plain walk, from the
    only point outside the image or, for a bijection, from 0."""
    F = [int(v) for v in F]
    N = len(F)
    missing = sorted(set(range(N)) - set(F))
    if len(missing) > 1:
        return False, False
    spans = levels._walk(F, missing[0] if missing else 0, bytearray(N)) == N
    return spans, spans and not missing


def _assert_kernel_matches_walk(F):
    """Both answers against _walk_oracle, as int32, int64 and a strided view."""
    want = _walk_oracle(F)
    buf = np.full(2 * len(F), -1, dtype=np.int64)
    buf[::2] = F
    for arr in (np.asarray(F, dtype=np.int32), np.asarray(F, dtype=np.int64), buf[::2]):
        assert (has_spanning_orbit(arr), is_single_cycle(arr)) == want
    return want


def _levels_around_cutoff(a):
    """Levels whose size lies from just below WALK_CUTOFF to 16 times above it."""
    return [n for n in range(1, 20) if WALK_CUTOFF // a <= a**n <= 16 * WALK_CUTOFF]


def test_first_return_matches_walk_on_builtin_level_maps():
    names = [n for n in BUILTIN_NAMES if n != "affine(k,m)"] + ["affine(2,3)", "affine(3,4)"]
    cycles = 0
    for M in [m for name in names for m in (builtin(name), dual(builtin(name)))]:
        for n in _levels_around_cutoff(M.n_letters):
            for row in level_maps(M, n):
                cycles += _assert_kernel_matches_walk(row)[1]
    assert cycles > 0


@st.composite
def invertible_automata(draw):
    """Invertible automata with 1-3 states over 2-5 letters."""
    nq, na = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    t = draw(st.lists(st.lists(st.integers(0, nq - 1), min_size=na, max_size=na),
                      min_size=nq, max_size=nq))
    # powers of one a-cycle make level-transitive states common
    powers = [[(x + k) % na for x in range(na)] for k in range(na)]
    o = draw(st.lists(st.just(powers[1]) | st.sampled_from(powers) | st.permutations(range(na)),
                      min_size=nq, max_size=nq))
    return Automaton([f"q{i}" for i in range(nq)], [str(x) for x in range(na)], t, o)


@settings(max_examples=60, deadline=None)
@given(invertible_automata())
def test_first_return_matches_walk_on_random_automata(M):
    a = M.n_letters
    n = min(n for n in range(1, 20) if a**n > WALK_CUTOFF)
    for row in level_maps(M, n):
        _assert_kernel_matches_walk(row)


# transitive level maps above the cutoff, for a = 2, 3, 5
_CYCLES = [(2, level_permutation(builtin("adding"), "r", 13)),
           (3, level_maps(dual(builtin("affine(3,4)")), 8)[1]),
           (5, level_maps(dual(builtin("bireversible52")), 6)[0])]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_CYCLES), st.data())
def test_first_return_matches_walk_on_perturbed_maps(case, data):
    # transpositions of images at positions congruent mod a^depth keep p
    # compatible down to that depth but make it no tree map; the first splits
    # the cycle, a second may merge it again
    a, F = case
    F = F.copy()
    assert is_single_cycle(F)
    for _ in range(data.draw(st.integers(1, 2))):
        step = a ** data.draw(st.integers(1, 4))
        i = data.draw(st.integers(0, len(F) - 1))
        j = (i + step * data.draw(st.integers(1, len(F) // step - 1))) % len(F)
        F[[i, j]] = F[[j, i]]
    _assert_kernel_matches_walk(F)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2053, 2310, 4096, 5000]), st.booleans(), st.integers(0, 2**32 - 1))
def test_first_return_matches_walk_without_compatible_divisor(N, cycle, seed):
    # random permutations and random N-cycles: no small divisor is compatible
    order = np.random.default_rng(seed).permutation(N)
    F = order
    if cycle:
        F = np.empty(N, dtype=np.int64)
        F[order] = np.roll(order, -1)
    found = _assert_kernel_matches_walk(F)[1]
    assert found or not cycle


def _open_walk_maps():
    """Maps into range(N) above the cutoff that first return reduces, none
    of them one cycle:
    - sigma_rho: 3i -> 3(i + 1) + 1, 3i + 1 <-> 3i + 2; sigma is the rho
      0 -> 1 -> 2 -> 1, and p^3(3i) // 3 = i + 1 would be one cycle;
    - first_return_tail: v -> v + 1, but N - 1 -> 2; sigma is a 2-cycle and
      the first-return map 1 -> 2 -> ... -> N/2 - 1 -> 1 leaves 0 a tail;
    - two_cycles: the same with 1 -> 0, so 0 <-> 1 is a cycle of its own.
    """
    N = 3 * 4096
    v = np.arange(N)
    rho = np.where(v % 3 == 0, (v + 3) % N + 1, np.where(v % 3 == 1, v + 1, v - 1))
    N = 1 << 13
    tail = (np.arange(N) + 1) % N
    tail[N - 1] = 2
    two = tail.copy()
    two[1] = 0
    return {"sigma_rho": rho, "first_return_tail": tail, "two_cycles": two}


@pytest.mark.parametrize("kind", ["sigma_rho", "first_return_tail", "two_cycles"])
def test_first_return_walks_must_close(kind):
    # a walk from 0 that marks every point but does not come back to 0 is a
    # rho, not a cycle; without the image mark only closing rejects these
    F = _open_walk_maps()[kind]
    assert len(F) > WALK_CUTOFF
    assert any(len(F) % d == 0 and levels._compatible(F, d)
               for d in range(2, levels.MAX_DIVISOR + 1))
    assert _assert_kernel_matches_walk(F)[1] is False
    assert (sorted(F) == list(range(len(F)))) == (kind == "two_cycles")


def test_first_return_walks_no_big_map(monkeypatch):
    # the 390,625-point map must be decided by first return: a fallback to
    # walking the whole map would record a walk above the cutoff
    D = dual(builtin("bireversible52"))
    p = level_maps(D, 8)[D.states.index("0")]
    walked = []
    walk = levels._walk

    def recording(F, v, seen):
        walked.append(walk(F, v, seen))
        return walked[-1]

    monkeypatch.setattr(levels, "_walk", recording)
    assert is_single_cycle(p)
    assert has_spanning_orbit(p)
    assert walked and max(walked) <= WALK_CUTOFF


def test_cycle_checks_allocate_few_bytes_per_point():
    # a one-byte image mark and fibers of N/5 points; a bincount, or an
    # index cast to intp, would take 8 bytes per point on its own
    D = dual(builtin("bireversible52"))
    p = level_maps(D, 8)[D.states.index("0")]
    for check in (is_single_cycle, has_spanning_orbit):
        tracemalloc.start()
        try:
            assert check(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(p), check.__name__


def test_cap_guard():
    with pytest.raises(MemoryError):
        level_maps(B, 30, cap=1 << 10)


def test_huge_level_refused_before_sizing():
    # a**n itself would be a 12.5 MB integer at n = 10**8
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            level_maps(B, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_array_cap_bounds_every_row_together(monkeypatch):
    # 3 rows of 2^8 points fit, 3 rows of 2^9 do not, though 2^9 <= LEVEL_CAP
    monkeypatch.setattr(levels, "ARRAY_CAP", 3 << 8)
    assert level_maps(B, 8).shape == (3, 256)
    with pytest.raises(MemoryError, match=r"3 rows of level size 2\^9"):
        level_maps(B, 9)
    with pytest.raises(MemoryError):
        all_level_maps(B, 9)
    # a search gets every level below the cap before it is refused
    got = []
    with pytest.raises(MemoryError, match=r"2\^9"):
        for P in levels._levels(B, 12, LEVEL_CAP):
            got.append(P.shape[1])
    assert got == [2**k for k in range(9)]


def test_refused_level_builds_nothing(monkeypatch):
    calls = []
    step = levels._level_step
    monkeypatch.setattr(levels, "_level_step", lambda *args: calls.append(1) or step(*args))
    for maps in (level_maps, all_level_maps):
        with pytest.raises(MemoryError, match=r"2\^9 exceeds cap 256"):
            maps(B, 9, cap=1 << 8)
    assert calls == []
    assert level_maps(B, 8, cap=1 << 8).shape == (3, 256)
    assert len(calls) == 8


def test_negative_level_refused():
    with pytest.raises(ValueError, match="below 0"):
        level_maps(B, -1)
    with pytest.raises(ValueError, match="below 0"):
        all_level_maps(A, -3)


def _random_map(rng, N, kind):
    """A seeded map of N points: a permutation, one N-cycle, a tail into a
    cycle, one or two image gaps, or an entry out of range."""
    order = rng.permutation(N)
    F = order.copy()
    if kind in ("cycle", "tail"):
        F[order] = np.roll(order, -1)
    if kind == "tail" and N > 1:
        # order[0] leaves the image: a tail into the cycle
        F[order[-1]] = order[rng.integers(1, N)]
    if kind in ("one_gap", "two_gaps") and N > 3:
        pts = rng.permutation(N)
        F[pts[0]] = F[pts[1]]
        if kind == "two_gaps":
            F[pts[2]] = F[pts[3]]
    if kind == "high":
        F[rng.integers(N)] += N
    if kind == "negative":
        F[rng.integers(N)] = -rng.integers(1, N + 1)
    return F


def _spans_by_walk(F):
    """The spanning answer of _walk_oracle, False for a map out of range."""
    return all(0 <= v < len(F) for v in F.tolist()) and _walk_oracle(F)[0]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 9, 64, 255, WALK_CUTOFF, WALK_CUTOFF + 1, 4096])
def test_stacked_spanning_matches_walk_oracle(N):
    rng = np.random.default_rng(N)
    kinds = ["perm", "cycle", "tail", "one_gap", "two_gaps", "high", "negative"]
    answers = set()
    # enough rows for the stacked walk, and a few for the walk row by row
    for m in (2 * levels._STACK_ROWS, 3):
        F = np.array([_random_map(rng, N, kinds[i % len(kinds)]) for i in range(m)])
        want = [_spans_by_walk(row) for row in F]
        answers.update(want)
        for dtype in (np.int32, np.int64):
            got = has_spanning_orbit(F.astype(dtype))
            assert got.dtype == bool and got.tolist() == want
        # a strided view, and the 1-d calls
        buf = np.full((m, 2 * N), -1, dtype=np.int64)
        buf[:, ::2] = F
        assert has_spanning_orbit(buf[:, ::2]).tolist() == want
        assert [has_spanning_orbit(row) for row in F] == want
    assert answers == {False, True}


def test_stacked_spanning_walks_every_row_at_once(monkeypatch):
    # below the cutoff many rows take the stacked walk, not one walk per row
    walked = []
    monkeypatch.setattr(levels, "_walk", lambda F, v, seen: walked.append(v))
    F = np.tile(np.roll(np.arange(WALK_CUTOFF), 1), (levels._STACK_ROWS, 1))
    assert has_spanning_orbit(F).all()
    assert not walked


def _class_tables(q, a):
    return _key_tables(canonical_keys(q, a), q, a)


def test_refute_dual_matches_one_table_at_a_time():
    # every (3,2) class at once against each class alone, and the first
    # failing level against the brute-force level maps of the dual
    T, O = _class_tables(3, 2)
    fail = levels._refute_dual(T, O, 4)
    assert fail.shape == (len(T), 2)
    for i in range(0, len(T), 17):
        assert levels._refute_dual(T[i:i + 1], O[i:i + 1], 4).tolist() == [fail[i].tolist()]
        D = dual(Automaton(["a", "b", "c"], ["0", "1"], T[i], O[i]))
        for x in range(2):
            spans = [has_spanning_orbit(level_maps(D, n)[x]) for n in range(1, 5)]
            assert fail[i, x] == (spans.index(False) + 1 if False in spans else 0)


def test_refute_dual_chunks_within_array_cap(monkeypatch):
    # one (3,2) row of dual level 4 is 2 * 3^4 entries: the cap lets one
    # table through at a time there, 27 at level 1
    T, O = _class_tables(3, 2)
    want = levels._refute_dual(T, O, 4)
    sizes = []
    step = levels._level_step

    def recording(o, t, P):
        new = step(o, t, P)
        sizes.append(new.size)
        return new

    monkeypatch.setattr(levels, "_level_step", recording)
    monkeypatch.setattr(levels, "ARRAY_CAP", 2 * 3**4)
    assert np.array_equal(levels._refute_dual(T, O, 4), want)
    assert max(sizes) <= levels.ARRAY_CAP and len(sizes) >= -(-len(T) // 27)


def test_refute_dual_stops_at_the_highest_level_the_caps_allow(monkeypatch):
    T, O = _class_tables(3, 2)
    want = levels._refute_dual(T, O, 2)
    assert (want == 0).any() and (want > 0).all(axis=1).any()
    monkeypatch.setattr(levels, "ARRAY_CAP", 2 * 3**2)  # level 3 is refused
    # refutations up to level 2 stand, and states alive there stay 0, at any
    # budget from the cap level on
    for budget in (2, 4, 12, 10**9):
        assert np.array_equal(levels._refute_dual(T, O, budget), want)


def test_refute_dual_budget_edges():
    T, O = _class_tables(2, 2)
    assert not levels._refute_dual(T, O, 0).any()
    assert levels._refute_dual(T[:0], O[:0], 4).shape == (0, 2)
    with pytest.raises(ValueError, match="below 0"):
        levels._refute_dual(T, O, -1)


# -- range split of the level kernels -------------------------------------------


class _CountingPool(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(3)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture(params=[1, 2, 3])
def both_ways(request, monkeypatch):
    """run(fn, *args) gives (fn(*args) unsplit, fn(*args) with every level
    kernel split into request.param ranges), on a pool of the test's own;
    run.parts and run.pool for the checks."""
    pool = _CountingPool()
    monkeypatch.setattr(levels, "_pool", pool)
    monkeypatch.setattr(levels.os, "sched_getaffinity", lambda pid: set(range(request.param)))

    def run(fn, *args):
        monkeypatch.setattr(levels, "_SPLIT_CUT", 1 << 62)
        want = fn(*args)
        monkeypatch.setattr(levels, "_SPLIT_CUT", 1)
        return want, fn(*args)

    run.parts, run.pool = request.param, pool
    yield run
    pool.shutdown()


def test_split_level_maps_match_unsplit(both_ways):
    names = [n for n in BUILTIN_NAMES if n != "affine(k,m)"]
    machines = [m for name in names for m in (builtin(name), dual(builtin(name)))]
    assert len(machines) == 12
    for M in machines:
        want, got = both_ways(all_level_maps, M, 8)
        for a, b in zip(want, got, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b), M.name
    assert (both_ways.pool.submitted > 0) == (both_ways.parts > 1)


def test_split_refute_dual_matches_unsplit(both_ways):
    T, O = _class_tables(3, 2)
    want, got = both_ways(levels._refute_dual, T, O, 5)
    assert np.array_equal(want, got) and want.any() and not want.all()


def _split_cases(rng):
    """1,000 maps above the cutoff: perturbed level-map cycles that first
    return reduces, random N-cycles, and random maps of _random_map kinds."""
    kinds = ["perm", "cycle", "tail", "one_gap", "two_gaps", "high", "negative"]
    for i in range(1000):
        if i % 3 == 0:
            a, F = _CYCLES[i % len(_CYCLES)]
            F = F.copy()
            for _ in range(i % 2):
                step = a ** int(rng.integers(1, 5))
                j = int(rng.integers(len(F)))
                k = (j + step * int(rng.integers(1, len(F) // step))) % len(F)
                F[[j, k]] = F[[k, j]]
            yield F
        else:
            N = int(rng.choice([2053, 2310, 4096, 5000, 3 * 4096]))
            yield _random_map(rng, N, kinds[i % len(kinds)] if i % 3 == 1 else "cycle")


def _first_half_compatible():
    """The N-cycle v -> v + 1 with two neighbours' images swapped near the
    end: every divisor d is compatible on the first half of the blocks and
    fails only there, so a split's first range alone would say yes."""
    N = 1 << 14
    F = (np.arange(N) + 1) % N
    F[[N - 3, N - 2]] = F[[N - 2, N - 3]]
    return F


def test_split_single_cycle_matches_unsplit(both_ways):
    # a seed per part count: 3,000 maps over the three
    rng = np.random.default_rng(both_ways.parts)
    answers = [both_ways(is_single_cycle, F) for F in _split_cases(rng)]
    assert all(want == got for want, got in answers)
    assert {want for want, _ in answers} == {False, True}
    F = _first_half_compatible()
    assert (F[:len(F) // 2].reshape(-1, 2) % 2 == [1, 0]).all()
    assert both_ways(levels._compatible, F, 2) == (False, False)
    for F in [*_open_walk_maps().values(), F]:
        for arr in (F.astype(np.int32), F.astype(np.int64), np.repeat(F, 2)[::2]):
            assert both_ways(is_single_cycle, arr) == (False, False)
            assert both_ways(has_spanning_orbit, arr) == tuple(2 * [_walk_oracle(F)[0]])
    assert (both_ways.pool.submitted > 0) == (both_ways.parts > 1)


def test_one_cpu_makes_no_pool(monkeypatch):
    monkeypatch.setattr(levels, "_pool", None)
    monkeypatch.setattr(levels, "_SPLIT_CUT", 1)
    monkeypatch.setattr(levels.os, "sched_getaffinity", lambda pid: {0})
    D = dual(builtin("bireversible52"))
    assert is_single_cycle(level_maps(D, 6)[D.states.index("0")])
    T, O = _class_tables(3, 2)
    levels._refute_dual(T, O, 4)
    assert levels._pool is None


def test_a_worker_that_cannot_pin_still_runs(monkeypatch):
    # CPU 4095 is not there: that worker stays unpinned, and the split holds;
    # a pool whose initializer raised would refuse every later submission
    assert len(os.sched_getaffinity(0)) < 4096
    levels._pin(iter([4095]))
    monkeypatch.setattr(levels, "_pool", None)
    monkeypatch.setattr(levels.os, "sched_getaffinity", lambda pid: {0, 4095})
    F = _CYCLES[2][1]
    monkeypatch.setattr(levels, "_SPLIT_CUT", 1)
    got = []
    try:
        for _ in range(3):
            got.append(levels._first_return(F, 5))
            time.sleep(0.05)
    finally:
        levels._pool.shutdown()
    monkeypatch.setattr(levels, "_SPLIT_CUT", 1 << 62)
    want = levels._first_return(F, 5)
    assert all(np.array_equal(g, want) for g in got)


def test_callers_on_many_threads_share_the_pool(monkeypatch):
    # each caller's parts run on the pool and no part submits to it, so four
    # callers on two or more workers all finish, with the unsplit answers
    monkeypatch.setattr(levels, "_pool", None)
    D = dual(builtin("bireversible52"))
    xi = D.states.index("0")
    want = level_maps(D, 7)
    monkeypatch.setattr(levels, "_SPLIT_CUT", 1 << 10)
    results = [None] * 4

    def caller(i):
        for _ in range(3):
            P = level_maps(D, 7)
            results[i] = (P, is_single_cycle(P[xi]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        if levels._pool is not None:
            levels._pool.shutdown()
    for P, single in results:
        assert single and P.dtype == want.dtype and np.array_equal(P, want)


def test_forked_child_makes_its_own_pool(monkeypatch):
    # the child has none of the parent's pool threads: parts sent to that
    # pool would never run
    monkeypatch.setattr(levels, "_pool", None)
    monkeypatch.setattr(levels, "_SPLIT_CUT", 1)
    monkeypatch.setattr(levels.os, "sched_getaffinity", lambda pid: {0, 1})
    F = _CYCLES[0][1]
    try:
        assert is_single_cycle(F) and levels._pool is not None
        pid = os.fork()
        if pid == 0:
            code = 2
            try:
                code = 0 if is_single_cycle(F) and levels._pool is not None else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.01)
        if not done[0]:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
    finally:
        levels._pool.shutdown()
