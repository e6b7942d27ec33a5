from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from mealy import bellaterra, transitivity
from mealy.automaton import act, builtin, dual, dual_act, properties
from mealy.bellaterra import (
    SIX,
    WREATH_TABLE,
    F_solution,
    aleshin_relation_check,
    alpha,
    balanced_ternary_value,
    balanced_ternary_word,
    lemma_transitive_check,
    phi,
    preperiod_growth,
    wreath_automaton,
    wreath_table_check,
)
from mealy.levels import index_word, level_maps, word_index
from mealy.ratfunc import RationalSeries, Poly
from mealy.words import EventuallyPeriodicWord as EPW


def _phi_inverse(x, v):
    """Decode a state word not beginning with x back to u/d, one letter of
    phi at a time: each next state is the image of u or of d."""
    out, cur = [], x
    for q in v:
        out.append("u" if phi(cur, "u") == q else "d")
        assert phi(cur, out[-1]) == q
        cur = q
    return "".join(out)


def _alpha_inverse(w):
    """w -> 2w + 1 on balanced-ternary coded values, the inverse of alpha."""
    return balanced_ternary_word(2 * balanced_ternary_value(w) + 1)


def test_phi_bijection_small_levels():
    for n in range(1, 9):
        for x in "abc":
            seen = set()
            for bits in iproduct("ud", repeat=n):
                w = "".join(bits)
                img = phi(x, w)
                assert len(img) == n
                assert _phi_inverse(x, img) == w
                seen.add(img)
            assert len(seen) == 2**n


def test_phi_images_are_reduced_words_avoiding_x():
    # states walk the two-letter-out-of-three pattern: no repeats, never x first
    for x in "abc":
        for bits in iproduct("ud", repeat=6):
            img = phi(x, "".join(bits))
            assert img[0] != x
            assert all(img[i] != img[i + 1] for i in range(5))


def test_phi_prefix_compatible():
    w = "ududdu"
    for x in "abc":
        full = phi(x, w)
        for k in range(len(w)):
            assert phi(x, w[:k]) == full[:k]


def test_wreath_automaton_table():
    W = wreath_automaton()
    assert W.states == SIX
    assert W.alphabet == ("u", "d")
    # spot rows against the recursion table
    eps, up, down = WREATH_TABLE["b1b"]
    assert W.step("b1b", "u") == (("d" if eps else "u"), up)
    assert W.step("b1b", "d") == (("u" if eps else "d"), down)


def test_wreath_table_check_passes():
    r = wreath_table_check(9)
    assert bool(r)
    assert r.failures == []
    assert r.section_ok


def test_six_series_pinned():
    F = F_solution()
    geo = RationalSeries(Poly([1], 2), Poly([1, 1], 2))  # 1/(1-t) over F_2
    tge = RationalSeries(Poly([0, 1], 2), Poly([1, 1], 2))  # t/(1-t)
    zero = RationalSeries(Poly([0], 2), Poly([1], 2))
    one = RationalSeries(Poly([1], 2), Poly([1], 2))
    assert F["b1b"] == geo
    assert F["c1a"] == geo
    assert F["a0c"] == zero
    assert F["a1c"] == one
    assert F["b0a"] == tge
    assert F["c0b"] == tge


def test_six_series_coefficients():
    F = F_solution()
    assert F["b1b"].coefficients(6) == [1, 1, 1, 1, 1, 1]
    assert F["b0a"].coefficients(6) == [0, 1, 1, 1, 1, 1]
    assert F["a1c"].coefficients(6) == [1, 0, 0, 0, 0, 0]


def test_F_solution_solves_the_system_once(monkeypatch):
    calls = []
    solve = transitivity.solve_linear
    monkeypatch.setattr(transitivity, "solve_linear", lambda A, b: calls.append(1) or solve(A, b))
    F = F_solution(direct_levels=4, n_coeffs=16)
    assert len(calls) == 1 and len(F) == 6


def test_F_solution_raises_when_a_cross_check_fails(monkeypatch):
    # the recursion check compares against char_coeffs
    monkeypatch.setattr(bellaterra, "char_coeffs", lambda M, q, N: [1] * N)
    with pytest.raises(ValueError, match="recursion"):
        F_solution(direct_levels=4, n_coeffs=16)
    monkeypatch.undo()
    # the permutation-sign check is independent of the series
    monkeypatch.setattr(bellaterra, "_perm_parity", lambda p: 1)
    with pytest.raises(ValueError, match="permutation signs"):
        F_solution(direct_levels=4, n_coeffs=16)
    monkeypatch.undo()
    bad = {"equation": "b1b", "level": 1, "word": "u"}
    monkeypatch.setattr(bellaterra, "_conjugated_maps", lambda n: ({}, [bad]))
    with pytest.raises(ValueError, match="ill-defined"):
        F_solution(direct_levels=4, n_coeffs=16)


def test_lemma_transitive_small_levels():
    for n in range(0, 12):
        assert lemma_transitive_check(n)


def test_lemma_orbit_by_level_maps():
    # the seed word's cycle under the dual state 1, walked on the level maps
    # of the dual (no _run): 2^n reduced words, each ending in a or c.  The
    # dual action reads a state word from the right, so the level maps see
    # it reversed
    D = dual(builtin("bellaterra"))
    for n in range(1, 11):
        step = level_maps(D, n)[D.state_index("1")]
        seed = "".join("ab"[i % 2] for i in range(n))  # reversed: ... b a
        v0 = v = word_index(D, seed)
        orbit = []
        while True:
            v = int(step[v])
            orbit.append("".join(reversed(index_word(D, v, n))))
            if v == v0:
                break
        assert len(orbit) == 1 << n
        assert all(w[-1] in "ac" and all(x != y for x, y in zip(w, w[1:])) for w in orbit)
        assert lemma_transitive_check(n)


def test_lemma_fails_on_aleshin(monkeypatch):
    # aleshin's states are also a, b, c, but its dual orbit leaves the set
    monkeypatch.setattr(bellaterra, "builtin", lambda name: builtin("aleshin"))
    for n in range(2, 7):
        assert lemma_transitive_check(n) is False


def test_lemma_rejects_negative_level():
    with pytest.raises(ValueError, match="level -1 is below 0"):
        lemma_transitive_check(-1)


def test_dual_action_preserves_reduced_form():
    # the dual of bellaterra maps reduced state words to reduced state words
    B = builtin("bellaterra")
    w = "abacab"
    img = dual_act(B, w, "1")
    assert all(img[i] != img[i + 1] for i in range(len(img) - 1))


def test_aleshin_relation_report():
    r = aleshin_relation_check(9)
    assert r.holds and r.even_path_ok
    assert r.counterexample is None
    # the pairing matches states by name
    assert r.pairing == {"a": "a", "b": "b", "c": "c"}


def _aleshin_by_levels(n, samples=40, seed=0):
    """aleshin_relation_check with the pairing and the product identity
    checked on every level 1..n, one level map per level."""
    import numpy as np
    from mealy.bellaterra import AleshinReport
    from mealy.levels import all_level_maps, invert_perm

    A, B = bellaterra.builtin("aleshin"), bellaterra.builtin("bellaterra")
    PA, PB = all_level_maps(A, n), all_level_maps(B, n)
    pairing, counterexample = {}, None
    for qi, q in enumerate(A.states):
        matches = [ri for ri in range(len(B.states))
                   if np.array_equal(PA[n][qi], (1 << n) - 1 - PB[n][ri])]
        if len(matches) != 1:
            counterexample = {"kind": "pairing", "state": q, "level": n}
            continue
        for k in range(1, n + 1):
            if not np.array_equal(PA[k][qi], (1 << k) - 1 - PB[k][matches[0]]):
                counterexample = {"kind": "pairing", "state": q, "level": k}
                break
        else:
            pairing[q] = B.states[matches[0]]
    holds = len(pairing) == len(A.states)
    if holds:
        for k in range(1, n + 1):
            inv = [invert_perm(P) for P in PA[k]]
            for qi, q in enumerate(A.states):
                for ri, r in enumerate(A.states):
                    pq, pr = B.state_index(pairing[q]), B.state_index(pairing[r])
                    if not np.array_equal(inv[qi][PA[k][ri]], PB[k][pq][PB[k][pr]]):
                        holds = False
                        counterexample = {"kind": "product", "q": q, "r": r, "level": k}
    even_path_ok = holds
    if holds:
        rng = np.random.default_rng(seed)
        inv_n = [invert_perm(P) for P in PA[n]]
        for _ in range(samples):
            pairs = int(rng.integers(1, 5))
            v = int(rng.integers(0, 1 << n))
            u_b = u_a = v
            for _ in range(pairs):
                qi, ri = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                u_b = int(PB[n][qi][PB[n][ri][u_b]])
                u_a = int(inv_n[qi][PA[n][ri][u_a]])
            if u_a != u_b:
                even_path_ok = False
                counterexample = {"kind": "even-path", "vertex": v}
                break
    return AleshinReport(n, pairing, holds, even_path_ok, counterexample)


# bellaterra with c's 1-edge looping back to c, so c is no involution
# (c^2 maps 11 to 10), and aleshin with its outputs flipped to match
NON_INVOLUTIVE = {
    "bellaterra": "a 0 0 b\na 1 1 c\nb 0 0 c\nb 1 1 b\nc 0 1 a\nc 1 0 c",
    "aleshin": "a 0 1 b\na 1 0 c\nb 0 1 c\nb 1 0 b\nc 0 0 a\nc 1 1 c",
}


@pytest.mark.parametrize("tables, kind", [
    ({}, None),
    # aleshin's c moved off its bellaterra partner: no pairing
    ({"aleshin": "a 0 1 b\na 1 0 c\nb 0 1 c\nb 1 0 b\nc 0 0 a\nc 1 1 b"}, "pairing"),
    (NON_INVOLUTIVE, "product"),
], ids=["real", "pairing", "product"])
def test_aleshin_on_level_n_matches_every_level(monkeypatch, tables, kind):
    from mealy.automaton import Automaton

    machines = {name: Automaton.from_text(f"states: a b c\nalphabet: 0 1\n{t}\n")
                for name, t in tables.items()}
    monkeypatch.setattr(bellaterra, "builtin", lambda name: machines.get(name) or builtin(name))
    for n in range(9):
        r = aleshin_relation_check(n)
        assert r == _aleshin_by_levels(n), n
        if n >= 3:
            assert (r.counterexample or {}).get("kind") == kind, n


def test_balanced_ternary_integer_values():
    assert balanced_ternary_value(EPW("b", "c")) == 1
    assert balanced_ternary_value(EPW("a", "c")) == -1
    assert balanced_ternary_value(EPW("bb", "c")) == 4  # 1 + 3
    assert balanced_ternary_value(EPW("ab", "c")) == 2  # -1 + 3
    assert balanced_ternary_value(EPW.constant("c")) == 0


def test_balanced_ternary_periodic_tail():
    assert balanced_ternary_value(EPW("", "b")) == Fraction(-1, 2)
    assert balanced_ternary_word(Fraction(-1, 2)) == EPW("", "b")


def test_balanced_ternary_rejects_denominator_multiple_of_3():
    with pytest.raises(ValueError):
        balanced_ternary_word(Fraction(1, 3))


@given(st.integers(min_value=-3**8, max_value=3**8))
def test_balanced_ternary_integer_roundtrip(v):
    w = balanced_ternary_word(Fraction(v))
    assert balanced_ternary_value(w) == v


@given(st.integers(min_value=-200, max_value=200),
       st.integers(min_value=1, max_value=50).filter(lambda d: d % 3 != 0))
def test_balanced_ternary_rational_roundtrip(num, den):
    v = Fraction(num, den)
    assert balanced_ternary_value(balanced_ternary_word(v)) == v


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=1, max_value=30).filter(lambda d: d % 3 != 0))
def test_alpha_halves_shifted_value(num, den):
    v = Fraction(num, den)
    w = balanced_ternary_word(v)
    assert balanced_ternary_value(alpha(w)) == (v - 1) / 2
    assert balanced_ternary_value(_alpha_inverse(w)) == 2 * v + 1


def test_alpha_inverse_inverts():
    w = balanced_ternary_word(Fraction(7, 5))
    assert alpha(_alpha_inverse(w)) == w


def test_preperiod_growth_quick():
    rep = preperiod_growth(300, 500)
    assert 0.55 <= rep.slope <= 0.72
    assert rep.adding_ok
    assert rep.adding_max_h <= 11  # ceil(log2(501)) + 2
    assert len(rep.heights) == 300  # one entry per n = 1..n_max


@pytest.mark.parametrize("N", [1, 2, 7, 8, 500, 10_000])
def test_odometer_preperiod_is_the_bit_length(N):
    # r^n(0 0 0 ...) codes n least significant bit first, so its minimal
    # preperiod is n.bit_length(), largest at n = N
    assert preperiod_growth(8, N).adding_max_h == N.bit_length()


@pytest.mark.parametrize("n_max, adding_n_max", [(1, 10), (0, 10), (-3, 10), (8, -1)])
def test_preperiod_growth_refuses_sizes_without_a_slope(n_max, adding_n_max):
    with pytest.raises(ValueError, match="n_max >= 2 and adding_n_max >= 0"):
        preperiod_growth(n_max, adding_n_max)


def test_preperiod_heights_are_digit_counts():
    # the balanced-ternary conversion of 2^n - 1, digit by digit
    heights = preperiod_growth(2000, 0).heights
    for n in list(range(1, 301)) + [2000]:
        assert heights[n - 1] == balanced_ternary_word(2**n - 1).h(), n


def test_preperiod_heights_follow_alpha_inverse():
    # alpha^{-1} applied n times to c c c ..., by exact rational arithmetic
    heights = preperiod_growth(30, 0).heights
    w = EPW.constant("c")
    for n in range(1, 31):
        w = _alpha_inverse(w)
        assert heights[n - 1] == w.h(), n


def test_preperiod_heights_start():
    rep = preperiod_growth(8, 10)
    # alpha^{-n}(0) codes 2^n - 1, whose preperiod stays within n + 1 digits
    assert rep.heights[0] == 1  # alpha^{-1} codes 1 = b(c)*
    assert all(h <= n + 1 for n, h in enumerate(rep.heights, start=1))
