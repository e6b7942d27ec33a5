import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mealy import automaton
from mealy.automaton import (
    Automaton,
    act,
    act_inf,
    builtin,
    dual,
    dual_act,
    group_section,
    inverse,
    minimize,
    minimize_map,
    product,
    properties,
    relabel,
    union,
)
from mealy.classify import _raw_batch, table_space_size
from mealy.levels import index_word, level_maps, level_permutation, word_index
from mealy.words import EventuallyPeriodicWord, GroupWord

B = builtin("bellaterra")
A = builtin("aleshin")
ADD = builtin("adding")


def test_bellaterra_table_rows():
    # pinned from the defining table
    assert act(B, "a", "0") == "0" and act(B, "a", "1") == "1"
    assert act(B, "c", "0") == "1" and act(B, "c", "1") == "0"
    assert B.step("a", "0") == ("0", "b")
    assert B.step("c", "1") == ("0", "a")


def test_state_c_on_0000():
    assert act(B, "c", "0000") == "1001"


def test_adding_machine_increments():
    # LSB-first binary increment
    assert act(ADD, "r", "000") == "100"
    assert act(ADD, "r", "110") == "001"
    assert act(ADD, "rr", "000") == "010"


def test_act_rightmost_letter_first():
    # ab acts as a after b
    w = "01101"
    assert act(B, "ab", w) == act(B, "a", act(B, "b", w))


def test_act_preserves_length_and_type():
    assert act(A, "b", ("0", "1", "1")) == tuple(act(A, "b", "011"))


def test_inverse_action():
    w = "10010"
    assert act(B, "c'", act(B, "c", w)) == w


names = st.sampled_from(["a", "b", "c"])
gwords = st.text(alphabet="abc", min_size=0, max_size=5)


@given(gwords, gwords, st.text(alphabet="01", min_size=1, max_size=7))
def test_act_is_a_left_action(u, v, s):
    assert act(A, u + v, s) == act(A, u, act(A, v, s))


@given(st.text(alphabet="01", min_size=1, max_size=8))
def test_cross_relation(s):
    # output prefix of the action lines up with dual sections: acting by q
    # then reading below equals reading, then acting by the section
    q = "c"
    out = act(B, q, s)
    sec = group_section(B, q, s[:2])
    assert out[2:] == act(B, sec, s[2:])


def test_dual_swaps_roles():
    D = dual(B)
    assert D.states == B.alphabet
    assert D.alphabet == B.states
    assert dual(D).to_text() == B.to_text()


def test_dual_step_pinned():
    assert dual(B).step("1", "c") == ("a", "0")


@given(st.text(alphabet="abc", min_size=1, max_size=6))
def test_dual_act_letterwise(v):
    # one letter at a time, reading order
    assert dual_act(B, v, "01") == dual_act(B, dual_act(B, v, "0"), "1")


def test_inverse_is_involution_behaviorally():
    I = inverse(inverse(B))
    for q, qii in zip(B.states, I.states):
        for w in ("0110", "1010"):
            assert act(I, qii, w) == act(B, q, w)


def test_inverse_requires_invertible():
    M = Automaton(["q"], ["0", "1"], {("q", "0"): "q", ("q", "1"): "q"},
                  {("q", "0"): "0", ("q", "1"): "0"})
    with pytest.raises(ValueError):
        inverse(M)


def test_builtin_properties_pinned():
    expected = {
        "bellaterra": (True, True, True, True, False),
        "aleshin": (True, True, True, True, False),
        "adding": (True, False, False, True, False),
        "div3": (True, True, False, True, False),
        "conjugator": (True, True, True, True, False),
        "bireversible52": (True, True, True, True, False),
    }
    for name, (inv, rev, birev, cyc, cocyc) in expected.items():
        p = properties(builtin(name))
        assert (p.invertible, p.reversible, p.bireversible, p.cyclic, p.cocyclic) == \
            (inv, rev, birev, cyc, cocyc), name


def test_generators_are_involutions_behaviorally():
    # merging bellaterra with its inverse changes nothing after minimization
    assert minimize(union(B, inverse(B))).n_states == 3


def test_union_disjoint_states():
    U = union(B, inverse(B))
    assert U.states == ("a", "b", "c", "a'", "b'", "c'")
    w = "0110"
    assert act(U, "a'", w) == act(inverse(B), "a'", w)


def test_product_composes_actions():
    P, s = product([(A, "a"), (B, "c")])
    w = "011010"
    assert act(P, s, w) == act(A, "a", act(B, "c", w))


def test_product_with_primed_words():
    P, s = product([(B, "c'"), (B, "c")])
    for w in ("0000", "1011"):
        assert act(P, s, w) == w


def test_multi_character_state_names_everywhere():
    from mealy.transitivity import stabilizes_infinite

    P, s = product([(A, "a"), (B, "c")])
    assert s == "t0"
    for w in ("0", "10", "0110"):
        for t in ("1", "011"):
            assert act(P, s, w + t) == act(P, s, w) + act(P, group_section(P, s, w), t)
        assert group_section(P, s + "'", w) == group_section(P, GroupWord([(s, -1)]), w)
    for x in "01":
        stream = EventuallyPeriodicWord.constant(x)
        assert stabilizes_infinite(P, s, x) == (act_inf(P, s, stream) == stream)
    Q, r = product([(P, s)])
    assert act(Q, r, "0110101") == act(P, s, "0110101")


def test_product_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        product([(A, "a"), (builtin("conjugator"), "a")])


def test_minimize_map_preserves_action():
    P, s = product([(B, "ab"), (B, "c")])
    m, ren = minimize_map(P)
    assert m.n_states <= P.n_states
    for w in ("01101", "00000", "11111"):
        assert act(m, ren[s], w) == act(P, s, w)


def test_relabel_is_action_conjugation():
    sp, lp = [1, 2, 0], [1, 0]
    R = relabel(B, sp, lp)
    w = "0101"
    relettered = "".join("10"[int(ch)] for ch in w)
    # renamed state sp[i] on renamed letters matches the original state i
    got = act(R, B.states[sp[0]], relettered)
    want = "".join("10"[int(ch)] for ch in act(B, B.states[0], w))
    assert got == want


def test_from_text_roundtrip():
    M = Automaton.from_text(B.to_text())
    assert M.to_text() == B.to_text()


def test_from_text_rejects_partial_tables():
    with pytest.raises(ValueError):
        Automaton.from_text("states: q\nalphabet: 0 1\nq 0 0 q\n")


def test_act_inf_on_constant_stream():
    zeros = EventuallyPeriodicWord.constant("0")
    img = act_inf(ADD, "r", zeros)
    assert img == EventuallyPeriodicWord("1", "0")


def test_act_inf_matches_finite_prefixes():
    w = EventuallyPeriodicWord("01", "10")
    img = act_inf(B, "cab", w)
    n = 24
    assert "".join(img.prefix(n)) == act(B, "cab", "".join(w.prefix(n)))


def _act_inf_cascade(M, w, e):
    """act_inf with all rows of w stepped together, one letter at a time,
    and the cycle detected on the tuple of rows at each input period."""
    rows = automaton._rows(M, w)
    steps = M.step_table()
    out = automaton._run(steps, rows, [M.letter_index(x) for x in e.preperiod])
    period = [M.letter_index(x) for x in e.period]
    seen = {}
    while (key := tuple(rows)) not in seen:
        seen[key] = len(out)
        out += automaton._run(steps, rows, period)
    start = seen[key]
    letters = [M.alphabet[i] for i in out]
    return EventuallyPeriodicWord(letters[:start], letters[start:])


BUILTINS = ("adding", "aleshin", "bellaterra", "bireversible52", "conjugator", "div3")


@pytest.mark.parametrize("name", BUILTINS)
def test_act_inf_matches_cascade(name):
    M = builtin(name)
    rng = random.Random(f"act_inf-{name}")
    for k in range(9):
        for _ in range(4):
            w = GroupWord([(rng.choice(M.states), rng.choice((1, -1))) for _ in range(k)])
            for p in (1, 2, 3):
                per = [rng.choice(M.alphabet) for _ in range(p)]
                # a last preperiod letter unlike the period's keeps it from rolling away
                last = rng.choice([x for x in M.alphabet if x != per[-1]])
                pre = [rng.choice(M.alphabet) for _ in range(rng.randint(0, 3))] + [last]
                e = EventuallyPeriodicWord(pre, per)
                assert e.h() == len(pre)
                assert act_inf(M, w, e) == _act_inf_cascade(M, w, e), (w, e)


@pytest.mark.parametrize("name", BUILTINS)
def test_act_inf_images_are_canonical(name):
    # act_inf builds its image without canonicalizing it again; rebuilding
    # it through the checking constructor must change nothing
    M = builtin(name)
    rng = random.Random(f"canonical-{name}")
    for _ in range(200):
        w = GroupWord([(rng.choice(M.states), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 8))])
        pre = [rng.choice(M.alphabet) for _ in range(rng.randint(0, 4))]
        per = [rng.choice(M.alphabet) for _ in range(rng.randint(1, 4))]
        img = act_inf(M, w, EventuallyPeriodicWord(pre, per))
        again = EventuallyPeriodicWord(img.preperiod, img.period)
        assert (img.preperiod, img.period) == (again.preperiod, again.period), (w, pre, per)


@pytest.mark.parametrize("name", BUILTINS)
def test_rows_of_group_words_match_the_parsing_path(name):
    M = builtin(name)
    rng = random.Random(f"rows-{name}")
    for k in range(6):
        w = GroupWord([(rng.choice(M.states), rng.choice((1, -1))) for _ in range(k)])
        assert automaton._rows(M, w) == automaton._rows(M, repr(w) if k else ""), w


def test_rows_of_group_words_keep_their_errors():
    with pytest.raises(KeyError, match="unknown state 'z'"):
        automaton._rows(B, GroupWord([("a", 1), ("z", -1)]))
    # one state that writes 0 on both letters has no inverse
    flat = Automaton(["p"], ["0", "1"], [[0, 0]], [[0, 0]])
    assert automaton._rows(flat, GroupWord([("p", 1)])) == [0]
    with pytest.raises(ValueError, match="automaton is not invertible"):
        automaton._rows(flat, GroupWord([("p", 1), ("p", -1)]))


@pytest.mark.parametrize("name", BUILTINS)
def test_one_row_run_matches_level_maps(name):
    # act of one state or inverse state runs _run's one-row path; the level
    # maps come from the table recursion and never call _run
    M = builtin(name)
    for n in range(9):
        maps = level_maps(M, n)
        for qi, q in enumerate(M.states):
            for w, perm in ((q, maps[qi]), (q + "'", level_permutation(M, q + "'", n))):
                for v in range(M.n_letters**n):
                    img = act(M, w, index_word(M, v, n))
                    assert word_index(M, img) == perm[v], (w, n, v)


def test_run_of_empty_input_leaves_rows():
    steps = B.step_table()
    for r in range(len(steps)):
        rows = [r]
        assert automaton._run(steps, rows, []) == [] and rows == [r]
    rows = [0, 4, 2, 1]
    assert automaton._run(steps, rows, []) == [] and rows == [0, 4, 2, 1]


def test_act_inf_matches_cascade_on_long_periods():
    # the fixed-seed stratum of length-8 bireversible52 words that the
    # benchmark's walks workload draws; their images of x x x ... have the
    # longest periods there, up to 5^8 letters
    M = builtin("bireversible52")
    rng = random.Random("bireversible52-8")
    longest = 0
    for _ in range(208):
        w = GroupWord([(rng.choice(M.states), rng.choice((1, -1))) for _ in range(8)])
        e = EventuallyPeriodicWord.constant(rng.choice(M.alphabet))
        img = act_inf(M, w, e)
        assert img == _act_inf_cascade(M, w, e), w
        longest = max(longest, len(img.period))
    assert longest > 5**7


def test_step_unknown_symbols_raise():
    with pytest.raises(KeyError):
        B.step("z", "0")
    with pytest.raises(KeyError):
        act(B, "a", "02")


def test_group_section_factors_action():
    w = GroupWord.parse("cab")
    s, t = "01", "1101"
    lhs = act(B, w, s + t)
    assert lhs[:2] == act(B, w, s)
    assert lhs[2:] == act(B, group_section(B, w, s), t)


@given(st.text(alphabet="01", min_size=1, max_size=6))
def test_group_section_with_inverses(s):
    w = GroupWord.parse("c'ab'")
    t = "010"
    lhs = act(B, w, s + t)
    assert lhs[len(s):] == act(B, group_section(B, w, s), t)


def _check_step_table(M):
    # every row, cell by cell, against the numpy tables of M and inverse(M)
    steps = M.step_table()
    nq, na = M.n_states, M.n_letters
    for q in range(nq):
        assert steps[q] == [(int(M.o[q, x]), int(M.t[q, x])) for x in range(na)]
    if not M.is_invertible():
        assert len(steps) == nq
        return
    inv = inverse(M)
    assert len(steps) == 2 * nq
    for q in range(nq):
        assert steps[nq + q] == [(int(inv.o[q, y]), nq + int(inv.t[q, y])) for y in range(na)]


@pytest.mark.parametrize("name", ["bellaterra", "aleshin", "adding", "conjugator",
                                  "bireversible52", "div3", "affine(1,3)", "affine(5,3)"])
def test_step_table_matches_numpy_tables(name):
    M = builtin(name)
    _check_step_table(M)
    _check_step_table(dual(M))


@given(st.lists(st.integers(0, 2), min_size=6, max_size=6),
       st.lists(st.booleans(), min_size=3, max_size=3))
def test_step_table_random_invertible_32(t, swaps):
    o = [[1, 0] if sw else [0, 1] for sw in swaps]
    _check_step_table(Automaton(["a", "b", "c"], ["0", "1"], t, o))


def test_primed_letter_needs_invertible():
    M = Automaton(["q"], ["0", "1"], [[0, 0]], [[0, 0]])
    assert len(M.step_table()) == 1
    calls = [
        lambda: act(M, "q'", "01"),
        lambda: act(M, GroupWord([("q", -1)]), "0"),
        lambda: act_inf(M, "q'", EventuallyPeriodicWord.constant("0")),
        lambda: group_section(M, "q'", "0"),
        lambda: product([(M, "q'")]),
        lambda: level_permutation(M, "q'", 2),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_affine_table_size_refused_before_building(monkeypatch):
    with pytest.raises(ValueError, match="table cells"):
        builtin("affine(300,301)")
    monkeypatch.setattr(automaton, "AFFINE_CELL_CAP", 12)
    assert builtin("affine(3,4)").n_states == 3
    with pytest.raises(ValueError, match="14 table cells"):
        builtin("affine(2,7)")


def _properties_oracle(M):
    """The five flags by definition: duals, inverses and generated groups
    built one automaton at a time."""

    def cyclic(X):
        return X.is_invertible() and automaton._least_full_cycle(X.o.tolist(), X.n_letters) is not None

    D = dual(M)
    inv, rev = M.is_invertible(), D.is_invertible()
    bi = inv and rev and dual(inverse(M)).is_invertible()
    return inv, rev, bi, cyclic(M), cyclic(D)


def _any_tables(q, a):
    """(T, O) for (q, a) tables with any outputs, invertible or not: every
    one when there are at most 4 cells, else 2,000 seeded random ones."""
    if q * a <= 4:
        grid = np.meshgrid(*[range(q * a)] * (q * a), indexing="ij")
        cells = np.array(grid).reshape(q * a, -1).T
    else:
        cells = np.random.default_rng(7).integers(0, q * a, size=(2000, q * a))
    cells = cells.reshape(-1, q, a)
    return cells % q, cells // q


@pytest.mark.parametrize("q,a", [(2, 2), (3, 2), (2, 3), (1, 3)])
def test_table_properties_match_definition_oracle(q, a):
    T, O = _raw_batch(q, a, 0, table_space_size(q, a))  # every invertible table
    T2, O2 = _any_tables(q, a)
    T, O = np.concatenate([T, T2]), np.concatenate([O, O2])
    flags = automaton._table_properties(T, O)
    states, letters = [f"s{k}" for k in range(q)], [str(x) for x in range(a)]
    seen = set()
    for i in range(len(T)):
        M = Automaton(states, letters, T[i], O[i])
        want = _properties_oracle(M)
        assert tuple(flags[i]) == want, (T[i].tolist(), O[i].tolist())
        if i % 16 == 0:  # the one-table case
            assert tuple(properties(M).as_dict().values()) == want
        seen.add(want)
    # with two or more states, both values of every flag occur
    assert q == 1 or all({f[k] for f in seen} == {False, True} for k in range(5))


class _CountingTable(np.ndarray):
    """A table whose tobytes calls are counted."""

    calls = 0

    def tobytes(self, *args, **kw):
        _CountingTable.calls += 1
        return super().tobytes(*args, **kw)


def test_table_key_built_once_per_machine(monkeypatch):
    monkeypatch.setattr(_CountingTable, "calls", 0)
    X, Y = builtin("aleshin"), builtin("aleshin")
    X.t = X.t.view(_CountingTable)
    assert X == X and _CountingTable.calls == 0  # the same object: no key at all
    # an equal but distinct machine: X's key is built on the first compare only
    for _ in range(3):
        assert X == Y and Y == X and hash(X) == hash(Y)
    assert _CountingTable.calls == 1
    assert X.table_key() is X.table_key() and X.table_key() == Y.table_key()
    assert X != builtin("bellaterra") and X != "aleshin"
