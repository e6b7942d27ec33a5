from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealy.automaton import BUILTIN_NAMES, Automaton, act, act_inf, builtin, dual, properties
from mealy.classify import enumerate_classes
from mealy.levels import (
    all_level_maps,
    index_word,
    is_single_cycle,
    level_maps,
    level_permutation,
    word_index,
)
from mealy.ratfunc import Poly, RationalSeries
from mealy.transitivity import (
    Verdict,
    char_coeffs,
    char_rational,
    cotransitivity,
    first_intransitive_level,
    is_transitive_exact,
    orbit_cycle,
    orbits_on_level,
    stabilizes_infinite,
)
from mealy.words import EventuallyPeriodicWord

ADD = builtin("adding")
B = builtin("bellaterra")
A = builtin("aleshin")
DIV = builtin("div3")


def test_adding_machine_chi_is_geometric():
    assert char_coeffs(ADD, "r", 12) == [1] * 12
    assert char_rational(ADD, "r") == RationalSeries(Poly([1], 2), Poly([1, 1], 2))  # 1/(1-t)


def test_identity_state_chi_vanishes():
    assert char_coeffs(ADD, "i", 6) == [0] * 6
    assert char_rational(ADD, "i") == RationalSeries(Poly([0], 2), Poly([1], 2))


def test_chi_rational_matches_direct_coefficients():
    # exact rational form against the direct recurrence, far past any period
    N = 200
    for M, q in ((ADD, "r"), (DIV, "0"), (DIV, "1"), (DIV, "2"), (B, "a"), (A, "c")):
        assert char_rational(M, q).coefficients(N) == char_coeffs(M, q, N), (M.name, q)


def test_transitive_iff_coefficients_are_units():
    assert is_transitive_exact(ADD, "r")
    assert not is_transitive_exact(ADD, "i")
    assert first_intransitive_level(ADD, "i") == 1
    assert first_intransitive_level(ADD, "r") is None


def _first_non_cycle_level(M, q, top=8):
    return next((n for n in range(1, top + 1)
                 if not is_single_cycle(level_permutation(M, q, n))), None)


# levels 1..8 decide every state below: a state of a cyclic machine with 2-3
# states over 2-3 letters that is not spherically transitive fails by level 5,
# and the builtins' states by level 3
CYCLIC_BUILTINS = [builtin(n) for n in ("adding", "aleshin", "bellaterra", "bireversible52",
                                        "conjugator", "div3")]
CYCLIC_BUILTINS += [dual(builtin("affine(2,3)")), dual(builtin("affine(3,4)"))]


def test_transitivity_matches_single_cycle_per_level():
    for M in CYCLIC_BUILTINS:
        for q in M.states:
            want = _first_non_cycle_level(M, q)
            assert first_intransitive_level(M, q) == want, (M.name, q)
            assert is_transitive_exact(M, q) == (want is None)


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_transitivity_matches_single_cycle_on_random_cyclic(nq, na, data):
    # outputs are powers of one full cycle, at least one of them generating
    rho = (*range(1, na), 0)
    powers = [tuple(range(na))]
    while len(powers) < na:
        powers.append(tuple(rho[i] for i in powers[-1]))
    ks = data.draw(st.lists(st.integers(0, na - 1), min_size=nq, max_size=nq)
                   .filter(lambda ks: any(gcd(k, na) == 1 for k in ks)))
    cells = st.lists(st.lists(st.integers(0, nq - 1), min_size=na, max_size=na),
                     min_size=nq, max_size=nq)
    M = Automaton([f"q{i}" for i in range(nq)], [str(x) for x in range(na)],
                  data.draw(cells), [list(powers[k]) for k in ks])
    assert properties(M).cyclic
    for q in M.states:
        assert first_intransitive_level(M, q) == _first_non_cycle_level(M, q), q


def test_div3_states_transitivity():
    # affine maps (x - q) * 3^{-1}: the multiplier is 3 mod 4, so no state
    # is spherically transitive; failure levels pinned
    assert first_intransitive_level(DIV, "0") == 1  # fixes 0
    assert first_intransitive_level(DIV, "1") == 2
    assert first_intransitive_level(DIV, "2") == 1
    assert not any(is_transitive_exact(DIV, q) for q in DIV.states)


def test_orbits_on_level_partition():
    rep = orbits_on_level(A, "a", 6)
    assert sum(rep.sizes) == rep.domain_size == 64
    assert rep.transitive == (len(rep.sizes) == 1)


@pytest.mark.parametrize("M,w,n", [(A, "a", 6), (ADD, "rr", 5), (builtin("affine(2,3)"), "0", 4)])
def test_representatives_round_trip_through_word_index(M, w, n):
    # one representative per orbit: the orbits of their words under act
    # partition the level and have the reported sizes
    rep = orbits_on_level(M, w, n)
    words = [index_word(M, int(v), n) for v in rep.rep_indices]
    assert [word_index(M, u) for u in words] == [int(v) for v in rep.rep_indices]
    orbits = []
    for u in words:
        orbit, x = {u}, act(M, w, u)
        while x != u:
            orbit.add(x)
            x = act(M, w, x)
        orbits.append(orbit)
    assert sorted(map(len, orbits), reverse=True) == rep.sizes
    assert len(set().union(*orbits)) == sum(rep.sizes) == rep.domain_size == M.n_letters**n


def test_orbits_on_level_with_subset():
    # rr adds 2, so its orbits on level 4 are the even and the odd residues;
    # words starting with 0 (least significant digit first) are the even ones
    rep = orbits_on_level(ADD, "rr", 4)
    assert sorted(rep.sizes) == [8, 8]
    rep = orbits_on_level(ADD, "rr", 4, subset=lambda w: w[0] == "0")
    assert rep.sizes == [8]
    assert rep.domain_size == 8
    assert rep.transitive


def test_cotransitivity_verdicts_pinned():
    v = cotransitivity(B, 4)
    assert v.kind == "no" and v.level == 2
    assert cotransitivity(DIV, 4).kind == "no"
    assert cotransitivity(DIV, 4).level == 1
    va = cotransitivity(A, 4)
    assert va.kind == "no" and va.level == 4
    assert cotransitivity(ADD, 4).kind == "no"


def test_cotransitivity_yes_on_cocyclic():
    # dual of the adding machine read as is: use a machine whose dual is cyclic
    C = builtin("conjugator")
    vd = cotransitivity(dual(C), 4)
    assert vd.kind in ("yes", "no")  # exact either way since C is cyclic
    assert vd.evidence.get("exact") is True


def test_cotransitivity_unknown_survivor():
    v = cotransitivity(builtin("bireversible52"), 4)
    assert v.kind == "unknown"
    assert v.evidence["surviving_states"]


def _first_unspanned_level(M, x, top):
    """First level <= top on which dual state x has no spanning orbit.

    Brute force per (state, level): rebuild dual(M) and its level map, then
    follow a set-based orbit from every start point.
    """
    D = dual(M)
    for n in range(1, top + 1):
        F = level_maps(D, n)[D.state_index(x)].tolist()

        def orbit_size(v):
            seen = set()
            while v not in seen:
                seen.add(v)
                v = F[v]
            return len(seen)

        if not any(orbit_size(v) == len(F) for v in range(len(F))):
            return n
    return None


BUILTINS = ("bellaterra", "aleshin", "adding", "div3", "conjugator", "bireversible52",
            "affine(3,4)", "affine(5,3)")


def test_cotransitivity_evidence_matches_brute_force():
    machines = [builtin(nm) for nm in BUILTINS] + list(enumerate_classes(3, 2))
    for M in machines:
        v = cotransitivity(M, 4)
        states = dual(M).states
        if v.kind == "yes":
            assert _first_unspanned_level(M, v.witness, 4) is None, M.name
            continue
        bad = v.evidence["first_bad_level"]
        # exact refutations may lie beyond the budget
        top = max([4, *bad.values()])
        want = {x: _first_unspanned_level(M, x, top) for x in states}
        assert bad == {x: n for x, n in want.items() if n is not None}, M.name
        if v.kind == "no":
            assert v.level == max(bad.values())
        else:
            assert v.evidence["surviving_states"] == [x for x in states if want[x] is None]


def test_cotransitivity_verdict_below_cap_stands():
    # the budget's top level is above the level cap, the refutation is not
    for budget in (30, 10**9):
        v = cotransitivity(B, budget)
        assert v.kind == "no" and v.level == 2


def test_cotransitivity_survivor_at_cap_is_unknown():
    # level 11 of the dual, 5^11 points, is above LEVEL_CAP: the search stops
    # at level 10 with dual state 0 alive, and the budget does not change that
    for budget in (12, 30):
        v = cotransitivity(builtin("bireversible52"), budget)
        assert v.kind == "unknown" and v.level == 10
        assert v.evidence["capped_at"] == 10
        assert v.evidence["surviving_states"] == ["0"]
        assert v.evidence["first_bad_level"] == {"1": 1}
    assert "capped_at" not in cotransitivity(builtin("bireversible52"), 4).evidence


def test_cotransitivity_refutation_at_the_cap_level_stands(monkeypatch):
    # a (3,2) class whose last dual state falls at level L >= 2, with the
    # caps lowered so that L is the highest level built: "no" at L, at any
    # budget; one level less, and it is unknown there
    from mealy import levels

    M = next(M for M in enumerate_classes(3, 2)
             if (v := cotransitivity(M, 4)).kind == "no" and v.level >= 2
             and v.evidence["exact"] is False)
    L = cotransitivity(M, 4).level
    monkeypatch.setattr(levels, "ARRAY_CAP", 2 * 3**L)
    for budget in (L, 12):
        v = cotransitivity(M, budget)
        assert (v.kind, v.level, "capped_at" in v.evidence) == ("no", L, False)
    monkeypatch.setattr(levels, "ARRAY_CAP", 2 * 3**(L - 1))
    v = cotransitivity(M, 12)
    assert (v.kind, v.level, v.evidence["capped_at"]) == ("unknown", L - 1, L - 1)


def test_stabilizes_infinite_examples():
    assert stabilizes_infinite(B, "cc", "0")
    assert not stabilizes_infinite(ADD, "r", "0")
    assert stabilizes_infinite(ADD, "rr'", "1")


@settings(deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=5), st.sampled_from(["0", "1"]))
def test_stabilizes_infinite_matches_act_inf(w, x):
    stream = EventuallyPeriodicWord.constant(x)
    assert stabilizes_infinite(B, w, x) == (act_inf(B, w, stream) == stream)


def test_orbit_cycle_reversible_has_no_preperiod():
    pre, per = orbit_cycle(DIV, "0", "0001")
    assert pre == 0
    assert per == 2 * 3**3


def test_orbit_cycle_identity_word():
    pre, per = orbit_cycle(ADD, "0", "ii")
    assert (pre, per) == (0, 1)


def test_orbit_cycle_empty_word():
    assert orbit_cycle(DIV, "0", "") == (0, 1)


# p reads 0 -> q and q reads 0 -> p, but both go to q on 1: the dual is not invertible
NONINV = Automaton(["p", "q"], ["0", "1"], [[1, 1], [0, 1]], [[0, 1], [1, 0]])


@pytest.mark.parametrize("M, v, expected", [(DIV, "0001", (0, 54)), (NONINV, "qqpp", (2, 2)),
                                             (DIV, "0" * 9 + "1", (0, 2 * 3**9))])
def test_orbit_cycle_runs_per_row_not_per_orbit_point(monkeypatch, M, v, expected):
    # each row reads its input once over the preperiod and at most once per
    # step-table row over the period, for its output and its state stream
    import mealy.automaton as au
    import mealy.transitivity as tr
    calls = []
    run = au._run

    def counted(steps, rows, word):
        calls.append(rows)
        return run(steps, rows, word)

    for module in (au, tr):  # wherever the walk is bound
        if hasattr(module, "_run"):
            monkeypatch.setattr(module, "_run", counted)
    assert orbit_cycle(M, "0", v) == expected
    assert len(calls) <= 2 * len(v) * (len(M.step_table()) + 1)


def _rho(F, u):
    """(preperiod, period) of u under the map F, from a dict of first visits."""
    first: dict[int, int] = {}
    while u not in first:
        first[u] = len(first)
        u = int(F[u])
    return first[u], len(first) - first[u]


def _dual_index(M, v):
    # the dual reads the rightmost state first: it is the least significant digit
    return sum(M.state_index(q) * M.n_states**i for i, q in enumerate(reversed(v)))


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_orbit_cycle_matches_rho_on_dual_level_map(nq, na, data):
    # random tables, so the dual is often not invertible and the preperiod positive
    cells = st.lists(st.lists(st.integers(0, nq - 1), min_size=na, max_size=na),
                     min_size=nq, max_size=nq)
    letters = st.lists(st.lists(st.integers(0, na - 1), min_size=na, max_size=na),
                       min_size=nq, max_size=nq)
    M = Automaton([f"q{i}" for i in range(nq)], [str(x) for x in range(na)],
                  data.draw(cells), data.draw(letters))
    x = data.draw(st.sampled_from(M.alphabet))
    v = data.draw(st.lists(st.sampled_from(M.states), min_size=1, max_size=5))
    F = level_maps(dual(M), len(v))[M.letter_index(x)]
    assert orbit_cycle(M, x, v) == _rho(F, _dual_index(M, v))


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "affine(k,m)"])
def test_orbit_cycle_matches_rho_on_builtin_dual_level_maps(name):
    M = builtin(name)
    rng = np.random.default_rng(23)
    for m, maps in enumerate(all_level_maps(dual(M), 8)[1:], start=1):
        for _ in range(3):
            v = [M.states[i] for i in rng.integers(0, M.n_states, m)]
            for xi, x in enumerate(M.alphabet):
                assert orbit_cycle(M, x, v) == _rho(maps[xi], _dual_index(M, v)), (x, v)


def test_orbit_cycle_matches_rho_on_div3_digit_words():
    # the div3 orbit periods 2 * 3^(m-1) of criterion 9, walked point by point
    D = dual(DIV)
    for m in range(1, 11):
        v = "0" * (m - 1) + "1"
        assert orbit_cycle(DIV, "0", v) == _rho(level_maps(D, m)[0], _dual_index(DIV, v))


def test_verdict_refuses_unknown_kind():
    with pytest.raises(AssertionError, match="verdict kind 'maybe'"):
        Verdict("maybe")


def test_chi_requires_cyclic():
    # bireversible52 is cyclic so chi applies; a non-cyclic machine must refuse
    from mealy.automaton import Automaton
    M = Automaton(["p", "q"], ["0", "1"],
                  {("p", "0"): "p", ("p", "1"): "q", ("q", "0"): "q", ("q", "1"): "p"},
                  {("p", "0"): "0", ("p", "1"): "1", ("q", "0"): "0", ("q", "1"): "1"})
    with pytest.raises(ValueError):
        char_coeffs(M, "p", 4)
