"""Replay of the structural facts behind the Bellaterra diameter bound.

Five independent checks live here:

* ``phi`` encodes the binary tree {u,d}* onto reduced words over {a,b,c}
  avoiding a fixed first letter, and ``wreath_table_check`` verifies that
  conjugating the dual-Bellaterra action through these encodings satisfies
  the six-entry wreath recursion closed under sections.
* ``F_solution`` takes the parity generating series as the characteristic
  series of the six-state wreath machine over Z_2(t) and cross-checks the
  coefficients against directly computed permutation signs.
* ``lemma_transitive_check`` walks the dual orbit showing the state word
  action is transitive on reduced words ending in a or c.
* ``aleshin_relation_check`` recovers the letter pairing under which each
  Aleshin generator is the all-digit swap composed with a Bellaterra
  generator, plus the product identity that transfers even-length paths.
* ``preperiod_growth`` measures how the preperiod of alpha^{-n}(c c c ...)
  grows, where alpha(w) = (w-1)/2 acts on balanced-ternary coded rationals:
  that preimage codes the integer 2^n - 1, so its preperiod is the digit
  count of 2^n - 1, found from powers of 3.  The binary odometer is the
  logarithmic baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log2
from operator import eq

import numpy as np

from .automaton import Automaton, _row_pass, _run, builtin, dual
from .levels import _digits, _walk, all_level_maps, invert_perm, level_maps
from .ratfunc import RationalSeries
from .transitivity import _char_rationals, char_coeffs
from .words import EventuallyPeriodicWord

UP, DOWN = "u", "d"
_GLYPHS = str.maketrans({"↑": UP, "↓": DOWN})

# phi_x sends u/d to the next word letter, which is also the next rule state
_PHI = {
    "a": {UP: "b", DOWN: "c"},
    "b": {UP: "c", DOWN: "a"},
    "c": {UP: "a", DOWN: "b"},
}
_QDIG = {"a": 0, "b": 1, "c": 2}
_QLET = "abc"


def _ud(w) -> str:
    s = "".join(w).translate(_GLYPHS)
    if any(ch not in (UP, DOWN) for ch in s):
        raise ValueError(f"not a word over {{{UP},{DOWN}}}: {w!r}")
    return s


def phi(x: str, w) -> str:
    """Encode the u/d word w as a reduced state word not beginning with x."""
    if x not in _PHI:
        raise ValueError(f"unknown state {x!r}")
    out = []
    cur = x
    for ch in _ud(w):
        cur = _PHI[cur][ch]
        out.append(cur)
    return "".join(out)


def _phi_level_maps(n: int) -> dict[str, list[np.ndarray]]:
    """Index form of phi: maps[x][k] sends u/d indices to base-3 word indices.

    Indices are least-significant-first in both alphabets, matching the
    level map convention.
    """
    maps = {x: [np.zeros(1, dtype=np.int64)] for x in _QLET}
    for k in range(1, n + 1):
        prev = {x: maps[x][k - 1] for x in _QLET}
        for x in _QLET:
            arr = np.empty(1 << k, dtype=np.int64)
            for di, ch in enumerate((UP, DOWN)):
                nxt = _PHI[x][ch]
                arr[di::2] = _QDIG[nxt] + 3 * prev[nxt]
            maps[x].append(arr)
    return maps


# each entry: parity of the root swap, section at u, section at d
WREATH_TABLE = {
    "b1b": (1, "a0c", "c1a"),
    "a0c": (0, "b0a", "c0b"),
    "c1a": (1, "b1b", "a0c"),
    "b0a": (0, "c0b", "a1c"),
    "c0b": (0, "a1c", "b0a"),
    "a1c": (1, "c1a", "b1b"),
}
SIX = ("b1b", "a0c", "c1a", "b0a", "c0b", "a1c")


def wreath_automaton() -> Automaton:
    """The six conjugated maps as a machine over {u,d}, read off the table."""
    t = {}
    o = {}
    for s, (eps, up, down) in WREATH_TABLE.items():
        t[(s, UP)], t[(s, DOWN)] = up, down
        o[(s, UP)], o[(s, DOWN)] = (DOWN, UP) if eps else (UP, DOWN)
    return Automaton(SIX, (UP, DOWN), t, o, name="bellaterra-wreath")


def _conjugated_maps(n: int):
    """Level maps of phi_x^{-1} . (dual action of state d) . phi_y.

    Built from the tree encodings and the dual automaton only, with no
    reference to the recursion table, so comparisons against the table are
    a real check.  Returns (maps, failures); an entry lands in failures
    when some image escapes the phi_x codomain (ill-definedness).
    """
    pm = _phi_level_maps(n)
    dm = all_level_maps(dual(builtin("bellaterra")), n)
    maps: dict[str, list] = {key: [np.zeros(1, dtype=np.int64)] for key in SIX}
    failures = []
    for k in range(1, n + 1):
        inv = {}
        for x in _QLET:
            lut = np.full(3**k, -1, dtype=np.int64)
            lut[pm[x][k]] = np.arange(1 << k, dtype=np.int64)
            inv[x] = lut
        for key in SIX:
            x, d, y = key[0], int(key[1]), key[2]
            out = inv[x][dm[k][d][pm[y][k]]]
            if (out < 0).any():
                w = int(np.argmin(out >= 0))
                failures.append({"equation": key, "level": k, "word": _index_ud(w, k)})
                out = np.maximum(out, 0)
            maps[key].append(out)
    return maps, failures


def _index_ud(v: int, k: int) -> str:
    return "".join((UP, DOWN)[d] for d in _digits(v, 2, k))


@dataclass
class WreathReport:
    n: int
    ok: bool
    failures: list = field(default_factory=list)
    section_ok: bool = True

    def __bool__(self) -> bool:
        return self.ok and self.section_ok


def wreath_table_check(n: int = 10) -> WreathReport:
    """Compare the conjugated maps with the recursion table on levels <= n.

    Both sides are materialized as permutations of {u,d}^k for every
    k <= n; the table side comes from running the six-state machine, the
    other from the tree encodings.  Also confirms the section of the b1b
    map at u equals the a0c map on levels <= min(n-1, 8).
    """
    lhs, failures = _conjugated_maps(n)
    W = wreath_automaton()
    rhs = all_level_maps(W, n)
    for key in SIX:
        si = W.state_index(key)
        for k in range(n + 1):
            if not np.array_equal(lhs[key][k], rhs[k][si]):
                w = int(np.argmax(lhs[key][k] != rhs[k][si]))
                failures.append({"equation": key, "level": k, "word": _index_ud(w, k)})
    section_ok = True
    for k in range(min(n - 1, 8) + 1):
        sec = lhs["b1b"][k + 1][0::2] // 2
        if not np.array_equal(sec, lhs["a0c"][k]):
            section_ok = False
            break
    return WreathReport(n, not failures, failures, section_ok)


def _perm_parity(p: np.ndarray) -> int:
    """Sign exponent of a permutation array: (size - #cycles) mod 2."""
    step, seen = memoryview(p), bytearray(len(p))
    cycles = sum(1 for i in range(len(p)) if _walk(step, i, seen))
    return (len(p) - cycles) & 1


def F_solution(direct_levels: int = 12, n_coeffs: int = 64) -> dict[str, RationalSeries]:
    """The wreath automaton's characteristic series over Z_2(t), by key.

    F_g = eps_g + t(F_{g at u} + F_{g at d}); its k-th coefficient is the
    sign of g as a permutation of level k+1.  Two independent cross-checks
    run before returning: the coefficient recursion to n_coeffs terms, and
    direct permutation signs of the conjugated maps on levels <= direct_levels.
    """
    W = wreath_automaton()
    chi = _char_rationals(W)
    sol = {key: chi[W.state_index(key)] for key in SIX}
    for key in SIX:
        if sol[key].coefficients(n_coeffs) != char_coeffs(W, key, n_coeffs):
            raise ValueError(f"series solution for {key} disagrees with the recursion")

    # ground truth: signs of the actual conjugated permutations
    maps, failures = _conjugated_maps(direct_levels)
    if failures:
        raise ValueError(f"conjugated map ill-defined: {failures[0]}")
    for key in SIX:
        signs = [_perm_parity(maps[key][k]) for k in range(1, direct_levels + 1)]
        if sol[key].coefficients(direct_levels) != signs:
            raise ValueError(f"series solution for {key} disagrees with permutation signs")
    return sol


def _reduced_ending_count(n: int) -> int:
    # adjacent-distinct words counted by last letter
    if n == 0:
        return 1
    counts = {q: 1 for q in _QLET}
    for _ in range(n - 1):
        total = sum(counts.values())
        counts = {q: total - counts[q] for q in _QLET}
    return counts["a"] + counts["c"]


def lemma_transitive_check(n: int) -> bool:
    """Single dual orbit on the 2^n reduced words of length n ending in a/c.

    The state word is held as state indices and stepped in place by the
    dual action of the letter 1.
    """
    if n < 0:
        raise ValueError(f"level {n} is below 0")
    if n == 0:
        return True
    expected = _reduced_ending_count(n)
    if expected != 1 << n:
        return False
    B = builtin("bellaterra")
    steps = B.step_table()
    one = [B.letter_index("1")]
    ends = (B.state_index("a"), B.state_index("c"))
    # ... b a b a, ending in a
    seed = [B.state_index("ab"[(n - 1 - i) % 2]) for i in range(n)]
    w = list(seed)
    size = 0
    while True:
        _run(steps, w, one)
        size += 1
        if w[-1] not in ends or any(map(eq, w, w[1:])):
            return False  # escaped the set: the invariance claim failed
        if w == seed:
            break
        if size > expected:
            return False
    return size == expected


@dataclass
class AleshinReport:
    n: int
    pairing: dict
    holds: bool
    even_path_ok: bool
    counterexample: dict | None = None


def aleshin_relation_check(n: int = 8, samples: int = 40, seed: int = 0) -> AleshinReport:
    """Match Aleshin generators with digit-swap twists of Bellaterra ones.

    Finds the letter pairing pi with sigma~_{Aleshin,q} = delta .
    sigma~_{Bellaterra,pi(q)} on all levels <= n (delta flips every
    digit), then verifies the product identity
    sigma~_{A,q}^{-1} sigma~_{A,r} = sigma~_{B,pi(q)} sigma~_{B,pi(r)}
    and spot-checks the even-length path transfer it implies.  Both are
    checked on level n alone: the level-k map is the level-n map mod 2^k
    on the first 2^k words, and taking both sides mod 2^k keeps each
    identity, so level n implies every level below it.
    """
    A = builtin("aleshin")
    B = builtin("bellaterra")
    PA = level_maps(A, n)
    PB = level_maps(B, n)
    pairing: dict[str, str] = {}
    counterexample = None
    full = (1 << n) - 1
    for qi, q in enumerate(A.states):
        matches = [ri for ri in range(len(B.states)) if np.array_equal(PA[qi], full - PB[ri])]
        if len(matches) == 1:
            pairing[q] = B.states[matches[0]]
        else:
            counterexample = {"kind": "pairing", "state": q, "level": n}
    holds = len(pairing) == len(A.states)
    if holds:
        inv = [invert_perm(p) for p in PA]
        for qi, q in enumerate(A.states):
            pq = B.state_index(pairing[q])
            for ri, r in enumerate(A.states):
                pr = B.state_index(pairing[r])
                if not np.array_equal(inv[qi][PA[ri]], PB[pq][PB[pr]]):
                    holds = False
                    counterexample = {"kind": "product", "q": q, "r": r, "level": n}
    even_path_ok = holds
    if holds:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            pairs = int(rng.integers(1, 5))
            v = int(rng.integers(0, 1 << n))
            u_b = u_a = v
            for _ in range(pairs):
                qi = int(rng.integers(0, 3))
                ri = int(rng.integers(0, 3))
                # two Bellaterra edges against one forward + one backward
                # Aleshin edge; equal length, same endpoints
                u_b = int(PB[ri][u_b])
                u_b = int(PB[qi][u_b])
                u_a = int(PA[ri][u_a])
                u_a = int(inv[qi][u_a])
            if u_a != u_b:
                even_path_ok = False
                counterexample = {"kind": "even-path", "vertex": v}
                break
    return AleshinReport(n, pairing, holds, even_path_ok, counterexample)


# --- balanced ternary and the preperiod experiment ---

_DIGIT = {"a": -1, "c": 0, "b": 1}
_LETTER = {-1: "a", 0: "c", 1: "b"}


def balanced_ternary_value(w: EventuallyPeriodicWord) -> Fraction:
    """Value of a balanced-ternary coded word, least significant digit first."""
    pre = [_DIGIT[ch] for ch in w.preperiod]
    per = [_DIGIT[ch] for ch in w.period]
    head = sum(d * 3**i for i, d in enumerate(pre))
    tail = sum(d * 3**i for i, d in enumerate(per))
    return head + Fraction(3 ** len(pre) * tail, 1 - 3 ** len(per))


def balanced_ternary_word(v) -> EventuallyPeriodicWord:
    """Balanced-ternary code of a rational with denominator coprime to 3."""
    v = Fraction(v)
    if v.denominator % 3 == 0:
        raise ValueError("denominator divisible by 3 has no eventually periodic code")
    if v.denominator == 1:
        # integer fast path: big values shrink to 0, then the tail is all c
        x = v.numerator
        digits = []
        while x:
            d = (x + 1) % 3 - 1
            digits.append(_LETTER[d])
            x = (x - d) // 3
        return EventuallyPeriodicWord(digits, "c")
    digits = []
    seen: dict[Fraction, int] = {}
    while v not in seen:
        seen[v] = len(digits)
        r = v.numerator * pow(v.denominator, -1, 3) % 3
        d = r - 3 if r == 2 else r
        digits.append(_LETTER[d])
        v = (v - d) / 3
    cut = seen[v]
    return EventuallyPeriodicWord(digits[:cut], digits[cut:])


def alpha(w: EventuallyPeriodicWord) -> EventuallyPeriodicWord:
    """The map w -> (w-1)/2 on balanced-ternary coded values."""
    return balanced_ternary_word((balanced_ternary_value(w) - 1) / 2)


@dataclass
class PreperiodReport:
    n_max: int
    slope: float
    heights: list[int]
    adding_n_max: int
    adding_ok: bool
    adding_max_h: int


def preperiod_growth(n_max: int = 2000, adding_n_max: int = 10000) -> PreperiodReport:
    """Preperiod growth of alpha^{-n}(c^inf) against the odometer baseline.

    The n-th preimage codes the integer 2^n - 1, so its preperiod length
    is the balanced-ternary digit count of 2^n - 1 and grows like
    (log_3 2) n; the report carries the least-squares slope.  The binary
    odometer applied n times to 0^inf codes n itself and its preperiod
    must stay within 2 of log2(n+1), rounded up.
    """
    if n_max < 2 or adding_n_max < 0:
        raise ValueError(f"a slope needs n_max >= 2 and adding_n_max >= 0, "
                         f"not {n_max} and {adding_n_max}")
    # v > 0 codes as L digits, the last one nonzero, then c c c ...; L
    # digits reach at most (3^L - 1)/2, so L is the least with 2v+1 <= 3^L
    heights = []
    v, L, top = 0, 0, 1
    for _ in range(n_max):
        v = 2 * v + 1
        while 2 * v + 1 > top:
            L, top = L + 1, 3 * top
        heights.append(L)
    slope = float(np.polyfit(np.arange(1, n_max + 1), heights, 1)[0])

    # the odometer image stays as letter indices, one row pass per power
    M = builtin("adding")
    steps, r = M.step_table(), M.state_index("r")
    pre, per = [], [M.letter_index("0")]
    adding_ok = True
    adding_max_h = 0
    for n in range(1, adding_n_max + 1):
        pre, per = _row_pass(steps, r, pre, per)
        h = len(pre)
        adding_max_h = max(adding_max_h, h)
        if h > ceil(log2(n + 1)) + 2:
            adding_ok = False
    return PreperiodReport(n_max, slope, heights, adding_n_max, adding_ok, adding_max_h)
