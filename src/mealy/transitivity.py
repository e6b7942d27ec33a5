"""Orbits and spherical transitivity.

For a cyclic automaton (output permutations generating the group of one full
|A|-cycle rho) the action of a state q on the levels of the tree is measured
by its characteristic series chi(q) over Z_m, m = |A|:

    chi(q) = k_q + t * sum_x chi(q^x),      sigma_q = rho^{k_q}.

sigma_q acts transitively on every level iff every coefficient of chi(q)
generates Z_m.  Coefficients obey the linear recursion c_{n+1} = T c_n with
T[q][r] = #{x : q^x = r}, so the decision is exact: the coefficient vector
trajectory is eventually periodic inside Z_m^{|Q|}.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Callable

import numpy as np

from .automaton import Automaton, _least_full_cycle, _row_pass, dual, properties
from .levels import LEVEL_CAP, _refute_dual, _top_level, _walk, index_word, level_permutation
from .ratfunc import RationalSeries, solve_linear
from .schreier import first_divergence

# -- orbits on a level -------------------------------------------------------


class OrbitReport:
    """Orbit decomposition of <w> on level n (or on a designated subset)."""

    __slots__ = ("level", "sizes", "rep_indices", "transitive", "domain_size")

    def __init__(self, level, sizes, rep_indices, transitive, domain_size):
        self.level = level
        self.sizes = sizes
        self.rep_indices = rep_indices
        self.transitive = transitive
        self.domain_size = domain_size

    def orbit_count(self) -> int:
        return len(self.sizes)

    def max_orbit(self) -> int:
        return max(self.sizes) if self.sizes else 0

    def csv_row(self) -> str:
        return f"{self.level},{self.orbit_count()},{self.max_orbit()},{str(self.transitive).lower()}"

    def __repr__(self) -> str:
        return (
            f"OrbitReport(level={self.level}, orbits={self.orbit_count()}, "
            f"max={self.max_orbit()}, transitive={self.transitive})"
        )


def orbits_on_level(
    M: Automaton,
    w,
    n: int,
    subset: Callable[[tuple[str, ...]], bool] | None = None,
    cap: int = LEVEL_CAP,
) -> OrbitReport:
    """Exact orbit decomposition of the group word w acting on level n.

    With a subset predicate, orbits are the permutation cycles through the
    subset's members; the caller is responsible for picking an invariant
    subset (a cycle that leaves the subset is still reported in full, and
    transitivity then fails).
    """
    perm = level_permutation(M, w, n, cap=cap)
    size = len(perm)
    if subset is None:
        domain = range(size)
    else:
        domain = [v for v in range(size) if subset(index_word(M, v, n))]
    step, seen = memoryview(perm), bytearray(size)
    sizes: list[int] = []
    reps: list[int] = []
    for start in domain:
        if not seen[start]:
            sizes.append(_walk(step, start, seen))
            reps.append(start)
    in_domain = len(domain)
    # one cycle through every member: all of them lie on it
    transitive = len(sizes) == 1 and sizes[0] == in_domain
    sizes.sort(reverse=True)
    return OrbitReport(n, sizes, np.asarray(reps), transitive, in_domain)


# -- characteristic series ---------------------------------------------------


def _exponents(M: Automaton) -> np.ndarray:
    """k_q for every state, with sigma_q = rho^{k_q} for rho the least full
    |A|-cycle in <sigma_q>; raises unless <sigma_q> is the group of rho,
    which then holds every sigma_q."""
    m, perms = M.n_letters, M.o.tolist()
    rho = _least_full_cycle(perms, m)
    if rho is None:
        raise ValueError("characteristic series needs a cyclic automaton")
    power, cur = {}, tuple(range(m))
    for k in range(m):
        power[cur] = k
        cur = tuple(rho[i] for i in cur)
    return np.asarray([power[tuple(p)] for p in perms], dtype=np.int64)


def _transition_count_matrix(M: Automaton) -> np.ndarray:
    nq = M.n_states
    T = np.zeros((nq, nq), dtype=np.int64)
    for q in range(nq):
        for x in range(M.n_letters):
            T[q, int(M.t[q, x])] += 1
    return T


def _coeff_vectors(M: Automaton):
    """The coefficient vectors c_1, c_2, ... over Z_m, entry q from chi(q).

    Raises at the call, not at the first vector, when M is not cyclic.
    """
    m = M.n_letters
    T = _transition_count_matrix(M)
    return itertools.accumulate(itertools.repeat(T), lambda vec, T: (T @ vec) % m,
                                initial=_exponents(M) % m)


def char_coeffs(M: Automaton, q: str, N: int) -> list[int]:
    """First N coefficients of chi(q) over Z_m, m = |A|."""
    vectors = _coeff_vectors(M)
    qi = M.state_index(q)
    return [int(vec[qi]) for vec in itertools.islice(vectors, N)]


def char_rational(M: Automaton, q: str) -> RationalSeries:
    """chi(q) as an exact rational function over Z_p(t), |A| = p prime.

    Solves (I - tT) chi = k by Gaussian elimination over the fraction field.
    """
    return _char_rationals(M)[M.state_index(q)]


def _char_rationals(M: Automaton) -> list[RationalSeries]:
    """chi(q) for every state q, in state order, from one solve."""
    k = _exponents(M)
    p = M.n_letters
    if not _is_prime(p):
        raise ValueError(f"alphabet size {p} is not prime; use char_coeffs")
    k %= p
    T = _transition_count_matrix(M) % p
    nq = M.n_states
    A = [[RationalSeries.of([int(i == j), -int(T[i, j])], [1], p) for j in range(nq)]
         for i in range(nq)]
    b = [RationalSeries.const(int(c), p) for c in k]
    return solve_linear(A, b)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_transitive_exact(M: Automaton, q: str) -> bool:
    """Exact spherical-transitivity decision for state q of a cyclic automaton:
    no coefficient of chi(q) fails to generate Z_m."""
    return first_intransitive_level(M, q) is None


def _first_bad_levels(M: Automaton) -> list[int | None]:
    """For every state q, the first n with c_n[q] not a generator of Z_m,
    or None: one pass over c_1, c_2, ..., which are eventually periodic,
    so a repeated vector ends it (as does every state having its n)."""
    m = M.n_letters
    bad: list[int | None] = [None] * M.n_states
    seen: set[bytes] = set()
    for n, vec in enumerate(_coeff_vectors(M), start=1):
        key = vec.tobytes()
        if key in seen or None not in bad:
            return bad
        seen.add(key)
        for qi, c in enumerate(vec.tolist()):
            if bad[qi] is None and gcd(c, m) != 1:
                bad[qi] = n


def first_intransitive_level(M: Automaton, q: str) -> int | None:
    """Index of the first non-generator coefficient of chi(q), or None.

    The action of q is transitive on level n iff c_1..c_n all generate Z_m,
    so this is also the first level where transitivity fails.
    """
    return _first_bad_levels(M)[M.state_index(q)]


# -- cotransitivity -----------------------------------------------------------


class Verdict:
    """Outcome of a cotransitivity check: yes / no / unknown plus evidence."""

    __slots__ = ("kind", "witness", "level", "evidence")

    def __init__(self, kind: str, witness: str | None = None, level: int | None = None, evidence=None):
        if kind not in ("yes", "no", "unknown"):
            raise AssertionError(f"verdict kind {kind!r} is not yes, no or unknown")
        self.kind = kind
        self.witness = witness
        self.level = level
        self.evidence = evidence or {}

    def __bool__(self) -> bool:
        return self.kind == "yes"

    def __repr__(self) -> str:
        extra = ""
        if self.witness is not None:
            extra = f", witness={self.witness}"
        if self.level is not None:
            extra += f", level={self.level}"
        return f"Verdict({self.kind}{extra})"


def cotransitivity(M: Automaton, level_budget: int = 4) -> Verdict:
    """Decide whether some dual state acts spherically transitively.

    Exact when M is cocyclic (characteristic-series criterion on the dual);
    otherwise levels 1..budget are searched for refutations of every dual
    state (levels._refute_dual on this one table), and the verdict is
    unknown if some state survives.  The search stops at the highest level
    the level caps allow; a verdict left unknown there has that level and
    evidence "capped_at".
    """
    if not M.is_invertible():
        raise ValueError("cotransitivity assumes an invertible automaton")
    if properties(M).cocyclic:
        D = dual(M)
        bad = dict(zip(D.states, _first_bad_levels(D)))
        for x, n in bad.items():
            if n is None:
                return Verdict("yes", witness=x, evidence={"exact": True})
        return Verdict("no", level=max(bad.values()), evidence={"first_bad_level": bad, "exact": True})
    fail = _refute_dual(M.t[None], M.o[None], level_budget)[0].tolist()
    # dual states in the order they fell, level by level
    evidence = {M.alphabet[x]: n for n, x in sorted((n, x) for x, n in enumerate(fail) if n)}
    if all(fail):
        return Verdict("no", level=max(fail), evidence={"first_bad_level": evidence, "exact": False})
    top = _top_level(M.t.shape[::-1], level_budget, LEVEL_CAP)
    evidence = {"surviving_states": [M.alphabet[x] for x, n in enumerate(fail) if not n],
                "first_bad_level": evidence}
    if top < level_budget:
        evidence["capped_at"] = top
    return Verdict("unknown", level=top, evidence=evidence)


# -- stabilization of x^infinity ----------------------------------------------


def stabilizes_infinite(M: Automaton, w, x: str) -> bool:
    """Whether the group word w fixes the infinite word x x x ...

    It does when sectioning w at x reaches a repeated section before any
    section moves x (schreier.first_divergence).
    """
    return first_divergence(M, w, x) is None


# -- orbit period under the dual action ---------------------------------------


def orbit_cycle(M: Automaton, x: str, v) -> tuple[int, int]:
    """(preperiod, period) of the state word v under repeated tau_x.

    Row j of v, in state s_t after t letters x, reads the stream the rows
    to its right write, rightmost row x x x ...; the orbit point t is the
    tuple of the rows' s_t.  The rows run right to left, as in act_inf:
    one _row_pass per row gives its output stream for the next row, and
    one over a table whose entries write the row they leave gives its state
    stream in canonical form, with minimal preperiod h_j and period p_j.
    (h, p) is an eventual period of a stream iff h >= h_j and p_j | p, so
    the orbit's is (max h_j, lcm p_j).  The work is the sum of the rows'
    stream lengths, not the orbit length.  For reversible automata the
    preperiod is 0 and the period is the orbit size; the empty word repeats
    at once, (0, 1).
    """
    steps = M.step_table()
    states = [[(row, nxt) for _, nxt in entries] for row, entries in enumerate(steps)]
    pre, per = [], [M.letter_index(x)]
    h, p = 0, 1
    for q in reversed(v):
        row = M.state_index(q)
        spre, sper = _row_pass(states, row, pre, per)
        h, p = max(h, len(spre)), lcm(p, len(sper))
        pre, per = _row_pass(steps, row, pre, per)
    return h, p
