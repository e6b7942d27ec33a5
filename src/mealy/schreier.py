"""Schreier graphs of automaton actions, diameters, balls, and steering.

The level-n Schreier graph of an invertible automaton has vertex set A^n
(indexed with the first-read letter least significant) and one edge
s -> act(q, s) per state q.  Distances are undirected.  The witness and
steering routines replay the constructive quadratic-diameter argument:
group words that fix x^n but move x^{n+B} are found by a pigeonhole search,
sectioned down to cycle a single level, and stacked to steer any vertex to
x^n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .automaton import Automaton, _rows, _run, act, group_section
from .levels import LEVEL_CAP, _digits, invert_perm, level_maps, word_index
from .words import GroupWord

EXACT_DIAMETER_CAP = 1 << 14


class SchreierGraph:
    """Explicit level-n action graph of an invertible automaton."""

    __slots__ = ("M", "n", "n_vertices", "perms")

    def __init__(self, M: Automaton, n: int, perms: np.ndarray):
        self.M = M
        self.n = n
        self.n_vertices = perms.shape[1]
        self.perms = perms

    def __repr__(self) -> str:
        return f"<SchreierGraph n={self.n}, {self.n_vertices} vertices, {len(self.perms)} generators>"


def build(M: Automaton, n: int, cap: int = LEVEL_CAP) -> SchreierGraph:
    """Construct the level-n Schreier graph (per-state permutation arrays)."""
    if not M.is_invertible():
        raise ValueError("Schreier graphs need an invertible automaton")
    P = level_maps(M, n, cap=cap)
    return SchreierGraph(M, n, P)


def _generator_rows(G: SchreierGraph) -> list[np.ndarray]:
    """Each generator map and its inverse, an involution's once; no byte copies."""
    rows = []
    for p in G.perms:
        for r in (p, invert_perm(p)):
            if not any(np.array_equal(r, kept) for kept in rows):
                rows.append(r)
    return rows


def eccentricity(G: SchreierGraph, source: int) -> int:
    """Greatest distance from a vertex, edges undirected."""
    if not (0 <= source < G.n_vertices):
        raise ValueError("source out of range")
    return _bfs_pass(_generator_rows(G), [source])


_PASS_SOURCES = 4096  # BFS sources per pass: 64 uint64 lane words per vertex
_GATHER = 1 << 16  # vertices per np.take, which copies its int32 map to intp


def _bfs_pass(rows: list[np.ndarray], sources) -> int:
    """Deepest BFS from the distinct vertices sources, one bit lane per
    source (MS-BFS, Then et al. 2014): bit s of F[v] says v is on the
    frontier of source s, and as rows holds each map and its inverse, the
    OR of F[p] over the rows p collects the frontier bits of every
    neighbour.  A lane word is the narrowest of 8, 16 and 32 bits that
    holds all the sources, so a pass from a few sources stays small, and
    64 bits above 32 sources."""
    k = len(sources)
    bits = next((b for b in (8, 16, 32) if k <= b), 64)
    word = np.dtype(f"uint{bits}")
    lanes = np.arange(k)
    frontier = np.zeros((len(rows[0]), -(-k // bits)), dtype=word)
    frontier[sources, lanes // bits] = np.ones(k, word) << (lanes % bits).astype(word)
    unreached = np.full_like(frontier, np.iinfo(word).max)
    unreached[:, -1] >>= word.type(-k % bits)  # no lanes past the k sources
    unreached ^= frontier
    # two frontiers in turn: a level allocates nothing of the graph's size
    new, gathered = np.empty_like(frontier), np.empty_like(frontier[:_GATHER])
    depth = -1
    while frontier.any():
        depth += 1
        for lo in range(0, len(new), _GATHER):
            part, hi = new[lo:lo + _GATHER], lo + _GATHER
            # mode="raise" would copy out= to a temporary
            np.take(frontier, rows[0][lo:hi], axis=0, out=part, mode="clip")
            for p in rows[1:]:
                part |= np.take(frontier, p[lo:hi], axis=0, out=gathered[:len(part)], mode="clip")
        new &= unreached
        unreached ^= new
        frontier, new = new, frontier
    if unreached.any():
        raise ValueError("graph is disconnected")
    return depth


def diameter(G: SchreierGraph, mode: str = "exact", sample: int = 16, seed: int = 0):
    """Exact diameter or (lower, upper) bounds.

    Exact: a bit-parallel all-pairs BFS, 64 sources per machine word, for
    graphs of up to EXACT_DIAMETER_CAP vertices (MemoryError above it).
    Bounds: lower = max eccentricity over x^n (vertex 0) and up to `sample`
    seeded random vertices, in one pass; upper = twice the eccentricity of
    x^n, by the triangle inequality through x^n.
    """
    nv = G.n_vertices
    if mode == "exact":
        if nv > EXACT_DIAMETER_CAP:
            raise MemoryError(f"{nv} vertices above the exact cap")
        rows = _generator_rows(G)
        return max(_bfs_pass(rows, np.arange(s, min(s + _PASS_SOURCES, nv)))
                   for s in range(0, nv, _PASS_SOURCES))
    if mode != "bound":
        raise ValueError("mode must be 'exact' or 'bound'")
    if sample < 0:
        raise ValueError(f"sample must be at least 0, not {sample}")
    rng = np.random.default_rng(seed)
    sources = {0}
    if nv > 1:
        sources |= {int(v) for v in rng.integers(0, nv, size=min(sample, nv))}
    rows = _generator_rows(G)
    return (_bfs_pass(rows, sorted(sources)), 2 * _bfs_pass(rows, [0]))


# -- implicit word walks ------------------------------------------------------


def _act_digits(steps, row: int, digits: list[int], a: int) -> int:
    """Index of the image of the letter indices digits under one step-table row."""
    out = 0
    for y in reversed(_run(steps, [row], digits)):
        out = out * a + y
    return out


def _act_index(M: Automaton, row: int, v: int, n: int) -> int:
    """Image of the index-coded word v (length n) under one step-table row."""
    a = M.n_letters
    return _act_digits(M.step_table(), row, _digits(v, a, n), a)


def _word_bfs(M: Automaton, x: str, L: int, rounds: int):
    """Breadth-first walk from x^L under the states and their inverses.

    Words of length L are index coded and no graph is materialized.  Yields
    (image, parent, (state, sign)) once per word reached within `rounds`
    generator steps, x^L itself first as (x^L, None, None); each state is
    tried before its inverse, an order that decides which witness
    find_level_witness returns.
    """
    nq, a, steps = M.n_states, M.n_letters, M.step_table()
    v0 = word_index(M, (x,) * L)
    gens = [(qi + off, (q, s)) for qi, q in enumerate(M.states) for s, off in ((1, 0), (-1, nq))]
    seen = {v0}
    yield v0, None, None
    frontier = [v0]
    for _ in range(rounds):
        nxt = []
        for v in frontier:
            digits = _digits(v, a, L)
            for row, letter in gens:
                u = _act_digits(steps, row, digits, a)
                if u not in seen:
                    seen.add(u)
                    yield u, v, letter
                    nxt.append(u)
        if not nxt:
            break
        frontier = nxt


def ball_size(M: Automaton, x: str, r: int, L: int | None = None) -> int:
    """Size of the radius-r ball around x^L under all states and inverses.

    The walk is implicit (no graph is materialized); L defaults to 2r.  The
    count is nondecreasing in both r and L and lower-bounds the ball of the
    boundary action around x x x ...
    """
    if L is None:
        L = max(2 * r, 1)
    if not M.is_invertible():
        raise ValueError("ball_size works in the group generated by the states")
    return sum(1 for _ in _word_bfs(M, x, L, r))


# -- witnesses and steering ---------------------------------------------------


class WitnessNotFound(Exception):
    def __init__(self, n: int, budget: int):
        super().__init__(f"no witness for level {n} within budget {budget}")
        self.n = n
        self.budget = budget


def find_level_witness(
    M: Automaton, x: str, n: int, budget: int, lookahead: int = 16
) -> GroupWord:
    """A group word u fixing x^n but moving the infinite word x x x ...

    BFS over images of x^{n+B} under generator words of length <= budget.
    Two BFS nodes whose images share the level-n prefix but differ beyond it
    give u = w2^{-1} w1 with |u| <= 2 budget; by the pigeonhole principle a
    collision appears once the ball outgrows the prefix space.
    """
    if n < 0:
        raise ValueError(f"level {n} is below 0")
    if not M.is_invertible():
        raise ValueError("witness search needs an invertible automaton")

    if n == 0:
        # any state moving x^infinity will do
        for q in M.states:
            w = GroupWord([(q, 1)])
            if first_divergence(M, w, x) is not None:
                return w
        raise WitnessNotFound(0, budget)

    mod = M.n_letters**n
    words: dict[int, tuple] = {}  # image -> letter tuple, rightmost first
    by_prefix: dict[int, int] = {}
    for u, parent, letter in _word_bfs(M, x, n + lookahead, budget):
        words[u] = () if parent is None else words[parent] + (letter,)
        other = by_prefix.setdefault(u % mod, u)
        if other != u:
            # act(w2^{-1} w1, x^n) = x^n while the long images differ
            w1 = GroupWord(tuple(reversed(words[u])))
            w2 = GroupWord(tuple(reversed(words[other])))
            return (w2.inverse() * w1).reduce()
    raise WitnessNotFound(n, budget)


def first_divergence(M: Automaton, w: GroupWord, x: str) -> int | None:
    """First position where act(w, x x x ...) differs from x x x ..., or None.

    Feeding x writes its image and leaves the rows of w at their section
    at x.  Sections never grow, so the row tuples repeat, and w fixes
    x x x ... when they repeat before a letter other than x is written.
    """
    xi = M.letter_index(x)
    rows, steps = _rows(M, w), M.step_table()
    seen: set[tuple] = set()
    while (key := tuple(rows)) not in seen:
        seen.add(key)
        if _run(steps, rows, [xi]) != [xi]:
            return len(seen) - 1  # the position just fed
    return None


def level_cycler(M: Automaton, x: str, m: int, budget: int | None = None) -> GroupWord:
    """A group word fixing x^m whose image of x x x... first diverges at m.

    Obtained by sectioning a level witness down to its divergence point:
    if u fixes x^k and moves position k, its section at x^{k-m} fixes x^m
    and moves position m.
    """
    return _level_cycler(M, x, m, _cycler_budget(m) if budget is None else budget)[0]


def _cycler_budget(m: int) -> int:
    return max(2 * (m + 1), 8)


@lru_cache(maxsize=256)
def _level_cycler(M: Automaton, x: str, m: int, budget: int) -> tuple[GroupWord, tuple[int, ...]]:
    """The level-m cycler and the step-table rows of its section at x^m."""
    u = find_level_witness(M, x, m, budget)
    k = first_divergence(M, u, x)
    if k is None or k < m:
        raise AssertionError(f"witness contract violated: level {m} witness diverges at {k}")
    w = u
    if k > m:
        w = group_section(M, u, (x,) * (k - m)).reduce()
        if first_divergence(M, w, x) != m:
            raise AssertionError(f"the level {m} cycler does not diverge at {m}")
    section = _rows(M, w)
    _run(M.step_table(), section, [M.letter_index(x)] * m)  # the cycler fixes x^m
    return w, tuple(section)


def steer_to(M: Automaton, x: str, s) -> GroupWord:
    """A group word w with act(w, s) = x^|s|, built level by level.

    At level m the current image already starts with x^m; the level-m
    cycler's section permutes the letter at position m by a nontrivial power
    of the alphabet cycle, so at most |A| - 1 applications fix it.  The
    image is kept as letter indices, and each application runs the
    cycler's section at x^m, cached with the cycler, on its tail from
    position m.  The applied cyclers are joined by one free reduction.  The
    result is length O(n^2) and is verified by act before returning;
    AssertionError, raised explicitly so python -O keeps it, when that check
    or the prefix check at a level fails.  ValueError, naming the level,
    when |A| applications leave position m unfixed, as on many words over
    dual(div3), whose sections need not cycle the alphabet.
    """
    letters = tuple(s)
    xi = M.letter_index(x)
    cur = [M.letter_index(y) for y in letters]
    steps, p = M.step_table(), M.n_letters
    applied: list[GroupWord] = []
    for m in range(len(cur)):
        if cur[m] == xi:
            continue
        cyc, section = _level_cycler(M, x, m, _cycler_budget(m))
        for _ in range(p):
            cur[m:] = _run(steps, list(section), cur[m:])
            applied.append(cyc)
            if cur[m] == xi:
                break
        else:
            raise ValueError(f"level {m}: {p} applications of the level cycler do not put "
                             f"letter {x!r} at position {m}")
        if cur[:m + 1] != [xi] * (m + 1):
            raise AssertionError(f"level {m}: the level cycler moved the prefix {x!r}^{m}")
    total = GroupWord._held(tuple(q for cyc in reversed(applied) for q in cyc.letters)).reduce()
    if tuple(act(M, total, letters)) != (x,) * len(letters):
        raise AssertionError("steering self-check failed: act does not map the input to "
                             f"{x!r}^{len(letters)}")
    return total


# -- lift structure ------------------------------------------------------------


class LiftReport:
    __slots__ = ("ok", "rules", "counterexample", "max_level")

    def __init__(self, ok, rules, counterexample, max_level):
        self.ok = ok
        self.rules = rules
        self.counterexample = counterexample
        self.max_level = max_level

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"LiftReport(ok={self.ok}, rules={self.rules})"


def lift_rules(M: Automaton) -> dict[str, tuple[tuple[str, ...], bool]] | None:
    """Per-target-state 2-lift rules, if the automaton has clean ones.

    For a binary-alphabet automaton: an r-edge of level n lifts to the
    q-edges over first letters eps with q^eps = r.  When each target r has
    exactly one lifting state per first letter and the two lifted edges
    agree on crossing (sigma_q(eps) != eps), the rule is
    r -> ((label at eps=0, label at eps=1), crossed).
    """
    if M.n_letters != 2:
        return None
    rules = {}
    for ri, r in enumerate(M.states):
        pairs = [
            (qi, eps)
            for qi in range(M.n_states)
            for eps in range(2)
            if int(M.t[qi, eps]) == ri
        ]
        if len(pairs) != 2 or {eps for _, eps in pairs} != {0, 1}:
            return None
        by_eps = dict((eps, qi) for qi, eps in pairs)
        crossings = {int(M.o[qi, eps]) != eps for qi, eps in pairs}
        if len(crossings) != 1:
            return None
        rules[r] = (
            (M.states[by_eps[0]], M.states[by_eps[1]]),
            crossings.pop(),
        )
    return rules


def verify_lift(M: Automaton, n: int) -> LiftReport:
    """Check the projection law and the lift structure up to level n.

    Level k+1 actions are recomputed by direct per-word transducer walks and
    compared against the projection law act(q, eps v) = sigma_q(eps) .
    act(q^eps, v); for binary automata with clean 2-lift rules the rules are
    extracted and returned.
    """
    a = M.n_letters
    by_walk: list[np.ndarray] = [np.zeros((M.n_states, 1), dtype=np.int64)]
    for k in range(1, n + 1):
        size = a**k
        arr = np.empty((M.n_states, size), dtype=np.int64)
        for qi in range(M.n_states):
            for v in range(size):
                arr[qi, v] = _act_index(M, qi, v, k)
        by_walk.append(arr)
    counter = None
    for k in range(n):
        cur, nxt = by_walk[k], by_walk[k + 1]
        for qi in range(M.n_states):
            for eps in range(a):
                want = int(M.o[qi, eps]) + a * cur[int(M.t[qi, eps])]
                if not (nxt[qi, eps::a] == want).all():
                    bad = int(np.nonzero(nxt[qi, eps::a] != want)[0][0])
                    counter = {
                        "level": k + 1,
                        "state": M.states[qi],
                        "first_letter": M.alphabet[eps],
                        "vertex": int(bad * a + eps),
                    }
                    return LiftReport(False, lift_rules(M), counter, n)
    return LiftReport(True, lift_rules(M), None, n)

