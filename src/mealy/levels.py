"""Level actions as integer arrays.

A word s_0 s_1 ... s_{n-1} over an alphabet of size a is indexed by
sum s_i * a^i: the first-read letter is the least significant digit, so the
arithmetic automata (adding machine, division automata) act on indices as
ordinary modular arithmetic.

The per-state level-n action satisfies the projection law
act(q, eps v) = sigma_q(eps) . act(q^eps, v), which gives the recursion used
here: the slice of positions with first letter eps maps through state q as
output digit o[q][eps] plus a times the level-(n-1) action of t[q][eps].
"""

from __future__ import annotations

import numpy as np

from .automaton import Automaton, _rows

LEVEL_CAP = 1 << 24


def _dtype_for(size: int):
    return np.int64 if size > (1 << 31) - 1 else np.int32


def word_index(M: Automaton, s) -> int:
    a = M.n_letters
    v = 0
    for i, x in enumerate(s):
        v += M.letter_index(x) * a**i
    return v


def index_word(M: Automaton, v: int, n: int) -> tuple[str, ...]:
    a = M.n_letters
    out = []
    for _ in range(n):
        out.append(M.alphabet[v % a])
        v //= a
    return tuple(out)


def _levels(M: Automaton, n: int, cap: int):
    """Level maps for levels 0..n in turn, each built from the one before.

    Every level uses the dtype of level n.  Only the level being built and
    the one before it are held here.  ValueError for n below 0.
    """
    a, nq = M.n_letters, M.n_states
    if n < 0:
        raise ValueError(f"level {n} is below 0")
    # a**bit_length(cap) > cap for a >= 2, so a huge n never computes a huge a**n
    size = a ** min(n, cap.bit_length())
    if size > cap:
        raise MemoryError(f"level size {a}^{n} exceeds cap {cap}")
    dt = _dtype_for(size)
    P = np.zeros((nq, 1), dtype=dt)
    yield P
    o = M.o.astype(dt)
    t = M.t
    for k in range(1, n + 1):
        new = np.empty((nq, a**k), dtype=dt)
        for q in range(nq):
            for x in range(a):
                new[q, x::a] = o[q, x] + a * P[t[q, x]]
        P = new
        yield P


def level_maps(M: Automaton, n: int, cap: int = LEVEL_CAP) -> np.ndarray:
    """Array L with L[q][v] = index of act(q, word v) on level n.

    Works for non-invertible automata too (rows are then not permutations).
    Shape (|Q|, a^n).
    """
    for P in _levels(M, n, cap):
        pass
    return P


def all_level_maps(M: Automaton, n: int, cap: int = LEVEL_CAP) -> list[np.ndarray]:
    """level_maps for every level 0..n, cheapest-first (one recursion pass)."""
    return list(_levels(M, n, cap))


def _search_levels(M: Automaton, n: int):
    """Level maps for levels 1..n in turn, for a search that may stop early.

    Unlike level_maps, a level above LEVEL_CAP raises MemoryError only when
    the search asks for it, so a verdict reached below the cap still stands.
    ValueError for n below 0.
    """
    if n < 0:
        raise ValueError(f"level {n} is below 0")
    top = 0  # counting up keeps a huge n from building a huge a**n
    while top < n and M.n_letters ** (top + 1) <= LEVEL_CAP:
        top += 1
    levels = _levels(M, top, LEVEL_CAP)
    next(levels)
    yield from levels
    if top < n:
        raise MemoryError(f"level size {M.n_letters}^{top + 1} exceeds cap {LEVEL_CAP}")


def invert_perm(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def level_permutation(M: Automaton, w, n: int, cap: int = LEVEL_CAP) -> np.ndarray:
    """The permutation of {0..a^n - 1} induced by the group word w.

    Consistent with act on every word of length n; inverse letters require
    an invertible automaton.
    """
    rows = _rows(M, w)  # rows from |Q| on are inverse states
    P = level_maps(M, n, cap=cap)
    nq, size = P.shape
    v = np.arange(size, dtype=P.dtype)
    inv_cache: dict[int, np.ndarray] = {}
    for row in reversed(rows):
        if row < nq:
            v = P[row][v]
        else:
            if row not in inv_cache:
                inv_cache[row] = invert_perm(P[row - nq])
            v = inv_cache[row][v]
    return v


def _walk(F, v: int, seen: bytearray) -> int:
    """Follow the map F from v, marking each point until one already marked.

    F is any indexable map (a memoryview of the level array walks it
    without copying); returns how many points this walk marked.
    """
    n = 0
    while not seen[v]:
        seen[v] = 1
        v = F[v]
        n += 1
    return n


def is_single_cycle(p: np.ndarray) -> bool:
    """Whether the permutation p is one full-length cycle: a bijection
    whose orbit through 0 covers every point."""
    N = len(p)
    if N <= 1:
        return True
    if np.bincount(p, minlength=N).max() != 1:
        return False
    return _walk(memoryview(p), 0, bytearray(N)) == N


def has_spanning_orbit(F: np.ndarray) -> bool:
    """Whether some point's forward orbit under the map F covers everything.

    For a permutation this means a single cycle.  A non-bijective map can
    still span (a tail leading into a cycle), but only if at most one point
    is outside the image; in that case the covering orbit must start there.
    """
    N = len(F)
    if N <= 1:
        return True
    missing = np.flatnonzero(np.bincount(F, minlength=N) == 0)
    if len(missing) > 1:
        return False
    start = int(missing[0]) if len(missing) else 0
    return _walk(memoryview(F), start, bytearray(N)) == N
