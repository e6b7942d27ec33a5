"""Level actions as integer arrays.

A word s_0 s_1 ... s_{n-1} over an alphabet of size a is indexed by
sum s_i * a^i: the first-read letter is the least significant digit, so the
arithmetic automata (adding machine, division automata) act on indices as
ordinary modular arithmetic.

The per-state level-n action satisfies the projection law
act(q, eps v) = sigma_q(eps) . act(q^eps, v), which gives the recursion used
here: the slice of positions with first letter eps maps through state q as
output digit o[q][eps] plus a times the level-(n-1) action of t[q][eps].

Whether a level map is one full cycle is decided by first return, the
finite form of the section recursion for tree automorphisms (Nekrashevych,
*Self-similar groups*, 2005): g is transitive on levels 1..n iff it is an
a-cycle on level 1 and the section of g^a at vertex 0 is transitive on
levels 1..n-1.  The kernel needs no tree structure, only this lemma: let p
be a permutation of {0..N-1} and d a divisor of N such that p % d depends
only on v % d, inducing sigma on {0..d-1}.  Then p is one N-cycle iff sigma
is a d-cycle and the first-return map on the fiber arange(0, N, d) -- p
applied d times, then divided by d -- is one (N/d)-cycle.  is_single_cycle
finds d itself among the divisors of N up to MAX_DIVISOR and repeats the
step down to WALK_CUTOFF points; a map with no such divisor, and the last
small map, are decided by walking the cycle through 0 point by point.
"""

from __future__ import annotations

import numpy as np

from .automaton import Automaton, _rows

LEVEL_CAP = 1 << 24
# entries of one whole |Q| x a^n level array: 256 MiB as int32, so machines
# of up to four states reach LEVEL_CAP
ARRAY_CAP = 1 << 26
# maps up to this many points are walked: on a 2-vCPU x86 VM the two tie on
# the adding machine's 2^11-point level map (158 and 154 us), and below it
# first return, at 30-120 us, loses to the walk
WALK_CUTOFF = 2048
MAX_DIVISOR = 16  # largest fiber size tried by first return
# maps up to this many points have their image taken as a Python set: at 4
# points that is 0.8 us against 4 us for numpy's calls, and the two tie at 64
_SET_CUTOFF = 64
_PROBE_ROWS = 64
_BLOCK_ROWS = 1 << 14


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


def _oversize(M: Automaton, n: int, cap: int) -> str | None:
    """Why level n of M is refused, or None: a row of more than cap points,
    or more than ARRAY_CAP entries over all |Q| rows."""
    a, nq = M.n_letters, M.n_states
    # a**bit_length(cap) > cap for a >= 2, so a huge n never computes a huge a**n
    size = a ** min(n, cap.bit_length())
    if size > cap:
        return f"level size {a}^{n} exceeds cap {cap}"
    if nq * size > ARRAY_CAP:
        return f"{nq} rows of level size {a}^{n} exceed {ARRAY_CAP} entries"
    return None


def _levels(M: Automaton, n: int, cap: int):
    """Level maps for levels 0..n in turn, each built from the one before.

    Every level uses the dtype of level n.  Only the level being built and
    the one before it are held here.  ValueError for n below 0, MemoryError
    for a level _oversize refuses.
    """
    a, nq = M.n_letters, M.n_states
    if n < 0:
        raise ValueError(f"level {n} is below 0")
    if why := _oversize(M, n, cap):
        raise MemoryError(why)
    size = a**n
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

    Unlike level_maps, a level _oversize refuses raises MemoryError only when
    the search asks for it, so a verdict reached below the caps still stands.
    ValueError for n below 0.
    """
    if n < 0:
        raise ValueError(f"level {n} is below 0")
    top = 0
    while top < n and not _oversize(M, top + 1, LEVEL_CAP):
        top += 1
    levels = _levels(M, top, LEVEL_CAP)
    next(levels)
    yield from levels
    if top < n:
        raise MemoryError(_oversize(M, top + 1, LEVEL_CAP))


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


def _image_gaps(F: np.ndarray) -> tuple[int, int] | None:
    """(how many points of range(len(F)) lie outside the image of F, the
    least of them or -1); None when F is not a map into range(len(F))."""
    N = len(F)
    if N <= _SET_CUTOFF:
        L = F.tolist()
        if L and not (0 <= min(L) and max(L) < N):
            return None
        image = set(L)
        gaps = N - len(image)
        return gaps, (next(v for v in range(N) if v not in image) if gaps else -1)
    # a negative value reads as a huge one in the unsigned view, so one max
    # bounds both sides; the mark takes one byte per point
    if F.view(f"u{F.itemsize}").max() >= N:
        return None
    mark = np.zeros(N, dtype=bool)
    mark[F] = True
    gaps = N - np.count_nonzero(mark)
    return gaps, (int(mark.argmin()) if gaps else -1)


def _compatible(p: np.ndarray, d: int) -> bool:
    """Whether p % d depends only on v % d; d divides len(p)."""
    rows = p.reshape(-1, d)  # rows[i][r] = p[i*d + r]
    first = rows[0] % d
    # a short first block, where a map compatible with nothing usually fails,
    # then blocks of bounded size so the temporaries stay small
    edges = [0, *range(_PROBE_ROWS, len(rows), _BLOCK_ROWS), len(rows)]
    return all((rows[lo:hi] % d == first).all() for lo, hi in zip(edges, edges[1:]))


def _one_cycle(p: np.ndarray) -> bool:
    """Whether the bijection p of range(len(p)) is one cycle, by first return."""
    while len(p) > WALK_CUTOFF:
        N = len(p)
        d = next((d for d in range(2, MAX_DIVISOR + 1) if N % d == 0 and _compatible(p, d)),
                 None)
        if d is None:
            break
        if _walk((p[:d] % d).tolist(), 0, bytearray(d)) != d:
            return False
        x = np.arange(0, N, d, dtype=p.dtype)
        for _ in range(d):
            x = p[x]
        p = x // d
    return len(p) == 0 or _walk(memoryview(p), 0, bytearray(len(p))) == len(p)


def is_single_cycle(p: np.ndarray) -> bool:
    """Whether p is a permutation of range(len(p)) with one full-length cycle.

    False for any array that is not a map into range(len(p)).  Above
    WALK_CUTOFF points the answer comes by first return (module docstring):
    while some divisor d <= MAX_DIVISOR of the length is compatible with p,
    the map shrinks d-fold; what is left is walked.  Exact for every
    permutation, tree map or not.
    """
    p = np.asarray(p)
    gaps = _image_gaps(p)
    return gaps is not None and gaps[0] == 0 and _one_cycle(p)


def has_spanning_orbit(F: np.ndarray) -> bool:
    """Whether some point's forward orbit under the map F covers everything.

    For a permutation this means a single cycle, decided as in
    is_single_cycle.  A non-bijective map can still span (a tail leading
    into a cycle), but only if exactly one point is outside the image; the
    covering orbit must start there.  False when F is not a map into
    range(len(F)).
    """
    F = np.asarray(F)
    gaps = _image_gaps(F)
    if gaps is None or gaps[0] > 1:
        return False
    if gaps[0] == 0:
        return _one_cycle(F)
    return _walk(memoryview(F), gaps[1], bytearray(len(F))) == len(F)
