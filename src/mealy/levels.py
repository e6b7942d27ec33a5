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
levels 1..n-1.  The kernel needs no tree structure and no bijectivity test,
only this lemma: let p be a map of {0..N-1} into itself and d a divisor of
N such that p % d depends only on v % d, inducing sigma on {0..d-1}.  Then
p is one N-cycle iff sigma is a d-cycle and the first-return map f on the
fiber arange(0, N, d) -- p applied d times, then divided by d -- is one
(N/d)-cycle.  If both hold, p^{jd}(0) = d f^j(0) and p^k(0) = sigma^k(0)
mod d, so the orbit of 0 comes back to 0 after N steps and no sooner: its
period P has d | P and P / gcd(P, d) = N/d, so P = N, and N distinct
points are all of range(N).  A cycle is checked by a walk that must close:
from F[0], meeting all n points before a repeat, which holds iff F^1(0)
.. F^n(0) are distinct and F^n(0) = 0.  is_single_cycle finds d itself
among the divisors of N up to MAX_DIVISOR and repeats the step down to
WALK_CUTOFF points; a map with no such divisor, and the last small map,
are walked point by point.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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
# fewer rows than this are walked one by one: a step of the stacked walk
# costs about 3 us whatever the row count, a Python walk about 0.1 us a point
_STACK_ROWS = 32
_PROBE_ROWS = 64
_BLOCK_ROWS = 1 << 14
# kernels over fewer level entries (key-pass table cells) than this run on
# the calling thread.  Median ms on a 2-vCPU x86 VM, one thread -> two
# ranges, at 2^17, 2^18, 2^19, 2^20 and 2^22 entries:
#   level step     0.2 -> 0.5    0.35 -> 0.6   0.56 -> 0.68   1.6 -> 1.1-1.2   6.4 -> 3.5-3.9
#   compatibility  0.7 -> 0.5    1.3 -> 0.9    2.0 -> 1.5     5.6 -> 3.1-3.4   21 -> 12
#   first return   0.1-0.2 -> 0.3  0.4-0.6 -> 0.55  1.1-1.4 -> 1.1  2.2-3.0 -> 2.3  16 -> 10.4
# The level step gains from 2^20 up, first return from 2^20-2^21; below the
# cut the split's own cost (waking the workers, the GIL between numpy
# calls) outweighs what it saves.
_SPLIT_CUT = 1 << 20

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _pin(cpus) -> None:
    try:
        os.sched_setaffinity(0, {next(cpus)})
    except OSError:
        pass  # an unpinned worker still runs its ranges


def _executor() -> ThreadPoolExecutor:
    """The one thread pool of the library, made on first use: one worker per
    CPU available, each pinned to its own CPU.  Where the OS does not balance
    load across CPUs (a cpuset with sched_load_balance off), a new thread stays
    on the CPU of the thread that made it, and unpinned workers would share one."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cpus = sorted(os.sched_getaffinity(0))
            _pool = ThreadPoolExecutor(len(cpus), "mealy-levels", _pin, (iter(cpus),))
        return _pool


def _forget_pool() -> None:
    # a forked child has none of the pool's threads: it makes its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _split(fn, n: int, size: int, most: int | None = None) -> list:
    """[fn(lo, hi), ...] over contiguous ranges that cover range(n), in order.

    A kernel touching at least _SPLIT_CUT level entries (size) runs one
    range per CPU, and at most most ranges, on the shared pool, where numpy
    releases the GIL, while the caller waits.  Below the cut, or with one
    CPU, it is fn(0, n) on the calling thread and no pool is made.  fn must
    not call _split: a pool task never submits to the pool, so callers on
    any number of threads cannot deadlock it.
    """
    k = min(n, len(os.sched_getaffinity(0)), most or n) if size >= _SPLIT_CUT else 1
    if k <= 1:
        return [fn(0, n)]
    edges = [n * i // k for i in range(k + 1)]
    pool = _executor()
    futures = [pool.submit(fn, lo, hi) for lo, hi in zip(edges, edges[1:])]
    # the parts write into the caller's arrays: none may outlive the call
    wait(futures)
    return [f.result() for f in futures]


def _dtype_for(size: int):
    return np.int64 if size > (1 << 31) - 1 else np.int32


def word_index(M: Automaton, s) -> int:
    a = M.n_letters
    v = 0
    for i, x in enumerate(s):
        v += M.letter_index(x) * a**i
    return v


def _digits(v: int, a: int, n: int) -> list[int]:
    """The n letter indices of the index-coded word v, first-read first."""
    out = []
    for _ in range(n):
        v, x = divmod(v, a)
        out.append(x)
    return out


def index_word(M: Automaton, v: int, n: int) -> tuple[str, ...]:
    return tuple(M.alphabet[x] for x in _digits(v, M.n_letters, n))


def _oversize(shape: tuple[int, int], n: int, cap: int) -> str | None:
    """Why level n of a machine of table shape (|Q|, a) is refused, or None:
    a row of more than cap points, or more than ARRAY_CAP entries over all
    |Q| rows."""
    nq, a = shape
    # a**bit_length(cap) > cap for a >= 2, so a huge n never computes a huge a**n
    size = a ** min(n, cap.bit_length())
    if size > cap:
        return f"level size {a}^{n} exceeds cap {cap}"
    if nq * size > ARRAY_CAP:
        return f"{nq} rows of level size {a}^{n} exceed {ARRAY_CAP} entries"
    return None


def _levels(M: Automaton, n: int, cap: int):
    """Level maps for levels 0..min(n, top) in turn, each built from the one
    before, top being the highest level the caps allow; a search reads the
    level it reached from the last one yielded.

    Every level uses the dtype of the top level.  Only the level being built
    and the one before it are held here.  ValueError for n below 0.
    """
    if n < 0:
        raise ValueError(f"level {n} is below 0")
    top = _top_level(M.t.shape, n, cap)
    dt = _dtype_for(M.n_letters**top)
    P = np.zeros((1, M.n_states, 1), dtype=dt)
    yield P[0]
    o, t = M.o.astype(dt)[None], M.t[None]
    for _ in range(top):
        P = _level_step(o, t, P)
        yield P[0]


def _level_step(o: np.ndarray, t: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The one level-map recursion, for m stacked (|Q|, a) tables o, t and
    their level maps P (m, |Q|, a^k): words with first letter x map through
    state q as output digit o[q][x] plus a times the map of t[q][x]."""
    m, nq, a = o.shape
    K = P.shape[2]
    new = np.empty((m, nq, a * K), dtype=P.dtype)
    # a times the source, one (q, x) at a time: made here, so a range on a
    # pool thread allocates nothing for one table
    scaled = np.empty((m, K), dtype=P.dtype)
    r = np.arange(m)
    # one target for every row, as always for one table: a view, no gather
    same = (t == t[:1]).all(axis=0)

    def part(lo, hi):
        for q in range(nq):
            for x in range(a):
                s = t[:, q, x]
                src = P[:, s[0], lo:hi] if same[q, x] else P[r, s, lo:hi]
                b = np.multiply(src, a, out=scaled[:, lo:hi])
                np.add(b, o[:, q, x, None], out=new[:, q, a * lo + x:a * hi:a])

    _split(part, K, new.size)
    return new


def level_maps(M: Automaton, n: int, cap: int = LEVEL_CAP) -> np.ndarray:
    """Array L with L[q][v] = index of act(q, word v) on level n.

    Works for non-invertible automata too (rows are then not permutations).
    Shape (|Q|, a^n).
    """
    if why := _oversize(M.t.shape, n, cap):
        raise MemoryError(why)
    for P in _levels(M, n, cap):
        pass
    return P


def all_level_maps(M: Automaton, n: int, cap: int = LEVEL_CAP) -> list[np.ndarray]:
    """level_maps for every level 0..n, cheapest-first (one recursion pass)."""
    if why := _oversize(M.t.shape, n, cap):
        raise MemoryError(why)
    return list(_levels(M, n, cap))


def _top_level(shape: tuple[int, int], n: int, cap: int) -> int:
    """The highest level up to n that _oversize lets a search build."""
    top = 0
    while top < n and not _oversize(shape, top + 1, cap):
        top += 1
    return top


def _refute_dual(T: np.ndarray, O: np.ndarray, budget: int) -> np.ndarray:
    """Per stacked (m, |Q|, |A|) table T, O and dual state x, the first level
    where x has no spanning orbit, or 0 if it spans up to budget: (m, |A|).

    Dual state x of table i maps level k as new[i, x, s::q] = T[i, s, x] +
    q * P[i, O[i, s, x]] (_level_step on the swapped tables).  Tables with a
    state alive go on to the next level, in chunks of at most ARRAY_CAP
    level entries, up to the highest level the caps allow,
    _top_level((|A|, |Q|), budget, LEVEL_CAP); a state alive there stays 0,
    and a refutation below it stands.
    """
    m, q, a = T.shape
    if budget < 0:
        raise ValueError(f"level {budget} is below 0")
    top = _top_level((a, q), budget, LEVEL_CAP)
    dt = _dtype_for(q**top)
    o = np.asarray(T, dtype=dt).transpose(0, 2, 1)
    t = np.asarray(O, dtype=np.intp).transpose(0, 2, 1)
    fail = np.zeros((m, a), dtype=np.int64)
    # (rows, their level k-1 maps, k), taken depth first; level 0 takes no memory
    todo = [(np.arange(m), np.broadcast_to(np.zeros(1, dt), (m, a, 1)), 1)] if top and m else []
    while todo:
        rows, P, k = todo.pop()
        step = max(1, ARRAY_CAP // (a * q**k))
        if len(rows) > step:
            todo += [(rows[i:i + step], P[i:i + step], k) for i in range(0, len(rows), step)]
            continue
        new = _level_step(o[rows], t[rows], P)
        f = fail[rows]
        live = f == 0
        F = new.reshape(-1, new.shape[2])
        f[live] = np.where(has_spanning_orbit(F if live.all() else F[live.ravel()]), 0, k)
        fail[rows] = f
        keep = (f == 0).any(axis=1)
        if k < top and keep.any():
            todo.append((rows[keep], new if keep.all() else new[keep], k + 1))
    return fail


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


def _in_range(F: np.ndarray) -> np.ndarray:
    """For each row of the 2-d array F (m, N), whether it maps into range(N).

    A negative value reads as a huge one in the unsigned view, so one max
    bounds both sides."""
    return F.view(f"u{F.itemsize}").max(axis=1, initial=0) < max(F.shape[1], 1)


def _image_gaps(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the 2-d array F (m, N): how many points of range(N)
    lie outside its image, -1 when the row is not a map into range(N); and
    the least of them, 0 when there is none."""
    m, N = F.shape
    gaps = np.full(m, -1, dtype=np.intp)
    first = np.zeros(m, dtype=np.intp)
    # the mark takes one byte per point
    rows = np.flatnonzero(_in_range(F))
    gaps[rows] = 0
    if N > WALK_CUTOFF:
        # few big rows: a 1-d mark per row scatters faster than a 2-d one
        for i in rows:
            mark = np.zeros(N, dtype=bool)
            mark[F[i]] = True
            gaps[i], first[i] = N - np.count_nonzero(mark), mark.argmin()
    elif N:
        mark = np.zeros((len(rows), N), dtype=bool)
        mark[np.arange(len(rows))[:, None], F[rows]] = True
        gaps[rows] = N - np.count_nonzero(mark, axis=1)
        first[rows] = mark.argmin(axis=1)
    return gaps, first


def _walk_rows(F: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Whether the walk from start[i] under row i of F (m, N) meets all N
    points before any twice, for all rows at once: one flat map, point v of
    row i at i*N + v, drops each walk that meets a marked point."""
    m, N = F.shape
    base = np.arange(m, dtype=_dtype_for(m * N)) * N
    nxt = (F + base[:, None]).ravel()
    pos = start + base
    seen = np.zeros(m * N, dtype=bool)
    for _ in range(N):
        hit = seen[pos]
        if hit.any():
            pos = pos[~hit]
            if not len(pos):
                break
        seen[pos] = True
        pos = nxt[pos]
    out = np.zeros(m, dtype=bool)
    out[pos // N] = True
    return out


def _compatible(p: np.ndarray, d: int) -> bool:
    """Whether p % d depends only on v % d; d divides len(p)."""
    rows = p.reshape(-1, d)  # rows[i][r] = p[i*d + r]
    first = rows[0] % d
    # a short first block, where a map compatible with nothing usually fails,
    # then the rest in ranges, each in blocks of bounded size so the
    # temporaries stay small
    if not (rows[:_PROBE_ROWS] % d == first).all():
        return False
    rest = rows[_PROBE_ROWS:]

    def part(lo, hi):
        return all((rest[i:min(hi, i + _BLOCK_ROWS)] % d == first).all()
                   for i in range(lo, hi, _BLOCK_ROWS))

    return all(_split(part, len(rest), len(p)))


def _first_return(p: np.ndarray, d: int) -> np.ndarray:
    """The first-return map of p on the fiber arange(0, N, d): p applied d
    times, then divided by d.  Its first step is the strided view p[0::d];
    each range of the fiber then gathers in blocks of _BLOCK_ROWS points,
    through one index buffer, into its slice of the result, so no
    temporary grows with N.  p maps into range(len(p)), so the gathers
    need no bounds check."""
    f = np.empty(len(p) // d, dtype=p.dtype)

    def part(lo, hi):
        # take() would copy indices of any other dtype into a new intp array
        idx = np.empty(min(hi - lo, _BLOCK_ROWS), dtype=np.intp)
        for i in range(lo, hi, _BLOCK_ROWS):
            j = min(hi, i + _BLOCK_ROWS)
            x, y = idx[:j - i], f[i:j]
            np.copyto(x, p[i * d:j * d:d])
            np.take(p, x, out=y, mode="clip")
            for _ in range(d - 2):
                np.copyto(x, y)
                np.take(p, x, out=y, mode="clip")
            np.floor_divide(y, d, out=y)

    _split(part, len(f), len(p))
    return f


def _one_cycle(p: np.ndarray) -> bool:
    """Whether the map p of range(len(p)) into itself is one cycle, by first
    return; sigma's walk and the last walk start at the image of 0, so each
    must close (module docstring)."""
    while len(p) > WALK_CUTOFF:
        N = len(p)
        d = next((d for d in range(2, MAX_DIVISOR + 1) if N % d == 0 and _compatible(p, d)),
                 None)
        if d is None:
            break
        sigma = (p[:d] % d).tolist()
        if _walk(sigma, sigma[0], bytearray(d)) != d:
            return False
        p = _first_return(p, d)
    return len(p) == 0 or _walk(memoryview(p), int(p[0]), bytearray(len(p))) == len(p)


def is_single_cycle(p: np.ndarray) -> bool:
    """Whether p is a permutation of range(len(p)) with one full-length cycle.

    False for any array that is not a map into range(len(p)); one unsigned
    max checks that, and no image is marked.  Above WALK_CUTOFF points the
    answer comes by first return (module docstring): while some divisor
    d <= MAX_DIVISOR of the length is compatible with p, the map shrinks
    d-fold; what is left is walked.  Exact for every map into range(len(p)),
    tree map, permutation or not.
    """
    p = np.asarray(p)
    return bool(_in_range(p[None])[0]) and _one_cycle(p)


def has_spanning_orbit(F: np.ndarray):
    """Whether some point's forward orbit under the map F covers everything.

    For a permutation this means a single cycle.  A non-bijective map can
    still span (a tail leading into a cycle), but only if exactly one point
    is outside the image; the covering orbit must start there.  False when
    F is not a map into range(len(F)).  A 2-d F (m, N) is m maps and gets m
    answers: up to WALK_CUTOFF points and from _STACK_ROWS rows on, every
    row is walked at once, from 0 or from its gap; otherwise each row is
    decided as in is_single_cycle or walked alone.  A 1-d F is the one-row
    case.
    """
    F = np.asarray(F)
    if F.ndim == 1:
        return bool(has_spanning_orbit(F[None])[0])
    m, N = F.shape
    gaps, first = _image_gaps(F)
    rows = np.flatnonzero((gaps == 0) | (gaps == 1))
    out = np.zeros(m, dtype=bool)
    if N <= WALK_CUTOFF and len(rows) >= _STACK_ROWS:
        out[rows] = _walk_rows(F[rows], first[rows])
    else:
        for i in rows:
            out[i] = (_one_cycle(F[i]) if gaps[i] == 0
                      else _walk(memoryview(F[i]), first[i], bytearray(N)) == N)
    return out
