"""Eigenvalue gaps of Schreier graphs.

The adjacency operator is the sum of the |Q| per-state permutation matrices
(self-loops counted once each), symmetrized as S = (A + A^T)/2 when the
generators are not involutions.  The raw two-sided gap of the |Q|-regular
graph is |Q| - max(lambda_2, -lambda_min); the normalized gap divides by the
degree |Q| so that families of different degree plot on the same [0, 1]
scale, which is the convention used when quoting gap levels for 3-regular
families.  Positive gaps bounded away from zero across a family are what
two-sided expansion means.

Over an a-letter alphabet the level-k graph is an a-sheeted cover of the
level-(k-1) graph: dropping the last letter is the covering map, and each
edge (v, q) permutes the fiber over v by the way the state reached from q
after reading v acts on the last letter.  Functions on level k split into
those constant on every fiber (the level-(k-1) graph) and those summing to
zero over every fiber, so spec(level k) = spec(level k-1) + spec(fiber
matrix) as multisets.  The fiber matrix has the pattern of level k-1 with
an (a-1)x(a-1) block per edge: the edge's fiber permutation written in an
orthonormal basis of the zero-sum vectors of R^a (Bilu and Linial, "Lifts,
discrepancy and nearly optimal spectral gap", 2006, for a = 2, where the
blocks are the signs +-1; Friedman, "Relative expanders or weakly
relatively Ramanujan graphs", 2003, for general covers).  Every spectrum
is computed this way, as a chain of lifts from the single vertex of level
0: each level only solves the two extremes of its fiber matrix, so no
level is solved in full and the gaps along a chain are non-increasing by
construction.

Fiber matrices are solved dense up to DENSE_CAP rows, one
scipy.linalg.eigh call per extreme, and by Lanczos (ARPACK) above it.
Lanczos starts warm: from the sum of the level below's two extreme
eigenvectors, dense or Lanczos, pulled back through the shift that drops
the first-read letter (each vertex of level k-1 takes the coordinates of
the vertex of level k-2 named by its last k-2 letters), normalized, plus
1e-3 times a normalized seeded random vector that keeps every
eigenvector's component nonzero.  Pulling back through the covering map
instead, which drops the last letter, saved far fewer iterations.  Every
start is fixed, so output repeats byte for byte.  Only scipy's LAPACK and
BLAS run: numpy bundles a second OpenBLAS, whose threads would compete
with scipy's for the same cores and spin on after their call returns, so
the eigen path makes no numpy call that reaches BLAS: there is no
np.linalg call and no np.dot, and norms are plain sums of squares (see
_norms).  A fiber matrix of fewer than _ONE_THREAD_BELOW rows is solved
on one BLAS thread, where a second thread mostly spin-waits, and the
thread count is put back afterwards, also when the solve raises; so below
that size a fiber's digits do not depend on the machine's core count.
Larger fibers use scipy's default pool.  The count is set through scipy's
OpenBLAS; with any other BLAS every fiber runs on that BLAS's default.
Lanczos first asks for both extremes at once (k = 2, "BE") with at most
_BE_RESTARTS restarts.  Where that gives up, as on fibers whose extremes
crowd together (a cycle's within about 1/nv^2), the two extremes are
solved one at a time ("SA", then "LA"), and every later level of the
chain starts with that split.  Lanczos asks for a relative tolerance of
1e-10, and the split of 1e-6 where that does not converge; the report's
tolerance field says which, and SolverError names the level where neither
does.  Every report carries the largest residual ||Sx - lambda x|| of the
eigenpairs solved for it.  No graph above SPECTRAL_CAP vertices is
solved: MemoryError instead, so no accepted size allocates gigabytes.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .automaton import Automaton
from .levels import level_maps
from .schreier import SchreierGraph

# on aleshin, bellaterra, div3, bireversible52 and adding fibers (2 vCPUs, one
# LAPACK) dense took 0.9-1.5 ms at 128 rows against 1.3-17 ms for Lanczos; at
# 256 rows 3.8-6.1 against 1.3-31 ms, either side winning by machine; at 512
# rows Lanczos wins (2-12 against 17-26 ms) except on bellaterra and adding
DENSE_CAP = 1 << 7
SPECTRAL_CAP = 1 << 20
_LANCZOS_TOL = 1e-10
_FALLBACK_TOL = 1e-6
# restarts of the k=2 "BE" solve before the split takes over (see _lanczos).
# Started warm, BE converged within 16 on every aleshin, div3 and
# bireversible52 fiber of 256 to 131,072 rows (aleshin's 65,536-row fiber
# needed 16, bireversible52's 16,384-row one 14), and gave up after 50 on
# aleshin's 262,144-row fiber; bellaterra needed 15 and 21-22 at 256 and
# 512 rows and gave up after 50 at 1,024.  16 is the smallest cap under
# which no chain of aleshin to level 19, bellaterra to 15, div3 to 18,
# bireversible52 to 17 or adding to 11 does more matvec work (rows x
# matvecs) than the cold start with a cap of 50 did
_BE_RESTARTS = 16
# fibers of fewer rows are solved on one BLAS thread (see _blas_threads).
# One warm fiber solve of the chain on 2 vCPUs, median of 4-6 alternating
# runs: wall seconds on one / on two threads, and in parentheses the CPU
# seconds of two threads, their spin after returning included (one thread
# does not spin, so its CPU is its wall):
#   rows  div3             aleshin          bireversible52   bellaterra (split)
#   2^14  .029/.046 (.17)  .072/.161 (.28)  .110/.193 (.31)  .69/.66 (1.36)
#   2^15  .071/.075 (.26)  .095/.088 (.29)  .098/.091 (.29)  .89/.74 (1.58)
#   2^16  .144/.122 (.35)  .47/.39 (.87)    .27/.26 (.62)    3.2/2.4 (4.9)
# Below 2^16 rows a second thread gains at most 8% on the joint solves, at
# three times the CPU; bellaterra's split solve gains 18% at 2^15, at 1.8
# times the CPU.  From 2^16 rows two threads are 3-25% faster everywhere
_ONE_THREAD_BELOW = 1 << 16


class SolverError(RuntimeError):
    """A Lanczos fiber solve that converged at neither tolerance."""


@dataclass
class SpectrumReport:
    """Extremal eigenvalues of one level's graph.

    gap is the raw quantity |Q| - max(lambda_2, -lambda_min); gap_normalized
    is gap / |Q|, the value reported by two_sided_gap and emitted in series
    output.  residual is the larger ||Sx - lambda x|| of the two fiber
    matrix eigenpairs solved for this level (values carried from the level
    below keep that row's certificate).  new_radius is the fiber matrix's
    max |lambda|, the radius of the eigenvalues the lift added; it is NaN
    only at level 0, the single vertex, which lifts nothing.
    """

    level: int
    n_vertices: int
    lam_max: float
    lam2: float
    lam_min: float
    gap: float
    gap_normalized: float
    solver: str
    tolerance: float
    disconnected: bool = False
    residual: float = float("nan")
    new_radius: float = float("nan")

    def csv_row(self) -> str:
        return (
            f"{self.level},{self.n_vertices},{self.lam2:.10f},"
            f"{self.lam_min:.10f},{self.gap_normalized:.10f},{self.solver}"
        )


def _sparse_adjacency(cols: np.ndarray, blocks):
    """(A + A^T)/2, A having the m x m block blocks[q, v] added at block
    position (v, cols[q, v]); blocks broadcasts to shape (|Q|, nv, m, m)."""
    import scipy.sparse as sp

    nq, nv = cols.shape
    m = np.shape(blocks)[-1]
    data = np.broadcast_to(blocks, (nq, nv, m, m)).swapaxes(0, 1).reshape(-1, m, m)
    A = sp.bsr_matrix((data, cols.T.ravel(), np.arange(0, nq * nv + 1, nq)),
                      shape=(nv * m, nv * m))
    # sorted columns fix the summation order of S @ x, and with it every
    # digit of a Lanczos row, whatever order the blocks came in
    return ((A + A.T) * 0.5).tocsr().sorted_indices()


def _fiber_matrix(P: np.ndarray, a: int):
    """Symmetrized fiber matrix of level k-1 from the level-k map P.

    With h = a^(k-1), the last letter is the top digit: the edge (q, v) of
    level k-1 goes to w = P[q, v] % h and maps the fiber v + h*x to
    w + h*pi(x), pi(x) = P[q, v + h*x] // h.  Its block is U Pi U^T in the
    orthonormal Helmert basis U of the zero-sum vectors of R^a: integer
    rows of i+1 ones then -(i+1), normalized after the product so that
    the a = 2 blocks are exactly +-1.
    """
    h = P.shape[1] // a
    r, x = np.arange(1, a)[:, None], np.arange(a)
    U, norm2 = (x < r) - r * (x == r), r * (r + 1)  # norm2[i] = |U_i|^2
    pi = P.reshape(len(P), a, h) // h  # pi[q, x, v]
    blocks = np.einsum("ix,jqxv->qvij", U, U[:, pi])
    return _sparse_adjacency(P[:, :h] % h, blocks / np.sqrt(norm2 * norm2.T))


@cache
def _openblas_threads():
    """(set, get) of the OpenBLAS thread count behind scipy's BLAS, or None.

    dlsym on scipy's cython_blas module searches the libraries it links,
    so the OpenBLAS is found without its file name: scipy-openblas names
    first, then ILP64 and plain OpenBLAS builds.  None for any other BLAS.
    """
    import scipy.linalg.cython_blas

    lib = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
    for name in ("scipy_openblas_{}", "scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
        try:
            return (getattr(lib, name.format("set_num_threads")),
                    getattr(lib, name.format("get_num_threads")))
        except AttributeError:
            continue
    return None


@contextmanager
def _blas_threads(rows: int):
    """One BLAS thread for a fiber of fewer than _ONE_THREAD_BELOW rows.

    The previous count comes back on exit, also when the body raises.
    Larger fibers, and BLAS builds other than OpenBLAS, run unchanged.
    The count is process-wide, so solves overlapping in several threads
    could restore each other's count; the library runs one at a time.
    """
    pair = _openblas_threads() if rows < _ONE_THREAD_BELOW else None
    if pair is None:
        yield
        return
    set_threads, get_threads = pair
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _pullback(vecs: np.ndarray, a: int) -> np.ndarray:
    """The sum of the columns of vecs, fiber vectors of level k, as a fiber
    vector of level k+1 that is constant along the first-read letter.

    A fiber vector holds a-1 Helmert coordinates per vertex v of level k-1.
    Vertex w of level k maps to v = w // a under the shift, which drops the
    first-read letter (the least significant digit), and takes v's
    coordinates.
    """
    return np.repeat(vecs.sum(axis=1).reshape(-1, a - 1), a, axis=0).ravel()


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of x (of x itself when 1-D).

    A plain sum of squares: np.linalg.norm of a vector calls numpy's own
    BLAS (ddot), which is not the BLAS whose threads _blas_threads counts.
    """
    return np.sqrt(np.square(x).sum(axis=0))


def _lanczos(S, split: bool, warm: np.ndarray | None):
    """Extreme eigenpairs of S by Lanczos.

    Returns (vals, vecs, tolerance, split).  The start vector is a seeded
    random vector, or, given warm, the normalized warm plus 1e-3 times the
    normalized seeded vector, which keeps every eigenvector's component
    nonzero.  Unless split is set, one eigsh(k=2, which="BE") runs with at
    most _BE_RESTARTS restarts; when it gives up, or when split is set, two
    k=1 solves ("SA", then "LA") run instead, at 1e-10 and then at 1e-6.
    split in the result says whether the split ran.  SolverError when
    neither tolerance converges.
    """
    import scipy.sparse.linalg as spl

    v0 = np.random.default_rng(0).standard_normal(S.shape[0])
    if warm is not None:
        v0 = warm / _norms(warm) + 1e-3 * v0 / _norms(v0)
    # S itself would reach ARPACK through aslinearoperator, whose matvec goes
    # through matmat and dot: 15.4 us a product on a 2,048-row div3 fiber,
    # against 12.0 us for this operator, with equal results
    S = spl.LinearOperator(S.shape, matvec=S.__matmul__, dtype=S.dtype)
    if not split:
        try:
            vals, vecs = spl.eigsh(S, k=2, which="BE", tol=_LANCZOS_TOL, v0=v0,
                                   maxiter=_BE_RESTARTS)
            return vals, vecs, _LANCZOS_TOL, False
        except spl.ArpackNoConvergence:
            pass
    for tol in (_LANCZOS_TOL, _FALLBACK_TOL):
        try:
            (lo, x), (hi, y) = (spl.eigsh(S, k=1, which=w, tol=tol, v0=v0) for w in ("SA", "LA"))
        except spl.ArpackNoConvergence as e:
            failure = e
            continue
        return np.concatenate([lo, hi]), np.hstack([x, y]), tol, True
    raise SolverError(f"Lanczos did not converge at tolerance {_FALLBACK_TOL:g}") from failure


def _extremes(S, split: bool, warm: np.ndarray | None = None):
    """The smallest and the largest eigenvalue of the symmetric sparse S.

    Returns (lo, hi, solver, tolerance, residual, split, vecs), the residual
    being the larger ||Sx - lambda x|| of the two eigenpairs, split saying
    whether Lanczos ran as two k=1 solves and vecs holding the eigenvectors
    of lo and hi as columns.  Dense up to DENSE_CAP rows, one
    scipy.linalg.eigh per extreme; Lanczos above it, started from warm when
    given (see _lanczos); one BLAS thread below _ONE_THREAD_BELOW rows (see
    _blas_threads).
    """
    nv = S.shape[0]
    with _blas_threads(nv):
        if nv <= max(DENSE_CAP, 2):  # Lanczos for two eigenpairs needs three rows
            from scipy.linalg import eigh

            A = S.toarray()
            (lo, x), (hi, y) = (eigh(A, subset_by_index=[i, i]) for i in (0, nv - 1))
            vals, vecs = np.concatenate([lo, hi]), np.hstack([x, y])
            solver, tol = "dense", 1e-9
        else:
            vals, vecs, tol, split = _lanczos(S, split, warm)
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
            solver = "iterative"
    residual = float(_norms(S @ vecs - vecs * vals).max())
    return float(vals[0]), float(vals[1]), solver, tol, residual, split, vecs


def _check_size(nv: int) -> None:
    if nv > SPECTRAL_CAP:
        raise MemoryError(f"{nv} vertices above the spectral cap {SPECTRAL_CAP}")


def _chain(P: np.ndarray, a: int, n: int):
    """Reports of levels 0..n in turn, from the level-n map P.

    Row 0 is the single vertex.  Row k lifts row k-1 by the extremes of the
    fiber matrix read off P[:, :a^k] % a^k, which is the level-k map:
    images keep prefixes, and the first-read letter is the least
    significant digit.  lambda_2 and lambda_min become max(lambda_2, fiber
    max) and min(lambda_min, fiber min); lambda_max stays the degree.
    """
    nq, split, warm = len(P), False, None
    # single vertex: no lambda_2; the gap is reported as the 2|Q| sentinel
    r = SpectrumReport(0, 1, float(nq), float("nan"), float(nq), 2.0 * nq, 2.0, "dense", 0.0,
                       residual=0.0)
    yield r
    for k in range(1, n + 1):
        if a == 1:  # a one-sheeted cover is the same graph
            r = replace(r, level=k)
        else:
            h = a**k
            try:
                lo, hi, solver, tol, residual, split, vecs = _extremes(
                    _fiber_matrix(P[:, :h] % h, a), split, warm)
            except SolverError as e:
                raise SolverError(f"level {k}: {e}") from e
            warm = _pullback(vecs, a)
            # the fiber matrix sums |Q| orthogonal blocks, so rounding alone
            # can carry an extreme past the degree
            lo, hi = max(lo, -nq), min(hi, nq)
            # fmax: the single vertex of level 0 has no lambda_2 (NaN)
            lam2, lam_min = float(np.fmax(r.lam2, hi)), min(r.lam_min, lo)
            gap = nq - max(lam2, -lam_min)
            # a second eigenvalue equal to the degree means a second component
            r = SpectrumReport(k, h, r.lam_max, lam2, lam_min, gap, gap / nq, solver, tol,
                               (r.lam_max - lam2) < 1e-8 * nq, residual, max(hi, -lo))
        yield r


def spectrum(G: SchreierGraph) -> SpectrumReport:
    """Extremal eigenvalues and the two-sided gap of the symmetrized graph.

    The last row of the lift chain from level 0 over G's level map, so no
    level is solved in full; MemoryError above SPECTRAL_CAP vertices.  A
    disconnected graph shows lambda_2 = lambda_max = |Q| and is flagged.
    """
    _check_size(G.n_vertices)
    *_, last = _chain(G.perms, G.M.n_letters, G.n)
    return last


def two_sided_gap(G: SchreierGraph) -> float:
    """Degree-normalized two-sided gap, 1 - max(lambda_2, -lambda_min)/|Q|."""
    return spectrum(G).gap_normalized


def gap_series(M: Automaton, n_min: int, n_max: int) -> list[SpectrumReport]:
    """Spectrum reports for levels n_min..n_max ([] when n_min > n_max).

    Rows n_min..n_max of the lift chain from level 0 over the level-n_max
    map, so the gaps are non-increasing.  ValueError for a level below 0 or
    a non-invertible automaton; MemoryError before any level is built when
    level n_max has more than SPECTRAL_CAP vertices; SolverError when a
    fiber's Lanczos solve converges at neither tolerance.
    """
    if n_min < 0:
        raise ValueError(f"level {n_min} is below 0")
    if not M.is_invertible():
        raise ValueError("Schreier graphs need an invertible automaton")
    # capping the exponent keeps a huge n_max from computing a huge a**n_max
    _check_size(M.n_letters ** min(n_max, 64))
    P = level_maps(M, n_max)
    return list(_chain(P, M.n_letters, n_max))[n_min:]


CSV_HEADER = "n,vertices,lambda2,lambda_min,gap,solver"
