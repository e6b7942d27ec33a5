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
relatively Ramanujan graphs", 2003, for general covers).  gap_series uses
this: after its first level it only solves the two extremes of each fiber
matrix, so its gaps are non-increasing by construction.

Eigenpairs come from a dense solve up to DENSE_CAP vertices and from
Lanczos (ARPACK) above it, with a fixed seeded start vector so that output
repeats byte for byte.  Lanczos asks for a relative tolerance of 1e-10,
and of 1e-6 where that does not converge; the report's tolerance field
says which.  Every report carries the largest residual ||Sx - lambda x||
of the eigenpairs solved for it.  No graph above SPECTRAL_CAP vertices is
solved: MemoryError instead, so no accepted size allocates gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .automaton import Automaton
from .levels import _levels
from .schreier import SchreierGraph

DENSE_CAP = 1 << 10
SPECTRAL_CAP = 1 << 20
_LANCZOS_TOL = 1e-10
_FALLBACK_TOL = 1e-6


@dataclass
class SpectrumReport:
    """Extremal eigenvalues of one level's graph.

    gap is the raw quantity |Q| - max(lambda_2, -lambda_min); gap_normalized
    is gap / |Q|, the value reported by two_sided_gap and emitted in series
    output.  residual is the largest ||Sx - lambda x|| over the eigenpairs
    solved for this level: those of the graph on a level solved in full,
    those of the fiber matrix on a lifted level (values carried from the
    level below keep that row's certificate).  new_radius is the fiber
    matrix's max |lambda|, the radius of the eigenvalues the lift added; it
    is NaN on a level solved in full.
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


def adjacency(G: SchreierGraph, sparse: bool = False):
    """Adjacency matrix with one unit per state edge, symmetrized as (A+A^T)/2."""
    A = _sparse_adjacency(G.perms, np.ones((1, 1)))
    return A if sparse else A.toarray()


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


def _extremes(S, n_top: int, dense_cap: int):
    """The smallest and the n_top largest eigenvalues of the symmetric sparse S.

    Returns (values ascending, solver, tolerance, residual), the residual
    being the largest ||Sx - lambda x|| over those eigenpairs.  Dense eigh
    up to dense_cap vertices, Lanczos above it.
    """
    nv = S.shape[0]
    if nv <= max(dense_cap, n_top + 1):
        vals, vecs = np.linalg.eigh(S.toarray())
        keep = np.r_[0, nv - n_top:nv]
        vals, vecs = vals[keep], vecs[:, keep]
        solver, tol = "dense", 1e-9
    else:
        import scipy.sparse.linalg as spl

        v0 = np.random.default_rng(0).standard_normal(nv)
        tol = _LANCZOS_TOL
        try:
            vals, vecs = spl.eigsh(S, k=n_top + 1, which="BE", tol=tol, v0=v0)
        except spl.ArpackNoConvergence:
            # extremes packed within about 1/nv^2 of each other (a cycle)
            # need about nv iterations; a second failure propagates
            tol = _FALLBACK_TOL
            vals, vecs = spl.eigsh(S, k=n_top + 1, which="BE", tol=tol, v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        solver = "iterative"
    residual = float(np.linalg.norm(S @ vecs - vecs * vals, axis=0).max())
    return vals, solver, tol, residual


def _report(level, nv, nq, lam_max, lam2, lam_min, solver, tol, residual,
            new_radius=float("nan")) -> SpectrumReport:
    # a second eigenvalue equal to the degree means a second component
    disconnected = (lam_max - lam2) < 1e-8 * nq
    gap = nq - max(lam2, -lam_min)
    return SpectrumReport(level, nv, lam_max, lam2, lam_min, gap, gap / nq, solver, tol,
                          disconnected, residual, new_radius)


def _check_size(nv: int) -> None:
    if nv > SPECTRAL_CAP:
        raise MemoryError(f"{nv} vertices above the spectral cap {SPECTRAL_CAP}")


def spectrum(G: SchreierGraph, dense_cap: int = DENSE_CAP) -> SpectrumReport:
    """Extremal eigenvalues and the two-sided gap of the symmetrized graph.

    Dense eigh up to dense_cap vertices; Lanczos extremal pairs with a fixed
    start vector beyond; MemoryError above SPECTRAL_CAP vertices.  A
    disconnected graph shows lambda_2 = lambda_max = |Q| and is flagged.
    """
    nq = len(G.perms)
    nv = G.n_vertices
    _check_size(nv)
    if nv == 1:
        # single vertex: no lambda_2; the gap is reported as the 2|Q| sentinel
        return SpectrumReport(
            G.n, 1, float(nq), float("nan"), float(nq), 2.0 * nq, 2.0, "dense", 0.0,
            residual=0.0,
        )
    vals, solver, tol, residual = _extremes(adjacency(G, sparse=True), 2, dense_cap)
    lam_min, lam2, lam_max = (float(x) for x in vals)
    return _report(G.n, nv, nq, lam_max, lam2, lam_min, solver, tol, residual)


def two_sided_gap(G: SchreierGraph, dense_cap: int = DENSE_CAP) -> float:
    """Degree-normalized two-sided gap, 1 - max(lambda_2, -lambda_min)/|Q|."""
    return spectrum(G, dense_cap=dense_cap).gap_normalized


def _lift(prev: SpectrumReport, P: np.ndarray, a: int, dense_cap: int) -> SpectrumReport:
    """The report of level k from that of level k-1 and the level-k map P."""
    if a == 1:  # a one-sheeted cover is the same graph
        return replace(prev, level=prev.level + 1)
    vals, solver, tol, residual = _extremes(_fiber_matrix(P, a), 1, dense_cap)
    lo, hi = float(vals[0]), float(vals[-1])
    # fmax: the single vertex of level 0 has no lambda_2 (NaN)
    return _report(prev.level + 1, P.shape[1], P.shape[0], prev.lam_max,
                   float(np.fmax(prev.lam2, hi)), min(prev.lam_min, lo), solver, tol,
                   residual, new_radius=max(hi, -lo))


def gap_series(
    M: Automaton, n_min: int, n_max: int, dense_cap: int = DENSE_CAP
) -> list[SpectrumReport]:
    """Spectrum reports for levels n_min..n_max ([] when n_min > n_max).

    Level n_min is solved in full with spectrum, and each later level k
    only adds the extremes of the fiber matrix of its a-sheeted cover of
    level k-1, read off the level-k map: lambda_2 and lambda_min become
    max(lambda_2, fiber max) and min(lambda_min, fiber min).  ValueError
    for a level below 0 or a non-invertible automaton; MemoryError before
    any level is built when level n_max has more than SPECTRAL_CAP vertices.
    """
    if n_min < 0:
        raise ValueError(f"level {n_min} is below 0")
    if not M.is_invertible():
        raise ValueError("Schreier graphs need an invertible automaton")
    # capping the exponent keeps a huge n_max from computing a huge a**n_max
    _check_size(M.n_letters ** min(n_max, 64))
    out: list[SpectrumReport] = []
    for n, P in enumerate(_levels(M, n_max, SPECTRAL_CAP)):
        if n == n_min:
            out.append(spectrum(SchreierGraph(M, n, P), dense_cap=dense_cap))
        elif n > n_min:
            out.append(_lift(out[-1], P, M.n_letters, dense_cap))
    return out


CSV_HEADER = "n,vertices,lambda2,lambda_min,gap,solver"


def write_gap_csv(path: str, reports: list[SpectrumReport]) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")


def write_gap_dat(path: str, reports: list[SpectrumReport]) -> None:
    """Two-column n gap rows, gnuplot style; normalized gap."""
    with open(path, "w") as fh:
        for r in reports:
            fh.write(f"{r.level} {r.gap_normalized:.10f}\n")
