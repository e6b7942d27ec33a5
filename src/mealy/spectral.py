"""Eigenvalue gaps of Schreier graphs.

The adjacency operator is the sum of the |Q| per-state permutation matrices
(self-loops counted once each), symmetrized as S = (A + A^T)/2 when the
generators are not involutions.  The raw two-sided gap of the |Q|-regular
graph is |Q| - max(lambda_2, -lambda_min); the normalized gap divides by the
degree |Q| so that families of different degree plot on the same [0, 1]
scale, which is the convention used when quoting gap levels for 3-regular
families.  Positive gaps bounded away from zero across a family are what
two-sided expansion means.

Over a two-letter alphabet the level-(n+1) graph is a 2-lift of the level-n
graph.  Dropping the last letter is the covering map, and the edge (v, q)
has sign -1 exactly when the state reached from q after reading v swaps the
two letters.  Hence spec(level n+1) = spec(level n) + spec(signed level n)
as multisets, where the signed matrix has the pattern of level n and
entries +-1 (Bilu and Linial, "Lifts, discrepancy and nearly optimal
spectral gap", 2006).  gap_series uses this: after its first level it only
solves the two extremes of each signed matrix, so its gaps are
non-increasing by construction.

Eigenpairs come from a dense solve up to DENSE_CAP vertices and from
Lanczos (ARPACK) above it, with a fixed seeded start vector so that output
repeats byte for byte.  Lanczos asks for a relative tolerance of 1e-10,
and of 1e-6 where that does not converge; the report's tolerance field
says which.  Every report carries the largest residual ||Sx - lambda x||
of the eigenpairs solved for it.  No graph above SPECTRAL_CAP vertices is
solved: MemoryError instead, so no accepted size allocates gigabytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .automaton import Automaton
from .levels import _levels
from .schreier import SchreierGraph, build

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
    those of the signed matrix on a lifted level (values carried from the
    level below keep that row's certificate).  new_radius is the signed
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


def _sparse_adjacency(cols: np.ndarray, weights):
    """Sparse matrix with weights[q, v] added at (v, cols[q, v])."""
    import scipy.sparse as sp

    nq, nv = cols.shape
    rows = np.tile(np.arange(nv), nq)
    data = np.broadcast_to(weights, cols.shape).ravel()
    return sp.coo_matrix((data, (rows, cols.ravel())), shape=(nv, nv)).tocsr()


def adjacency(G: SchreierGraph, symmetrize: bool = True, sparse: bool = False):
    """Adjacency matrix with one unit per state edge, optionally (A+A^T)/2."""
    A = _sparse_adjacency(G.perms, 1.0)
    if symmetrize:
        A = (A + A.T) * 0.5
    return A if sparse else A.toarray()


def _signed_adjacency(P: np.ndarray):
    """Symmetrized signed matrix of level k-1 from the level-k map P.

    With h = 2^(k-1), column v < h of P is the image of the word v0.  The
    last letter is the top digit, so P % h is the level-(k-1) image of v,
    and P >= h exactly when the state reached from q after reading v swaps
    the letters: those edges get the sign -1.
    """
    h = P.shape[1] // 2
    top = P[:, :h]
    A = _sparse_adjacency(top % h, np.where(top >= h, -1.0, 1.0))
    return (A + A.T) * 0.5


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


def _lift(prev: SpectrumReport, P: np.ndarray, dense_cap: int) -> SpectrumReport:
    """The report of level k from that of level k-1 and the level-k map P."""
    vals, solver, tol, residual = _extremes(_signed_adjacency(P), 1, dense_cap)
    lo, hi = float(vals[0]), float(vals[-1])
    return _report(prev.level + 1, P.shape[1], P.shape[0], prev.lam_max,
                   max(prev.lam2, hi), min(prev.lam_min, lo), solver, tol, residual,
                   new_radius=max(hi, -lo))


def gap_series(
    M: Automaton, n_min: int, n_max: int, dense_cap: int = DENSE_CAP
) -> list[SpectrumReport]:
    """Spectrum reports for levels n_min..n_max.

    Over two letters from n_min >= 1, level n_min is solved in full with
    spectrum, and each later level k only adds the extremes of the signed
    matrix of level k-1, read off the level-k map: lambda_2 and lambda_min
    become max(lambda_2, signed max) and min(lambda_min, signed min).  Other
    alphabets, and series from level 0, solve every level in full.
    MemoryError before any level is built when level n_max has more than
    SPECTRAL_CAP vertices.
    """
    # capping the exponent keeps a huge n_max from computing a huge a**n_max
    _check_size(M.n_letters ** min(n_max, 64))
    if M.n_letters != 2 or not 0 < n_min <= n_max:
        return [spectrum(build(M, n), dense_cap=dense_cap) for n in range(n_min, n_max + 1)]
    out = [spectrum(build(M, n_min), dense_cap=dense_cap)]
    for P in itertools.islice(_levels(M, n_max, SPECTRAL_CAP), n_min + 1, None):
        out.append(_lift(out[-1], P, dense_cap))
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
