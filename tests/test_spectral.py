import ctypes
import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spl
from hypothesis import given, settings, strategies as st

from mealy import spectral
from mealy.automaton import BUILTIN_NAMES, Automaton, builtin, relabel
from mealy.levels import level_maps
from mealy.schreier import SchreierGraph, build
from mealy.spectral import (
    DENSE_CAP,
    SPECTRAL_CAP,
    gap_series,
    spectrum,
    two_sided_gap,
)

B = builtin("bellaterra")
A = builtin("aleshin")


def adjacency(G):
    """Dense (A + A^T)/2 of a level graph, A having one unit per state edge
    v -> perm[v], built with numpy alone: no library matrix builder."""
    nv = G.n_vertices
    A = np.zeros((nv, nv))
    for perm in G.perms:
        np.add.at(A, (np.arange(nv), perm), 1)
    return (A + A.T) / 2


def _dense_extremes(M, n):
    """(lam_max, lam2, lam_min, gap_normalized, disconnected) of level n from
    eigvalsh of the dense adjacency matrix: a route that uses no lift."""
    vals = np.linalg.eigvalsh(adjacency(build(M, n)))
    nq = M.n_states
    lam_max, lam2, lam_min = vals[-1], vals[-2], vals[0]
    return lam_max, lam2, lam_min, 1 - max(lam2, -lam_min) / nq, lam_max - lam2 < 1e-8 * nq


def test_adjacency_symmetric_and_regular():
    Adj = adjacency(build(B, 5))
    assert np.array_equal(Adj, Adj.T)
    assert np.all(Adj.sum(axis=0) == 3)  # one edge per generator, both ways
    # the library's block builder, on 1x1 unit blocks, gives the same matrix
    for M, n in ((B, 5), (A, 4), (builtin("affine(2,3)"), 3)):
        G = build(M, n)
        lib = spectral._sparse_adjacency(G.perms, np.ones((1, 1))).toarray()
        assert np.array_equal(lib, adjacency(G))


def test_level_one_spectrum_pinned():
    r = spectrum(build(B, 1))
    # two vertices, loops from a and b, one crossing edge from c
    assert (r.lam_max, r.lam2, r.lam_min) == (3.0, 1.0, 1.0)
    assert r.gap == 2.0
    assert r.gap_normalized == pytest.approx(2 / 3)
    assert two_sided_gap(build(B, 1)) == pytest.approx(2 / 3)


def test_single_vertex_sentinel():
    r = spectrum(build(B, 0))
    assert r.n_vertices == 1
    assert r.gap == 6.0  # 2|Q| by convention: nothing to contract
    assert r.gap_normalized == 2.0
    assert math.isnan(r.lam2)


# the graphs benchmark's levels, on both sides of DENSE_CAP
_PINNED_GAPS = {
    "aleshin": [0.333333333333, 0.258418376203, 0.258418376203, 0.254655511140,
                0.251349475125, 0.226422463574, 0.226422463574],
    "bellaterra": [0.067355782689, 0.067355782689, 0.067355782689, 0.067355782689,
                   0.067355782689, 0.057984059802, 0.057984059802],
    "div3": [0.246936839454, 0.197237260233, 0.156757714784, 0.126989277720,
             0.106497918889, 0.088946565583, 0.076013687689],
}


def test_gap_series_values_pinned():
    for name, gaps in _PINNED_GAPS.items():
        series = gap_series(builtin(name), 6, 12)
        assert {r.solver for r in series} == {"dense", "iterative"}
        assert [r.gap_normalized for r in series] == pytest.approx(gaps, abs=1e-9), name


def test_raw_and_normalized_fields_consistent():
    for r in gap_series(B, 2, 6):
        assert r.gap_normalized == pytest.approx(r.gap / 3)
        assert r.gap == pytest.approx(3 - max(r.lam2, -r.lam_min))


def test_gap_invariant_under_relabeling():
    R = relabel(B, [2, 0, 1], [1, 0])
    for n in (3, 5, 7):
        assert two_sided_gap(build(R, n)) == pytest.approx(two_sided_gap(build(B, n)))


def test_sparse_solver_agrees_with_dense(monkeypatch):
    G = build(B, 6)
    want = _dense_extremes(B, 6)[3]
    dense = spectrum(G)
    monkeypatch.setattr(spectral, "DENSE_CAP", 8)
    sparse = spectrum(G)
    assert dense.solver == "dense"
    assert sparse.solver == "iterative"
    for r in (dense, sparse):
        assert r.gap == pytest.approx(3 * want, abs=1e-5)


def test_disconnected_graph_flagged(monkeypatch):
    E = Automaton(["e"], ["0", "1"],
                  {("e", "0"): "e", ("e", "1"): "e"},
                  {("e", "0"): "0", ("e", "1"): "1"})
    r = spectrum(build(E, 2))
    assert r.disconnected
    assert r.gap_normalized == pytest.approx(0.0)
    # every lifted level too, from dense and from Lanczos signed solves
    for cap in (DENSE_CAP, 4):
        monkeypatch.setattr(spectral, "DENSE_CAP", cap)
        series = gap_series(E, 1, 8)
        assert [r.level for r in series] == list(range(1, 9))
        assert all(r.disconnected for r in series)
        assert all(r.gap_normalized == pytest.approx(0.0) for r in series)
    assert series[-1].solver == "iterative"  # the cap-4 series reached Lanczos


def test_aleshin_gap_exceeds_bellaterra():
    for n in (6, 7, 8):
        assert two_sided_gap(build(A, n)) > two_sided_gap(build(B, n))


@st.composite
def _machines_and_levels(draw):
    """A random invertible machine over 2 or 3 letters with 1-4 states, and a
    level n whose level n+1 stays small enough for a dense solve."""
    a = draw(st.sampled_from([2, 3]))
    q = draw(st.integers(1, 4))
    t = draw(st.lists(st.integers(0, q - 1), min_size=a * q, max_size=a * q))
    o = [draw(st.permutations(range(a))) for _ in range(q)]
    M = Automaton([f"s{i}" for i in range(q)], [str(x) for x in range(a)],
                  np.array(t).reshape(q, a), np.array(o))
    return M, draw(st.integers(0, {2: 7, 3: 4}[a]))


@settings(max_examples=100, deadline=None)
@given(_machines_and_levels())
def test_lift_spectrum_is_union_with_signed(machine_and_level):
    # spec(level n+1) = spec(level n) + spec(fiber matrix of level n), the
    # fiber matrix read off the level-(n+1) map alone; over two letters it
    # is the signed matrix
    M, n = machine_and_level
    base = np.linalg.eigvalsh(adjacency(build(M, n)))
    fiber = spectral._fiber_matrix(level_maps(M, n + 1), M.n_letters).toarray()
    if M.n_letters == 2:  # blocks of exactly +-1, halved once by the symmetrization
        assert np.array_equal(fiber * 2, np.round(fiber * 2))
    lifted = np.linalg.eigvalsh(adjacency(build(M, n + 1)))
    assert np.allclose(np.sort(np.concatenate([base, np.linalg.eigvalsh(fiber)])), lifted,
                       rtol=0, atol=1e-9)


# levels n_min..n_max per machine: the binary builtins at 2..10, and two
# machines over three and four letters up to about a thousand vertices
_SERIES_LEVELS = {"affine(2,3)": (1, 7), "affine(3,4)": (1, 5)}


@pytest.mark.parametrize(
    "name", [n for n in BUILTIN_NAMES if n != "affine(k,m)"] + list(_SERIES_LEVELS))
def test_gap_series_matches_per_level_spectrum(name, monkeypatch):
    M = builtin(name)
    lo, hi = _SERIES_LEVELS.get(name, (2, 10))
    ref = [_dense_extremes(M, n) for n in range(lo, hi + 1)]
    for cap in (DENSE_CAP, 16):  # 16 sends every fiber matrix above 16 rows to Lanczos
        monkeypatch.setattr(spectral, "DENSE_CAP", cap)
        series = gap_series(M, lo, hi)
        assert [r.level for r in series] == list(range(lo, hi + 1))
        for r, want in zip(series, ref):
            assert r.n_vertices == M.n_letters**r.level
            got = (r.lam_max, r.lam2, r.lam_min, r.gap_normalized)
            assert got == pytest.approx(want[:4], abs=1e-9), r.level
            assert r.disconnected == want[4]
    assert series[-1].solver == "iterative"


def test_gap_series_from_level_zero():
    # level 0 is one vertex with no lambda_2; the lift to level 1 replaces it
    for M in (A, builtin("affine(2,3)")):
        series = gap_series(M, 0, 4)
        assert math.isnan(series[0].lam2) and series[0].gap_normalized == 2.0
        for r in series[1:]:
            want = _dense_extremes(M, r.level)
            assert (r.lam2, r.lam_min) == pytest.approx(want[1:3], abs=1e-9)
    one = Automaton(["e"], ["0"], np.array([[0]]), np.array([[0]]))
    assert [repr(r) for r in gap_series(one, 0, 3)] == [
        repr(dataclasses.replace(spectrum(build(one, 0)), level=n)) for n in range(4)]


def test_gap_series_argument_errors():
    assert gap_series(A, 5, 3) == []
    with pytest.raises(ValueError, match="below 0"):
        gap_series(A, -2, 1)
    not_invertible = Automaton(["z"], ["0", "1"], np.array([[0, 0]]), np.array([[0, 0]]))
    with pytest.raises(ValueError, match="invertible"):
        gap_series(not_invertible, 1, 3)


def test_lanczos_rows_carry_residual_certificate():
    series = gap_series(B, 0, 12)
    lanczos = [r for r in series if r.solver == "iterative"]
    # the fiber matrix of level k has 2^(k-1) rows
    assert [r.level for r in lanczos] == [k for k in range(13) if 2 ** (k - 1) > DENSE_CAP]
    assert all(0 < r.residual < 1e-8 for r in lanczos)
    assert all(r.residual < 1e-12 for r in series if r.solver == "dense")
    # level 0 lifts nothing; every later level is a lift
    assert [math.isnan(r.new_radius) for r in series] == [True] + [False] * 12
    for prev, r in zip(series, series[1:]):
        # the eigenvalues a lift adds reach new_radius and no further
        assert 0 < r.new_radius <= 3
        # fmax: level 0 has no lambda_2
        assert max(r.lam2, -r.lam_min) == np.fmax(prev.lam2, max(-prev.lam_min, r.new_radius))


def test_lanczos_output_repeats_exactly(monkeypatch):
    # the fixed start vector makes every digit repeat, residuals included
    monkeypatch.setattr(spectral, "DENSE_CAP", 16)

    def runs():
        return [repr(dataclasses.astuple(r))
                for r in [spectrum(build(A, 10)), *gap_series(A, 11, 12)]]

    first = runs()
    assert "iterative" in first[0] and "iterative" in first[-1]
    assert runs() == first


def test_lanczos_falls_back_to_looser_tolerance(monkeypatch):
    eigsh, calls = spl.eigsh, []

    def strict_fails(S, **kw):
        calls.append((kw["which"], kw["tol"]))
        if kw["tol"] < 1e-8:
            raise spl.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
        return eigsh(S, **kw)

    monkeypatch.setattr(spl, "eigsh", strict_fails)
    monkeypatch.setattr(spectral, "DENSE_CAP", 8)
    G = build(A, 7)
    r = spectrum(G)
    # the fibers of levels 5, 6 and 7 have 16, 32 and 64 rows.  Level 5 tries
    # BE, then the split at 1e-10, then the split at 1e-6; BE gave up there,
    # so levels 6 and 7 start with the split
    split = [("SA", 1e-10), ("SA", 1e-6), ("LA", 1e-6)]
    assert calls == [("BE", 1e-10)] + split * 3
    assert (r.solver, r.tolerance) == ("iterative", 1e-6)
    assert r.residual < 1e-4
    assert r.gap == pytest.approx(3 * _dense_extremes(A, 7)[3], abs=1e-8)


def _fiber_reference(M, k):
    """Extremes of the level-k fiber matrix of a binary machine from the dense
    adjacency matrix of level k: the fiber of v is {v, v + h}, h = 2^(k-1),
    and A restricted to the functions f(v) = -f(v + h) is its fiber matrix."""
    Adj, h = adjacency(build(M, k)), 2 ** (k - 1)
    D = (Adj[:h, :h] - Adj[:h, h:] - Adj[h:, :h] + Adj[h:, h:]) / 2
    vals = np.linalg.eigvalsh(D)
    return vals[0], vals[-1]


@pytest.mark.parametrize("name, be_gives_up", [("bellaterra", True), ("div3", False)])
def test_lanczos_routes_agree_with_dense_fiber(name, be_gives_up, monkeypatch):
    eigsh, which = spl.eigsh, []

    def counted(S, **kw):
        which.append(kw["which"])
        return eigsh(S, **kw)

    monkeypatch.setattr(spl, "eigsh", counted)
    M, k = builtin(name), 11
    S = spectral._fiber_matrix(level_maps(M, k), 2)
    assert S.shape[0] == 1024
    want = _fiber_reference(M, k)
    # BE first (and the split after it where BE gives up), then the split alone
    for split, calls in ((False, ["BE"] + ["SA", "LA"] * be_gives_up), (True, ["SA", "LA"])):
        which.clear()
        lo, hi, solver, tol, residual, used, vecs = spectral._extremes(S, split)
        assert vecs.shape == (1024, 2)
        assert (which, used) == (calls, "SA" in calls)
        assert (solver, tol) == ("iterative", 1e-10)
        assert residual < 1e-8
        assert lo == pytest.approx(want[0], abs=1e-9)
        assert hi == pytest.approx(want[1], abs=1e-9)


# the deepest level whose fiber matrix has at most 2^10 rows: (a-1)*a^(k-1)
_WARM_LEVELS = {"affine(2,3)": 6, "affine(3,4)": 5}


@pytest.mark.parametrize(
    "name", [n for n in BUILTIN_NAMES if n != "affine(k,m)"] + list(_WARM_LEVELS))
def test_warm_lanczos_finds_the_dense_extremes(name, monkeypatch):
    # a start vector pulled back from the level below could converge to an
    # eigenpair that is not extreme; every warm fiber solve must find the
    # extremes of dense eigvalsh of the same fiber matrix
    import scipy.linalg

    solved, lanczos = [], spectral._lanczos

    def recorded(S, split, warm=None):
        vals, vecs, tol, used = lanczos(S, split, warm)
        solved.append((S, warm is not None, vals))
        return vals, vecs, tol, used

    monkeypatch.setattr(spectral, "_lanczos", recorded)
    monkeypatch.setattr(spectral, "DENSE_CAP", 16)
    M, top = builtin(name), _WARM_LEVELS.get(name, 11)
    gap_series(M, 0, top)
    a = M.n_letters
    rows = [(a - 1) * a ** (k - 1) for k in range(1, top + 1)]
    assert [S.shape[0] for S, _, _ in solved] == [r for r in rows if r > 16]
    assert rows[-1] <= 1 << 10
    for S, warm, vals in solved:
        assert warm  # the first Lanczos level starts from the dense level below
        want = scipy.linalg.eigvalsh(S.toarray())
        assert (vals.min(), vals.max()) == pytest.approx((want[0], want[-1]), abs=1e-9), \
            S.shape[0]


def _eigsh_outcomes(monkeypatch):
    """Record (which, converged) for every eigsh call."""
    eigsh, outcomes = spl.eigsh, []

    def recorded(S, **kw):
        try:
            out = eigsh(S, **kw)
        except spl.ArpackNoConvergence:
            outcomes.append((kw["which"], False))
            raise
        outcomes.append((kw["which"], True))
        return out

    monkeypatch.setattr(spl, "eigsh", recorded)
    return outcomes


def test_chain_pays_for_at_most_one_failed_joint_solve(monkeypatch):
    outcomes = _eigsh_outcomes(monkeypatch)
    gap_series(B, 6, 12)
    # bellaterra's extremes crowd from level 10: at most one BE gives up, no
    # BE runs after it, and every split converges
    joint = [ok for w, ok in outcomes if w == "BE"]
    assert joint.count(False) <= 1 and False not in joint[:-1]
    assert ("SA", True) in outcomes  # the fiber at level 12 is split
    assert all(ok for w, ok in outcomes if w != "BE")
    outcomes.clear()
    gap_series(builtin("div3"), 14, 16)
    assert outcomes and set(outcomes) == {("BE", True)}


def test_warm_chains_save_lanczos_matvecs(monkeypatch):
    # the graphs benchmark's chains: warm starts pulled back through the shift
    # need at most 60% of the matvecs of cold starts with 50 BE restarts
    eigsh, matvecs = spl.eigsh, [0]

    def counted(S, **kw):
        def matvec(x):
            matvecs[0] += 1
            return S @ x

        return eigsh(spl.LinearOperator(S.shape, matvec=matvec, dtype=S.dtype), **kw)

    def total():
        matvecs[0] = 0
        for name, lo, hi in (("aleshin", 6, 12), ("bellaterra", 6, 12), ("div3", 6, 12),
                             ("div3", 14, 16)):
            gap_series(builtin(name), lo, hi)
        return matvecs[0]

    monkeypatch.setattr(spl, "eigsh", counted)
    warm = total()
    monkeypatch.setattr(spectral, "_pullback", lambda vecs, a: None)
    monkeypatch.setattr(spectral, "_BE_RESTARTS", 50)
    cold = total()
    assert warm <= 0.6 * cold, (warm, cold)


def test_spectrum_is_the_last_series_row():
    for name, n in (("aleshin", 12), ("bellaterra", 12), ("div3", 10), ("affine(2,3)", 6)):
        M = builtin(name)
        assert repr(spectrum(build(M, n))) == repr(gap_series(M, n, n)[-1]), name


def test_chain_never_calls_numpy_eigensolvers(monkeypatch):
    # one BLAS, scipy's: numpy's eigh, or a norm or product that reaches
    # numpy's bundled OpenBLAS, would wake a second BLAS thread pool
    rows = [repr(dataclasses.astuple(r)) for r in gap_series(A, 0, 12)]

    def forbidden(*args, **kw):
        raise AssertionError("numpy BLAS or LAPACK called")

    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "norm"),
                         (np, "dot"), (np, "vdot"), (np, "inner")):
        monkeypatch.setattr(module, name, forbidden)
    series = gap_series(A, 0, 12)
    assert {r.solver for r in series} == {"dense", "iterative"}
    assert [repr(dataclasses.astuple(r)) for r in series] == rows


def test_spectral_cap_raises_before_building(monkeypatch):
    def no_build(*args, **kw):
        raise AssertionError("a level was built")

    monkeypatch.setattr(spectral, "level_maps", no_build)
    D = builtin("div3")
    for n_min, n_max in ((21, 21), (2, 21), (0, 10**9)):
        with pytest.raises(MemoryError):
            gap_series(D, n_min, n_max)
    T = builtin("affine(2,3)")  # three letters: 3^13 > 2^20
    with pytest.raises(MemoryError):
        gap_series(T, 13, 13)
    big = SchreierGraph(D, 21, np.zeros((1, SPECTRAL_CAP + 1), dtype=np.int32))
    with pytest.raises(MemoryError):
        spectrum(big)


def test_fiber_extremes_clamped_to_degree(monkeypatch):
    # rounding in Lanczos put lambda_2 of the disconnected conjugator graphs a
    # hair above the degree 3, and the gap printed as -0.0000000000
    monkeypatch.setattr(spectral, "DENSE_CAP", 4)
    series = gap_series(builtin("conjugator"), 1, 12)
    assert series[-1].solver == "iterative"
    assert all(r.gap_normalized >= 0 and r.lam2 <= 3 for r in series)
    assert not any("-0.0000000000" in r.csv_row() for r in series)
    assert [r.disconnected for r in series] == [False] + [True] * 11


def test_adding_machine_closed_form():
    # S = I + (P + P^T)/2 for the 2^n-cycle P: eigenvalues 1 + cos(2 pi j / 2^n),
    # on levels whose fiber matrices are all above DENSE_CAP
    series = gap_series(builtin("adding"), 9, 11)
    assert [r.level for r in series] == [9, 10, 11]
    for r in series:
        assert r.solver == "iterative"
        assert abs(r.lam2 - (1 + math.cos(2 * math.pi / 2**r.level))) <= 1e-9
        assert abs(r.lam_min) <= 1e-9
        assert r.tolerance == 1e-10  # no fallback


class _FakeThreads:
    """A BLAS thread count behind a set/get pair that logs every set."""

    def __init__(self, count: int):
        self.count, self.sets = count, []

    def set(self, n):
        self.sets.append(n)
        self.count = n

    def get(self):
        return self.count


def _log_solves(monkeypatch, threads):
    """Record (fiber rows, thread count in effect) at every dense and Lanczos solve."""
    import scipy.linalg

    solves, eigh, lanczos = [], scipy.linalg.eigh, spectral._lanczos

    def dense(A, **kw):
        solves.append((A.shape[0], threads()))
        return eigh(A, **kw)

    def iterative(S, split, warm=None):
        solves.append((S.shape[0], threads()))
        return lanczos(S, split, warm)

    monkeypatch.setattr(scipy.linalg, "eigh", dense)
    monkeypatch.setattr(spectral, "_lanczos", iterative)
    return solves


def test_fibers_below_the_cut_run_on_one_blas_thread(monkeypatch):
    fake = _FakeThreads(4)
    monkeypatch.setattr(spectral, "_openblas_threads", lambda: (fake.set, fake.get))
    monkeypatch.setattr(spectral, "_ONE_THREAD_BELOW", 64)
    monkeypatch.setattr(spectral, "DENSE_CAP", 16)
    solves = _log_solves(monkeypatch, fake.get)
    gap_series(A, 1, 10)
    # levels 1..10 have fibers of 2^(k-1) rows: 1..16 dense, 32 by Lanczos
    # below the cut, 64..512 by Lanczos at or above it
    rows = [2 ** (k - 1) for k in range(1, 11)]
    assert [n for n, _ in solves if n <= 16] == [n for n in rows if n <= 16 for _ in (0, 1)]
    assert [n for n, _ in solves if n > 16] == rows[5:]
    assert all(count == (1 if n < 64 else 4) for n, count in solves)
    # one set(1) and one set(previous) around each of the six fibers below the cut
    assert fake.sets == [1, 4] * 6 and fake.count == 4


def test_blas_thread_count_restored_after_solver_error(monkeypatch):
    fake = _FakeThreads(3)
    monkeypatch.setattr(spectral, "_openblas_threads", lambda: (fake.set, fake.get))
    monkeypatch.setattr(spectral, "DENSE_CAP", 8)

    def fails(S, split, warm=None):
        assert fake.count == 1
        raise spectral.SolverError("no convergence")

    monkeypatch.setattr(spectral, "_lanczos", fails)
    with pytest.raises(spectral.SolverError, match="level 5"):
        gap_series(A, 1, 8)
    # levels 1..4 dense, then level 5's Lanczos solve raises
    assert fake.sets == [1, 3] * 5 and fake.count == 3


def test_one_thread_rows_match_the_default_pool(monkeypatch):
    # every fiber of levels 1..16 of a binary machine (up to 2^15 rows) is
    # below the cut: the rows printed on one BLAS thread are those of a run
    # that leaves the thread count alone
    for name, n in (("aleshin", 13), ("bellaterra", 13), ("div3", 16)):
        M = builtin(name)
        one = [r.csv_row() for r in gap_series(M, 1, n)]
        with monkeypatch.context() as m:
            m.setattr(spectral, "_openblas_threads", lambda: None)
            assert [r.csv_row() for r in gap_series(M, 1, n)] == one, name


def test_real_blas_thread_count_comes_back(monkeypatch):
    pair = spectral._openblas_threads()
    if pair is None:
        pytest.skip("scipy's BLAS is not OpenBLAS")
    get_threads = pair[1]
    before = get_threads()
    solves = _log_solves(monkeypatch, get_threads)
    gap_series(builtin("div3"), 1, 16)  # fibers of 1 to 2^15 rows
    assert get_threads() == before
    assert max(rows for rows, _ in solves) == 1 << 15
    assert solves and all(count == 1 for _, count in solves)


def test_digits_do_not_depend_on_numpys_blas_threads():
    # below the cut a fiber's digits do not depend on the core count, also
    # when numpy's bundled OpenBLAS (apart from scipy's) runs more threads
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    lib = ctypes.CDLL(umath.__file__)
    try:
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except AttributeError:
        pytest.skip("numpy's BLAS is not scipy-openblas64")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    before = get_threads()
    rows = {}
    try:
        for count in (1, 2):
            set_threads(count)
            if get_threads() != count:
                pytest.skip(f"numpy's OpenBLAS does not take {count} threads here")
            rows[count] = [repr(dataclasses.astuple(r)) for name in
                           ("div3", "aleshin", "bireversible52")
                           for r in gap_series(builtin(name), 14, 15)]
    finally:
        set_threads(before)
    assert len(rows[1]) == 6 and rows[1] == rows[2]
