import hashlib
from collections import Counter
from itertools import permutations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealy import classify, levels
from mealy.automaton import Automaton, builtin, inverse, properties, relabel
from mealy.classify import (
    CensusReport,
    _cells,
    _key_bytes,
    _least_cells,
    _orbit_least,
    _raw_batch,
    _raw_cells,
    _unique_rows,
    _words,
    canonical_form,
    canonical_keys,
    classify_cotransitive,
    conjugation_decide,
    enumerate_classes,
    from_canonical,
    merge_reports,
    table_space_size,
)
from mealy.transitivity import char_coeffs, cotransitivity, is_transitive_exact


# independent class-count oracle: Burnside over state x letter renamings,
# counting fixed invertible tables via cycle structure only
def _cycle_lengths(p):
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return out


def _perm_power(p, k):
    out = list(range(len(p)))
    for _ in range(k):
        out = [p[i] for i in out]
    return out


def _burnside_invertible(q, a):
    total = 0
    for pi in permutations(range(q)):
        for rho in permutations(range(a)):
            fixed = 1
            for L in _cycle_lengths(pi):
                pi_pow = _cycle_lengths(_perm_power(pi, L))
                rho_pow = _cycle_lengths(_perm_power(rho, L))
                nf = 1
                for m in rho_pow:
                    nf *= sum(d for d in pi_pow if m % d == 0)
                counts = Counter(rho_pow)
                ns = 1
                for j, k in counts.items():
                    ns *= (j**k) * factorial(k)
                fixed *= nf * ns
            total += fixed
    return total // (factorial(q) * factorial(a))


@pytest.mark.parametrize("q,a", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_class_counts_match_burnside(q, a):
    keys = canonical_keys(q, a)
    assert len(keys) == _burnside_invertible(q, a)


def test_class_counts_pinned():
    assert len(canonical_keys(2, 2)) == 24
    assert len(canonical_keys(3, 2)) == 544
    assert len(canonical_keys(2, 3)) == 231


def test_key_order_pinned():
    # the i-th key names class cQA-i, so any change of order renames
    # classes; the digest is of the keys as the int64 encoding ordered them
    blob = b"".join(_key_bytes(k, q, a) for q, a in ((3, 2), (2, 3))
                    for k in canonical_keys(q, a))
    assert len(blob) == 544 * 8 + 231 * 8
    assert hashlib.sha256(blob).hexdigest() == (
        "0eaf4cd0fb74c19415bb03c0fd8e8145bc786d22ca8d00cc47a6e5a770136a7a")


def _least_by_relabeling(M, letters=True):
    # oracle: every relabeled table spelled out as Python bytes
    q, a = M.n_states, M.n_letters
    lps = permutations(range(a)) if letters else [tuple(range(a))]
    return min(
        bytes(int(R.o[s, x]) * q + int(R.t[s, x]) for s in range(q) for x in range(a))
        for lp in lps for sp in permutations(range(q))
        for R in [relabel(M, list(sp), list(lp))]
    )


@st.composite
def _table_stacks(draw):
    q, a = draw(st.sampled_from([(2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (3, 3), (4, 3)]))
    machines = []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(st.lists(st.integers(0, q - 1), min_size=q * a, max_size=q * a))
        o = [draw(st.permutations(range(a))) for _ in range(q)]
        machines.append(Automaton([f"s{i}" for i in range(q)], [str(j) for j in range(a)],
                                  np.array(t).reshape(q, a), np.array(o)))
    return machines


@settings(max_examples=150, deadline=None)
@given(_table_stacks())
def test_least_cells_matches_relabeling_oracle(machines):
    q, a = machines[0].n_states, machines[0].n_letters
    T = np.stack([M.t for M in machines])
    O = np.stack([M.o for M in machines])
    for letters in (True, False):
        rows = _least_cells(T, O, q, a, letters=letters)
        for M, row in zip(machines, rows):
            assert _key_bytes(row, q, a) == bytes([q, a]) + _least_by_relabeling(M, letters)
    assert canonical_form(machines[0]) == bytes([q, a]) + _least_by_relabeling(machines[0])


@settings(max_examples=150, deadline=None)
@given(_table_stacks())
def test_orbit_least_keeps_tables_equal_to_their_least_cells(machines):
    q, a = machines[0].n_states, machines[0].n_letters
    T = np.stack([M.t for M in machines])
    O = np.stack([M.o for M in machines])
    cols = _cells(T, O, q, a)
    own = _words(cols)
    for letters in (True, False):
        least = _least_cells(T, O, q, a, letters=letters)
        kept = _orbit_least(cols, q, a, letters=letters)
        assert kept.shape == (int((least == own).all(axis=1).sum()), own.shape[1])
        assert (kept == own[(least == own).all(axis=1)]).all()


@pytest.mark.parametrize("q,a", [(2, 2), (3, 2), (2, 3)])
def test_orbit_least_of_whole_space_is_the_key_set(q, a):
    T, O = _raw_batch(q, a, 0, table_space_size(q, a))
    want = _unique_rows(_least_cells(T, O, q, a))
    assert (_unique_rows(_orbit_least(_cells(T, O, q, a), q, a)) == want).all()


@pytest.mark.parametrize("q,a,cuts", [
    # (4,2) tables 504,897..507,967 and (5,2) tables 123,523,152..123,532,499
    # are no class's least table
    (4, 2, [500_000, 503_001, 504_897, 507_968, 507_969, 510_000]),
    (5, 2, [123_500_000, 123_511_111, 123_523_152, 123_532_500, 123_540_001]),
])
def test_share_keys_are_the_least_cells_rows_of_their_own_tables(q, a, cuts):
    empty = 0
    for lo, hi in zip(cuts, cuts[1:]):
        T, O = _raw_batch(q, a, lo, hi)
        least = _least_cells(T, O, q, a)
        cols = _raw_cells(q, a, lo, hi)
        got = _unique_rows(_orbit_least(cols, q, a))
        assert got.shape[1] == least.shape[1]
        assert (got == _unique_rows(least[(least == _words(cols)).all(axis=1)])).all()
        empty += len(got) == 0
    assert empty == 1


def test_unique_rows_of_no_rows():
    for width in (1, 2):
        out = _unique_rows(np.zeros((0, width), dtype=np.uint64))
        assert out.shape == (0, width) and out.dtype == np.uint64
    rows = np.array([[3, 1], [2, 9], [3, 1]], dtype=np.uint64)
    assert _unique_rows(rows).tolist() == [[2, 9], [3, 1]]


def _raw_table(q, a, i):
    # oracle: table i of the numbering, one digit at a time
    outs = list(permutations(range(a)))
    T, O = [], []
    for _ in range(q):
        i, c = divmod(i, len(outs) * q**a)
        O.append(outs[c // q**a])
        T.append([c % q**a // q ** (a - 1 - j) % q for j in range(a)])
    return T, O


@pytest.mark.parametrize("q,a,lo,hi", [(1, 1, 0, 1), (2, 2, 0, 576), (3, 3, 98_765, 99_001),
                                       (5, 2, 312_499_900, 312_500_000)])
def test_raw_batch_numbers_tables(q, a, lo, hi):
    T, O = _raw_batch(q, a, lo, hi)
    assert T.shape == O.shape == (hi - lo, q, a) and T.dtype == O.dtype == np.int8
    for k in range(0, hi - lo, 7):
        t, o = _raw_table(q, a, lo + k)
        assert T[k].tolist() == t and O[k].tolist() == [list(r) for r in o]


@pytest.mark.parametrize("q,a", [(1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_raw_cells_match_the_raw_table_oracle(q, a):
    C, N = factorial(a) * q**a, table_space_size(q, a)
    # the first and last tables, and ranges over several periods of digits 0 and 1
    ranges = [(0, 1), (N - 1, N), (max(0, N - 2 * C - 3), N), (5, 5 + 3 * C + 7),
              (C**2 - 5, min(N, 3 * C**2 + 11, C**2 + 4000))]
    for s in range(q):
        for k in (1, 2, C - 1, C):
            b = k * C**s  # digit s turns over here; digit s + 1 too when k = C
            ranges += [(b - 1, b), (b, b + 1), (b + 1, b + 2), (b - 1, b + 2),
                       (b - C - 2, b + C + 3)]
    for lo, hi in ranges:
        if not 0 <= lo < hi <= N:
            continue
        cols = _raw_cells(q, a, lo, hi)
        assert cols.shape == (q * a, hi - lo) and cols.dtype == np.uint8
        for k in range(hi - lo):
            t, o = _raw_table(q, a, lo + k)
            assert cols[:, k].tolist() == [o[s][x] * q + t[s][x] for s in range(q) for x in range(a)]


@pytest.mark.parametrize("name", ["bellaterra", "aleshin", "adding", "div3", "conjugator",
                                  "bireversible52", "affine(3,4)", "affine(5,3)"])
def test_canonical_form_of_builtins_matches_oracle(name):
    M = builtin(name)
    assert canonical_form(M) == bytes([M.n_states, M.n_letters]) + _least_by_relabeling(M)


def test_key_cache_is_read_back(tmp_path, monkeypatch):
    want = canonical_keys(3, 2)
    # written with jobs=2, read back with jobs=1: the files do not depend on jobs
    assert (canonical_keys(3, 2, cache_dir=str(tmp_path), jobs=2) == want).all()
    assert [p.name for p in tmp_path.iterdir()] == [f"canon-be8-3x2-{1 << 20}-0.npy"]

    def no_canonicalizing(*args, **kwargs):
        raise AssertionError("a cached batch was canonicalized again")

    monkeypatch.setattr(classify, "_orbit_least", no_canonicalizing)
    again = canonical_keys(3, 2, cache_dir=str(tmp_path))
    assert again.dtype == want.dtype and (again == want).all()


def test_key_cache_batch_is_written_atomically(tmp_path, monkeypatch):
    # a save stopped half way leaves no cache file behind, so a rerun
    # computes the batch again instead of failing to read a partial one
    save = np.save

    def stopped(file, arr):
        with open(file, "wb") as fh:
            fh.write(b"\x93NUMPY" + b"\0" * 100)
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "save", stopped)
    with pytest.raises(KeyboardInterrupt):
        canonical_keys(3, 2, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(np, "save", save)
    assert (canonical_keys(3, 2, cache_dir=str(tmp_path)) == canonical_keys(3, 2)).all()
    again = canonical_keys(3, 2, cache_dir=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == [f"canon-be8-3x2-{1 << 20}-0.npy"]
    assert (again == canonical_keys(3, 2)).all()


def test_key_cache_ignores_int64_files(tmp_path, monkeypatch):
    # the name the int64 encoding used; its content must never be read
    (tmp_path / f"canon-3x2-{1 << 20}-0.npy").write_bytes(b"not keys")
    monkeypatch.setenv("MEALY_CACHE_DIR", str(tmp_path))
    assert (canonical_keys(3, 2) == canonical_keys(3, 2, cache_dir="")).all()
    assert (tmp_path / f"canon-be8-3x2-{1 << 20}-0.npy").exists()


def _whole_space_keys(q, a):
    return _unique_rows(_least_cells(*_raw_batch(q, a, 0, table_space_size(q, a)), q, a))


def _ranges(n, k):
    edges = [n * i // k for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def test_jobs_clamped_to_cpus_and_slices(key_pass, monkeypatch):
    want = {(q, a): _whole_space_keys(q, a) for q, a in ((3, 2), (2, 2))}
    # 5,832 (3,2) tables are 34,992 cells, below levels._SPLIT_CUT: one
    # range on the calling thread, whatever jobs
    for jobs in (1, 2, 10**5):
        key_pass.ranges.clear()
        key_pass.shares.clear()
        assert (canonical_keys(3, 2, jobs=jobs) == want[3, 2]).all()
        assert key_pass.ranges == [1] and key_pass.shares == [(0, 5832)]
    assert key_pass.pool.submitted == 0
    # above the cut: min(jobs, CPUs, tables) ranges, on the pool when more than one
    monkeypatch.setattr(levels, "_SPLIT_CUT", 1)
    for q, a, batch, jobs, k in (
        (3, 2, 1 << 20, 1, 1),
        (3, 2, 1 << 20, 2, 2),
        (3, 2, 1 << 20, 10**5, 3),  # 3 CPUs
        (2, 2, 2, 10**5, 2),  # 2-table batches
        (2, 2, 1, 10**5, 1),
    ):
        key_pass.ranges.clear()
        key_pass.shares.clear()
        key_pass.pool.submitted = 0
        assert (canonical_keys(q, a, batch_size=batch, jobs=jobs) == want[q, a]).all()
        N = table_space_size(q, a)
        assert key_pass.ranges == [k] * -(-N // batch)
        assert key_pass.pool.submitted == (len(key_pass.ranges) * k if k > 1 else 0)
        assert sorted(key_pass.shares) == [(lo + i, lo + j) for lo in range(0, N, batch)
                                           for i, j in _ranges(min(batch, N - lo), k)]


@pytest.mark.parametrize("chunk", [1 << 5, classify._CHUNK])
def test_shares_stay_within_chunk(key_pass, monkeypatch, chunk):
    monkeypatch.setattr(classify, "_CHUNK", chunk)
    for q, a in ((3, 2), (2, 2)):
        N = table_space_size(q, a)
        want = _whole_space_keys(q, a)
        for cut, jobs in product((1, levels._SPLIT_CUT), (1, 2)):
            monkeypatch.setattr(levels, "_SPLIT_CUT", cut)
            key_pass.ranges.clear()
            key_pass.shares.clear()
            assert (canonical_keys(q, a, jobs=jobs) == want).all()
            k = jobs if cut == 1 else 1
            assert key_pass.ranges == [k]
            # each range is cut into shares from its start, and they tile it
            shares = sorted(key_pass.shares)
            assert max(j - i for i, j in shares) <= chunk
            assert shares == [(s, min(j, s + chunk)) for i, j in _ranges(N, k)
                              for s in range(i, j, chunk)]


def test_key_pass_runs_on_the_level_pool(counting_pool):
    # (4,2) is 2^20 tables, 8.4 M cells: two ranges on levels._executor()
    assert levels._executor() is counting_pool
    want = canonical_keys(4, 2)
    assert counting_pool.submitted == 0 and len(want) == 22592
    assert (canonical_keys(4, 2, jobs=2) == want).all()
    assert counting_pool.submitted == 2


def test_jobs_below_one_rejected():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            canonical_keys(2, 2, jobs=jobs)


def test_batch_size_below_one_rejected():
    for batch_size in (0, -5):
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            canonical_keys(2, 2, batch_size=batch_size)


def test_table_space_size():
    assert table_space_size(3, 2) == (2 * 9) ** 3
    assert table_space_size(5, 2) == 50**5


@pytest.mark.parametrize("q, a", [(0, 2), (2, 0), (-1, 2), (0, 0)])
def test_empty_shape_refused(q, a):
    with pytest.raises(ValueError, match="at least one state and one letter"):
        table_space_size(q, a)
    with pytest.raises(ValueError, match="at least one state and one letter"):
        canonical_keys(q, a)


def test_canonical_form_invariant_under_relabeling():
    M = builtin("bellaterra")
    key = canonical_form(M)
    for sp in permutations(range(3)):
        for lp in permutations(range(2)):
            assert canonical_form(relabel(M, list(sp), list(lp))) == key


def test_canonical_form_distinguishes():
    assert canonical_form(builtin("bellaterra")) != canonical_form(builtin("aleshin"))
    assert canonical_form(builtin("bellaterra")) != canonical_form(builtin("div3"))


def test_from_canonical_roundtrip():
    for name in ("bellaterra", "aleshin", "div3", "conjugator"):
        key = canonical_form(builtin(name))
        M = from_canonical(key)
        assert canonical_form(M) == key


def test_enumerated_representatives_are_canonical_and_invertible():
    for M in enumerate_classes(2, 2):
        assert properties(M).invertible
        assert canonical_form(M)[2:] == bytes(
            int(M.o[s, x]) * 2 + int(M.t[s, x]) for s in range(2) for x in range(2)
        )


def test_enumerate_filters_by_property_name():
    cocyclic = list(enumerate_classes(3, 2, filters=("cocyclic",)))
    assert len(cocyclic) == 12
    assert all(properties(M).cocyclic for M in cocyclic)


def test_enumerate_filters_by_predicate():
    few = list(enumerate_classes(2, 2, filters=(lambda M: properties(M).bireversible,)))
    assert 0 < len(few) < 24


def test_enumerate_shards_partition():
    full = [M.name for M in enumerate_classes(3, 2)]
    sharded = []
    for i in range(4):
        sharded.extend(M.name for M in enumerate_classes(3, 2, shard=(i, 4)))
    assert sorted(sharded) == sorted(full)


def test_census_3_2_pinned():
    r = classify_cotransitive(3, 2, level_budget=4)
    assert r.classes_total == 544
    assert (r.cotransitive_yes, r.cotransitive_no, r.cotransitive_unknown) == (5, 539, 0)
    assert r.counts == {"invertible": 544, "reversible": 42, "bireversible": 28,
                        "cyclic": 470, "cocyclic": 12}
    assert r.refutation_levels == {1: 144, 2: 381, 3: 13, 4: 1}
    assert r.cocyclic_raw == 64
    assert r.cocyclic_classes == 12
    assert r.cocyclic_inverse_classes == 12
    assert r.cocyclic_state_classes == 16
    assert sum(1 for w in r.witnesses if w["cocyclic"]) == 4


def test_census_1_2():
    r = classify_cotransitive(1, 2)
    assert r.classes_total == 2
    assert r.cotransitive_yes == 2  # the single-state machines: identity-like duals


def test_census_shard_merge_equals_full():
    parts = [classify_cotransitive(3, 2, level_budget=4, shard=(i, 3)) for i in range(3)]
    merged = merge_reports(parts)
    full = classify_cotransitive(3, 2, level_budget=4)
    assert merged.classes_total == full.classes_total
    assert merged.counts == full.counts
    assert merged.refutation_levels == full.refutation_levels
    assert [w["name"] for w in merged.witnesses] == [w["name"] for w in full.witnesses]


def test_merge_rejects_mismatched_parameters():
    a = classify_cotransitive(1, 2)
    b = classify_cotransitive(2, 2)
    with pytest.raises(ValueError):
        merge_reports([a, b])


def test_report_json_roundtrips():
    import json
    r = classify_cotransitive(2, 2)
    d = json.loads(r.to_json())
    assert d["classes_total"] == r.classes_total
    assert d["counts"] == r.counts


def test_survivor_decided_by_conjugation():
    full = classify_cotransitive(3, 2, level_budget=4)
    conj = [w for w in full.witnesses if w["decided_by"] == "conjugation"]
    assert len(conj) == 1
    assert not conj[0]["cocyclic"]
    # re-derive and check the chi coefficients are all units mod 3
    reps = {M.name: M for M in enumerate_classes(3, 2)}
    info = conjugation_decide(reps[conj[0]["name"]])
    assert info is not None
    assert properties(info["automaton"]).cyclic
    assert is_transitive_exact(info["automaton"], info["state"])
    coeffs = char_coeffs(info["automaton"], info["state"], 48)
    assert all(c % 3 != 0 for c in coeffs)


def test_conjugation_decide_ignores_other_shapes():
    assert conjugation_decide(builtin("adding")) is None
    assert conjugation_decide(builtin("bireversible52")) is None


def test_census_counts_are_internally_consistent():
    r = classify_cotransitive(2, 2)
    assert r.cotransitive_yes + r.cotransitive_no + r.cotransitive_unknown == r.classes_total
    assert sum(r.refutation_levels.values()) == r.cotransitive_no


def _census_class_by_class(q, a, budget):
    """(counts, yes/no/unknown, refutation levels, witnesses) of the census
    by the per-class route: one automaton, properties and cotransitivity
    verdict per class."""
    counts = Counter()
    kinds = Counter()
    refuted, witnesses = {}, []
    for M in enumerate_classes(q, a):
        p = properties(M)
        counts.update(nm for nm, v in p.as_dict().items() if v)
        v = cotransitivity(M, budget)
        decided_by = "chi" if v.evidence.get("exact") else "orbit"
        if v.kind == "unknown" and (conj := conjugation_decide(M)) is not None:
            v.kind, v.witness, decided_by = "yes", conj["dual_state"], "conjugation"
        kinds[v.kind] += 1
        if v.kind == "no":
            refuted[v.level] = refuted.get(v.level, 0) + 1
        if v.kind == "yes":
            witnesses.append({"name": M.name, "table": M.to_text(), "decided_by": decided_by,
                              "dual_state": str(v.witness), "cocyclic": p.cocyclic})
    return counts, (kinds["yes"], kinds["no"], kinds["unknown"]), refuted, witnesses


@pytest.mark.parametrize("q,a,budget", [(2, 2, 4), (3, 2, 4), (2, 3, 3), (3, 2, 2)])
def test_census_matches_class_by_class_route(q, a, budget):
    r = classify_cotransitive(q, a, level_budget=budget)
    counts, verdicts, refuted, witnesses = _census_class_by_class(q, a, budget)
    assert r.counts == {nm: counts[nm] for nm in r.counts}
    assert (r.cotransitive_yes, r.cotransitive_no, r.cotransitive_unknown) == verdicts
    # the same levels in the order the classes first meet them
    assert list(r.refutation_levels.items()) == list(refuted.items())
    assert r.witnesses == witnesses


def test_census_builds_automata_only_where_needed(monkeypatch):
    # one automaton per cocyclic class and per survivor of the refutation
    built = []
    decode = classify.from_canonical

    def counting(key, name=None):
        built.append(name)
        return decode(key, name)

    monkeypatch.setattr(classify, "from_canonical", counting)
    r = classify_cotransitive(3, 2)
    assert len(built) <= 25
    monkeypatch.undo()
    cocyclic = [M.name for M in enumerate_classes(3, 2, filters=("cocyclic",))]
    survivors = [w["name"] for w in r.witnesses if w["decided_by"] == "conjugation"]
    assert sorted(built) == sorted(cocyclic + survivors) and len(built) == 13


def test_census_unchanged_when_array_cap_forces_chunks(monkeypatch):
    want = classify_cotransitive(3, 2).to_json()
    # one (3,2) table's dual level 4 is 2 * 3^4 entries
    monkeypatch.setattr(levels, "ARRAY_CAP", 2 * 3**4)
    assert classify_cotransitive(3, 2).to_json() == want
