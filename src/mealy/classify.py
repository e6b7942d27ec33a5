"""Census of small invertible automata up to relabeling.

Tables are enumerated with permutation output rows (so every table is
invertible) and reduced to one representative per relabeling class, its
canonical key: the least byte string of cells output * |Q| + target over
all state and letter permutations.  The key pass keeps exactly the
enumerated tables that no relabeling makes smaller, and the
classes go through the cotransitivity pipeline as stacked (T, O) arrays:
properties as array tests, orbit refutation of every dual state at low
levels at once, and an Automaton only where a class needs one -- an exact
characteristic-series decision when it is cocyclic, and for the single
undecided (3,2) class a conjugation into a cyclic automaton that the
series criterion can decide.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

import numpy as np

from .automaton import (
    Automaton,
    Properties,
    _table_properties,
    builtin,
    dual,
    minimize_map,
    product,
    properties,
)
from .levels import _refute_dual, _split
from .transitivity import Verdict, _series_verdict, char_rational, is_transitive_exact

CANON_MAX_STATES = 6
CANON_MAX_LETTERS = 4
_COCYCLIC = Properties.__slots__.index("cocyclic")  # its column of _table_properties
# most raw tables one share of the key pass decodes.  Larger shares make
# fewer and longer numpy calls on each thread; 2^19 raised the census's
# peak RSS by about 8 MB
_CHUNK = 1 << 18
# raw tables per key-pass batch, the unit of the key cache; its files are
# named by it, so a new value would not load an existing cache
_BATCH = 1 << 20


@lru_cache(maxsize=None)
def _relabelings(q: int, a: int, letters: bool) -> tuple:
    """(lut, at) of every renaming of (q, a) tables but the identity.

    Renaming the states by sp, and the letters by lp when letters is
    true, turns the _cells columns cols of tables into lut[cols[at]].
    The arrays are built once per shape and are read-only.
    """
    if q > CANON_MAX_STATES or a > CANON_MAX_LETTERS:
        raise ValueError(f"relabeling orbit too large for ({q},{a})")
    identity = (tuple(range(q)), tuple(range(a)))
    lps = list(permutations(range(a))) if letters else [identity[1]]
    out = []
    for sp in permutations(range(q)):
        spA = np.array(sp)
        for lp in lps:
            if (sp, lp) == identity:
                continue
            lpA = np.array(lp)
            # renamed cell (sp[s], lp[x]) is lp[o]*q + sp[t] of cell (s, x)
            lut = (lpA[:, None] * q + spA).astype(np.uint8).ravel()
            at = (np.argsort(spA)[:, None] * a + np.argsort(lpA)).ravel()
            lut.flags.writeable = at.flags.writeable = False
            out.append((lut, at))
    return tuple(out)


def _cells(T, O, q: int, a: int) -> np.ndarray:
    """The cells o*q + t of stacked tables, one byte each, as columns.

    Row j of the (q*a, n) result is cell j of every table; the cells of a
    table are state-major and letter-minor.
    """
    flat = (np.asarray(O) * q + T).astype(np.uint8).reshape(len(T), q * a)
    return np.ascontiguousarray(flat.T)


def _words(cols: np.ndarray) -> np.ndarray:
    """Cell strings held in _cells columns as big-endian uint64 words.

    The strings are zero-padded at the end, so comparing rows word by
    word orders them as the base-(q*a) numbers they spell.  The words are
    returned in native byte order, one row per table.
    """
    qa, n = cols.shape
    padded = np.zeros((n, -(-qa // 8) * 8), dtype=np.uint8)
    padded[:, :qa] = cols.T
    return padded.view(">u8").astype(np.uint64)


def _renamed_less(cols: np.ndarray, lut, at, ref: np.ndarray) -> np.ndarray:
    """Which tables the renaming (lut, at) of cols makes less than ref.

    cols and ref are _cells columns.  The strings are compared from the
    first cell on, and only the tables tied so far read the next cell.
    """
    x = lut[cols[at[0]]]
    less = x < ref[0]
    tied = np.flatnonzero(x == ref[0])
    for j in range(1, len(at)):
        if not len(tied):
            break
        x = lut[cols[at[j], tied]]
        y = ref[j, tied]
        less[tied[x < y]] = True
        tied = tied[x == y]
    return less


def _least_cells(T, O, q: int, a: int, letters: bool = True) -> np.ndarray:
    """Least cell string of each stacked (T, O) table over its relabelings.

    Renamings of the states, and of the letters when letters is true,
    are tried.  Row k of the result holds the least string of table k as
    _words.
    """
    cols = _cells(T, O, q, a)
    best = cols.copy()
    for lut, at in _relabelings(q, a, letters):
        less = _renamed_less(cols, lut, at, best)
        best[:, less] = lut[cols[at][:, less]]
    return _words(best)


def _orbit_least(cols: np.ndarray, q: int, a: int, letters: bool = True) -> np.ndarray:
    """_words of the tables in _cells columns cols that no relabeling makes smaller.

    These are the tables that equal their own _least_cells row (a tie
    from an automorphism does not drop a table), in input order.  Each
    relabeling runs only on the tables that every earlier one kept.
    """
    for lut, at in _relabelings(q, a, letters):
        cols = cols.compress(~_renamed_less(cols, lut, at, cols), axis=1)
    return _words(cols)


def _unique_rows(keys: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-d key array in lexicographic order."""
    s = keys[np.lexsort(keys.T[::-1])]
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]).any(axis=1)
    return s[keep]


def _key_bytes(words, q: int, a: int) -> bytes:
    """A canonical key: the shape, then the cells held in one _least_cells row."""
    return bytes([q, a]) + np.asarray(words, dtype=">u8").tobytes()[: q * a]


def canonical_form(M: Automaton) -> bytes:
    """Lexicographically least table serialization over all relabelings.

    Equal keys exactly when the automata differ by renaming states and
    letters.  The first two bytes are the shape; cell values are
    output-index * |Q| + target-index.
    """
    q, a = M.n_states, M.n_letters
    T, O = np.asarray(M.t)[None], np.asarray(M.o)[None]
    return _key_bytes(_least_cells(T, O, q, a)[0], q, a)


def _key_tables(keys: np.ndarray, q: int, a: int):
    """Stacked (T, O) tables of _least_cells rows."""
    return _cell_tables(keys.astype(">u8").view(np.uint8)[:, : q * a], q, a)


def _cell_tables(cells: np.ndarray, q: int, a: int):
    """Stacked (T, O) tables of cell strings, one per row: cells % q and cells // q."""
    cells = cells.reshape(-1, q, a)
    return cells % q, cells // q


def from_canonical(key: bytes, name: str | None = None) -> Automaton:
    """Decode a canonical key back into an automaton."""
    q, a = key[0], key[1]
    vals = np.frombuffer(key[2:], dtype=np.uint8).astype(np.int64).reshape(q, a)
    return Automaton(
        [f"s{i}" for i in range(q)],
        [str(j) for j in range(a)],
        vals % q,
        vals // q,
        name=name,
    )


@lru_cache(maxsize=None)
def _row_cells(q: int, a: int) -> np.ndarray:
    """The cells of every row code c < C = a! * q^a, column c of an (a, C) array.

    Row code c has outputs permutation c // q^a and targets the base-q
    digits of c % q^a.  The array is built once per shape and is read-only.
    """
    outs = np.array(list(permutations(range(a))))
    trows = q**a
    code = np.arange(len(outs) * trows)
    T = (code % trows)[:, None] // q ** np.arange(a - 1, -1, -1) % q
    rows = np.ascontiguousarray((outs[code // trows] * q + T).astype(np.uint8).T)
    rows.flags.writeable = False
    return rows


def _raw_cells(q: int, a: int, start: int, end: int) -> np.ndarray:
    """_cells columns of the invertible tables numbered start..end-1.

    Digit s of a table's number in base C (least significant first) is
    the row code of state s (see _row_cells), so consecutive tables share
    it in runs of C^s, and it repeats with period C^(s+1).  Each state's
    cells are one period of those runs, or all of the range if that is
    shorter, repeated to fill the range: no number is divided.
    """
    rows = _row_cells(q, a)
    C = rows.shape[1]
    n = end - start
    cols = np.empty((q * a, n), dtype=np.uint8)
    for s in range(q if n > 0 else 0):
        run = C**s
        m = min(n, C * run)
        first, last = start // run, (start + m - 1) // run
        # runs of the row codes first..last % C, cut to tables start..start+m-1
        counts = np.diff(np.minimum(np.arange(first + 1, last + 2) * run, start + m), prepend=start)
        period = np.repeat(rows[:, np.arange(first, last + 1) % C], counts, axis=1)
        k, tail = divmod(n, m)
        block = cols[s * a:(s + 1) * a]
        block[:, : k * m].reshape(a, k, m)[...] = period[:, None, :]
        block[:, k * m:] = period[:, :tail]
    return cols


def _raw_batch(q: int, a: int, start: int, end: int):
    """Invertible tables numbered start..end-1 as (T, O) int8 index arrays."""
    T, O = _cell_tables(_raw_cells(q, a, start, end).T, q, a)
    return T.view(np.int8), O.view(np.int8)


# readers of the .npy header versions that np.save writes
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _batch_fault(fh, width: int) -> str | None:
    """Why the open .npy file fh is not a whole batch of key rows of width
    uint64 words, judged by its header and its size; None if it is."""
    shape, fortran, dtype = _NPY_HEADERS[np.lib.format.read_magic(fh)](fh)
    if os.fstat(fh.fileno()).st_size != fh.tell() + prod(shape) * dtype.itemsize:
        return "its size does not match its header"
    if (dtype, shape[1:], fortran) != (np.dtype(np.uint64), (width,), False):
        return f"{dtype} array of shape {shape}, not uint64 rows of {width} words"
    return None


def _cached_batch(path: str, width: int) -> np.ndarray | None:
    """The keys of the batch saved at path, or None to compute it (again).

    None when there is no file, and also, with a logged warning, when the
    file is not a whole batch (see _batch_fault; a copy or a disk cut it
    short) or its keys are not sorted and distinct.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            why = _batch_fault(fh, width)
            keys = None if why else np.load(path)
    except (KeyError, OSError, ValueError) as e:
        why = f"unreadable ({e})"
    if not why:
        if np.array_equal(_unique_rows(keys), keys):
            return keys
        why = "its keys are not sorted and distinct"
    logging.getLogger(__name__).warning(
        "key-cache batch %s is damaged: %s; computing it again", path, why)
    return None


def table_space_size(q: int, a: int) -> int:
    if q < 1 or a < 1:
        raise ValueError(f"a census needs at least one state and one letter, not ({q},{a})")
    return (factorial(a) * q**a) ** q


def canonical_keys(q: int, a: int, cache_dir: str | None = None, jobs: int = 1) -> np.ndarray:
    """All canonical class keys for invertible (q,a) tables, sorted.

    Row i is the least cell string of class i as _least_cells words;
    _key_bytes turns it into the canonical_form key.  Each batch of _BATCH
    raw tables runs on levels._split as tables * q * a cells, in ranges of
    shares of at most _CHUNK tables (at most jobs ranges).  A share is
    decoded straight into _cells columns by _raw_cells and filtered, and
    the batch is sorted: a batch keeps the tables that are the least of
    their class (see _orbit_least), so its keys are distinct.  With
    cache_dir (default $MEALY_CACHE_DIR) each batch's keys are saved, and a
    rerun loads them, so an interrupted run resumes where it stopped; a
    saved batch that is cut short or not a batch of keys is computed again
    and replaced (see _cached_batch).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    N = table_space_size(q, a)
    if cache_dir is None:
        cache_dir = os.environ.get("MEALY_CACHE_DIR")
    parts = []
    for lo in range(0, N, _BATCH):
        # "be8" names the row format; files of another format, such as the
        # older int64 keys, are never read back as keys
        path = cache_dir and os.path.join(
            cache_dir, f"canon-be8-{q}x{a}-{_BATCH}-{lo // _BATCH}.npy")
        # a key row holds the q*a cells of one table, eight to a uint64 word
        if path and (keys := _cached_batch(path, -(-q * a // 8))) is not None:
            parts.append(keys)
            continue
        n = min(_BATCH, N - lo)

        def shares(i, j):
            return [_orbit_least(_raw_cells(q, a, s, min(lo + j, s + _CHUNK)), q, a)
                    for s in range(lo + i, lo + j, _CHUNK)]

        ranges = _split(shares, n, n * q * a, jobs)
        uniq = _unique_rows(np.concatenate([w for r in ranges for w in r]))
        if path:
            os.makedirs(cache_dir, exist_ok=True)
            # saved beside path, then renamed: a stopped run leaves no partial batch
            tmp = f"{path[:-4]}.{os.getpid()}-{threading.get_ident()}.tmp.npy"
            try:
                np.save(tmp, uniq)
                os.replace(tmp, path)
            finally:
                with suppress(FileNotFoundError):
                    os.remove(tmp)
        parts.append(uniq)
    return _unique_rows(np.concatenate(parts))


def _resolve_filters(filters):
    names, preds = [], []
    for f in filters:
        if callable(f):
            preds.append(f)
        else:
            names.append(str(f))
    return names, preds


def enumerate_classes(
    q: int,
    a: int,
    filters=(),
    cache_dir: str | None = None,
    shard: tuple[int, int] | None = None,
    jobs: int = 1,
):
    """Stream one representative automaton per relabeling class.

    Representatives are decoded from sorted canonical keys, so the order
    is deterministic; tables are invertible by construction.  filters may
    be property names (fields of the properties record) or predicates.
    shard=(i,k) keeps classes with index congruent to i mod k.  jobs is
    the thread count of the key pass (see canonical_keys).
    """
    keys = canonical_keys(q, a, cache_dir=cache_dir, jobs=jobs)
    names, preds = _resolve_filters(filters)
    idx = _shard_rows(len(keys), shard)
    if names:
        flags = _table_properties(*_key_tables(keys[idx], q, a))
        idx = idx[flags[:, [Properties.__slots__.index(nm) for nm in names]].all(axis=1)]
    for i in idx.tolist():
        M = from_canonical(_key_bytes(keys[i], q, a), name=f"c{q}{a}-{i}")
        if preds and not all(f(M) for f in preds):
            continue
        yield M


def _shard_rows(n: int, shard: tuple[int, int] | None) -> np.ndarray:
    """Class indices below n that shard=(i,k) keeps: those congruent to i mod k."""
    return np.arange(n) if shard is None else np.arange(shard[0], n, shard[1])


def conjugation_decide(M: Automaton) -> dict | None:
    """Decide transitivity of a dual state by conjugating into a cyclic machine.

    Searches over state namings of M, both dual states, both conjugator
    states and both conjugation sides; each attempt composes
    kappa^{-1} . (dual state action) . kappa as a product automaton,
    minimizes, and applies the exact series criterion when the result is
    cyclic.  Returns a witness description, or None if nothing decides.
    """
    if (M.n_states, M.n_letters) != (3, 2):
        return None
    C = builtin("conjugator")
    dC = dual(C)
    t0, o0 = np.asarray(M.t), np.asarray(M.o)
    for naming in permutations(range(3)):
        # state i of M plays the role named "abc"[naming[i]]; keep the
        # state tuple in dictionary order so dual alphabets line up
        sp = np.array(naming)
        spinv = np.argsort(sp)
        R = Automaton(("a", "b", "c"), M.alphabet, sp[t0[spinv]], o0[spinv], name=M.name)
        dR = dual(R)
        for d in dR.states:
            for x in dC.states:
                for side in (0, 1):
                    kappa = [(dC, x + "'"), (dR, d), (dC, x)]
                    parts = kappa if side == 0 else list(reversed(kappa))
                    P, start = product(parts)
                    Mm, rename = minimize_map(P)
                    if not properties(Mm).cyclic:
                        continue
                    s = rename[start]
                    if is_transitive_exact(Mm, s):
                        return {
                            "naming": "".join("abc"[j] for j in naming),
                            "dual_state": d,
                            "kappa_state": x,
                            "side": side,
                            "automaton": Mm,
                            "state": s,
                            "chi": str(char_rational(Mm, s)),
                        }
    return None


@dataclass
class CensusReport:
    q: int
    a: int
    level_budget: int
    classes_total: int = 0
    counts: dict = field(default_factory=dict)
    cotransitive_yes: int = 0
    cotransitive_no: int = 0
    cotransitive_unknown: int = 0
    refutation_levels: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    cocyclic_raw: int | None = None
    cocyclic_classes: int | None = None
    cocyclic_inverse_classes: int | None = None
    cocyclic_state_classes: int | None = None
    shard: tuple[int, int] | None = None

    def check(self) -> None:
        total = self.cotransitive_yes + self.cotransitive_no + self.cotransitive_unknown
        if total != self.classes_total:
            raise AssertionError("verdicts do not cover the classes examined")

    def to_json(self) -> str:
        d = dict(self.__dict__)
        d["refutation_levels"] = {str(k): v for k, v in self.refutation_levels.items()}
        return json.dumps(d, indent=2)


def classify_cotransitive(
    q: int,
    a: int,
    level_budget: int = 4,
    cache_dir: str | None = None,
    shard: tuple[int, int] | None = None,
    jobs: int = 1,
) -> CensusReport:
    """Cotransitivity census over all invertible (q,a) classes.

    jobs is the thread count of the key pass (see canonical_keys).  The
    classes then go through _table_properties and levels._refute_dual as
    stacked tables on the calling thread (a level pass of levels._SPLIT_CUT
    entries or more splits on the level kernels' pool); only cocyclic
    classes and survivors become Automata, for the series criterion and
    conjugation.
    """
    rep = CensusReport(q, a, level_budget, shard=shard)
    keys = canonical_keys(q, a, cache_dir=cache_dir, jobs=jobs)
    idx = _shard_rows(len(keys), shard)
    T, O = _key_tables(keys[idx], q, a)
    flags = _table_properties(T, O)
    rep.classes_total = len(idx)
    rep.counts = {nm: int(c) for nm, c in zip(Properties.__slots__, flags.sum(axis=0))}
    cocyclic = flags[:, _COCYCLIC]
    fail = np.zeros((len(idx), a), dtype=np.int64)
    fail[~cocyclic] = _refute_dual(T[~cocyclic], O[~cocyclic], level_budget)
    # the level each class is refuted at; 0 while undecided or cotransitive
    level = np.where(fail.all(axis=1), fail.max(axis=1), 0)
    for r in np.flatnonzero(level == 0).tolist():
        M = from_canonical(_key_bytes(keys[idx[r]], q, a), name=f"c{q}{a}-{idx[r]}")
        if cocyclic[r]:
            v = _series_verdict(M)
            decided_by = "chi"
        else:
            conj = conjugation_decide(M)
            v = Verdict("unknown") if conj is None else Verdict("yes", witness=conj["dual_state"])
            decided_by = "conjugation"
        if v.kind == "yes":
            rep.witnesses.append({"name": M.name, "table": M.to_text(), "decided_by": decided_by,
                                  "dual_state": str(v.witness), "cocyclic": bool(cocyclic[r])})
        elif v.kind == "no":
            level[r] = v.level
        else:
            rep.cotransitive_unknown += 1
    rep.cotransitive_yes = len(rep.witnesses)
    for lvl in level[level > 0].tolist():
        rep.cotransitive_no += 1
        rep.refutation_levels[lvl] = rep.refutation_levels.get(lvl, 0) + 1
    if (q, a) == (3, 2) and shard is None:
        _attach_cocyclic_summary(rep, keys[idx[cocyclic]])
    rep.check()
    return rep


def _attach_cocyclic_summary(rep: CensusReport, cocyclic_keys: np.ndarray) -> None:
    """Cocyclic head counts from the _least_cells rows of the cocyclic classes."""
    q, a = rep.q, rep.a
    rep.cocyclic_classes = len(cocyclic_keys)
    rep.cocyclic_raw, rep.cocyclic_state_classes = _raw_cocyclic_counts(q, a)
    # the inverse of (t, o) has outputs o^{-1} and transitions t[q][o^{-1}[q]]
    T, O = _key_tables(cocyclic_keys, q, a)
    o_inv = np.argsort(O, axis=2)
    inv_keys = _least_cells(np.take_along_axis(T, o_inv, axis=2), o_inv, q, a)
    rep.cocyclic_inverse_classes = len({min(_key_bytes(k, q, a), _key_bytes(ik, q, a))
                                        for k, ik in zip(cocyclic_keys, inv_keys)})


def _raw_cocyclic_counts(q: int, a: int) -> tuple[int, int]:
    """Cocyclic counts over raw labeled tables and over state-renaming classes.

    The state-renaming count (letters kept fixed, inverses kept separate)
    is the convention under which the (3,2) count is 16.
    """
    T, O = _raw_batch(q, a, 0, table_space_size(q, a))
    hit = _table_properties(T, O)[:, _COCYCLIC]
    return int(hit.sum()), len(_orbit_least(_cells(T[hit], O[hit], q, a), q, a, letters=False))


def merge_reports(reports: list[CensusReport]) -> CensusReport:
    """Combine shard reports into the unsharded report, whatever the shard
    layout; the witnesses go in class index order, as an unsharded run finds them."""
    if not reports:
        raise ValueError("nothing to merge")
    base = reports[0]
    out = CensusReport(base.q, base.a, base.level_budget)
    out.counts = {nm: 0 for nm in Properties.__slots__}
    for r in reports:
        if (r.q, r.a, r.level_budget) != (base.q, base.a, base.level_budget):
            raise ValueError("mismatched census parameters")
        out.classes_total += r.classes_total
        for nm in Properties.__slots__:
            out.counts[nm] += r.counts.get(nm, 0)
        out.cotransitive_yes += r.cotransitive_yes
        out.cotransitive_no += r.cotransitive_no
        out.cotransitive_unknown += r.cotransitive_unknown
        for k, v in r.refutation_levels.items():
            out.refutation_levels[int(k)] = out.refutation_levels.get(int(k), 0) + v
        out.witnesses.extend(r.witnesses)
    out.witnesses.sort(key=lambda w: int(w["name"].rsplit("-", 1)[1]))
    # shards skip the cocyclic head count; the merged report covers the
    # whole space again, so recompute it here
    if (out.q, out.a) == (3, 2):
        keys = canonical_keys(out.q, out.a)
        cocyclic = _table_properties(*_key_tables(keys, out.q, out.a))[:, _COCYCLIC]
        _attach_cocyclic_summary(out, keys[cocyclic])
    out.check()
    return out
