"""Census of small invertible automata up to relabeling.

Tables are enumerated with permutation output rows (so every table is
invertible), reduced to one representative per relabeling class by one
canonicalizer over stacked tables (the least byte string of cells
output * |Q| + target over all state and letter permutations), and each
class is pushed through the cotransitivity pipeline: an exact
characteristic-series decision when the class is cocyclic, orbit
refutation at low levels otherwise, and for the single undecided (3,2)
class a conjugation into a cyclic automaton that the series criterion
can decide.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .automaton import (
    Automaton,
    Properties,
    builtin,
    dual,
    inverse,
    minimize_map,
    product,
    properties,
)
from .transitivity import char_rational, cotransitivity, is_transitive_exact

CANON_MAX_STATES = 6
CANON_MAX_LETTERS = 4


def _least_cells(T, O, q: int, a: int, letters: bool = True) -> np.ndarray:
    """Least cell string of each stacked (T, O) table over its relabelings.

    The cells of a table are o*q + t, one byte each, state-major and
    letter-minor.  Renamings of the states, and of the letters when
    letters is true, are tried; strings are compared byte by byte as
    big-endian uint64 words (zero-padded at the end), which orders them
    as the base-(q*a) numbers they spell.  Row k of the result holds the
    least string of table k as those words, in native byte order.
    """
    if q > CANON_MAX_STATES or a > CANON_MAX_LETTERS:
        raise ValueError(f"relabeling orbit too large for ({q},{a})")
    n, qa = len(T), q * a
    src = (np.asarray(O) * q + T).astype(np.uint8).reshape(n, qa)
    cells = np.zeros((n, -(-qa // 8) * 8), dtype=np.uint8)
    words = cells.view(">u8")
    best = None
    lps = list(permutations(range(a))) if letters else [tuple(range(a))]
    for sp in permutations(range(q)):
        spA = np.array(sp)
        for lp in lps:
            lpA = np.array(lp)
            # renamed cell (sp[s], lp[x]) is lp[o]*q + sp[t] of cell (s, x)
            lut = (lpA[:, None] * q + spA).astype(np.uint8).ravel()
            at = (np.argsort(spA)[:, None] * a + np.argsort(lpA)).ravel()
            cells[:, :qa] = lut[src[:, at]]
            cand = words.astype(np.uint64)
            if best is None:
                best = cand
                continue
            # cand < best lexicographically, deciding from the last word up
            less = cand[:, -1] < best[:, -1]
            for w in range(cand.shape[1] - 2, -1, -1):
                less = (cand[:, w] < best[:, w]) | ((cand[:, w] == best[:, w]) & less)
            np.copyto(best, cand, where=less[:, None])
    return best


def _unique_rows(keys: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-d key array in lexicographic order."""
    s = keys[np.lexsort(keys.T[::-1])]
    return s[np.r_[True, (s[1:] != s[:-1]).any(axis=1)]]


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


def _raw_batch(q: int, a: int, start: int, end: int):
    """Invertible tables numbered start..end-1 as (T, O) index arrays."""
    outs = np.array(list(permutations(range(a))), dtype=np.int8)
    trows = q**a
    C = len(outs) * trows
    idx = np.arange(start, end, dtype=np.int64)
    T = np.empty((len(idx), q, a), dtype=np.int8)
    O = np.empty((len(idx), q, a), dtype=np.int8)
    tmp = idx.copy()
    for s in range(q):
        c = tmp % C
        tmp //= C
        O[:, s, :] = outs[(c // trows).astype(np.int64)]
        tc = c % trows
        for j in range(a - 1, -1, -1):
            T[:, s, j] = (tc % q).astype(np.int8)
            tc //= q
    return T, O


def table_space_size(q: int, a: int) -> int:
    if q < 1 or a < 1:
        raise ValueError(f"a census needs at least one state and one letter, not ({q},{a})")
    fact = 1
    for i in range(2, a + 1):
        fact *= i
    return (fact * q**a) ** q


def _slice_keys(q: int, a: int, lo: int, hi: int) -> np.ndarray:
    T, O = _raw_batch(q, a, lo, hi)
    return _unique_rows(_least_cells(T, O, q, a))


def canonical_keys(
    q: int,
    a: int,
    batch_size: int = 1 << 20,
    cache_dir: str | None = None,
    jobs: int = 1,
) -> np.ndarray:
    """All canonical class keys for invertible (q,a) tables, sorted.

    Row i is the least cell string of class i as _least_cells words;
    _key_bytes turns it into the canonical_form key.  Each batch of raw
    tables is split into at most jobs slices (and no more than the CPUs
    available), canonicalized on threads, where numpy releases the GIL,
    and united.  With cache_dir (default
    $MEALY_CACHE_DIR) each batch's keys are saved, and a rerun loads them,
    so an interrupted run resumes where it stopped.
    """
    N = table_space_size(q, a)
    if cache_dir is None:
        cache_dir = os.environ.get("MEALY_CACHE_DIR")
    n_batches = (N + batch_size - 1) // batch_size
    workers = min(jobs, len(os.sched_getaffinity(0)), batch_size, N)
    parts = []
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for bi in range(n_batches):
            path = None
            if cache_dir:
                # "be8" names the row format; files of another format, such
                # as the older int64 keys, are never read back as keys
                path = os.path.join(cache_dir, f"canon-be8-{q}x{a}-{batch_size}-{bi}.npy")
                if os.path.exists(path):
                    parts.append(np.load(path))
                    continue
            lo = bi * batch_size
            hi = min(N, lo + batch_size)
            k = min(workers, hi - lo)
            cuts = [lo + (hi - lo) * i // k for i in range(k + 1)]
            slices = ex.map(lambda i: _slice_keys(q, a, cuts[i], cuts[i + 1]), range(k))
            uniq = _unique_rows(np.concatenate(list(slices)))
            if path:
                os.makedirs(cache_dir, exist_ok=True)
                np.save(path, uniq)
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
    batch_size: int = 1 << 20,
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
    keys = canonical_keys(q, a, batch_size=batch_size, cache_dir=cache_dir, jobs=jobs)
    names, preds = _resolve_filters(filters)
    for i in range(len(keys)):
        if shard is not None and i % shard[1] != shard[0]:
            continue
        M = from_canonical(_key_bytes(keys[i], q, a), name=f"c{q}{a}-{i}")
        if names:
            p = properties(M)
            if not all(getattr(p, nm) for nm in names):
                continue
        if preds and not all(f(M) for f in preds):
            continue
        yield M


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
    batch_size: int = 1 << 20,
    cache_dir: str | None = None,
    shard: tuple[int, int] | None = None,
    jobs: int = 1,
) -> CensusReport:
    """Cotransitivity census over all invertible (q,a) classes.

    jobs is the thread count of the key pass (see canonical_keys); the
    per-class pipeline runs on the calling thread.
    """
    rep = CensusReport(q, a, level_budget, shard=shard)
    rep.counts = {nm: 0 for nm in Properties.__slots__}
    cocyclic_keys = []
    for M in enumerate_classes(q, a, batch_size=batch_size, cache_dir=cache_dir,
                               shard=shard, jobs=jobs):
        rep.classes_total += 1
        p = properties(M)
        for nm in Properties.__slots__:
            if getattr(p, nm):
                rep.counts[nm] += 1
        if p.cocyclic:
            cocyclic_keys.append(canonical_form(M))
        v = cotransitivity(M, level_budget)
        decided_by = "chi" if v.evidence.get("exact") else "orbit"
        if v.kind == "unknown":
            conj = conjugation_decide(M)
            if conj is not None:
                v = type(v)("yes", witness=conj["dual_state"], evidence={"conjugation": True})
                decided_by = "conjugation"
        if v.kind == "yes":
            rep.cotransitive_yes += 1
            rep.witnesses.append(
                {
                    "name": M.name,
                    "table": M.to_text(),
                    "decided_by": decided_by,
                    "dual_state": str(v.witness),
                    "cocyclic": bool(p.cocyclic),
                }
            )
        elif v.kind == "no":
            rep.cotransitive_no += 1
            lvl = int(v.level)
            rep.refutation_levels[lvl] = rep.refutation_levels.get(lvl, 0) + 1
        else:
            rep.cotransitive_unknown += 1
    if (q, a) == (3, 2) and shard is None:
        _attach_cocyclic_summary(rep, cocyclic_keys)
    rep.check()
    return rep


def _attach_cocyclic_summary(rep: CensusReport, cocyclic_keys: list[bytes]) -> None:
    rep.cocyclic_classes = len(cocyclic_keys)
    rep.cocyclic_raw, rep.cocyclic_state_classes = _raw_cocyclic_counts(rep.q, rep.a)
    merged = set()
    for key in cocyclic_keys:
        ik = canonical_form(inverse(from_canonical(key)))
        merged.add(min(key, ik))
    rep.cocyclic_inverse_classes = len(merged)


def _raw_cocyclic_counts(q: int, a: int) -> tuple[int, int]:
    """Cocyclic counts over raw labeled tables and over state-renaming classes.

    The state-renaming count (letters kept fixed, inverses kept separate)
    is the convention under which the (3,2) count is 16.
    """
    N = table_space_size(q, a)
    T, O = _raw_batch(q, a, 0, N)
    states, letters = [f"s{k}" for k in range(q)], [str(j) for j in range(a)]
    hit = [i for i in range(N) if properties(Automaton(states, letters, T[i], O[i])).cocyclic]
    state_keys = _unique_rows(_least_cells(T[hit], O[hit], q, a, letters=False))
    return len(hit), len(state_keys)


def merge_reports(reports: list[CensusReport]) -> CensusReport:
    """Combine shard reports; deterministic regardless of shard layout."""
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
    out.witnesses.sort(key=lambda w: w["name"])
    # shards skip the cocyclic head count; the merged report covers the
    # whole space again, so recompute it here
    if (out.q, out.a) == (3, 2):
        keys = [
            canonical_form(M)
            for M in enumerate_classes(out.q, out.a, filters=("cocyclic",))
        ]
        _attach_cocyclic_summary(out, keys)
    out.check()
    return out
