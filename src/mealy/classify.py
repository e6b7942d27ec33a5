"""Census of small invertible automata up to relabeling.

Tables are enumerated with permutation output rows (so every table is
invertible), reduced to one representative per relabeling class by
minimizing an integer serialization over all state and letter
permutations, and each class is pushed through the cotransitivity
pipeline: an exact characteristic-series decision when the class is
cocyclic, orbit refutation at low levels otherwise, and for the single
undecided (3,2) class a conjugation into a cyclic automaton that the
series criterion can decide.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .automaton import (
    Automaton,
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


def _cells(t, o, q: int) -> tuple[int, ...]:
    # state-major, letter-minor; one value per cell
    return tuple(int(ov) * q + int(tv) for ov, tv in zip(o.flat, t.flat))


def canonical_form(M: Automaton) -> bytes:
    """Lexicographically least table serialization over all relabelings.

    Equal keys exactly when the automata differ by renaming states and
    letters.  The first two bytes are the shape; cell values are
    output-index * |Q| + target-index.
    """
    q, a = M.n_states, M.n_letters
    if q > CANON_MAX_STATES or a > CANON_MAX_LETTERS:
        raise ValueError(f"relabeling orbit too large for ({q},{a})")
    t, o = np.asarray(M.t), np.asarray(M.o)
    best = None
    for sp in permutations(range(q)):
        spA = np.array(sp)
        spinv = np.argsort(spA)
        ts, os_ = spA[t[spinv]], o[spinv]
        for lp in permutations(range(a)):
            lpA = np.array(lp)
            lpinv = np.argsort(lpA)
            cells = _cells(ts[:, lpinv], lpA[os_[:, lpinv]], q)
            if best is None or cells < best:
                best = cells
    return bytes([q, a]) + bytes(best)


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


def _key_int_to_bytes(key: int, q: int, a: int) -> bytes:
    ncells = q * a
    base = q * a
    vals = []
    for _ in range(ncells):
        vals.append(key % base)
        key //= base
    return bytes([q, a]) + bytes(reversed(vals))


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


def _encode_batch(T, O, q: int, a: int) -> np.ndarray:
    base = q * a
    vals = (O.astype(np.int64) * q + T).reshape(T.shape[0], q * a)
    key = np.zeros(T.shape[0], dtype=np.int64)
    for i in range(q * a):
        key = key * base + vals[:, i]
    return key


def _canonical_keys_batch(T, O, q: int, a: int) -> np.ndarray:
    best = None
    for sp in permutations(range(q)):
        spA = np.array(sp, dtype=np.int8)
        spinv = np.argsort(spA)
        Ts = spA[T[:, spinv, :]]
        Os = O[:, spinv, :]
        for lp in permutations(range(a)):
            lpA = np.array(lp, dtype=np.int8)
            lpinv = np.argsort(lpA)
            k = _encode_batch(Ts[:, :, lpinv], lpA[Os[:, :, lpinv]], q, a)
            best = k if best is None else np.minimum(best, k)
    return best


def table_space_size(q: int, a: int) -> int:
    fact = 1
    for i in range(2, a + 1):
        fact *= i
    return (fact * q**a) ** q


def canonical_keys(
    q: int,
    a: int,
    batch_size: int = 1 << 20,
    cache_dir: str | None = None,
    max_batches: int | None = None,
):
    """All canonical class keys for invertible (q,a) tables.

    Returns (sorted int64 key array, resume_token).  The token is None on
    a complete run; otherwise it names the next unprocessed batch, and a
    rerun with the same cache_dir picks up from cached per-batch results.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("MEALY_CACHE_DIR")
    N = table_space_size(q, a)
    n_batches = (N + batch_size - 1) // batch_size
    parts = []
    token = None
    for bi in range(n_batches):
        if max_batches is not None and bi >= max_batches:
            token = f"{q}x{a}:{batch_size}:{bi}"
            break
        path = None
        if cache_dir:
            path = os.path.join(cache_dir, f"canon-{q}x{a}-{batch_size}-{bi}.npy")
            if os.path.exists(path):
                parts.append(np.load(path))
                continue
        lo = bi * batch_size
        hi = min(N, lo + batch_size)
        T, O = _raw_batch(q, a, lo, hi)
        uniq = np.unique(_canonical_keys_batch(T, O, q, a))
        if path:
            os.makedirs(cache_dir, exist_ok=True)
            np.save(path, uniq)
        parts.append(uniq)
    keys = np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
    return keys, token


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
):
    """Stream one representative automaton per relabeling class.

    Representatives are decoded from sorted canonical keys, so the order
    is deterministic; tables are invertible by construction.  filters may
    be property names (fields of the properties record) or predicates.
    shard=(i,k) keeps classes with index congruent to i mod k.
    """
    keys, token = canonical_keys(q, a, batch_size=batch_size, cache_dir=cache_dir)
    if token is not None:
        raise RuntimeError(f"enumeration incomplete, resume from {token}")
    names, preds = _resolve_filters(filters)
    for i in range(len(keys)):
        if shard is not None and i % shard[1] != shard[0]:
            continue
        M = from_canonical(_key_int_to_bytes(int(keys[i]), q, a), name=f"c{q}{a}-{i}")
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


_PROP_FIELDS = ("invertible", "reversible", "bireversible", "cyclic", "cocyclic")


def classify_cotransitive(
    q: int,
    a: int,
    level_budget: int = 4,
    batch_size: int = 1 << 20,
    cache_dir: str | None = None,
    shard: tuple[int, int] | None = None,
) -> CensusReport:
    """Cotransitivity census over all invertible (q,a) classes."""
    rep = CensusReport(q, a, level_budget, shard=shard)
    rep.counts = {nm: 0 for nm in _PROP_FIELDS}
    cocyclic_keys = []
    for M in enumerate_classes(q, a, batch_size=batch_size, cache_dir=cache_dir, shard=shard):
        rep.classes_total += 1
        p = properties(M)
        for nm in _PROP_FIELDS:
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
    n = 0
    state_keys = set()
    sps = list(permutations(range(q)))
    N = table_space_size(q, a)
    T, O = _raw_batch(q, a, 0, N)
    for i in range(N):
        M = Automaton(
            [f"s{k}" for k in range(q)], [str(j) for j in range(a)], T[i], O[i]
        )
        if properties(M).cocyclic:
            n += 1
            best = None
            for sp in sps:
                spA = np.array(sp)
                cells = _cells(spA[T[i][np.argsort(spA)]], O[i][np.argsort(spA)], q)
                if best is None or cells < best:
                    best = cells
            state_keys.add(best)
    return n, len(state_keys)


def merge_reports(reports: list[CensusReport]) -> CensusReport:
    """Combine shard reports; deterministic regardless of shard layout."""
    if not reports:
        raise ValueError("nothing to merge")
    base = reports[0]
    out = CensusReport(base.q, base.a, base.level_budget)
    out.counts = {nm: 0 for nm in _PROP_FIELDS}
    for r in reports:
        if (r.q, r.a, r.level_budget) != (base.q, base.a, base.level_budget):
            raise ValueError("mismatched census parameters")
        out.classes_total += r.classes_total
        for nm in _PROP_FIELDS:
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
