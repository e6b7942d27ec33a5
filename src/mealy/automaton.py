"""Mealy automata: construction, algebra, and actions on words.

A Mealy automaton M = (Q, A, tau, sigma) is a letter-to-letter transducer
with total transition table tau: Q x A -> Q and output table sigma:
Q x A -> A.  Every state q induces a length-preserving map on words over A
(written act(q, s)); these maps are tree automorphisms when M is invertible.

The dual automaton swaps the roles of states and letters; its action is the
tau-tilde action on state words (rightmost letter acted first).
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

import numpy as np

from .words import EventuallyPeriodicWord, GroupWord, _canonical, format_symbols


class Automaton:
    """Immutable Mealy automaton with integer-indexed tables.

    states and alphabet are ordered tuples of distinct symbols; t and o are
    (|Q|, |A|) integer arrays: t[q][x] is the next-state index, o[q][x] the
    output-letter index.
    """

    __slots__ = ("states", "alphabet", "t", "o", "name", "_sidx", "_aidx", "_inv_out", "_steps",
                 "_row_of", "_key", "_hash")

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        transition,
        output,
        name: str | None = None,
    ):
        self.states = tuple(str(q) for q in states)
        self.alphabet = tuple(str(x) for x in alphabet)
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state symbols")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letter symbols")
        self._sidx = {q: i for i, q in enumerate(self.states)}
        self._aidx = {x: i for i, x in enumerate(self.alphabet)}
        nq, na = len(self.states), len(self.alphabet)

        if isinstance(transition, Mapping):
            t = np.empty((nq, na), dtype=np.int64)
            o = np.empty((nq, na), dtype=np.int64)
            for (q, x), r in transition.items():
                t[self._sidx[q], self._aidx[x]] = self._sidx[r]
            if len(transition) != nq * na:
                raise ValueError("transition table is not total")
            for (q, x), y in output.items():
                o[self._sidx[q], self._aidx[x]] = self._aidx[y]
            if len(output) != nq * na:
                raise ValueError("output table is not total")
        else:
            t = np.asarray(transition, dtype=np.int64).reshape(nq, na).copy()
            o = np.asarray(output, dtype=np.int64).reshape(nq, na).copy()
        if t.min(initial=0) < 0 or (nq and t.max(initial=0) >= nq):
            raise ValueError("transition index out of range")
        if o.min(initial=0) < 0 or (nq and o.max(initial=0) >= na):
            raise ValueError("output index out of range")
        t.setflags(write=False)
        o.setflags(write=False)
        self.t = t
        self.o = o
        self.name = name
        self._inv_out = None
        self._steps = None
        self._row_of = None
        self._key = None
        self._hash = None

    # -- basic access ------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_letters(self) -> int:
        return len(self.alphabet)

    def state_index(self, q: str) -> int:
        try:
            return self._sidx[q]
        except KeyError:
            raise KeyError(f"unknown state {q!r}; states are {self.states}") from None

    def letter_index(self, x: str) -> int:
        try:
            return self._aidx[x]
        except KeyError:
            raise KeyError(f"unknown letter {x!r}; alphabet is {self.alphabet}") from None

    def step(self, q: str, x: str) -> tuple[str, str]:
        """One transducer step: returns (written letter, next state)."""
        qi, xi = self.state_index(q), self.letter_index(x)
        return self.alphabet[self.o[qi, xi]], self.states[self.t[qi, xi]]

    def is_invertible(self) -> bool:
        return bool(_are_perms(self.o[None])[0])

    def inv_out(self) -> np.ndarray:
        """Per-state inverse output: inv_out[q][y] = x with o[q][x] = y."""
        if self._inv_out is None:
            if not self.is_invertible():
                raise ValueError("automaton is not invertible")
            inv = np.argsort(self.o, axis=1)
            inv.setflags(write=False)
            self._inv_out = inv
        return self._inv_out

    def step_table(self) -> list[list[tuple[int, int]]]:
        """Signed step table: steps[row][x] = (output letter, next row).

        Rows 0..|Q|-1 are the states.  An invertible automaton also has rows
        |Q|..2|Q|-1 for the inverse states q', whose entries lead to the row
        of the next inverse state, so a walk never tests a sign.  Beside it
        is kept the row of each GroupWord letter (state, sign) it has.
        """
        if self._steps is None:
            nq = self.n_states
            o, t = self.o.tolist(), self.t.tolist()
            steps = [list(zip(o[q], t[q])) for q in range(nq)]
            row_of = {(q, 1): i for i, q in enumerate(self.states)}
            if self.is_invertible():
                inv = self.inv_out().tolist()
                steps += [[(x, t[q][x] + nq) for x in inv[q]] for q in range(nq)]
                row_of.update({(q, -1): i + nq for i, q in enumerate(self.states)})
            self._steps, self._row_of = steps, row_of
        return self._steps

    def table_key(self) -> tuple:
        if self._key is None:
            self._key = (self.states, self.alphabet, self.t.tobytes(), self.o.tobytes())
        return self._key

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Automaton)
                                 and self.table_key() == other.table_key())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.table_key())
        return self._hash

    def __repr__(self) -> str:
        label = self.name or "automaton"
        return f"<{label}: {self.n_states} states over {self.n_letters} letters>"

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [
            "states: " + " ".join(self.states),
            "alphabet: " + " ".join(self.alphabet),
        ]
        for qi, q in enumerate(self.states):
            for xi, x in enumerate(self.alphabet):
                lines.append(f"{q} {x} {self.alphabet[self.o[qi, xi]]} {self.states[self.t[qi, xi]]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, name: str | None = None) -> "Automaton":
        rows = []
        states: list[str] | None = None
        alphabet: list[str] | None = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("states:"):
                states = line[len("states:"):].split()
            elif line.startswith("alphabet:"):
                alphabet = line[len("alphabet:"):].split()
            else:
                parts = line.split()
                if len(parts) != 4:
                    raise ValueError(f"bad table row: {raw!r}")
                rows.append(tuple(parts))
        if states is None or alphabet is None:
            raise ValueError("missing states: or alphabet: header")
        tr: dict[tuple[str, str], str] = {}
        out: dict[tuple[str, str], str] = {}
        for q, x, y, r in rows:
            if (q, x) in tr:
                raise ValueError(f"duplicate row for ({q}, {x})")
            tr[(q, x)] = r
            out[(q, x)] = y
        if len(tr) != len(states) * len(alphabet):
            raise ValueError("missing table rows")
        return cls(states, alphabet, tr, out, name=name)


# -- built-in automata -----------------------------------------------------

def _from_rows(states, alphabet, rows, name):
    tr = {(q, x): r for q, x, _, r in rows}
    out = {(q, x): y for q, x, y, _ in rows}
    return Automaton(states, alphabet, tr, out, name=name)


AFFINE_CELL_CAP = 1 << 16  # largest k*m table that builtin("affine(k,m)") builds


def _affine(k: int, m: int) -> Automaton:
    """Automaton of x -> (x - q) / k on m-adic integers, for gcd(k, m) = 1.

    State q sends input digit x to the digit y with q + k*y = x + m*b and
    moves to state b; reading x as a least-significant-digit-first integer,
    state q computes (x - q) * k^{-1} mod m^n on every level n.  ValueError
    when the k*m table has more than AFFINE_CELL_CAP cells.
    """
    import math

    if k * m > AFFINE_CELL_CAP:
        raise ValueError(f"affine({k},{m}) has {k * m} table cells, above {AFFINE_CELL_CAP}")
    if math.gcd(k, m) != 1:
        raise ValueError(f"affine({k},{m}) needs gcd(k, m) = 1")
    kinv = pow(k, -1, m)
    states = [str(q) for q in range(k)]
    alphabet = [str(x) for x in range(m)]
    rows = []
    for q in range(k):
        for x in range(m):
            y = ((x - q) * kinv) % m
            b = (q + k * y - x) // m
            rows.append((str(q), str(x), str(y), str(b)))
    return _from_rows(states, alphabet, rows, f"affine({k},{m})" if (k, m) != (3, 2) else "div3")


_BUILTIN_ROWS = {
    "bellaterra": (
        ("a", "b", "c"),
        ("0", "1"),
        [
            ("a", "0", "0", "b"), ("a", "1", "1", "c"),
            ("b", "0", "0", "c"), ("b", "1", "1", "b"),
            ("c", "0", "1", "a"), ("c", "1", "0", "a"),
        ],
    ),
    "aleshin": (
        ("a", "b", "c"),
        ("0", "1"),
        [
            ("a", "0", "1", "b"), ("a", "1", "0", "c"),
            ("b", "0", "1", "c"), ("b", "1", "0", "b"),
            ("c", "0", "0", "a"), ("c", "1", "1", "a"),
        ],
    ),
    "adding": (
        ("r", "i"),
        ("0", "1"),
        [
            ("r", "0", "1", "i"), ("r", "1", "0", "r"),
            ("i", "0", "0", "i"), ("i", "1", "1", "i"),
        ],
    ),
    "conjugator": (
        ("a", "b", "c"),
        ("x", "y"),
        [
            ("a", "x", "x", "c"), ("a", "y", "y", "a"),
            ("b", "x", "y", "b"), ("b", "y", "x", "b"),
            ("c", "x", "x", "a"), ("c", "y", "y", "c"),
        ],
    ),
    "bireversible52": (
        ("a", "b", "c", "d", "e"),
        ("0", "1"),
        [
            ("a", "0", "1", "b"), ("a", "1", "0", "a"),
            ("b", "0", "0", "c"), ("b", "1", "1", "e"),
            ("c", "0", "0", "d"), ("c", "1", "1", "d"),
            ("d", "0", "0", "e"), ("d", "1", "1", "c"),
            ("e", "0", "1", "a"), ("e", "1", "0", "b"),
        ],
    ),
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_ROWS)) + ("div3", "affine(k,m)")


def builtin(name: str) -> Automaton:
    """Return a named built-in automaton.

    Known names: bellaterra, aleshin, adding, div3, conjugator,
    bireversible52, and affine(k,m) for gcd(k, m) = 1.
    """
    name = name.strip()
    if name == "div3":
        return _affine(3, 2)
    m = re.fullmatch(r"affine\((\d+),\s*(\d+)\)", name)
    if m:
        return _affine(int(m.group(1)), int(m.group(2)))
    if name in _BUILTIN_ROWS:
        states, alphabet, rows = _BUILTIN_ROWS[name]
        return _from_rows(states, alphabet, rows, name)
    raise KeyError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")


# -- predicates ------------------------------------------------------------

def _least_full_cycle(perms, n: int) -> tuple[int, ...] | None:
    """The lexicographically least full n-cycle of <perms>, when <perms> is
    exactly the cyclic group of one full n-cycle; None otherwise."""
    ident = tuple(range(n))
    group = {ident}
    frontier = [ident]
    while frontier:
        if len(group) > n:
            return None
        nxt = []
        for g in frontier:
            for p in perms:
                h = tuple(p[g[i]] for i in range(n))
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    if len(group) != n:
        return None
    return min((g for g in group if _is_full_cycle(g)), default=None)


def _is_full_cycle(perm: tuple[int, ...]) -> bool:
    v, n = 0, len(perm)
    for count in range(1, n + 1):
        v = perm[v]
        if v == 0:
            return count == n
    return False


class Properties:
    __slots__ = ("invertible", "reversible", "bireversible", "cyclic", "cocyclic")

    def __init__(self, invertible, reversible, bireversible, cyclic, cocyclic):
        self.invertible = invertible
        self.reversible = reversible
        self.bireversible = bireversible
        self.cyclic = cyclic
        self.cocyclic = cocyclic

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    def __repr__(self) -> str:
        flags = ", ".join(f"{k}={getattr(self, k)}" for k in self.__slots__)
        return f"Properties({flags})"


def _are_perms(X: np.ndarray) -> np.ndarray:
    """Per i, whether every row X[i, j] of X (n, k, l) permutes range(l)."""
    return (np.sort(X, axis=2) == np.arange(X.shape[2])).all(axis=(1, 2))


def _cyclic_groups(G: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Per i where ok (False elsewhere), whether the permutations G[i] (k, l)
    generate the group of one full l-cycle; one _least_full_cycle call per
    distinct generator tuple."""
    n, k, l = G.shape
    out = np.zeros(n, dtype=bool)
    if ok.any():
        # each tuple as one opaque item, so np.unique sorts 1-d
        X = np.ascontiguousarray(G[ok]).reshape(-1, k * l)
        gens, which = np.unique(X.view(f"V{X.shape[1] * X.itemsize}").ravel(),
                                return_inverse=True)
        found = [_least_full_cycle(np.frombuffer(g, X.dtype).reshape(k, l).tolist(), l)
                 is not None for g in gens.tolist()]
        out[ok] = np.array(found, dtype=bool)[which.ravel()]
    return out


def _table_properties(T, O) -> np.ndarray:
    """The properties flags of stacked (n, |Q|, |A|) tables T, O as an (n, 5)
    array in Properties.__slots__ order.  The dual's output rows are the
    columns of T; the inverse's transitions are t[q][sigma_q^{-1}(y)]."""
    T, O = np.asarray(T), np.asarray(O)
    Tc = T.transpose(0, 2, 1)
    inv = _are_perms(O)
    rev = _are_perms(Tc)
    t_inv = np.take_along_axis(T, np.argsort(O, axis=2), axis=2)
    bi = inv & rev & _are_perms(t_inv.transpose(0, 2, 1))
    return np.stack([inv, rev, bi, _cyclic_groups(O, inv), _cyclic_groups(Tc, rev)], axis=1)


def properties(M: Automaton) -> Properties:
    """Invertibility, reversibility, bireversibility, cyclicity, cocyclicity.

    invertible: every sigma_q is a permutation of A.  reversible: the dual is
    invertible.  bireversible: invertible, reversible, and the inverse is
    reversible.  cyclic: invertible with <sigma_q> equal to the group
    generated by a single full |A|-cycle.  cocyclic: the dual is cyclic.
    The one-table case of _table_properties.
    """
    return Properties(*map(bool, _table_properties(M.t[None], M.o[None])[0]))


# -- automaton algebra -----------------------------------------------------

def dual(M: Automaton) -> Automaton:
    """Swap the roles of states and letters.

    q --x|y--> r in M becomes x --q|r--> y in the dual: the dual state x
    reads a state q, writes the M-transition q^x, and moves to sigma_q(x).
    """
    name = None
    if M.name:
        name = M.name[5:] if M.name.startswith("dual(") and M.name.endswith(")") else f"dual({M.name})"
    return Automaton(M.alphabet, M.states, M.o.T, M.t.T, name=name)


def inverse(M: Automaton) -> Automaton:
    """The inverse automaton: state q' undoes the action of q.

    sigma'_{q'} = sigma_q^{-1} and tau'(q', y) = tau(q, sigma_q^{-1}(y)).
    States are renamed with a trailing apostrophe.
    """
    inv_o = M.inv_out()
    t = np.take_along_axis(M.t, inv_o, axis=1)
    states = tuple(q + "'" for q in M.states)
    name = f"inverse({M.name})" if M.name else None
    return Automaton(states, M.alphabet, t, inv_o, name=name)


def union(M1: Automaton, M2: Automaton) -> Automaton:
    """Disjoint union over a common alphabet.

    Colliding state names from M2 get a numeric suffix so that unions like
    M with inverse(M) always work.
    """
    if M1.alphabet != M2.alphabet:
        raise ValueError("union needs identical alphabets")
    names = list(M1.states)
    taken = set(names)
    renamed = []
    for q in M2.states:
        new = q
        k = 2
        while new in taken:
            new = f"{q}_{k}"
            k += 1
        taken.add(new)
        renamed.append(new)
    states = names + renamed
    t = np.vstack([M1.t, M2.t + M1.n_states])
    o = np.vstack([M1.o, M2.o])
    name = None
    if M1.name and M2.name:
        name = f"{M1.name}+{M2.name}"
    return Automaton(states, M1.alphabet, t, o, name=name)


def relabel(M: Automaton, state_perm: Sequence[int], letter_perm: Sequence[int]) -> Automaton:
    """Relabel states and letters by index permutations, keeping symbol names.

    The new state i behaves like the old state state_perm^{-1}(i) with
    letters renamed by letter_perm.
    """
    sp = np.asarray(state_perm, dtype=np.int64)
    lp = np.asarray(letter_perm, dtype=np.int64)
    sp_inv = np.empty_like(sp)
    sp_inv[sp] = np.arange(len(sp))
    lp_inv = np.empty_like(lp)
    lp_inv[lp] = np.arange(len(lp))
    t = sp[M.t[sp_inv][:, lp_inv]]
    o = lp[M.o[sp_inv][:, lp_inv]]
    return Automaton(M.states, M.alphabet, t, o, name=M.name)


# -- actions ---------------------------------------------------------------

def _signed_letters(M: Automaton, w) -> list[tuple[int, int]]:
    if isinstance(w, str):
        # a bare state name (possibly primed) wins over character splitting,
        # so multi-character states like product's t0 are usable directly
        if w in M._sidx:
            return [(M._sidx[w], 1)]
        if w.endswith("'") and w[:-1] in M._sidx:
            return [(M._sidx[w[:-1]], -1)]
    return [(M.state_index(q), s) for q, s in GroupWord.of(w).letters]


def _rows(M: Automaton, w) -> list[int]:
    """Step-table rows of the letters of w, leftmost first.

    A GroupWord costs one lookup of the step table's row map per letter;
    a letter the map lacks, and any other form of w, takes the parsing
    path, which names an unknown state or the missing inverse."""
    steps = M.step_table()
    if isinstance(w, GroupWord):
        try:
            return [M._row_of[letter] for letter in w.letters]
        except KeyError:
            pass
    nq = M.n_states
    rows = [qi if s > 0 else qi + nq for qi, s in _signed_letters(M, w)]
    if rows and max(rows) >= len(steps):
        raise ValueError("automaton is not invertible")
    return rows


def _row_walk(steps, r: int, letters, append) -> int:
    """Feed letter indices through the one step-table row r, passing each
    written letter to append; return the row reached.  The only loop that
    walks a letter word through one row."""
    for xi in letters:
        xi, r = steps[r][xi]
        append(xi)
    return r


def _run(steps, rows: list[int], letters) -> list[int]:
    """Feed letter indices, in reading order, through a cascade of step-table
    rows, rightmost row first; return the letters the leftmost row writes.

    Each row reads the word written by the row to its right and is left in
    rows at its section after that word, so calling again continues the
    same infinite input.  A one-row cascade (the index-coded word walks)
    is one _row_walk; a longer one goes letter by letter through all rows,
    which suits the callers that feed one letter or a short word through
    many rows.
    """
    out: list[int] = []
    if len(rows) == 1:
        rows[0] = _row_walk(steps, rows[0], letters, out.append)
        return out
    cascade = range(len(rows) - 1, -1, -1)
    for xi in letters:
        for j in cascade:
            xi, rows[j] = steps[rows[j]][xi]
        out.append(xi)
    return out


def act(M: Automaton, w, s):
    """Apply the group word w to the letter word s, rightmost letter first.

    Length preserving; act(uv, s) = act(u, act(v, s)).  Inverse letters
    require M invertible.
    """
    letters = [M.letter_index(x) for x in s]
    out = _run(M.step_table(), _rows(M, w), letters)
    return format_symbols([M.alphabet[i] for i in out], s)


def _row_pass(steps, row: int, pre: list[int], per: list[int]) -> tuple[list[int], list[int]]:
    """The eventually periodic word one step-table row writes reading the
    letter indices pre . per per ..., in canonical form (words._canonical).

    The row reads pre once, then per pass after pass until it starts a pass
    in a row it started one in before; the passes from that one on are the
    period.  Every pass writes onto one list, and with at most one pass per
    step-table row the cost is the length of the stream written.  A table
    whose entries write the row they leave makes this the row's stream of
    states instead.
    """
    out: list[int] = []
    append = out.append
    r = _row_walk(steps, row, pre, append)
    seen: dict[int, int] = {}
    while r not in seen:
        seen[r] = len(out)
        r = _row_walk(steps, r, per, append)
    start = seen[r]
    return _canonical(out[:start], out[start:])


def act_inf(M: Automaton, w, e: EventuallyPeriodicWord) -> EventuallyPeriodicWord:
    """Apply w to an eventually periodic word; the image is again one.

    The rows of w act one at a time, rightmost first, each by one _row_pass
    on the canonical word the row to its right wrote, so the work is the
    sum of the rows' output stream lengths.  The last pass leaves the image
    canonical, so it is not canonicalized again.
    """
    steps = M.step_table()
    pre = [M.letter_index(x) for x in e.preperiod]
    per = [M.letter_index(x) for x in e.period]
    for row in reversed(_rows(M, w)):
        pre, per = _row_pass(steps, row, pre, per)
    a = M.alphabet
    return EventuallyPeriodicWord._of_canonical(tuple([a[i] for i in pre]),
                                                tuple([a[i] for i in per]))


def dual_act(M: Automaton, v, s):
    """The dual action of the letter word s on the state word v.

    The rightmost state of v is acted on first:
    (... q1 q0)^x = (... q1)^{sigma_{q0}(x)} (q0^x), and a longer s acts
    letter by letter in reading order.
    """
    word = [M.state_index(q) for q in v]
    _run(M.step_table(), word, [M.letter_index(x) for x in s])
    return format_symbols([M.states[q] for q in word], v)


def group_section(M: Automaton, w, s) -> GroupWord:
    """Section of the group word w at the letter word s.

    Satisfies act(w, s ++ t) = act(w, s) ++ act(group_section(w, s), t).
    For positive words this agrees with dual_act; inverse letters use
    (g^{-1})|_s = (g|_{act(g^{-1}, s)})^{-1}.
    """
    rows = _rows(M, w)
    _run(M.step_table(), rows, [M.letter_index(x) for x in s])
    nq = M.n_states
    return GroupWord((M.states[row % nq], 1 if row < nq else -1) for row in rows)


# -- composition and minimization -------------------------------------------

def product(parts: Sequence[tuple[Automaton, "GroupWord | str"]]) -> tuple[Automaton, str]:
    """Compose several automaton actions into one automaton.

    Each part is (automaton, group word over its states); the composite's
    designated state acts as the left-to-right composition with the leftmost
    part applied last, i.e. like act(part0, act(part1, ... act(partk, s))).
    Only composite states reachable from the designated tuple are built.
    Returns (automaton, designated state symbol).
    """
    if not parts:
        raise ValueError("product of zero parts")
    alphabet = parts[0][0].alphabet
    # one step table for all parts, each part's rows offset past the last's
    steps: list[list[tuple[int, int]]] = []
    start: list[int] = []
    for M, w in parts:
        if M.alphabet != alphabet:
            raise ValueError("product needs one common alphabet")
        off = len(steps)
        start += [row + off for row in _rows(M, w)]
        steps += [[(y, r + off) for y, r in entries] for entries in M.step_table()]
    na = len(alphabet)

    order = [tuple(start)]
    index: dict[tuple, int] = {order[0]: 0}
    t_rows: list[list[int]] = []
    o_rows: list[list[int]] = []
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        trow, orow = [], []
        for xi in range(na):
            rows = list(node)
            (y,) = _run(steps, rows, [xi])
            child = tuple(rows)
            if child not in index:
                index[child] = len(order)
                order.append(child)
            trow.append(index[child])
            orow.append(y)
        t_rows.append(trow)
        o_rows.append(orow)
    states = [f"t{i}" for i in range(len(order))]
    return Automaton(states, alphabet, t_rows, o_rows, name="product"), "t0"


def minimize_map(M: Automaton) -> tuple[Automaton, dict[str, str]]:
    """Merge states with identical actions; also return old-to-new name map.

    Partition refinement on (output row, transition row block signature)
    until stable.  Two states end in one block iff they act identically on
    every letter word.
    """
    nq, na = M.n_states, M.n_letters
    block = [0] * nq
    sig0 = {}
    for q in range(nq):
        key = tuple(M.o[q])
        block[q] = sig0.setdefault(key, len(sig0))
    while True:
        sig: dict[tuple, int] = {}
        new = [0] * nq
        for q in range(nq):
            key = (block[q], tuple(block[int(r)] for r in M.t[q]))
            new[q] = sig.setdefault(key, len(sig))
        if new == block:
            break
        block = new
    n_blocks = max(block) + 1 if nq else 0
    rep = [None] * n_blocks
    for q in range(nq):
        if rep[block[q]] is None:
            rep[block[q]] = q
    states = [M.states[r] for r in rep]
    t = [[block[int(M.t[r, x])] for x in range(na)] for r in rep]
    o = [[int(M.o[r, x]) for x in range(na)] for r in rep]
    mapping = {M.states[q]: M.states[rep[block[q]]] for q in range(nq)}
    name = f"min({M.name})" if M.name else None
    return Automaton(states, M.alphabet, t, o, name=name), mapping


def minimize(M: Automaton) -> Automaton:
    return minimize_map(M)[0]
