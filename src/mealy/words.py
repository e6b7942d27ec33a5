"""Word types used throughout the package.

Conventions:

* A letter word is a finite word over the alphabet A.  Its first letter is
  the first one the automaton reads.  Functions accept either a string (one
  character per letter) or a sequence of letter symbols, and return the same
  kind they were given.
* A group word is a word over the states Q and their formal inverses; it
  acts on letter words through an automaton, rightmost letter first, so that
  act(uv, s) = act(u, act(v, s)).
* A state word is a word over Q acted on by the dual action; the rightmost
  letter is acted on first.
* An eventually periodic word is an infinite word given by a finite
  preperiod and a repeating period, kept in canonical form so that equality
  of streams is equality of representations.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_symbols(letters: Sequence[str], like: str | Sequence[str]) -> str | tuple[str, ...]:
    """Return ``letters`` in the same shape the caller used for input."""
    if isinstance(like, str) and all(len(x) == 1 for x in letters):
        return "".join(letters)
    return tuple(letters)


class GroupWord:
    """A word over state symbols and their formal inverses.

    Stored as a tuple of (state, sign) pairs with sign in {+1, -1}.  The
    rightmost pair acts first.  Textual form uses a trailing apostrophe for
    inverses: ``a b' c`` or, when all states are single characters, ``ab'c``.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[str, int]] = ()):
        letters = tuple((str(q), int(s)) for q, s in letters)
        for q, s in letters:
            if s not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {s!r}")
        self.letters = letters

    @classmethod
    def _held(cls, letters: tuple) -> "GroupWord":
        """A word of letters that GroupWords already hold, so valid; no check."""
        word = object.__new__(cls)
        word.letters = letters
        return word

    @classmethod
    def parse(cls, text: str) -> "GroupWord":
        """Parse ``a b' c`` (whitespace separated) or ``ab'c`` (single chars)."""
        text = text.strip()
        if not text:
            return cls()
        if any(ch.isspace() for ch in text):
            tokens = text.split()
        else:
            tokens = []
            for ch in text:
                if ch == "'":
                    if not tokens:
                        raise ValueError("word cannot start with an inverse mark")
                    tokens[-1] += "'"
                else:
                    tokens.append(ch)
        letters = []
        for tok in tokens:
            if tok.endswith("^-1"):
                letters.append((tok[:-3], -1))
            elif tok.endswith("'"):
                letters.append((tok[:-1], -1))
            else:
                letters.append((tok, 1))
        return cls(letters)

    @classmethod
    def of(cls, word: "GroupWord | str | Iterable") -> "GroupWord":
        if isinstance(word, GroupWord):
            return word
        if isinstance(word, str):
            return cls.parse(word)
        items = list(word)
        if all(isinstance(it, tuple) and len(it) == 2 and it[1] in (1, -1) for it in items):
            return cls(items)
        return cls((str(q), 1) for q in items)

    def inverse(self) -> "GroupWord":
        return GroupWord._held(tuple((q, -s) for q, s in reversed(self.letters)))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        # self applied after other: act(self * other, s) = act(self, act(other, s))
        return GroupWord._held(self.letters + other.letters)

    def reduce(self) -> "GroupWord":
        """Cancel adjacent q q^{-1} and q^{-1} q pairs; the result is unique."""
        out: list[tuple[str, int]] = []
        for q, s in self.letters:
            if out and out[-1][0] == q and out[-1][1] == -s:
                out.pop()
            else:
                out.append((q, s))
        return GroupWord._held(tuple(out))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        if not self.letters:
            return "1"
        if all(len(q) == 1 for q, _ in self.letters):
            return "".join(q + ("'" if s < 0 else "") for q, s in self.letters)
        return " ".join(q + ("'" if s < 0 else "") for q, s in self.letters)


def _primitive(period: Sequence) -> Sequence:
    """The primitive root of a nonempty period: its shortest prefix p with
    period = p^m.  The lengths d dividing len(period) whose prefix repeats
    are the multiples of |p|, so dividing the length by one prime at a time,
    while the shorter prefix still repeats, ends at |p|; each try is one
    shift comparison."""
    n = d = len(period)
    m, r = n, 2
    while m > 1:
        if r * r > m:
            r = m  # what is left of m is prime
        if m % r == 0:
            while m % r == 0:
                m //= r
            while d % r == 0 and period[d // r:] == period[:n - d // r]:
                d //= r
        r += 1
    return period[:d]


def _canonical(preperiod: Sequence, period: Sequence) -> tuple[Sequence, Sequence]:
    """Canonical form of the stream preperiod . period period ...: the period
    reduced to its primitive root, then the period start rolled leftward
    while the stream is unchanged.  The roll is counted first and applied
    with one slice of each part, so the cost is linear."""
    per = _primitive(period) if len(period) > 1 else period
    n, m = len(per), len(preperiod)
    roll = 0
    while roll < m and preperiod[m - 1 - roll] == per[n - 1 - roll % n]:
        roll += 1
    s = roll % n
    if s:
        per = per[n - s:] + per[:n - s]
    return preperiod[:m - roll], per


class EventuallyPeriodicWord:
    """Infinite word ``preperiod . period period period ...`` in canonical form.

    Canonical form: the period is primitive (not a proper power of a shorter
    word) and the preperiod is as short as possible, obtained by rolling the
    period start leftward while the stream is unchanged.  h() is then the
    well-defined minimal preperiod length.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: Sequence[str] | str, period: Sequence[str] | str):
        per = tuple(period)
        if not per:
            raise ValueError("period must be nonempty")
        self.preperiod, self.period = _canonical(tuple(preperiod), per)

    @classmethod
    def _of_canonical(cls, preperiod: tuple, period: tuple) -> "EventuallyPeriodicWord":
        """The word of parts that are already in canonical form; no check."""
        word = object.__new__(cls)
        word.preperiod, word.period = preperiod, period
        return word

    @classmethod
    def constant(cls, x: str) -> "EventuallyPeriodicWord":
        return cls((), (x,))

    def h(self) -> int:
        """Length of the minimal preperiod."""
        return len(self.preperiod)

    def __getitem__(self, i: int) -> str:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple[str, ...]:
        return tuple(self[i] for i in range(n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventuallyPeriodicWord)
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self) -> int:
        return hash((self.preperiod, self.period))

    def __repr__(self) -> str:
        if all(len(x) == 1 for x in self.preperiod + self.period):
            return "".join(self.preperiod) + "(" + "".join(self.period) + ")*"
        return f"{' '.join(self.preperiod)} ({' '.join(self.period)})*"
