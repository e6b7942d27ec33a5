import pytest
from hypothesis import given, strategies as st

from mealy.words import EventuallyPeriodicWord, GroupWord, _canonical, _primitive, format_symbols


def test_parse_and_repr():
    w = GroupWord.parse("ab'c")
    assert w.letters == (("a", 1), ("b", -1), ("c", 1))
    assert str(GroupWord.of("ab'c")) == "ab'c"


def test_parse_empty():
    assert len(GroupWord.parse("")) == 0


def test_inverse_reverses_and_flips():
    w = GroupWord.parse("ab'")
    assert w.inverse().letters == (("b", 1), ("a", -1))


def test_mul_then_reduce_cancels():
    w = GroupWord.parse("ab") * GroupWord.parse("b'c")
    assert w.reduce() == GroupWord.parse("ac")


def test_reduce_cascades():
    # the middle collapses completely
    assert GroupWord.parse("abb'a'").reduce() == GroupWord()


names = st.sampled_from(["a", "b", "c"])
signs = st.sampled_from([1, -1])
words = st.lists(st.tuples(names, signs), max_size=8).map(GroupWord)


@given(words)
def test_reduce_is_idempotent(w):
    r = w.reduce()
    assert r.reduce() == r
    # no adjacent q q^-1 or q^-1 q pair is left
    assert all(p != (q, -s) for p, (q, s) in zip(r.letters, r.letters[1:]))


@given(words)
def test_double_inverse(w):
    assert w.inverse().inverse() == w


@given(words, words)
def test_inverse_antihomomorphism(u, v):
    assert ((u * v).inverse()).reduce() == (v.inverse() * u.inverse()).reduce()


def test_coerce_and_format_roundtrip():
    assert format_symbols(["0", "1"], "xx") == "01"
    assert format_symbols(["0", "1"], ("x", "x")) == ("0", "1")


def test_periodic_word_normalizes_period():
    assert EventuallyPeriodicWord("", "abab") == EventuallyPeriodicWord("", "ab")


def test_periodic_word_absorbs_preperiod_into_period():
    # 1(01)^inf is the same stream as (10)^inf
    assert EventuallyPeriodicWord("1", "01") == EventuallyPeriodicWord("", "10")
    assert EventuallyPeriodicWord("1", "01").h() == 0


def test_h_counts_true_preperiod():
    w = EventuallyPeriodicWord("001", "1")
    assert w.h() == 2  # trailing 1 folds into the period
    assert EventuallyPeriodicWord.constant("0").h() == 0


def test_prefix_and_indexing():
    w = EventuallyPeriodicWord("ab", "cd")
    assert w.prefix(6) == ("a", "b", "c", "d", "c", "d")
    assert w[100] == ("c", "d")[(100 - 2) % 2]


@given(st.text(alphabet="01", max_size=4), st.text(alphabet="01", min_size=1, max_size=4))
def test_equal_streams_compare_equal(pre, per):
    w = EventuallyPeriodicWord(pre, per)
    # rebuilding from any long prefix plus shifted period gives the same stream
    v = EventuallyPeriodicWord(w.prefix(len(pre) + 3), per[-1] + per[:-1] if len(per) > 1 else per)
    assert (w == v) == (w.prefix(16) == v.prefix(16))


def test_period_must_be_nonempty():
    with pytest.raises(ValueError):
        EventuallyPeriodicWord("a", "")


def _primitive_naive(period):
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period[:d] * (n // d) == period:
            return period[:d]
    return period


def _canonical_naive(pre, per):
    """The canonical form rolled one letter at a time, as a reference."""
    pre, per = tuple(pre), _primitive_naive(tuple(per))
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = (per[-1],) + per[:-1]
    return pre, per


@given(st.text(alphabet="01", min_size=1, max_size=6), st.integers(1, 12))
def test_primitive_matches_naive_on_powers(root, m):
    word = tuple(root * m)
    assert _primitive(word) == _primitive_naive(word)
    assert _primitive(list(word)) == list(_primitive_naive(word))


@given(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", min_size=1, max_size=4),
       st.integers(1, 6), st.integers(0, 30))
def test_canonical_matches_naive(pre, root, m, tail):
    # a preperiod that ends in a stretch of the period rolls away
    per = root * m
    pre = pre + (per * 8)[-tail:] if tail else pre
    want = _canonical_naive(pre, per)
    assert _canonical(tuple(pre), tuple(per)) == want
    w = EventuallyPeriodicWord(pre, per)
    assert (w.preperiod, w.period) == want


def test_canonical_long_roll_matches_naive():
    per = tuple("0110100" * 3 + "1")
    pre = ("0",) + per * 40
    assert _canonical(pre, per) == _canonical_naive(pre, per) == (("0",), per)
