"""The integer-digit codec against the earlier Fraction-per-term codec.

Both run the same calls on twin contexts; every call must give the same
value, of the same exact type, or raise the same exception type with the
same message, and leave both exponent interning maps equal, in order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ncwl import CodecContext, EpsilonValue, codec

# True and 2.0 hash equal to 1 and 2, so they share those elements' exponents
ELEMENTS = ("a", "b", "c", "d", 0, 1, 2, -1, 2.0, True, (1, 2))
# malformed pairs: too short, too long, not iterable, with an unhashable end
BAD_PAIRS = (("a",), ("a", "b", "c"), 5, ("a", []))


def outcome(call, *args):
    try:
        return "value", call(*args)
    except Exception as exc:  # the oracle compares whatever either side raises
        return "raised", type(exc), str(exc)


def assert_lowest_terms(value):
    assert type(value) is Fraction
    assert value.denominator > 0
    assert gcd(value.numerator, value.denominator) == 1


def assert_same_outcome(got, want):
    assert got == want
    if got[0] == "value":
        value = got[1]
        if isinstance(value, EpsilonValue):
            assert type(value) is EpsilonValue
            assert_lowest_terms(value.rational)
            assert_lowest_terms(value.epsilon_coeff)
        elif isinstance(value, tuple):
            assert all(type(z) is int for z in value)
        else:
            assert_lowest_terms(value)


def interned(ctx: CodecContext):
    return list(ctx._element_exponents.items()), list(ctx._pair_exponents.items())


naturals = st.one_of(st.integers(min_value=0, max_value=12), st.sampled_from((-1, 2.0, True)))
pairs = st.one_of(
    st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(ELEMENTS)),
    st.sampled_from(BAD_PAIRS),
)


@st.composite
def codec_calls(draw, base: int):
    """One encoder call: its name and its arguments after the context."""
    kind = draw(st.sampled_from(("multiset", "pairwise", "centered")))
    if kind == "multiset":
        # cardinality up to base + 1, so the bound is hit too
        size = draw(st.integers(min_value=0, max_value=min(base + 1, 14)) | st.just(base))
        return "encode_multiset", (draw(st.lists(naturals, min_size=size, max_size=size)),)
    elements = st.sampled_from(ELEMENTS + ([],))
    xs = draw(st.lists(elements, max_size=min(base, 6)))
    ws = draw(st.lists(pairs, max_size=min(base, 6)))
    if kind == "pairwise":
        return "encode_pairwise", (xs, ws)
    return "encode_centered", (draw(elements), xs, ws)


@settings(deadline=None)
@given(st.data())
def test_encoders_match_the_fraction_reference(data):
    base = data.draw(st.integers(min_value=3, max_value=70), label="base")
    seed = data.draw(st.none() | st.lists(st.sampled_from(ELEMENTS), max_size=5), label="seed")
    ours, theirs = CodecContext(base=base), CodecContext(base=base)
    if seed is not None:
        ours.seed_elements(seed)
        theirs.seed_elements(seed)
    for _ in range(data.draw(st.integers(min_value=1, max_value=8), label="calls")):
        name, args = data.draw(codec_calls(base))
        assert_same_outcome(
            outcome(getattr(codec, name), ours, *args),
            outcome(getattr(reference, name), theirs, *args),
        )
        assert interned(ours) == interned(theirs)


@st.composite
def encoded_values(draw, base: int):
    """Rationals to decode: encodings, negatives, non-terminating and multi-digit ones."""
    den = base ** draw(st.integers(min_value=0, max_value=6)) * draw(
        st.sampled_from((1, 1, 1, 2, 3, 5, 7, 9))
    )
    # integer parts up to 3 * base put a multi-digit count on exponent 0
    num = draw(st.integers(min_value=-2 * den, max_value=3 * base * den))
    return draw(st.sampled_from((Fraction(num, den), num // den, float(Fraction(num, den)))))


@settings(deadline=None)
@given(st.data())
def test_decoder_matches_the_fraction_reference(data):
    base = data.draw(st.integers(min_value=3, max_value=70) | st.sampled_from((-1, 0, 2)))
    value = data.draw(
        encoded_values(max(base, 3)) | st.sampled_from((Fraction(1, 3), 0.1, -0.5, 0))
    )
    assert_same_outcome(
        outcome(codec.decode_multiset, value, base),
        outcome(reference.decode_multiset, value, base),
    )
    # a larger exponent than the smallest decodes alike, so check it apart
    if base >= 3 and value > 0:
        value = Fraction(value)
        got = outcome(codec._max_exponent, value, base)
        assert got == outcome(reference._max_exponent, value, base)


@settings(deadline=None)
@given(
    st.integers(min_value=3, max_value=70),
    st.lists(st.integers(min_value=0, max_value=12), max_size=14),
)
def test_decoding_an_encoding_matches_the_reference(base, xs):
    xs = xs[: base - 1]
    value = codec.encode_multiset(CodecContext(base=base), xs)
    assert value == reference.encode_multiset(CodecContext(base=base), xs)
    assert codec.decode_multiset(value, base) == reference.decode_multiset(value, base)
    assert codec.decode_multiset(value, base) == tuple(sorted(xs))


def exact_key(value):
    """(numerator, denominator), or a pair of them for an EpsilonValue."""
    if type(value) is EpsilonValue:
        return exact_key(value.rational), exact_key(value.epsilon_coeff)
    return value.numerator, value.denominator


@pytest.mark.parametrize(("alphabet", "max_card"), [(1, 0), (2, 1), (3, 2), (4, 2)])
def test_sweep_values_match_the_fraction_reference(monkeypatch, alphabet, max_card):
    # every encoder call of the sweep is recorded, then replayed on a twin
    calls = []
    for name in ("encode_pairwise", "encode_centered"):

        def recorded(ctx, *args, name=name, real=getattr(codec, name)):
            value = real(ctx, *args)
            calls.append((name, args, value))
            return value

        monkeypatch.setattr(codec, name, recorded)
    base = 2 * max(2 * max_card, 2) + 3
    symbols = [f"x{i}" for i in range(alphabet)]
    ours, theirs = CodecContext(base=base), CodecContext(base=base)
    pairwise, centered = codec.injectivity_sweep(ours, symbols, max_card)
    assert len(calls) == pairwise + centered and centered == alphabet * pairwise
    theirs.seed_elements(symbols)
    for name, args, value in calls:
        assert exact_key(value) == exact_key(getattr(reference, name)(theirs, *args)), args
    assert interned(ours) == interned(theirs)


def test_values_match_the_reference_as_the_power_table_is_outgrown(monkeypatch):
    # base 5 and a table limit of 13: the table grows as new elements and
    # pair values get larger exponents, then exponents reach the limit
    limit = 13
    monkeypatch.setattr(codec, "_TABLE_LIMIT", limit)
    ours, theirs = CodecContext(base=5), CodecContext(base=5)
    calls = [
        ("encode_pairwise", ["a"], [("a", "a")]),
        ("encode_centered", "b", ["a"], [("a", "b")]),
        ("encode_multiset", [0, 3]),
        ("encode_pairwise", ["c", "d"], [("c", "d"), ("d", "a")]),
        ("encode_multiset", [11, 2, 11]),
        ("encode_centered", "e", ["f"], [("e", "f")]),
        ("encode_pairwise", ["g"], [("g", "a")]),
        ("encode_multiset", [40, 0, 12]),
        ("encode_centered", "a", ["g"], [("g", "g"), ("f", "e")]),
        ("encode_pairwise", ["a"], [("c", "b")]),
    ]
    sizes = []
    for name, *args in calls:
        value = getattr(codec, name)(ours, *args)
        assert exact_key(value) == exact_key(getattr(reference, name)(theirs, *args)), args
        assert interned(ours) == interned(theirs)
        sizes.append(len(ours._powers))
    assert sizes == sorted(sizes) and len(set(sizes)) >= 3 and sizes[-1] <= limit
    assert max(ours._element_exponents.values()) >= limit
    assert max(ours._pair_exponents.values()) >= limit
    for x, e in ours._element_exponents.items():
        assert exact_key(ours.f1(x)) == (1, 5**e)
    assert max(ours._unit_fractions) < limit
