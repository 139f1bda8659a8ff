from __future__ import annotations

import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncwl import (
    CodecContext,
    CodecError,
    EpsilonValue,
    decode_multiset,
    encode_centered,
    encode_multiset,
    encode_pairwise,
    injectivity_sweep,
)

SYMBOLS = ("x1", "x2", "x3")


class TestEncodeMultiset:
    def test_fixture_nine_eighths(self):
        ctx = CodecContext(base=4)
        assert encode_multiset(ctx, [0, 2, 2]) == Fraction(9, 8)

    def test_empty(self):
        assert encode_multiset(CodecContext(base=4), []) == 0

    def test_single_exponent_zero(self):
        for base in (4, 7, 35):
            assert encode_multiset(CodecContext(base=base), [0]) == 1

    def test_cardinality_bound(self):
        with pytest.raises(CodecError, match="cardinality"):
            encode_multiset(CodecContext(base=3), [0, 0, 0])

    def test_rejects_non_naturals(self):
        with pytest.raises(CodecError, match="natural"):
            encode_multiset(CodecContext(base=4), [-1])


class TestDecodeMultiset:
    def test_fixture_walkthrough(self):
        # divmod against 4**0, 4**-1, 4**-2: quotients 1, 0, 2
        value = Fraction(9, 8)
        q, r = divmod(value, Fraction(1))
        assert (q, r) == (1, Fraction(1, 8))
        q, r = divmod(r, Fraction(1, 4))
        assert (q, r) == (0, Fraction(1, 8))
        q, r = divmod(r, Fraction(1, 16))
        assert (q, r) == (2, Fraction(0))
        assert decode_multiset(value, 4) == (0, 2, 2)

    def test_zero(self):
        assert decode_multiset(Fraction(0), 4) == ()
        assert decode_multiset(0, 9) == ()

    def test_negative_rejected(self):
        with pytest.raises(CodecError, match="non-negative"):
            decode_multiset(Fraction(-1, 4), 4)

    def test_non_terminating_rejected(self):
        with pytest.raises(CodecError, match="not decodable"):
            decode_multiset(Fraction(1, 3), 4)

    def test_huge_non_terminating_denominator_rejected_at_once(self):
        # 3**20000 shares no factor with 4, so the first gcd step refuses it
        # (multiplying out powers of 4 up to bit_length(den) grows about
        # cubically: 1 s at 3**8000); its 9543 digits are past the
        # interpreter's int to str limit, so the message gives its size
        start = time.perf_counter()
        with pytest.raises(CodecError) as exc:
            decode_multiset(Fraction(1, 3**20000), 4)
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == (
            "value with a 31700-bit denominator is not decodable under base 4: "
            "the residual never terminates"
        )

    def test_round_trip_1000_random_multisets(self):
        rng = random.Random("codec-roundtrip")
        ctx = CodecContext(base=64)
        for _ in range(1000):
            xs = sorted(rng.randrange(20) for _ in range(rng.randint(0, 20)))
            assert decode_multiset(encode_multiset(ctx, xs), 64) == tuple(xs)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=15))
    def test_round_trip_property(self, xs):
        ctx = CodecContext(base=40)
        assert decode_multiset(encode_multiset(ctx, xs), 40) == tuple(sorted(xs))


class TestEncodePairwise:
    def test_empty(self):
        assert encode_pairwise(CodecContext(base=5), [], []) == 0

    def test_single_element_gets_first_odd_exponent(self):
        ctx = CodecContext(base=4)
        assert encode_pairwise(ctx, ["x"], []) == Fraction(1, 4)

    def test_cardinality_bound(self):
        ctx = CodecContext(base=3)
        with pytest.raises(CodecError, match="cardinality"):
            encode_pairwise(ctx, ["a", "b"], [("a", "b")])

    def test_inner_pair_symmetry(self):
        ctx = CodecContext()
        ctx.seed_elements(SYMBOLS)
        assert encode_pairwise(ctx, [], [("x1", "x2")]) == encode_pairwise(ctx, [], [("x2", "x1")])

    def test_order_independence_with_seeded_maps(self):
        values = []
        for presentation in (["x1", "x2", "x3"], ["x3", "x1", "x2"]):
            ctx = CodecContext()
            ctx.seed_elements(SYMBOLS)
            values.append(
                encode_pairwise(ctx, presentation, [("x2", "x1"), ("x1", "x3")])
            )
        assert values[0] == values[1]

    def test_odd_even_exponent_split(self):
        # decode the combined value: odd exponents carry the element terms,
        # even exponents the encoded pair terms
        ctx = CodecContext(base=11)
        ctx.seed_elements(SYMBOLS)
        value = encode_pairwise(ctx, ["x1", "x1", "x3"], [("x1", "x2"), ("x1", "x2")])
        exponents = decode_multiset(value, 11)
        odd = [e for e in exponents if e % 2 == 1]
        even = [e for e in exponents if e % 2 == 0]
        assert sorted(odd) == sorted(
            [ctx.element_exponent("x1"), ctx.element_exponent("x1"), ctx.element_exponent("x3")]
        )
        y = ctx.f1("x1") + ctx.f1("x2")
        assert even == [ctx.pair_exponent(y), ctx.pair_exponent(y)]

    def test_exhaustive_injectivity_two_symbols(self):
        # 6 multisets of {a, b} times 10 multisets of {aa, ab, bb}, per center
        assert injectivity_sweep(CodecContext(base=11), ("a", "b"), 2) == (60, 120)


class TestEncodeCentered:
    def test_degenerate_multisets(self):
        ctx = CodecContext()
        got = encode_centered(ctx, "c", [], [])
        f1c = ctx.f1("c")
        assert got == EpsilonValue(rational=f1c, epsilon_coeff=f1c)

    def test_distinct_centers_differ_in_epsilon_coeff(self):
        ctx = CodecContext()
        ctx.seed_elements(SYMBOLS)
        xs, ws = ["x3"], [("x1", "x2")]
        a = encode_centered(ctx, "x1", xs, ws)
        b = encode_centered(ctx, "x2", xs, ws)
        assert a.epsilon_coeff != b.epsilon_coeff
        assert a != b

    def test_componentwise_equality(self):
        one, two = Fraction(1), Fraction(2)
        assert EpsilonValue(one, two) == EpsilonValue(one, two)
        assert EpsilonValue(one, two) != EpsilonValue(one, one)
        assert EpsilonValue(one, two) != EpsilonValue(two, two)

    def test_same_center_reduces_to_pairwise_gap(self):
        ctx = CodecContext()
        ctx.seed_elements(SYMBOLS)
        a = encode_centered(ctx, "x1", ["x2"], [])
        b = encode_centered(ctx, "x1", ["x3"], [])
        assert a.epsilon_coeff == b.epsilon_coeff
        assert a.rational != b.rational


class TestEpsilonValue:
    def test_a_named_tuple_of_its_two_parts(self):
        value = EpsilonValue(rational=Fraction(6, 5), epsilon_coeff=Fraction(1, 5))
        assert repr(value) == "EpsilonValue(rational=Fraction(6, 5), epsilon_coeff=Fraction(1, 5))"
        twin, swapped = EpsilonValue(Fraction(6, 5), Fraction(1, 5)), EpsilonValue(*value[::-1])
        assert value == twin and hash(value) == hash(twin)
        assert value != swapped and len({value, twin, swapped}) == 2
        assert value == (Fraction(6, 5), Fraction(1, 5))
        rational, epsilon_coeff = value
        assert (rational, epsilon_coeff) == (value.rational, value.epsilon_coeff)
        with pytest.raises(AttributeError):
            value.rational = Fraction(0)
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is EpsilonValue and copy == value


class TestContext:
    def test_default_base(self):
        assert CodecContext(max_cardinality=16).base == 35
        assert CodecContext(max_cardinality=1).base == 5

    def test_base_lower_bound(self):
        with pytest.raises(CodecError, match="base"):
            CodecContext(base=2)

    def test_interning_is_stable(self):
        ctx = CodecContext()
        first = ctx.element_exponent("q")
        assert ctx.element_exponent("q") == first
        assert ctx.element_exponent("r") == first + 2
