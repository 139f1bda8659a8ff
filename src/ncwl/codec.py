"""Exact injective encodings of multisets over the rationals.

The base construction maps a multiset of natural numbers to the rational
``sum(N**-z for z in X)``; as long as every multiplicity stays below the
base N, the base-N digits of the value are exactly the multiplicities, so
the multiset can be recovered by iterated divmod against N**0, N**-1, ...

Two layered variants build on it:

* a pair encoding for (X, W) where W is a multiset of unordered element
  pairs: elements get odd exponents, encoded pair values get even
  exponents, so decoding can attribute every digit position to X or W;
* a centered encoding for (c, X, W) that keeps an extra formal-epsilon
  component ``(1 + eps) * f1(c) + ...``; epsilon is never evaluated, the
  value is the pair (rational part, epsilon coefficient) and equality is
  componentwise, which is exactly what makes distinct centers separable.

All arithmetic is exact (``fractions.Fraction``); nothing here is
floating-point. A :class:`CodecContext` fixes the base and the exponent
assignments for a session; encoded values from different contexts are not
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Hashable, Iterable, Sequence

ExactRational = Fraction


class CodecError(ValueError):
    pass


@dataclass(frozen=True)
class EpsilonValue:
    """``rational + eps * epsilon_coeff`` with eps a formal symbol.

    Equality (the only operation the injectivity arguments need) is
    componentwise, provided by the dataclass.
    """

    rational: Fraction
    epsilon_coeff: Fraction


class CodecContext:
    """Session state: the base N and the two exponent interning maps.

    Elements are assigned odd exponents 1, 3, 5, ... in first-seen order;
    encoded pair values get even exponents 0, 2, 4, ... Seed the element map
    up front (:meth:`seed_elements`) when a fixed assignment is needed
    across contexts. Mutable while interning: confine a context to one
    thread or guard it externally.
    """

    def __init__(self, base: int | None = None, max_cardinality: int = 16):
        if base is None:
            base = 2 * max_cardinality + 3
        if base < 3:
            raise CodecError(f"base must be at least 3, got {base}")
        self.base = int(base)
        self._element_exponents: dict[Hashable, int] = {}
        self._pair_exponents: dict[Fraction, int] = {}

    def seed_elements(self, elements: Iterable[Hashable]) -> None:
        for x in elements:
            self.element_exponent(x)

    def element_exponent(self, x: Hashable) -> int:
        exp = self._element_exponents.get(x)
        if exp is None:
            exp = 2 * len(self._element_exponents) + 1
            self._element_exponents[x] = exp
        return exp

    def f1(self, x: Hashable) -> Fraction:
        return Fraction(1, self.base ** self.element_exponent(x))

    def pair_exponent(self, value: Fraction) -> int:
        exp = self._pair_exponents.get(value)
        if exp is None:
            exp = 2 * len(self._pair_exponents)
            self._pair_exponents[value] = exp
        return exp

    def f2(self, value: Fraction) -> Fraction:
        return Fraction(1, self.base ** self.pair_exponent(value))


def encode_multiset(ctx: CodecContext, naturals: Iterable[int]) -> Fraction:
    """``sum(N**-z for z in naturals)`` exactly; the identity is the injection.

    Requires fewer than N elements so multiplicities never reach the base.
    """
    xs = list(naturals)
    if len(xs) >= ctx.base:
        raise CodecError(f"multiset cardinality {len(xs)} must be below the base {ctx.base}")
    total = Fraction(0)
    for z in xs:
        if not isinstance(z, int) or z < 0:
            raise CodecError(f"multiset elements must be natural numbers, got {z!r}")
        total += Fraction(1, ctx.base**z)
    return total


def _max_exponent(value: Fraction, base: int) -> int:
    """Smallest e with denominator(value) dividing base**e, or raise."""
    den = value.denominator
    power = 1
    e = 0
    # if den | base**e for some e then e <= bit_length(den) since base >= 2
    while power % den != 0:
        power *= base
        e += 1
        if e > den.bit_length() + 1:
            raise CodecError(
                f"value {value} is not decodable under base {base}: "
                "the residual never terminates"
            )
    return e


def decode_multiset(value: Fraction | int, base: int) -> tuple[int, ...]:
    """Recover the encoded multiset of naturals by iterated divmod.

    Inverse of :func:`encode_multiset` on its range. The quotient against
    N**-i is the multiplicity of i; the walk stops at remainder 0.
    """
    if base < 3:
        raise CodecError(f"base must be at least 3, got {base}")
    value = Fraction(value)
    if value < 0:
        raise CodecError("encoded values are non-negative")
    if value == 0:
        return ()
    bound = _max_exponent(value, base)
    out: list[int] = []
    remainder = value
    for i in range(bound + 1):
        if remainder == 0:
            break
        q, remainder = divmod(remainder, Fraction(1, base**i))
        out.extend([i] * int(q))
    if remainder != 0:
        raise CodecError(f"value {value} is not decodable under base {base}")
    return tuple(out)


def _normalized_pairs(ctx: CodecContext, pairs: Iterable) -> list[Fraction]:
    values = []
    for pair in pairs:
        w1, w2 = pair
        values.append(ctx.f1(w1) + ctx.f1(w2))
    return values


def encode_pairwise(ctx: CodecContext, elements: Iterable[Hashable], pairs: Iterable) -> Fraction:
    """Encode (X, W): element terms on odd exponents, pair terms on even ones.

    Each pair {w1, w2} is first collapsed to the exact value f1(w1) + f1(w2)
    (symmetric, itself injective on unordered pairs), then that value is
    interned to an even exponent. Distinct (X, W) give distinct rationals
    within one context while |X| + |W| stays below the base.
    """
    xs = list(elements)
    ws = list(pairs)
    if len(xs) + len(ws) >= ctx.base:
        raise CodecError(
            f"total cardinality {len(xs) + len(ws)} must be below the base {ctx.base}"
        )
    total = Fraction(0)
    for x in xs:
        total += ctx.f1(x)
    for y in _normalized_pairs(ctx, ws):
        total += ctx.f2(y)
    return total


def encode_centered(
    ctx: CodecContext, center: Hashable, elements: Iterable[Hashable], pairs: Iterable
) -> EpsilonValue:
    """Encode (c, X, W) as (1 + eps) * f1(c) + encode_pairwise(X, W).

    Kept formal: the rational part is f1(c) plus the pairwise sum, the
    epsilon coefficient is f1(c) alone, so distinct centers already differ
    in the coefficient and equal centers reduce to pairwise injectivity.
    """
    f1c = ctx.f1(center)
    return EpsilonValue(rational=f1c + encode_pairwise(ctx, elements, pairs), epsilon_coeff=f1c)


def injectivity_sweep(
    ctx: CodecContext, symbols: Sequence[Hashable], max_cardinality: int
) -> tuple[int, int]:
    """Encode every (X, W) and (c, X, W) over ``symbols`` under ``ctx``, seeded with them.

    X and W are multisets of symbols and of symbol pairs, each of at most
    ``max_cardinality`` elements (so ``ctx.base`` must exceed twice that).
    Returns the counts of pairwise and centered encodings, all distinct, or
    raises CodecError at the first pairwise collision or on a centered one.
    """
    ctx.seed_elements(symbols)
    pair_universe = list(combinations_with_replacement(symbols, 2))
    multisets, pair_multisets = (
        [
            list(c)
            for size in range(max_cardinality + 1)
            for c in combinations_with_replacement(universe, size)
        ]
        for universe in (symbols, pair_universe)
    )
    pairwise = {}
    for xs in multisets:
        for ws in pair_multisets:
            encoded = encode_pairwise(ctx, xs, ws)
            if encoded in pairwise:
                raise CodecError(f"pairwise collision {pairwise[encoded]} vs {(xs, ws)}")
            pairwise[encoded] = (xs, ws)
    centered = {
        encode_centered(ctx, c, xs, ws) for c in symbols for xs in multisets for ws in pair_multisets
    }
    if len(centered) != len(symbols) * len(pairwise):
        raise CodecError("centered encodings collided")
    return len(pairwise), len(centered)
