"""Exact injective encodings of multisets over the rationals.

The base construction maps a multiset of natural numbers to the rational
``sum(N**-z for z in X)``; as long as every multiplicity stays below the
base N, the base-N digits of the value are exactly the multiplicities, so
the multiset can be read back off them.

Two layered variants build on it:

* a pair encoding for (X, W) where W is a multiset of unordered element
  pairs: elements get odd exponents, encoded pair values get even
  exponents, so decoding can attribute every digit position to X or W;
* a centered encoding for (c, X, W) that keeps an extra formal-epsilon
  component ``(1 + eps) * f1(c) + ...``; epsilon is never evaluated, the
  value is the pair (rational part, epsilon coefficient) and equality is
  componentwise, which is exactly what makes distinct centers separable.

Every value is a ``fractions.Fraction`` and nothing here is
floating-point. A value is a sum of powers N**-e, so the encoders collect
the exponents and compute it as one integer digit sum
``sum(N**(top - e)) / N**top``, normalised once; the decoder reads the
base-N digits of the integer ``value * N**bound``. A :class:`CodecContext`
fixes the base and the exponent assignments for a session; encoded values
from different contexts are not comparable. It also keeps a table of the
powers N**k, grown on demand, and the unit fractions 1/N**e that ``f1``,
``f2`` and the epsilon coefficients return, both only for exponents below
``_TABLE_LIMIT``: a larger one is computed per call, so no context holds a
table that grows with the square of its largest exponent.

A centered value is an :class:`EpsilonValue`, a named tuple: it equals the
plain tuple ``(rational, epsilon_coeff)`` too, and unpacks to it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from typing import Hashable, Iterable, NamedTuple, Sequence

ExactRational = Fraction

#: Exponents below this have their power N**e and unit fraction 1/N**e kept
#: by the context. The table of powers up to e holds about e**2 / 2 * log2(N)
#: bits, so a context that interns thousands of values, or a multiset with a
#: huge natural, computes its larger powers per call instead.
_TABLE_LIMIT = 1024


class CodecError(ValueError):
    pass


class EpsilonValue(NamedTuple):
    """``rational + eps * epsilon_coeff`` with eps a formal symbol.

    Equality (the only operation the injectivity arguments need) is
    componentwise: that of the tuple ``(rational, epsilon_coeff)``.
    """

    rational: Fraction
    epsilon_coeff: Fraction


class CodecContext:
    """Session state: the base N, the two exponent interning maps, and the
    powers N**k and unit fractions 1/N**e built so far.

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
        # pair exponents by the element exponents of the pair, in both orders
        self._pair_terms: dict[tuple[int, int], int] = {}
        self._powers = [1]
        self._unit_fractions: dict[int, Fraction] = {}

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
        return self._unit_fraction(self.element_exponent(x))

    def pair_exponent(self, value: Fraction) -> int:
        exp = self._pair_exponents.get(value)
        if exp is None:
            exp = 2 * len(self._pair_exponents)
            self._pair_exponents[value] = exp
        return exp

    def f2(self, value: Fraction) -> Fraction:
        return self._unit_fraction(self.pair_exponent(value))

    def _pair_term(self, e1: int, e2: int) -> int:
        """``pair_exponent(f1(w1) + f1(w2))`` from the element exponents of w1, w2."""
        exp = self._pair_terms.get((e1, e2))
        if exp is None:
            lo, hi = (e1, e2) if e1 <= e2 else (e2, e1)
            exp = self.pair_exponent(Fraction(self.base ** (hi - lo) + 1, self.base**hi))
            self._pair_terms[e1, e2] = self._pair_terms[e2, e1] = exp
        return exp

    def _power_table(self, top: int) -> list[int] | None:
        """The powers N**0, ..., N**top and maybe more, or None from ``_TABLE_LIMIT`` on."""
        powers = self._powers
        if top >= len(powers):
            if top >= _TABLE_LIMIT:
                return None
            base = self.base
            while len(powers) <= top:
                powers.append(powers[-1] * base)
        return powers

    def _unit_fraction(self, e: int) -> Fraction:
        """``Fraction(1, N**e)``, built once per exponent below ``_TABLE_LIMIT``."""
        unit = self._unit_fractions.get(e)
        if unit is None:
            unit = Fraction(1, self.base**e)
            if e < _TABLE_LIMIT:
                self._unit_fractions[e] = unit
        return unit


def _digit_sum(ctx: CodecContext, exponents: list[int]) -> Fraction:
    """``sum(N**-e for e in exponents)`` exactly, normalised once."""
    top = max(exponents, default=0)
    powers = ctx._power_table(top)
    if powers is None:
        base = ctx.base
        return Fraction(sum([base ** (top - e) for e in exponents]), base**top)
    return Fraction(sum([powers[top - e] for e in exponents]), powers[top])


def encode_multiset(ctx: CodecContext, naturals: Iterable[int]) -> Fraction:
    """``sum(N**-z for z in naturals)`` exactly; the identity is the injection.

    Requires fewer than N elements so multiplicities never reach the base.
    """
    xs = list(naturals)
    if len(xs) >= ctx.base:
        raise CodecError(f"multiset cardinality {len(xs)} must be below the base {ctx.base}")
    for z in xs:
        if not isinstance(z, int) or z < 0:
            raise CodecError(f"multiset elements must be natural numbers, got {z!r}")
    return _digit_sum(ctx, xs)


def _max_exponent(value: Fraction, base: int) -> int:
    """Smallest e with denominator(value) dividing base**e, or raise.

    Each step divides out gcd(den, base), which takes one factor of base
    from every prime power of den still above it; den reaches 1 after the
    smallest such e, and a prime of den that base lacks stops it early.
    """
    den = value.denominator
    e = 0
    while den != 1:
        common = gcd(den, base)
        if common == 1:
            try:
                shown = str(value)
            except ValueError:  # past the interpreter's digit limit for int to str
                shown = f"with a {den.bit_length()}-bit denominator"
            raise CodecError(
                f"value {shown} is not decodable under base {base}: "
                "the residual never terminates"
            )
        den //= common
        e += 1
    return e


def decode_multiset(value: Fraction | int, base: int) -> tuple[int, ...]:
    """Recover the encoded multiset of naturals from its base-N digits.

    Inverse of :func:`encode_multiset` on its range. With N**bound the
    smallest power the denominator divides, ``value * N**bound`` is an
    integer: its part above N**bound is the multiplicity of 0 and its
    lower base-N digits, most significant first, those of 1, ..., bound.
    """
    if base < 3:
        raise CodecError(f"base must be at least 3, got {base}")
    value = Fraction(value)
    if value < 0:
        raise CodecError("encoded values are non-negative")
    if value == 0:
        return ()
    bound = _max_exponent(value, base)
    scale = base**bound
    whole, rest = divmod(value.numerator * (scale // value.denominator), scale)
    digits = []
    for _ in range(bound):
        rest, digit = divmod(rest, base)
        digits.append(digit)
    out = [0] * whole
    for i, digit in enumerate(reversed(digits), start=1):
        out.extend([i] * digit)
    return tuple(out)


def _pairwise_exponents(
    ctx: CodecContext, elements: Iterable[Hashable], pairs: Iterable
) -> list[int]:
    """The exponents of the terms of (X, W).

    Interns in the order of the value-keyed construction: the elements of
    X, then both ends of each pair, then each pair's value f1(w1) + f1(w2).
    Exponents interned already are read straight from the maps. Element
    exponents are odd, never 0, so ``known(x) or intern(x)`` interns exactly
    the new elements.
    """
    xs = list(elements)
    ws = list(pairs)
    if len(xs) + len(ws) >= ctx.base:
        raise CodecError(
            f"total cardinality {len(xs) + len(ws)} must be below the base {ctx.base}"
        )
    known, intern = ctx._element_exponents.get, ctx.element_exponent
    exponents = [known(x) or intern(x) for x in xs]
    ends = [(known(w1) or intern(w1), known(w2) or intern(w2)) for w1, w2 in ws]
    terms = ctx._pair_terms
    try:
        exponents.extend([terms[end] for end in ends])
    except KeyError:  # a new pair value: intern the values in order
        exponents.extend([ctx._pair_term(e1, e2) for e1, e2 in ends])
    return exponents


def encode_pairwise(ctx: CodecContext, elements: Iterable[Hashable], pairs: Iterable) -> Fraction:
    """Encode (X, W): element terms on odd exponents, pair terms on even ones.

    Each pair {w1, w2} is first collapsed to the exact value f1(w1) + f1(w2)
    (symmetric, itself injective on unordered pairs), then that value is
    interned to an even exponent. Distinct (X, W) give distinct rationals
    within one context while |X| + |W| stays below the base.
    """
    return _digit_sum(ctx, _pairwise_exponents(ctx, elements, pairs))


def encode_centered(
    ctx: CodecContext, center: Hashable, elements: Iterable[Hashable], pairs: Iterable
) -> EpsilonValue:
    """Encode (c, X, W) as (1 + eps) * f1(c) + encode_pairwise(X, W).

    Kept formal: the rational part is f1(c) plus the pairwise sum, the
    epsilon coefficient is f1(c) alone, so distinct centers already differ
    in the coefficient and equal centers reduce to pairwise injectivity.
    """
    center_exponent = ctx.element_exponent(center)
    exponents = _pairwise_exponents(ctx, elements, pairs)
    exponents.append(center_exponent)
    return EpsilonValue(_digit_sum(ctx, exponents), ctx._unit_fraction(center_exponent))


def _exact_key(value):
    """A hashable key, equal for two encodings exactly when they are equal.

    A rational (a Fraction or an int) is always in lowest terms, so its
    (numerator, denominator) pair is such a key, and hashing that skips the
    modular inverse that ``Fraction.__hash__`` computes. An EpsilonValue
    keys by both of its parts.
    """
    if type(value) is EpsilonValue:
        return _exact_key(value.rational), _exact_key(value.epsilon_coeff)
    return value.numerator, value.denominator


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
            key = _exact_key(encode_pairwise(ctx, xs, ws))
            if key in pairwise:
                raise CodecError(f"pairwise collision {pairwise[key]} vs {(xs, ws)}")
            pairwise[key] = (xs, ws)
    centered = {
        _exact_key(encode_centered(ctx, c, xs, ws))
        for c in symbols
        for xs in multisets
        for ws in pair_multisets
    }
    if len(centered) != len(symbols) * len(pairwise):
        raise CodecError("centered encodings collided")
    return len(pairwise), len(centered)
