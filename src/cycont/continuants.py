"""Exact evaluation of regular and semi-regular continuants and their cyclic forms.

The regular continuant K satisfies K() = 1, K(x1) = x1 and

    K(x1..xn) = xn * K(x1..x{n-1}) + K(x1..x{n-2}),

and equals the denominator of the regular continued fraction [0; x1,..,xn].
The semi-regular continuant uses the same recursion with a minus sign and
requires every digit to be at least 2.  Cyclic variants combine the value on
a representative with the value on its interior:

    K_cyc(x1..xn)  = K(x1..xn)  + K(x2..x{n-1})
    Kd_cyc(x1..xn) = Kd(x1..xn) - Kd(x2..x{n-1})

both independent of the chosen rotation.  A one-letter word x has the empty
interior K() = 1, so its cyclic values are x + 1 and x - 1.

Every value is read from one product, computed by ``_product``.  With
s = +1 (regular) or -1 (semi-regular),

    [[x1, s], [1, 0]] ... [[xn, s], [1, 0]]
        = [[K(x1..xn), s K(x1..x{n-1})], [K(x2..xn), s K(x2..x{n-1})]],

so a continuant is its top-left entry, a continued-fraction value is the
bottom-left entry over the top-left one, and for n >= 2 a cyclic value is
its trace.  Words of at most ``_LEAF`` letters are multiplied out by a
plain loop, which carries the two rows as two rolling continuant
recurrences.  Longer words are split in half and the two half products
joined by one 2x2 multiply.  A rolling recurrence over the whole word
multiplies a growing integer by one small digit per step, O(n^2) bit
operations; the halving keeps every large multiplication between factors
of equal size, where CPython's Karatsuba multiplication applies.  The
recursion is about log2(n / _LEAF) deep, so word length is bounded by
memory only.

A cyclic value above ``_LEAF`` letters is read from half the letters when
the word is a product p q of two palindromes, as every singular word the
constructor builds is (a cyclic palindrome).  One ``bytes.find`` of the
word's reversal in the doubled word finds the split r = |p|, r = 0 when
the word is a palindrome itself.  By the reversal symmetry of continuants
in matrix form, M(x)^T = D M(x) D with D = diag(1, s), so a palindrome
u ũ or u x ũ has the product U D U^T D or U [[x, 1], [1, 0]] U^T D, where
U is ``_product`` of its first half u: 6 big products (4 of them squares),
or 4 with a middle letter x.  Both factors have the form
[[A, sB], [B, C]], and the trace of two such factors takes 3 more
products.  Only the halves u are multiplied out, by ``_product``, the one
path that multiplies out a word.  The palindromic path needs the word's
values as bytes; a value past 255, or an alphabet of more than 256
letters, keeps the values in a tuple.  Such a word, and any word that is
not a product of two palindromes, takes the trace of ``_product`` over
the whole word, as a word of at most ``_LEAF`` letters does.  All
arithmetic is exact (Python integers, fractions.Fraction for quotients).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal, Sequence

from .words import CyclicWord, DomainError, LinearWord, OrderedAlphabet

Kind = Literal["regular", "semiregular"]


def _check_kind(kind: str) -> None:
    if kind not in ("regular", "semiregular"):
        raise ValueError(f"kind must be 'regular' or 'semiregular', got {kind!r}")


def resolve_values(
    alphabet: OrderedAlphabet,
    values: Sequence[int] | None,
    kind: Kind,
) -> tuple[int, ...]:
    """Per-symbol values for the alphabet, validated for the kind.

    Falls back to the alphabet's own value assignment when none is given.
    """
    _check_kind(kind)
    if values is None:
        values = alphabet.values
    if values is None:
        raise DomainError("no value assignment for the alphabet")
    vals = tuple(values)
    if len(vals) != len(alphabet):
        raise DomainError("one value per alphabet symbol required")
    minimum = 1 if kind == "regular" else 2
    if any(v < minimum for v in vals):
        raise DomainError(
            f"{kind} continuants require every value >= {minimum}"
        )
    return vals


# Longest word multiplied out by the plain loop.  On a 2-vCPU Xeon under
# CPython 3.11, both cyclic values of constructed words of 1k-44k letters,
# on the palindromic path, took the same time, within noise, for leaves of
# 32 to 256 letters; a leaf of 16 was up to 1.8x slower at 1k-5k letters.
_LEAF = 64


def _product(vals: Sequence[int], sign: int) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of the product of [[x, sign], [1, 0]] over vals."""
    n = len(vals)
    if n > _LEAF:
        mid = n // 2
        a, b, c, d = _product(vals[:mid], sign)
        e, f, g, h = _product(vals[mid:], sign)
        return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    # Rows (a, b) and (c, d) as two rolling recurrences; the second starts
    # from the previous value sign, so that its first step gives 1.  One
    # loop per sign keeps the sign multiplication out of the steps.
    p0, p1, q0, q1 = 0, 1, sign, 0
    if sign > 0:
        for x in vals:
            p0, p1 = p1, x * p1 + p0
            q0, q1 = q1, x * q1 + q0
    else:
        for x in vals:
            p0, p1 = p1, x * p1 - p0
            q0, q1 = q1, x * q1 - q0
    return p1, sign * p0, q1, sign * q0


def _palindrome(vals: bytes, sign: int) -> tuple[int, int, int]:
    """(A, B, C) of the palindrome's product [[A, sign B], [B, C]].

    A palindrome is u ũ or u x ũ, ũ the reversal of u.  With
    D = diag(1, sign), M(x)^T = D M(x) D, so M(ũ) = D U^T D for
    U = ``_product(u)`` = [[a, b], [c, d]].  The product U D U^T D takes
    6 products (4 squares); U [[x, 1], [1, 0]] U^T D, with the middle
    letter x, takes 4.
    """
    half = len(vals) // 2
    a, b, c, d = _product(vals[:half], sign)
    if len(vals) % 2:
        x = vals[half]
        ax = a * x
        return a * (ax + 2 * b), c * (ax + b) + a * d, sign * c * (c * x + 2 * d)
    return a * a + sign * b * b, a * c + sign * b * d, sign * c * c + d * d


def _cyclic(vals: Sequence[int], sign: int) -> int:
    """Trace of the product; x + sign for one letter x (interior K() = 1).

    Above ``_LEAF`` a word of byte values is searched for its reversal in
    its square.  Found at r, the word is p q with p = vals[:r] and
    q = vals[r:] both palindromes, since rev(pq) = rev(q) rev(p) = q p;
    the trace of [[x1, s x2], [x2, x3]] [[y1, s y2], [y2, y3]] is
    x1 y1 + 2 s x2 y2 + x3 y3.  Any other word, and any word of values
    past 255 (kept in a tuple or list), takes the trace of ``_product``.
    """
    n = len(vals)
    if n > _LEAF and isinstance(vals, bytes):
        r = (vals + vals).find(vals[::-1])
        if r >= 0:
            x1, x2, x3 = _palindrome(vals[:r], sign)
            y1, y2, y3 = _palindrome(vals[r:], sign)
            return x1 * y1 + 2 * sign * x2 * y2 + x3 * y3
    a, _, _, d = _product(vals, sign)
    return a + d if n > 1 else a + sign


def _word_vals(indices: Sequence[int], values: tuple[int, ...]) -> Sequence[int]:
    """The word's values: bytes, built in C, when every value fits a byte."""
    if len(values) <= 256 and max(values, default=0) < 256:
        return bytes(indices).translate(bytes(values).ljust(256, b"\0"))
    return tuple(map(values.__getitem__, indices))


def continuant_regular(
    x: LinearWord, values: Sequence[int] | None = None
) -> int:
    """K(x); K of the empty word is 1."""
    vals = resolve_values(x.alphabet, values, "regular")
    return _product(_word_vals(x.indices, vals), 1)[0]


def continuant_semiregular(
    x: LinearWord, values: Sequence[int] | None = None
) -> int:
    """Kd(x); requires every value >= 2 (digit 1 is excluded)."""
    vals = resolve_values(x.alphabet, values, "semiregular")
    return _product(_word_vals(x.indices, vals), -1)[0]


def cyclic_regular(
    omega: CyclicWord, values: Sequence[int] | None = None
) -> int:
    """K_cyc(omega); independent of the representative rotation."""
    vals = resolve_values(omega.alphabet, values, "regular")
    return _cyclic(_word_vals(omega.indices, vals), 1)


def cyclic_semiregular(
    omega: CyclicWord, values: Sequence[int] | None = None
) -> int:
    """Kd_cyc(omega); positive whenever all values are >= 2."""
    vals = resolve_values(omega.alphabet, values, "semiregular")
    return _cyclic(_word_vals(omega.indices, vals), -1)


def cf_value(
    x: LinearWord,
    kind: Kind = "regular",
    values: Sequence[int] | None = None,
) -> Fraction:
    """Continued-fraction value of x: K(x2..xn) / K(x1..xn) for the kind."""
    if len(x) < 1:
        raise ValueError("continued-fraction value needs a non-empty word")
    vals = resolve_values(x.alphabet, values, kind)
    sign = 1 if kind == "regular" else -1
    a, _, c, _ = _product(_word_vals(x.indices, vals), sign)
    return Fraction(c, a)
