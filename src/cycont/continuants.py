"""Exact evaluation of regular and semi-regular continuants and their cyclic forms.

The regular continuant K satisfies K() = 1, K(x1) = x1 and

    K(x1..xn) = xn * K(x1..x{n-1}) + K(x1..x{n-2}),

and equals the denominator of the regular continued fraction [0; x1,..,xn].
The semi-regular continuant uses the same recursion with a minus sign and
requires every digit to be at least 2.  Cyclic variants combine the value on
a representative with the value on its interior:

    K_cyc(x1..xn)  = K(x1..xn)  + K(x2..x{n-1})
    Kd_cyc(x1..xn) = Kd(x1..xn) - Kd(x2..x{n-1})

both independent of the chosen rotation.  For n >= 2 each equals the trace
of the product of [[xi, s], [1, 0]] (s = +1 regular, -1 semi-regular).  A
one-letter word x has the empty interior K() = 1, so its cyclic values are
x + 1 and x - 1, not the trace x.  All arithmetic is exact (Python
integers, fractions.Fraction for quotients); evaluation is iterative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal, Sequence

from .words import CyclicWord, LinearWord, OrderedAlphabet

Kind = Literal["regular", "semiregular"]


class DomainError(ValueError):
    """A value assignment outside the domain of the requested continuant."""


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


def _K(vals: Sequence[int], sign: int) -> int:
    a, b = 0, 1
    for x in vals:
        a, b = b, x * b + sign * a
    return b


def _word_vals(
    indices: Sequence[int], values: tuple[int, ...]
) -> tuple[int, ...]:
    return tuple(values[i] for i in indices)


def continuant_regular(
    x: LinearWord, values: Sequence[int] | None = None
) -> int:
    """K(x); K of the empty word is 1."""
    vals = resolve_values(x.alphabet, values, "regular")
    return _K(_word_vals(x.indices, vals), 1)


def continuant_semiregular(
    x: LinearWord, values: Sequence[int] | None = None
) -> int:
    """Kd(x); requires every value >= 2 (digit 1 is excluded)."""
    vals = resolve_values(x.alphabet, values, "semiregular")
    return _K(_word_vals(x.indices, vals), -1)


def cyclic_regular(
    omega: CyclicWord, values: Sequence[int] | None = None
) -> int:
    """K_cyc(omega); independent of the representative rotation."""
    vals = resolve_values(omega.alphabet, values, "regular")
    w = _word_vals(omega.indices, vals)
    return _K(w, 1) + _K(w[1:-1], 1)


def cyclic_semiregular(
    omega: CyclicWord, values: Sequence[int] | None = None
) -> int:
    """Kd_cyc(omega); positive whenever all values are >= 2."""
    vals = resolve_values(omega.alphabet, values, "semiregular")
    w = _word_vals(omega.indices, vals)
    return _K(w, -1) - _K(w[1:-1], -1)


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
    w = _word_vals(x.indices, vals)
    return Fraction(_K(w[1:], sign), _K(w, sign))

