"""Singular cyclic words: delta arithmetic, insertion maps, and construction.

A cyclic word is *singular* when every factorization into two
non-palindromic parts is synchronizing under the plain order
(*alt-singular* for the alternating order).  Singular words are exactly the
words that admit no strictly improving exchange move, hence every maximizer
of the cyclic semi-regular continuant within its Abelian class is singular.

For a Parikh vector v and a letter b,

    delta_b(v) = sum of counts above b - sum of counts below b.

Scanning the totals of [0, N] split into per-letter sections, the midpoint
of the interval either falls inside a single section (one letter with
n_b > |delta_b|) or on the boundary between two positive sections (a pair
with n = |delta|, zeros in between); ``midpoint_case`` reports which.

The insertion map xi_b adds one b to every run of consecutive b and one b
inside every adjacent pair whose letters lie strictly on the same side
of b.  It preserves singularity whenever delta_b != 0, adds exactly
|delta_b| occurrences of b to a singular word, and is invertible on its
image (erase one b per run).  This drives the constructor: repeatedly find
the least letter b with n_b >= |delta_b| and strip |delta_b| occurrences,
until the remaining vector is a power of a single letter (success: unwind
the xi maps from that constant seed) or is not (failure; singular words
with that vector, if any, are only reachable by exhaustive search).  On
success the output is the unique singular cyclic word with the requested
vector, and it is a cyclic palindrome.

``_xi_linear`` maps a whole word in about ten C-level passes, with no loop
over its letters: each letter becomes its side of b as one byte, one shift
and add of two big integers gives the codes of all adjacent pairs of sides,
and a table turns each code into b or a gap byte, which is interleaved with
the letters and then deleted.  Alphabets of more than 255 letters, from
the library or from ``cycont xi --alphabet``, take the same steps over
lists.

The unwinding runs no least-rotation pass.  For a necklace t (t is its own least
rotation) ``_xi_cyclic(b, t)`` returns a representative y of xi_b(t), and
the least rotation of xi_b(t) is one fixed rotation of y
(``_xi_necklace``):

- b > t[0]: y itself.
- b < t[0]: y with its last letter moved to the front.  Here b is below
  every letter, so y = t0 b t1 b ... t(n-1) b.
- b = t[0]: y with its last r + 1 letters moved to the front, r the length
  of t's leading run of b.  Those letters are the image of that run, which
  y puts at its end.  A word made only of b maps to y itself.

Why it holds: the least rotation of y starts a run of y's least letter.
Each such start is the image of a matching start in t, and xi_b keeps the
order of words of equal length.  t begins at its least start, so the
start of y that the rules above move to the front, the image of t's first
letter, begins y's least rotation.  A test checks the rule against
``words.least_rotation_index`` (Duval's algorithm) on every necklace over 2-5 letters up to lengths 14/9/7/6.

One descent detail: when the remaining vector is a pair of equal counts
n(e_x + e_y), both letters satisfy the descent inequality with opposite
delta signs and either subtraction reaches a terminal single-letter vector;
we subtract the greater letter, so that the terminal seed is a power of the
smaller one.  Outputs are unaffected by this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd
from typing import Sequence

from .extremal import SyncKind, classify
from .words import (
    CyclicWord,
    DomainError,
    LinearWord,
    OrderedAlphabet,
    ParikhVector,
    _trusted_necklace,
    _trusted_word,
)

# Largest descent area (the sum of the chain's totals: the letters the
# unwinding builds) construct_singular accepts.  At the cap the CLI peaks at
# 94 MB in 1.1-1.3 s on 0,4000000, and 1,2826 and 1,1,3996 take 1.0-1.1 s
# at 70 MB (pinned to one CPU of a 2-vCPU Xeon).  None is near a limit.
# Memory would still bind first if the cap were raised: at about 0.1 us and
# 20 bytes per letter of area, a minute of unwinding would need about 12 GB.
DESCENT_AREA_CAP = 4_000_000


def _delta(counts: Sequence[int], b: int) -> int:
    return sum(counts[b + 1 :]) - sum(counts[:b])


def delta(vector: ParikhVector, symbol: str) -> int:
    """delta_b(v): occurrences above b minus occurrences below b."""
    return _delta(vector.counts, vector.alphabet.index(symbol))


def delta_profile(vector: ParikhVector) -> tuple[int, ...]:
    """All delta_b values in alphabet order (antitone, step n_b + n_b')."""
    return tuple(_delta(vector.counts, b) for b in range(len(vector.alphabet)))


@dataclass(frozen=True)
class SingleLetter:
    """Midpoint falls inside one letter's section: n_b > |delta_b|."""

    letter: str


@dataclass(frozen=True)
class LetterPair:
    """Midpoint falls on a section boundary: n = |delta| > 0 at both ends."""

    low: str
    high: str


MidpointCase = SingleLetter | LetterPair


def midpoint_case(vector: ParikhVector) -> MidpointCase:
    """Classify a non-zero vector by where the half-total lands."""
    counts = vector.counts
    if vector.total < 1:
        raise ValueError("midpoint case of the zero vector is undefined")
    symbols = vector.alphabet.symbols
    for b, n in enumerate(counts):
        if n > abs(_delta(counts, b)):
            return SingleLetter(symbols[b])
    boundary = [
        b for b, n in enumerate(counts) if n > 0 and n == abs(_delta(counts, b))
    ]
    low, high = boundary
    return LetterPair(symbols[low], symbols[high])


# -- insertion maps ---------------------------------------------------------------

# Byte standing for "insert nothing here" in the kernel's interleaved word;
# the byte kernel takes letters below it.
_GAP = 255
_GAP_BYTE = bytes((_GAP,))
# Pair codes 4 side(s) + side(next), sides 0 below b, 1 at, 2 above, 3 the
# end, after which xi_b inserts one b: LL, HH, BL, BH and B-end.
_INSERT_AFTER = frozenset((0, 10, 4, 6, 7))


@lru_cache(maxsize=_GAP)
def _xi_tables(b: int) -> tuple[bytes, bytes]:
    """Translation tables for letter b: letter -> side, pair code -> fill."""
    side = bytes(0 if c < b else 1 if c == b else 2 for c in range(256))
    fill = bytes(b if c in _INSERT_AFTER else _GAP for c in range(256))
    return side, fill


def _as_bytes(b: int, t: tuple[int, ...]) -> bytes | None:
    """t as bytes when b and all its letters lie below the gap, else None."""
    if b >= _GAP:
        return None
    try:
        word = bytes(t)
    except ValueError:  # a letter above 255
        return None
    return None if _GAP in word else word


def _xi_linear(b: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """xi_b on a linear word, in whole-word passes (see the module docstring)."""
    n = len(t)
    word = _as_bytes(b, t)
    if word is None:
        # Alphabets of more than 255 letters: the same passes over lists.
        side = [0 if s < b else 1 if s == b else 2 for s in t]
        insert = [4 * s + e in _INSERT_AFTER for s, e in zip(side, side[1:] + [3])]
        out = [b] * (2 * n)
        out[::2] = t
        keep = [True] * (2 * n)
        keep[1::2] = insert
        return tuple(compress(out, keep))
    side_table, fill_table = _xi_tables(b)
    side = word.translate(side_table) + b"\x03"
    # One byte lane per pair; no lane carries, as the largest code is 11.
    codes = (int.from_bytes(side[:-1], "big") << 2) + int.from_bytes(
        side[1:], "big"
    )
    out = bytearray(2 * n)
    out[::2] = word
    out[1::2] = codes.to_bytes(n, "big").translate(fill_table)
    return tuple(out.translate(None, _GAP_BYTE))


def _from_first_other(b: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """The rotation of t that starts at its first letter other than b."""
    r = next((i for i, s in enumerate(t) if s != b), 0)
    return t[r:] + t[:r]


def _xi_cyclic(b: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """Apply xi_b through any linear representative t.

    From the rotation that starts at a letter other than b no run of b wraps
    round the end, so only the pair across the end remains to be filled.
    The empty t, the erased candidate for the one-letter word b, maps to
    itself, so ``xi_preimage`` finds no preimage of b.
    """
    t = _from_first_other(b, t)
    y = _xi_linear(b, t)
    if t and ((t[0] > b and t[-1] > b) or (t[0] < b and t[-1] < b)):
        y = y + (b,)
    return y


def _xi_necklace(b: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of xi_b(t) for a necklace t, with no
    least-rotation pass.

    ``_xi_cyclic`` returns the image y from t itself, so only a fixed
    rotation of y is needed (see the module docstring): none when b lies
    above t's first letter, otherwise the last r + 1 letters move to the
    front, r the length of t's leading run of b (0 when b < t[0]).
    """
    y = _xi_cyclic(b, t)
    if b > t[0]:
        return y
    k = next((i for i, s in enumerate(t) if s != b), len(t)) + 1
    return y[-k:] + y[:-k]


def xi_linear(b: str, x: LinearWord) -> LinearWord:
    """Insert one b into each b-run and between same-side adjacent letters."""
    bi = x.alphabet.index(b)
    return _trusted_word(x.alphabet, _xi_linear(bi, x.indices))


def xi_cyclic(b: str, omega: CyclicWord) -> CyclicWord:
    """Cyclic insertion map; the result class is representative-independent."""
    bi = omega.alphabet.index(b)
    return _trusted_necklace(omega.alphabet, _xi_necklace(bi, omega.indices))


def _erase_one_per_run(b: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """t without each b whose predecessor is not b: one b per run."""
    return tuple(compress(t, [s != b or r == b for r, s in zip((None,) + t, t)]))


def xi_preimage(
    b: str, w: LinearWord | CyclicWord
) -> LinearWord | CyclicWord | None:
    """The unique x with xi_b(x) = w, or None when w is not an image.

    xi_b is injective and erasing one b from each run undoes it, so the
    only candidate is w with one b erased per run (for a cyclic word, from
    the rotation that starts at its first letter other than b).  The
    candidate is returned iff xi_b maps it back onto w.
    """
    alphabet = w.alphabet
    bi = alphabet.index(b)
    if isinstance(w, CyclicWord):
        t = _from_first_other(bi, w.indices)
        x = _erase_one_per_run(bi, t)
        if _xi_cyclic(bi, x) != t:
            return None
        return CyclicWord(_trusted_word(alphabet, x))
    x = _erase_one_per_run(bi, w.indices)
    if _xi_linear(bi, x) != w.indices:
        return None
    return _trusted_word(alphabet, x)


# -- constructor ------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionStep:
    """One descent step: the vector reached after removing delta letters."""

    vector: ParikhVector
    letter: str
    delta: int


@dataclass(frozen=True)
class ConstructionTrace:
    """Full record of a constructor run, successful or not.

    ``words`` runs from the seed to the outcome.  Each word is built as its
    own least rotation from letters of the vector's alphabet, so it is
    canonical and in range as it comes out of the unwinding: it is built by
    ``words._trusted_necklace``, with no range check and no least-rotation
    pass.
    """

    start: ParikhVector
    steps: tuple[ConstructionStep, ...]
    terminal: ParikhVector
    seed_letter: str
    words: tuple[CyclicWord, ...] | None

    @property
    def succeeded(self) -> bool:
        return self.words is not None

    @property
    def outcome(self) -> CyclicWord | None:
        return self.words[-1] if self.words else None


def _descent_letter(counts: tuple[int, ...]) -> int:
    nonzero = [i for i, c in enumerate(counts) if c]
    if len(nonzero) == 2 and counts[nonzero[0]] == counts[nonzero[1]]:
        return nonzero[1]
    for b, n in enumerate(counts):
        if n >= abs(_delta(counts, b)):
            return b
    raise AssertionError("every non-zero vector admits a descent letter")


def construct_singular(
    vector: ParikhVector,
) -> tuple[CyclicWord | None, ConstructionTrace]:
    """Build the unique singular cyclic word with the given Parikh vector.

    Repeatedly removes |delta_b| occurrences of the least letter b with
    n_b >= |delta_b| until delta vanishes at the letter found; succeeds iff
    the terminal vector is a power of that letter, in which case the word
    is recovered by unwinding the insertion maps from the constant seed.
    Each unwound word is the known rotation ``_xi_necklace`` picks, so the
    outcome and the trace words come out canonical without a least-rotation
    pass.
    On failure the outcome is None and the trace records the descent.
    Raises DomainError once the descent area passes DESCENT_AREA_CAP.
    """
    alphabet = vector.alphabet
    if vector.total < 1:
        raise ValueError("cannot construct from the zero vector")
    symbols = alphabet.symbols
    counts = vector.counts
    steps: list[ConstructionStep] = []
    area = 0
    while True:
        area += sum(counts)
        if area > DESCENT_AREA_CAP:
            raise DomainError(
                f"descent area exceeds the construction cap ({DESCENT_AREA_CAP})"
            )
        b = _descent_letter(counts)
        d = _delta(counts, b)
        if d == 0:
            break
        reduced = list(counts)
        reduced[b] -= abs(d)
        counts = tuple(reduced)
        steps.append(
            ConstructionStep(ParikhVector(alphabet, counts), symbols[b], abs(d))
        )

    terminal = ParikhVector(alphabet, counts)
    trace_base = dict(
        start=vector,
        steps=tuple(steps),
        terminal=terminal,
        seed_letter=symbols[b],
    )
    if any(c for i, c in enumerate(counts) if i != b):
        return None, ConstructionTrace(words=None, **trace_base)

    words = [_trusted_necklace(alphabet, (b,) * counts[b])]
    for step in reversed(steps):
        letter = alphabet.index(step.letter)
        words.append(
            _trusted_necklace(alphabet, _xi_necklace(letter, words[-1].indices))
        )
    outcome = words[-1]
    return outcome, ConstructionTrace(words=tuple(words), **trace_base)


def is_singular(omega: CyclicWord, kind: SyncKind = SyncKind.PLAIN) -> bool:
    """True iff every factorization of omega is synchronizing under the kind."""
    membership = classify(omega)
    return membership.in_S if kind is SyncKind.PLAIN else membership.in_S_alt


# -- the binary case ----------------------------------------------------------------

_AB = OrderedAlphabet(("a", "b"))


def christoffel(
    p: int, q: int, alphabet: OrderedAlphabet | None = None
) -> CyclicWord:
    """Cyclic lower Christoffel word with p low and q high letters.

    With g = gcd(p, q), q' = q/g and n' = (p + q)/g, letter k of the
    primitive word (1 <= k <= n') is the high letter iff
    floor(k q'/n') > floor((k-1) q'/n'), and the result is that word
    repeated g times: a^p at q = 0 and b^q at p = 0.  The primitive word
    is a Lyndon word, so the result is its own least rotation.  It is
    balanced, singular, and the unique such cyclic word in its Abelian
    class.
    """
    if alphabet is None:
        alphabet = _AB
    if len(alphabet) != 2:
        raise ValueError("Christoffel words live on a two-letter alphabet")
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need non-negative counts with p + q >= 1")
    g = gcd(p, q)
    qq, n = q // g, (p + q) // g
    primitive = tuple(k * qq // n - (k - 1) * qq // n for k in range(1, n + 1))
    return _trusted_necklace(alphabet, primitive * g)


def is_balanced(omega: CyclicWord) -> bool:
    """Any two equal-length cyclic factors differ by at most one in counts.

    A binary cyclic word is balanced exactly when it is the Christoffel
    word of its content (p, q), a power of the primitive one when
    gcd(p, q) > 1, so omega is compared with ``christoffel(p, q)``.  The
    tests check this against ``balanced_by_factors``, a scan of every
    cyclic factor.
    """
    if len(omega.alphabet) != 2:
        raise ValueError("balance is defined over a two-letter alphabet")
    p, q = omega.parikh().counts
    return omega == christoffel(p, q, omega.alphabet)
