"""Ordered alphabets, linear and cyclic words, and the two comparison orders.

Words live over a finite totally ordered alphabet.  A cyclic word is the
rotation class of a nonempty linear word, stored through its canonical
representative (the least rotation, found with Duval's Lyndon
factorization).

Words are validated once, where they enter.  ``LinearWord(...)`` copies
its indices into a tuple and refuses any index outside the alphabet, and
``CyclicWord(...)`` stores the least rotation of the word it is given.
A word the library derives from words it already holds (a reversal, a
rotation, a split, a class member, an insertion-map image, a built
optimum, a graph vertex) is in range by construction, so it is built by
``_trusted_word``, with no copy and no range check, or, when its tuple is
already its own least rotation, by ``_trusted_necklace``, with no
least-rotation pass either.  Either compares and hashes equal to the
gated word.

Two total orders on linear words are provided.  Both compare by the first
differing position and both carry a non-standard rule for prefix pairs:

* plain order: the smaller letter wins at the first difference, and a word
  is *smaller* than any of its proper prefixes (the reverse of dictionary
  order on prefix pairs).
* alternating order: the comparison sense flips at even positions
  (1-indexed), and for prefix pairs the longer word is smaller exactly when
  the prefix has even length.

These conventions make the plain order the decreasing order of semi-regular
continued-fraction values and the alternating order the decreasing order of
regular ones; the continuants module exposes the quotients used to
cross-check that empirically.

Every cut of a cyclic word into two non-palindromic parts, synchronizing or
not under each order, is read from one table, ``_cut_rows``, built per
batch of words of one length: one word to classify or split, or a batch
of a class's vertices for its exchange graph.  It yields each
factorization once, as its cut of length m <= n/2, over every start, and
refuses a word past ``CUT_TABLE_CAP`` letters before it builds a row.

Cyclic Abelian classes (all cyclic words with a given Parikh vector) are
enumerated by one FKM-style fixed-content necklace walk, yielding each
class member exactly once in lexicographic order of canonical
representatives.  The walk only enumerates; for the semi-regular
maximum it also skips every prefix with a short plain
non-synchronizing cut, which no maximum has, and extremal search
scores the words it yields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import comb, gcd
from typing import Iterator, Sequence


class DomainError(ValueError):
    """A request outside the library's domain: a value assignment outside
    the domain of the requested continuant, or a job refused by a guard
    before it starts (a word past the cut-table cap, a class past the work
    cap, a descent past the construction cap)."""


class Ordering(Enum):
    """Result of a three-way comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def _as_ordering(c: int) -> Ordering:
    return Ordering.LESS if c < 0 else Ordering.GREATER if c > 0 else Ordering.EQUAL


@dataclass(frozen=True)
class OrderedAlphabet:
    """Finite totally ordered symbol set, optionally with integer values.

    Symbols are ordered by position.  When a value assignment is present it
    must be strictly increasing along the symbol order, with every value a
    positive integer.
    """

    symbols: tuple[str, ...]
    values: tuple[int, ...] | None = None
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # Translation table from letter indices to names, when every symbol is
    # one Latin-1 character and there are at most 256: words name in C.
    _latin1: bytes | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        if any(not s for s in symbols):
            raise ValueError("alphabet symbols must be non-empty strings")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        if self.values is not None:
            values = tuple(self.values)
            object.__setattr__(self, "values", values)
            if len(values) != len(symbols):
                raise ValueError("one value per symbol required")
            if any(v < 1 for v in values):
                raise ValueError("symbol values must be positive integers")
            if any(a >= b for a, b in zip(values, values[1:])):
                raise ValueError("symbol values must strictly increase with symbol order")
        self._index.update({s: i for i, s in enumerate(symbols)})
        if len(symbols) <= 256 and all(len(s) == 1 and s <= "\xff" for s in symbols):
            names = "".join(symbols).encode("latin-1")
            object.__setattr__(self, "_latin1", names + bytes(256 - len(names)))

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def word(self, text: str | Sequence[str]) -> "LinearWord":
        """Parse a word: one character per symbol, or comma-separated tokens."""
        if isinstance(text, str):
            parts = _tokens(text, all(len(s) == 1 for s in self.symbols))
        else:
            parts = list(text)
        return _trusted_word(self, tuple(self.index(p) for p in parts))

    def cyclic(self, text: str | Sequence[str]) -> "CyclicWord":
        return CyclicWord(self.word(text))

    def vector(self, counts: Sequence[int]) -> "ParikhVector":
        return ParikhVector(self, tuple(counts))


def _tokens(text: str, chars: bool = True) -> list[str]:
    """Comma-separated tokens if there is a comma, else characters (or one token)."""
    if "," in text:
        return [p for p in text.split(",") if p]
    return list(text) if chars or not text else [text]


def alphabet_of_size(k: int, values: Sequence[int] | None = None) -> OrderedAlphabet:
    """Default alphabet a < b < c < ... of k letters."""
    if not 1 <= k <= 26:
        raise ValueError("default alphabets support 1..26 letters")
    return OrderedAlphabet(tuple("abcdefghijklmnopqrstuvwxyz"[:k]),
                           tuple(values) if values is not None else None)


@dataclass(frozen=True)
class LinearWord:
    """Finite (possibly empty) sequence of alphabet symbols, stored as indices."""

    alphabet: OrderedAlphabet
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        t = self.indices
        if t and (min(t) < 0 or max(t) >= len(self.alphabet)):
            raise ValueError("word contains indices outside the alphabet")

    def __len__(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        table = self.alphabet._latin1
        if table is not None:
            return bytes(self.indices).translate(table).decode("latin-1")
        symbols = self.alphabet.symbols
        names = map(symbols.__getitem__, self.indices)
        return ("" if all(len(n) == 1 for n in symbols) else ",").join(names)

    def __repr__(self) -> str:
        return f"LinearWord({str(self)!r})"

    def reverse(self) -> "LinearWord":
        return _trusted_word(self.alphabet, self.indices[::-1])

    def is_palindrome(self) -> bool:
        return self.indices == self.indices[::-1]

    def parikh(self) -> "ParikhVector":
        return _parikh_of(self.alphabet, self.indices)


@dataclass(frozen=True)
class CyclicWord:
    """Rotation class of a nonempty linear word; stores the least rotation.

    Two cyclic words are equal iff their canonical representatives are.
    """

    word: LinearWord

    def __post_init__(self) -> None:
        t = self.word.indices
        if not t:
            raise ValueError("cyclic words must be non-empty")
        k = least_rotation_index(t)
        if k:
            t = t[k:] + t[:k]
            object.__setattr__(self, "word", _trusted_word(self.alphabet, t))

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return str(self.word)

    def __repr__(self) -> str:
        return f"CyclicWord({str(self)!r})"

    @property
    def alphabet(self) -> OrderedAlphabet:
        return self.word.alphabet

    @property
    def indices(self) -> tuple[int, ...]:
        return self.word.indices

    def reverse(self) -> "CyclicWord":
        return CyclicWord(self.word.reverse())

    def parikh(self) -> "ParikhVector":
        return _parikh_of(self.alphabet, self.indices)


def _trusted_word(alphabet: OrderedAlphabet, t: tuple[int, ...]) -> LinearWord:
    """``LinearWord(alphabet, t)`` for a tuple t the library derived from
    words it holds, so already in range: no copy and no range check."""
    word = object.__new__(LinearWord)
    object.__setattr__(word, "alphabet", alphabet)
    object.__setattr__(word, "indices", t)
    return word


def _trusted_necklace(alphabet: OrderedAlphabet, t: tuple[int, ...]) -> CyclicWord:
    """``CyclicWord(_trusted_word(alphabet, t))`` for such a t that is
    already its own least rotation: no least-rotation pass either."""
    omega = object.__new__(CyclicWord)
    object.__setattr__(omega, "word", _trusted_word(alphabet, t))
    return omega


@dataclass(frozen=True)
class ParikhVector:
    """Per-symbol occurrence counts; the key of a cyclic Abelian class."""

    alphabet: OrderedAlphabet
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != len(self.alphabet):
            raise ValueError("one count per alphabet symbol required")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)


def _parikh_of(alphabet: OrderedAlphabet, indices: tuple[int, ...]) -> ParikhVector:
    counts = [0] * len(alphabet)
    for i in indices:
        counts[i] += 1
    return ParikhVector(alphabet, tuple(counts))


# -- comparison orders -------------------------------------------------------

def _cmp_lex(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Plain order on index tuples; proper prefixes are greater than the word."""
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) > len(b) else 1


def _cmp_alt(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Alternating order: the sense flips at even (1-indexed) positions.

    Prefix rule: against its proper prefix p, the longer word is smaller
    iff |p| is even.
    """
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            c = -1 if x < y else 1
            return c if i % 2 == 0 else -c
    if len(a) == len(b):
        return 0
    if len(a) > len(b):
        return -1 if len(b) % 2 == 0 else 1
    return 1 if len(a) % 2 == 0 else -1


def _check_same_alphabet(u: LinearWord, v: LinearWord) -> None:
    if u.alphabet != v.alphabet:
        raise ValueError("words must share an alphabet")


def compare_lex(u: LinearWord, v: LinearWord) -> Ordering:
    """Plain order: first difference wins; a proper prefix exceeds the word."""
    _check_same_alphabet(u, v)
    return _as_ordering(_cmp_lex(u.indices, v.indices))


def compare_alt(u: LinearWord, v: LinearWord) -> Ordering:
    """Alternating order: comparison sense flips at even positions."""
    _check_same_alphabet(u, v)
    return _as_ordering(_cmp_alt(u.indices, v.indices))


# -- rotations and canonical form --------------------------------------------

def least_rotation_index(t: Sequence[int]) -> int:
    """Smallest start of the lexicographically least rotation, by Duval's
    Lyndon factorization of t t (J.-P. Duval, "Factorizing words over an
    ordered alphabet", J. Algorithms 4, 1983).

    Each pass of the outer loop reads one run of equal Lyndon factors
    starting at i; the least rotation starts at the last run that begins
    inside t.  A word of at most one letter gives 0.
    """
    n, s = len(t), tuple(t) * 2
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def _rotation_table(counts: Sequence[int]) -> tuple[list, bytes, dict]:
    """The necklaces of a class with no zero count, as bytes in walk
    order; the rank of its rarest letter, as one byte; and a dict from
    every rotation of a necklace that starts at that letter to the
    necklace's position.

    Any rotation w of a necklace is found from its first rarest letter:
    ``j = w.find(rare)``, then ``table[w[j:] + w[:j]]``.  Where the rarest
    letter occurs once, the table holds one key per necklace.
    """
    rare = bytes([counts.index(min(counts))])
    necklaces = list(map(bytes, _necklace_walk(counts)))
    table = {}
    for i, t in enumerate(necklaces):
        d, j = t + t, t.find(rare)
        while j >= 0:
            table[d[j : j + len(t)]] = i
            j = t.find(rare, j + 1)
    return necklaces, rare, table


# -- factorizations -----------------------------------------------------------

# Longest word whose cut table is built: the longest word ``classify``
# and ``split_points`` read, and so the longest optimum ``search`` builds
# and certifies.
# The table keeps up to n/2 rows of 3n bits, so memory grows as
# n^2: classify of a constructed singular word (no early exit) peaked at
# 80 MB of process RSS at 18k letters, 267 MB at 36k and 1,014 MB at 72k.
CUT_TABLE_CAP = 40_000


def _within_cut_table_cap(n: int) -> None:
    """Raise DomainError if a word of n letters is longer than CUT_TABLE_CAP."""
    if n > CUT_TABLE_CAP:
        raise DomainError(
            f"word of {n} letters exceeds the cut-table cap ({CUT_TABLE_CAP})"
        )


# Entry c of table j is b"1" if bit j of the letter c is set, else b"0".
_PLANE_TABLES = tuple(
    (b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)
)


def _bit_planes(t: tuple[int, ...] | bytes) -> list[int]:
    """Bit j of each letter as one integer whose bit s is t[s]'s, for
    every j in use, most significant plane first."""
    bits = reversed(range(max(t).bit_length()))
    try:
        word = bytes(t[::-1])
    except ValueError:  # a letter above 255: one Python step per letter
        return [
            int("".join("1" if c >> j & 1 else "0" for c in reversed(t)), 2)
            for j in bits
        ]
    return [int(word.translate(_PLANE_TABLES[j]), 2) for j in bits]


def _cut_rows(
    t: tuple[int, ...] | bytes, n: int = 0
) -> Iterator[tuple[int, int, int, int]]:
    """Cut sets of a batch of cyclic words, from the outside-in mismatch table.

    t is the batch: words of n letters each, one after another (one word
    if n is 0); a batch of more than one word is bytes.  Raises
    DomainError, before any row is built, if n passes CUT_TABLE_CAP.
    Yields (m, cuts, plain, alt) once for each cut length m in 2..n/2, in
    no fixed order, so each factorization once: the cut (s, m) and its
    complement (s + m, n - m) are the same factorization read from the
    other side, and both are admissible, or apart, or neither is.
    Word i is lane i of every set, at bits 2 i n to 2 i n + n - 1: bit
    2 i n + s is the cut of the word's rotation s at m, for every start
    s < n, and s < n/2 at m = n/2.  ``cuts`` holds the admissible cuts,
    ``plain`` and ``alt`` the non-synchronizing ones.  Rows past an early
    stop are never built.

    The cut has the cyclic factors u = (s, m) and v = (s + m, n - m).  A
    factor of length L first differs from its reversal at its outside-in
    mismatch k: k = 0 if its end letters differ, else one more than for
    the factor (s + 1, L - 2).  The plain order is decided by the letters
    at k, the alternating order by the same flipped when k is odd, and
    k >= L // 2 means a palindrome, an inadmissible part.  So row L, three
    sets over all starts (not a palindrome, plain-less and
    alternating-less than the reversal), is a few shifts and masks per
    letter bit-plane over row L - 2, and a cut length m reads u from row
    m and v from row n - m.  That is O(n^2) time per batch as O(n) bit
    operations per row, and a row below n/2 is kept only until its
    partner length n - L arrives: at most n/2 rows of three sets.
    """
    n = n or len(t)
    _within_cut_table_cap(n)
    if n < 4:  # every cut has a one-letter, palindromic part
        return
    lanes = len(t) // n
    # Rotation by d, inline: bit s of ((x >> d) | (x << (n - d))) & full is
    # bit (s + d) mod n of x, in every lane, because the n clear bits after
    # a lane take what its rotation spills and nothing else reaches it.
    # The mask is left out where an & with a masked set follows.
    full = ((1 << 2 * n * lanes) - 1) // ((1 << 2 * n) - 1) * ((1 << n) - 1)
    half = full // ((1 << n) - 1) * ((1 << n // 2) - 1)  # starts s < n/2
    planes = _bit_planes(
        t if lanes == 1 else bytes(n).join(t[i : i + n] for i in range(0, len(t), n)))
    older = old = (0, 0, 0)  # rows 0 and 1: every factor is a palindrome
    waiting = {}
    for L in range(2, n - 1):
        ne = lt = 0  # ends t[s] != t[s + L - 1], and t[s] < t[s + L - 1]
        d, e = L - 1, n - L + 1
        for plane in planes:
            diff = (plane ^ (((plane >> d) | (plane << e)) & full)) & ~ne
            lt |= diff & ~plane
            ne |= diff
        eq = full ^ ne
        adm, pl, al = older  # rotated by 1: the factor (s + 1, L - 2)
        e = n - 1
        row = (
            ne | (((adm >> 1) | (adm << e)) & full),
            lt | (eq & ((pl >> 1) | (pl << e))),
            lt | (eq & ~((al >> 1) | (al << e))),
        )
        older, old = old, row
        if 2 * L < n:
            waiting[L] = row
            continue
        m = n - L  # u from row m, v = (s + m, L) from this row
        adm_u, pl_u, al_u = waiting.pop(m, row)
        adm_v, pl_v, al_v = row
        cuts = adm_u & ((adm_v >> m) | (adm_v << L))
        if m == L:  # the complement of (s, m) is (s + m, m), in this row too
            cuts &= half
        yield (m, cuts, (pl_u ^ ((pl_v >> m) | (pl_v << L))) & cuts,
               (al_u ^ ((al_v >> m) | (al_v << L))) & cuts)


def split_points(omega: CyclicWord) -> Iterator[tuple[LinearWord, LinearWord]]:
    """Factorizations omega = uv over all rotations, both parts non-palindromic.

    Each (distinct rotation, cut position) pair is yielded once: rotations
    in order of first occurrence, then cut positions ascending.  Words of
    fewer than four letters yield nothing.  Raises DomainError past
    CUT_TABLE_CAP letters, before any row of the cut table is built.

    The table yields each cut length m <= n/2 once; the cut (s, m) is the
    complement (s + m, n - m) read from the other side, so row n - m is
    row m rotated by m, and at m = n/2 the row's two halves are OR-ed.
    The first p starts, p the least period, are the distinct rotations.
    """
    alphabet = omega.alphabet
    t = omega.indices
    n = len(t)
    rows = [0] * n
    for m, cuts, _, _ in _cut_rows(t):
        rows[m] |= cuts
        rows[n - m] |= ((cuts << m) | (cuts >> (n - m))) & ((1 << n) - 1)
    p = next(d for d in range(1, n + 1) if n % d == 0 and t[d:] == t[: n - d])
    d = t + t
    for s in range(p):
        for m in range(2, n - 1):
            if rows[m] >> s & 1:
                yield (
                    _trusted_word(alphabet, d[s : s + m]),
                    _trusted_word(alphabet, d[s + m : s + n]),
                )


# -- cyclic Abelian class enumeration -----------------------------------------

def _necklace_walk(
    counts: Sequence[int], prune_apart: bool = False
) -> Iterator[tuple[int, ...]]:
    """Necklaces with fixed content, in lexicographic order.

    FKM-style prenecklace walk with remaining-count pruning, run in one
    frame over explicit per-depth stacks; a full word is emitted when its
    length is a multiple of its last period.  The walk only enumerates:
    callers that need a value score the yielded words themselves.

    With ``prune_apart``, the walk skips every necklace that has a short
    apart cut: a plain non-synchronizing cut into u, of 2 or 3 letters,
    and v, whose end letters differ.  Each part then compares with its
    reversal by its end letters: u by first(u) and last(u), v by its
    first letter c, the one after u, and its last letter d, the one
    before u.  So the cut is apart when first(u) != last(u), c != d and
    (first(u) < last(u)) != (c < d): four letters decide it.  At depth t
    the prefix fixes d and u, so the rule bounds the letter c placed at t
    from above (c <= d when first(u) < last(u)) or from below (c >= d),
    and the walk keeps its O(1) work per node.  The cuts that take in the
    last letter or wrap round the end are checked once the word is full.
    An exchange across a plain non-synchronizing cut strictly increases
    the semi-regular cyclic continuant, so no skipped necklace is a
    semi-regular maximum.
    """
    n = sum(counts)
    if n == 0:
        return
    k = len(counts)
    rem = list(counts)
    first = next(i for i, c in enumerate(counts) if c)
    rem[first] -= 1
    if n <= 2:  # the walk below starts at depth 2 and forces depth n
        yield (first,) + tuple(i for i, c in enumerate(rem) if c)
        return

    a = [first] * (n + 1)  # a[t]: letter at depth t (1-indexed)
    per = [1] * (n + 1)  # period of the prenecklace a[1..t-1]
    lo = [first] * (n + 1)  # least admissible letter at depth t
    nxt = [first] * (n + 1)  # next letter to try at depth t
    top = [k] * (n + 1)  # letters at depth t stay below top[t]
    m = n - 1  # depth whose child is forced: one letter is left, placed inline
    t = 2
    while t >= 2:
        j = nxt[t]
        stop = top[t]
        while j < stop and not rem[j]:
            j += 1
        if j >= stop:
            t -= 1
            rem[a[t]] += 1
            continue
        nxt[t] = j + 1
        a[t] = j
        p = per[t] if j == lo[t] else t
        if t == m:
            rem[j] -= 1
            last = rem.index(1)
            rem[j] += 1
            b = a[n - p]
            if last < b:
                continue
            if last > b:
                p = n
            if n % p == 0:
                a[n] = last
                w = tuple(a[1:])
                if not (prune_apart and _apart_at_the_end(w)):
                    yield w
            continue
        rem[j] -= 1
        t += 1
        per[t] = p
        lo[t] = nxt[t] = a[t - p]
        if prune_apart and t >= 4:  # u ends in j = a[t - 1]; d comes before u
            x, d = a[t - 2], a[t - 3]  # u of 2 letters
            if x == j == d:  # inside a run: no u has distinct ends
                top[t] = k
            else:
                least, stop = 0, k
                if x < j:
                    stop = d + 1
                elif x > j:
                    least = d
                if t >= 5:
                    x, d = d, a[t - 4]  # u of 3 letters, from a[t - 3]
                    if x < j:
                        if d < stop:
                            stop = d + 1
                    elif x > j and d > least:
                        least = d
                top[t] = stop
                if least > nxt[t]:
                    nxt[t] = least


def _apart_at_the_end(w: tuple[int, ...]) -> bool:
    """True if the cyclic word w has a short apart cut (see
    ``_necklace_walk``) that takes in its last letter or wraps round:
    the cuts that the walk cannot see from a prefix."""
    n = len(w)
    for L in (2, 3):
        if n < L + 2:  # v needs two letters
            break
        for i in range(n - L - 2, n):  # d = w[i], u = w[i + 1 .. i + L]
            x, y = w[(i + 1) % n], w[(i + L) % n]
            d, c = w[i], w[(i + L + 1) % n]
            if x != y and c != d and (x < y) != (c < d):
                return True
    return False


def enumerate_class(vector: ParikhVector) -> Iterator[CyclicWord]:
    """All cyclic words with the given Parikh vector, each exactly once."""
    if vector.total < 1:
        raise ValueError("cannot enumerate the class of the zero vector")
    alphabet = vector.alphabet
    for t in _necklace_walk(vector.counts):
        yield _trusted_necklace(alphabet, t)


def necklace_count(vector: ParikhVector) -> int:
    """Size of the cyclic Abelian class, by the cycle-index formula.

    (1/n) * sum over d dividing every count of phi(d) * multinomial(n/d;
    counts/d), computed without enumerating the class.
    """
    n = vector.total
    if n < 1:
        raise ValueError("cannot count the class of the zero vector")
    g = gcd(*vector.counts)
    total = 0
    for d in range(1, g + 1):
        if g % d:
            continue
        multinomial, left = 1, n // d
        for c in vector.counts:
            multinomial *= comb(left, c // d)
            left -= c // d
        total += _totient(d) * multinomial
    return total // n


def _totient(d: int) -> int:
    """Euler's phi, by trial division."""
    phi, q = d, 2
    while q * q <= d:
        if d % q == 0:
            phi -= phi // q
            while d % q == 0:
                d //= q
        q += 1
    return phi - phi // d if d > 1 else phi
