"""Independent brute-force oracles for the tests.

Each oracle deliberately avoids the library's own evaluation path:
continuants through 2x2 matrix products multiplied out one letter at a time
and through the rolling two-term recurrence, cyclic continuants by their
definition on the word and its interior, continued fractions through nested
exact division, canonical rotations through a naive minimum, midpoint
classification through the interval picture, the insertion map xi_b one
letter at a time, balance of a binary word through the low-letter count of
every cyclic factor, class enumeration through a full sweep of k^n words (or
of every word of one content), synchronization classes and exchange-graph
edges through every cut of every rotation compared letter by letter with
its reversal.

The two identity checkers at the end, ``split_identity_check`` and
``check_lintocirc``, are the exception: they evaluate both sides of an
identity with the library's own evaluators, classifier and comparison
orders, so they check that those agree with each other, not that any one
value is right.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator

from cycont import (
    ClassMembership,
    CyclicWord,
    LinearWord,
    Ordering,
    SyncKind,
    classify,
    compare_alt,
    compare_lex,
    continuant_regular,
    continuant_semiregular,
)


def matrix_continuant(vals, sign: int) -> int:
    """(0,0) entry of the product of [[x, sign], [1, 0]] over the digits."""
    a, b, c, d = 1, 0, 0, 1
    for x in vals:
        a, b, c, d = a * x + b, a * sign, c * x + d, c * sign
    return a


def rolling_continuant(vals, sign: int) -> int:
    """K(x1..xn) by the recurrence K(..xi) = xi K(..x{i-1}) + sign K(..x{i-2})."""
    previous, current = 0, 1
    for x in vals:
        previous, current = current, x * current + sign * previous
    return current


def cyclic_by_definition(vals, sign: int) -> int:
    """K(x) + sign K(x2..x{n-1}), both on the rolling recurrence.

    The interior of one letter x is empty, K() = 1, so x gives x + sign.
    """
    return rolling_continuant(vals, sign) + sign * rolling_continuant(vals[1:-1], sign)


def nested_cf(vals, semiregular: bool) -> Fraction:
    """Continued-fraction value by folding 1/(x -+ tail) from the right."""
    value = Fraction(0)
    for x in reversed(vals):
        value = Fraction(1, x - value) if semiregular else Fraction(1, x + value)
    return value


def all_rotations(t: tuple) -> list[tuple]:
    return [t[i:] + t[:i] for i in range(len(t))]


def naive_canonical(t: tuple) -> tuple:
    return min(all_rotations(t))


def _less_than_reversal(u: tuple, alternating: bool) -> bool:
    """u against its reversal at the first differing position.

    The plain sense reads the smaller letter as less; the alternating sense
    flips at odd 0-indexed positions.  Equal lengths, so no prefix rule.
    """
    for i, (x, y) in enumerate(zip(u, reversed(u))):
        if x != y:
            return (x < y) != (alternating and i % 2 == 1)
    raise ValueError("a palindrome has no first mismatch")


def classify_by_cuts(t: tuple) -> ClassMembership:
    """S, S_alt, U, U_alt flags from every cut of every rotation, O(n^3).

    Stops early once all four flags are false.
    """
    flags = {"in_S": True, "in_S_alt": True, "in_U": True, "in_U_alt": True}
    for u, v in splits_by_slicing(t):
        for alternating, s_key, u_key in (
            (False, "in_S", "in_U"), (True, "in_S_alt", "in_U_alt")
        ):
            if _less_than_reversal(u, alternating) == _less_than_reversal(
                v, alternating
            ):
                flags[u_key] = False
            else:
                flags[s_key] = False
        if not any(flags.values()):
            break
    return ClassMembership(**flags)


def splits_by_slicing(t: tuple) -> Iterator[tuple[tuple, tuple]]:
    """Cuts (u, v) of every distinct rotation, both parts non-palindromic.

    Rotations in order of first occurrence, then cut positions ascending.
    """
    for r in dict.fromkeys(all_rotations(t)):
        for m in range(1, len(r)):
            u, v = r[:m], r[m:]
            if u != u[::-1] and v != v[::-1]:
                yield u, v


def _arrangements(counts: tuple) -> Iterator[tuple]:
    """Every word with the given content, in lexicographic order.

    Each word after the first is the next permutation of the one before:
    swap the last ascent's left letter with the last greater letter after
    it, then reverse the tail.
    """
    w = [i for i, c in enumerate(counts) for _ in range(c)]
    while True:
        yield tuple(w)
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1 :] = w[:i:-1]


class _Senses(dict):
    """Factor -> (plain, alternating) ``_less_than_reversal``, found once.

    A palindrome maps to None.  The four pairs are shared, not rebuilt:
    that keeps 26 MB off the oracle's peak on 3,3,3,3.
    """

    _PAIRS = {pair: pair for pair in product((False, True), repeat=2)}

    def __missing__(self, f: tuple) -> tuple[bool, bool] | None:
        self[f] = found = None if f == f[::-1] else self._PAIRS[
            _less_than_reversal(f, False), _less_than_reversal(f, True)
        ]
        return found


def exchange_graphs_by_cuts(counts) -> dict[bool, tuple[tuple, dict]]:
    """Vertices and successor tuples of both exchange graphs, from every cut.

    Keyed by ``alt``: False for the plain graph, True for the alternating
    one.  A vertex is the lesser of the least rotations of a word and of
    its reversal, over one sweep of every word of the content that both
    graphs share.  Each cut of each distinct rotation of a vertex into two
    non-palindromic parts u, v that compare with their reversals in
    opposite senses, under the graph's order, gives the edge to the vertex
    of u-reversed v.

    Factors recur across the vertices' cuts (422,406 distinct ones in the
    2,032,800 cuts of 3,3,3,3), so each factor's senses are found once.
    """
    canonical: dict[tuple, tuple] = {}  # every word of the content
    for w in _arrangements(tuple(counts)):
        if w not in canonical:
            c = naive_canonical(w)
            canonical.update(dict.fromkeys(all_rotations(c), c))
    # Each word's vertex, in place: an entry read after its own update
    # holds the vertex, which is the same for a word and its reversal.
    vertex = canonical
    for t, c in vertex.items():
        vertex[t] = min(c, vertex[t[::-1]])
    vertices = tuple(sorted(set(vertex.values())))
    senses = _Senses()
    edges: dict[bool, dict] = {False: {}, True: {}}
    for key in vertices:
        targets: dict[bool, set] = {False: set(), True: set()}
        for r in dict.fromkeys(all_rotations(key)):
            for m in range(1, len(r)):
                u, v = r[:m], r[m:]
                su, sv = senses[u], senses[v]
                if su and sv and su != sv:
                    moved = vertex[u[::-1] + v]
                    for alt in (False, True):
                        if su[alt] != sv[alt]:
                            targets[alt].add(moved)
        for alt, found in targets.items():
            edges[alt][key] = tuple(sorted(found))
    return {alt: (vertices, edges[alt]) for alt in (False, True)}


def classes_by_sweep(k: int, n: int) -> dict[tuple, set[tuple]]:
    """content -> set of canonical rotations, from every word of length n."""
    out: dict[tuple, set[tuple]] = {}
    for w in product(range(k), repeat=n):
        content = tuple(w.count(i) for i in range(k))
        out.setdefault(content, set()).add(naive_canonical(w))
    return out


def interval_midpoint(counts) -> tuple:
    """('single', b) or ('pair', low, high) by locating the half-total.

    The interval [0, N] is split into per-letter sections of the given
    lengths; the midpoint either sits strictly inside one positive section
    or on the boundary between two positive sections.
    """
    total = sum(counts)
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    for b, c in enumerate(counts):
        if c and 2 * prefix[b] < total < 2 * prefix[b + 1]:
            return ("single", b)
    low = max(b for b, c in enumerate(counts) if c and 2 * prefix[b + 1] <= total)
    high = min(b for b, c in enumerate(counts) if c and 2 * prefix[b] >= total)
    return ("pair", low, high)


def xi_linear_by_letters(b: int, t: tuple) -> tuple:
    """xi_b on a linear word of letter indices, one letter at a time.

    After each letter s: one b when s ends a run of b, and one b when s
    and the next letter lie strictly on the same side of b.
    """
    out = []
    n = len(t)
    for i, s in enumerate(t):
        out.append(s)
        if s == b and (i + 1 == n or t[i + 1] != b):
            out.append(b)
        if i + 1 < n:
            e = t[i + 1]
            if (s > b and e > b) or (s < b and e < b):
                out.append(b)
    return tuple(out)


def balanced_by_factors(t: tuple) -> bool:
    """True iff any two cyclic factors of t of one length hold numbers of
    letter 0 that differ by at most one.

    Each length's window slides round t one letter at a time, its count
    kept by the letter that enters and the letter that leaves.
    """
    n = len(t)
    for length in range(1, n + 1):
        c = sum(1 for j in range(length) if t[j] == 0)
        lo = hi = c
        for i in range(1, n):
            c += (t[(i + length - 1) % n] == 0) - (t[i - 1] == 0)
            lo, hi = min(lo, c), max(hi, c)
            if hi - lo > 1:
                return False
    return True


def necklace_count(counts) -> int:
    """Fixed-content necklace count by the cycle-index formula.

    (1/n) * sum over d | gcd(counts) of phi(d) * multinomial(n/d; counts/d).
    """
    from math import factorial, gcd

    n = sum(counts)
    g = 0
    for c in counts:
        g = gcd(g, c)
    total = 0
    for d in range(1, g + 1):
        if g % d:
            continue
        phi = sum(1 for r in range(1, d + 1) if gcd(r, d) == 1)
        multinomial = factorial(n // d)
        for c in counts:
            multinomial //= factorial(c // d)
        total += phi * multinomial
    return total // n


def positive_compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def nonnegative_compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in nonnegative_compositions(total - first, parts - 1):
            yield (first,) + rest


def split_identity_check(x, m: int, kind: str = "regular", values=None):
    """Both sides of the splitting identity at cut m (1 <= m <= n-1).

    Regular:      K(x) = K(x[:m]) K(x[m:]) + K(x[:m-1]) K(x[m+1:])
    Semi-regular: same with a minus sign; empty pieces count as 1.
    Returned as (lhs, rhs).  Every term comes from the library's own
    continuant on a slice of x, so this checks the identity on that
    evaluator; it is not an independent recomputation.
    """
    n = len(x)
    if not 1 <= m <= n - 1:
        raise ValueError(f"cut must satisfy 1 <= m <= {n - 1}, got {m}")
    sign = {"regular": 1, "semiregular": -1}[kind]
    t = x.indices
    vals = None if values is None else tuple(values)

    def piece(a: int, b: int) -> int:
        return _continuant(x.alphabet, t[a:b], kind, vals)

    rhs = piece(0, m) * piece(m, n) + sign * piece(0, m - 1) * piece(m + 1, n)
    return piece(0, n), rhs


@lru_cache(maxsize=1 << 14)
def _continuant(alphabet, t: tuple, kind: str, values) -> int:
    """Library continuant of one piece, cached: sweeps reuse short pieces."""
    K = continuant_regular if kind == "regular" else continuant_semiregular
    return K(LinearWord(alphabet, t), values)


def check_lintocirc(x, j: str, kind=SyncKind.PLAIN) -> tuple[bool, bool]:
    """Both sides of the linear/circular singularity bridge.

    cyclic side: the class of x followed by the top letter j lies in S
    (resp. S_alt), by the library's ``classify``.
    linear side: every way of writing x as (reverse of u) v w with v
    non-palindromic and u != w satisfies (v < v-reversed) iff (w < u),
    under the kind's order (``compare_lex`` or ``compare_alt``, with their
    prefix conventions); u and w may be empty.  Both sides use the
    library's own classifier and orders, so the check is that they agree
    with each other, not an independent recomputation of either.
    """
    alphabet = x.alphabet
    jx = alphabet.index(j)
    if jx != len(alphabet) - 1:
        raise ValueError("j must be the greatest letter of the alphabet")
    t = x.indices
    if not t:
        raise ValueError("x must be non-empty")
    if jx in t:
        raise ValueError("x must avoid the letter j")

    membership = classify(CyclicWord(LinearWord(alphabet, t + (jx,))))
    cyclic_side = membership.in_S if kind is SyncKind.PLAIN else membership.in_S_alt

    compare = compare_lex if kind is SyncKind.PLAIN else compare_alt

    def less(a: tuple, b: tuple) -> bool:
        u, v = LinearWord(alphabet, a), LinearWord(alphabet, b)
        return compare(u, v) is Ordering.LESS

    n = len(t)
    linear_side = all(
        less(v, v[::-1]) == less(w, u)
        for i in range(n + 1)
        for k in range(i + 2, n + 1)
        for u, v, w in [(t[:i][::-1], t[i:k], t[k:])]
        if v != v[::-1] and u != w
    )
    return cyclic_side, linear_side
