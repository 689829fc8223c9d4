"""Independent oracles the benchmark checks library outputs against.

Nothing here calls into ``cycont``.  Counts come from Burnside's lemma
(cycle index for necklaces, the dihedral group for reversal classes),
cyclic continuants from the trace of a product of 2x2 matrices, the two
word orders and the synchronization predicate from their definitions, and
the constructor's success from the descent on counts alone.
"""

from __future__ import annotations

from math import factorial, gcd


def multinomial(n: int, parts) -> int:
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def _phi(d: int) -> int:
    return sum(1 for r in range(1, d + 1) if gcd(r, d) == 1)


def necklace_count(counts) -> int:
    """Cyclic words with this content: (1/n) sum_{d | g} phi(d) multinomial(n/d; c/d)."""
    n = sum(counts)
    g = 0
    for c in counts:
        g = gcd(g, c)
    total = sum(
        _phi(d) * multinomial(n // d, [c // d for c in counts])
        for d in range(1, g + 1)
        if g % d == 0
    )
    return total // n


def _reflection_fixed(counts) -> int:
    """Words of this content fixed by some reflection, summed over all n reflections."""
    n = sum(counts)
    odd = [i for i, c in enumerate(counts) if c % 2]
    if n % 2:
        # n axes, each through one position: that letter takes the odd count.
        if len(odd) != 1:
            return 0
        return n * multinomial((n - 1) // 2, [c // 2 for c in counts])
    total = 0
    # n/2 axes between positions: every position is paired.
    if not odd:
        total += (n // 2) * multinomial(n // 2, [c // 2 for c in counts])
    # n/2 axes through two opposite positions: ordered letters for the two.
    through = 0
    k = len(counts)
    for a in range(k):
        for b in range(k):
            rest = list(counts)
            rest[a] -= 1
            rest[b] -= 1
            if min(rest) < 0 or any(c % 2 for c in rest):
                continue
            through += multinomial((n - 2) // 2, [c // 2 for c in rest])
    return total + (n // 2) * through


def reversal_class_count(counts) -> int:
    """Cyclic words up to rotation and reversal (bracelets) with this content."""
    n = sum(counts)
    return (n * necklace_count(counts) + _reflection_fixed(counts)) // (2 * n)


def _matmul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _product(vals, sign: int, lo: int, hi: int):
    if hi - lo <= 32:
        a, b, c, d = 1, 0, 0, 1
        for x in vals[lo:hi]:
            a, b, c, d = a * x + b, a * sign, c * x + d, c * sign
        return (a, b, c, d)
    mid = (lo + hi) // 2
    return _matmul(_product(vals, sign, lo, mid), _product(vals, sign, mid, hi))


def cyclic_value(vals, sign: int) -> int:
    """Cyclic continuant as the trace of prod [[x, sign], [1, 0]] (n >= 2).

    The one-letter word follows the library's convention x + sign.  The
    product is taken as a balanced tree, so long words cost a few big
    multiplications rather than a quadratic fold.
    """
    vals = list(vals)
    if len(vals) == 1:
        return vals[0] + sign
    a, _, _, d = _product(vals, sign, 0, len(vals))
    return a + d


def canonical(t: tuple) -> tuple:
    """Least rotation by taking the minimum of all rotations."""
    return min(t[i:] + t[:i] for i in range(len(t)))


def _cmp_plain(a: tuple, b: tuple) -> int:
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) > len(b) else 1


def _cmp_alt(a: tuple, b: tuple) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            c = -1 if x < y else 1
            return c if i % 2 == 0 else -c
    if len(a) == len(b):
        return 0
    if len(a) > len(b):
        return -1 if len(b) % 2 == 0 else 1
    return 1 if len(a) % 2 == 0 else -1


def is_singular(t: tuple, alt: bool = False) -> bool:
    """Every cut of every rotation into two non-palindromes synchronizes."""
    cmp = _cmp_alt if alt else _cmp_plain
    n = len(t)
    for r in {t[i:] + t[:i] for i in range(n)}:
        for m in range(1, n):
            u, v = r[:m], r[m:]
            ru, rv = u[::-1], v[::-1]
            if u == ru or v == rv:
                continue
            if (cmp(u, ru) < 0) != (cmp(v, rv) < 0):
                return False
    return True


def is_acyclic(edges: dict) -> bool:
    """Kahn's algorithm over a successor map whose keys are all vertices."""
    indeg = {v: 0 for v in edges}
    for outs in edges.values():
        for t in outs:
            indeg[t] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for t in edges[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    return seen == len(edges)


def descent(counts) -> tuple[bool, list[int]]:
    """(succeeds, totals) of the constructor's descent, computed on counts alone.

    Remove |delta_b| copies of the least letter b with n_b >= |delta_b|
    (the greater one of an equal pair) until delta_b = 0; the descent
    succeeds when only b is left.  ``totals`` holds the vector's total
    after each step, so its length is the number of steps.
    """
    counts = list(counts)
    totals = []
    while True:
        nonzero = [i for i, c in enumerate(counts) if c]
        if len(nonzero) == 2 and counts[nonzero[0]] == counts[nonzero[1]]:
            b = nonzero[1]
        else:
            b = next(
                i for i, c in enumerate(counts)
                if c >= abs(sum(counts[i + 1:]) - sum(counts[:i]))
            )
        d = sum(counts[b + 1:]) - sum(counts[:b])
        if d == 0:
            return all(c == 0 for i, c in enumerate(counts) if i != b), totals
        counts[b] -= abs(d)
        totals.append(sum(counts))
