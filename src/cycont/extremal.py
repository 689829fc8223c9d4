"""Synchronization predicates, class membership, exchange moves, and search.

A factorization omega = uv (both parts non-palindromic) is *synchronizing*
when u compares to its reversal the same way v does, under the selected
order (plain or alternating).  Four classes arise per cyclic Abelian class:
all-synchronizing (S), none-synchronizing (U), and their alternating
twins (S_alt, U_alt); a word with no admissible factorization at all is
vacuously in all four.

Exchanging a factorization uv -> u*v preserves the Parikh vector, strictly
increases the cyclic semi-regular continuant across plain non-synchronizing
cuts, and strictly decreases the cyclic regular continuant across
alternating ones.  Directing every non-synchronizing cut this way turns the
reversal-identified class into a DAG whose sinks are exactly the
singular (resp. alt-singular) members; exhaustive search over a class
therefore certifies extremal arrangements together with their class
membership.

Classification reads every cut from one outside-in mismatch table.  The
cut of rotation s at m has the cyclic factors u = (s, m) and v = (s + m,
n - m).  A factor of length L first differs from its reversal at its
outside-in mismatch k: k = 0 if its end letters differ, else one more than
for the factor (s + 1, L - 2).  The plain order is decided by the letters
at k, the alternating order by the same flipped when k is odd, and
k >= L // 2 means a palindrome, an inadmissible cut.  So the row of every
factor of length L, kept as three bit-sets over the n starts (admissible,
plain-less, alternating-less), is one pass over the row for L - 2, and a
cut reads two rows.  The distinct rotations are the first p starts, p the
least period.  That is O(n^2) time, done as O(n) bit operations per row on
n-bit integers, and a row is kept only until its partner length n - L
arrives: at most n/2 rows of 3n bits, O(n^2) bits of memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal, Mapping, Sequence

from .continuants import DomainError, resolve_values
from .words import (
    CyclicWord,
    LinearWord,
    ParikhVector,
    _cmp_alt,
    _cmp_lex,
    _least_rotation,
    _necklace_walk,
    _splits,
    enumerate_class,
)

Direction = Literal["max", "min"]


class SyncKind(Enum):
    """Which order drives the synchronization predicate."""

    PLAIN = "plain"
    ALT = "alt"

    @property
    def cmp(self):
        return _cmp_lex if self is SyncKind.PLAIN else _cmp_alt


@dataclass(frozen=True)
class ClassMembership:
    """Flags for the four synchronization classes of one cyclic word."""

    in_S: bool
    in_S_alt: bool
    in_U: bool
    in_U_alt: bool


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive extremal search over a cyclic Abelian class."""

    parikh: ParikhVector
    valuation: str
    direction: str
    value: int
    optima: tuple[CyclicWord, ...]
    certificates: tuple[ClassMembership, ...]
    unique_up_to_reversal: bool
    class_size: int


def is_synchronizing(
    u: LinearWord, v: LinearWord, kind: SyncKind = SyncKind.PLAIN
) -> bool:
    """True iff u vs u* compares the same way as v vs v* under the kind."""
    if u.alphabet != v.alphabet:
        raise ValueError("words must share an alphabet")
    a, b = u.indices, v.indices
    if a == a[::-1] or b == b[::-1]:
        raise ValueError("synchronization needs both parts non-palindromic")
    cmp = kind.cmp
    return (cmp(a, a[::-1]) < 0) == (cmp(b, b[::-1]) < 0)


def _classify_raw(t: tuple[int, ...]) -> ClassMembership:
    """Four class flags from the outside-in mismatch table (module docstring).

    Row L holds three bit-sets over the starts s of the factors (s, L):
    ``adm`` (not a palindrome), ``pl`` (plain-less than its reversal) and
    ``al`` (alternating-less).  Where the end letters differ, both orders
    read them; elsewhere the row inherits from (s + 1, L - 2), with the
    alternating sense flipped.
    """
    n = len(t)
    in_s = in_s_alt = in_u = in_u_alt = True
    if n < 4:  # every cut has a one-letter, palindromic part
        return ClassMembership(in_s, in_s_alt, in_u, in_u_alt)
    full = (1 << n) - 1

    def rot(x: int, d: int) -> int:
        """Bit s of the result is bit (s + d) mod n of x."""
        return ((x >> d) | (x << (n - d))) & full

    planes = [  # bit j of each letter, most significant plane first
        int("".join("1" if c >> j & 1 else "0" for c in reversed(t)), 2)
        for j in reversed(range(max(t).bit_length()))
    ]
    p = next(d for d in range(1, n + 1) if n % d == 0 and t[d:] == t[: n - d])
    starts = (1 << p) - 1
    older = old = (0, 0, 0)  # rows 0 and 1: every factor is a palindrome
    waiting = {}
    for L in range(2, n - 1):
        ne = lt = 0  # ends t[s] != t[s + L - 1], and t[s] < t[s + L - 1]
        for plane in planes:
            diff = (plane ^ rot(plane, L - 1)) & ~ne
            lt |= diff & ~plane
            ne |= diff
        eq = full ^ ne
        adm, pl, al = older
        row = (ne | rot(adm, 1), lt | (eq & rot(pl, 1)), lt | (eq & ~rot(al, 1)))
        older, old = old, row
        if 2 * L < n:
            waiting[L] = row
            continue
        partner = row if 2 * L == n else waiting.pop(n - L)
        for (adm_u, pl_u, al_u), (adm_v, pl_v, al_v), m in (
            (row, partner, L), (partner, row, n - L)
        ):
            cuts = adm_u & rot(adm_v, m) & starts
            apart = (pl_u ^ rot(pl_v, m)) & cuts
            in_s = in_s and not apart
            in_u = in_u and apart == cuts
            apart = (al_u ^ rot(al_v, m)) & cuts
            in_s_alt = in_s_alt and not apart
            in_u_alt = in_u_alt and apart == cuts
        if not (in_s or in_u or in_s_alt or in_u_alt):
            break
    return ClassMembership(in_s, in_s_alt, in_u, in_u_alt)


def classify(omega: CyclicWord) -> ClassMembership:
    """Membership in S, S_alt, U, U_alt; vacuously all true if no split exists."""
    return _classify_raw(omega.indices)


def exchange(
    omega: CyclicWord, split: tuple[LinearWord, LinearWord]
) -> CyclicWord:
    """Cyclic word represented by u*v, for a factorization (u, v) of omega."""
    u, v = split
    if u.alphabet != v.alphabet or u.alphabet != omega.alphabet:
        raise ValueError("split words must share the cyclic word's alphabet")
    a, b = u.indices, v.indices
    if not a or not b:
        raise ValueError("split parts must be non-empty")
    if a == a[::-1] or b == b[::-1]:
        raise ValueError("split parts must be non-palindromic")
    if _least_rotation(a + b) != omega.indices:
        raise ValueError("split is not a factorization of the cyclic word")
    return CyclicWord(LinearWord(omega.alphabet, a[::-1] + b))


def reversal_class_representative(omega: CyclicWord) -> CyclicWord:
    """Canonical label of the reversal-identified pair {omega, omega*}."""
    rev = omega.reverse()
    return omega if omega.indices <= rev.indices else rev


# -- exhaustive extremal search ------------------------------------------------

def search(
    vector: ParikhVector,
    values: Sequence[int] | None = None,
    valuation: str = "semiregular",
    direction: Direction = "max",
) -> SearchReport:
    """Exhaustively evaluate the cyclic continuant over a cyclic Abelian class.

    Returns every optimizer (ties are reported, never broken), each with its
    full membership certificate.  Members are scored inside one enumeration
    walk, in lexicographic order of their canonical representatives; only
    the running optimum and its ties are kept, so memory does not grow with
    the class.  A one-letter class {x} has the value x + 1 (regular) or
    x - 1 (semi-regular).
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if vector.total < 1:
        raise ValueError("cannot search the class of the zero vector")
    vals = resolve_values(vector.alphabet, values, valuation)  # type: ignore[arg-type]
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise DomainError(
            "extremal search needs values strictly increasing with symbol order"
        )
    sign = 1 if valuation == "regular" else -1
    flip = 1 if direction == "max" else -1

    walk = _necklace_walk(vector.counts, vals, sign)
    t, best = next(walk)
    best *= flip
    arg = [t]
    size = 1
    for size, (t, v) in enumerate(walk, 2):
        v *= flip
        if v >= best:
            if v > best:
                best, arg = v, [t]
            else:
                arg.append(t)
    best *= flip
    if vector.total == 1:
        best += sign

    alphabet = vector.alphabet
    optima = tuple(CyclicWord(LinearWord(alphabet, t)) for t in arg)
    certificates = tuple(classify(w) for w in optima)
    unique = len(optima) == 1 or (
        len(optima) == 2 and optima[0].reverse() == optima[1]
    )
    return SearchReport(
        parikh=vector,
        valuation=valuation,
        direction=direction,
        value=best,
        optima=optima,
        certificates=certificates,
        unique_up_to_reversal=unique,
        class_size=size,
    )


# -- exchange graph -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExchangeGraph:
    """Directed exchange graph on the reversal-identified Abelian class.

    One vertex per pair {omega, omega*}; one edge per non-synchronizing
    factorization, deduplicated per target.  Sinks are exactly the singular
    (resp. alt-singular) members; the graph is acyclic.
    """

    parikh: ParikhVector
    kind: SyncKind
    vertices: tuple[CyclicWord, ...]
    edges: Mapping[CyclicWord, tuple[CyclicWord, ...]]

    def successors(self, vertex: CyclicWord) -> tuple[CyclicWord, ...]:
        return self.edges[vertex]

    def sources(self) -> tuple[CyclicWord, ...]:
        entered = {t for outs in self.edges.values() for t in outs}
        return tuple(v for v in self.vertices if v not in entered)

    def sinks(self) -> tuple[CyclicWord, ...]:
        return tuple(v for v in self.vertices if not self.edges[v])

    def topological_order(self) -> tuple[CyclicWord, ...]:
        """Kahn's algorithm; raises ValueError if a cycle exists."""
        indeg = {v: 0 for v in self.vertices}
        for outs in self.edges.values():
            for t in outs:
                indeg[t] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for t in self.edges[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        if len(order) != len(self.vertices):
            raise ValueError("exchange graph contains a cycle")
        return tuple(order)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except ValueError:
            return False
        return True


def build_exchange_graph(
    vector: ParikhVector, kind: SyncKind = SyncKind.PLAIN
) -> ExchangeGraph:
    """Exchange graph of the symmetric cyclic Abelian class of the vector."""
    if vector.total < 1:
        raise ValueError("cannot build the graph of the zero vector")
    cmp = kind.cmp

    reps: dict[tuple[int, ...], CyclicWord] = {}
    for word in enumerate_class(vector):
        rep = reversal_class_representative(word)
        reps.setdefault(rep.indices, rep)
    vertices = tuple(reps[key] for key in sorted(reps))

    edges: dict[CyclicWord, tuple[CyclicWord, ...]] = {}
    for vertex in vertices:
        targets: set[tuple[int, ...]] = set()
        for u, v in _splits(vertex.indices):
            if (cmp(u, u[::-1]) < 0) != (cmp(v, v[::-1]) < 0):
                moved = _least_rotation(u[::-1] + v)
                rev = _least_rotation(moved[::-1])
                targets.add(min(moved, rev))
        edges[vertex] = tuple(reps[key] for key in sorted(targets))
    return ExchangeGraph(parikh=vector, kind=kind, vertices=vertices, edges=edges)

