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
singular (resp. alt-singular) members.  Exchanging across a synchronizing
cut undoes such a move, so its sign is the opposite one.

Regular max, regular min and semi-regular min each have one optimum up to
reversal, whatever the values, and it lies in U_alt, S_alt and U
respectively.  ``search`` reaches it by an exchange walk: from the sorted
word it applies one improving exchange at a time (across alternating
synchronizing, alternating non-synchronizing and plain synchronizing cuts)
until none is left, so the end word is in the class that certifies it.
Semi-regular max, whose maxima lie in S but may tie, is found by the
class's enumeration walk, told to skip every prefix with a short plain
non-synchronizing cut (a part of 2 or 3 letters, the other part's end
letters distinct): exchanging across it would raise the value, so no
maximum has one, and four letters of the prefix decide it.  Each word
the walk yields is scored by ``continuants._cyclic``, as the walked
problems' end words are.

Classification, the walk and the graph's edges read their cuts from one
outside-in mismatch table, ``words._cut_rows``, in O(n^2) time per word.
One cap, ``WORK_CAP``, bounds the walk and the two enumerating paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Literal, Mapping, Sequence

from .continuants import DomainError, _cyclic, resolve_values
from .words import (
    CUT_TABLE_CAP,
    CyclicWord,
    LinearWord,
    ParikhVector,
    _at_rotation,
    _cmp_alt,
    _cmp_lex,
    _cut_rows,
    _known_necklace,
    _least_rotation,
    _necklace_walk,
    necklace_count,
)

Direction = Literal["max", "min"]


class SyncKind(Enum):
    """Which order drives the synchronization predicate."""

    PLAIN = "plain"
    ALT = "alt"


@dataclass(frozen=True)
class ClassMembership:
    """Flags for the four synchronization classes of one cyclic word."""

    in_S: bool
    in_S_alt: bool
    in_U: bool
    in_U_alt: bool


@dataclass(frozen=True)
class SearchReport:
    """Optima of the cyclic continuant over a cyclic Abelian class.

    The report is the one an exhaustive search gives, whether ``search``
    walked to the optimum or scored the pruned class: every optimizer in
    lexicographic order of canonical representatives, its membership
    certificate, and the class size.
    """

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
    cmp = _cmp_lex if kind is SyncKind.PLAIN else _cmp_alt
    return (cmp(a, a[::-1]) < 0) == (cmp(b, b[::-1]) < 0)


def classify(omega: CyclicWord) -> ClassMembership:
    """Membership in S, S_alt, U, U_alt; vacuously all true if no split exists.

    Raises DomainError on a word longer than CUT_TABLE_CAP."""
    if len(omega) > CUT_TABLE_CAP:
        raise DomainError(
            f"word of {len(omega)} letters exceeds the cut-table cap ({CUT_TABLE_CAP})"
        )
    in_s = in_s_alt = in_u = in_u_alt = True
    for _, cuts, plain, alt in _cut_rows(omega.indices):
        in_s = in_s and not plain
        in_u = in_u and plain == cuts
        in_s_alt = in_s_alt and not alt
        in_u_alt = in_u_alt and alt == cuts
        if not (in_s or in_u or in_s_alt or in_u_alt):
            break
    return ClassMembership(in_s, in_s_alt, in_u, in_u_alt)


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


# -- extremal search ------------------------------------------------------------

# The one work cap, in units of about 0.8 ns on a 2-vCPU Xeon: about a
# minute.  A walk step builds one cut table of about n rows, and a row
# takes about n + 4096 units, the 4096 standing for the interpreter's fixed
# cost per row; so a step is charged n * (n + 4096).  Regular min of
# 450,450,450,450 finishes in 52 s through the CLI, and 500,500,500,500 is
# refused after 48 s.  The two enumerating paths are charged, before they
# start, the class size times a cost per member fitted to full classes.
# Scoring a member without the prune cost 3,200-4,300 units at 12-14
# letters and about 110 n^2 on n,1,1, whose walk visits about n^2 / 2
# prenecklaces per necklace.  The prune leaves 6-320 units per member
# on the highest-charged admitted classes of total 16 or less, 14,14 and
# 12,12,1, but cuts little where the least letter is frequent: pinned to
# one CPU through the CLI, 519,1,1, 145,1,1,1 and 60,1,1,1,1 take 11.1,
# 20.4-21.9 and 25.8-26.3 s (the host's speed drifts by up to a factor
# of two between hours).  A graph member costs 130-255 n^3 units through
# the CLI at 9-16 letters, 30-105 n^3 at 19-43 and 12-37 n^3 at 66-281,
# against 147-252, 62-126 and 20-45 n^3 charged by 12 n^2 (n + 180).
# The slowest admitted classes found take up to 26 s (search,
# 60,1,1,1,1) and 58 s (graph, 7,2,2,2,1).
WORK_CAP = 75_000_000_000


def _search_cost(n: int) -> int:
    return n * n * (n + 9)


def _graph_cost(n: int) -> int:
    return 12 * n * n * (n + 180)


def _class_size(vector: ParikhVector, per_member: int) -> int:
    """Cycle-index size of the class; DomainError if enumerating it at
    ``per_member`` units per member would pass WORK_CAP."""
    if per_member > WORK_CAP:  # counting a class of such words can take long
        raise DomainError(
            f"one word of {vector.total} letters exceeds the work cap ({WORK_CAP})"
        )
    size = necklace_count(vector)
    if size * per_member > WORK_CAP:
        # A count of thousands of digits would say no more than this.
        shown = size if size < 10**18 else "over 10^18"
        raise DomainError(
            f"class of {shown} cyclic words exceeds the work cap ({WORK_CAP})"
        )
    return size


# Cuts whose exchange improves the value, from (cuts, plain, alt) of a
# cut-table row: alternating synchronizing, alternating non-synchronizing
# and plain synchronizing cuts.  A walk ends in U_alt, S_alt and U.
_IMPROVING = {
    ("regular", "max"): lambda cuts, plain, alt: cuts & ~alt,
    ("regular", "min"): lambda cuts, plain, alt: alt,
    ("semiregular", "min"): lambda cuts, plain, alt: cuts & ~plain,
}


def _exchange_walk(
    counts: Sequence[int], improving: Callable[[int, int, int], int]
) -> tuple[int, ...]:
    """Necklace at the end of the improving exchange walk from the sorted word.

    Each step exchanges the cut at the lowest start of the first cut length
    whose improving set is non-empty, and canonicalises the moved word.
    The walk ends when no improving cut is left.  It raises DomainError on
    a word longer than CUT_TABLE_CAP, or once its work passes WORK_CAP.
    """
    n = sum(counts)
    if n > CUT_TABLE_CAP:
        raise DomainError(
            f"class of total {n} exceeds the cut-table cap ({CUT_TABLE_CAP})"
        )
    step = n * (n + 4096)
    work = step
    t = tuple(i for i, c in enumerate(counts) for _ in range(c))
    while work <= WORK_CAP:
        for m, cuts, plain, alt in _cut_rows(t):
            moves = improving(cuts, plain, alt)
            if moves:  # exchange rotation s at m
                s = (moves & -moves).bit_length() - 1
                r = t[s:] + t[:s]
                t = _least_rotation(r[m - 1 :: -1] + r[m:])
                break
        else:
            return t
        work += step
    raise DomainError(f"exchange walk exceeds the work cap ({WORK_CAP})")


def search(
    vector: ParikhVector,
    values: Sequence[int] | None = None,
    valuation: str = "semiregular",
    direction: Direction = "max",
) -> SearchReport:
    """Optimize the cyclic continuant over a cyclic Abelian class.

    Returns every optimizer (ties are reported, never broken), each with its
    full membership certificate; ``class_size`` is the cycle-index count.
    Regular max, regular min and semi-regular min are answered by the
    exchange walk, without enumerating the class: the optima are its end
    word and that word's reversal.  The walk raises DomainError past
    WORK_CAP of work or CUT_TABLE_CAP letters.  Semi-regular max walks
    the class in lexicographic order of canonical representatives,
    skipping every member with a short plain non-synchronizing cut
    (``words._necklace_walk``, ``prune_apart``), and scores each member
    the walk yields with ``continuants._cyclic``: an exchange across such
    a cut strictly raises the value, so every maximum and every tie is
    still scored.  Only the running maximum and its ties are kept, so
    memory does not grow with the class.  It raises DomainError at once
    when the class size times the cost per member passes WORK_CAP.  The
    cost was fitted to the unpruned walk; the skips only remove nodes,
    and scoring a yielded word takes O(n) steps against a charge of
    n^2 (n + 9).
    A one-letter class {x} has the value x + 1 (regular) or x - 1
    (semi-regular).
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

    improving = _IMPROVING.get((valuation, direction))
    if improving is None:  # semi-regular max
        size = _class_size(vector, _search_cost(vector.total))
        best, arg = 0, []  # every semi-regular cyclic value is positive
        for t in _necklace_walk(vector.counts, prune_apart=True):
            v = _cyclic([vals[i] for i in t], sign)
            if v >= best:
                if v > best:
                    best, arg = v, [t]
                else:
                    arg.append(t)
    else:
        end = _exchange_walk(vector.counts, improving)
        arg = sorted({end, _least_rotation(end[::-1])})
        best = _cyclic([vals[i] for i in end], sign)
        size = necklace_count(vector)

    alphabet = vector.alphabet
    optima = tuple(_known_necklace(alphabet, t) for t in arg)
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
    """Exchange graph of the symmetric cyclic Abelian class of the vector.

    Raises DomainError at once if the class is charged past WORK_CAP."""
    if vector.total < 1:
        raise ValueError("cannot build the graph of the zero vector")
    _class_size(vector, _graph_cost(vector.total))
    alphabet = vector.alphabet
    # necklace -> itself, then -> vertex key
    key_of = {t: t for t in _necklace_walk(vector.counts)}
    low = next(i for i, c in enumerate(vector.counts) if c)
    # Every word canonicalised below is a rotation of a necklace of the class.
    keys = [min(t, _at_rotation(key_of, t[::-1], low)) for t in key_of]
    key_of = dict(zip(key_of, keys))
    vertex_of = {key: _known_necklace(alphabet, key) for key in sorted(set(keys))}

    plain = kind is SyncKind.PLAIN
    n = vector.total
    edges: dict[CyclicWord, tuple[CyclicWord, ...]] = {}
    for key, vertex in vertex_of.items():
        d = key + key
        moved: set[tuple[int, ...]] = set()
        for m, _, plain_apart, alt_apart in _cut_rows(key):
            apart = plain_apart if plain else alt_apart
            while apart:  # one edge per set bit s: rotation s, cut at m
                s = (apart & -apart).bit_length() - 1
                apart &= apart - 1
                r = d[s : s + n]
                moved.add(r[m - 1 :: -1] + r[m:])
        targets = {_at_rotation(key_of, w, low) for w in moved}
        edges[vertex] = tuple(vertex_of[k] for k in sorted(targets))
    return ExchangeGraph(vector, kind, tuple(vertex_of.values()), edges)
