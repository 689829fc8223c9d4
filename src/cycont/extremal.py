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
respectively.  ``search`` builds it from the sorted word (``_unimodal``,
``_zigzag`` and ``_fold``) and checks the certificate it reports: a word
in that class has no exchange that improves the value, and on every class
tested only the optimum and its reversal are in it
(``tests/test_extremal.py``).  A built word without its certificate is an
error, never an answer.
Semi-regular max, whose maxima lie in S but may tie, is found by the
class's enumeration walk, told to skip every prefix with a short plain
non-synchronizing cut (a part of 2 or 3 letters, the other part's end
letters distinct): exchanging across it would raise the value, so no
maximum has one, and four letters of the prefix decide it.  Each word
the walk yields is scored by ``continuants._cyclic``, as the built
optima are.

Classification and the graph's edges read their cuts from one
outside-in mismatch table, ``words._cut_rows``, built per batch of words
in O(n^2) bit operations per batch: ``classify`` passes one word, the
graph a batch of its vertices.  The table yields each factorization
once, as the cut of length m <= n/2, and refuses a word past
``CUT_TABLE_CAP`` letters before it builds a row, for every caller.
One cap, ``WORK_CAP``, bounds the two enumerating paths.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby
from typing import Literal, Sequence

from .continuants import _cyclic, resolve_values
from .words import (
    CyclicWord,
    DomainError,
    LinearWord,
    ParikhVector,
    _cmp_alt,
    _cmp_lex,
    _cut_rows,
    _necklace_walk,
    _rotation_table,
    _trusted_necklace,
    _trusted_word,
    _within_cut_table_cap,
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
    built the optimum or scored the pruned class: every optimizer in
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

    Raises DomainError on a word longer than CUT_TABLE_CAP, from the cut
    table, before it is built."""
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
    if CyclicWord(_trusted_word(omega.alphabet, a + b)) != omega:
        raise ValueError("split is not a factorization of the cyclic word")
    return CyclicWord(_trusted_word(omega.alphabet, a[::-1] + b))


def reversal_class_representative(omega: CyclicWord) -> CyclicWord:
    """Canonical label of the reversal-identified pair {omega, omega*}."""
    rev = omega.reverse()
    return omega if omega.indices <= rev.indices else rev


# -- extremal search ------------------------------------------------------------

# The one work cap, in units of about 0.8 ns on a 2-vCPU Xeon: about a
# minute.  It bounds the two enumerating paths; the three built optima
# are bounded by CUT_TABLE_CAP alone, since building one is linear and
# certifying it is one O(n^2) cut table per optimum.  The two enumerating
# paths are charged, before they start, the class size times a cost per
# member fitted to full classes.
# Scoring a member without the prune cost 3,200-4,300 units at 12-14
# letters and about 110 n^2 on n,1,1, whose walk visits about n^2 / 2
# prenecklaces per necklace.  The prune leaves 6-320 units per member
# on the highest-charged admitted classes of total 16 or less, 14,14 and
# 12,12,1, but cuts little where the least letter is frequent.  When the
# charge was fitted, a graph member cost 130-255 n^3 units through the
# CLI at 9-16 letters, 30-105 n^3 at 19-43 and 12-37 n^3 at 66-281,
# against 147-252, 62-126 and 20-45 n^3 charged by 12 n^2 (n + 180).
# Pinned to one CPU through the CLI, the slowest admitted classes found
# take 11.1-26.3 s on search (519,1,1, 145,1,1,1 and 60,1,1,1,1; the
# host's speed drifts by up to a factor of two between hours) and
# 12.0-14.5 s on graph (7,2,2,2,1).  The charge is kept, so every class
# admitted before still is.
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


def _fold(s: tuple[int, ...]) -> tuple[int, ...]:
    """Semi-regular min: the even places of s rising, then the odd falling."""
    return s[0::2] + s[1::2][::-1]


def _unimodal(s: tuple[int, ...]) -> tuple[int, ...]:
    """Regular max: the least letter's block, then each inner letter in
    increasing order sends one copy up and the rest down, the next the
    reverse, and so on; the greatest letter's block is the peak."""
    runs = [tuple(run) for _, run in groupby(s)]
    rise, fall = runs[0], ()
    for k, run in enumerate(runs[1:-1]):
        cut = 1 if k % 2 == 0 else len(run) - 1
        rise, fall = rise + run[:cut], run[cut:] + fall
    return rise + (runs[-1] if len(runs) > 1 else ()) + fall


def _zigzag(s: tuple[int, ...]) -> tuple[int, ...]:
    """Regular min: from place 0 of s, places n-1, 1, n-3, 3, ... one way
    round and n-2, 2, n-4, 4, ... the other."""
    n = len(s)
    one = [s[n - 1 - j] if j % 2 == 0 else s[j] for j in range(n // 2)]
    other = [s[n - 2 - j] if j % 2 == 0 else s[j + 1] for j in range(n - 1 - n // 2)]
    return s[:1] + tuple(one + other[::-1])


# The builder of each problem with one optimum up to reversal, and the
# class flag that certifies its word.
_OPTIMUM = {
    ("regular", "max"): (_unimodal, "in_U_alt"),
    ("regular", "min"): (_zigzag, "in_S_alt"),
    ("semiregular", "min"): (_fold, "in_U"),
}


def search(
    vector: ParikhVector,
    values: Sequence[int] | None = None,
    valuation: str = "semiregular",
    direction: Direction = "max",
) -> SearchReport:
    """Optimize the cyclic continuant over a cyclic Abelian class.

    Returns every optimizer (ties are reported, never broken), each with its
    full membership certificate; ``class_size`` is the cycle-index count.
    Regular max, regular min and semi-regular min are answered without
    enumerating the class: the optima are the word built for the problem
    (``_OPTIMUM``) and its reversal.  The built word is checked to carry
    the class flag that certifies it, and a word without it raises
    RuntimeError; its reversal shares its certificate, because ``classify``
    is invariant under reversal.  These
    raise DomainError past CUT_TABLE_CAP letters, before building anything,
    and are not charged against WORK_CAP.  Semi-regular max walks
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

    alphabet = vector.alphabet
    optimum = _OPTIMUM.get((valuation, direction))
    if optimum is None:  # semi-regular max
        size = _class_size(vector, _search_cost(vector.total))
        best, arg = 0, []  # every semi-regular cyclic value is positive
        for t in _necklace_walk(vector.counts, prune_apart=True):
            v = _cyclic([vals[i] for i in t], sign)
            if v >= best:
                if v > best:
                    best, arg = v, [t]
                else:
                    arg.append(t)
        optima = tuple(_trusted_necklace(alphabet, t) for t in arg)
        certificates = tuple(classify(w) for w in optima)
        unique = len(optima) == 1 or (
            len(optima) == 2 and optima[0].reverse() == optima[1]
        )
    else:
        _within_cut_table_cap(vector.total)  # before building the word
        s = tuple(i for i, c in enumerate(vector.counts) for _ in range(c))
        end = CyclicWord(_trusted_word(alphabet, optimum[0](s)))
        optima = tuple(sorted({end, end.reverse()}, key=lambda w: w.indices))
        best = _cyclic([vals[i] for i in end.indices], sign)
        size = necklace_count(vector)
        # a word and its reversal: classify is reversal-invariant
        certificates = (classify(optima[0]),) * len(optima)
        if not getattr(certificates[0], optimum[1]):
            raise RuntimeError(f"built optimum {optima[0]} is not {optimum[1]}")
        unique = True  # the optima are the built word and its reversal
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

    One vertex per pair {omega, omega*}, in ascending order of ``indices``;
    one edge per non-synchronizing factorization, deduplicated per target.
    ``targets[i]`` holds the ascending positions in ``vertices`` of the
    successors of ``vertices[i]``.  Sinks are exactly the singular
    (resp. alt-singular) members; the graph is acyclic.
    """

    parikh: ParikhVector
    kind: SyncKind
    vertices: tuple[CyclicWord, ...]
    targets: tuple[tuple[int, ...], ...]

    def successors(self, vertex: CyclicWord) -> tuple[CyclicWord, ...]:
        """The vertices an edge leaves ``vertex`` for; KeyError if it is not
        a vertex of the graph."""
        i = bisect_left(self.vertices, vertex.indices, key=lambda v: v.indices)
        if i == len(self.vertices) or self.vertices[i] != vertex:
            raise KeyError(vertex)
        return tuple([self.vertices[t] for t in self.targets[i]])

    def sources(self) -> tuple[CyclicWord, ...]:
        entered = set(chain.from_iterable(self.targets))
        return tuple([v for i, v in enumerate(self.vertices) if i not in entered])

    def sinks(self) -> tuple[CyclicWord, ...]:
        return tuple([v for v, t in zip(self.vertices, self.targets) if not t])

    def topological_order(self) -> tuple[CyclicWord, ...]:
        """Kahn's algorithm over vertex positions, last found first out;
        raises ValueError if a cycle exists."""
        indeg = [0] * len(self.vertices)
        for t in chain.from_iterable(self.targets):
            indeg[t] += 1
        queue = [i for i, d in enumerate(indeg) if not d]
        order = []
        while queue:
            i = queue.pop()
            order.append(self.vertices[i])
            for t in self.targets[i]:
                indeg[t] -= 1
                if not indeg[t]:
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


# Vertices per batch of the cut table.  Its big-integer steps cost little
# per vertex from a few hundred lanes on; a batch's target lists and rows
# grow with it.  On the graph workload's classes, 2,048 raised the build's
# traced peak from 1.96 to 2.51 MB against 512, and 256 saved no more.
_BATCH = 512


def build_exchange_graph(
    vector: ParikhVector, kind: SyncKind = SyncKind.PLAIN
) -> ExchangeGraph:
    """Exchange graph of the symmetric cyclic Abelian class of the vector.

    Raises DomainError at once if the class is charged past WORK_CAP.

    The build runs on bytes, each letter replaced by its rank among the
    letters that occur, which keeps every comparison and every cut; the
    work cap admits no class of more than nine letters.  Every word it
    canonicalises is a rotation of a necklace of the class, found in one
    dict keyed by every rotation of each necklace that starts at the
    class's rarest letter: a word is looked up from its first rarest
    letter.  The cut table is built once per batch of vertices, and it
    yields each factorization once, so each edge is read once: the cut
    (s, m) of u v gives u* v, and its complement (s + m, n - m) gives v* u,
    the reversal, so the same vertex."""
    if vector.total < 1:
        raise ValueError("cannot build the graph of the zero vector")
    _class_size(vector, _graph_cost(vector.total))
    letters = [i for i, c in enumerate(vector.counts) if c]
    n = vector.total
    # rotation from a rarest letter -> its necklace, then its vertex
    necklaces, rare, at = _rotation_table([vector.counts[i] for i in letters])
    # A vertex key is the lesser of a necklace and its reversal's; r
    # reversed, its last letter moved to the front, is a key of the table.
    keys = list(necklaces)
    for r, i in at.items():
        keys[i] = min(keys[i], necklaces[at[r[:1] + r[:0:-1]]])
    order = sorted(set(keys))
    position = {key: i for i, key in enumerate(order)}
    for r, i in at.items():
        at[r] = position[keys[i]]
    del necklaces, keys, position  # the table and the vertex keys stay

    targets = []
    for b in range(0, len(order), _BATCH):
        batch = order[b : b + _BATCH]
        found = [[] for _ in batch]
        doubled = [(d, d[::-1]) for d in (key + key for key in batch)]
        for m, _, plain_apart, alt_apart in _cut_rows(b"".join(batch), n):
            apart = plain_apart if kind is SyncKind.PLAIN else alt_apart
            bits = format(apart, "b")[::-1]
            i = bits.find("1")
            while i >= 0:  # one edge per set bit: lane, then rotation s
                lane, s = divmod(i, 2 * n)
                d, back = doubled[lane]  # back[2n - 1 - i] is d[i]
                # u = d[s : s + m] reversed, then v = d[s + m : s + n]
                w = back[2 * n - s - m : 2 * n - s] + d[s + m : s + n]
                j = w.find(rare)
                found[lane].append(at[w[j:] + w[:j]])
                i = bits.find("1", i + 1)
        targets += [tuple(sorted(set(f))) for f in found]
    del at  # before the vertices are built, so the two never coexist
    words = [tuple(map(letters.__getitem__, key)) for key in order]
    vertices = tuple([_trusted_necklace(vector.alphabet, t) for t in words])
    return ExchangeGraph(vector, kind, vertices, tuple(targets))
