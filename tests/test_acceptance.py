"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every expected number
is exact (big-integer equality); the exhaustive properties run at desk
scale over the ranges stated in each docstring.
"""

import time
from itertools import combinations, product

from cycont.continuants import (
    continuant_regular,
    continuant_semiregular,
    cyclic_regular,
    cyclic_semiregular,
)
from cycont.extremal import (
    SyncKind,
    build_exchange_graph,
    classify,
    exchange,
    is_synchronizing,
    reversal_class_representative,
    search,
)
from cycont.singular import (
    LetterPair,
    SingleLetter,
    christoffel,
    construct_singular,
    delta,
    is_balanced,
    is_singular,
    midpoint_case,
    xi_cyclic,
    xi_linear,
)
from cycont.words import (
    CyclicWord,
    LinearWord,
    OrderedAlphabet,
    alphabet_of_size,
    compare_lex,
    enumerate_class,
    split_points,
)

from oracles import (
    balanced_by_factors,
    cyclic_by_definition,
    interval_midpoint,
    nonnegative_compositions,
    split_identity_check,
)

AB5 = alphabet_of_size(5, values=(2, 3, 4, 5, 6))
ABCD = alphabet_of_size(4)


def _ok(name: str, detail: str = "") -> None:
    line = f"ACCEPTANCE PASS {name}"
    if detail:
        line += f" — {detail}"
    print(line)


def test_criterion_1_five_letter_values():
    """K_cyc-semiregular of the three named words under three value sets."""
    started = time.perf_counter()
    words = [AB5.cyclic(w) for w in ("bccdbdae", "bdbccdae", "bcdbcdae")]
    expected = {
        (2, 3, 4, 5, 6): (22735, 22751, 22646),
        (2, 3, 4, 10, 11): (213920, 213916, 211336),
        (2, 3, 4, 9, 10): (153347, 153347, 151598),
    }
    for values, want in expected.items():
        got = tuple(cyclic_semiregular(w, values) for w in words)
        assert got == want
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok("criterion 1", f"nine exact values in {elapsed:.3f}s")


def test_criterion_2_singular_enumeration_five_letter():
    """Brute-force singular set of (1,2,2,2,1) is the three named classes
    plus reversals."""
    started = time.perf_counter()
    vector = AB5.vector((1, 2, 2, 2, 1))
    singular = {str(w) for w in enumerate_class(vector) if classify(w).in_S}
    named = [AB5.cyclic(w) for w in ("bccdbdae", "bdbccdae", "bcdbcdae")]
    expected = {str(w) for w in named} | {str(w.reverse()) for w in named}
    assert singular == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok("criterion 2", f"6 singular classes of 630 in {elapsed:.2f}s")


def test_criterion_3_construction_trace():
    """Exact vector chain and word chain for the (3,3,4,2) construction."""
    outcome, trace = construct_singular(ABCD.vector((3, 3, 4, 2)))
    assert [s.vector.counts for s in trace.steps] == [
        (3, 0, 4, 2),
        (3, 0, 3, 2),
        (3, 0, 2, 2),
        (3, 0, 1, 2),
        (0, 0, 1, 2),
        (0, 0, 1, 1),
        (0, 0, 1, 0),
    ]
    assert [str(w) for w in trace.words] == [
        "c",
        "cd",
        "cdd",
        "acadad",
        "accadad",
        "acccadad",
        "accccadad",
        "acbcbcbcadad",
    ]
    assert str(outcome) == "acbcbcbcadad"
    _ok("criterion 3", "vector and word chains match exactly")


def test_criterion_4_construction_failure():
    """(3,2,4,3) fails after (3,2,2,3),(3,0,2,3); the two named words and
    their reversals are the full singular set."""
    outcome, trace = construct_singular(ABCD.vector((3, 2, 4, 3)))
    assert outcome is None
    assert [s.vector.counts for s in trace.steps] == [(3, 2, 2, 3), (3, 0, 2, 3)]
    singular = {
        str(w)
        for w in enumerate_class(ABCD.vector((3, 2, 4, 3)))
        if classify(w).in_S
    }
    named = [ABCD.cyclic(w) for w in ("accbccbdadad", "accbdaccbdad")]
    assert singular == {str(w) for w in named} | {
        str(w.reverse()) for w in named
    }
    _ok("criterion 4", "failure trace and brute-force set match")


def test_criterion_5_xi_golden_images():
    """All four insertion images of abbcacad."""
    x = ABCD.word("abbcacad")
    assert str(xi_linear("a", x)) == "aababacaacaad"
    assert str(xi_linear("b", x)) == "abbbcacad"
    assert str(xi_linear("c", x)) == "acbcbccaccad"
    assert str(xi_linear("d", x)) == "adbdbdcdadcdadd"
    _ok("criterion 5", "four images exact")


def test_criterion_6_exchange_graph_structure():
    """(2,2,2) plain graph: unique source aabccb, sinks abcabc and abbcac,
    acyclic."""
    abc = alphabet_of_size(3)
    graph = build_exchange_graph(abc.vector((2, 2, 2)), SyncKind.PLAIN)
    assert [str(v) for v in graph.sources()] == ["aabccb"]
    assert sorted(str(v) for v in graph.sinks()) == ["abbcac", "abcabc"]
    assert graph.is_acyclic()
    _ok("criterion 6", "source, sinks, and acyclicity exact")


# -- criterion 7: the exhaustive property suite ---------------------------------

V2345 = OrderedAlphabet(("2", "3", "4", "5"), (2, 3, 4, 5))
V234 = OrderedAlphabet(("2", "3", "4"), (2, 3, 4))
V23 = OrderedAlphabet(("2", "3"), (2, 3))


def test_criterion_7_reversal_invariance():
    """K(x) = K(x*) and Kd(x) = Kd(x*) for every word of length <= 8 over
    values {2,3,4,5}."""
    checked = 0
    for n in range(0, 9):
        for t in product(range(4), repeat=n):
            w = LinearWord(V2345, t)
            r = w.reverse()
            assert continuant_regular(w) == continuant_regular(r)
            assert continuant_semiregular(w) == continuant_semiregular(r)
            checked += 1
    assert checked == sum(4**n for n in range(9))
    _ok("criterion 7: reversal", f"{checked} words")


def test_criterion_7_splitting_identities():
    """Both splitting identities at every cut of every word of length <= 8
    over values {2,3,4,5}."""
    checked = 0
    for n in range(2, 9):
        for t in product(range(4), repeat=n):
            w = LinearWord(V2345, t)
            for m in range(1, n):
                lhs, rhs = split_identity_check(w, m, "regular")
                assert lhs == rhs
                lhs, rhs = split_identity_check(w, m, "semiregular")
                assert lhs == rhs
                checked += 2
    _ok("criterion 7: splitting", f"{checked} identities")


def test_criterion_7_rotation_invariance():
    """Cyclic continuants agree across all rotations: exhaustive for binary
    {2,3} up to length 10, ternary {2,3,4} up to 8, quaternary {2,3,4,5}
    up to 7."""
    checked = 0
    for alphabet, max_len in ((V23, 10), (V234, 8), (V2345, 7)):
        k = len(alphabet)
        for n in range(1, max_len + 1):
            for t in product(range(k), repeat=n):
                omega = CyclicWord(LinearWord(alphabet, t))
                base_r = cyclic_regular(omega)
                base_s = cyclic_semiregular(omega)
                assert base_s > 0
                for i in range(1, n):
                    rot = CyclicWord(LinearWord(alphabet, t[i:] + t[:i]))
                    assert cyclic_regular(rot) == base_r
                    assert cyclic_semiregular(rot) == base_s
                checked += 1
    _ok("criterion 7: rotation", f"{checked} words")


def test_criterion_7_value_exchange_directions():
    """Across every non-synchronizing split with |omega| <= 8 over values
    {2,3,4}: plain moves strictly raise Kd_cyc, alternating moves strictly
    lower K_cyc."""
    moves = 0
    for total in range(2, 9):
        for counts in nonnegative_compositions(total, 3):
            for omega in enumerate_class(V234.vector(counts)):
                base_s = cyclic_semiregular(omega)
                base_r = cyclic_regular(omega)
                for u, v in split_points(omega):
                    plain = is_synchronizing(u, v, SyncKind.PLAIN)
                    alt = is_synchronizing(u, v, SyncKind.ALT)
                    if plain and alt:
                        continue
                    moved = exchange(omega, (u, v))
                    if not plain:
                        assert cyclic_semiregular(moved) > base_s
                        moves += 1
                    if not alt:
                        assert cyclic_regular(moved) < base_r
                        moves += 1
    _ok("criterion 7: exchange directions", f"{moves} moves")


def test_criterion_7_extremal_membership():
    """Every brute-force optimizer lands in its predicted class: min
    K_cyc in S_alt, max K_cyc in U_alt, min Kd_cyc in U, max Kd_cyc in S;
    totals <= 7 over every alphabet inside {2,3,4,5}."""
    cases = [
        ("regular", "min", "in_S_alt"),
        ("regular", "max", "in_U_alt"),
        ("semiregular", "min", "in_U"),
        ("semiregular", "max", "in_S"),
    ]
    searches = 0
    for k in range(1, 5):
        for values in combinations((2, 3, 4, 5), k):
            alphabet = OrderedAlphabet(tuple(str(v) for v in values), values)
            for total in range(k, 8):
                for counts in _positive(total, k):
                    vector = alphabet.vector(counts)
                    for valuation, direction, flag in cases:
                        report = search(
                            vector, valuation=valuation, direction=direction
                        )
                        for cert in report.certificates:
                            assert getattr(cert, flag)
                        searches += 1
    _ok("criterion 7: extremal membership", f"{searches} searches")


def _positive(total, parts):
    from oracles import positive_compositions

    return positive_compositions(total, parts)


def test_criterion_7_uniqueness_counts(survey8):
    """|S_alt| = |U_alt| = |U| = 1 on every symmetric class with total <= 8."""
    classes = 0
    for (k, counts), rows in survey8.items():
        alphabet = alphabet_of_size(k)
        pairs = {"in_S_alt": set(), "in_U_alt": set(), "in_U": set()}
        for indices, membership in rows:
            omega = CyclicWord(LinearWord(alphabet, indices))
            rep = reversal_class_representative(omega).indices
            for flag in pairs:
                if getattr(membership, flag):
                    pairs[flag].add(rep)
        assert all(len(found) == 1 for found in pairs.values()), (k, counts)
        classes += 1
    _ok("criterion 7: uniqueness", f"{classes} symmetric classes")


def test_criterion_7_midpoint_classification():
    """Delta-based midpoint case equals the direct interval construction
    for every non-zero vector with total <= 12 over at most 4 letters."""
    checked = 0
    for k in range(1, 5):
        alphabet = alphabet_of_size(k)
        for total in range(1, 13):
            for counts in nonnegative_compositions(total, k):
                got = midpoint_case(alphabet.vector(counts))
                expect = interval_midpoint(counts)
                if isinstance(got, SingleLetter):
                    assert expect == ("single", alphabet.index(got.letter))
                else:
                    assert isinstance(got, LetterPair)
                    assert expect == (
                        "pair",
                        alphabet.index(got.low),
                        alphabet.index(got.high),
                    )
                checked += 1
    _ok("criterion 7: midpoint", f"{checked} vectors")


def test_criterion_7_insertion_singularity_equivalence():
    """xi_b preserves singularity both ways when delta_b != 0: exhaustive
    for |omega| <= 7 over three letters (binary included)."""
    checked = 0
    abc = alphabet_of_size(3)
    for total in range(1, 8):
        for counts in nonnegative_compositions(total, 3):
            vector = abc.vector(counts)
            for omega in enumerate_class(vector):
                base = is_singular(omega)
                for name in abc.symbols:
                    if delta(vector, name) == 0:
                        continue
                    assert is_singular(xi_cyclic(name, omega)) == base
                    checked += 1
    _ok("criterion 7: insertion equivalence", f"{checked} applications")


def test_criterion_7_insertion_monotonicity():
    """xi_b preserves the plain order on equal-length pairs, |x| <= 6 over
    three letters."""
    abc = alphabet_of_size(3)
    checked = 0
    for n in range(1, 7):
        words = [LinearWord(abc, t) for t in product(range(3), repeat=n)]
        for name in abc.symbols:
            images = [xi_linear(name, w) for w in words]
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    assert compare_lex(words[i], words[j]) == compare_lex(
                        images[i], images[j]
                    )
                    checked += 1
    _ok("criterion 7: insertion monotonicity", f"{checked} pairs")


def _cyclic_runs(indices, letter):
    runs = 0
    n = len(indices)
    for i in range(n):
        if indices[i] == letter and indices[i - 1] != letter:
            runs += 1
    if runs == 0 and indices and indices[0] == letter:
        runs = 1
    return runs


def test_criterion_7_runs_law(survey8):
    """Every singular word with 0 < |delta_b| <= n_b has exactly |delta_b|
    runs of b and no adjacent pair strictly on one side of b; with
    delta_b > 0 nothing at or below b is adjacent except bb (dually above)."""
    words = 0
    for (k, counts), rows in survey8.items():
        for indices, membership in rows:
            if not membership.in_S:
                continue
            words += 1
            n = len(indices)
            adj = {(indices[i], indices[(i + 1) % n]) for i in range(n)}
            for b in range(k):
                d = sum(counts[b + 1 :]) - sum(counts[:b])
                if d > 0:
                    assert not any(
                        x <= b and y <= b and (x, y) != (b, b) for x, y in adj
                    ), (counts, indices, b)
                if d < 0:
                    assert not any(
                        x >= b and y >= b and (x, y) != (b, b) for x, y in adj
                    ), (counts, indices, b)
                if 0 < abs(d) <= counts[b]:
                    assert _cyclic_runs(indices, b) == abs(d)
                    assert not any(
                        (x > b and y > b) or (x < b and y < b) for x, y in adj
                    )
    _ok("criterion 7: runs law", f"{words} singular words")


def test_criterion_7_square_letter_bound(survey8):
    """At most one letter appears squared in any singular word, total <= 8."""
    words = 0
    for (k, counts), rows in survey8.items():
        for indices, membership in rows:
            if not membership.in_S:
                continue
            n = len(indices)
            squared = {
                indices[i] for i in range(n) if indices[i] == indices[(i + 1) % n]
            }
            assert len(squared) <= 1, (counts, indices)
            words += 1
    _ok("criterion 7: square letters", f"{words} singular words")


def test_criterion_7_constructor_uniqueness(survey8):
    """Whenever the constructor succeeds, the brute-force singular set is
    exactly its output; outputs are cyclic palindromes; vectors with three
    or more odd entries always fail.  Totals <= 8."""
    successes = 0
    failures = 0
    for (k, counts), rows in survey8.items():
        alphabet = alphabet_of_size(k)
        outcome, _ = construct_singular(alphabet.vector(counts))
        singular = {
            indices for indices, membership in rows if membership.in_S
        }
        if outcome is not None:
            assert singular == {outcome.indices}, (k, counts)
            assert outcome.reverse() == outcome
            successes += 1
        else:
            failures += 1
        if sum(c % 2 for c in counts) > 2:
            assert outcome is None, (k, counts)
    _ok(
        "criterion 7: constructor uniqueness",
        f"{successes} successes, {failures} failures",
    )


def test_criterion_7_binary_triple_equivalence():
    """singular <=> balanced <=> Christoffel for every binary cyclic word
    of length <= 10, balance read by the scan of every cyclic factor and
    by ``is_balanced``."""
    ab = alphabet_of_size(2)
    checked = 0
    for n in range(1, 11):
        for p in range(n + 1):
            q = n - p
            chris = christoffel(p, q)
            for omega in enumerate_class(ab.vector((p, q))):
                singular = is_singular(omega)
                balanced = balanced_by_factors(omega.indices)
                assert singular == balanced == (omega == chris)
                assert is_balanced(omega) == balanced
                checked += 1
    _ok("criterion 7: binary equivalence", f"{checked} words")


def test_criterion_8_semiregular_max_moves_with_values():
    """The semi-regular maximum of (1,2,1,2,1) depends on the values and
    not just on their order: two value sets in the same order pick two
    different reversal pairs, and a third ties all four singular words.
    Each value is checked by the definition, the maximum against every
    member of the class (180 necklaces), and each optimum's in_S flag."""
    expected = {
        (2, 3, 4, 5, 6): (6098, ["adcbdbe", "aebdbcd"], True),
        (5, 12, 14, 22, 53): (250571372, ["adbdcbe", "aebcdbd"], True),
        (2, 3, 4, 5, 10): (
            10898, ["adbdcbe", "adcbdbe", "aebcdbd", "aebdbcd"], False),
    }
    for values, (value, optima, unique) in expected.items():
        alphabet = alphabet_of_size(5, values=values)
        vector = alphabet.vector((1, 2, 1, 2, 1))
        report = search(vector, valuation="semiregular", direction="max")
        assert report.value == value
        assert [str(w) for w in report.optima] == optima
        assert report.unique_up_to_reversal is unique
        assert report.class_size == 180
        by_definition = {
            str(w): cyclic_by_definition([values[i] for i in w.indices], -1)
            for w in enumerate_class(vector)
        }
        assert len(by_definition) == 180
        assert max(by_definition.values()) == value
        assert sorted(w for w, v in by_definition.items() if v == value) == optima
        for w in report.optima:
            assert classify(w).in_S
        assert all(c.in_S for c in report.certificates)
    _ok("criterion 8: value-dependent maximum", "three value sets on (1,2,1,2,1)")
