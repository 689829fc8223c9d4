import random
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycont import extremal, words
from cycont.continuants import (
    _LEAF,
    DomainError,
    cyclic_regular,
    cyclic_semiregular,
)
from cycont.extremal import (
    ClassMembership,
    SyncKind,
    build_exchange_graph,
    classify,
    exchange,
    is_synchronizing,
    reversal_class_representative,
    search,
)
from cycont.words import (
    CyclicWord,
    LinearWord,
    OrderedAlphabet,
    alphabet_of_size,
    enumerate_class,
    least_rotation_index,
    split_points,
)
from cycont.singular import construct_singular, is_singular

from oracles import (
    _arrangements,
    _less_than_reversal,
    check_lintocirc,
    classes_by_sweep,
    classify_by_cuts,
    exchange_graphs_by_cuts,
    matrix_continuant,
    necklace_count,
    naive_canonical,
    nonnegative_compositions,
    splits_by_slicing,
)
from oracles import positive_compositions as _positive_compositions

V234 = OrderedAlphabet(("2", "3", "4"), (2, 3, 4))
WIDE = OrderedAlphabet(tuple(f"x{i}" for i in range(300)))


class TestIsSynchronizing:
    def test_known_synchronizing_split(self, ab):
        assert is_synchronizing(ab.word("aaaab"), ab.word("ab"), SyncKind.PLAIN)

    def test_known_non_synchronizing_split(self, ab):
        assert not is_synchronizing(ab.word("aab"), ab.word("abaa"), SyncKind.PLAIN)

    def test_all_splits_of_aaabaab_synchronize(self, ab):
        for u, v in split_points(ab.cyclic("aaabaab")):
            assert is_synchronizing(u, v, SyncKind.PLAIN)

    def test_palindromic_argument_rejected(self, ab):
        with pytest.raises(ValueError):
            is_synchronizing(ab.word("aa"), ab.word("ab"))
        with pytest.raises(ValueError):
            is_synchronizing(ab.word("ab"), ab.word("aba"))


class TestClassify:
    def test_all_synchronizing_example(self, ab):
        assert classify(ab.cyclic("aaabaab")).in_S

    def test_mixed_example(self, ab):
        m = classify(ab.cyclic("aaaabab"))
        assert not m.in_S
        assert not m.in_U

    def test_ternary_sink(self, abc):
        assert classify(abc.cyclic("abcabc")).in_S

    def test_vacuous_when_no_split_exists(self, ab):
        for text in ("a", "aa", "ab", "aab"):
            m = classify(ab.cyclic(text))
            assert (m.in_S, m.in_S_alt, m.in_U, m.in_U_alt) == (True,) * 4

    def test_reversal_invariance(self, abc):
        for n in range(2, 7):
            for t in product(range(3), repeat=n):
                omega = CyclicWord(LinearWord(abc, t))
                assert classify(omega) == classify(omega.reverse())


def _classify_indices(t: tuple) -> ClassMembership:
    return classify(CyclicWord(LinearWord(alphabet_of_size(max(t) + 1), t)))


class TestClassifyAgainstCuts:
    """classify against the cubic every-cut oracle, all four flags."""

    @pytest.mark.parametrize("letters,max_len", [(3, 9), (4, 7)])
    def test_every_short_word(self, letters, max_len):
        for n in range(1, max_len + 1):
            for t in product(range(letters), repeat=n):
                if t == naive_canonical(t):
                    assert _classify_indices(t) == classify_by_cuts(t), t

    def test_powers_of_short_words(self):
        for n in range(1, 5):
            for base in product(range(3), repeat=n):
                for power in range(2, 16 // n + 1):
                    t = base * power
                    assert _classify_indices(t) == classify_by_cuts(t), t

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
        st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_words_up_to_forty_letters(self, word, period):
        """The word itself, or the power of its first `period` letters."""
        p = min(period, len(word))
        t = tuple(word[:p]) * (len(word) // p)
        assert _classify_indices(t) == classify_by_cuts(t)

    @pytest.mark.parametrize("letters", [2, 3, 5, 300])
    def test_a_300_letter_alphabet(self, letters):
        """Random words of 1-200 letters over a 300-letter alphabet, drawn
        from ``letters`` of its letters, one of them past 255: they take the
        cut table's guarded branch.  The same word over the ranks of its
        letters, which keep their order, takes the byte branch.  Both match
        the oracle, and so do the splits of the words up to 40 letters."""
        rng = random.Random(letters)
        for _ in range(40):
            pool = rng.sample(range(256, 300), 1) + rng.sample(range(300), letters - 1)
            t = tuple(rng.choice(pool) for _ in range(rng.randint(1, 200)))
            rank = {c: i for i, c in enumerate(sorted(set(t)))}
            expected = classify_by_cuts(t)
            omega = CyclicWord(LinearWord(WIDE, t))
            assert classify(omega) == expected, t
            small = tuple(rank[c] for c in t)
            assert classify(CyclicWord(LinearWord(WIDE, small))) == expected, t
            if len(t) <= 40:
                got = [(u.indices, v.indices) for u, v in split_points(omega)]
                assert got == list(splits_by_slicing(omega.indices)), t

    def test_a_singular_word_past_255(self):
        """A constructed singular word keeps its classes when its letters
        move to 297-299, where random words fall out of all four at once."""
        t = tuple(297 + c for c in _constructed(SINGULAR_SHORT[0]).indices)
        membership = classify(CyclicWord(LinearWord(WIDE, t)))
        assert membership.in_S
        assert membership == classify_by_cuts(t)


# Vectors whose descent succeeds, giving singular words of 104-300 letters;
# the words of at most 120 letters also go to the oracle.
SINGULAR_SHORT = [(69, 32, 9), (68, 12, 32), (20, 42, 39, 13), (12, 7, 43, 44)]
SINGULAR_LONG = [(24, 55, 88, 11), (63, 92, 76), (84, 97, 20, 76), (98, 51, 92, 59)]


def _constructed(counts) -> CyclicWord:
    word, _ = construct_singular(alphabet_of_size(len(counts)).vector(counts))
    assert word is not None, counts
    return word


def _swap_middle_pair(omega: CyclicWord) -> CyclicWord:
    """omega with the adjacent unequal pair nearest its middle swapped."""
    t = list(omega.indices)
    i = min(
        (i for i in range(len(t) - 1) if t[i] != t[i + 1]),
        key=lambda i: abs(2 * i - len(t)),
    )
    t[i], t[i + 1] = t[i + 1], t[i]
    return CyclicWord(LinearWord(omega.alphabet, tuple(t)))


class TestClassifyLongWords:
    @pytest.mark.parametrize("counts", SINGULAR_SHORT + SINGULAR_LONG)
    def test_constructed_words_are_singular(self, counts):
        word = _constructed(counts)
        assert 100 <= len(word) <= 300
        assert is_singular(word)

    @pytest.mark.parametrize("counts", SINGULAR_SHORT)
    def test_constructed_words_match_the_oracle(self, counts):
        word = _constructed(counts)
        assert classify(word) == classify_by_cuts(word.indices)

    @pytest.mark.parametrize("counts", SINGULAR_SHORT + SINGULAR_LONG)
    def test_one_swap_breaks_singularity(self, counts):
        """The singular word is unique in its class up to reversal, so a
        swapped neighbour pair gives a long non-singular word."""
        word = _constructed(counts)
        swapped = _swap_middle_pair(word)
        assert swapped not in (word, word.reverse())
        membership = classify(swapped)
        assert not membership.in_S
        assert membership == classify_by_cuts(swapped.indices)

    def test_memory_stays_far_below_a_square_table(self):
        """A 700-letter word: an n x n table of ints alone takes ~4 MB."""
        word = _constructed((150, 200, 250, 100))
        assert len(word) == 700
        tracemalloc.start()
        try:
            classify(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestExchange:
    def test_named_move(self, ab):
        omega = ab.cyclic("aaaabab")
        moved = exchange(omega, (ab.word("aab"), ab.word("abaa")))
        assert moved == ab.cyclic("aaabaab")

    def test_involution_on_same_cut(self, ab):
        omega = ab.cyclic("aaaabab")
        u, v = ab.word("aab"), ab.word("abaa")
        back = exchange(exchange(omega, (u, v)), (u.reverse(), v))
        assert back == omega

    def test_parikh_preserved_exhaustively(self, abc):
        for n in range(2, 7):
            for counts in nonnegative_compositions(n, 3):
                vector = abc.vector(counts)
                for omega in enumerate_class(vector):
                    for u, v in split_points(omega):
                        assert exchange(omega, (u, v)).parikh() == vector

    def test_invalid_split_rejected(self, ab):
        omega = ab.cyclic("aaaabab")
        with pytest.raises(ValueError):
            exchange(omega, (ab.word("ab"), ab.word("ab")))
        with pytest.raises(ValueError):
            exchange(omega, (ab.word("aa"), ab.word("aabab")))


class TestValueExchangeDirections:
    def test_directions_on_every_nonsynchronizing_split(self):
        """Plain moves raise the semi-regular value, alt moves lower the
        regular one; exhaustive over digits {2,3,4}, totals <= 6."""
        for n in range(2, 7):
            for counts in nonnegative_compositions(n, 3):
                vector = V234.vector(counts)
                for omega in enumerate_class(vector):
                    base_s = cyclic_semiregular(omega)
                    base_r = cyclic_regular(omega)
                    for u, v in split_points(omega):
                        moved = exchange(omega, (u, v))
                        if not is_synchronizing(u, v, SyncKind.PLAIN):
                            assert cyclic_semiregular(moved) > base_s
                        if not is_synchronizing(u, v, SyncKind.ALT):
                            assert cyclic_regular(moved) < base_r


class TestSearch:
    def test_five_letter_maximum(self, ab5v):
        report = search(ab5v.vector((1, 2, 2, 2, 1)), valuation="semiregular",
                        direction="max")
        assert report.value == 22751
        y = ab5v.cyclic("bdbccdae")
        assert set(report.optima) == {y, y.reverse()}
        assert report.unique_up_to_reversal
        assert all(c.in_S for c in report.certificates)
        assert report.class_size == 630

    def test_five_letter_other_values(self, ab5v):
        report = search(ab5v.vector((1, 2, 2, 2, 1)), values=(2, 3, 4, 10, 11),
                        valuation="semiregular", direction="max")
        assert report.value == 213920
        x = ab5v.cyclic("bccdbdae")
        assert set(report.optima) == {x, x.reverse()}
        assert report.unique_up_to_reversal

    def test_five_letter_tie(self, ab5v):
        report = search(ab5v.vector((1, 2, 2, 2, 1)), values=(2, 3, 4, 9, 10),
                        valuation="semiregular", direction="max")
        assert report.value == 153347
        x, y = ab5v.cyclic("bccdbdae"), ab5v.cyclic("bdbccdae")
        assert set(report.optima) == {x, x.reverse(), y, y.reverse()}
        assert not report.unique_up_to_reversal
        assert all(c.in_S for c in report.certificates)

    def test_min_regular_binary(self):
        v23 = OrderedAlphabet(("a", "b"), (2, 3))
        report = search(v23.vector((2, 2)), valuation="regular", direction="min")
        values = {
            str(w): cyclic_regular(w) for w in enumerate_class(v23.vector((2, 2)))
        }
        assert report.value == min(values.values())
        assert {str(w) for w in report.optima} == {
            w for w, val in values.items() if val == report.value
        }
        assert all(c.in_S_alt for c in report.certificates)

    def test_degenerate_class_returns_unique_member(self, ab):
        report = search(ab.vector((3, 0)), values=(2, 3), valuation="regular",
                        direction="max")
        assert [str(w) for w in report.optima] == ["aaa"]
        assert report.class_size == 1
        assert report.unique_up_to_reversal
        cert = report.certificates[0]
        assert (cert.in_S, cert.in_S_alt, cert.in_U, cert.in_U_alt) == (True,) * 4

    def test_zero_vector_rejected(self, ab):
        with pytest.raises(ValueError):
            search(ab.vector((0, 0)), values=(2, 3))

    def test_values_must_follow_symbol_order(self, ab):
        with pytest.raises(DomainError):
            search(ab.vector((2, 1)), values=(3, 2), valuation="regular",
                   direction="max")

    def test_membership_with_sparse_values(self):
        """The optimizer class predictions hold for non-consecutive digit
        values too: (3,7) binary to total 9, (2,5,11) ternary to total 7."""
        cases = [
            ("regular", "min", "in_S_alt"),
            ("regular", "max", "in_U_alt"),
            ("semiregular", "min", "in_U"),
            ("semiregular", "max", "in_S"),
        ]
        setups = [
            (OrderedAlphabet(("a", "b"), (3, 7)), 9),
            (OrderedAlphabet(("a", "b", "c"), (2, 5, 11)), 7),
        ]
        for alphabet, max_total in setups:
            k = len(alphabet)
            for total in range(k, max_total + 1):
                for counts in _positive_compositions(total, k):
                    vector = alphabet.vector(counts)
                    for valuation, direction, flag in cases:
                        report = search(
                            vector, valuation=valuation, direction=direction
                        )
                        assert all(
                            getattr(c, flag) for c in report.certificates
                        ), (counts, valuation, direction)

    @pytest.mark.parametrize("valuation", ["regular", "semiregular"])
    def test_matches_brute_force_over_every_small_class(self, valuation):
        """Every vector of total <= 8 over <= 4 letters, zero counts
        included, both directions: the value, the complete optimum set in
        lexicographic order, and the class size agree with a sweep of all
        k^n words scored by matrix products."""
        values = (1, 2, 3, 5) if valuation == "regular" else (2, 3, 4, 7)
        sign = 1 if valuation == "regular" else -1
        for k in range(1, 5):
            alphabet = alphabet_of_size(k, values=values[:k])
            for n in range(1, 9):
                for counts, members in classes_by_sweep(k, n).items():
                    scored = {
                        t: matrix_continuant([values[i] for i in t], sign)
                        + sign * matrix_continuant([values[i] for i in t[1:-1]], sign)
                        for t in members
                    }
                    for direction, pick in (("max", max), ("min", min)):
                        report = search(
                            alphabet.vector(counts),
                            valuation=valuation,
                            direction=direction,
                        )
                        best = pick(scored.values())
                        expect = sorted(t for t, v in scored.items() if v == best)
                        key = (counts, direction)
                        assert report.value == best, key
                        assert [w.indices for w in report.optima] == expect, key
                        assert report.class_size == necklace_count(counts), key
                        assert report.class_size == len(members), key

    @pytest.mark.parametrize("counts", [(70, 1, 1), (1, 70, 1)])
    def test_semiregular_maximum_past_the_product_leaf(self, counts):
        """Words longer than ``continuants._LEAF`` are scored by the halved
        product: the value, the ordered optima, the certificates and the
        class size agree with every member scored by matrix products."""
        assert sum(counts) > _LEAF
        values = (2, 5, 11)
        members = {naive_canonical(w) for w in _arrangements(counts)}
        scored = {t: _cyclic_value(t, values, -1) for t in members}
        best = max(scored.values())
        expect = sorted(t for t, v in scored.items() if v == best)
        report = search(alphabet_of_size(3, values=values).vector(counts),
                        valuation="semiregular", direction="max")
        assert report.value == best
        assert [w.indices for w in report.optima] == expect
        assert report.certificates == tuple(classify_by_cuts(t) for t in expect)
        assert report.class_size == len(members)

    def test_one_letter_convention(self):
        """A lone letter x scores x + 1 (regular) and x - 1 (semi-regular),
        the cyclic evaluators' value on that word."""
        alphabet = alphabet_of_size(3, values=(2, 5, 9))
        vector = alphabet.vector((0, 1, 0))
        word = alphabet.cyclic("b")
        for valuation, evaluate, expect in (
            ("regular", cyclic_regular, 6),
            ("semiregular", cyclic_semiregular, 4),
        ):
            for direction in ("max", "min"):
                report = search(vector, valuation=valuation, direction=direction)
                assert report.value == expect == evaluate(word)
                assert report.optima == (word,)
                assert report.class_size == 1

    def test_memory_does_not_grow_with_the_class(self, ab5v):
        """Only the running optimum and its ties are held: scoring the
        11,352 members of (2,2,2,2,2) peaks under half a megabyte."""
        vector = ab5v.vector((2, 2, 2, 2, 2))
        tracemalloc.start()
        try:
            report = search(vector, valuation="semiregular", direction="max")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.class_size == 11_352
        assert peak < 512 * 1024


# The three problems with one optimum up to reversal, which ``search``
# builds, and the class flag that certifies each optimum.
CONSTRUCTED = (("regular", "max", "in_U_alt"), ("regular", "min", "in_S_alt"),
               ("semiregular", "min", "in_U"))
# Value sets: with the value 1, consecutive, and widely spaced.
SEARCH_VALUES = {
    "regular": ((1, 2, 3, 5), (2, 7, 20, 61), (1, 10, 100, 1000)),
    "semiregular": ((2, 3, 4, 5), (2, 5, 11, 30), (3, 10, 50, 200)),
}


def _cyclic_value(t: tuple, values, sign: int) -> int:
    vals = [values[i] for i in t]
    return matrix_continuant(vals, sign) + sign * matrix_continuant(vals[1:-1], sign)


@pytest.fixture(scope="module")
def classes_to_ten():
    """Every vector over a, b, c, d with total 1-10, zero counts included,
    with its class as index tuples, listed by the enumeration walk."""
    abcd = alphabet_of_size(4)
    return {
        counts: [w.indices for w in enumerate_class(abcd.vector(counts))]
        for n in range(1, 11)
        for counts in nonnegative_compositions(n, 4)
    }


class TestSearchOptima:
    """The constructions answer regular max, regular min and semi-regular
    min, and the pruned enumeration semi-regular max, with the report an
    exhaustive search gives."""

    @pytest.mark.parametrize("pick", range(3))
    def test_matches_the_scored_class(self, classes_to_ten, pick):
        """Every vector of total <= 10 over <= 4 letters, all four problems:
        the value, the ordered optima, the certificates, uniqueness and the
        class size, against every member scored by matrix products.  Only
        the semi-regular maximum may tie."""
        for valuation in ("regular", "semiregular"):
            values = SEARCH_VALUES[valuation][pick]
            alphabet = alphabet_of_size(4, values=values)
            sign = 1 if valuation == "regular" else -1
            for counts, members in classes_to_ten.items():
                scored = {t: _cyclic_value(t, values, sign) for t in members}
                for direction in ("max", "min"):
                    best = (max if direction == "max" else min)(scored.values())
                    expect = sorted(t for t, v in scored.items() if v == best)
                    report = search(alphabet.vector(counts), valuation=valuation,
                                    direction=direction)
                    key = (counts, valuation, direction, values)
                    assert report.value == best, key
                    assert [w.indices for w in report.optima] == expect, key
                    assert report.certificates == tuple(
                        classify_by_cuts(t) for t in expect
                    ), key
                    unique = len(expect) == 1 or (
                        len(expect) == 2
                        and naive_canonical(expect[0][::-1]) == expect[1]
                    )
                    assert report.unique_up_to_reversal == unique, key
                    may_tie = (valuation, direction) == ("semiregular", "max")
                    assert unique or may_tie, key
                    assert report.class_size == len(members), key

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=2, max_size=4).filter(
        lambda c: 20 <= sum(c) <= 60))
    def test_end_word_is_in_the_certifying_class(self, counts):
        """At 20-60 letters, each optimum has the vector's content, the
        reported value, and the class flag that certifies it."""
        values = (2, 3, 5, 8)[: len(counts)]
        alphabet = alphabet_of_size(len(counts), values=values)
        for valuation, direction, flag in CONSTRUCTED:
            sign = 1 if valuation == "regular" else -1
            report = search(alphabet.vector(counts), valuation=valuation,
                            direction=direction)
            assert len(report.optima) in (1, 2)
            t = report.optima[0].indices
            assert [t.count(i) for i in range(len(counts))] == counts
            assert _cyclic_value(t, values, sign) == report.value
            assert getattr(classify_by_cuts(t), flag), (counts, valuation)

    def test_certified_members_are_the_constructions(self):
        """The theorem the constructed answers rest on: on every vector of
        2-4 letters with counts 0..4 and total <= 11, the members in U,
        U_alt and S_alt are exactly the fold, the unimodal word and the
        zigzag, each with its reversal."""
        checked = 0
        for k in range(2, 5):
            alphabet = alphabet_of_size(k)
            for counts in product(range(5), repeat=k):
                if not 1 <= sum(counts) <= 11:
                    continue
                members = [(w.indices, classify(w))
                           for w in enumerate_class(alphabet.vector(counts))]
                s = tuple(i for i, c in enumerate(counts) for _ in range(c))
                for valuation, direction, flag in CONSTRUCTED:
                    t = extremal._OPTIMUM[valuation, direction][0](s)
                    expect = {naive_canonical(t), naive_canonical(t[::-1])}
                    got = {u for u, m in members if getattr(m, flag)}
                    assert got == expect, (counts, flag)
                checked += 1
        assert checked == 701

    @pytest.mark.parametrize("valuation,direction,flag", CONSTRUCTED)
    def test_an_uncertified_construction_raises(
        self, monkeypatch, valuation, direction, flag
    ):
        """A builder that returns the sorted word, which is not certified
        here, makes ``search`` raise instead of answering."""
        vector = _vector((2, 2, 2))
        assert not getattr(classify(vector.alphabet.cyclic("aabbcc")), flag)
        monkeypatch.setitem(
            extremal._OPTIMUM, (valuation, direction), (lambda s: s, flag)
        )
        with pytest.raises(RuntimeError, match=f"is not {flag}"):
            search(vector, (2, 3, 4), valuation, direction)

    @pytest.mark.parametrize("valuation,direction,flag", CONSTRUCTED)
    def test_a_built_optimum_is_classified_once(
        self, monkeypatch, valuation, direction, flag
    ):
        """The reversal shares the word's certificate, so one classify call
        certifies both reported optima."""
        calls = []

        def counting(omega):
            calls.append(omega)
            return classify(omega)

        monkeypatch.setattr(extremal, "classify", counting)
        report = search(_vector((1, 1, 2, 1)), (2, 3, 4, 5), valuation, direction)
        assert len(report.optima) == 2
        assert len(calls) == 1
        assert report.certificates == tuple(classify(w) for w in report.optima)

    @pytest.mark.parametrize("valuation,direction,flag", CONSTRUCTED)
    def test_a_built_optimum_takes_two_least_rotations(
        self, monkeypatch, valuation, direction, flag
    ):
        """One least rotation for the built word and one for its reversal;
        the optima are that pair, so uniqueness takes no third."""
        calls = []

        def counting(t):
            calls.append(t)
            return least_rotation_index(t)

        monkeypatch.setattr(words, "least_rotation_index", counting)
        report = search(_vector((2, 1, 3, 1)), (2, 3, 4, 5), valuation, direction)
        assert len(calls) == 2
        assert len(report.optima) == 2
        assert report.unique_up_to_reversal

    def test_refuses_a_trillion_letters_at_once(self, ab):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="cut-table cap"):
                search(ab.vector((1, 10**12)), values=(2, 3),
                       valuation="regular", direction="min")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 64 * 1024


def _vector(counts):
    return alphabet_of_size(len(counts)).vector(counts)


def _values(counts):
    return tuple(range(2, len(counts) + 2))


class TestWorkCap:
    """Semi-regular max search and the exchange graph are charged the class
    size times a cost per member before they enumerate, and refused at
    once past WORK_CAP."""

    @pytest.mark.parametrize("counts", [(1,) * 14, (2,) * 7, (2000, 1, 1)])
    def test_search_refuses_at_once(self, counts):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="work cap"):
            search(_vector(counts), _values(counts), "semiregular", "max")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("counts", [(1,) * 14, (2,) * 7, (80, 1, 1, 1)])
    def test_graph_refuses_at_once(self, counts):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="work cap"):
            build_exchange_graph(_vector(counts))
        assert time.perf_counter() - start < 1

    def test_search_is_charged_per_member(self, monkeypatch):
        """8,7 has 429 cyclic words of 15 letters."""
        charge = 429 * extremal._search_cost(15)
        monkeypatch.setattr(extremal, "WORK_CAP", charge)
        report = search(_vector((8, 7)), (2, 3), "semiregular", "max")
        assert report.class_size == 429
        monkeypatch.setattr(extremal, "WORK_CAP", charge - 1)
        with pytest.raises(DomainError, match="class of 429 cyclic words"):
            search(_vector((8, 7)), (2, 3), "semiregular", "max")

    def test_graph_is_charged_per_member(self, monkeypatch):
        """2,2,2 has 16 cyclic words of 6 letters."""
        charge = 16 * extremal._graph_cost(6)
        monkeypatch.setattr(extremal, "WORK_CAP", charge)
        assert len(build_exchange_graph(_vector((2, 2, 2))).vertices) == 11
        monkeypatch.setattr(extremal, "WORK_CAP", charge - 1)
        with pytest.raises(DomainError, match="class of 16 cyclic words"):
            build_exchange_graph(_vector((2, 2, 2)))

    def test_walked_problems_are_not_charged_for_the_class(self, monkeypatch):
        """The constructed problems enumerate nothing, so nothing is charged
        against the work cap."""
        monkeypatch.setattr(extremal, "WORK_CAP", 0)
        for valuation, direction, _ in CONSTRUCTED:
            report = search(_vector((2, 2)), (2, 3), valuation, direction)
            assert report.class_size == 2

    def test_a_word_past_the_cap_is_refused_before_counting(self):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="one word of 2000000000000"):
            build_exchange_graph(_vector((10**12, 10**12)))
        with pytest.raises(DomainError, match="one word of 2000000000000"):
            search(_vector((10**12, 10**12)), (2, 3), "semiregular", "max")
        assert time.perf_counter() - start < 1


class TestExchangeGraph:
    def test_ternary_222_structure(self, abc):
        graph = build_exchange_graph(abc.vector((2, 2, 2)), SyncKind.PLAIN)
        assert [str(v) for v in graph.sources()] == ["aabccb"]
        assert sorted(str(v) for v in graph.sinks()) == ["abbcac", "abcabc"]
        assert graph.is_acyclic()
        order = graph.topological_order()
        assert len(order) == len(graph.vertices)

    @pytest.mark.parametrize("kind,order", [
        (SyncKind.PLAIN, "aabccb aabbcc ababcc abbacc aabcbc abcbac abcacb "
                         "abacbc aacbbc abcabc abbcac"),
        (SyncKind.ALT, "aabccb aabbcc ababcc abbacc aabcbc aacbbc abcabc "
                       "abcbac abcacb abacbc abbcac"),
    ])
    def test_ternary_222_topological_order(self, abc, kind, order):
        """Kahn's algorithm takes the last vertex found first, so the order
        is this one exactly (the exchange-graph demo prints it)."""
        graph = build_exchange_graph(abc.vector((2, 2, 2)), kind)
        assert [str(v) for v in graph.topological_order()] == order.split()

    def test_successors_of_a_word_outside_the_graph(self, abc):
        graph = build_exchange_graph(abc.vector((2, 2, 2)), SyncKind.PLAIN)
        vertex = graph.vertices[3]
        assert graph.successors(vertex)  # a vertex with edges: the lookup works
        outside = (
            abc.cyclic("aaabbc"),  # another class of the same length
            CyclicWord(LinearWord(alphabet_of_size(4), vertex.indices)),
            abc.cyclic("aabbccc"),  # another length
        )
        for word in outside:
            with pytest.raises(KeyError):
                graph.successors(word)

    def test_single_vertex_class(self, ab):
        graph = build_exchange_graph(ab.vector((2, 1)), SyncKind.PLAIN)
        assert len(graph.vertices) == 1
        assert str(graph.vertices[0]) == "aab"
        assert graph.successors(graph.vertices[0]) == ()

    def test_sinks_are_exactly_singular_members(self, abc):
        for counts in ((2, 2, 2), (1, 2, 2), (3, 1, 1)):
            vector = abc.vector(counts)
            for kind in (SyncKind.PLAIN, SyncKind.ALT):
                graph = build_exchange_graph(vector, kind)
                sinks = set(graph.sinks())
                for omega in enumerate_class(vector):
                    m = classify(omega)
                    flag = m.in_S if kind is SyncKind.PLAIN else m.in_S_alt
                    rep = reversal_class_representative(omega)
                    assert (rep in sinks) == flag

    def test_sources_are_exactly_u_members(self, abc):
        vector = abc.vector((2, 2, 2))
        graph = build_exchange_graph(vector, SyncKind.PLAIN)
        sources = set(graph.sources())
        for omega in enumerate_class(vector):
            rep = reversal_class_representative(omega)
            assert (rep in sources) == classify(omega).in_U

    def test_edges_stay_in_class(self, abc):
        vector = abc.vector((1, 2, 1))
        graph = build_exchange_graph(vector, SyncKind.ALT)
        for v in graph.vertices:
            assert v.parikh() == vector
            for t in graph.successors(v):
                assert t.parikh() == vector

    @staticmethod
    def _assert_matches_cut_oracle(counts):
        alphabet = alphabet_of_size(len(counts))
        oracle = exchange_graphs_by_cuts(counts)  # one sweep for both kinds
        for kind in (SyncKind.PLAIN, SyncKind.ALT):
            graph = build_exchange_graph(alphabet.vector(counts), kind)
            vertices, edges = oracle[kind is SyncKind.ALT]
            assert tuple(v.indices for v in graph.vertices) == vertices
            assert len(graph.targets) == len(vertices)
            for targets in graph.targets:  # ascending positions, in range
                assert targets == tuple(sorted(set(targets))), (counts, kind)
                assert all(0 <= t < len(vertices) for t in targets), (counts, kind)
            for v in graph.vertices:
                got = tuple(t.indices for t in graph.successors(v))
                assert got == edges[v.indices], (counts, kind, v)

    @pytest.mark.parametrize("letters", [1, 2, 3, 4])
    def test_edges_match_the_cut_oracle(self, letters):
        """Vertices and every successor tuple, in order, on every vector
        with counts 0..3, both kinds."""
        for counts in product(range(4), repeat=letters):
            if any(counts):
                self._assert_matches_cut_oracle(counts)

    @pytest.mark.parametrize(
        "counts", [(12, 1, 1), (9, 2, 1), (1, 1, 12), (3, 3, 3), (4, 4), (2, 2, 2, 2)]
    )
    def test_edges_match_the_cut_oracle_on_skewed_and_periodic_classes(self, counts):
        """A frequent and a rare least letter (long and single runs to
        step over), and classes with vertices of period below n."""
        self._assert_matches_cut_oracle(counts)

    @pytest.mark.parametrize("counts", [(2, 2), (3, 3, 3), (2, 2, 1, 1), (0, 3, 0, 2),
                                        (1, 1, 1), (2, 2, 2, 2), (3, 1, 2, 1, 1)])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_small_batches_match_the_cut_oracle(self, monkeypatch, counts, batch):
        """The cut table built for batches of one and of seven vertices, so
        that batch ends fall inside every class of more than seven:
        vertices and edges as the oracle's.  The classes have the rarest
        letter in runs, tied rarest letters, zero counts, fewer than four
        letters, and periodic vertices."""
        monkeypatch.setattr(extremal, "_BATCH", batch)
        self._assert_matches_cut_oracle(counts)

    @pytest.mark.parametrize("letters,max_len", [(2, 10), (3, 10), (4, 8)])
    def test_a_cut_and_its_complement_give_one_edge(self, letters, max_len):
        """The rule the build's halving rests on, read from the slicing
        oracle's cuts of every word up to rotation.  The complement (s + m,
        n - m) of an admissible cut (s, m) of u v is admissible; its moved
        word v* u is the reversal of u* v, so both give the same vertex; and
        it is apart exactly when (s, m) is, under both kinds."""
        for n in range(4, max_len + 1):
            for t in product(range(letters), repeat=n):
                if t != naive_canonical(t):
                    continue
                cuts = {  # (rotation, m) -> moved word, apart plain, apart alt
                    (u + v, len(u)): (u[::-1] + v, *(
                        _less_than_reversal(u, alt) != _less_than_reversal(v, alt)
                        for alt in (False, True)
                    ))
                    for u, v in splits_by_slicing(t)
                }
                for (r, m), (moved, *apart) in cuts.items():
                    other, *other_apart = cuts[r[m:] + r[:m], n - m]
                    assert other == moved[::-1], (t, r, m)
                    assert other_apart == apart, (t, r, m)

    @pytest.mark.parametrize("counts", [(2, 2, 2), (3, 2, 1, 2)])
    def test_build_makes_no_least_rotation_pass(self, counts, monkeypatch):
        """Every word the build canonicalises is a rotation of a necklace
        the class walk produced, so it is looked up, never run through
        least_rotation_index."""
        calls = []

        def counting(t):
            calls.append(t)
            return least_rotation_index(t)

        monkeypatch.setattr(words, "least_rotation_index", counting)
        vector = _vector(counts)
        for kind in (SyncKind.PLAIN, SyncKind.ALT):
            graph = build_exchange_graph(vector, kind)
            assert sum(len(graph.successors(v)) for v in graph.vertices) > 0
        assert calls == []
        CyclicWord(LinearWord(vector.alphabet, (1, 0)))  # the patch is live
        assert calls == [(1, 0)]

    def test_acyclic_with_unique_source_small_sweep(self):
        """Both exchange graphs are DAGs with one source on every class
        with positive counts, <= 4 letters, total <= 7."""
        for k in range(1, 5):
            alphabet = alphabet_of_size(k)
            for total in range(k, 8):
                for counts in _positive_compositions(total, k):
                    vector = alphabet.vector(counts)
                    for kind in (SyncKind.PLAIN, SyncKind.ALT):
                        graph = build_exchange_graph(vector, kind)
                        assert graph.is_acyclic(), (counts, kind)
                        assert len(graph.sources()) == 1, (counts, kind)
                        assert graph.sinks(), (counts, kind)

    def test_edge_value_monotonicity_total_eight(self):
        """On every symmetric class with total <= 8 over <= 5 letters
        (values 2,3,4,5,6): plain edges strictly raise Kd_cyc, alt edges
        strictly lower K_cyc, and both graphs are acyclic."""
        for k in range(1, 6):
            values = (2, 3, 4, 5, 6)[:k]
            alphabet = alphabet_of_size(k, values=values)
            for counts in _positive_compositions(8, k):
                vector = alphabet.vector(counts)
                plain = build_exchange_graph(vector, SyncKind.PLAIN)
                assert plain.is_acyclic(), counts
                for v in plain.vertices:
                    base = cyclic_semiregular(v)
                    for t in plain.successors(v):
                        assert cyclic_semiregular(t) > base, (counts, v, t)
                alt = build_exchange_graph(vector, SyncKind.ALT)
                assert alt.is_acyclic(), counts
                for v in alt.vertices:
                    base = cyclic_regular(v)
                    for t in alt.successors(v):
                        assert cyclic_regular(t) < base, (counts, v, t)


class TestLinToCirc:
    def test_binary_words_both_kinds(self, abc):
        for n in range(1, 7):
            for t in product(range(2), repeat=n):
                x = LinearWord(abc, t)
                for kind in (SyncKind.PLAIN, SyncKind.ALT):
                    cyclic_side, linear_side = check_lintocirc(x, "c", kind)
                    assert cyclic_side == linear_side

    def test_rejects_word_containing_j(self, ab):
        with pytest.raises(ValueError):
            check_lintocirc(ab.word("aabab"), "b")

    def test_rejects_non_maximal_j(self, abc):
        with pytest.raises(ValueError):
            check_lintocirc(abc.word("aa"), "b")

    def test_ternary_words_both_kinds(self, abcd):
        for n in range(1, 6):
            for t in product(range(3), repeat=n):
                x = LinearWord(abcd, t)
                for kind in (SyncKind.PLAIN, SyncKind.ALT):
                    cyclic_side, linear_side = check_lintocirc(x, "d", kind)
                    assert cyclic_side == linear_side, (t, kind)
