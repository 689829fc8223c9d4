import random
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycont import singular, words
from cycont.continuants import DomainError
from cycont.extremal import SyncKind, classify
from cycont.singular import (
    LetterPair,
    SingleLetter,
    _xi_cyclic,
    _xi_linear,
    _xi_necklace,
    christoffel,
    construct_singular,
    delta,
    delta_profile,
    is_balanced,
    is_singular,
    midpoint_case,
    xi_cyclic,
    xi_linear,
    xi_preimage,
)
from cycont.words import (
    CyclicWord,
    LinearWord,
    OrderedAlphabet,
    alphabet_of_size,
    enumerate_class,
    least_rotation_index,
)

from oracles import (
    all_rotations,
    balanced_by_factors,
    interval_midpoint,
    nonnegative_compositions,
    xi_linear_by_letters,
)


class TestDelta:
    def test_four_letter_vector(self, abcd):
        v = abcd.vector((3, 3, 4, 2))
        assert delta(v, "b") == 4 + 2 - 3

    def test_single_letter_vector(self):
        one = alphabet_of_size(1)
        assert delta(one.vector((7,)), "a") == 0

    def test_five_letter_middle(self, ab5v):
        assert delta(ab5v.vector((1, 2, 2, 2, 1)), "c") == (2 + 1) - (1 + 2)

    def test_profile_antitone(self, abcd):
        for total in range(1, 8):
            for counts in nonnegative_compositions(total, 4):
                profile = delta_profile(abcd.vector(counts))
                for b in range(3):
                    assert profile[b + 1] == profile[b] - (
                        counts[b] + counts[b + 1]
                    )


class TestMidpointCase:
    def test_single_letter_case(self, abc):
        assert midpoint_case(abc.vector((1, 3, 1))) == SingleLetter("b")

    def test_boundary_pair(self, ab):
        assert midpoint_case(ab.vector((2, 2))) == LetterPair("a", "b")

    def test_pair_with_zero_middle(self, abc):
        assert midpoint_case(abc.vector((1, 0, 1))) == LetterPair("a", "c")

    def test_zero_vector_rejected(self, ab):
        with pytest.raises(ValueError):
            midpoint_case(ab.vector((0, 0)))

    def test_matches_interval_oracle_small(self, abcd):
        for total in range(1, 9):
            for counts in nonnegative_compositions(total, 4):
                got = midpoint_case(abcd.vector(counts))
                expect = interval_midpoint(counts)
                if isinstance(got, SingleLetter):
                    assert expect == ("single", abcd.index(got.letter))
                else:
                    assert expect == (
                        "pair",
                        abcd.index(got.low),
                        abcd.index(got.high),
                    )


class TestXiLinear:
    @pytest.mark.parametrize(
        "letter,expect",
        [
            ("a", "aababacaacaad"),
            ("b", "abbbcacad"),
            ("c", "acbcbccaccad"),
            ("d", "adbdbdcdadcdadd"),
        ],
    )
    def test_golden_images(self, abcd, letter, expect):
        assert str(xi_linear(letter, abcd.word("abbcacad"))) == expect

    def test_empty_word(self, abcd):
        assert str(xi_linear("b", abcd.word(""))) == ""

    def test_run_gets_single_insertion(self, ab):
        assert str(xi_linear("b", ab.word("abbba"))) == "abbbba"

    def test_same_side_pairs_get_insertions(self, abcd):
        assert str(xi_linear("b", abcd.word("cd"))) == "cbd"
        assert str(xi_linear("c", abcd.word("ab"))) == "acb"

    def test_kernel_matches_letter_loop_on_every_short_word(self):
        """Every word over 2-5 letters up to lengths 12/8/6/5, the empty
        and one-letter words included, with every letter b."""
        for k, longest in ((2, 12), (3, 8), (4, 6), (5, 5)):
            for n in range(longest + 1):
                for t in product(range(k), repeat=n):
                    for b in range(k):
                        expect = xi_linear_by_letters(b, t)
                        assert _xi_linear(b, t) == expect, (b, t)

    def test_kernel_matches_letter_loop_on_long_random_words(self):
        rng = random.Random(16)
        for n in (1, 2, 299, 300, 4_099, 100_000):
            k = rng.randint(2, 26)
            t = tuple(rng.randrange(k) for _ in range(n))
            for b in {0, t[0], rng.randrange(k), k - 1}:
                assert _xi_linear(b, t) == xi_linear_by_letters(b, t)

    def test_alphabets_past_the_byte_range(self):
        """A 300-letter alphabet takes the list branch: letters and b at
        and above 255, the byte kernel's gap, give the same words."""
        big = OrderedAlphabet(tuple(f"s{i}" for i in range(300)))
        rng = random.Random(300)
        letters = (0, 1, 200, 254, 255, 256, 299)
        for n in (0, 1, 2, 5, 40, 2_000):
            t = tuple(rng.choice(letters) for _ in range(n))
            for b in letters:
                assert _xi_linear(b, t) == xi_linear_by_letters(b, t)
        word = big.word(["s255", "s299", "s3", "s1", "s255", "s255"])
        assert str(xi_linear("s255", word)) == (
            "s255,s255,s299,s3,s255,s1,s255,s255,s255"
        )


class TestXiCyclic:
    def test_algorithm_steps(self, abcd):
        assert xi_cyclic("d", abcd.cyclic("c")) == abcd.cyclic("cd")
        assert xi_cyclic("a", abcd.cyclic("cdd")) == abcd.cyclic("acadad")
        assert xi_cyclic("b", abcd.cyclic("accccadad")) == abcd.cyclic(
            "acbcbcbcadad"
        )

    def test_power_of_the_letter_grows(self, ab):
        assert xi_cyclic("b", ab.cyclic("bb")) == ab.cyclic("bbb")

    def test_representative_independent(self, abc):
        for n in range(1, 7):
            for t in product(range(3), repeat=n):
                omega = CyclicWord(LinearWord(abc, t))
                for b in range(3):
                    results = {
                        CyclicWord(LinearWord(abc, _xi_cyclic(b, r)))
                        for r in all_rotations(t)
                    }
                    assert len(results) == 1
                    assert xi_cyclic(abc.symbols[b], omega) in results

    def test_adds_abs_delta_occurrences_on_singular_words(self, abc):
        for n in range(2, 7):
            for counts in nonnegative_compositions(n, 3):
                vector = abc.vector(counts)
                for omega in enumerate_class(vector):
                    if not is_singular(omega):
                        continue
                    for b, name in enumerate(abc.symbols):
                        d = delta(vector, name)
                        if d == 0:
                            continue
                        image = xi_cyclic(name, omega)
                        assert image.parikh().counts[b] == counts[b] + abs(d)

    def test_necklace_rule_matches_least_rotation(self):
        """The fixed rotation ``_xi_necklace`` picks is the least rotation
        ``least_rotation_index`` finds, for every necklace over 2-5 letters
        up to lengths 14/9/7/6 and every letter: 46,847 pairs."""
        pairs = 0
        for size, longest in ((2, 14), (3, 9), (4, 7), (5, 6)):
            for n in range(1, longest + 1):
                for t in product(range(size), repeat=n):
                    if t != min(all_rotations(t)):
                        continue
                    for b in range(size):
                        y = _xi_cyclic(b, t)
                        k = least_rotation_index(y)
                        assert _xi_necklace(b, t) == y[k:] + y[:k], (b, t)
                        pairs += 1
        assert pairs == 46_847


class TestXiPreimage:
    def test_inverts_named_images(self, abcd):
        assert str(xi_preimage("b", abcd.word("abbbcacad"))) == "abbcacad"
        assert str(xi_preimage("a", abcd.word("aababacaacaad"))) == "abbcacad"

    def test_forbidden_straddle(self, abc):
        assert xi_preimage("b", abc.word("abc")) is None
        assert xi_preimage("b", abc.word("cba")) is None

    def test_forbidden_same_side_pair(self, abcd):
        assert xi_preimage("b", abcd.word("acd")) is None

    def test_linear_boundary_conditions(self, abc):
        assert xi_preimage("b", abc.word("b")) is None
        assert xi_preimage("b", abc.word("ba")) is None
        assert xi_preimage("b", abc.word("ab")) is None
        assert xi_preimage("b", abc.word("bb")) is not None

    def test_cyclic_only_excludes_the_letter_itself(self, abc):
        assert xi_preimage("b", abc.cyclic("b")) is None
        assert xi_preimage("b", abc.cyclic("bb")) == abc.cyclic("b")
        assert xi_preimage("b", abc.cyclic("bc")) == abc.cyclic("c")

    def test_cyclic_round_trip_exhaustive(self, abc):
        for n in range(1, 7):
            for t in product(range(3), repeat=n):
                omega = CyclicWord(LinearWord(abc, t))
                for b in abc.symbols:
                    assert xi_preimage(b, xi_cyclic(b, omega)) == omega

    def test_linear_round_trip_exhaustive(self, ab, abc):
        # Three letters give what two cannot: a letter pair on both sides
        # of b, and rising or falling triples through b.
        for alphabet, top in ((ab, 8), (abc, 6)):
            k = len(alphabet)
            for n in range(0, top + 1):
                for t in product(range(k), repeat=n):
                    x = LinearWord(alphabet, t)
                    for b in alphabet.symbols:
                        assert xi_preimage(b, xi_linear(b, x)) == x

    def test_preimage_hit_implies_image(self, abc):
        for n in range(1, 6):
            for t in product(range(3), repeat=n):
                w = LinearWord(abc, t)
                for b in abc.symbols:
                    back = xi_preimage(b, w)
                    if back is not None:
                        assert xi_linear(b, back) == w

    def test_cyclic_preimage_hit_implies_image(self, abc):
        for n in range(1, 7):
            for t in product(range(3), repeat=n):
                omega = CyclicWord(LinearWord(abc, t))
                for b in abc.symbols:
                    back = xi_preimage(b, omega)
                    if back is not None:
                        assert xi_cyclic(b, back) == omega

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=14), st.integers(0, 3))
    @settings(max_examples=300)
    def test_cyclic_round_trip_random(self, ixs, b):
        abcd = alphabet_of_size(4)
        omega = CyclicWord(LinearWord(abcd, tuple(ixs)))
        letter = abcd.symbols[b]
        assert xi_preimage(letter, xi_cyclic(letter, omega)) == omega


class TestMonotone:
    def test_xi_preserves_plain_order_on_equal_lengths(self, abc):
        from cycont.words import compare_lex

        for n in range(1, 5):
            words = [LinearWord(abc, t) for t in product(range(3), repeat=n)]
            for b in abc.symbols:
                images = {w.indices: xi_linear(b, w) for w in words}
                for u in words:
                    for v in words:
                        assert compare_lex(u, v) == compare_lex(
                            images[u.indices], images[v.indices]
                        )


class TestXiSingularity:
    def test_equivalence_when_delta_nonzero(self, abc):
        for n in range(1, 6):
            for counts in nonnegative_compositions(n, 3):
                vector = abc.vector(counts)
                for omega in enumerate_class(vector):
                    base = is_singular(omega)
                    for name in abc.symbols:
                        if delta(vector, name) == 0:
                            continue
                        assert is_singular(xi_cyclic(name, omega)) == base


class TestConstruct:
    def test_golden_success_trace(self, abcd):
        outcome, trace = construct_singular(abcd.vector((3, 3, 4, 2)))
        assert outcome == abcd.cyclic("acbcbcbcadad")
        assert [s.vector.counts for s in trace.steps] == [
            (3, 0, 4, 2),
            (3, 0, 3, 2),
            (3, 0, 2, 2),
            (3, 0, 1, 2),
            (0, 0, 1, 2),
            (0, 0, 1, 1),
            (0, 0, 1, 0),
        ]
        assert [s.letter for s in trace.steps] == ["b", "c", "c", "c", "a", "d", "d"]
        assert [s.delta for s in trace.steps] == [3, 1, 1, 1, 3, 1, 1]
        assert trace.terminal.counts == (0, 0, 1, 0)
        assert trace.seed_letter == "c"
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
        assert trace.succeeded
        assert outcome.parikh().counts == (3, 3, 4, 2)

    def test_golden_failure_trace(self, abcd):
        outcome, trace = construct_singular(abcd.vector((3, 2, 4, 3)))
        assert outcome is None
        assert not trace.succeeded
        assert trace.words is None
        assert [s.vector.counts for s in trace.steps] == [
            (3, 2, 2, 3),
            (3, 0, 2, 3),
        ]
        assert trace.terminal.counts == (3, 0, 2, 3)

    def test_failure_vector_still_has_singular_words(self, abcd):
        singular = {
            str(w)
            for w in enumerate_class(abcd.vector((3, 2, 4, 3)))
            if is_singular(w)
        }
        named = {"accbccbdadad", "accbdaccbdad"}
        expected = {str(abcd.cyclic(s)) for s in named} | {
            str(abcd.cyclic(s).reverse()) for s in named
        }
        assert singular == expected

    def test_unwinding_makes_no_least_rotation_pass(self, abcd, monkeypatch):
        """Every unwound word comes out as its own least rotation, so neither
        the constructor nor ``xi_cyclic`` runs least_rotation_index.  The
        unwinding of 5,3,6,2 inserts letters below, equal to and above the
        first letter of the word it maps, and ``xi_cyclic`` maps each trace
        word by every letter."""
        calls = []

        def counting(t):
            calls.append(t)
            return least_rotation_index(t)

        monkeypatch.setattr(words, "least_rotation_index", counting)
        _, trace = construct_singular(abcd.vector((5, 3, 6, 2)))
        letters = [abcd.index(s.letter) for s in reversed(trace.steps)]
        firsts = [w.indices[0] for w in trace.words]
        assert {(b > f) - (b < f) for b, f in zip(letters, firsts)} == {-1, 0, 1}
        for omega in trace.words:
            for b in abcd.symbols:
                xi_cyclic(b, omega)
        assert calls == []
        CyclicWord(LinearWord(abcd, (1, 0)))  # the patch is live
        assert calls == [(1, 0)]

    def test_constant_vector(self, abcd):
        outcome, trace = construct_singular(abcd.vector((0, 0, 5, 0)))
        assert str(outcome) == "ccccc"
        assert trace.steps == ()

    def test_zero_vector_rejected(self, ab):
        with pytest.raises(ValueError):
            construct_singular(ab.vector((0, 0)))

    def test_output_is_singular_and_palindromic(self, abcd):
        for total in range(1, 8):
            for counts in nonnegative_compositions(total, 4):
                outcome, _ = construct_singular(abcd.vector(counts))
                if outcome is None:
                    continue
                assert outcome.parikh().counts == counts
                assert is_singular(outcome)
                assert outcome.reverse() == outcome


class TestDescentAreaCap:
    """(1, N) descends one letter per step: area (N + 1)(N + 2) / 2."""

    def test_refuses_a_trillion_letters_at_once(self, ab):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="construction cap"):
                construct_singular(ab.vector((1, 10**12)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 64 * 1024

    def test_cap_is_on_the_sum_of_the_chain_totals(self, ab, monkeypatch):
        monkeypatch.setattr(singular, "DESCENT_AREA_CAP", 15)
        outcome, trace = construct_singular(ab.vector((1, 4)))
        assert sum(len(w) for w in trace.words) == 15
        with pytest.raises(DomainError):
            construct_singular(ab.vector((1, 5)))


class TestConstructSearchAgreement:
    def test_successful_construction_is_the_unique_maximizer(self):
        """Where the constructor succeeds, exhaustive search for the maximal
        cyclic semi-regular continuant must return exactly its output;
        totals <= 7 over value alphabets (2,3,4,5) prefixes."""
        from cycont.extremal import search

        for k in range(1, 5):
            alphabet = alphabet_of_size(k, values=(2, 3, 4, 5)[:k])
            for total in range(1, 8):
                for counts in nonnegative_compositions(total, k):
                    outcome, _ = construct_singular(alphabet.vector(counts))
                    if outcome is None:
                        continue
                    report = search(
                        alphabet.vector(counts),
                        valuation="semiregular",
                        direction="max",
                    )
                    assert report.optima == (outcome,), counts
                    assert report.unique_up_to_reversal


class TestIsSingular:
    def test_constructed_word(self, abcd):
        assert is_singular(abcd.cyclic("acbcbcbcadad"))

    def test_named_singular_words(self, abcd):
        assert is_singular(abcd.cyclic("accbccbdadad"))
        assert is_singular(abcd.cyclic("accbdaccbdad"))

    def test_non_singular(self, ab):
        assert not is_singular(ab.cyclic("aaaabab"))

    def test_alt_kind_matches_classify(self, abc):
        for t in product(range(3), repeat=5):
            omega = CyclicWord(LinearWord(abc, t))
            m = classify(omega)
            assert is_singular(omega, SyncKind.ALT) == m.in_S_alt
            assert is_singular(omega, SyncKind.PLAIN) == m.in_S


def balanced_necklaces(ab, p, q):
    """The balanced words of content (p, q) by the factor scan, each
    checked against ``is_balanced``."""
    out = []
    for w in enumerate_class(ab.vector((p, q))):
        balanced = balanced_by_factors(w.indices)
        assert is_balanced(w) == balanced, w
        if balanced:
            out.append(w)
    return out


class TestChristoffel:
    def test_two_one(self, ab):
        assert str(christoffel(2, 1)) == "aab"
        assert balanced_necklaces(ab, 2, 1) == [christoffel(2, 1)]

    def test_two_two_is_square(self, ab):
        assert str(christoffel(2, 2)) == "abab"
        assert balanced_necklaces(ab, 2, 2) == [christoffel(2, 2)]

    def test_four_three_balanced_singular_unique(self, ab):
        w = christoffel(4, 3)
        assert is_balanced(w)
        assert is_singular(w)
        assert balanced_necklaces(ab, 4, 3) == [w]

    def test_degenerate_counts(self, ab):
        assert str(christoffel(3, 0)) == "aaa"
        assert str(christoffel(0, 3)) == "bbb"
        with pytest.raises(ValueError):
            christoffel(0, 0)

    def test_needs_binary_alphabet(self, abc):
        with pytest.raises(ValueError):
            christoffel(2, 1, abc)

    def test_matches_the_constructor(self, ab):
        """For every 0 <= p, q <= 40, the Christoffel word is the singular
        word the constructor builds for (p, q), and it is balanced."""
        for p in range(41):
            for q in range(41):
                if p + q == 0:
                    continue
                w = christoffel(p, q)
                assert construct_singular(ab.vector((p, q)))[0] == w, (p, q)
                assert is_balanced(w), (p, q)


class TestBalance:
    def test_classic_unbalanced(self, ab):
        assert not is_balanced(ab.cyclic("aabb"))

    def test_balanced_examples(self, ab):
        assert is_balanced(ab.cyclic("abab"))
        assert is_balanced(ab.cyclic("aab"))

    def test_non_binary_rejected(self, abc):
        with pytest.raises(ValueError):
            is_balanced(abc.cyclic("abc"))

    def test_matches_the_factor_scan(self, ab):
        """is_balanced agrees with the scan of every cyclic factor on every
        binary necklace of up to 14 letters."""
        checked = 0
        for n in range(1, 15):
            for p in range(n + 1):
                for omega in enumerate_class(ab.vector((p, n - p))):
                    assert is_balanced(omega) == balanced_by_factors(
                        omega.indices
                    ), omega
                    checked += 1
        assert checked == 2_615

    def test_long_constructed_word(self, ab):
        """The 2,827-letter outcome of 1000,1827 is balanced; moving its
        first a one place right, which is not a rotation of it, is not."""
        omega, _ = construct_singular(ab.vector((1000, 1827)))
        assert len(omega) == 2_827
        assert is_balanced(omega)
        s = str(omega)
        i = s.index("ab")
        swapped = ab.cyclic(s[:i] + "ba" + s[i + 2 :])
        assert swapped != omega
        assert not is_balanced(swapped)
        assert not balanced_by_factors(swapped.indices)


class TestBinaryEquivalence:
    def test_singular_balanced_christoffel_coincide(self, ab):
        for n in range(1, 9):
            for p in range(n + 1):
                q = n - p
                for omega in enumerate_class(ab.vector((p, q))):
                    singular = is_singular(omega)
                    balanced = balanced_by_factors(omega.indices)
                    chris = omega == christoffel(p, q)
                    assert singular == balanced == chris
                    assert is_balanced(omega) == balanced
