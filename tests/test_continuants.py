import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycont import alphabet_of_size, construct_singular, continuants
from cycont.continuants import (
    _LEAF,
    DomainError,
    _cyclic,
    _palindrome,
    _product,
    _word_vals,
    cf_value,
    continuant_regular,
    continuant_semiregular,
    cyclic_regular,
    cyclic_semiregular,
)
from cycont.words import CyclicWord, LinearWord, OrderedAlphabet

from oracles import (
    cyclic_by_definition,
    matrix_continuant,
    nested_cf,
    rolling_continuant,
    split_identity_check,
)

V2345 = OrderedAlphabet(("2", "3", "4", "5"), (2, 3, 4, 5))
V234 = OrderedAlphabet(("2", "3", "4"), (2, 3, 4))
# Values from one digit to past 64 bits, so that products outgrow machine words.
WIDE = OrderedAlphabet(("a", "b", "c", "d"), (2, 7, 10**6 + 3, 2**64 + 13))


def value_words(alphabet, lengths):
    for n in lengths:
        for t in product(range(len(alphabet)), repeat=n):
            yield LinearWord(alphabet, t)


class TestRegular:
    def test_empty_word_is_one(self, ab):
        assert continuant_regular(ab.word(""), (2, 3)) == 1

    def test_single_letter(self):
        five = OrderedAlphabet(("x",), (5,))
        assert continuant_regular(five.word("x")) == 5

    def test_two_letters(self, ab):
        assert continuant_regular(ab.word("ab"), (2, 3)) == 3 * 2 + 1

    def test_value_one_allowed(self, ab):
        assert continuant_regular(ab.word("ab"), (1, 2)) == 3

    def test_missing_values(self, ab):
        with pytest.raises(DomainError):
            continuant_regular(ab.word("ab"))


class TestSemiregular:
    def test_empty_word_is_one(self, ab):
        assert continuant_semiregular(ab.word(""), (2, 3)) == 1

    def test_two_twos(self, ab):
        assert continuant_semiregular(ab.word("aa"), (2, 3)) == 2 * 2 - 1

    def test_three_letters(self, abc):
        inner = 4 * 3 - 1
        assert continuant_semiregular(abc.word("abc"), (3, 4, 5)) == 5 * inner - 3

    def test_value_one_refused(self, ab):
        with pytest.raises(DomainError):
            continuant_semiregular(ab.word("ab"), (1, 2))

    def test_positive_and_growing(self):
        prev = 0
        word = []
        for n in range(1, 12):
            word.append(n % 3)
            k = continuant_semiregular(LinearWord(V234, tuple(word)))
            assert k > prev > -1
            prev = k


class TestAgainstMatrixOracle:
    @pytest.mark.parametrize("sign,fn", [(1, continuant_regular), (-1, continuant_semiregular)])
    def test_exhaustive_small(self, sign, fn):
        for w in value_words(V2345, range(0, 7)):
            vals = tuple(i + 2 for i in w.indices)
            assert fn(w) == matrix_continuant(vals, sign)

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=40))
    @settings(max_examples=200)
    def test_random_long(self, ixs):
        w = LinearWord(V2345, tuple(ixs))
        vals = tuple(i + 2 for i in ixs)
        assert continuant_regular(w) == matrix_continuant(vals, 1)
        assert continuant_semiregular(w) == matrix_continuant(vals, -1)


def random_word(rng, alphabet, n):
    return LinearWord(alphabet, tuple(rng.randrange(len(alphabet)) for _ in range(n)))


def assert_matches_oracles(w):
    """All five evaluators on w against the matrix and rolling-recurrence oracles."""
    vals = tuple(w.alphabet.values[i] for i in w.indices)
    for sign, kind, linear, cyclic in (
        (1, "regular", continuant_regular, cyclic_regular),
        (-1, "semiregular", continuant_semiregular, cyclic_semiregular),
    ):
        k = matrix_continuant(vals, sign)
        assert linear(w) == k == rolling_continuant(vals, sign)
        if not vals:
            continue
        # w itself, not the stored least rotation, is the oracles' representative.
        interior = matrix_continuant(vals[1:-1], sign)
        by_definition = cyclic_by_definition(vals, sign)
        assert cyclic(CyclicWord(w)) == k + sign * interior == by_definition
        assert cf_value(w, kind) == Fraction(matrix_continuant(vals[1:], sign), k)


class TestAcrossTheLeaf:
    """Lengths beyond the plain loop's leaf, where the product is split and joined."""

    @pytest.mark.parametrize("alphabet", [V2345, WIDE])
    def test_every_length_to_three_leaves(self, alphabet):
        rng = random.Random(3)
        for n in range(3 * _LEAF + 2):
            assert_matches_oracles(random_word(rng, alphabet, n))

    def test_long_words_with_large_values(self):
        rng = random.Random(4)
        for n in (1_000, 2_345, 5_000):
            assert_matches_oracles(random_word(rng, WIDE, n))

    def test_rotation_invariance_above_the_leaf(self):
        rng = random.Random(5)
        for n in (_LEAF + 1, 2 * _LEAF + 3, 700):
            w = random_word(rng, WIDE, n)
            omega = CyclicWord(w)
            for i in range(0, n, max(1, n // 13)):
                r = w.indices[i:] + w.indices[:i]
                body, interior = LinearWord(WIDE, r), LinearWord(WIDE, r[1:-1])
                K, Kd = continuant_regular, continuant_semiregular
                assert K(body) + K(interior) == cyclic_regular(omega)
                assert Kd(body) - Kd(interior) == cyclic_semiregular(omega)


class TestOneLetterRule:
    @pytest.mark.parametrize("x", [2, 3, 10**6 + 3, 2**64 + 13])
    def test_x_plus_and_minus_one(self, x):
        """The interior of one letter is empty, K() = 1; the trace alone is x."""
        one = OrderedAlphabet(("x",), (x,)).cyclic("x")
        assert cyclic_regular(one) == x + 1 == cyclic_by_definition((x,), 1)
        assert cyclic_semiregular(one) == x - 1 == cyclic_by_definition((x,), -1)


class TestReversalInvariance:
    @given(st.lists(st.integers(0, 3), min_size=0, max_size=30))
    @settings(max_examples=200)
    def test_reversal(self, ixs):
        w = LinearWord(V2345, tuple(ixs))
        assert continuant_regular(w) == continuant_regular(w.reverse())
        assert continuant_semiregular(w) == continuant_semiregular(w.reverse())


class TestCyclic:
    def test_length_one_regular(self):
        j = OrderedAlphabet(("j",), (4,))
        assert cyclic_regular(j.cyclic("j")) == 4 + 1

    def test_length_two_regular(self, ab):
        assert cyclic_regular(ab.cyclic("ab"), (2, 3)) == 7 + 1

    def test_length_one_semiregular(self):
        j = OrderedAlphabet(("j",), (4,))
        assert cyclic_semiregular(j.cyclic("j")) == 4 - 1

    def test_five_letter_golden_values(self, ab5v):
        assert cyclic_semiregular(ab5v.cyclic("bccdbdae")) == 22735
        assert cyclic_semiregular(ab5v.cyclic("bdbccdae")) == 22751
        assert cyclic_semiregular(ab5v.cyclic("bcdbcdae")) == 22646

    def test_rotation_invariance_binary_exhaustive(self):
        v23 = OrderedAlphabet(("2", "3"), (2, 3))
        for n in range(1, 11):
            for t in product(range(2), repeat=n):
                base_r = None
                base_s = None
                for i in range(n):
                    r = t[i:] + t[:i]
                    w = LinearWord(v23, r)
                    kr = continuant_regular(w) + continuant_regular(
                        LinearWord(v23, r[1:-1])
                    )
                    ks = continuant_semiregular(w) - continuant_semiregular(
                        LinearWord(v23, r[1:-1])
                    )
                    if base_r is None:
                        base_r, base_s = kr, ks
                    assert (kr, ks) == (base_r, base_s)
                omega = CyclicWord(LinearWord(v23, t))
                assert cyclic_regular(omega) == base_r
                assert cyclic_semiregular(omega) == base_s
                assert base_s > 0

    def test_value_one_refused(self, ab):
        with pytest.raises(DomainError):
            cyclic_semiregular(ab.cyclic("ab"), (1, 2))


class TestCfValue:
    def test_single_letter(self, ab):
        assert cf_value(ab.word("a"), "regular", (2, 3)) == Fraction(1, 2)

    def test_two_letters_regular(self, ab):
        assert cf_value(ab.word("ab"), "regular", (2, 3)) == Fraction(3, 7)

    def test_two_letters_semiregular(self, ab):
        assert cf_value(ab.word("ab"), "semiregular", (2, 3)) == Fraction(3, 5)

    def test_empty_rejected(self, ab):
        with pytest.raises(ValueError):
            cf_value(ab.word(""), "regular", (2, 3))

    def test_matches_nested_oracle_and_bounds(self):
        for w in value_words(V234, range(1, 6)):
            vals = tuple(i + 2 for i in w.indices)
            regular = cf_value(w, "regular")
            assert regular == nested_cf(vals, semiregular=False)
            assert 0 < regular < 1
            assert cf_value(w, "semiregular") == nested_cf(vals, semiregular=True)

    def test_bad_kind(self, ab):
        with pytest.raises(ValueError):
            cf_value(ab.word("a"), "cubic", (2, 3))


class TestSplitIdentity:
    def test_regular_example(self, abc):
        assert split_identity_check(abc.word("abc"), 1, "regular", (2, 3, 4)) == (30, 30)

    def test_semiregular_example(self, abc):
        lhs, rhs = split_identity_check(abc.word("abc"), 2, "semiregular", (3, 4, 5))
        assert lhs == rhs == 52

    def test_cut_out_of_range(self, abc):
        with pytest.raises(ValueError):
            split_identity_check(abc.word("abc"), 3, "regular", (2, 3, 4))
        with pytest.raises(ValueError):
            split_identity_check(abc.word("abc"), 0, "regular", (2, 3, 4))

    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=25),
        st.integers(1, 24),
        st.sampled_from(["regular", "semiregular"]),
    )
    @settings(max_examples=300)
    def test_identity_holds(self, ixs, cut, kind):
        w = LinearWord(V2345, tuple(ixs))
        m = 1 + cut % (len(w) - 1)
        lhs, rhs = split_identity_check(w, m, kind)
        assert lhs == rhs


class TestMonotonicity:
    def test_single_value_bump_increases_continuant(self):
        base = (2, 3, 4)
        for w in value_words(V234, range(1, 6)):
            for j in range(3):
                if j not in w.indices:
                    continue
                bumped = tuple(v + (i == j) for i, v in enumerate(base))
                assert continuant_regular(w, bumped) > continuant_regular(w, base)


def palindrome(rng, n, letters=(2, 3, 4, 5)):
    half = [rng.choice(letters) for _ in range(n // 2)]
    middle = [rng.choice(letters)] if n % 2 else []
    return half + middle + half[::-1]


def count_palindrome_products(monkeypatch):
    """Calls of ``_palindrome``, counted while it keeps computing."""
    calls = []

    def counted(vals, sign):
        calls.append(len(vals))
        return real(vals, sign)

    real = continuants._palindrome
    monkeypatch.setattr(continuants, "_palindrome", counted)
    return calls


class TestCyclicPalindromes:
    """Words that are a product of two palindromes p q, which the cyclic
    evaluator finds above the leaf and evaluates from half their letters:
    bit-identical to the oracles and to the general path over a tuple."""

    @pytest.mark.parametrize("n", [60, 63, 64, 65, 66, 67, 100, 127, 128, 129, 130, 199, 200])
    def test_every_split(self, monkeypatch, n):
        """p = vals[:r] and q = vals[r:], r = 0 included; r and n - r odd
        and even as r runs."""
        rng = random.Random(n)
        calls = count_palindrome_products(monkeypatch)
        for r in range(n):
            vals = palindrome(rng, r) + palindrome(rng, n - r)
            for sign in (1, -1):
                got = _cyclic(bytes(vals), sign)
                assert got == cyclic_by_definition(vals, sign), (n, r, sign)
                assert got == _cyclic(tuple(vals), sign), (n, r, sign)
        assert len(calls) == (4 * n if n > _LEAF else 0)

    @pytest.mark.parametrize("n", [65, 130, 201])
    def test_rotations(self, monkeypatch, n):
        """Each rotation of a product of two palindromes is another one, so
        every rotation takes the palindromic path, to the same value."""
        rng = random.Random(n + 1)
        calls = count_palindrome_products(monkeypatch)
        vals = palindrome(rng, n // 3) + palindrome(rng, n - n // 3)
        for sign in (1, -1):
            expect = cyclic_by_definition(vals, sign)
            for i in range(0, n, 7):
                assert _cyclic(bytes(vals[i:] + vals[:i]), sign) == expect, (i, sign)
        assert len(calls) == 2 * 2 * len(range(0, n, 7))

    @pytest.mark.parametrize(
        "counts,values",
        [((276, 1224), (4, 7)), ((130, 1036, 34), (2, 3, 5)),
         ((1842, 93, 95, 470), (2, 3, 7, 255)), ((1720, 1390, 1890), (3, 5, 6))],
    )
    def test_constructed_singular_words(self, monkeypatch, counts, values):
        """The constructor's outcomes are cyclic palindromes, 1k-5k letters."""
        word, _ = construct_singular(alphabet_of_size(len(counts), values).vector(counts))
        assert word is not None and len(word) == sum(counts)
        calls = count_palindrome_products(monkeypatch)
        vals = tuple(values[i] for i in word.indices)
        assert cyclic_regular(word) == cyclic_by_definition(vals, 1) == _cyclic(vals, 1)
        assert cyclic_semiregular(word) == cyclic_by_definition(vals, -1) == _cyclic(vals, -1)
        assert len(calls) == 4

    def test_non_palindromes_take_the_general_path(self, monkeypatch):
        """Words with no rotation that is a product of two palindromes: the
        reversal is not a factor of the doubled word.  The same words as
        bytes, as a list (what ``search``'s walk passes) and as a tuple of
        values past 255."""
        rng = random.Random(9)
        calls = count_palindrome_products(monkeypatch)
        for n in (_LEAF + 1, 100, 1_000):
            vals = [2, 3] + [rng.choice((2, 3, 4, 5)) for _ in range(n - 2)]
            assert bytes(vals + vals).find(bytes(vals[::-1])) < 0, n
            for word in (bytes(vals), vals, tuple(v + 254 for v in vals)):
                for sign in (1, -1):
                    assert _cyclic(word, sign) == cyclic_by_definition(word, sign)
        assert calls == []

    def test_values_past_a_byte_take_the_general_path(self, monkeypatch):
        """A value of 256 or more: the values stay a tuple, and a palindromic
        word is multiplied out whole."""
        rng = random.Random(10)
        calls = count_palindrome_products(monkeypatch)
        alphabet = OrderedAlphabet(("a", "b", "c"), (2, 255, 256))
        for n in (_LEAF + 1, 150, 2_001):
            t = tuple(palindrome(rng, n, letters=(0, 1, 2)))
            assert 2 in t
            vals = _word_vals(t, alphabet.values)
            assert vals == tuple(alphabet.values[i] for i in t)
            omega = CyclicWord(LinearWord(alphabet, t))
            assert cyclic_regular(omega) == cyclic_by_definition(vals, 1)
            assert cyclic_semiregular(omega) == cyclic_by_definition(vals, -1)
        assert calls == []

    @pytest.mark.parametrize("alphabet", [V2345, OrderedAlphabet(("a", "b"), (1, 255))])
    def test_byte_values_match_the_letters(self, alphabet):
        rng = random.Random(11)
        for n in (0, 1, 64, 300):
            t = tuple(rng.randrange(len(alphabet)) for _ in range(n))
            vals = _word_vals(t, alphabet.values)
            assert isinstance(vals, bytes)
            assert tuple(vals) == tuple(alphabet.values[i] for i in t)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_half_product_symmetry(self, sign):
        """A palindrome's product is [[A, sign B], [B, C]], as ``_product``
        computes it, odd and even lengths across the leaf."""
        rng = random.Random(12 + sign)
        for n in list(range(0, 12)) + [2 * _LEAF - 1, 2 * _LEAF, 2 * _LEAF + 1, 2 * _LEAF + 2, 301]:
            vals = bytes(palindrome(rng, n))
            A, B, C = _palindrome(vals, sign)
            assert _product(vals, sign) == (A, sign * B, B, C), n
