import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycont
from cycont import extremal
from cycont.extremal import SyncKind, build_exchange_graph, exchange, search
from cycont.singular import (
    christoffel,
    construct_singular,
    xi_cyclic,
    xi_linear,
    xi_preimage,
)
from cycont.words import (
    CUT_TABLE_CAP,
    CyclicWord,
    DomainError,
    LinearWord,
    OrderedAlphabet,
    Ordering,
    ParikhVector,
    _cut_rows,
    _necklace_walk,
    _rotation_table,
    _trusted_necklace,
    alphabet_of_size,
    compare_alt,
    compare_lex,
    enumerate_class,
    least_rotation_index,
    necklace_count,
    split_points,
)

from oracles import (
    _less_than_reversal,
    classes_by_sweep,
    naive_canonical,
    nested_cf,
    nonnegative_compositions,
    splits_by_slicing,
)
from oracles import necklace_count as oracle_necklace_count


def words_up_to(alphabet, max_len):
    for n in range(max_len + 1):
        for t in product(range(len(alphabet)), repeat=n):
            yield LinearWord(alphabet, t)


class TestAlphabet:
    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            OrderedAlphabet(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OrderedAlphabet(())

    def test_values_must_strictly_increase(self):
        with pytest.raises(ValueError):
            OrderedAlphabet(("a", "b"), (3, 2))
        with pytest.raises(ValueError):
            OrderedAlphabet(("a", "b"), (2, 2))

    def test_values_must_be_positive(self):
        with pytest.raises(ValueError):
            OrderedAlphabet(("a", "b"), (0, 1))

    def test_word_parsing_single_char_and_tokens(self):
        ab = OrderedAlphabet(("a", "b"))
        assert ab.word("aab").indices == (0, 0, 1)
        assert ab.word("a,a,b").indices == (0, 0, 1)
        wide = OrderedAlphabet(("lo", "hi"))
        assert wide.word("lo,hi,hi").indices == (0, 1, 1)
        with pytest.raises(ValueError):
            ab.word("ax")

    @pytest.mark.parametrize(
        "symbols",
        [
            tuple("ab"),
            ("lo", "hi"),
            tuple("aé\xff"),  # single characters up to U+00FF
            tuple(chr(c) for c in range(256)),
            tuple(chr(0x20 + c) for c in range(300)),  # past U+00FF and 256 letters
            tuple(chr(0x100 + c) for c in range(3)),
            ("a", "bc", "d"),
        ],
    )
    def test_word_names(self, symbols):
        """A word's name is its symbols, joined by nothing when every symbol
        is one character and by commas otherwise."""
        alphabet = OrderedAlphabet(symbols)
        joint = "" if all(len(s) == 1 for s in symbols) else ","
        k = len(symbols)
        for t in [(), (0,), tuple(range(k)), tuple(range(k))[::-1] * 2, (k - 1, 0, k - 1)]:
            expected = joint.join(symbols[i] for i in t)
            word = LinearWord(alphabet, t)
            assert str(word) == expected
            assert repr(word) == f"LinearWord({expected!r})"
            if t:
                assert str(CyclicWord(word)) == joint.join(
                    symbols[i] for i in naive_canonical(t))


class TestWordGate:
    @pytest.mark.parametrize("indices", [(2,), (-1,), (0, 5)])
    def test_indices_outside_the_alphabet_are_refused(self, ab, indices):
        with pytest.raises(ValueError, match="outside the alphabet"):
            LinearWord(ab, indices)
        with pytest.raises(ValueError, match="outside the alphabet"):
            CyclicWord(LinearWord(ab, indices))


def _derived_words(alphabet, counts):
    """Every word the library derives from the class of counts: the
    constructor's trace, both graphs' vertices, the optima of all four
    searches, each member with its splits, exchanges and insertion-map
    images and their preimages, and the Christoffel word of a binary
    content."""
    vector = alphabet.vector(counts)
    _, trace = construct_singular(vector)
    yield from trace.words or ()
    for kind in (SyncKind.PLAIN, SyncKind.ALT):
        yield from build_exchange_graph(vector, kind).vertices
    for valuation in ("regular", "semiregular"):
        for direction in ("max", "min"):
            yield from search(vector, (2, 3, 5, 7)[: len(alphabet)],
                              valuation, direction).optima
    for omega in enumerate_class(vector):
        yield omega
        yield omega.reverse()
        for split in split_points(omega):
            yield from split
            yield exchange(omega, split)
        for b in alphabet.symbols:
            for image in (xi_cyclic(b, omega), xi_linear(b, omega.word)):
                yield image
                yield xi_preimage(b, image)
    if len(alphabet) == 2:
        yield christoffel(*counts)


class TestDerivedWords:
    """Words the library derives from words it holds skip the public gate,
    and still pass it."""

    def test_no_derived_word_runs_the_gate(self, abc, abcd, monkeypatch):
        calls = []
        gate = LinearWord.__post_init__

        def counting(self):
            calls.append(self.indices)
            gate(self)

        omega = CyclicWord(abcd.word("abcadbcd"))
        word = abcd.word("abbcacad")
        graph_vector = abcd.vector((3, 2, 1, 2))
        search_vector = abcd.vector((2, 1, 3, 1))
        class_vector = abcd.vector((2, 2, 2, 2))
        monkeypatch.setattr(LinearWord, "__post_init__", counting)
        construct_singular(abcd.vector((5, 3, 6, 2)))
        construct_singular(abc.vector((1, 1, 3996)))
        for kind in (SyncKind.PLAIN, SyncKind.ALT):
            build_exchange_graph(graph_vector, kind)
        assert len(list(enumerate_class(class_vector))) == necklace_count(class_vector)
        splits = list(split_points(omega))
        for valuation in ("regular", "semiregular"):
            for direction in ("max", "min"):
                search(search_vector, (2, 3, 5, 7), valuation, direction)
        for b in "abcd":
            xi_preimage(b, xi_linear(b, word))
            xi_preimage(b, xi_cyclic(b, omega))
        christoffel(1000, 1827)
        exchange(omega, splits[0])
        assert calls == []
        LinearWord(abcd, (1, 0))  # the patch is live
        assert calls == [(1, 0)]

    @pytest.mark.parametrize("letters,max_total", [(1, 6), (2, 12), (3, 9), (4, 7)])
    def test_every_derived_word_passes_the_gate(self, letters, max_total):
        alphabet = alphabet_of_size(letters)
        for n in range(1, max_total + 1):
            for counts in nonnegative_compositions(n, letters):
                for w in _derived_words(alphabet, counts):
                    if w is None:  # no preimage
                        continue
                    t = w.indices
                    assert type(t) is tuple and all(
                        type(i) is int and 0 <= i < letters for i in t), (counts, w)
                    if isinstance(w, CyclicWord):
                        assert least_rotation_index(t) == 0, (counts, w)
                        assert w == CyclicWord(LinearWord(alphabet, t)), (counts, w)
                    else:
                        assert w == LinearWord(alphabet, t), (counts, w)


class TestReverse:
    def test_examples(self, abc):
        assert str(abc.word("abc").reverse()) == "cba"
        assert str(abc.word("").reverse()) == ""
        assert str(abc.word("aab").reverse()) == "baa"

    def test_reverse_cyclic_two_letter_and_palindromic_classes(self, ab):
        assert ab.cyclic("ab").reverse() == ab.cyclic("ab")
        assert ab.cyclic("aab").reverse() == ab.cyclic("aab")

    def test_reverse_cyclic_against_rotation_oracle(self, ab):
        omega = ab.cyclic("aabab")
        expected = naive_canonical(tuple(reversed(omega.indices)))
        assert omega.reverse().indices == expected
        assert omega.reverse() == ab.cyclic("babaa")

    @given(st.lists(st.integers(0, 2), min_size=0, max_size=30))
    def test_involution(self, ixs):
        abc = alphabet_of_size(3)
        w = LinearWord(abc, tuple(ixs))
        assert w.reverse().reverse() == w


class TestCompare:
    def test_lex_first_difference(self, abc):
        assert compare_lex(abc.word("ab"), abc.word("ac")) is Ordering.LESS

    def test_lex_proper_prefix_is_greater(self, abc):
        assert compare_lex(abc.word("aba"), abc.word("ab")) is Ordering.LESS
        assert compare_lex(abc.word("ab"), abc.word("aba")) is Ordering.GREATER

    def test_lex_equal(self, abc):
        assert compare_lex(abc.word("ab"), abc.word("ab")) is Ordering.EQUAL

    def test_alt_even_position_flips(self, abc):
        assert compare_alt(abc.word("ab"), abc.word("ac")) is Ordering.GREATER

    def test_alt_odd_position_plain(self, abc):
        assert compare_alt(abc.word("ba"), abc.word("aa")) is Ordering.GREATER

    def test_alt_prefix_parity(self, abc):
        assert compare_alt(abc.word("abab"), abc.word("ab")) is Ordering.LESS
        assert compare_alt(abc.word("ab"), abc.word("abab")) is Ordering.GREATER
        assert compare_alt(abc.word("aba"), abc.word("a")) is Ordering.GREATER
        assert compare_alt(abc.word("a"), abc.word("aba")) is Ordering.LESS

    def test_empty_word_conventions(self, abc):
        empty = abc.word("")
        assert compare_lex(abc.word("b"), empty) is Ordering.LESS
        assert compare_lex(empty, abc.word("b")) is Ordering.GREATER
        assert compare_alt(abc.word("b"), empty) is Ordering.LESS
        assert compare_lex(empty, empty) is Ordering.EQUAL

    def test_different_alphabets_rejected(self, ab, abc):
        with pytest.raises(ValueError):
            compare_lex(ab.word("a"), abc.word("a"))

    def test_trichotomy_and_antisymmetry(self, abc):
        words = list(words_up_to(abc, 3))
        for u in words:
            for v in words:
                for cmp in (compare_lex, compare_alt):
                    c, cr = cmp(u, v), cmp(v, u)
                    if u == v:
                        assert c is Ordering.EQUAL
                    else:
                        assert c is not Ordering.EQUAL
                        assert c.value == -cr.value

    def test_transitivity_small(self, ab):
        words = list(words_up_to(ab, 3))
        for cmp in (compare_lex, compare_alt):
            less = {
                (u.indices, v.indices)
                for u in words
                for v in words
                if cmp(u, v) is Ordering.LESS
            }
            for u in words:
                for v in words:
                    for w in words:
                        if (u.indices, v.indices) in less and (
                            v.indices,
                            w.indices,
                        ) in less:
                            assert (u.indices, w.indices) in less

    def test_equal_length_lex_agrees_with_dictionary_order(self, abc):
        for n in (1, 2, 3, 4):
            words = [t for t in product(range(3), repeat=n)]
            for a in words:
                for b in words:
                    c = compare_lex(LinearWord(abc, a), LinearWord(abc, b))
                    assert c.value == (a > b) - (a < b)

    def test_sign_link_to_continued_fraction_values(self):
        """Both orders decrease along their continued-fraction value.

        Empirical cross-check on digits {2,3,4}: plain order against the
        semi-regular value, alternating order against the regular one,
        over every pair of words of length <= 4.
        """
        alphabet = OrderedAlphabet(("2", "3", "4"), (2, 3, 4))
        words = [w for w in words_up_to(alphabet, 4) if len(w) > 0]
        vals = {w.indices: tuple(v + 2 for v in w.indices) for w in words}
        for u in words:
            for v in words:
                if u == v:
                    continue
                semi_u = nested_cf(vals[u.indices], semiregular=True)
                semi_v = nested_cf(vals[v.indices], semiregular=True)
                assert (compare_lex(u, v) is Ordering.LESS) == (semi_u > semi_v)
                reg_u = nested_cf(vals[u.indices], semiregular=False)
                reg_v = nested_cf(vals[v.indices], semiregular=False)
                assert (compare_alt(u, v) is Ordering.LESS) == (reg_u > reg_v)

    def test_nonpalindrome_never_compares_equal_to_reverse(self, abc):
        for w in words_up_to(abc, 5):
            if w.is_palindrome():
                continue
            assert compare_lex(w, w.reverse()) is not Ordering.EQUAL
            assert compare_alt(w, w.reverse()) is not Ordering.EQUAL


class TestParikh:
    def test_direct_count(self, abcd):
        assert abcd.word("abbcacad").parikh().counts == (3, 2, 2, 1)

    def test_constructed_word_count(self, abcd):
        assert abcd.word("acbcbcbcadad").parikh().counts == (3, 3, 4, 2)

    def test_empty(self, abcd):
        assert abcd.word("").parikh().counts == (0, 0, 0, 0)

    def test_negative_counts_rejected(self, ab):
        with pytest.raises(ValueError):
            ParikhVector(ab, (-1, 2))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=20), st.integers(0, 19))
    def test_invariant_under_rotation_and_reversal(self, ixs, shift):
        abc = alphabet_of_size(3)
        t = tuple(ixs)
        r = t[shift % len(t) :] + t[: shift % len(t)]
        w = LinearWord(abc, t)
        assert LinearWord(abc, r).parikh() == w.parikh()
        assert w.reverse().parikh() == w.parikh()


class TestCanonicalize:
    def test_examples(self, abc, abcd):
        assert str(CyclicWord(abc.word("bca"))) == "abc"
        assert str(CyclicWord(abcd.word("aaaa"))) == "aaaa"

    def test_cdd_by_rotation_oracle(self, abcd):
        w = abcd.word("cdd")
        assert CyclicWord(w).indices == naive_canonical(w.indices)
        assert str(CyclicWord(w)) == "cdd"

    def test_rejects_empty(self, abc):
        with pytest.raises(ValueError):
            CyclicWord(abc.word(""))

    def test_equality_iff_rotation(self, ab):
        assert ab.cyclic("ab") == ab.cyclic("ba")
        assert ab.cyclic("aab") != ab.cyclic("abb")

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_matches_naive_least_rotation(self, ixs):
        abcd = alphabet_of_size(4)
        w = LinearWord(abcd, tuple(ixs))
        assert CyclicWord(w).indices == naive_canonical(w.indices)

    @pytest.mark.parametrize("letters,max_len", [(1, 5), (2, 10), (3, 7)])
    def test_known_necklace_equals_and_hashes_like_cyclic_word(self, letters, max_len):
        alphabet = alphabet_of_size(letters)
        for n in range(1, max_len + 1):
            for t in product(range(letters), repeat=n):
                if t != naive_canonical(t):
                    continue
                known = _trusted_necklace(alphabet, t)
                gated = CyclicWord(LinearWord(alphabet, t))
                assert known == gated and gated == known
                assert hash(known) == hash(gated)
                assert {known: 1}[gated] == 1
                assert (str(known), repr(known), len(known)) == (
                    str(gated), repr(gated), len(gated))
                assert known.reverse() == gated.reverse()
                assert known.parikh() == gated.parikh()


def _least_start(t: tuple) -> int:
    """Smallest i whose rotation t[i:] + t[:i] is least, by slicing."""
    return min(range(len(t)), key=lambda i: t[i:] + t[:i], default=0)


_N = 2000
_LONG_SHAPES = {
    "constant": (0,) * _N,
    "a^n b": (0,) * (_N - 1) + (1,),
    "b a^n": (1,) + (0,) * (_N - 1),
    "(ab)^n": (0, 1) * (_N // 2),
    "(a^3 b)^m": (0, 0, 0, 1) * (_N // 4),
    "(a^7 b)^m": ((0,) * 7 + (1,)) * (_N // 8),
    "ascending": tuple(range(_N)),
    "descending": tuple(range(_N - 1, -1, -1)),
    "above 255": tuple(random.Random(5).choices(range(256, 260), k=_N)),
}


class TestLeastRotationIndex:
    """``least_rotation_index`` against the smallest start of the least
    rotation found by slicing every rotation."""

    @pytest.mark.parametrize("letters,max_len", [(1, 8), (2, 14), (3, 9), (4, 7)])
    def test_every_word(self, letters, max_len):
        for n in range(max_len + 1):
            for t in product(range(letters), repeat=n):
                assert least_rotation_index(t) == _least_start(t), t

    def test_empty_and_one_letter(self):
        assert least_rotation_index(()) == 0
        assert least_rotation_index((3,)) == 0
        assert least_rotation_index([300]) == 0

    @pytest.mark.parametrize("shape", sorted(_LONG_SHAPES))
    def test_long_shapes_and_their_rotations(self, shape):
        t = _LONG_SHAPES[shape]
        for r in (0, 1, 999, 1000, 1999):
            rotated = t[r:] + t[:r]
            assert least_rotation_index(rotated) == _least_start(rotated), r


class TestRotationTable:
    """The rarest-letter table against least rotations by brute force."""

    @staticmethod
    def _necklace_of(table_of, w):
        necklaces, rare, table = table_of
        j = w.find(rare)
        return necklaces[table[w[j:] + w[:j]]]

    @pytest.mark.parametrize("letters,max_len", [(1, 5), (2, 10), (3, 7), (4, 6)])
    def test_finds_the_least_rotation_of_every_word(self, letters, max_len):
        """Every word that holds each letter, as bytes, from the table of
        its content."""
        for n in range(letters, max_len + 1):
            by_content = {}
            for t in product(range(letters), repeat=n):
                counts = tuple(t.count(c) for c in range(letters))
                if all(counts):
                    by_content.setdefault(counts, []).append(t)
            for counts, words in by_content.items():
                table_of = _rotation_table(counts)
                for t in words:
                    assert self._necklace_of(table_of, bytes(t)) == bytes(
                        naive_canonical(t))

    @pytest.mark.parametrize("counts", [(12, 1, 1), (1, 1, 12), (5, 5), (3, 2, 1, 3)])
    def test_long_and_many_runs(self, counts):
        """Classes with long runs of the rarest letter, one run, and many:
        every rotation of every necklace and of its reversal."""
        table_of = _rotation_table(counts)
        for c in table_of[0]:
            for w in (c, c[::-1]):
                for s in range(len(w)):
                    r = w[s:] + w[:s]
                    assert self._necklace_of(table_of, r) == bytes(
                        naive_canonical(tuple(r)))

    def test_a_word_with_no_rotation_among_the_keys(self):
        table_of = _rotation_table((2, 1))
        assert table_of[1] == b"\1"
        with pytest.raises(KeyError):
            self._necklace_of(table_of, b"\0\1\1")

    @pytest.mark.parametrize("counts", [
        (2, 2), (3, 3, 3), (2, 2, 1, 1), (3, 2), (1, 1, 1), (4, 4), (2, 2, 2, 2),
    ])
    def test_every_rotation_maps_to_its_own_necklace(self, counts):
        """Runs of the rarest letter (2,2 and 3,3,3), ties for it (2,2,1,1),
        the content of 0,3,0,2 and a word below four letters.  The keys are
        exactly the rotations that start at the rarest letter, and each
        maps to the position of its necklace in walk order."""
        necklaces, rare, table = _rotation_table(counts)
        assert rare == bytes([counts.index(min(counts))])
        assert necklaces == [bytes(t) for t in _necklace_walk(counts)]
        expected = {}
        for i, c in enumerate(necklaces):
            for s in range(len(c)):
                r = c[s:] + c[:s]
                assert self._necklace_of((necklaces, rare, table), r) == c
                if r[:1] == rare:
                    expected[r] = i
        assert table == expected

    @pytest.mark.parametrize("counts", [(4, 3, 1), (1, 5), (2, 1, 3, 3), (7,)])
    def test_one_key_per_necklace_where_the_rarest_letter_occurs_once(self, counts):
        necklaces, _, table = _rotation_table(counts)
        assert len(table) == len(necklaces)


class TestCutRowLanes:
    """``_cut_rows`` on a batch of words, lane by lane, against each word
    alone."""

    @staticmethod
    def _single(w):
        return {m: tuple(sets) for m, *sets in _cut_rows(w)}

    @classmethod
    def _assert_lanes_match(cls, words):
        n = len(words[0])
        lanes = [{} for _ in words]
        mask = (1 << n) - 1
        for m, *sets in _cut_rows(b"".join(words), n):
            for i, rows in enumerate(lanes):
                rows[m] = tuple(x >> (2 * i * n) & mask for x in sets)
        for w, rows in zip(words, lanes):
            assert rows == cls._single(w), w

    @pytest.mark.parametrize("n", [4, 5, 6, 10, 12])
    def test_periodic_lanes_among_aperiodic_ones(self, n):
        """Powers of 01 and 001, whose rows repeat every p starts, next to
        words of n distinct rotations."""
        words = [bytes(i % p == p - 1 for i in range(n))
                 for p in (2, 3) if n % p == 0]
        words += [bytes([0] * (n - 1) + [1]), bytes([1] * n), bytes(range(n))]
        self._assert_lanes_match(words[::-1] + words)

    @pytest.mark.parametrize("n", [4, 5, 10])
    @pytest.mark.parametrize("top", [1, 2, 3, 8])
    def test_random_lanes(self, n, top):
        """Letter ranks up to 8, so up to four bit-planes."""
        rng = random.Random(n * 10 + top)
        words = [bytes(rng.randint(0, top) for _ in range(n)) for _ in range(60)]
        self._assert_lanes_match(words)

    @pytest.mark.parametrize(
        "w", [b"\0\1\0\2", b"\0\0\1\0\1", bytes([3, 1, 4, 1, 5, 0, 2, 6, 5, 3])])
    def test_a_batch_of_one(self, w):
        assert self._single(w) == {
            m: tuple(sets) for m, *sets in _cut_rows(w, len(w))}
        self._assert_lanes_match([w])

    def test_a_batch_longer_than_the_graph_build_batch(self):
        rng = random.Random(7)
        words = [bytes(rng.randint(0, 3) for _ in range(7))
                 for _ in range(extremal._BATCH + 3)]
        self._assert_lanes_match(words)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_words_below_four_letters_have_no_rows(self, n):
        assert list(_cut_rows(bytes(range(n)) * 3, n)) == []


class TestCutRowContract:
    """``_cut_rows`` against a slicing oracle on every word of up to ten
    letters over three, periodic ones included, alone and in batches:
    each cut length m in 2..n/2 once, and bit s of a word's lane set
    exactly when the cut (s, m) is admissible, plain-apart or alt-apart,
    for s < n, and s < n/2 at m = n/2; no other bit."""

    @staticmethod
    def _by_slicing(w, factors):
        """{m: (cuts, plain, alt)} of the word w, each an n-bit set."""
        n, d = len(w), w + w
        rows = {}
        for m in range(2, n // 2 + 1):
            sets = [0, 0, 0]
            for s in range(n if 2 * m < n else n // 2):
                u, v = factors[d[s : s + m]], factors[d[s + m : s + n]]
                if u and v:
                    sets[0] |= 1 << s
                    sets[1] |= (u[0] != v[0]) << s
                    sets[2] |= (u[1] != v[1]) << s
            rows[m] = tuple(sets)
        return rows

    @pytest.mark.parametrize("n", range(1, 11))
    def test_each_cut_once_over_every_start(self, n):
        words = [bytes(w) for w in product(range(3), repeat=n)]
        factors = {  # plain-less and alt-less than its reversal, or None
            f: None if f == f[::-1] else
            (_less_than_reversal(f, False), _less_than_reversal(f, True))
            for f in (bytes(f) for L in range(n) for f in product(range(3), repeat=L))
        }
        expected = [self._by_slicing(w, factors) for w in words]
        for w, rows in zip(words, expected):
            got = [(m, tuple(sets)) for m, *sets in _cut_rows(tuple(w))]
            assert sorted(m for m, _ in got) == list(rows), w
            assert dict(got) == rows, w
        mask = (1 << n) - 1
        for b in range(0, len(words), 512):
            batch = expected[b : b + 512]
            got = [(m, sets) for m, *sets in _cut_rows(b"".join(words[b : b + 512]), n)]
            assert sorted(m for m, _ in got) == list(range(2, n // 2 + 1))
            for m, sets in got:
                lanes = [tuple(x >> (2 * i * n) & mask for x in sets)
                         for i in range(len(batch))]
                assert lanes == [rows[m] for rows in batch], m
                assert sets == [  # no bit outside the lanes
                    sum(lane[j] << (2 * i * n) for i, lane in enumerate(lanes))
                    for j in range(3)]


class TestEnumerateClass:
    def test_single_necklace(self, ab):
        got = list(enumerate_class(ab.vector((2, 1))))
        assert [str(w) for w in got] == ["aab"]

    def test_two_necklaces(self, ab):
        got = list(enumerate_class(ab.vector((2, 2))))
        assert [str(w) for w in got] == ["aabb", "abab"]

    def test_membership_of_named_words(self, abc):
        got = {str(w) for w in enumerate_class(abc.vector((2, 2, 2)))}
        assert {"aabccb", "abcabc", "abbcac"} <= got

    def test_zero_vector_rejected(self, ab):
        with pytest.raises(ValueError):
            next(enumerate_class(ab.vector((0, 0))))

    @pytest.mark.parametrize(
        "counts",
        [
            (6, 6),
            (7, 7),
            (9, 5),
            (4, 4, 4),
            (5, 5, 4),
            (3, 3, 3, 3),
            (2, 2, 2, 2, 2),
            (1, 2, 3, 4),
        ],
    )
    def test_count_matches_cycle_index_formula(self, counts):
        from oracles import necklace_count

        alphabet = alphabet_of_size(len(counts))
        produced = list(enumerate_class(alphabet.vector(counts)))
        assert len(produced) == necklace_count(counts)
        assert len(set(produced)) == len(produced)

    @pytest.mark.parametrize("counts", [(0, 5), (6, 6), (3, 2, 1, 2, 2), (1, 1, 6, 1)])
    def test_yields_least_rotations_as_cyclic_words(self, counts):
        """Each word is its own least rotation, by brute force, and equals
        and hashes like the same tuple canonicalised by ``CyclicWord``."""
        alphabet = alphabet_of_size(len(counts))
        for w in enumerate_class(alphabet.vector(counts)):
            assert w.indices == naive_canonical(w.indices)
            gated = CyclicWord(LinearWord(alphabet, w.indices))
            assert w == gated and hash(w) == hash(gated)

    @pytest.mark.parametrize(
        "letters,max_total",
        [(1, 6), (2, 12), (3, 9), (4, 7)],
    )
    def test_matches_rotation_dedup_sweep(self, letters, max_total):
        alphabet = alphabet_of_size(letters)
        for n in range(1, max_total + 1):
            sweep = classes_by_sweep(letters, n)
            for counts in nonnegative_compositions(n, letters):
                got = [w.indices for w in enumerate_class(alphabet.vector(counts))]
                expect = sorted(sweep.get(counts, set()))
                assert got == expect
                assert len(got) == len(set(got))
                assert all(x < y for x, y in zip(got, got[1:]))
                size = necklace_count(alphabet.vector(counts))
                assert size == len(expect) == oracle_necklace_count(counts)


def _short_apart_cut(t: tuple) -> bool:
    """Some cut of the cyclic word t has a part u of 2 or 3 letters and a
    part v with distinct end letters that compare with their reversals in
    opposite plain senses."""
    return any(
        len(u) in (2, 3)
        and v[0] != v[-1]
        and _less_than_reversal(u, False) != _less_than_reversal(v, False)
        for u, v in splits_by_slicing(t)
    )


class TestPruneApart:
    """The walk with ``prune_apart`` yields exactly the necklaces without a
    short apart cut, in order."""

    @pytest.mark.parametrize("letters,max_total", [(1, 6), (2, 12), (3, 9), (4, 8)])
    def test_yields_the_members_without_a_short_apart_cut(self, letters, max_total):
        for n in range(1, max_total + 1):
            sweep = classes_by_sweep(letters, n)
            for counts in nonnegative_compositions(n, letters):
                expect = sorted(
                    t for t in sweep.get(counts, ()) if not _short_apart_cut(t)
                )
                got = list(_necklace_walk(counts, prune_apart=True))
                assert got == expect, counts

    def test_yield_on_4444(self):
        """2,425 of the 3,941,598 members of 4,4,4,4 survive, the count a
        brute-force check of every member's cyclic windows of four and
        five letters gives; that sweep takes half a minute, so only the
        survivors are checked against the oracle here."""
        got = list(_necklace_walk((4, 4, 4, 4), prune_apart=True))
        assert len(got) == 2_425
        assert got == sorted(set(got))
        assert not any(_short_apart_cut(t) for t in got)
        assert all(t == naive_canonical(t) for t in got)


class TestNecklaceCount:
    """The sweep comparison is in TestEnumerateClass."""

    def test_matches_the_oracle_formula_on_large_vectors(self):
        for counts in [
            (1,) * 14, (2,) * 7, (12, 18, 30), (60, 60), (36, 48, 24, 12),
            (0, 97, 0), (1000,), (210, 0, 420), (5, 10, 15, 20, 25),
        ]:
            vector = alphabet_of_size(len(counts)).vector(counts)
            assert necklace_count(vector) == oracle_necklace_count(counts), counts

    def test_names_the_hanging_classes(self):
        assert necklace_count(alphabet_of_size(14).vector((1,) * 14)) == 6227020800
        assert necklace_count(alphabet_of_size(7).vector((2,) * 7)) == 48648960

    def test_zero_vector_rejected(self, ab):
        with pytest.raises(ValueError):
            necklace_count(ab.vector((0, 0)))


class TestSplitPoints:
    def test_two_letter_class_has_no_split(self, ab):
        assert list(split_points(ab.cyclic("ab"))) == []

    def test_named_splits_present(self, ab):
        pairs = {
            (str(u), str(v)) for u, v in split_points(ab.cyclic("aaaabab"))
        }
        assert ("aaaab", "ab") in pairs
        assert ("aab", "abaa") in pairs

    def test_all_parts_non_palindromic_and_complete(self, abc):
        """The exact ordered list of the slicing oracle, on every necklace of
        1-9 letters over abc and on powers of short words: on periodic words
        the first p starts stand for the distinct rotations."""
        assert list(split_points(abc.cyclic("aabccb")))
        words = [
            t
            for n in range(1, 10)
            for t in product(range(3), repeat=n)
            if t == naive_canonical(t)
        ]
        words += [
            base * power
            for n in range(1, 5)
            for base in product(range(3), repeat=n)
            for power in range(2, 16 // n + 1)
        ]
        for t in words:
            got = [
                (u.indices, v.indices)
                for u, v in split_points(CyclicWord(LinearWord(abc, t)))
            ]
            assert got == list(splits_by_slicing(naive_canonical(t))), t

    def test_refuses_a_word_past_the_cut_table_cap_before_any_row(self, ab):
        omega = ab.cyclic("a" * CUT_TABLE_CAP + "b")
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="cut-table cap"):
                next(split_points(omega))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_one_domain_error(self):
        assert cycont.DomainError is cycont.continuants.DomainError
        assert cycont.DomainError is DomainError

    def test_deterministic(self, ab):
        omega = ab.cyclic("aabab")
        first = [(u.indices, v.indices) for u, v in split_points(omega)]
        second = [(u.indices, v.indices) for u, v in split_points(omega)]
        assert first == second
