"""Word combinatorics: generation, ordering, balance, conjugacy, rewriting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsched.words import (
    ChristoffelPair,
    NotSwappableError,
    Word,
    apply_exchange,
    central_palindrome,
    christoffel,
    christoffel_mod,
    conjugates_sorted,
    factor_set,
    farey,
    is_balanced,
    is_christoffel,
    is_christoffel_pair,
    lex_cmp,
    mword_prefix,
    near_farey_breakpoint,
    swap_distance,
    swap_sequence,
    tree_children,
    tree_root,
)


def all_reduced_rates(max_den):
    for den in range(1, max_den + 1):
        for num in range(0, den + 1):
            if math.gcd(num, den) == 1:
                yield num, den


class TestWordType:
    def test_basic(self):
        w = Word("010111")
        assert len(w) == 6
        assert w.letter(3) == 0
        assert str(w.factor(2, 4)) == "101"
        assert w.ones == 4
        assert (w + w).ones == 8
        assert str(w * 2) == "010111010111"
        assert w.rate() == Fraction(2, 3)

    def test_empty(self):
        assert len(Word()) == 0
        assert Word("01") + Word() == Word("01")
        assert Word().is_palindrome()

    def test_reverse_conjugate(self):
        w = Word("00101")
        assert str(w.reverse()) == "10100"
        assert str(w.conjugate(3)) == "01001"
        assert w.conjugate(5) == w

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            Word("012")

    def test_one_based_indexing(self):
        w = Word("10")
        assert w.letter(1) == 1
        assert w.letter(2) == 0
        with pytest.raises(IndexError):
            w.letter(0)


def spellings(text):
    """The word spelled by a '0'/'1' string, in every input form Word accepts."""
    ints = [int(c) for c in text]
    return [
        text, bytes(ints), bytearray(ints), ints,
        np.array(ints, dtype=np.int64), (b for b in ints),
    ]


def prefix_ones(text):
    return [text[:k].count("1") for k in range(1, len(text) + 1)]


BINARY = st.text(alphabet="01", max_size=24)


class TestWordAgainstStr:
    """Each Word operation against the same operation on the '0'/'1' string."""

    @given(BINARY)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_input_form_spells_the_same_word(self, s):
        for letters in spellings(s):
            w = Word(letters)
            assert str(w) == s and len(w) == len(s)
            assert bytes(w) == bytes(int(c) for c in s)
            assert list(w) == [int(c) for c in s]
            assert w == Word(s) and hash(w) == hash(Word(s))

    @given(BINARY, BINARY, st.integers(0, 3), st.integers(-30, 30), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_operations(self, s, t, k, i, data):
        u, v = Word(s), Word(t)
        n = len(s)
        assert [u.letter(j) for j in range(1, n + 1)] == [int(c) for c in s]
        a = data.draw(st.integers(1, n + 1))
        b = data.draw(st.integers(a - 1, n))
        assert str(u.factor(a, b)) == s[a - 1 : b]
        assert str(u + v) == s + t
        assert str(u * k) == str(k * u) == s * k
        assert str(u.reverse()) == s[::-1]
        assert u.is_palindrome() == (s == s[::-1])
        rot = i % n if n else 0
        assert str(u.conjugate(i)) == s[rot:] + s[:rot]
        assert (u.ones, u.zeros) == (s.count("1"), s.count("0"))
        assert (u == v) == (s == t)
        if s == t:
            assert hash(u) == hash(v)
        assert lex_cmp(u, v) == (s > t) - (s < t)

    @given(BINARY, st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exchange_and_distance(self, s, data):
        u = Word(s)
        for j in range(2, len(s) + 1):
            if s[j - 2 : j] == "10":
                assert str(apply_exchange(u, j)) == s[: j - 2] + "01" + s[j:]
            else:
                with pytest.raises(ValueError):
                    apply_exchange(u, j)
        t = data.draw(st.text(alphabet="01", min_size=len(s), max_size=len(s)))
        expected = sum(x - y for x, y in zip(prefix_ones(s), prefix_ones(t)))
        assert swap_distance(u, Word(t)) == expected

    @pytest.mark.parametrize(
        "letters",
        ["012", "\x00", "0 1", b"01", bytearray(b"\x02"), [2], [-1], [256],
         np.array([0, 2])],
        ids=["digit-2", "nul-char", "space", "ascii-bytes", "bytearray-2", "two",
             "minus-one", "256", "numpy-2"],
    )
    def test_rejects(self, letters):
        with pytest.raises(ValueError):
            Word(letters)

    def test_accepts_bools_and_numpy_ints(self):
        assert str(Word([True, False])) == "10"
        assert str(Word([np.int64(1), np.uint8(0), np.bool_(True)])) == "101"

    def test_long_word_round_trips(self):
        s = "0100101" * 30000
        w = Word(s)
        assert len(w) == 210000 and str(w) == s
        assert Word(bytes(w)) == w == Word(iter(list(w)))
        assert str(w.factor(100001, 200000)) == s[100000:200000]


class TestChristoffel:
    def test_examples(self):
        assert str(christoffel(1, 2)) == "01"
        assert str(christoffel(0, 1)) == "0"
        assert str(christoffel(1, 1)) == "1"
        assert str(christoffel(2, 5)) == "00101"

    def test_mod_examples(self):
        assert str(christoffel_mod(1, 2)) == "01"
        assert str(christoffel_mod(2, 5)) == "00101"
        assert str(christoffel_mod(1, 1)) == "1"

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            christoffel(2, 4)
        with pytest.raises(ValueError):
            christoffel_mod(3, 9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            christoffel(3, 2)
        with pytest.raises(ValueError):
            christoffel(1, 0)

    def test_mod_equals_floor_to_30(self):
        for num, den in all_reduced_rates(30):
            assert christoffel(num, den) == christoffel_mod(num, den)

    def test_length_and_rate(self):
        for num, den in all_reduced_rates(20):
            w = christoffel(num, den)
            assert len(w) == den
            assert w.rate() == Fraction(num, den)

    def test_balanced_and_palindromic_to_30(self):
        for num, den in all_reduced_rates(30):
            w = christoffel(num, den)
            assert is_balanced(w)
            if den >= 2:
                assert central_palindrome(w).is_palindrome()

    def test_is_christoffel(self):
        assert is_christoffel(Word("00101"))
        assert not is_christoffel(Word("10"))
        assert not is_christoffel(Word("0101"))
        assert not is_christoffel(Word())


class TestMwordPrefix:
    def test_examples(self):
        assert str(mword_prefix(Fraction(1, 2), 5)) == "01010"
        assert str(mword_prefix(Fraction(1, 3), 4)) == "0010"
        assert str(mword_prefix(1, 3)) == "111"

    def test_float_rates_are_exact(self):
        assert mword_prefix(0.5, 6) == mword_prefix(Fraction(1, 2), 6)

    def test_farey_interval_constancy_to_12(self):
        # Prefixes of length n are constant exactly on Farey intervals of F_n.
        for n in range(1, 13):
            seq = farey(n)
            for i, q in enumerate(seq):
                base = mword_prefix(q, n)
                if q == 1:
                    continue
                nxt = seq[i + 1]
                for t in range(5):
                    mid = q + (nxt - q) * Fraction(t, 5)
                    assert mword_prefix(mid, n) == base
                just_below_next = nxt - Fraction(1, 10**6)
                if just_below_next >= q:
                    assert mword_prefix(just_below_next, n) == base
                assert mword_prefix(nxt, n) != base

    def test_breakpoint_flag(self):
        assert near_farey_breakpoint(0.5 + 1e-15, 4)
        assert not near_farey_breakpoint(0.41, 4)


class TestFarey:
    def test_f5(self):
        assert farey(5) == [
            Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
            Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3),
            Fraction(3, 4), Fraction(4, 5), Fraction(1),
        ]

    def test_f1_f3(self):
        assert farey(1) == [Fraction(0), Fraction(1)]
        assert farey(3) == [
            Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
        ]

    def test_strictly_increasing_and_complete(self):
        for n in (7, 11):
            seq = farey(n)
            assert all(a < b for a, b in zip(seq, seq[1:]))
            expected = sorted(
                Fraction(num, den) for num, den in all_reduced_rates(n)
            )
            assert seq == expected


class TestBalance:
    def test_examples(self):
        assert is_balanced(Word("00101"))
        assert not is_balanced(Word("1100"))
        assert is_balanced(Word())

    def test_factors_of_balanced_are_balanced(self):
        w = christoffel(5, 13) * 2
        assert is_balanced(w)
        for f in factor_set(w, 6):
            assert is_balanced(f)


class TestLexOrder:
    def test_paper_example(self):
        a, w, b = Word("01"), Word("010111"), Word("11")
        assert lex_cmp(a, w) < 0
        assert lex_cmp(w, b) < 0
        assert lex_cmp(a, a) == 0

    def test_prefix_is_less(self):
        assert lex_cmp(Word("01"), Word("0100")) < 0
        assert lex_cmp(Word("0100"), Word("01")) > 0

    def test_transitive_on_all_length_4(self):
        words = [Word(f"{i:04b}") for i in range(16)]
        ordered = sorted(words, key=lambda w: [*w])
        for a, b in zip(ordered, ordered[1:]):
            assert lex_cmp(a, b) < 0


class TestTree:
    def test_root_children(self):
        left, right = tree_children(tree_root())
        assert left == ChristoffelPair(Word("0"), Word("01"))
        assert right == ChristoffelPair(Word("01"), Word("1"))

    def test_deeper_children(self):
        left, _ = tree_children(tree_root())
        ll, lr = tree_children(left)
        assert ll == ChristoffelPair(Word("0"), Word("001"))
        assert lr == ChristoffelPair(Word("001"), Word("01"))
        _, right = tree_children(tree_root())
        rl, rr = tree_children(right)
        assert rl == ChristoffelPair(Word("01"), Word("011"))
        assert rr == ChristoffelPair(Word("011"), Word("1"))

    def test_concatenations_are_christoffel(self):
        frontier = [tree_root()]
        for _ in range(5):
            nxt = []
            for pair in frontier:
                assert is_christoffel_pair(pair)
                assert is_christoffel(pair.u + pair.v)
                nxt.extend(tree_children(pair))
            frontier = nxt


class TestConjugates:
    def test_examples(self):
        assert [str(w) for w in conjugates_sorted(Word("01"))] == ["01", "10"]
        assert [str(w) for w in conjugates_sorted(Word("00101"))] == [
            "00101", "01001", "01010", "10010", "10100",
        ]
        assert [str(w) for w in conjugates_sorted(Word("001"))] == [
            "001", "010", "100",
        ]

    def test_rejects_non_christoffel(self):
        with pytest.raises(ValueError):
            conjugates_sorted(Word("10"))
        with pytest.raises(ValueError):
            conjugates_sorted(Word("0"))

    def test_ordering_property_to_30(self):
        for num, den in all_reduced_rates(30):
            if num == 0:
                continue
            w = christoffel(num, den)
            conj = conjugates_sorted(w)
            assert conj[0] == w
            assert conj[-1] == w.reverse()
            for a, b in zip(conj, conj[1:]):
                assert lex_cmp(a, b) < 0
            assert set(map(str, conj)) == {
                str(w.conjugate(i)) for i in range(den)
            }


class TestSwaps:
    def test_paper_example(self):
        a, b = Word("1100"), Word("0101")
        moves = swap_sequence(a, b)
        assert len(moves) == swap_distance(a, b) == 3
        stages = [a]
        for j in moves:
            stages.append(apply_exchange(stages[-1], j))
        assert [str(s) for s in stages] == ["1100", "1010", "0110", "0101"]

    def test_trivial(self):
        assert swap_sequence(Word("10"), Word("01")) == [2]
        assert swap_sequence(Word("0101"), Word("0101")) == []

    def test_rejects_unswappable(self):
        with pytest.raises(NotSwappableError):
            swap_sequence(Word("01"), Word("10"))
        with pytest.raises(NotSwappableError):
            swap_sequence(Word("11"), Word("10"))
        with pytest.raises(NotSwappableError):
            swap_sequence(Word("110"), Word("01"))

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=12), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_pairs_reproduce_target(self, letters, data):
        # b is generated from a by legal exchanges, so the precondition holds
        # by construction and the rewrite sequence must reproduce b exactly.
        a = Word(letters)
        b = a
        for _ in range(data.draw(st.integers(0, 6))):
            sites = [
                j
                for j in range(2, len(b) + 1)
                if b.letter(j - 1) == 1 and b.letter(j) == 0
            ]
            if not sites:
                break
            b = apply_exchange(b, data.draw(st.sampled_from(sites)))
        moves = swap_sequence(a, b)
        cur = a
        prev = None
        for j in moves:
            prev = cur
            cur = apply_exchange(cur, j)
            diff = [k for k in range(1, len(a) + 1) if prev.letter(k) != cur.letter(k)]
            assert len(diff) == 2 and diff[1] == diff[0] + 1
        assert cur == b
        assert len(moves) == swap_distance(a, b)


class TestCentralPalindrome:
    def test_examples(self):
        assert central_palindrome(Word("01")) == Word()
        assert str(central_palindrome(Word("00101"))) == "010"
        assert str(central_palindrome(Word("001"))) == "0"

    def test_rejects(self):
        with pytest.raises(ValueError):
            central_palindrome(Word("0"))
        with pytest.raises(ValueError):
            central_palindrome(Word("10"))


def _totient(n):
    count = 0
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            count += 1
    return count


class TestFactorCounts:
    def test_mechanical_factor_counts_to_8(self):
        # Distinct length-n factors of mechanical words number
        # 1 + sum_{i<=n} (n-i+1) phi(i); collect factors from Christoffel
        # words of denominator up to 3n to saturate the count.
        for n in range(1, 9):
            expected = 1 + sum((n - i + 1) * _totient(i) for i in range(1, n + 1))
            seen = set()
            for num, den in all_reduced_rates(3 * n):
                w = christoffel(num, den)
                reps = max(2, (2 * n) // den + 2)
                seen |= {str(f) for f in factor_set(w * reps, n)}
            assert len(seen) == expected

    def test_counts_strictly_increase(self):
        counts = [
            1 + sum((n - i + 1) * _totient(i) for i in range(1, n + 1))
            for n in range(1, 9)
        ]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_balance_equals_mechanical_factor_membership(self):
        # A word with both letters is 1-balanced exactly when it is a factor
        # of some mechanical word; exhaustive over lengths up to 8.
        for n in range(2, 9):
            factors = set()
            for num, den in all_reduced_rates(3 * n):
                w = christoffel(num, den)
                reps = max(2, (2 * n) // den + 2)
                factors |= {str(f) for f in factor_set(w * reps, n)}
            for code in range(2**n):
                w = Word(f"{code:0{n}b}")
                if w.ones in (0, n):
                    continue
                assert is_balanced(w) == (str(w) in factors), str(w)
