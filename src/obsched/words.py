"""Exact combinatorics of binary words.

Christoffel/mechanical word generation, lexicographic order, balance,
conjugacy, Farey sequences, Christoffel-tree navigation and the 10->01
exchange rewriting system.  A word holds one byte per letter, so slicing,
concatenation, comparison and printing are bytes operations.  Everything
here is exact integer/rational arithmetic; no floats except where a
real-valued rate is converted to an exact ``Fraction`` (binary floats are
exact rationals, so this loses nothing).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Union

Rate = Union[Fraction, float, int]


class NotSwappableError(ValueError):
    """Raised when a word pair violates the exchange-rewriting precondition."""


class Word:
    """Immutable binary word stored as one byte, 0 or 1, per letter.

    Letters are indexed 1-based via :meth:`letter` so positions line up with
    the usual combinatorics-on-words conventions.  ``bytes(w)`` gives the
    letters, the form :func:`dynamics.threshold_walk` records actions in.
    A word is built from a string of '0'/'1' characters, from bytes 0 and 1
    (taken as they are) or from any iterable of integers 0 and 1.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: Union[str, bytes, bytearray, Iterable[int]] = ()):
        if isinstance(letters, str):
            # strip leaves nothing exactly when every character is 0 or 1,
            # and otherwise starts at the first other character.
            bad = letters.strip("01")
            if bad:
                raise ValueError(f"letters must be '0' or '1', got {bad[0]!r}")
            data = letters.encode().translate(_FROM_TEXT)
        elif isinstance(letters, (bytes, bytearray)):
            data = bytes(letters)
        else:
            try:
                data = bytes(map(int, letters))
            except ValueError:
                raise ValueError("letters must be 0 or 1") from None
        if data.translate(None, b"\x00\x01"):
            raise ValueError("letters must be 0 or 1")
        self._letters = data

    # -- basic queries ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._letters)

    def __bytes__(self) -> bytes:
        return self._letters

    @property
    def ones(self) -> int:
        return self._letters.count(1)

    @property
    def zeros(self) -> int:
        return self._letters.count(0)

    def letter(self, k: int) -> int:
        """Letter w_k, 1-based."""
        if not 1 <= k <= len(self):
            raise IndexError(f"letter index {k} out of range 1..{len(self)}")
        return self._letters[k - 1]

    def rate(self) -> Fraction:
        if len(self) == 0:
            raise ValueError("empty word has no rate")
        return Fraction(self.ones, len(self))

    def __iter__(self) -> Iterator[int]:
        return iter(self._letters)

    def __str__(self) -> str:
        return self._letters.translate(_TO_TEXT).decode()

    def __repr__(self) -> str:
        return f"Word('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    # -- construction -----------------------------------------------------
    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self._letters + other._letters)

    def __mul__(self, k: int) -> "Word":
        if k < 0:
            raise ValueError("repeat count must be non-negative")
        return Word(self._letters * k)

    __rmul__ = __mul__

    def factor(self, i: int, j: int) -> "Word":
        """Letters i through j inclusive, 1-based; empty when j < i."""
        if j < i:
            return Word()
        if not (1 <= i and j <= len(self)):
            raise IndexError(f"factor {i}:{j} out of range 1..{len(self)}")
        return Word(self._letters[i - 1 : j])

    def prefix(self, k: int) -> "Word":
        return self.factor(1, k)

    def reverse(self) -> "Word":
        return Word(self._letters[::-1])

    def is_palindrome(self) -> bool:
        return self._letters == self._letters[::-1]

    def conjugate(self, i: int) -> "Word":
        """Cyclic rotation w_{(i mod n)+1..n} w_{1..(i mod n)}."""
        if len(self) == 0:
            return self
        i %= len(self)
        return Word(self._letters[i:] + self._letters[:i])


_FROM_TEXT = bytes.maketrans(b"01", b"\x00\x01")
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")

EPSILON = Word()


def _validate_rate(num: int, den: int) -> None:
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    if not 0 <= num <= den:
        raise ValueError(f"rate {num}/{den} outside [0, 1]")
    if gcd(num, den) != 1:
        raise ValueError(f"rate {num}/{den} is not in lowest terms")


def christoffel(num: int, den: int) -> Word:
    """Christoffel word of rate num/den via the floor-difference formula.

    The rate must be in lowest terms; unreduced input is rejected rather
    than silently reduced, because the word length equals the denominator.
    """
    _validate_rate(num, den)
    return Word((num * k) // den - (num * (k - 1)) // den for k in range(1, den + 1))


def christoffel_mod(num: int, den: int) -> Word:
    """Christoffel word of rate num/den via modular arithmetic.

    Letter w_{i+1} = 1 exactly when (num * i) mod den >= den - num.
    Agrees bit-for-bit with :func:`christoffel`.
    """
    _validate_rate(num, den)
    p = den - num
    return Word(1 if (num * i) % den >= p else 0 for i in range(den))


def is_christoffel(w: Word) -> bool:
    if len(w) == 0:
        return False
    m, n = w.ones, len(w)
    if gcd(m, n) != 1:
        return False
    return w == christoffel(m, n)


def mword_prefix(rate: Rate, n: int) -> Word:
    """First n letters of w^omega for the mechanical word w of the given rate.

    Real-valued rates are converted to exact rationals (a binary float *is*
    an exact rational), so the floor-difference formula is evaluated
    exactly; use :func:`near_farey_breakpoint` to detect rates whose prefix
    is sensitive to the representation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    q = Fraction(rate)
    if not 0 <= q <= 1:
        raise ValueError(f"rate {rate} outside [0, 1]")
    a, b = q.numerator, q.denominator
    return Word((a * k) // b - (a * (k - 1)) // b for k in range(1, n + 1))


def near_farey_breakpoint(rate: Rate, n: int, tol: float = 1e-12) -> bool:
    """True when the rate is within tol of some element of F_n other than itself.

    Prefixes of length n are constant on Farey intervals of F_n, so a rate
    this close to a breakpoint has a representation-sensitive prefix.
    """
    q = Fraction(rate)
    for f in farey(n):
        if f != q and abs(float(f - q)) <= tol:
            return True
    return False


def farey(n: int) -> list[Fraction]:
    """Farey sequence F_n: reduced fractions in [0,1] with denominator <= n, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    seq = [Fraction(0, 1)]
    a, b, c, d = 0, 1, 1, n
    while c <= n:
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        seq.append(Fraction(a, b))
    return seq


def is_balanced(w: Word) -> bool:
    """1-balance: any two equal-length factors differ by at most one in 1-count.

    Uses the sliding-window min/max of window 1-counts, O(n^2) instead of
    the quartic all-pairs comparison.
    """
    n = len(w)
    if n <= 1:
        return True
    prefix = [0, *accumulate(w)]
    for length in range(1, n):
        counts = [prefix[i + length] - prefix[i] for i in range(n - length + 1)]
        if max(counts) - min(counts) > 1:
            return False
    return True


def lex_cmp(u: Word, v: Word) -> int:
    """Lexicographic comparison: -1 if u < v, 0 if equal, +1 if u > v.

    A finite word precedes every proper extension of itself; otherwise the
    first differing letter decides: the order of the words' bytes.
    """
    a, b = bytes(u), bytes(v)
    return (a > b) - (a < b)


class ChristoffelPair(NamedTuple):
    u: Word
    v: Word


def tree_root() -> ChristoffelPair:
    return ChristoffelPair(Word("0"), Word("1"))


def tree_children(p: ChristoffelPair) -> tuple[ChristoffelPair, ChristoffelPair]:
    """Left and right children ((u, uv), (uv, v)) of a Christoffel-tree node."""
    uv = p.u + p.v
    return ChristoffelPair(p.u, uv), ChristoffelPair(uv, p.v)


def is_christoffel_pair(p: ChristoffelPair) -> bool:
    """Valid tree node: both components Christoffel with unimodular rates."""
    if not (is_christoffel(p.u) and is_christoffel(p.v)):
        return False
    return p.v.ones * len(p.u) - p.u.ones * len(p.v) == 1


def conjugates_sorted(w: Word) -> list[Word]:
    """The n conjugates u(0), u(l), ..., u((n-1)l) of a Christoffel word.

    l is the inverse of the 1-count modulo the length; the resulting list is
    strictly increasing lexicographically, from w up to its reversal.
    """
    if not is_christoffel(w):
        raise ValueError(f"{w!r} is not a Christoffel word")
    if w.ones < 1:
        raise ValueError("word must contain at least one 1")
    n, m = len(w), w.ones
    l = pow(m, -1, n) if n > 1 else 0
    out = [w.conjugate((i * l) % n) for i in range(n)]
    for a, b in zip(out, out[1:]):
        if lex_cmp(a, b) >= 0:
            raise AssertionError("conjugate ordering violated")
    return out


def apply_exchange(w: Word, j: int) -> Word:
    """Replace the factor 10 at positions (j-1, j) by 01."""
    if not (2 <= j <= len(w)):
        raise IndexError(f"exchange position {j} out of range")
    letters = bytes(w)
    if letters[j - 2 : j] != b"\x01\x00":
        raise ValueError(f"no 10 factor at position {j - 1}")
    return Word(letters[: j - 2] + b"\x00\x01" + letters[j:])


def swap_distance(a: Word, b: Word) -> int:
    """Sum over the prefixes of a of the surplus of 1s in a over b."""
    return sum(accumulate(a)) - sum(accumulate(b.prefix(len(a))))


def swap_sequence(a: Word, b: Word) -> list[int]:
    """Exchange positions transforming a into b by successive 10 -> 01 rewrites.

    Requires equal length, equal 1-count, and every prefix of a to contain
    at least as many 1s as the same prefix of b; the number of exchanges
    equals :func:`swap_distance`.
    """
    n = len(a)
    if len(b) != n:
        raise NotSwappableError("not swappable: lengths differ")
    if a.ones != b.ones:
        raise NotSwappableError("not swappable: 1-counts differ")
    # The 1-counts agree, so a deficit can only come before the last letter.
    for k, (ca, cb) in enumerate(zip(accumulate(a), accumulate(b)), 1):
        if ca < cb:
            raise NotSwappableError(f"not swappable: prefix 1-count deficit at {k}")
    moves: list[int] = []
    cur = a
    while cur != b:
        # The first surplus letter i is a 1, and so is every letter up to the
        # next 0 at j: the factor 10 ends at j.
        surplus = accumulate(map(sub, cur, b))
        i = next(k for k, d in enumerate(surplus, 1) if d > 0)
        j = bytes(cur).index(0, i) + 1
        cur = apply_exchange(cur, j)
        moves.append(j)
    return moves


def central_palindrome(w: Word) -> Word:
    """The palindrome p with w = 0p1, for a Christoffel word of length >= 2."""
    if len(w) < 2:
        raise ValueError("words 0 and 1 have no central part")
    if not is_christoffel(w):
        raise ValueError(f"{w!r} is not a Christoffel word")
    p = w.factor(2, len(w) - 1)
    if not p.is_palindrome():
        raise AssertionError("central part is not a palindrome")
    return p


def factor_set(w: Word, length: int) -> set[Word]:
    """All distinct factors of the given length (test/verification helper)."""
    return {w.factor(i, i + length - 1) for i in range(1, len(w) - length + 2)}
