"""Binary block codes, their matrices (the words as rows, in order), and
the orders used on them.

Codewords carry a partial order: u <= v here means every 1-bit of v is
also a 1-bit of u, so the all-ones word is the minimum.  On the family
of square codes with unit upper-triangular matrix (`is_triangular_code`)
two further comparisons act row by row: a lexicographic one and a
word-order one, both driven by the first row where the sorted matrices
differ.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError


def pack_bits(bits: Iterable[int]) -> int:
    """The value of the word with these 0/1 bits, bit 0 most significant."""
    value = 0
    for b in bits:
        value = value << 1 | b
    return value


def bit_positions(value: int, length: int) -> list[int]:
    """The positions of the 1-bits of a ``length``-bit word, ascending."""
    positions = []
    while value:
        top = value.bit_length()
        positions.append(length - top)
        value ^= 1 << (top - 1)
    return positions


@dataclass(frozen=True, init=False)
class Codeword:
    """A word of ``length`` bits; bit 0 is the most significant bit of ``value``."""

    value: int
    length: int

    def __init__(self, bits):
        bits = tuple(int(b) for b in bits)
        if not bits:
            raise InputError("empty codeword")
        if any(b not in (0, 1) for b in bits):
            raise InputError("codeword bits must be 0 or 1")
        object.__setattr__(self, "value", pack_bits(bits))
        object.__setattr__(self, "length", len(bits))

    @classmethod
    def of(cls, value: int, length: int) -> "Codeword":
        """The word of ``length`` bits whose integer value is ``value``."""
        if length < 1 or not 0 <= value < 1 << length:
            raise InputError(f"value {value} does not fit in {length} bits")
        w = object.__new__(cls)
        object.__setattr__(w, "value", value)
        object.__setattr__(w, "length", length)
        return w

    @classmethod
    def from_string(cls, s: str) -> "Codeword":
        return cls(tuple(int(c) for c in s))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple([self.value >> s & 1 for s in range(self.length - 1, -1, -1)])

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")

    def __len__(self) -> int:
        return self.length

    @property
    def support(self) -> frozenset[int]:
        return frozenset(bit_positions(self.value, self.length))


def word_leq(a: Codeword, b: Codeword) -> bool:
    """Codeword order: a <= b iff b's support is contained in a's."""
    if len(a) != len(b):
        raise InputError("codewords have different lengths")
    return b.value & ~a.value == 0


@dataclass(frozen=True)
class BlockCode:
    """A non-empty set of distinct equal-length codewords.

    Word order is preserved as given; two BlockCode values are equal
    only when their word sequences match.  Use `lex_sort_desc` for the
    canonical arrangement.
    """

    words: tuple[Codeword, ...]

    def __post_init__(self):
        words = tuple(
            w if isinstance(w, Codeword) else Codeword(tuple(w)) for w in self.words
        )
        if not words:
            raise InputError("a block code needs at least one codeword")
        length = len(words[0])
        if any(len(w) != length for w in words):
            raise InputError("codewords must share one length")
        if len({w.value for w in words}) != len(words):
            raise InputError("duplicate codeword")
        object.__setattr__(self, "words", words)

    @classmethod
    def _trusted(cls, words: tuple[Codeword, ...]) -> "BlockCode":
        """The code of ``words``, already distinct, non-empty and of one length; unchecked."""
        code = object.__new__(cls)
        object.__setattr__(code, "words", words)
        return code

    @classmethod
    def from_strings(cls, strings) -> "BlockCode":
        return cls(tuple(Codeword.from_string(s) for s in strings))

    def strings(self) -> tuple[str, ...]:
        return tuple(str(w) for w in self.words)

    @property
    def length(self) -> int:
        return len(self.words[0])

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Codeword]:
        return iter(self.words)


def lex_sort_desc(code: BlockCode) -> BlockCode:
    """The same code with words in descending lexicographic order."""
    # a permutation of a valid code
    return BlockCode._trusted(tuple(sorted(code.words, key=lambda w: w.value, reverse=True)))


@dataclass(frozen=True)
class MembershipCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_triangular_code(code: BlockCode) -> MembershipCheck:
    """Membership in the square unit-upper-triangular code family.

    A member has as many words as bit positions, contains the all-ones
    word, and its lex-descending matrix is upper triangular with ones on
    the diagonal.  The reason string names the first failed condition.
    """
    n = code.length
    if len(code) != n:
        return MembershipCheck(False, f"not square: {len(code)} words of length {n}")
    values = sorted((w.value for w in code.words), reverse=True)
    if values[0] != (1 << n) - 1:
        return MembershipCheck(False, "all-ones word missing")
    for i, v in enumerate(values):
        defect = _row_defect(v, i, n)
        if defect:
            return MembershipCheck(False, f"sorted row {i} {defect}")
    return MembershipCheck(True)


def _row_defect(value: int, i: int, n: int) -> str | None:
    """Why ``value`` cannot be row i of an n-column unit upper-triangular
    matrix (a 1 left of column i, or no 1 at column i); None if it can."""
    if value >> (n - i):
        return "has a 1 left of the diagonal"
    if not value >> (n - 1 - i) & 1:
        return "has no 1 on the diagonal"
    return None


def embed_matrix(m: BlockCode) -> BlockCode:
    """The rows of [[I, A], [0, I]], where A's rows are m's lex-descending words."""
    values = [w.value for w in m.words]
    if any(a < b for a, b in zip(values, values[1:])):
        raise InputError("matrix rows must be in descending lexicographic order")
    size = len(values) + m.length
    rows = [1 << (size - 1 - i) | v for i, v in enumerate(values)]
    rows += (1 << j for j in reversed(range(m.length)))
    # the unit diagonal makes the rows distinct
    return BlockCode._trusted(tuple(Codeword.of(r, size) for r in rows))


def ensure_all_ones(b: BlockCode) -> BlockCode:
    """Prepend an all-ones row (and a zero column) to the rows of a square unit
    upper-triangular matrix; ``b`` itself when its row 0 is all ones."""
    n = b.length
    if len(b) != n or any(_row_defect(w.value, i, n) for i, w in enumerate(b.words)):
        raise InputError("expected a square unit upper-triangular matrix")
    if b.words[0].value == (1 << n) - 1:
        return b
    rows = [(1 << n + 1) - 1, *(w.value for w in b.words)]
    # the unit diagonal makes the rows distinct
    return BlockCode._trusted(tuple(Codeword.of(r, n + 1) for r in rows))


def enumerate_triangular_codes(n: int, *, max_order: int = 7) -> Iterator[BlockCode]:
    """Iterate lazily over every member of the order-n triangular family.

    Row 0 is forced to all ones and row n-1 to 0...01; rows in between
    have free bits right of the diagonal, swept most-significant-first
    in row-major order, so the family arrives in a stable sequence of
    size 2**((n-1)*(n-2)/2).  The bounds are checked on the call, before
    the first member.
    """
    if n < 1:
        raise InputError("n must be positive")
    if n > max_order:
        raise InputError(f"n={n} exceeds the bound {max_order}")
    # Row i's free bits are its low n-1-i bits; counting `pattern` up
    # hands them out row-major, most significant first.
    shapes = [(1 << (n - 1 - i), (n - 2 - i) * (n - 1 - i) // 2) for i in range(1, n)]
    top = Codeword.of((1 << n) - 1, n)

    def member(pattern: int) -> BlockCode:
        rows = (diag | (pattern >> shift) & (diag - 1) for diag, shift in shapes)
        # the unit diagonal makes the rows distinct
        return BlockCode._trusted((top, *(Codeword.of(v, n) for v in rows)))

    return map(member, range(1 << (n - 1) * (n - 2) // 2))


def staircase_code(n: int) -> BlockCode:
    """The member whose sorted row k is k zeros followed by n-k ones."""
    if n < 1:
        raise InputError("n must be positive")
    return BlockCode(tuple(Codeword.of((1 << (n - i)) - 1, n) for i in range(n)))


class Comparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _sorted_members(code: BlockCode, other: BlockCode):
    if code.length != other.length or len(code) != len(other):
        raise InputError("codes must share the same order to be compared")
    for c in (code, other):
        check = is_triangular_code(c)
        if not check:
            raise InputError(f"not a triangular-family code: {check.reason}")
    return [sorted((w.value for w in c.words), reverse=True) for c in (code, other)]


def compare_codes_lex(v: BlockCode, w: BlockCode) -> Comparison:
    """Total order: compare the first differing sorted rows as numbers."""
    a, b = _sorted_members(v, w)
    for ra, rb in zip(a, b):
        if ra != rb:
            return Comparison.GREATER if ra > rb else Comparison.LESS
    return Comparison.EQUAL


def compare_codes_word(v: BlockCode, w: BlockCode) -> Comparison:
    """Partial order: compare the first differing sorted rows by word order."""
    a, b = _sorted_members(v, w)
    for ra, rb in zip(a, b):
        if ra != rb:
            if rb & ~ra == 0:
                return Comparison.LESS
            if ra & ~rb == 0:
                return Comparison.GREATER
            return Comparison.INCOMPARABLE
    return Comparison.EQUAL
