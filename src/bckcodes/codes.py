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
import functools
import operator
from collections.abc import Iterable, Iterator
from itertools import compress, product, repeat

from ._value import Value
from .errors import InputError, InternalInvariantError


def pack_bits(bits: Iterable[int]) -> int:
    """The value of the word with these 0/1 bits, bit 0 most significant."""
    value = 0
    for b in bits:
        value = value << 1 | b
    return value


def as_int(value) -> int:
    """``value`` as an int (Python and numpy integers); `InputError` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{value!r} is not an integer") from None


def as_ints(values) -> tuple[int, ...]:
    """``values`` as a tuple of ints in one pass; `InputError` names the first non-integer."""
    try:
        values = tuple(values)
    except TypeError:
        raise InputError(f"{values!r} is not a sequence of integers") from None
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return tuple(map(as_int, values))  # raises at the first non-integer


# The bits `Codeword(bits)` accepts; 0.0, 1.0 and bools hash and compare
# equal to these keys, and any other value is a KeyError or a TypeError.
_BIT = {0: 0, 1: 1, "0": 0, "1": 1}

# The bytes of a word's binary digits, b"0" and b"1", as the bits 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _digits(value: int, length: int) -> bytes:
    """The bits of a ``length``-bit word as the bytes 0 and 1, bit 0 first."""
    # a sentinel 1 above bit 0 keeps the leading zeros; [3:] drops "0b1"
    return bin(value | 1 << length).encode()[3:].translate(_BIT_BYTES)


def bit_positions(value: int, length: int) -> list[int]:
    """The positions of the 1-bits of a ``length``-bit word, ascending."""
    return list(compress(range(length), _digits(value, length)))


class Codeword(Value):
    """A word of ``length`` bits; bit 0 is the most significant bit of ``value``."""

    value: int
    length: int

    def __init__(self, bits):
        """The word with these bits: 0/1 numbers, bools or the characters '0'/'1'."""
        try:
            bits = tuple([_BIT[b] for b in bits])
        except (KeyError, TypeError):
            raise InputError("codeword bits must be 0 or 1") from None
        if not bits:
            raise InputError("empty codeword")
        vars(self).update(value=pack_bits(bits), length=len(bits))

    @classmethod
    def of(cls, value: int, length: int) -> "Codeword":
        """The word of ``length`` bits whose integer value is ``value``."""
        value = as_int(value)
        try:
            length = operator.index(length)
            if length < 1 or not 0 <= value < 1 << length:
                raise InputError(f"value {value} does not fit in {length} bits")
        except TypeError:
            raise InputError(f"length {length!r} is not an integer") from None
        return _codeword(value, length)

    @classmethod
    def from_string(cls, s: str) -> "Codeword":
        """The word spelled by ``s``, which holds only the ASCII characters 0 and 1."""
        if not isinstance(s, str) or s.strip("01"):
            raise InputError("codeword bits must be 0 or 1")
        if not s:
            raise InputError("empty codeword")
        return cls.of(int(s, 2), len(s))

    @property
    def bits(self) -> tuple[int, ...]:
        """The bits as 0/1 ints, bit 0 first; equal words share one cached tuple."""
        return _bits(self.value, self.length)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")

    def __len__(self) -> int:
        return self.length

    @property
    def support(self) -> frozenset[int]:
        return frozenset(bit_positions(self.value, self.length))


def _codeword(value: int, length: int) -> Codeword:
    """The `Codeword` of an int ``value`` known to fit in ``length`` >= 1 bits."""
    w = object.__new__(Codeword)
    fields = w.__dict__  # one dict write per field; the class is frozen
    fields["value"] = value
    fields["length"] = length
    return w


# The codeword view shares its results: a code reads its words through
# `_shared_codeword` and a word its bits through `_bits`, so equal
# (value, length) pairs give one immutable `Codeword` and one bit tuple.
# Both key on exact ints (every constructor stores `value` and `length`
# as `int`, so the key (1, 1) never hands back a word of length True).
# Each keeps at most the 1,024 words of the largest code the CLI reads
# (`algebra.MAX_ORDER`), so any one code fits, and at 1,024 distinct
# 1,024-bit words the two retain 8.9 MB (tracemalloc), nearly all of
# it the bit tuples.
_SHARED_WORDS = 1024
_shared_codeword = functools.lru_cache(maxsize=_SHARED_WORDS)(_codeword)


@functools.lru_cache(maxsize=_SHARED_WORDS)
def _bits(value: int, length: int) -> tuple[int, ...]:
    """The bits of a ``length``-bit word as 0/1 ints, bit 0 first."""
    return tuple(_digits(value, length))


def word_leq(a: Codeword, b: Codeword) -> bool:
    """Codeword order: a <= b iff b's support is contained in a's."""
    if len(a) != len(b):
        raise InputError("codewords have different lengths")
    return b.value & ~a.value == 0


class BlockCode(Value):
    """A non-empty set of distinct words of ``length`` bits, held as integers.

    ``values[i]`` is word i in the `Codeword` layout, bit 0 the most
    significant; ``words`` and ``strings()`` are derived from it.
    `BlockCode(words)` builds a code from words or bit sequences and
    `BlockCode.of(values, length)` from the integers; both check their
    input.  Word order is preserved as given; two BlockCode values are
    equal only when their values and lengths match.  Use
    `lex_sort_desc` for the canonical arrangement.
    """

    values: tuple[int, ...]
    length: int

    def __init__(self, words):
        try:
            words = tuple(w if isinstance(w, Codeword) else Codeword(tuple(w)) for w in words)
        except TypeError:
            raise InputError("a block code takes codewords or sequences of bits") from None
        if not words:
            raise InputError("a block code needs at least one codeword")
        length = len(words[0])
        if any(len(w) != length for w in words):
            raise InputError("codewords must share one length")
        values = _distinct(tuple(w.value for w in words))
        vars(self).update(values=values, length=length)

    @classmethod
    def of(cls, values, length: int) -> "BlockCode":
        """The code whose words are the ``length``-bit integers ``values``, in order.

        Each check is one pass over the values; only when it fails does
        a second pass find the first offending value for the message.
        """
        values = as_ints(values)
        if not values:
            raise InputError("a block code needs at least one codeword")
        try:
            length = operator.index(length)
            if length < 1 or min(values) < 0 or max(values) >> length:
                for v in values:
                    if length < 1 or not 0 <= v < 1 << length:
                        raise InputError(f"value {v} does not fit in {length} bits")
        except TypeError:
            raise InputError(f"length {length!r} is not an integer") from None
        return _block_code(_distinct(values), length)

    @classmethod
    def from_strings(cls, strings) -> "BlockCode":
        return cls(tuple(Codeword.from_string(s) for s in strings))

    @property
    def words(self) -> tuple[Codeword, ...]:
        """The words as `Codeword`s, in order, shared through a bounded cache."""
        # every constructor has checked that the values fit in length >= 1 bits
        return tuple(map(_shared_codeword, self.values, repeat(self.length)))

    def strings(self) -> tuple[str, ...]:
        spec = f"0{self.length}b"
        return tuple(format(v, spec) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)


def _distinct(values: tuple[int, ...]) -> tuple[int, ...]:
    if len(set(values)) != len(values):
        raise InputError("duplicate codeword")
    return values


def _block_code(values: tuple[int, ...], length: int) -> BlockCode:
    """The `BlockCode` of distinct ints ``values`` known to fit in ``length`` >= 1 bits."""
    code = object.__new__(BlockCode)
    vars(code).update(values=values, length=length)
    return code


def lex_sort_desc(code: BlockCode) -> BlockCode:
    """The same code with words in descending lexicographic order."""
    return BlockCode.of(sorted(code.values, reverse=True), code.length)


class MembershipCheck(Value):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_triangular_code(code: BlockCode) -> MembershipCheck:
    """Membership in the square unit-upper-triangular code family.

    A member has as many words as bit positions, contains the all-ones
    word, and its lex-descending matrix is upper triangular with ones on
    the diagonal.  Sorted row i has no 1 left of column i and a 1 at
    column i exactly when its bit length is n - i, so n lex-descending
    n-bit values are a member iff the first is all ones and their bit
    lengths are n, n-1, ..., 1.  The reason string names the first
    failed condition.
    """
    reason = _triangular_defect(sorted(code.values, reverse=True), code.length)
    return MembershipCheck(reason is None, reason)


def _unit_upper_triangular(values: Iterable[int], n: int) -> bool:
    """Whether the rows ``values`` of n-bit words form a square unit
    upper-triangular matrix: row i's bit length is n - i."""
    return list(map(int.bit_length, values)) == list(range(n, 0, -1))


def _triangular_defect(values: list[int], n: int) -> str | None:
    """Why the lex-descending ``values`` of n-bit words are not a member
    of the triangular family (the first failed condition); None if they are."""
    if len(values) != n:
        return f"not square: {len(values)} words of length {n}"
    if values[0] != (1 << n) - 1:
        return "all-ones word missing"
    if _unit_upper_triangular(values, n):
        return None
    for i, v in enumerate(values):
        defect = _row_defect(v, i, n)
        if defect:
            return f"sorted row {i} {defect}"
    raise InternalInvariantError("a row fails the bit-length test but has no defect")


def _row_defect(value: int, i: int, n: int) -> str | None:
    """Why ``value`` cannot be row i of an n-column unit upper-triangular
    matrix (a 1 left of column i, or no 1 at column i); None if it can."""
    if value >> (n - i):
        return "has a 1 left of the diagonal"
    if not value >> (n - 1 - i) & 1:
        return "has no 1 on the diagonal"
    return None


def _family_values(code: BlockCode) -> list[int]:
    """The values of a triangular-family code, lex-descending;
    `InputError` naming the first failed condition when it is not one."""
    values = sorted(code.values, reverse=True)
    reason = _triangular_defect(values, code.length)
    if reason:
        raise InputError(f"not a triangular-family code: {reason}")
    return values


def embed_matrix(m: BlockCode) -> BlockCode:
    """The rows of [[I, A], [0, I]], where A's rows are m's lex-descending words."""
    values = m.values
    if any(a < b for a, b in zip(values, values[1:])):
        raise InputError("matrix rows must be in descending lexicographic order")
    size = len(values) + m.length
    rows = [1 << (size - 1 - i) | v for i, v in enumerate(values)]
    rows += (1 << j for j in reversed(range(m.length)))
    return BlockCode.of(rows, size)


def ensure_all_ones(b: BlockCode) -> BlockCode:
    """Prepend an all-ones row (and a zero column) to the rows of a square unit
    upper-triangular matrix; ``b`` itself when its row 0 is all ones."""
    n = b.length
    if not _unit_upper_triangular(b.values, n):
        raise InputError("expected a square unit upper-triangular matrix")
    if b.values[0] == (1 << n) - 1:
        return b
    return BlockCode.of(((1 << n + 1) - 1, *b.values), n + 1)


# Ceiling on the family's order: 2,097,152 members at order 8, 2**28 at 9.
_FAMILY_MAX_ORDER = 8


def enumerate_triangular_codes(n: int) -> Iterator[BlockCode]:
    """Iterate lazily over every member of the order-n triangular family.

    Row 0 is forced to all ones and row n-1 to 0...01; rows in between
    have free bits right of the diagonal, swept most-significant-first
    in row-major order, so the family arrives in a stable sequence of
    size 2**((n-1)*(n-2)/2).  n runs from 1 to 8; the bounds are checked
    on the call, before the first member, and the rows' ranges,
    2**(n-1) - 1 values in all, are held from then on.
    """
    n = as_int(n)
    if n < 1:
        raise InputError("n must be positive")
    if n > _FAMILY_MAX_ORDER:
        raise InputError(f"n={n} exceeds the bound {_FAMILY_MAX_ORDER}")
    # row i is 1 at column i and free right of it; row 1 varies slowest
    top = (1 << n) - 1
    rows = product(*(range(1 << (n - 1 - i), 1 << (n - i)) for i in range(1, n)))
    # row i fits n bits with bit length n - i, so the rows are distinct
    return (_block_code((top, *r), n) for r in rows)


def staircase_code(n: int) -> BlockCode:
    """The member whose sorted row k is k zeros followed by n-k ones."""
    n = as_int(n)
    if n < 1:
        raise InputError("n must be positive")
    return BlockCode.of([(1 << (n - i)) - 1 for i in range(n)], n)


class Comparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _sorted_members(code: BlockCode, other: BlockCode):
    if code.length != other.length or len(code) != len(other):
        raise InputError("codes must share the same order to be compared")
    return _family_values(code), _family_values(other)


def compare_codes_lex(v: BlockCode, w: BlockCode) -> Comparison:
    """Total order: compare the first differing sorted rows as numbers."""
    a, b = _sorted_members(v, w)
    # lists of one length compare at their first differing item
    if a == b:
        return Comparison.EQUAL
    return Comparison.GREATER if a > b else Comparison.LESS


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
