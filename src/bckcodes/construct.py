"""From posets and triangular-family codes back to BCK-algebras.

Any finite poset with a minimum carries a BCK table: x*y = 0 when
x <= y, and x*y = x otherwise (whether y < x or the two are
incomparable).  Applying this to the word order of a triangular-family
code turns the code into an algebra; `verify_roundtrip` then reports
how faithfully the canonical code of that algebra reproduces the input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .algebra import CayleyAlgebra, Poset, _checked_names
from .codes import BlockCode, Codeword, _triangular_defect, bit_positions, pack_bits
from .encode import BckFunction
from .errors import InputError, InternalInvariantError


def algebra_from_poset(p: Poset, names: tuple[str, ...] | None = None) -> CayleyAlgebra:
    """The standard BCK table of a poset with a minimum.

    The minimum becomes element 0; when it is not already at index 0
    the other elements shift up while keeping their relative order.
    """
    if p.minimum is None:
        raise InputError("poset has no minimum element")
    n = p.order
    names = _checked_names(names, n)
    order_of = [p.minimum] + [i for i in range(n) if i != p.minimum]
    label = {e: x for x, e in enumerate(order_of)}
    table = [[x] * n for x in range(n)]
    for x, e in enumerate(order_of):
        for y in bit_positions(p.rows[e], n):
            table[x][label[y]] = 0
    # every cell is 0 or its row index x < n
    return CayleyAlgebra._trusted(tuple(map(tuple, table)), names)


@dataclass(frozen=True)
class ConstructionResult:
    """Everything produced on the way from a code to its algebra."""

    algebra: CayleyAlgebra
    code: BlockCode
    function: BckFunction
    poset: Poset


def construct_from_code(code: BlockCode) -> ConstructionResult:
    """Build the algebra of a triangular-family code's word order.

    The code is sorted lex-descending first, so element i of the
    algebra corresponds to sorted word i (the all-ones word becomes 0).
    """
    sorted_code, rows = _word_order(code)
    poset = Poset(rows)
    names = tuple(f"w{i + 1}" for i in range(len(sorted_code)))
    algebra = algebra_from_poset(poset, names)
    function = BckFunction.identity(algebra)
    return ConstructionResult(algebra, sorted_code, function, poset)


def _word_order(code: BlockCode) -> tuple[BlockCode, tuple[int, ...]]:
    """A checked triangular-family code, sorted lex-descending (``code``
    itself when it already is), and the rows of its word order: bit j
    of row k is set iff word k <= word j.

    Sorted word k has no 1 left of column k and a 1 at column k, so for
    j < k word j has a 1 where word k has none: bits 0..k-1 of row k
    are 0 and bit k is 1.  So the loop starts row k at that diagonal 1
    and packs the bits of words k+1..n-1 after it.
    """
    n = code.length
    values = sorted(code.values, reverse=True)
    reason = _triangular_defect(values, n)
    if reason:
        raise InputError(f"not a triangular-family code: {reason}")
    rows = []
    for k, a in enumerate(values):
        row, outside = 1, ~a  # bit k is the diagonal's 1
        for b in values[k + 1 :]:
            row = row << 1 | (not b & outside)
        rows.append(row)
    if rows[0] != (1 << n) - 1:
        raise InternalInvariantError("all-ones word is not the order minimum")
    if code.values != tuple(values):
        code = BlockCode.of(values, n)
    return code, tuple(rows)


@dataclass(frozen=True)
class RowMismatch:
    element: int
    expected: Codeword
    produced: Codeword


@dataclass(frozen=True)
class RoundTripReport:
    """How the regenerated canonical code relates to the input code.

    The report holds its inputs: ``code``, the sorted input code, and
    ``rows``, the rows of its word order as `_word_order` returns them
    (bit j of row k is set iff word k <= word j).  Every other field is
    derived from the two when it is read.

    ``exact`` compares the regenerated code with the sorted input as
    sequences.  ``self_describing`` holds when the sorted matrix already
    equals the word-order incidence matrix of its own rows.  Row k of
    that matrix is the word the algebra produces for element k, and the
    regenerated code is those rows sorted lex-descending.  Each row's
    leading 1 is on the diagonal (see `_word_order`), so the rows are
    already strictly descending: the regenerated code is the rows in
    order, and it equals the sorted input exactly when no row
    mismatches.  So ``exact`` and ``self_describing`` are both
    ``not mismatches``, that is ``code.values == rows``.  ``regenerated``
    and ``mismatches`` are built by the checked constructors on first
    read and cached; equality and hashing come from ``(code, rows)``,
    which determine every field.  The report reads only the sorted code
    and its word order, so `verify_roundtrip` builds no poset and no
    table, and no codeword until ``mismatches`` is read.
    """

    code: BlockCode
    rows: tuple[int, ...]

    @property
    def exact(self) -> bool:
        return self.code.values == self.rows

    self_describing = exact

    @functools.cached_property
    def regenerated(self) -> BlockCode:
        # with no mismatch the rows are the sorted code's values (see above)
        return self.code if self.exact else BlockCode.of(self.rows, self.code.length)

    @functools.cached_property
    def mismatches(self) -> tuple[RowMismatch, ...]:
        n = len(self.rows)
        return tuple(
            RowMismatch(k, Codeword.of(w, n), Codeword.of(r, n))
            for k, (w, r) in enumerate(zip(self.code.values, self.rows))
            if w != r
        )


def verify_roundtrip(code: BlockCode) -> RoundTripReport:
    """The round-trip report of a triangular-family code."""
    return RoundTripReport(*_word_order(code))


def iter_posets_with_minimum(n: int) -> Iterator[Poset]:
    """Every labeled poset on 0..n-1 that has a minimum element.

    Each unordered pair independently takes one of three states
    (incomparable, <, >); assignments failing transitivity or lacking a
    minimum are dropped.  Order of results is fixed by the sweep.
    """
    if n < 1:
        raise InputError("n must be positive")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    unit = [pack_bits(j == i for j in range(n)) for i in range(n)]
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        rows = list(unit)
        for (i, j), state in zip(pairs, assignment):
            if state == 1:
                rows[i] |= unit[j]
            elif state == 2:
                rows[j] |= unit[i]
        try:
            poset = Poset(rows)
        except InputError:  # reflexive and antisymmetric by construction: not transitive
            continue
        if poset.minimum is not None:
            yield poset
