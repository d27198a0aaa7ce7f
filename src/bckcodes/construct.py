"""From posets and triangular-family codes back to BCK-algebras.

Any finite poset with a minimum carries a BCK table: x*y = 0 when
x <= y, and x*y = x otherwise (whether y < x or the two are
incomparable).  Applying this to the word order of a triangular-family
code turns the code into an algebra.  `construct_from_code` and
`verify_roundtrip` both return one `ConstructionResult`, which holds
the sorted code and its word order: the algebra is built when it is
first read, and the round trip (how faithfully the canonical code of
that algebra reproduces the input) is read off the two.
"""

from __future__ import annotations

import functools

from ._value import Value
from .algebra import CayleyAlgebra, Poset, _checked_names
from .codes import BlockCode, Codeword, _family_values, bit_positions
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
    values = _family_values(code)
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


class RowMismatch(Value):
    element: int
    expected: Codeword
    produced: Codeword


class ConstructionResult(Value):
    """A triangular-family code and its word order: the algebra and the round trip.

    The result holds what the construction computes: ``code``, the
    sorted input code, and ``rows``, the rows of its word order as
    `_word_order` returns them (bit j of row k is set iff word k <=
    word j).  Every other field is derived from the two when it is read.

    ``poset`` is ``Poset(rows)`` and ``algebra`` is `algebra_from_poset`
    of it with the names w1...wn, so element i of the algebra is sorted
    word i and the all-ones word is element 0.  Both are built by the
    checking constructors on first read and cached.  Support containment
    is a partial order and the all-ones word lies below every word, so
    neither can fail on the rows `_word_order` returns.

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
    read and cached, so the round trip builds no poset and no table,
    and no codeword until ``mismatches`` is read.  Equality and hashing
    come from ``(code, rows)``, which determine every field.
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

    @functools.cached_property
    def poset(self) -> Poset:
        return Poset(self.rows)

    @functools.cached_property
    def algebra(self) -> CayleyAlgebra:
        names = tuple(f"w{i + 1}" for i in range(len(self.rows)))
        return algebra_from_poset(self.poset, names)


# Two functions and not one alias: perfbench/tracing.py times each by name.
def construct_from_code(code: BlockCode) -> ConstructionResult:
    """The construction of a triangular-family code, whose algebra is
    built when ``algebra`` is first read; `InputError`, with the
    membership reason, on any other code."""
    return ConstructionResult(*_word_order(code))


def verify_roundtrip(code: BlockCode) -> ConstructionResult:
    """The round trip of a triangular-family code: ``exact``,
    ``regenerated`` and ``mismatches`` of its construction, which
    `construct_from_code` returns too."""
    return ConstructionResult(*_word_order(code))
