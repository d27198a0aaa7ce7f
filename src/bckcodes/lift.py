"""Embedding arbitrary codes into the triangular family, and the
algebra carried by the whole family of a given order.

`lift_code` takes the sorted code's words as the rows of an n x m
matrix A, widens it with `embed_matrix` into the square block matrix
[[I_n, A], [0, I_m]] and completes that with `ensure_all_ones` when it
lacks an all-ones first row.  The completed code is its own word
order, so it round-trips exactly, and the lift reads the original code
back off its words' columns that carried A.  The algebra of the
completed code is built when it is first read.
"""

from __future__ import annotations

import functools

from ._value import Value
from .algebra import MAX_ORDER, CayleyAlgebra, Poset
from .codes import (
    BlockCode,
    as_int,
    embed_matrix,
    ensure_all_ones,
    enumerate_triangular_codes,
    lex_sort_desc,
    staircase_code,
)
from .construct import algebra_from_poset, construct_from_code
from .encode import BckFunction
from .errors import InputError, InternalInvariantError


class LiftResult(Value):
    """Outcome of lifting a code into the triangular family.

    The result holds what the lift computes: ``lifted_code``, the
    sorted input ``source_code``, ``embedded`` and ``ambient``, which
    is its own word order (see `lift_code`) and so round-trips exactly.
    ``lifted_code`` always contains every word of the sorted input.
    ``column_map[j]`` is the ambient algebra element standing for
    column j of the sorted input, one of the last m elements.
    ``algebra`` (that of `construct_from_code(ambient)`),
    ``domain`` (the labels of the ``column_map`` elements) and
    ``function`` are built by the checking constructors on first read
    and cached; equality and hashing come from the stored fields, which
    determine every other.
    """

    lifted_code: BlockCode
    source_code: BlockCode
    embedded: BlockCode
    ambient: BlockCode

    @property
    def column_map(self) -> tuple[int, ...]:
        order = len(self.ambient)
        return tuple(range(order - self.source_code.length, order))

    @functools.cached_property
    def algebra(self) -> CayleyAlgebra:
        return construct_from_code(self.ambient).algebra

    @functools.cached_property
    def domain(self) -> tuple[str, ...]:
        return tuple(self.algebra.names[e] for e in self.column_map)

    @functools.cached_property
    def function(self) -> BckFunction:
        return BckFunction(self.domain, self.algebra, self.column_map)


def lift_code(v: BlockCode) -> LiftResult:
    """Lift ``v`` into the triangular family; `InputError`, before any
    matrix is built, when the ambient order would exceed `algebra.MAX_ORDER`.
    The lift builds no word order, no poset and no table until
    ``algebra`` is read.

    The ambient code is its own word order: bit y of row x of the order
    is set when x <= y, that is when word y's support lies inside word
    x's.  Sorted, the ambient words are 1...1 (when added), then
    r_i = e_i | a_i, then the unit words e_j of the last m columns, and
    each word's leading 1 is in the column of its own index.  Inside r_i
    lie only r_i and the e_j with bit j of a_i set: every other r_k has
    a 1 in column k, and 1...1 has every column.  Inside e_j lies only
    e_j, and inside 1...1 everything.  So row x of the order is word x,
    and the lifted code is the set of the ambient words' last m bits,
    which holds every a_i.
    """
    # the rows of [[I, A], [0, I]], plus an all-ones row unless A is one all-ones word
    order = len(v) + v.length + (len(v) > 1 or v.values[0] != (1 << v.length) - 1)
    if order > MAX_ORDER:
        raise InputError(f"ambient order {order} exceeds the bound {MAX_ORDER}")
    sorted_v = lex_sort_desc(v)
    embedded = embed_matrix(sorted_v)
    ambient = ensure_all_ones(embedded)
    m = sorted_v.length
    # element x's word on the last m columns is the low m bits of its order row, word x
    words = {w & (1 << m) - 1 for w in ambient.values}
    lifted = BlockCode.of(sorted(words, reverse=True), m)

    missing = set(sorted_v.values) - set(lifted.values)
    if missing:
        raise InternalInvariantError(
            f"lifted code lost {len(missing)} input codeword(s)"
        )
    return LiftResult(lifted, sorted_v, embedded, ambient)


def family_algebra(n: int) -> tuple[CayleyAlgebra, BlockCode]:
    """The BCK-algebra carried by all triangular-family codes of order n.

    Members are sorted descending by their matrices, so the staircase
    code is element 0; x*y = 0 exactly when x's matrix precedes y's in
    the row-by-row word order: at the first row k where they differ,
    y's word has no 1 outside x's.  The order rows are built block by
    block: members sharing rows 0..k-1 are one contiguous run, those
    that also share row k are contiguous sub-runs, and every member of
    sub-run A is below every member of each sibling sub-run whose row-k
    word lies inside A's.  Returns the algebra together with its
    canonical code (one word per member), which is the rows of the
    order: x <= y forces y's row-k word to be a proper subset of x's,
    so y sorts after x, and each row's leading 1 is on the diagonal.
    Bounded at n = 6, where the family has 1024 members:
    order 7 has 32,768, so its table would have 2**30 cells.
    """
    n = as_int(n)
    if not 1 <= n <= 6:
        raise InputError("family_algebra supports 1 <= n <= 6")

    # each member's words already come lex-descending
    packed = sorted((c.values for c in enumerate_triangular_codes(n)), reverse=True)
    if packed[0] != staircase_code(n).values:
        raise InternalInvariantError("family maximum is not the staircase code")
    size = len(packed)
    rows = [0] * size

    def span(lo: int, hi: int) -> int:
        """Bits lo..hi-1 of a size-bit order row, bit 0 most significant."""
        return ((1 << (hi - lo)) - 1) << (size - hi)

    def build(lo: int, hi: int, k: int, above: int) -> None:
        # members lo..hi-1 share rows 0..k-1 and are all below the bits in `above`
        runs = []
        for i in range(lo, hi):
            if runs and runs[-1][0] == packed[i][k]:
                runs[-1][2] = i + 1
            else:
                runs.append([packed[i][k], i, i + 1])
        for a, a_lo, a_hi in runs:
            mask = above
            for b, b_lo, b_hi in runs:
                if b != a and b & ~a == 0:
                    mask |= span(b_lo, b_hi)
            if a_hi - a_lo == 1:
                rows[a_lo] = mask | span(a_lo, a_hi)
            else:
                build(a_lo, a_hi, k + 1, mask)

    build(0, size, 0, 0)
    poset = Poset(rows)
    if poset.minimum != 0:
        raise InternalInvariantError("staircase code is not the order minimum")
    return algebra_from_poset(poset), BlockCode.of(poset.rows, size)
