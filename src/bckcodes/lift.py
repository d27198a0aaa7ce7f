"""Embedding arbitrary codes into the triangular family, and the
algebra carried by the whole family of a given order.

`lift_code` takes the sorted code's words as the rows of an n x m
matrix A, widens it with `embed_matrix` into the square block matrix
[[I_n, A], [0, I_m]], completes that with `ensure_all_ones` when it
lacks an all-ones first row, rebuilds the algebra of the completed
code, and reads the original code back off the columns that carried A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MAX_ORDER, CayleyAlgebra, Poset
from .codes import (
    BlockCode,
    embed_matrix,
    ensure_all_ones,
    enumerate_triangular_codes,
    lex_sort_desc,
    staircase_code,
)
from .construct import algebra_from_poset, construct_from_code
from .encode import BckFunction
from .errors import InputError, InternalInvariantError


@dataclass(frozen=True)
class LiftResult:
    """Outcome of lifting a code into the triangular family.

    ``column_map[j]`` is the ambient algebra element standing for
    column j of the sorted input; ``domain`` holds those elements'
    labels in the same order.  ``lifted_code`` always contains every
    word of the sorted input.
    """

    algebra: CayleyAlgebra
    domain: tuple[str, ...]
    function: BckFunction
    lifted_code: BlockCode
    column_map: tuple[int, ...]
    source_code: BlockCode
    embedded: BlockCode
    ambient: BlockCode


def lift_code(v: BlockCode) -> LiftResult:
    """Lift ``v`` into the triangular family; `InputError`, before any
    matrix is built, when the ambient order would exceed `algebra.MAX_ORDER`."""
    # the rows of [[I, A], [0, I]], plus an all-ones row unless A is one all-ones word
    order = len(v) + v.length + (len(v) > 1 or v.values[0] != (1 << v.length) - 1)
    if order > MAX_ORDER:
        raise InputError(f"ambient order {order} exceeds the bound {MAX_ORDER}")
    sorted_v = lex_sort_desc(v)
    embedded = embed_matrix(sorted_v)
    ambient = ensure_all_ones(embedded)

    result = construct_from_code(ambient)
    m = sorted_v.length
    column_map = tuple(range(order - m, order))
    names = result.algebra.names
    domain = tuple(names[e] for e in column_map)
    function = BckFunction(domain, result.algebra, column_map)
    # element r's word on the last m columns is the low m bits of its order row
    words = {r & (1 << m) - 1 for r in result.poset.rows}
    lifted = BlockCode.of(sorted(words, reverse=True), m)

    missing = set(sorted_v.values) - set(lifted.values)
    if missing:
        raise InternalInvariantError(
            f"lifted code lost {len(missing)} input codeword(s)"
        )
    return LiftResult(
        algebra=result.algebra,
        domain=domain,
        function=function,
        lifted_code=lifted,
        column_map=column_map,
        source_code=sorted_v,
        embedded=embedded,
        ambient=ambient,
    )


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
