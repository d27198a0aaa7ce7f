"""From posets and triangular-family codes back to BCK-algebras.

Any finite poset with a minimum carries a BCK table: x*y = 0 when
x <= y, and x*y = x otherwise (whether y < x or the two are
incomparable).  Applying this to the word order of a triangular-family
code turns the code into an algebra; `verify_roundtrip` then reports
how faithfully the canonical code of that algebra reproduces the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .algebra import CayleyAlgebra, Poset
from .codes import BlockCode, Codeword, is_triangular_code, lex_sort_desc, pack_bits
from .encode import BckFunction, _code
from .errors import InputError, InternalInvariantError


def algebra_from_poset(p: Poset, names: tuple[str, ...] | None = None) -> CayleyAlgebra:
    """The standard BCK table of a poset with a minimum.

    The minimum becomes element 0; when it is not already at index 0
    the other elements shift up while keeping their relative order.
    """
    if p.minimum is None:
        raise InputError("poset has no minimum element")
    n = p.order
    if p.minimum == 0:
        order_of = list(range(n))
    else:
        order_of = [p.minimum] + [i for i in range(n) if i != p.minimum]
    leq = p.leq
    table = tuple(
        tuple(0 if leq[order_of[x]][order_of[y]] else x for y in range(n))
        for x in range(n)
    )
    return CayleyAlgebra(table, names)


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
    check = is_triangular_code(code)
    if not check:
        raise InputError(f"not a triangular-family code: {check.reason}")
    sorted_code = lex_sort_desc(code)
    values = [w.value for w in sorted_code.words]
    n = len(values)
    leq = tuple(tuple(b & ~a == 0 for b in values) for a in values)
    poset = Poset(leq)
    if poset.minimum != 0:
        raise InternalInvariantError("all-ones word is not the order minimum")
    names = tuple(f"w{i + 1}" for i in range(n))
    algebra = algebra_from_poset(poset, names)
    function = BckFunction.identity(algebra)
    return ConstructionResult(algebra, sorted_code, function, poset)


@dataclass(frozen=True)
class RowMismatch:
    element: int
    expected: Codeword
    produced: Codeword


@dataclass(frozen=True)
class RoundTripReport:
    """How the regenerated canonical code relates to the input code.

    ``exact`` compares the regenerated code with the sorted input as
    sequences.  ``self_describing`` is computed independently: it holds
    when the sorted matrix already equals the word-order incidence
    matrix of its own rows (entry (k, j) is 1 iff word k <= word j).
    """

    exact: bool
    regenerated: BlockCode
    mismatches: tuple[RowMismatch, ...]
    self_describing: bool


def verify_roundtrip(code: BlockCode) -> RoundTripReport:
    return _roundtrip(construct_from_code(code))


def _roundtrip(result: ConstructionResult) -> RoundTripReport:
    """The round-trip report of an algebra already built from its code."""
    words = result.code.words
    n = len(words)
    table = result.algebra.table

    regenerated = _code(table, range(n))
    exact = regenerated == result.code

    mismatches = []
    for k in range(n):
        produced = Codeword.of(pack_bits(table[k][j] == 0 for j in range(n)), n)
        if produced != words[k]:
            mismatches.append(RowMismatch(k, words[k], produced))

    values = [w.value for w in words]
    self_describing = all(a == pack_bits(b & ~a == 0 for b in values) for a in values)
    return RoundTripReport(exact, regenerated, tuple(mismatches), self_describing)


def iter_posets_with_minimum(n: int) -> Iterator[Poset]:
    """Every labeled poset on 0..n-1 that has a minimum element.

    Each unordered pair independently takes one of three states
    (incomparable, <, >); assignments failing transitivity or lacking a
    minimum are dropped.  Order of results is fixed by the sweep.
    """
    if n < 1:
        raise InputError("n must be positive")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), state in zip(pairs, assignment):
            if state == 1:
                leq[i][j] = True
            elif state == 2:
                leq[j][i] = True
        if not _transitive(leq, n):
            continue
        if not any(all(row) for row in leq):
            continue
        yield Poset(tuple(tuple(row) for row in leq))


def _transitive(leq: list[list[bool]], n: int) -> bool:
    for x in range(n):
        lx = leq[x]
        for y in range(n):
            if lx[y]:
                ly = leq[y]
                for z in range(n):
                    if ly[z] and not lx[z]:
                        return False
    return True
