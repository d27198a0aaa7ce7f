"""Exhaustive enumeration of small BCK-algebras and their codes.

The search runs up to isomorphism.  The kernel yields only naturally
labeled tables, at least one per isomorphism class, and each one not
seen before is expanded into its orbit under the relabelings that fix
element 0.  An orbit is exactly one isomorphism class, so the census
reads its classes straight off the orbits, with no pairwise
isomorphism tests.  Orders up to 5 take well under a second; order 6,
the ceiling, takes some seconds.  The labeled stream is
the union of the orbits in ascending order, comparing row by row, so
runs are reproducible and two runs can be compared table for table.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from . import _kernels
from ._value import Value
from .algebra import (
    CayleyAlgebra, Table, _linear_extensions, _relabel, _relabelings, check_axioms, induced_order
)
from .codes import BlockCode, as_int, bit_positions
from .encode import _code
from .errors import InputError, InternalInvariantError, NotBckError

# the orbits hold every table at once, 5,681,589 of them at order 7
_MAX_ORDER = 6


def _check_order(n: int) -> int:
    """n as an int; `InputError` unless the census covers order n, 1 to `_MAX_ORDER`."""
    n = as_int(n)
    if n < 1:
        raise InputError("order must be positive")
    if n > _MAX_ORDER:
        raise InputError(f"order {n} is out of scope (max {_MAX_ORDER})")
    return n


def _orbits(n: int) -> list[list[Table]]:
    """Every order-n BCK table as one sorted list per isomorphism class.

    Each kernel table not yet seen is relabeled by every bijection of
    `algebra._relabelings`, and its orbit is one class.  Classes are
    listed by their least table.  Equal rows of different tables are
    one shared tuple, which keeps the order-6 sets small.  The callers
    check n with `_check_order`.
    """
    relabelings = list(_relabelings(n))
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    seen: set[Table] = set()
    orbits = []
    for table in _kernels.bck_candidates(n):
        if table not in seen:
            orbit = {
                tuple(shared.setdefault(r, r) for r in _relabel(table, h))
                for h in relabelings
            }
            seen |= orbit
            orbits.append(sorted(orbit))
    orbits.sort()
    return orbits


def _checked(tables: Iterable[Table]) -> Iterator[CayleyAlgebra]:
    """Wrap tables, each re-validated once with `check_axioms`."""
    for table in tables:
        alg = CayleyAlgebra(table)
        if not check_axioms(alg).is_bck:
            raise InternalInvariantError(f"search yielded a non-BCK table {alg.table}")
        yield alg


def _sorted_tables(n: int) -> Iterator[Table]:
    """Every order-n BCK table, ascending; the search runs on the first `next()`."""
    yield from sorted(chain.from_iterable(_orbits(n)))


def enumerate_bck_algebras(n: int) -> Iterator[CayleyAlgebra]:
    """Stream every BCK Cayley table of order n, element 0 the constant.

    Tables arrive in ascending order, compared row by row: the order in
    which a row-major depth-first search over all labelings, values
    ascending, would find them.  The order is checked on the call,
    which raises `InputError` outside 1 to 6; the search runs on the
    first `next()`, and the whole set is built before the first table
    is yielded.  Each table is re-validated with `check_axioms`; the
    kernel already guarantees BCK, so a failure is an internal
    invariant breach.
    """
    n = _check_order(n)
    return _checked(_sorted_tables(n))


def label_canonical_code(alg: CayleyAlgebra) -> BlockCode:
    """Canonical code minimised over the linear extensions of the order.

    Plain canonical codes are label-sensitive, so this is the variant
    that is constant on isomorphism classes.  An element's codeword is
    its up-set in the induced order, so a relabeling h maps the code to
    the words {h(y) : y in up(x)}: only the order's n rows are
    relabeled, never the table.  The relabelings tried are the linear
    extensions of `induced_order(alg)`, from `algebra._linear_extensions`:
    e(P) maps instead of all (n-1)! bijections fixing 0.

    The least code over them is the least over all (n-1)!, by an
    exchange argument.  The word of x under h is the sum of
    2^(n-1-h(y)) over y >= x, and the code is the words sorted
    descending.  Take h fixing 0 with an inversion, v < u in the order
    but h(v) > h(u); neither is 0, which is least and fixed.  Swap the
    labels of u and v.  When x <= v, also x <= u, both bits stay set and
    the word stays; when x <= u but not x <= v, which includes x = u,
    bit h(u) moves to the less significant h(v) and the word falls;
    otherwise neither bit is set.  So every word falls or stays, and so
    does the k-th largest for every k, while the sum falls: the sorted
    code is no greater in any place and differs somewhere, so it is
    lexicographically smaller.  Every minimiser over the (n-1)! maps is
    therefore a linear extension.  The value is constant on isomorphism
    classes, and it determines the order up to isomorphism, since it is
    the rows of a naturally labeled copy.  The axioms are checked once;
    relabeling preserves them.
    """
    if not check_axioms(alg).is_bck:
        raise NotBckError("label_canonical_code requires a BCK-algebra")
    n = alg.order
    order = induced_order(alg)
    ups = [bit_positions(row, n) for row in order.rows]
    least = min(
        sorted((sum(1 << n - 1 - h[y] for y in up) for up in ups), reverse=True)
        for h in _linear_extensions(order)
    )
    return BlockCode.of(least, n)


class ClassEntry(Value):
    """One isomorphism class: its least table, its size and its codes."""

    representative: CayleyAlgebra
    size: int
    code: BlockCode
    label_canonical: BlockCode


class CensusReport(Value):
    """Counting summary for one order.

    ``similarity_classes`` counts distinct plain canonical codes over
    all enumerated tables; being label-sensitive it may exceed
    ``iso_classes``, whereas ``label_canonical_classes`` never does.
    ``code_varies_within_iso_class`` records whether some isomorphism
    class contains two tables with different plain canonical codes.
    ``bound`` is 2**((n-1)(n-2)/2), the size of the triangular code
    family, and ``bound_check`` asserts iso_classes >= bound.
    """

    order: int
    total_tables: int
    iso_classes: int
    similarity_classes: int
    label_canonical_classes: int
    bound: int
    bound_check: bool
    code_varies_within_iso_class: bool
    class_inventory: tuple[ClassEntry, ...]


def census(n: int) -> CensusReport:
    """Count the order-n BCK tables, their isomorphism classes and codes.

    Each class is one orbit: its representative is the orbit's least
    table, its size the orbit's length, and its label-canonical code
    the least code of its members, which is `label_canonical_code` of
    any member.  Classes are listed by representative.
    """
    n = _check_order(n)
    inventory = []
    varies = False
    code_keys = set()
    label_keys = set()
    total = 0
    for orbit in _orbits(n):
        members = list(_checked(orbit))
        codes = [_code(alg.table, range(n)) for alg in members]
        keys = [c.values for c in codes]
        if len(set(keys)) > 1:
            varies = True
        code_keys.update(keys)
        lc = min(codes, key=lambda c: c.values)
        label_keys.add(lc.values)
        total += len(members)
        inventory.append(ClassEntry(members[0], len(members), codes[0], lc))

    bound = 2 ** ((n - 1) * (n - 2) // 2)
    iso_classes = len(inventory)
    return CensusReport(
        order=n,
        total_tables=total,
        iso_classes=iso_classes,
        similarity_classes=len(code_keys),
        label_canonical_classes=len(label_keys),
        bound=bound,
        bound_check=iso_classes >= bound,
        code_varies_within_iso_class=varies,
        class_inventory=tuple(inventory),
    )


def quotient_classes(
    algebras: Iterable[CayleyAlgebra],
) -> tuple[tuple[BlockCode, tuple[CayleyAlgebra, ...]], ...]:
    """Partition BCK-algebras of one order by their canonical codes.

    Returns (code, members) pairs with the lexicographically greatest
    code first; members keep their input order.
    """
    algs = list(algebras)
    if not algs:
        return ()
    order = algs[0].order
    groups: dict[tuple, tuple[BlockCode, list[CayleyAlgebra]]] = {}
    for alg in algs:
        if alg.order != order:
            raise InputError("all algebras must share one order")
        if not check_axioms(alg).is_bck:
            raise NotBckError("quotient_classes requires BCK-algebras")
        code = _code(alg.table, range(order))
        groups.setdefault(code.values, (code, []))[1].append(alg)
    ordered = sorted(groups.items(), key=lambda item: item[0], reverse=True)
    return tuple((code, tuple(members)) for _, (code, members) in ordered)
