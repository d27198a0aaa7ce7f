"""Pure Python kernels.

`axiom_witnesses` scans a flattened Cayley table for the first
violation of each of the five BCK axioms, `table_is_bck` answers the
same question with a yes or no, `property_witnesses` finds the first
counterexample to commutativity and to implicativity, and
`bck_candidates` enumerates the naturally labeled Cayley tables of a
given order that satisfy all five axioms, one or more per isomorphism
class, in a fixed depth-first order.

The axiom-1 scan is cubic in the order.  From order `_NUMPY_MIN_ORDER`
up, each scan copies the table once into an int32 array and runs on it
with whole-table numpy operations, axiom 1 one x at a time; below that
it walks the flat table in plain loops.  Witnesses stay
lexicographically first in (x, y, z) either way.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

_NUMPY_MIN_ORDER = 32

BACKEND_NAME = "pure"


def _axiom1_witness_loops(t: Sequence[int], n: int):
    for x in range(n):
        row = x * n
        for y in range(n):
            a = t[row + y]
            for z in range(n):
                c = t[a * n + t[row + z]]
                if t[c * n + t[z * n + y]] != 0:
                    return (x, y, z)
    return None


def _axiom1_witness_numpy(t, n: int):
    # Flat indices are int32 too, which holds n*n for every n up to 46340.
    T = np.asarray(t, dtype=np.int32).reshape(n, n)
    scaled = T * n  # scaled[x, y] is where row x*y starts in the flat table
    zy = np.ascontiguousarray(T.T)  # zy[y, z] = z*y
    flat = T.ravel()
    rows, inner, out = np.empty_like(T), np.empty_like(T), np.empty_like(T)
    # mode="clip" lets take write straight into `out` (the default mode
    # buffers); indices are in range, so nothing is clipped.
    for x in range(n):
        a = T[x]
        np.take(scaled, a, axis=0, out=rows, mode="clip")
        np.take(rows, a, axis=1, out=inner, mode="clip")  # (x*y)*(x*z), scaled
        inner += zy
        np.take(flat, inner, out=out, mode="clip")  # ((x*y)*(x*z))*(z*y)
        if out.any():
            y, z = np.argwhere(out)[0]
            return (x, int(y), int(z))
    return None


def _first(mask):
    """Index tuple of the first True in row-major order, or None."""
    hits = np.flatnonzero(mask)
    if not hits.size:
        return None
    return tuple(int(i) for i in np.unravel_index(hits[0], mask.shape))


def _axiom_witnesses_numpy(t: Sequence[int], n: int):
    T = np.asarray(t, dtype=np.int32).reshape(n, n)
    left = np.take_along_axis(T, T, axis=1)  # x*(x*y)
    zero = T == 0
    distinct_zero = zero & zero.T
    np.fill_diagonal(distinct_zero, False)
    return (
        _axiom1_witness_numpy(T, n),
        _first(np.take_along_axis(T, left, axis=0) != 0),
        _first(T.diagonal() != 0),
        _first(distinct_zero),
        _first(T[0] != 0),
    )


def axiom_witnesses(flat: Sequence[int], n: int):
    """First violation of each axiom, or None per axiom when it holds.

    Returns a 5-tuple ordered axiom 1 through 5; entries are index
    tuples shaped (x, y, z), (x, y), (x,), (x, y), (x,).  Entries of
    ``flat`` must lie in 0..n-1.
    """
    if n >= _NUMPY_MIN_ORDER:
        return _axiom_witnesses_numpy(flat, n)
    t = flat
    w1 = _axiom1_witness_loops(t, n)

    w2 = None
    for x in range(n):
        row = x * n
        for y in range(n):
            if t[t[row + t[row + y]] * n + y] != 0:
                w2 = (x, y)
                break
        if w2 is not None:
            break

    w3 = None
    for x in range(n):
        if t[x * n + x] != 0:
            w3 = (x,)
            break

    w4 = None
    for x in range(n):
        row = x * n
        for y in range(n):
            if x != y and t[row + y] == 0 and t[y * n + x] == 0:
                w4 = (x, y)
                break
        if w4 is not None:
            break

    w5 = None
    for x in range(n):
        if t[x] != 0:
            w5 = (x,)
            break

    return (w1, w2, w3, w4, w5)


def property_witnesses(flat: Sequence[int], n: int):
    """First (x, y) breaking commutativity and implicativity, or None each.

    Commutative: x*(x*y) = y*(y*x).  Implicative: x*(y*x) = x.  The
    scan does not check the axioms; callers decide what the answer
    means on a table that is not BCK.
    """
    if n >= _NUMPY_MIN_ORDER:
        T = np.asarray(flat, dtype=np.int32).reshape(n, n)
        left = np.take_along_axis(T, T, axis=1)  # x*(x*y)
        back = np.take_along_axis(T, T.T, axis=1)  # x*(y*x)
        return (
            _first(left != left.T),
            _first(back != np.arange(n)[:, None]),
        )
    t = flat
    cells = [(x, y) for x in range(n) for y in range(n)]
    comm = next(
        ((x, y) for x, y in cells if t[x * n + t[x * n + y]] != t[y * n + t[y * n + x]]),
        None,
    )
    impl = next(((x, y) for x, y in cells if t[x * n + t[y * n + x]] != x), None)
    return (comm, impl)


def table_is_bck(flat: Sequence[int], n: int) -> bool:
    return all(w is None for w in axiom_witnesses(flat, n))


def bck_candidates(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every naturally labeled order-n BCK Cayley table.

    A table is naturally labeled when x*y = 0 and x != y imply x < y as
    integers.  Every isomorphism class has such a member: the induced
    order has a linear extension with 0 first.  Since x*y <= x in every
    BCK-algebra, a naturally labeled table has x*y in 1..x when x > y
    and in 0..x otherwise, and those are the only values tried.

    Cells (0, y), (x, 0) and (x, x) are pinned to 0, x and 0; the
    remaining cells are filled depth-first in row-major order with
    values tried in ascending order, pruning on axiom instances that
    the partial assignment already determines.  Unassigned cells hold
    -1 during the search, so value lookups guard with `>= 0`.  Tables
    are yielded as they are found, in ascending order of the flat
    table, so taking the first few is cheap.
    """
    t = [-1] * (n * n)
    for x in range(n):
        t[x] = 0
        t[x * n] = x
        t[x * n + x] = 0

    cells = [(x, y) for x in range(1, n) for y in range(1, n) if x != y]
    domains = [range(1, x + 1) if x > y else range(x + 1) for x, y in cells]

    def violates(x: int, y: int) -> bool:
        v = t[x * n + y]
        if v == 0 and t[y * n + x] == 0:
            return True
        p = t[x * n + v]
        if p >= 0 and t[p * n + y] > 0:
            return True
        for z in range(n):
            b = t[x * n + z]
            if b < 0:
                continue
            c = t[v * n + b]
            if c >= 0:
                d = t[z * n + y]
                if d >= 0 and t[c * n + d] > 0:
                    return True
            c = t[b * n + v]
            if c >= 0:
                d = t[y * n + z]
                if d >= 0 and t[c * n + d] > 0:
                    return True
        return False

    def fill(depth: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if depth == len(cells):
            if table_is_bck(t, n):
                yield tuple(tuple(t[x * n : x * n + n]) for x in range(n))
            return
        x, y = cells[depth]
        idx = x * n + y
        for v in domains[depth]:
            t[idx] = v
            if not violates(x, y):
                yield from fill(depth + 1)
        t[idx] = -1

    return fill(0)
