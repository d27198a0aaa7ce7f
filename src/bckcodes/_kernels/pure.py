"""Pure Python kernels on Cayley tables given as rows, t[x][y] = x*y.

`axiom_witnesses` finds the first violation of each of the five BCK
axioms, `table_is_bck` answers the same question with a yes or no,
`commutative_witness` and `implicative_witness` find the first
counterexample to each property, `order_pairs` lists the pairs x != y
with x*y = 0, and `bck_candidates` enumerates the naturally labeled
Cayley tables of a given order that satisfy all five axioms, one or
more per isomorphism class, in a fixed depth-first order.

The axiom-1 scan is cubic in the order.  From order `_NUMPY_MIN_ORDER`
up, the axiom scan copies the table once into an int32 array and runs on
it with whole-table numpy operations; below that it indexes the rows in
plain loops.  Witnesses stay lexicographically first in (x, y, z)
either way.  The property scans and `order_pairs` run on the array at
every order, and scans of one table in a row share one copy.  numpy is
imported by the first array scan, not with the module, so the search
and every path that never scans an array start without it.

On the array path axiom 1 is first decided by a theorem (Iseki and
Tanaka, Math. Japonica 23, 1978).  If axiom 2 holds, the exchange
identity (x*y)*z = (x*z)*y holds, and right multiplication is monotone
(a*b = 0 implies (a*c)*(b*c) = 0 for every c), then

    ((x*y)*(x*z))*(z*y) = ((x*(x*z))*y)*(z*y) = 0,

by exchange and then monotonicity applied to (x*(x*z))*z = 0, which is
axiom 2.  Every BCK table satisfies all three.  When the proof fails,
the axiom-1 scan runs, one x at a time, and finds the first witness.

Exchange need not be checked on every (x, y, z).  Fix x and let
M[y][z] = (x*y)*z; exchange at x says M is symmetric.  Row y of M
depends only on a = x*y, so pick one y = r_a for each value a in row x.
M is symmetric as soon as M[r_a][w] = M[w][r_a] for every a and w: for
any y, z with a = x*y and b = x*z, each step below reuses a row or
applies that check,

    M[z][y] = M[r_b][y] = M[y][r_b] = M[r_a][r_b] = M[r_b][r_a]
            = M[z][r_a] = M[r_a][z] = M[y][z].

So x costs n cells per distinct value of x*y, instead of the n*n/2
pairs y <= z that the symmetry in y and z alone would leave.  On a BCK
table x*y <= x in the induced order, so the values over all x number at
most the pairs a <= x, which antisymmetry caps at n*(n+1)/2; the chain
x*y = max(x-y, 0) reaches that cap, and the order-1024 indicator algebra
has 3**10 = 59,049.

Monotonicity costs n per pair it checks, and it need not check every
pair with a*b = 0.  When axioms 3 and 4 hold and that relation is
transitive, it is a finite partial order, the transitive closure of its
covering pairs (Davey and Priestley, Introduction to Lattices and Order,
ch. 1): every a < b is a chain of covers, so monotonicity on each cover
and transitivity give (a*c)*(b*c) = 0, and a = b is axiom 3.  Then only
the covers are checked, 5,120 pairs instead of 58,025 on the order-1024
indicator algebra and 1,023 instead of 524,800 on the 1024-chain;
otherwise every pair is.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

np = None  # numpy, bound by the first `_array` call

_NUMPY_MIN_ORDER = 32
_BLOCK = 64  # pairs per block in the monotonicity check

BACKEND_NAME = "pure"


def _axiom1_witness_loops(t: Sequence[Sequence[int]]):
    n = len(t)
    for x, row in enumerate(t):
        for y, a in enumerate(row):
            ta = t[a]
            for z in range(n):
                if t[ta[row[z]]][t[z][y]] != 0:
                    return (x, y, z)
    return None


# (table, array) for the last tuple-of-tuples table `_array` copied.  One
# tuple, rebound on each miss, so a read never pairs a table with another
# table's array.  Holding the table keeps it alive, so its id is not reused.
_held = (None, None)


def _array(table):
    """The table as a read-only n x n int32 array.

    The last table given as a tuple of tuples keeps its array, so the
    scans `verify` runs one after another on one table share one copy.
    Tuples cannot change under the array; other tables are copied on
    every call.
    """
    global _held, np
    if np is None:  # every array path starts at `_array`
        import numpy as np
    held, T = _held
    if held is table:
        return T
    n = len(table)
    T = np.fromiter(chain.from_iterable(table), np.int32, n * n).reshape(n, n)
    T.flags.writeable = False
    if type(table) is tuple and all(type(row) is tuple for row in table):
        _held = (table, T)
    return T


def _axiom1_witness_numpy(T):
    # Indices into T.ravel() are int32 too, which holds n*n up to n = 46340.
    n = len(T)
    scaled = T * n  # scaled[x, y] is where row x*y starts in T.ravel()
    zy = np.ascontiguousarray(T.T)  # zy[y, z] = z*y
    cells = T.ravel()
    rows, inner, out = np.empty_like(T), np.empty_like(T), np.empty_like(T)
    # mode="clip" lets take write straight into `out` (the default mode
    # buffers); indices are in range, so nothing is clipped.
    for x in range(n):
        a = T[x]
        np.take(scaled, a, axis=0, out=rows, mode="clip")
        np.take(rows, a, axis=1, out=inner, mode="clip")  # (x*y)*(x*z), scaled
        inner += zy
        np.take(cells, inner, out=out, mode="clip")  # ((x*y)*(x*z))*(z*y)
        if out.any():
            y, z = np.argwhere(out)[0]
            return (x, int(y), int(z))
    return None


def _exchange_holds(T):
    """Whether (x*y)*z = (x*z)*y for all x, y, z, on an int32 table array.

    For each x, one y per distinct value a of x*y stands for every y with
    that value (see the module docstring): its row (x*y)*w, which is row
    a, is compared with the column (x*w)*y.  Representatives come from a
    scatter; whichever index a repeated value keeps will do.  The values
    are held in the narrowest unsigned type.
    """
    n = len(T)
    small = T.astype(np.min_scalar_type(n - 1))
    cols = np.ascontiguousarray(small.T)  # cols[y][v] = v*y
    first, every = np.empty(n, np.intp), np.arange(n)
    left, picked, right = (np.empty(n * n, small.dtype) for _ in range(3))
    for row in T:
        first.fill(-1)
        first[row] = every
        values = np.flatnonzero(first >= 0)
        l, p, r = (b[: len(values) * n].reshape(-1, n) for b in (left, picked, right))
        # (x*y)*w and (x*w)*y; mode="clip" as in _axiom1_witness_numpy
        np.take(small, values, axis=0, out=l, mode="clip")
        np.take(cols, first[values], axis=0, out=p, mode="clip")
        np.take(p, row, axis=1, out=r, mode="clip")
        if not np.array_equal(l, r):
            return False
    return True


def _covers(zero):
    """The pairs (a, b) where b covers a in ``zero``, or None when it is not transitive.

    ``zero`` is a reflexive and antisymmetric boolean relation, a <= b
    when zero[a, b].  Each row is packed into bits.  Everything above
    something strictly above a is the OR of the strict rows of a's strict
    up-set: the relation is transitive exactly when that union lies in
    row a, and the covers of a are the rest of its strict up-set.
    """
    n = len(zero)
    strict = zero.copy()
    np.fill_diagonal(strict, False)
    rows, up = np.packbits(strict, axis=1), np.packbits(zero, axis=1)
    cover = np.empty_like(rows)
    for a in range(n):
        above = np.bitwise_or.reduce(rows[strict[a]], axis=0)
        if (above & ~up[a]).any():
            return None
        np.bitwise_and(rows[a], ~above, out=cover[a])
    return np.nonzero(np.unpackbits(cover, axis=1, count=n))


def _right_monotone(T, ordered):
    """Whether a*b = 0 implies (a*c)*(b*c) = 0 for all c, on an int32 table array.

    With ``ordered``, the caller knows axioms 3 and 4 hold, and only the
    covers are checked when the relation is transitive.
    """
    n = len(T)
    cells = T.astype(np.min_scalar_type(n - 1)).ravel()
    zero = T == 0
    pairs = _covers(zero) if ordered else None
    a, b = np.nonzero(zero) if pairs is None else pairs
    for i in range(0, len(a), _BLOCK):
        at = T[a[i : i + _BLOCK]] * n  # where row a*c starts in cells
        at += T[b[i : i + _BLOCK]]
        if cells.take(at).any():
            return False
    return True


def _first(mask):
    """Index tuple of the first True in row-major order, or None."""
    hits = np.flatnonzero(mask)
    if not hits.size:
        return None
    return tuple(int(i) for i in np.unravel_index(hits[0], mask.shape))


def _axiom_witnesses_numpy(table):
    T = _array(table)
    left = np.take_along_axis(T, T, axis=1)  # x*(x*y)
    zero = T == 0
    distinct_zero = zero & zero.T
    np.fill_diagonal(distinct_zero, False)
    w2 = _first(np.take_along_axis(T, left, axis=0) != 0)
    w3 = _first(T.diagonal() != 0)
    w4 = _first(distinct_zero)
    proved = (
        w2 is None
        and _exchange_holds(T)
        and _right_monotone(T, ordered=w3 is None and w4 is None)
    )
    return (None if proved else _axiom1_witness_numpy(T), w2, w3, w4, _first(T[0] != 0))


def axiom_witnesses(table: Sequence[Sequence[int]]):
    """First violation of each axiom, or None per axiom when it holds.

    Returns a 5-tuple ordered axiom 1 through 5; entries are index
    tuples shaped (x, y, z), (x, y), (x,), (x, y), (x,).  ``table`` is
    square and its entries lie in 0..n-1.
    """
    if len(table) >= _NUMPY_MIN_ORDER:
        return _axiom_witnesses_numpy(table)
    t = table
    rows = list(enumerate(t))
    return (
        _axiom1_witness_loops(t),
        next(
            ((x, y) for x, r in rows for y, v in enumerate(r) if t[r[v]][y] != 0),
            None,
        ),
        next(((x,) for x, r in rows if r[x] != 0), None),
        next(
            (
                (x, y)
                for x, r in rows
                for y, v in enumerate(r)
                if v == 0 and x != y and t[y][x] == 0
            ),
            None,
        ),
        next(((y,) for y, v in enumerate(t[0]) if v != 0), None),
    )


def commutative_witness(table: Sequence[Sequence[int]]):
    """First (x, y) with x*(x*y) != y*(y*x), or None when there is none.

    The scan does not check the axioms; callers decide what the answer
    means on a table that is not BCK.
    """
    T = _array(table)
    left = np.take_along_axis(T, T, axis=1)  # x*(x*y)
    return _first(left != left.T)


def implicative_witness(table: Sequence[Sequence[int]]):
    """First (x, y) with x*(y*x) != x, or None when there is none.

    Like `commutative_witness`, the scan does not check the axioms.
    """
    T = _array(table)
    back = np.take_along_axis(T, T.T, axis=1)  # x*(y*x)
    return _first(back != np.arange(len(T))[:, None])


def order_pairs(table: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The pairs x != y with x*y = 0, as a list of x and a list of y.

    Pairs come in row-major order.  On a BCK table they are the strict
    induced order x < y; like the property scans, this does not check
    the axioms.
    """
    zero = _array(table) == 0
    np.fill_diagonal(zero, False)
    xs, ys = np.nonzero(zero)
    return xs.tolist(), ys.tolist()


def table_is_bck(table: Sequence[Sequence[int]]) -> bool:
    return all(w is None for w in axiom_witnesses(table))


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
    are yielded as they are found, in ascending order, so taking the
    first few is cheap.
    """
    t = [[-1] * n for _ in range(n)]
    for x in range(n):
        t[0][x] = 0
        t[x][0] = x
        t[x][x] = 0

    cells = [(x, y) for x in range(1, n) for y in range(1, n) if x != y]
    domains = [range(1, x + 1) if x > y else range(x + 1) for x, y in cells]

    def violates(x: int, y: int) -> bool:
        row = t[x]
        v = row[y]
        p = row[v]
        if p >= 0 and t[p][y] > 0:
            return True
        tv, ty = t[v], t[y]
        for z in range(n):
            b = row[z]
            if b < 0:
                continue
            c = tv[b]
            if c >= 0:
                d = t[z][y]
                if d >= 0 and t[c][d] > 0:
                    return True
            c = t[b][v]
            if c >= 0:
                d = ty[z]
                if d >= 0 and t[c][d] > 0:
                    return True
        return False

    def fill(depth: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if depth == len(cells):
            if table_is_bck(t):
                yield tuple(map(tuple, t))
            return
        x, y = cells[depth]
        row = t[x]
        for v in domains[depth]:
            row[y] = v
            if not violates(x, y):
                yield from fill(depth + 1)
        row[y] = -1

    return fill(0)
