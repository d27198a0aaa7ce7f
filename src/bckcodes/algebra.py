"""Finite algebras of type (2, 0): Cayley tables, axioms, induced order.

Element 0 always plays the role of the distinguished constant, written 0
throughout.  The five defining axioms checked here are, in the order the
reports use them:

  1. ((x*y)*(x*z))*(z*y) = 0
  2. (x*(x*y))*y = 0
  3. x*x = 0
  4. x*y = 0 and y*x = 0 imply x = y
  5. 0*x = 0

A table satisfying 1-4 is a BCI-algebra; adding 5 makes it BCK.  All
types in this module are immutable and all functions are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Sequence

from . import _kernels
from .codes import as_int, as_ints, bit_positions, pack_bits
from .errors import InputError, InternalInvariantError, NotBckError

Table = tuple[tuple[int, ...], ...]

MAX_ORDER = 1024  # pointwise_function_algebra(10), the largest table the package builds


@dataclass(frozen=True)
class CayleyAlgebra:
    """A finite groupoid with distinguished element 0, given by its table.

    ``table[x][y]`` is the product x*y.  Optional ``names`` are display
    labels only; they never affect equality or hashing.  The constructor
    checks that the table is square with integer entries in 0..n-1 and
    that there is one name per element.  The library skips that check
    only for tables its own construction keeps in range (see `_trusted`).
    """

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        try:
            rows = tuple(map(as_ints, self.table))
        except TypeError:
            raise InputError(f"{self.table!r} is not a table of integer rows") from None
        n = len(rows)
        if n == 0:
            raise InputError("empty Cayley table")
        for row in rows:
            if len(row) != n:
                raise InputError("Cayley table must be square")
            if min(row) < 0 or max(row) >= n:
                v = next(v for v in row if not 0 <= v < n)
                raise InputError(f"table entry {v} outside 0..{n - 1}")
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "names", _checked_names(self.names, n))

    @classmethod
    def _trusted(cls, table, names=None) -> "CayleyAlgebra":
        """The algebra of ``table``, a square tuple of int tuples with
        entries in 0..n-1, named by None or n strings; unchecked."""
        alg = object.__new__(cls)
        object.__setattr__(alg, "table", table)
        object.__setattr__(alg, "names", names)
        return alg

    # A tuple does not cache its hash, and `check_axioms` looks the
    # algebra up on every call: hash the table once, on first use.
    @functools.cached_property
    def _hash(self) -> int:
        return hash(self.table)

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return len(self.table)


def _checked_names(names, n: int) -> tuple[str, ...] | None:
    """``names`` as n strings (None stays None); `InputError` on a wrong count."""
    if names is None:
        return None
    try:
        names = tuple(str(s) for s in names)
    except TypeError:
        raise InputError(f"names {names!r} are not a sequence") from None
    if len(names) != n:
        raise InputError("need exactly one name per element")
    return names


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome for one axiom.

    ``witness`` is the lexicographically first violating index tuple in
    (x, y, z) scan order, or None when the axiom holds.  ``evaluation``
    is the value the violated identity produced instead of 0; axiom 4 is
    an implication rather than an identity, so there it stays None.
    """

    axiom: int
    holds: bool
    witness: tuple[int, ...] | None = None
    evaluation: int | None = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    def check(self, axiom: int) -> AxiomCheck:
        return self.checks[axiom - 1]

    @property
    def is_bci(self) -> bool:
        return all(c.holds for c in self.checks[:4])

    @property
    def is_bck(self) -> bool:
        return all(c.holds for c in self.checks)


@dataclass(frozen=True)
class PropertyCheck:
    """A yes/no property with the first counterexample when it fails."""

    holds: bool
    witness: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True, init=False)
class Poset:
    """A finite partial order on 0..n-1 as one codeword per element.

    Bit y of ``rows[x]`` is set iff x <= y, bit 0 the most significant
    of n bits as in `Codeword`.  Construction validates reflexivity,
    antisymmetry and transitivity; ``minimum`` is the element below
    every other, the row with every bit set, or None.
    """

    rows: tuple[int, ...]
    minimum: int | None

    def __init__(self, rows):
        try:
            rows = tuple(map(as_int, rows))
        except TypeError:
            raise InputError(f"{rows!r} is not a sequence of poset rows") from None
        n = len(rows)
        if n == 0 or any(not 0 <= r < 2**n for r in rows):
            raise InputError("poset rows must be non-empty and fit in n bits")
        if any(not r >> (n - 1 - x) & 1 for x, r in enumerate(rows)):
            raise InputError("relation is not reflexive")
        up = [bit_positions(r, n) for r in rows]
        for x, ys in enumerate(up):
            for y in ys:
                if y != x and rows[y] >> (n - 1 - x) & 1:
                    raise InputError(f"relation is not antisymmetric at ({x}, {y})")
        for x, ys in enumerate(up):
            reach = 0
            for y in ys:
                reach |= rows[y]
            if reach & ~rows[x]:
                z = bit_positions(reach & ~rows[x], n)[0]
                raise InputError(f"relation is not transitive at ({x}, {z})")
        minimum = next((x for x, r in enumerate(rows) if r == (1 << n) - 1), None)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "minimum", minimum)

    @property
    def order(self) -> int:
        return len(self.rows)


@functools.lru_cache(maxsize=256)
def check_axioms(alg: CayleyAlgebra) -> AxiomReport:
    """Scan the whole table for violations of the five axioms."""
    t = alg.table
    w1, w2, w3, w4, w5 = _kernels.axiom_witnesses(t)

    def ax1_eval(w):
        x, y, z = w
        return t[t[t[x][y]][t[x][z]]][t[z][y]]

    def ax2_eval(w):
        x, y = w
        return t[t[x][t[x][y]]][y]

    checks = (
        AxiomCheck(1, w1 is None, w1, ax1_eval(w1) if w1 else None),
        AxiomCheck(2, w2 is None, w2, ax2_eval(w2) if w2 else None),
        AxiomCheck(3, w3 is None, w3, t[w3[0]][w3[0]] if w3 else None),
        AxiomCheck(4, w4 is None, w4, None),
        AxiomCheck(5, w5 is None, w5, t[0][w5[0]] if w5 else None),
    )
    return AxiomReport(checks)


def _require_bck(alg: CayleyAlgebra, what: str) -> None:
    if not check_axioms(alg).is_bck:
        raise NotBckError(f"{what} requires a BCK-algebra")


def is_commutative(alg: CayleyAlgebra) -> PropertyCheck:
    """Does x*(x*y) = y*(y*x) hold everywhere?  Needs a BCK input."""
    _require_bck(alg, "is_commutative")
    w = _kernels.commutative_witness(alg.table)
    return PropertyCheck(w is None, w)


def is_implicative(alg: CayleyAlgebra) -> PropertyCheck:
    """Does x*(y*x) = x hold everywhere?  Needs a BCK input."""
    _require_bck(alg, "is_implicative")
    w = _kernels.implicative_witness(alg.table)
    return PropertyCheck(w is None, w)


def induced_order(alg: CayleyAlgebra) -> Poset:
    """The relation x <= y iff x*y = 0, validated as a partial order.

    On a BCK-algebra this is always a partial order with minimum 0; if
    validation fails the input was not BCK, which callers were supposed
    to guarantee, so the failure surfaces as an internal invariant
    breach rather than an input error.
    """
    try:
        poset = Poset(pack_bits(v == 0 for v in row) for row in alg.table)
    except InputError as exc:
        raise InternalInvariantError(
            f"induced relation is not a partial order ({exc}); input not BCK?"
        ) from exc
    if poset.minimum != 0:
        raise InternalInvariantError(
            "induced order has no minimum at element 0; input not BCK?"
        )
    return poset


def _relabelings(n: int) -> Iterator[tuple[int, ...]]:
    """The bijections of 0..n-1 that fix 0, as image maps, in
    lexicographic order over the images of 1..n-1; lazily."""
    return ((0,) + tail for tail in permutations(range(1, n)))


def _relabel(table: Table, h: Sequence[int]) -> Table:
    """Table of the copy relabeled by the bijection h (an image map)."""
    hinv = [0] * len(h)
    for x, hx in enumerate(h):
        hinv[hx] = x
    rows = [table[a] for a in hinv]
    return tuple(tuple(h[row[b]] for b in hinv) for row in rows)


def are_isomorphic(a: CayleyAlgebra, b: CayleyAlgebra) -> tuple[int, ...] | None:
    """Search for a table isomorphism, returned as the image map h.

    h fixes 0 (any isomorphism must, since 0 = x*x); candidates are
    tried in lexicographic order over the images of 1..n-1, so the
    result is deterministic.  h is an isomorphism exactly when
    relabeling a by h gives b's table.  Returns None when no
    isomorphism exists.  Cost grows factorially with the order;
    intended for small tables.
    """
    n = a.order
    if n != b.order:
        return None
    return next((h for h in _relabelings(n) if _relabel(a.table, h) == b.table), None)


def pointwise_function_algebra(k: int) -> CayleyAlgebra:
    """The algebra of all {0,1}-valued tuples of length k.

    Elements are the 2**k bit strings in ascending binary order; bit i
    of the product f*g is 1 exactly when f has bit i and g does not
    (pointwise truncated difference).  The result is always a BCK table
    and always implicative.
    """
    max_bits = MAX_ORDER.bit_length() - 1
    if not 1 <= k <= max_bits:
        raise InputError(f"k must be within 1..{max_bits}")
    size = 1 << k
    table = tuple(tuple(f & ~g for g in range(size)) for f in range(size))
    names = tuple(format(f, f"0{k}b") for f in range(size))
    return CayleyAlgebra(table, names)
