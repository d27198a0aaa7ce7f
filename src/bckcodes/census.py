"""Exhaustive enumeration of small BCK-algebras and their codes.

Orders up to 5 enumerate in well under a minute; order 6 is allowed
behind a flag since the search space is substantially larger.  The
enumeration order is fixed (free table cells row-major, cell values
ascending), so runs are reproducible and two runs can be compared
table for table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from . import _kernels
from .algebra import CayleyAlgebra, are_isomorphic, check_axioms
from .codes import BlockCode
from .encode import canonical_code
from .errors import InputError, NotBckError

_DEFAULT_MAX_ORDER = 5
_FLAG_MAX_ORDER = 6


def enumerate_bck_algebras(
    n: int, *, allow_large: bool = False
) -> Iterator[CayleyAlgebra]:
    """Stream every BCK Cayley table of order n, element 0 the constant.

    Tables arrive in the kernel's deterministic depth-first order.  Each
    one is re-validated with `check_axioms` before being yielded; the
    kernel already guarantees this, so the filter is a cheap safety net.
    """
    if n < 1:
        raise InputError("order must be positive")
    limit = _FLAG_MAX_ORDER if allow_large else _DEFAULT_MAX_ORDER
    if n > limit:
        if n <= _FLAG_MAX_ORDER:
            raise InputError(
                f"order {n} must be enabled explicitly; the run can take long"
            )
        raise InputError(f"order {n} is out of scope (max {_FLAG_MAX_ORDER})")
    for rows in _kernels.bck_candidates(n):
        alg = CayleyAlgebra(rows)
        if check_axioms(alg).is_bck:
            yield alg


def _relabel(alg: CayleyAlgebra, h: Sequence[int]) -> CayleyAlgebra:
    """Apply the bijection h (as image map) to a Cayley table."""
    n = alg.order
    hinv = [0] * n
    for x, hx in enumerate(h):
        hinv[hx] = x
    t = alg.table
    return CayleyAlgebra(
        tuple(
            tuple(h[t[hinv[a]][hinv[b]]] for b in range(n)) for a in range(n)
        )
    )


def _code_key(code: BlockCode):
    return tuple(w.bits for w in code.words)


def label_canonical_code(alg: CayleyAlgebra) -> BlockCode:
    """Canonical code minimised over all relabelings fixing element 0.

    Plain canonical codes are label-sensitive, so this is the variant
    that is constant on isomorphism classes.
    """
    best = None
    best_code = None
    for tail in permutations(range(1, alg.order)):
        code = canonical_code(_relabel(alg, (0,) + tail))
        key = _code_key(code)
        if best is None or key < best:
            best, best_code = key, code
    return best_code


def _invariant_key(alg: CayleyAlgebra):
    n = alg.order
    t = alg.table
    stats = sorted(
        (
            sum(1 for y in range(n) if t[x][y] == 0),
            sum(1 for y in range(n) if t[y][x] == 0),
        )
        for x in range(n)
    )
    return tuple(stats)


@dataclass(frozen=True)
class ClassEntry:
    """One isomorphism class: first representative found and its codes."""

    representative: CayleyAlgebra
    size: int
    code: BlockCode
    label_canonical: BlockCode


@dataclass(frozen=True)
class CensusReport:
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


def census(n: int, *, allow_large: bool = False) -> CensusReport:
    algebras = list(enumerate_bck_algebras(n, allow_large=allow_large))
    codes = [canonical_code(a) for a in algebras]

    buckets: dict[tuple, list[int]] = {}
    class_of = [-1] * len(algebras)
    class_members: list[list[int]] = []
    for i, alg in enumerate(algebras):
        key = _invariant_key(alg)
        for rep_idx in buckets.get(key, ()):
            if are_isomorphic(algebras[rep_idx], alg) is not None:
                cls = class_of[rep_idx]
                class_of[i] = cls
                class_members[cls].append(i)
                break
        else:
            buckets.setdefault(key, []).append(i)
            class_of[i] = len(class_members)
            class_members.append([i])

    inventory = []
    varies = False
    label_keys = set()
    for members in class_members:
        rep = algebras[members[0]]
        member_keys = {_code_key(codes[i]) for i in members}
        if len(member_keys) > 1:
            varies = True
        lc = label_canonical_code(rep)
        label_keys.add(_code_key(lc))
        inventory.append(ClassEntry(rep, len(members), codes[members[0]], lc))

    bound = 2 ** ((n - 1) * (n - 2) // 2)
    iso_classes = len(class_members)
    return CensusReport(
        order=n,
        total_tables=len(algebras),
        iso_classes=iso_classes,
        similarity_classes=len({_code_key(c) for c in codes}),
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
        code = canonical_code(alg)
        key = _code_key(code)
        groups.setdefault(key, (code, []))[1].append(alg)
    ordered = sorted(groups.items(), key=lambda item: item[0], reverse=True)
    return tuple((code, tuple(members)) for _, (code, members) in ordered)
