"""From a function into a BCK-algebra to a binary block code.

A function f from a finite label set A into a BCK-algebra X determines,
for every element r of X, the cut subset {a in A : r * f(a) = 0}.
Elements with equal cut subsets collapse into one class, each class
contributes one codeword (bit i set iff r * f(a_i) = 0), and the code
is reported with its words in descending lexicographic order.
"""

from __future__ import annotations

from ._value import Value
from .algebra import CayleyAlgebra, check_axioms
from .codes import BlockCode, Codeword, as_int, as_ints, pack_bits
from .errors import InputError, NotBckError


class BckFunction(Value):
    """A map from distinct labels into the carrier of an algebra."""

    domain: tuple[str, ...]
    algebra: CayleyAlgebra
    values: tuple[int, ...]

    def __init__(self, domain, algebra, values):
        try:
            domain = tuple(str(s) for s in domain)
        except TypeError:
            raise InputError(f"function domain {domain!r} is not a sequence") from None
        values = as_ints(values)
        if not domain:
            raise InputError("function domain is empty")
        if len(set(domain)) != len(domain):
            raise InputError("duplicate label in function domain")
        if len(values) != len(domain):
            raise InputError("need exactly one value per label")
        n = algebra.order
        if any(not 0 <= v < n for v in values):
            raise InputError("function value outside the carrier")
        vars(self).update(domain=domain, algebra=algebra, values=values)

    @classmethod
    def identity(cls, alg: CayleyAlgebra) -> "BckFunction":
        """The identity self-map; labels reuse element names when usable."""
        names = alg.names
        if names is None or len(set(names)) != len(names):
            names = tuple(str(i) for i in range(alg.order))
        return cls(names, alg, tuple(range(alg.order)))


def cut_subset(f: BckFunction, r: int) -> tuple[str, ...]:
    """Labels whose image sits above r in the induced order sense."""
    n = f.algebra.order
    r = as_int(r)
    if not 0 <= r < n:
        raise InputError(f"element {r} outside the carrier 0..{n - 1}")
    t = f.algebra.table
    return tuple(a for a, v in zip(f.domain, f.values) if t[r][v] == 0)


class EquivalenceClasses(Value):
    """Partition of the carrier by equal cut subsets.

    Classes are sorted by their smallest member, members ascending;
    ``cuts[k]`` is the common cut subset of ``classes[k]``.
    """

    classes: tuple[tuple[int, ...], ...]
    cuts: tuple[tuple[str, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def equivalence_classes(f: BckFunction) -> EquivalenceClasses:
    groups: dict[tuple[str, ...], list[int]] = {}
    for r in range(f.algebra.order):
        groups.setdefault(cut_subset(f, r), []).append(r)
    ordered = sorted(groups.items(), key=lambda item: item[1][0])
    return EquivalenceClasses(
        classes=tuple(tuple(members) for _, members in ordered),
        cuts=tuple(cut for cut, _ in ordered),
    )


def _code(table, values) -> BlockCode:
    """Distinct words (r * v == 0 for v in values), lex-descending; table must be BCK."""
    words = {pack_bits(row[v] == 0 for v in values) for row in table}
    return BlockCode(tuple(Codeword.of(w, len(values)) for w in sorted(words)[::-1]))


def generate_code(f: BckFunction) -> BlockCode:
    """The block code of f, one codeword per cut-equivalence class.

    Bit i of the word for class representative r is 1 exactly when
    r * f(a_i) = 0.  Distinct classes give distinct words, so the code
    is duplicate-free; words are returned lex-descending.
    """
    if not check_axioms(f.algebra).is_bck:
        raise NotBckError("generate_code requires a BCK-algebra")
    return _code(f.algebra.table, f.values)


def canonical_code(alg: CayleyAlgebra) -> BlockCode:
    """The code of the identity self-map: one word per element."""
    return generate_code(BckFunction.identity(alg))


def code_similar(a: CayleyAlgebra, b: CayleyAlgebra) -> bool:
    """Do two BCK-algebras generate the same canonical code?"""
    return canonical_code(a) == canonical_code(b)
