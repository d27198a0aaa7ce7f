import hashlib
import importlib
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import pytest

import bckcodes as bc
from bckcodes._kernels import pure
from bckcodes.cli import main
from test_algebra import brute_axiom_holds
from test_construct import _EXACT_ROUNDTRIPS

# the package's `census` attribute is the function, not the module
census_module = importlib.import_module("bckcodes.census")

# census re-enumerates on every call; cache so the two parametrized
# sweeps below share one order-5 run
_census = lru_cache(maxsize=None)(bc.census)

# Total table counts and isomorphism-class counts for orders 1..5,
# cross-checked against a pruning-free brute force below (n <= 4),
# against each other through the partition-validity test, and class by
# class through the orbit-counting identity.
EXPECTED_TOTALS = {1: 1, 2: 1, 3: 5, 4: 67, 5: 1735}
EXPECTED_ISO = {1: 1, 2: 1, 3: 3, 4: 14, 5: 88}
EXPECTED_SIMILARITY = {1: 1, 2: 1, 3: 3, 4: 19, 5: 219}
EXPECTED_LABEL_CANONICAL = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16}


def _labeled_posets(m):
    """Every partial order on 0..m-1, as a frozenset of pairs x < y; no src/."""
    pairs = [(x, y) for x in range(m) for y in range(m) if x != y]
    found = []
    for chosen in product((False, True), repeat=len(pairs)):
        less = {p for p, keep in zip(pairs, chosen) if keep}
        if any((y, x) in less for x, y in less):
            continue
        if any((x, z) not in less for x, y in less for w, z in less if w == y and x != z):
            continue
        found.append(frozenset(less))
    return found


def _unlabeled_count(m):
    """Posets on m points up to isomorphism: the least relabeling of each."""
    forms = set()
    for less in _labeled_posets(m):
        images = (tuple(sorted((h[x], h[y]) for x, y in less)) for h in permutations(range(m)))
        forms.add(min(images))
    return len(forms)


def test_similarity_counts_are_the_poset_counts():
    # A code is the rows of the induced order, so similarity classes are
    # the orders on 0..n-1 with minimum 0: the labeled posets on n-1
    # points (OEIS A001035), and label-canonical classes the unlabeled
    # ones (OEIS A000112).
    labeled = {n: len(_labeled_posets(n - 1)) for n in EXPECTED_SIMILARITY}
    unlabeled = {n: _unlabeled_count(n - 1) for n in EXPECTED_LABEL_CANONICAL}
    assert labeled == EXPECTED_SIMILARITY == {1: 1, 2: 1, 3: 3, 4: 19, 5: 219}
    assert unlabeled == EXPECTED_LABEL_CANONICAL == {1: 1, 2: 1, 3: 2, 4: 5, 5: 16}


# Label-canonical classes of the family's algebras, n = 1..6: every order
# with a minimum on n points has a naturally labeled self-describing
# member, so these are the unlabeled posets on n-1 points (OEIS A000112).
FAMILY_LABEL_CANONICAL = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 63}


@pytest.mark.parametrize("n", range(1, 7))
def test_family_algebras_fall_into_the_poset_classes(n):
    classes = {}
    for code in bc.enumerate_triangular_codes(n):
        alg = bc.construct_from_code(code).algebra
        classes.setdefault(bc.label_canonical_code(alg), []).append(alg)
    assert len(classes) == FAMILY_LABEL_CANONICAL[n]
    if n in EXPECTED_LABEL_CANONICAL:  # the census's classes of all order-n algebras
        assert len(classes) == EXPECTED_LABEL_CANONICAL[n]
    if n >= 4:  # fewer isomorphism classes than codes: 5 < 8 at order 4
        assert len(classes) < 2 ** ((n - 1) * (n - 2) // 2)
    if n <= 5:
        reps = [members[0] for members in classes.values()]
        assert all(bc.are_isomorphic(a, b) is None for a, b in combinations(reps, 2))
        for rep, members in zip(reps, classes.values()):
            assert all(bc.are_isomorphic(rep, alg) is not None for alg in members)


def _brute_force_tables(n):
    """Every order-n table satisfying the axioms as stated, no search.

    Up to n = 3 every cell is free.  At n = 4 row 0, column 0 and the
    diagonal are pinned first, which leaves 4^6 fillings instead of
    4^16: 0*y = 0 and x*x = 0 are axioms 5 and 3, and x*0 = x is a BCK
    theorem.
    """
    pinned = n >= 4
    free = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if not (pinned and (x == 0 or y == 0 or x == y))
    ]
    found = []
    for values in product(range(n), repeat=len(free)):
        rows = [[x if pinned and y == 0 else 0 for y in range(n)] for x in range(n)]
        for (x, y), v in zip(free, values):
            rows[x][y] = v
        table = tuple(map(tuple, rows))
        if all(brute_axiom_holds(table, axiom) for axiom in (5, 3, 4, 2, 1)):
            found.append(table)
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_unpruned_brute_force(n):
    pruned = {a.table for a in bc.enumerate_bck_algebras(n)}
    brute = set(_brute_force_tables(n))
    assert pruned == brute


def _labeled_search(n):
    """Every order-n BCK table by a depth-first search over all labelings.

    This is the library's table search before it was restricted to
    naturally labeled tables: the same pinned cells, row-major cell
    order, ascending values and axiom pruning, but every value 0..n-1
    is tried in every free cell.  Tables come out in ascending order of
    the flat table.
    """
    t = [-1] * (n * n)
    for x in range(n):
        t[x] = 0
        t[x * n] = x
        t[x * n + x] = 0

    cells = [(x, y) for x in range(1, n) for y in range(1, n) if x != y]

    def violates(x, y):
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

    def fill(depth):
        if depth == len(cells):
            rows = tuple(tuple(t[x * n : x * n + n]) for x in range(n))
            if pure.table_is_bck(rows):
                yield rows
            return
        x, y = cells[depth]
        idx = x * n + y
        for v in range(n):
            t[idx] = v
            if not violates(x, y):
                yield from fill(depth + 1)
        t[idx] = -1

    return fill(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_labeled_search(n):
    # The orbits of the naturally labeled tables, merged in flat-table
    # order, must give the labeled search's stream table for table.
    assert [a.table for a in bc.enumerate_bck_algebras(n)] == list(_labeled_search(n))


def test_orbit_tables_are_rows_that_share_equal_rows():
    shared = {}
    for orbit in census_module._orbits(5, False):
        for table in orbit:
            assert type(table) is tuple and len(table) == 5
            for row in table:
                assert type(row) is tuple and len(row) == 5
                assert shared.setdefault(row, row) is row


def test_enumerated_tables_restore_left_unit_column():
    # x * 0 = x is a theorem of the axioms: it holds on every table the
    # brute force finds with no cell pinned (n <= 3).  This theorem is
    # what lets the kernel pin column 0 before its search.
    for n in range(1, 4):
        tables = _brute_force_tables(n)
        assert tables
        assert all(t[x][0] == x for t in tables for x in range(n))


@pytest.mark.parametrize("n", sorted(EXPECTED_TOTALS))
def test_census_frozen_counts(n):
    report = _census(n)
    assert report.order == n
    assert report.total_tables == EXPECTED_TOTALS[n]
    assert report.iso_classes == EXPECTED_ISO[n]
    assert report.similarity_classes == EXPECTED_SIMILARITY[n]
    assert report.label_canonical_classes == EXPECTED_LABEL_CANONICAL[n]
    assert report.bound == 2 ** ((n - 1) * (n - 2) // 2)
    assert report.bound_check
    assert report.code_varies_within_iso_class == (n >= 3)


@pytest.mark.parametrize("n", sorted(EXPECTED_TOTALS))
def test_census_counting_chains(n):
    report = _census(n)
    assert report.label_canonical_classes <= report.iso_classes
    assert report.iso_classes <= report.total_tables
    assert report.similarity_classes <= report.total_tables
    assert report.iso_classes >= report.bound
    assert sum(entry.size for entry in report.class_inventory) == report.total_tables
    assert len(report.class_inventory) == report.iso_classes


def _automorphism_count(alg):
    """|Aut(alg)|, counted over every relabeling that fixes 0."""
    n = alg.order
    t = alg.table
    count = 0
    for tail in permutations(range(1, n)):
        h = (0,) + tail
        if all(h[t[x][y]] == t[h[x]][h[y]] for x in range(n) for y in range(n)):
            count += 1
    return count


@pytest.mark.parametrize("n", sorted(EXPECTED_TOTALS))
def test_class_sizes_match_orbit_counting(n):
    # The relabelings fixing 0 act on the labeled tables; each class is
    # one orbit, so its size is (n-1)! / |Aut| of its representative.
    labelings = factorial(n - 1)
    for entry in _census(n).class_inventory:
        assert entry.size * _automorphism_count(entry.representative) == labelings


# md5 of `bckcodes enumerate --algebras --order 5 --json`, frozen from
# the census that found its classes by pairwise isomorphism tests.
CENSUS5_JSON_MD5 = "370992b4374ac81029aad95d7c082d47"


def test_census_needs_no_isomorphism_tests(monkeypatch, capsys):
    def boom(*args):
        raise AssertionError("census must read its classes off the orbits")

    monkeypatch.setattr(census_module, "are_isomorphic", boom, raising=False)
    monkeypatch.setattr(bc.algebra, "are_isomorphic", boom)
    monkeypatch.setattr(census_module, "label_canonical_code", boom)
    assert main(["enumerate", "--order", "5", "--algebras", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == CENSUS5_JSON_MD5


def test_census_checks_each_table_once(monkeypatch):
    calls = []
    check = census_module.check_axioms

    def counting(alg):
        calls.append(alg.table)
        return check(alg)

    # every module that can reach the scan on the census path
    for name in ("bckcodes.census", "bckcodes.encode"):
        monkeypatch.setattr(importlib.import_module(name), "check_axioms", counting)
    report = bc.census(5)
    assert len(calls) == len(set(calls)) == report.total_tables == EXPECTED_TOTALS[5]


def _count_axiom_checks(monkeypatch):
    calls = []
    check = census_module.check_axioms

    def counting(alg):
        calls.append(alg.table)
        return check(alg)

    for name in ("bckcodes.algebra", "bckcodes.census", "bckcodes.encode"):
        monkeypatch.setattr(importlib.import_module(name), "check_axioms", counting)
    return calls


def test_quotient_classes_checks_each_input_once(monkeypatch):
    algebras = list(bc.enumerate_bck_algebras(4))
    calls = _count_axiom_checks(monkeypatch)
    classes = bc.quotient_classes(algebras)
    assert len(calls) == len(algebras) == EXPECTED_TOTALS[4]
    assert len(classes) == EXPECTED_SIMILARITY[4]


def test_label_canonical_code_checks_its_input_once(monkeypatch):
    alg = next(bc.enumerate_bck_algebras(5))
    calls = _count_axiom_checks(monkeypatch)
    bc.label_canonical_code(alg)
    assert calls == [alg.table]


def test_iso_partition_is_valid_at_order_3():
    algebras = list(bc.enumerate_bck_algebras(3))
    reps = [entry.representative for entry in _census(3).class_inventory]
    for a, b in zip(reps, reps[1:]):
        assert bc.are_isomorphic(a, b) is None
    for alg in algebras:
        matches = [r for r in reps if bc.are_isomorphic(alg, r) is not None]
        assert len(matches) == 1


def test_label_canonical_code_is_an_iso_invariant():
    algebras = list(bc.enumerate_bck_algebras(4))
    alg = algebras[17]
    base = bc.label_canonical_code(alg)
    for tail in permutations(range(1, 4)):
        h = (0,) + tail
        hinv = [0] * 4
        for x, hx in enumerate(h):
            hinv[hx] = x
        relabeled = bc.CayleyAlgebra(
            tuple(
                tuple(h[alg.table[hinv[a]][hinv[b]]] for b in range(4))
                for a in range(4)
            )
        )
        assert bc.label_canonical_code(relabeled) == base


def _natural_orders(n):
    """Naturally labeled orders on 0..n-1 with minimum 0, as down-sets; no src/.

    ``down[j]`` has bit x set iff x <= j.  It is j plus an order ideal
    of 0..j-1 that contains 0, so each order extends one on 0..n-2.
    """
    if n == 1:
        return [(1,)]
    orders = []
    for down in _natural_orders(n - 1):
        for ideal in range(1, 1 << (n - 1), 2):  # every subset of 0..n-2 holding 0
            if all(down[x] & ~ideal == 0 for x in range(n - 1) if ideal >> x & 1):
                orders.append(down + (ideal | 1 << (n - 1),))
    return orders


def _linear_extensions(down, placed=0):
    """The relabelings h fixing 0 with x < y in the order implying h(x) < h(y).

    Yields the elements in the order of their new labels 0, 1, ...
    """
    if placed == (1 << len(down)) - 1:
        yield ()
        return
    for x, d in enumerate(down):
        if not placed >> x & 1 and d & ~placed == 1 << x:
            for rest in _linear_extensions(down, placed | 1 << x):
                yield (x,) + rest


def _order_rows(down):
    """Rows of the order in the `Poset` layout: bit y of row x (MSB first) iff x <= y."""
    n = len(down)
    return tuple(sum(1 << (n - 1 - y) for y in range(n) if down[y] >> x & 1) for x in range(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_natural_orders_are_the_exact_roundtrip_counts(n):
    assert len(_natural_orders(n)) == _EXACT_ROUNDTRIPS[n - 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_label_canonical_code_is_least_over_linear_extensions(n):
    # The relabelings that keep the order natural suffice: the least code
    # over them is the least over every relabeling fixing 0.
    for down in _natural_orders(n):
        rows = _order_rows(down)
        least = None
        for ext in _linear_extensions(down):
            h = [0] * n
            for label, x in enumerate(ext):
                h[x] = label
            relabeled = [0] * n
            for x, row in enumerate(rows):
                relabeled[h[x]] = sum(1 << (n - 1 - h[y]) for y in range(n) if row >> (n - 1 - y) & 1)
            code = tuple(sorted(relabeled, reverse=True))
            least = code if least is None else min(least, code)
        alg = bc.algebra_from_poset(bc.Poset(rows))
        assert bc.label_canonical_code(alg).values == least


def test_plain_canonical_code_is_label_sensitive():
    # Two isomorphic order-3 tables with different plain canonical codes
    # must exist, otherwise similarity classes could not exceed
    # label-canonical classes the way the counts above show.
    algebras = list(bc.enumerate_bck_algebras(3))
    witness = False
    for i, a in enumerate(algebras):
        for b in algebras[i + 1 :]:
            if bc.are_isomorphic(a, b) is not None:
                if bc.canonical_code(a) != bc.canonical_code(b):
                    witness = True
    assert witness


def test_quotient_classes_order_3():
    groups = bc.quotient_classes(bc.enumerate_bck_algebras(3))
    assert [(g[0].strings(), len(g[1])) for g in groups] == [
        (("111", "011", "010"), 2),
        (("111", "011", "001"), 2),
        (("111", "010", "001"), 1),
    ]
    for code, members in groups:
        for alg in members:
            assert bc.canonical_code(alg) == code
    for alg in groups[0][1]:
        assert bc.code_similar(groups[0][1][0], alg)


def test_quotient_classes_rejects_mixed_orders():
    a2 = next(bc.enumerate_bck_algebras(2))
    a3 = next(bc.enumerate_bck_algebras(3))
    with pytest.raises(bc.InputError):
        bc.quotient_classes([a2, a3])


def test_quotient_classes_rejects_non_bck():
    bad = bc.CayleyAlgebra(((0, 0), (1, 1)))
    with pytest.raises(bc.NotBckError):
        bc.quotient_classes([bad])
    assert bc.quotient_classes([]) == ()


def test_enumeration_bounds():
    with pytest.raises(bc.InputError):
        next(bc.enumerate_bck_algebras(0))
    with pytest.raises(bc.InputError):
        next(bc.enumerate_bck_algebras(6))
    with pytest.raises(bc.InputError):
        next(bc.enumerate_bck_algebras(7, allow_large=True))
    first = next(bc.enumerate_bck_algebras(6, allow_large=True))
    assert bc.check_axioms(first).is_bck
