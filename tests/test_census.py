import hashlib
import importlib
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import pytest

import bckcodes as bc
from bckcodes._kernels import pure
from bckcodes.cli import main
from test_algebra import brute_axiom_holds, labeled_posets
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


def _unlabeled_count(m):
    """Posets on m points up to isomorphism: the least relabeling of each."""
    forms = set()
    for less in labeled_posets(m):
        images = (tuple(sorted((h[x], h[y]) for x, y in less)) for h in permutations(range(m)))
        forms.add(min(images))
    return len(forms)


def test_similarity_counts_are_the_poset_counts():
    # A code is the rows of the induced order, so similarity classes are
    # the orders on 0..n-1 with minimum 0: the labeled posets on n-1
    # points (OEIS A001035), and label-canonical classes the unlabeled
    # ones (OEIS A000112).
    labeled = {n: len(labeled_posets(n - 1)) for n in EXPECTED_SIMILARITY}
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
    for orbit in census_module._orbits(5):
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
    # The orbit minimum the census records is the extension walk's code.
    labelings = factorial(n - 1)
    for entry in _census(n).class_inventory:
        assert entry.size * _automorphism_count(entry.representative) == labelings
        assert entry.label_canonical == bc.label_canonical_code(entry.representative)


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


def _extension_count(down):
    """e(P), the number of linear extensions, by a DP over the down-closed
    subsets: ``ways[s]`` counts the ways to label the elements of s first."""
    n = len(down)
    ways = {0: 1}
    for _ in range(n):
        grown = Counter()
        for placed, w in ways.items():
            for x, d in enumerate(down):
                if not placed >> x & 1 and d & ~placed == 1 << x:
                    grown[placed | 1 << x] += w
        ways = grown
    return ways[(1 << n) - 1]


def _least_code_over_all_relabelings(table):
    """The least canonical code over every bijection h fixing 0; no src/.

    The relabeled table has h(x)*h(y) = h(x*y), so its word for h(x) has
    bit h(y) set iff x*y = 0.
    """
    n = len(table)
    least = None
    for tail in permutations(range(1, n)):
        h = (0,) + tail
        words = {sum(1 << (n - 1 - h[y]) for y in range(n) if row[y] == 0) for row in table}
        code = tuple(sorted(words, reverse=True))
        least = code if least is None else min(least, code)
    return least


def _order_rows(down):
    """Rows of the order in the `Poset` layout: bit y of row x (MSB first) iff x <= y."""
    n = len(down)
    return tuple(sum(1 << (n - 1 - y) for y in range(n) if down[y] >> x & 1) for x in range(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_natural_orders_are_the_exact_roundtrip_counts(n):
    assert len(_natural_orders(n)) == _EXACT_ROUNDTRIPS[n - 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_label_canonical_code_is_least_over_linear_extensions(n):
    # label_canonical_code tries only the linear extensions of the order.
    # The least code over them is the least over all (n-1)! relabelings
    # fixing 0, since swapping the labels of an inverted pair lowers the
    # code (the proof is in its docstring); checked here as a regression.
    # Its distinct values over the naturally labeled orders are the
    # unlabeled posets on n-1 points.
    orders = [bc.algebra_from_poset(bc.Poset(_order_rows(down))) for down in _natural_orders(n)]
    tables = list(bc.enumerate_bck_algebras(n)) if n <= 4 else []
    codes = {alg: bc.label_canonical_code(alg) for alg in tables + orders}
    for alg, code in codes.items():
        assert code.values == _least_code_over_all_relabelings(alg.table)
    assert len({codes[alg] for alg in orders}) == FAMILY_LABEL_CANONICAL[n]


@pytest.mark.parametrize("n", range(1, 8))
def test_linear_extensions_are_the_order_preserving_maps_fixing_0(n):
    labels = set(range(n))
    for down in _natural_orders(n):
        maps = list(bc.algebra._linear_extensions(bc.Poset(_order_rows(down))))
        assert len(set(maps)) == len(maps) == _extension_count(down)
        less = [(x, y) for y, d in enumerate(down) for x in range(y) if d >> x & 1]
        for h in maps:
            assert h[0] == 0 and set(h) == labels
            assert all(h[x] < h[y] for x, y in less)


def test_linear_extensions_walk_the_longest_chain():
    n = bc.algebra.MAX_ORDER
    chain = bc.Poset((1 << (n - x)) - 1 for x in range(n))  # x <= y iff x <= y as integers
    assert list(bc.algebra._linear_extensions(chain)) == [tuple(range(n))]


# Labeled orders on 0..n-1 with minimum 0, n = 1..7 (OEIS A001035 at
# n-1): each naturally labeled P stands for (n-1)!/e(P) of them, a
# fraction in general.  Floor division of each term would give 215 at n = 5.
SIMILARITY_FROM_ORDERS = {**EXPECTED_SIMILARITY, 6: 4231, 7: 130023}


@pytest.mark.parametrize("n", range(1, 8))
def test_similarity_classes_are_the_orbit_sum_over_natural_orders(n):
    total = sum(Fraction(factorial(n - 1), _extension_count(down)) for down in _natural_orders(n))
    assert total == SIMILARITY_FROM_ORDERS[n]


def _order_first_tables(down):
    """Every BCK table whose induced order is the natural order ``down``; no src/.

    x*y = 0 exactly when x <= y.  Every other cell takes a value in the
    down-set of x without 0, filled row-major, and a value is pruned
    when one of three rules fails on the filled cells (Iséki & Tanaka):
    right monotonicity (w <= x gives w*y <= x*y, against rows w < x),
    antitonicity in the right argument (y <= w gives x*w <= x*y, both
    ways along row x) and exchange ((x*r)*s = (x*s)*r).  Every cell an
    exchange instance in row x reads lies in row x or an earlier row,
    since x*r <= x, so checking the instances the new cell completes is
    complete.  The leaves are not checked: the tests check them.
    """
    n = len(down)
    below = [[w for w in range(n) if d >> w & 1] for d in down]  # below[x]: w <= x
    t = [[0 if down[y] >> x & 1 else -1 for y in range(n)] for x in range(n)]
    cells = [(x, y) for x in range(n) for y in range(n) if t[x][y]]
    tables = []

    def fill(k):
        if k == len(cells):
            tables.append(tuple(map(tuple, t)))
            return
        x, y = cells[k]
        row = t[x]
        # x*y is above each of `lower`: w*y for w <= x in an earlier row
        # (monotonicity) and x*w for w >= y; and below each of `upper`,
        # x*w for w <= y (antitonicity)
        lower = [t[w][y] for w in below[x] if w < x]
        lower += [u for w, u in enumerate(row) if u >= 0 and down[w] >> y & 1]
        upper = [row[w] for w in below[y] if row[w] >= 0]
        for v in below[x][1:]:
            if any(not down[v] >> u & 1 for u in lower) or any(not down[u] >> v & 1 for u in upper):
                continue
            row[y] = v
            # the exchange instances (x*y)*s = (x*s)*y; each other one
            # the new cell completes is one of these with r and s swapped
            if all(t[v][s] == t[b][y] or min(t[v][s], t[b][y]) < 0 for s, b in enumerate(row) if b >= 0):
                fill(k + 1)
        row[y] = -1

    fill(0)
    return tables


def _order_first_census(n):
    """The order-first tables of order n, the isomorphism classes and
    the labeled tables, the last two as sums of `Fraction`s.

    A relabeling fixing 0 keeps a naturally labeled table T with order
    P naturally labeled exactly when it is a linear extension of P, so
    T's class has e(P)/|Aut T| naturally labeled members and
    (n-1)!/|Aut T| labeled ones, where |Aut T| counts the linear
    extensions h that map T to itself (Cauchy-Frobenius).  Such an h is
    an automorphism of P, so only those are tried on the tables.
    """
    tables = []
    classes = labeled = Fraction(0)
    for down in _natural_orders(n):
        found = _order_first_tables(down)
        if not found:
            continue
        extensions = list(bc.algebra._linear_extensions(bc.Poset(_order_rows(down))))
        automorphisms = [
            h for h in extensions
            if all(sum(1 << h[x] for x in range(n) if d >> x & 1) == down[h[y]] for y, d in enumerate(down))
        ]
        for t in found:
            fixing = sum(
                all(h[t[x][y]] == t[h[x]][h[y]] for x in range(n) for y in range(n))
                for h in automorphisms
            )
            classes += Fraction(fixing, len(extensions))
            labeled += Fraction(factorial(n - 1), len(extensions))
        tables += found
    return tables, classes, labeled


@lru_cache(maxsize=None)
def _census_and_kernel_tables(n):
    """``census(n)`` and the set of tables its search yielded, from one run."""
    kernel_tables = set()

    def recorded(m):
        for table in pure.bck_candidates(m):
            kernel_tables.add(table)
            yield table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bc._kernels, "bck_candidates", recorded)
        report = bc.census(n)
    return report, kernel_tables


@pytest.mark.parametrize("n", range(1, 7))
def test_order_first_search_and_its_identity_give_the_census(n):
    # the search and the identity share the natural labeling and the
    # linear extensions with the census, but not the kernel, its
    # pruning, its leaf check or the orbits
    tables, classes, labeled = _order_first_census(n)
    report, kernel_tables = _census_and_kernel_tables(n)
    assert len(set(tables)) == len(tables)
    assert set(tables) == kernel_tables
    assert all(brute_axiom_holds(t, axiom) for t in tables for axiom in range(1, 6))
    assert classes == report.iso_classes
    assert labeled == report.total_tables


# Order 6, confirmed by the order-first search and its identity above;
# the similarity and label-canonical counts are the labeled and
# unlabeled posets on 5 points (OEIS A001035, A000112).
ORDER6_TOTAL = 78216
ORDER6_ISO = 775
ORDER6_SIMILARITY = 4231
ORDER6_LABEL_CANONICAL = 63


def test_census_frozen_counts_at_order_6():
    report, _ = _census_and_kernel_tables(6)
    assert report.total_tables == ORDER6_TOTAL
    assert report.iso_classes == ORDER6_ISO
    assert report.similarity_classes == ORDER6_SIMILARITY
    assert report.label_canonical_classes == ORDER6_LABEL_CANONICAL
    # the bound as the census states it fails from order 6 on
    assert report.bound == 1024 and not report.bound_check


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


def test_enumeration_bounds(monkeypatch):
    # order 6 is the ceiling and needs no flag; the CLI's --max-order
    # is the only opt-in for it.  Both entry points raise on the call.
    for n in (0, -2):
        with pytest.raises(bc.InputError, match="^order must be positive$"):
            bc.enumerate_bck_algebras(n)
        with pytest.raises(bc.InputError, match="^order must be positive$"):
            bc.census(n)
    for n in (7, 12):
        with pytest.raises(bc.InputError, match=rf"^order {n} is out of scope \(max 6\)$"):
            bc.enumerate_bck_algebras(n)
        with pytest.raises(bc.InputError, match=rf"^order {n} is out of scope \(max 6\)$"):
            bc.census(n)
    # the search itself still waits for the first next()
    calls = []
    orbits = census_module._orbits
    monkeypatch.setattr(census_module, "_orbits", lambda n: calls.append(n) or orbits(n))
    stream = bc.enumerate_bck_algebras(6)
    assert calls == []
    first = next(stream)
    assert calls == [6]
    assert bc.check_axioms(first).is_bck
