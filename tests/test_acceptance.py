"""End-to-end acceptance checks for the whole package.

Each test covers one deliverable claim, finishes inside a stated wall
clock cap, and prints a single pass line (visible with ``pytest -s``).
All values are exact; nothing here tolerates approximation.
"""

import random
import time
from itertools import product

import bckcodes as bc
from bckcodes import _kernels
import reference_data as rd
from test_algebra import posets_with_minimum

# Expected number of labeled posets with a minimum on n elements:
# n * (labeled posets on n-1 elements) = n * (1, 1, 3, 19, 219)[n-1].
POSETS_WITH_MINIMUM = {1: 1, 2: 2, 3: 9, 4: 76, 5: 1095}


def _finish(num: int, started: float, cap: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < cap, f"criterion {num} took {elapsed:.2f}s, cap {cap:g}s"
    print(f"criterion {num:02d}: PASS in {elapsed:.3f}s (cap {cap:g}s) — {detail}")


def test_criterion_01_identity_encoding_of_the_worked_algebra():
    started = time.perf_counter()
    alg = bc.CayleyAlgebra(rd.ALG4_COMMUTATIVE)
    code = bc.canonical_code(alg)
    assert set(code.strings()) == {"1111", "0110", "0010", "0001"}
    assert code.strings() == rd.CODE4
    _finish(1, started, 1.0, "identity encoding gives the four expected words")


def test_criterion_02_reverse_construction_of_the_worked_code():
    started = time.perf_counter()
    source = bc.CayleyAlgebra(rd.ALG4_COMMUTATIVE)
    code = bc.BlockCode.from_strings(rd.CODE4)

    result = bc.construct_from_code(code)
    assert result.algebra.table == rd.ALG4_FROM_CODE

    trip = bc.verify_roundtrip(code)
    assert trip.exact

    assert bc.code_similar(source, result.algebra)
    assert bc.are_isomorphic(source, result.algebra) is None

    assert bc.is_commutative(source).holds
    assert not bc.is_implicative(source).holds
    assert not bc.is_commutative(result.algebra).holds
    assert not bc.is_implicative(result.algebra).holds
    _finish(2, started, 1.0, "code rebuilds the expected table, similar not isomorphic")


def test_criterion_03_pointwise_indicator_algebra():
    started = time.perf_counter()
    alg = bc.pointwise_function_algebra(3)
    assert alg.table == rd.INDICATOR3_TABLE
    assert bc.canonical_code(alg).strings() == rd.INDICATOR3_CODE
    assert bc.is_implicative(alg).holds

    rebuilt = bc.construct_from_code(bc.BlockCode.from_strings(rd.INDICATOR3_CODE))
    assert not bc.is_implicative(rebuilt.algebra).holds
    assert bc.code_similar(alg, rebuilt.algebra)
    _finish(3, started, 1.0, "8-element indicator algebra and its code agree")


def test_criterion_04_lift_of_the_worked_code():
    started = time.perf_counter()
    code = bc.BlockCode.from_strings(rd.LIFT_INPUT)
    result = bc.lift_code(code)

    assert result.embedded.strings() == rd.LIFT_EMBEDDED
    assert result.ambient.strings() == rd.LIFT_COMPLETED

    expected = {
        "11111", "11110", "10011", "10010", "00000",
        "10000", "01000", "00100", "00010", "00001",
    }
    assert set(result.lifted_code.strings()) == expected
    assert result.lifted_code.strings() == rd.LIFT_OUTPUT
    assert set(result.source_code.words) <= set(result.lifted_code.words)
    _finish(4, started, 1.0, "9x9 and 10x10 matrices and the lifted words all match")


def test_criterion_05_family_counts():
    started = time.perf_counter()
    expected = {3: 2, 4: 8, 5: 64, 6: 1024}
    for n, count in expected.items():
        codes = list(bc.enumerate_triangular_codes(n))
        assert len(codes) == count
        assert all(bc.is_triangular_code(c).ok for c in codes)
    _finish(5, started, 10.0, "family sizes 2, 8, 64, 1024 for lengths 3..6")


def test_criterion_06_posets_give_bck_algebras_and_the_variant_rule_fails():
    started = time.perf_counter()
    for n in range(1, 6):
        seen = 0
        for poset in posets_with_minimum(n):
            seen += 1
            report = bc.check_axioms(bc.algebra_from_poset(poset))
            assert report.is_bck, poset.rows
        assert seen == POSETS_WITH_MINIMUM[n]

    # the rule sending an incomparable pair (x, y) to y instead of x
    # breaks the first axiom already on the smallest poset with an
    # incomparable pair: 0 below both 1 and 2
    leq = (
        (True, True, True),
        (False, True, False),
        (False, False, True),
    )
    variant = tuple(
        tuple(0 if leq[x][y] else (x if leq[y][x] else y) for y in range(3))
        for x in range(3)
    )
    report = bc.check_axioms(bc.CayleyAlgebra(variant))
    assert not report.check(1).holds
    _finish(6, started, 120.0, "all 1183 posets with minimum pass; variant rule fails")


def test_criterion_07_exact_roundtrip_is_self_description():
    started = time.perf_counter()
    for n in range(1, 6):
        for code in bc.enumerate_triangular_codes(n):
            trip = bc.verify_roundtrip(code)
            assert trip.exact == trip.self_describing
            rebuilt = bc.construct_from_code(code).algebra
            assert trip.regenerated == bc.canonical_code(rebuilt)

    bad = bc.verify_roundtrip(bc.BlockCode.from_strings(rd.ROUNDTRIP_COUNTEREXAMPLE))
    assert not bad.exact and not bad.self_describing
    assert bc.verify_roundtrip(bc.BlockCode.from_strings(rd.CODE4)).exact
    for n in range(1, 6):
        assert bc.verify_roundtrip(bc.staircase_code(n)).exact
    _finish(7, started, 60.0, "exact iff self-describing over 76 family codes")


def test_criterion_08_randomized_lifts_contain_their_source():
    started = time.perf_counter()
    rng = random.Random(1729)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, min(6, 2**m))
        values = rng.sample(range(2**m), n)
        code = bc.BlockCode(
            tuple(
                bc.Codeword(tuple((v >> (m - 1 - i)) & 1 for i in range(m)))
                for v in values
            )
        )
        result = bc.lift_code(code)
        for matrix in (result.embedded, result.ambient):
            rows = [w.bits for w in matrix.words]
            assert len(rows) == len(rows[0])  # square
            assert all(not any(row[:i]) for i, row in enumerate(rows))  # upper triangular
            assert all(row[i] == 1 for i, row in enumerate(rows))  # unit diagonal
        assert all(v == 1 for v in result.ambient.words[0].bits)
        assert bc.is_triangular_code(result.ambient).ok
        assert set(result.source_code.words) <= set(result.lifted_code.words)
        assert result.lifted_code == bc.generate_code(result.function)
    _finish(8, started, 60.0, "200 seeded random codes embed with all predicates")


def test_criterion_09_census_floors_and_unpruned_cross_check():
    started = time.perf_counter()
    assert bc.census(3).iso_classes >= 2
    assert bc.census(4).iso_classes >= 8

    pruned = {alg.table for alg in bc.enumerate_bck_algebras(3)}
    brute = set()
    for cells in product(range(3), repeat=9):
        rows = tuple(tuple(cells[i * 3 : i * 3 + 3]) for i in range(3))
        if _kernels.table_is_bck(rows):
            brute.add(rows)
    assert pruned == brute
    _finish(9, started, 300.0, "census floors hold; pruned equals unpruned at order 3")


def test_criterion_10_family_algebras_and_the_staircase_minimum():
    started = time.perf_counter()
    alg3, code3 = bc.family_algebra(3)
    assert alg3.order == 2
    assert alg3.table == ((0, 0), (1, 0))
    assert bc.check_axioms(alg3).is_bck
    assert set(code3.strings()) == {"11", "01"}

    alg4, code4 = bc.family_algebra(4)
    assert alg4.order == 8
    assert bc.check_axioms(alg4).is_bck
    assert bc.canonical_code(alg4) == code4
    assert len(code4) == 8 and code4.length == 8

    alg5, code5 = bc.family_algebra(5)
    assert bc.canonical_code(alg5) == code5

    for n in range(1, 6):
        bottom = bc.staircase_code(n)
        for code in bc.enumerate_triangular_codes(n):
            rel = bc.compare_codes_word(bottom, code)
            assert rel in (bc.Comparison.LESS, bc.Comparison.EQUAL)
    _finish(10, started, 60.0, "family algebras check out; staircase is the minimum")
