import random
import re
from itertools import chain, islice, product

import pytest

import bckcodes as bc
import reference_data as rd
from bckcodes import construct
from bckcodes.codes import bit_positions, pack_bits
from test_algebra import brute_axiom_holds, posets_with_minimum
from test_codes import seeded_members


def poset_of(leq) -> bc.Poset:
    """The poset of a boolean matrix, leq[x][y] iff x <= y, one packed row each."""
    return bc.Poset(pack_bits(row) for row in leq)


def chain_poset(n: int) -> bc.Poset:
    return poset_of(tuple(tuple(i <= j for j in range(n)) for i in range(n)))


def test_chain_gives_the_standard_table():
    assert bc.algebra_from_poset(chain_poset(3)).table == rd.CHAIN3_TABLE


def test_minimum_is_relocated_to_index_zero():
    # minimum at index 2, other two elements incomparable
    leq = (
        (True, False, False),
        (False, True, False),
        (True, True, True),
    )
    alg = bc.algebra_from_poset(poset_of(leq))
    assert alg.table == ((0, 0, 0), (1, 0, 1), (2, 2, 0))
    assert bc.check_axioms(alg).is_bck


def test_poset_without_minimum_is_rejected():
    antichain = bc.Poset((0b10, 0b01))
    with pytest.raises(bc.InputError):
        bc.algebra_from_poset(antichain)


def test_all_small_posets_give_bck_tables():
    counts = {}
    for n in range(1, 5):
        count = 0
        for poset in posets_with_minimum(n):
            count += 1
            alg = bc.algebra_from_poset(poset)
            assert bc.check_axioms(alg).is_bck
        counts[n] = count
    assert counts[1] == 1
    assert counts[2] == 2
    # oracle below recounts 3 and 4 independently
    assert counts[3] == _brute_count_posets_with_minimum(3)
    assert counts[4] == _brute_count_posets_with_minimum(4)


def _brute_count_posets_with_minimum(n: int) -> int:
    """Count by sweeping every subset of off-diagonal relation pairs."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for choice in product((False, True), repeat=len(off)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), bit in zip(off, choice):
            leq[i][j] = bit
        if any(leq[i][j] and leq[j][i] for i, j in off):
            continue
        if any(
            leq[i][j] and leq[j][k] and not leq[i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            continue
        if not any(all(row) for row in leq):
            continue
        count += 1
    return count


def test_incomparable_variant_rule_breaks_axiom_1():
    # poset: 0 below 1 and 2, with 1 and 2 incomparable
    leq = (
        (True, True, True),
        (False, True, False),
        (False, False, True),
    )
    poset = poset_of(leq)
    assert bc.check_axioms(bc.algebra_from_poset(poset)).is_bck

    # variant: incomparable pairs map to the right argument instead
    n = 3
    variant = tuple(
        tuple(
            0 if leq[x][y] else (x if leq[y][x] else y) for y in range(n)
        )
        for x in range(n)
    )
    assert variant != bc.algebra_from_poset(poset).table
    report = bc.check_axioms(bc.CayleyAlgebra(variant))
    assert not report.check(1).holds
    assert not brute_axiom_holds(variant, 1)


def test_construct_from_reference_code(code4):
    result = bc.construct_from_code(code4)
    assert result.algebra.table == rd.ALG4_FROM_CODE
    assert result.algebra.names == ("w1", "w2", "w3", "w4")
    assert result.code.strings() == rd.CODE4
    assert result.poset.minimum == 0
    pairs = tuple(
        (x, y) for x, r in enumerate(result.poset.rows) for y in bit_positions(r, 4) if y != x
    )
    assert pairs == rd.ORDER4_PAIRS


def test_construct_rejects_non_members():
    with pytest.raises(bc.InputError) as exc:
        bc.construct_from_code(bc.BlockCode.from_strings(rd.LIFT_INPUT))
    assert "not square" in str(exc.value)


def _seeded_non_members(seed=19):
    """Seeded codes of 1-6 distinct words of 1-5 bits that are not family members."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(1, 5)
        code = bc.BlockCode.of(rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n))), n)
        if not bc.is_triangular_code(code):
            yield code


def test_roundtrip_rejects_non_members_with_the_membership_reason():
    kinds = set()
    for code in islice(_seeded_non_members(), 500):
        reason = bc.is_triangular_code(code).reason
        for build in (bc.verify_roundtrip, bc.construct_from_code):
            with pytest.raises(bc.InputError) as exc:
                build(code)
            assert str(exc.value) == "not a triangular-family code: " + reason
        kinds.add(re.sub(r"^sorted row \d+ |: .*", "", reason))
    assert kinds == {
        "not square",
        "all-ones word missing",
        "has a 1 left of the diagonal",
        "has no 1 on the diagonal",
    }


def test_roundtrip_counterexample():
    code = bc.BlockCode.from_strings(rd.ROUNDTRIP_COUNTEREXAMPLE)
    trip = bc.verify_roundtrip(code)
    assert not trip.exact
    assert not trip.self_describing
    assert len(trip.mismatches) == 1
    mismatch = trip.mismatches[0]
    assert mismatch.element == 1
    assert str(mismatch.expected) == "0110"
    assert str(mismatch.produced) == "0100"


def test_roundtrip_exact_cases(code4):
    assert bc.verify_roundtrip(code4).exact
    for n in range(1, 6):
        trip = bc.verify_roundtrip(bc.staircase_code(n))
        assert trip.exact
        assert trip.self_describing
        assert trip.mismatches == ()


def test_exactness_equals_self_description_up_to_order_4():
    for n in range(1, 5):
        for code in bc.enumerate_triangular_codes(n):
            trip = bc.verify_roundtrip(code)
            assert trip.exact == trip.self_describing
            assert trip.exact == (trip.mismatches == ())
            if trip.exact:
                assert trip.regenerated == bc.lex_sort_desc(code)


def test_poset_built_algebras_skip_the_axiom_scan(monkeypatch):
    # construct, lift and the family algebra encode poset algebras, which
    # are BCK by construction; only the public encoders check the axioms
    def scan(alg):
        raise AssertionError("axiom scan on a poset-built algebra")

    monkeypatch.setattr("bckcodes.encode.check_axioms", scan)
    code = bc.BlockCode.from_strings(rd.CODE4)
    result = bc.construct_from_code(code)
    assert result.algebra.table == rd.ALG4_FROM_CODE
    assert bc.verify_roundtrip(code).exact
    lifted = bc.lift_code(bc.BlockCode.from_strings(rd.LIFT_INPUT))
    assert lifted.lifted_code.strings() == rd.LIFT_OUTPUT
    alg, family = bc.family_algebra(5)
    assert alg.order == len(family) == 64
    with pytest.raises(AssertionError):
        bc.canonical_code(result.algebra)


def test_random_posets_recover_their_order():
    rng = random.Random(13)
    for trial in range(20):
        n = rng.randint(6, 8)
        leq = _random_poset_matrix(n, rng)
        poset = poset_of(leq)
        assert poset.minimum == 0
        alg = bc.algebra_from_poset(poset)
        assert bc.check_axioms(alg).is_bck
        assert bc.induced_order(alg) == poset


def _random_poset_matrix(n: int, rng: random.Random):
    """Transitive closure of random forward edges over a random ranking,
    with element 0 forced below everything."""
    rank = list(range(1, n))
    rng.shuffle(rank)
    rank = [0] + rank
    leq = [[i == j for j in range(n)] for i in range(n)]
    for pos_a in range(n):
        for pos_b in range(pos_a + 1, n):
            a, b = rank[pos_a], rank[pos_b]
            if pos_a == 0 or rng.random() < 0.4:
                leq[a][b] = True
    # Floyd-Warshall style closure
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return tuple(tuple(row) for row in leq)


def assert_validated_report(report: bc.RoundTripReport, sorted_code: bc.BlockCode, poset: bc.Poset):
    """Each field of ``report`` equals the one rebuilt with the public, checking constructors."""
    n = poset.order
    regenerated = bc.BlockCode(tuple(bc.Codeword.of(r, n) for r in sorted(poset.rows, reverse=True)))
    mismatches = tuple(
        bc.RowMismatch(k, w, bc.Codeword.of(r, n))
        for k, (w, r) in enumerate(zip(sorted_code.words, poset.rows))
        if w.value != r
    )
    assert report.exact is (regenerated == sorted_code)
    assert report.self_describing is (not mismatches)
    assert report.regenerated == regenerated
    assert report.mismatches == mismatches


def _trusted_sample():
    """Every family code at orders 1-6 and 2,000 seeded order-7 codes."""
    for n in range(1, 7):
        yield from bc.enumerate_triangular_codes(n)
    codes7 = list(bc.enumerate_triangular_codes(7))
    yield from random.Random(11).sample(codes7, 2000)


def test_trusted_path_equals_the_validated_path():
    for code in _trusted_sample():
        result = bc.construct_from_code(code)
        poset = bc.Poset(result.poset.rows)
        assert result.poset == poset
        assert result.poset.minimum == poset.minimum == 0
        validated = bc.CayleyAlgebra(result.algebra.table, result.algebra.names)
        assert result.algebra == validated
        assert result.algebra.names == validated.names
        sorted_code = bc.lex_sort_desc(code)
        assert sorted_code == bc.BlockCode(sorted_code.words)
        assert result.code == sorted_code
        report = bc.verify_roundtrip(code)
        assert_validated_report(report, bc.BlockCode(result.code.words), poset)
        assert report == bc.RoundTripReport(result.code, poset.rows)
        assert report.regenerated == bc.BlockCode(report.regenerated.words)


def descend_from_the_diagonal(rows) -> bool:
    """Are ``rows`` strictly descending, with row k's leading 1 at bit k?"""
    n = len(rows)
    descending = all(a > b for a, b in zip(rows, rows[1:]))
    return descending and all(r.bit_length() == n - k for k, r in enumerate(rows))


def test_word_order_rows_are_the_incidence_matrix_and_descend_from_the_diagonal():
    for code in chain(_trusted_sample(), seeded_members(8)):
        sorted_code, rows = construct._word_order(code)
        words = bc.lex_sort_desc(code).words
        assert sorted_code == bc.BlockCode(words)
        assert rows == tuple(pack_bits(bc.word_leq(a, b) for b in words) for a in words)
        assert descend_from_the_diagonal(rows)


def test_word_order_returns_an_already_sorted_code_itself():
    for code in _trusted_sample():
        assert construct._word_order(code)[0] is code
    shuffled = bc.BlockCode.of((0b0110, 0b1111, 0b0001, 0b0010), 4)
    sorted_code = construct._word_order(shuffled)[0]
    assert sorted_code == bc.lex_sort_desc(shuffled)
    assert sorted_code is not shuffled


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_roundtrips_regenerate_the_sorted_code(n):
    exact = 0
    for code in bc.enumerate_triangular_codes(n):
        report = bc.verify_roundtrip(code)
        if report.exact:
            exact += 1
            assert report.regenerated == bc.lex_sort_desc(code)
            assert report.regenerated == bc.BlockCode(report.regenerated.words)
        else:
            assert report.regenerated != bc.lex_sort_desc(code)
    assert exact == _EXACT_ROUNDTRIPS[n - 1]


def test_verify_roundtrip_builds_no_poset(monkeypatch):
    built = 0
    init = bc.Poset.__init__

    def counting(self, rows):
        nonlocal built
        built += 1
        init(self, rows)

    monkeypatch.setattr(bc.Poset, "__init__", counting)
    reports = [bc.verify_roundtrip(c) for c in bc.enumerate_triangular_codes(7)]
    assert sum(r.exact for r in reports) == 4824
    assert built == 0
    # construction still builds its poset with the checked constructor
    assert bc.construct_from_code(bc.staircase_code(7)).poset.minimum == 0
    assert built == 1


def test_trusted_builders_equal_validated_objects():
    alg, _ = bc.family_algebra(6)
    assert alg == bc.CayleyAlgebra(alg.table)
    for code in bc.enumerate_triangular_codes(4):
        embedded = bc.embed_matrix(code)
        lifted = bc.lift_code(code).lifted_code
        for built in (embedded, bc.ensure_all_ones(embedded), lifted):
            assert built == bc.BlockCode(built.words)


def test_algebra_from_poset_still_checks_names():
    poset = chain_poset(3)
    assert bc.algebra_from_poset(poset, names=(1, 2, 3)).names == ("1", "2", "3")
    for names in (("a", "b"), ("a", "b", "c", "d")):
        with pytest.raises(bc.InputError, match="one name per element"):
            bc.algebra_from_poset(poset, names=names)


# Naturally labeled posets on n-1 points (OEIS A006455), n = 1..7
_EXACT_ROUNDTRIPS = (1, 1, 2, 7, 40, 357, 4824)


def _naturally_labeled_with_minimum(n: int) -> int:
    """Posets on 0..n-1 with minimum 0 in which x <= y implies x <= y as integers."""
    count = 0
    for poset in posets_with_minimum(n):
        natural = all(x <= y for x, r in enumerate(poset.rows) for y in bit_positions(r, n))
        count += poset.minimum == 0 and natural
    return count


@pytest.mark.parametrize("n", range(1, 6))
def test_exact_roundtrip_counts_match_the_brute_force(n):
    assert _naturally_labeled_with_minimum(n) == _EXACT_ROUNDTRIPS[n - 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_exact_roundtrip_counts(n):
    reports = [bc.verify_roundtrip(c) for c in bc.enumerate_triangular_codes(n)]
    assert sum(r.exact for r in reports) == _EXACT_ROUNDTRIPS[n - 1]
    assert all(r.exact == r.self_describing for r in reports)


def test_roundtrip_reports_compare_by_code_and_rows():
    exact, inexact = bc.staircase_code(4), bc.BlockCode.of((0b1111, 0b0110, 0b0011, 0b0001), 4)
    for code in (exact, inexact):
        first, second = bc.verify_roundtrip(code), bc.verify_roundtrip(code)
        first.mismatches, first.regenerated  # cached on the first report only
        assert "mismatches" in vars(first) and "mismatches" not in vars(second)
        assert first == second
        assert hash(first) == hash(second)
        assert first == bc.RoundTripReport(*construct._word_order(code))
    assert bc.verify_roundtrip(exact) != bc.verify_roundtrip(inexact)


def test_roundtrip_builds_codewords_only_for_mismatches(monkeypatch):
    """`verify_roundtrip` builds no codeword; the first read of
    ``mismatches`` builds two per mismatch, and later reads none."""
    calls = 0
    of = bc.Codeword.of

    def counting(cls, value, length):
        nonlocal calls
        calls += 1
        return of(value, length)

    monkeypatch.setattr(bc.Codeword, "of", classmethod(counting))
    mismatches = 0
    for code in bc.enumerate_triangular_codes(7):
        before = calls
        report = bc.verify_roundtrip(code)
        assert calls == before
        found = report.mismatches
        assert calls - before == 2 * len(found)
        assert report.exact is (not found)
        before = calls
        assert report.mismatches is found
        assert calls == before
        mismatches += len(found)
    assert mismatches > 0
    assert calls == 2 * mismatches


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: bc.staircase_code(0), bc.InputError, "n must be positive"),
        (
            lambda: bc.label_canonical_code(bc.CayleyAlgebra(((0, 0), (0, 0)))),
            bc.NotBckError,
            "label_canonical_code requires a BCK-algebra",
        ),
        (
            lambda: bc.Poset((0b100, 0b01)),
            bc.InputError,
            "poset rows must be non-empty and fit in n bits",
        ),
    ],
    ids=["staircase", "label-canonical", "poset-shape"],
)
def test_input_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
