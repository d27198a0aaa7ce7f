import random
from itertools import product

import numpy as np
import pytest

import bckcodes as bc
import reference_data as rd
from bckcodes.codes import bit_positions, pack_bits


def brute_axiom_holds(table, axiom: int) -> bool:
    """Independent re-statement of the five axioms, straight off the text."""
    n = len(table)
    t = table
    if axiom == 1:
        return all(
            t[t[t[x][y]][t[x][z]]][t[z][y]] == 0
            for x, y, z in product(range(n), repeat=3)
        )
    if axiom == 2:
        return all(t[t[x][t[x][y]]][y] == 0 for x, y in product(range(n), repeat=2))
    if axiom == 3:
        return all(t[x][x] == 0 for x in range(n))
    if axiom == 4:
        return all(
            not (t[x][y] == 0 and t[y][x] == 0 and x != y)
            for x, y in product(range(n), repeat=2)
        )
    if axiom == 5:
        return all(t[0][x] == 0 for x in range(n))
    raise ValueError(axiom)


def test_reference_tables_are_bck(alg4_commutative, alg4_from_code):
    for alg in (alg4_commutative, alg4_from_code):
        report = bc.check_axioms(alg)
        assert report.is_bci
        assert report.is_bck
        assert all(c.holds and c.witness is None for c in report.checks)


def test_commutativity_splits_the_pair(alg4_commutative, alg4_from_code):
    assert bc.is_commutative(alg4_commutative).holds
    assert bool(bc.is_commutative(alg4_commutative)) is True
    check = bc.is_commutative(alg4_from_code)
    assert not check.holds
    assert bool(check) is False
    x, y = check.witness
    t = rd.ALG4_FROM_CODE
    assert t[x][t[x][y]] != t[y][t[y][x]]
    assert not bc.is_implicative(alg4_commutative).holds
    assert not bc.is_implicative(alg4_from_code).holds


def test_axiom3_witness_on_tampered_table():
    rows = [list(r) for r in rd.ALG4_COMMUTATIVE]
    rows[1][1] = 1
    report = bc.check_axioms(bc.CayleyAlgebra(rows))
    check = report.check(3)
    assert not check.holds
    assert check.witness == (1,)
    assert check.evaluation == 1
    assert not report.is_bck


def test_property_checks_reject_non_bck():
    bad = bc.CayleyAlgebra([[0, 1], [1, 0]])
    with pytest.raises(bc.NotBckError):
        bc.is_commutative(bad)
    with pytest.raises(bc.NotBckError):
        bc.is_implicative(bad)


def test_check_axioms_agrees_with_bruteforce_on_random_tables():
    rng = random.Random(20240811)
    for _ in range(300):
        n = rng.randint(1, 4)
        table = tuple(
            tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)
        )
        report = bc.check_axioms(bc.CayleyAlgebra(table))
        for axiom in range(1, 6):
            assert report.check(axiom).holds == brute_axiom_holds(table, axiom)


def test_witnesses_reevaluate_to_violations():
    rng = random.Random(99)
    seen_failures = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        table = tuple(
            tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)
        )
        t = table
        report = bc.check_axioms(bc.CayleyAlgebra(table))
        for check in report.checks:
            if check.holds:
                continue
            seen_failures += 1
            w = check.witness
            if check.axiom == 1:
                x, y, z = w
                value = t[t[t[x][y]][t[x][z]]][t[z][y]]
                assert value != 0 and value == check.evaluation
            elif check.axiom == 2:
                x, y = w
                value = t[t[x][t[x][y]]][y]
                assert value != 0 and value == check.evaluation
            elif check.axiom == 3:
                assert t[w[0]][w[0]] != 0 and t[w[0]][w[0]] == check.evaluation
            elif check.axiom == 4:
                x, y = w
                assert x != y and t[x][y] == 0 and t[y][x] == 0
                assert check.evaluation is None
            else:
                assert t[0][w[0]] != 0 and t[0][w[0]] == check.evaluation
    assert seen_failures > 100


def test_induced_order_of_reference_table(alg4_from_code):
    poset = bc.induced_order(alg4_from_code)
    assert poset.minimum == 0
    pairs = tuple(
        (x, y) for x, r in enumerate(poset.rows) for y in bit_positions(r, 4) if y != x
    )
    assert pairs == rd.ORDER4_PAIRS


def test_induced_order_rejects_non_bck():
    mutual = bc.CayleyAlgebra([[0, 0], [0, 0]])
    with pytest.raises(bc.InternalInvariantError, match="not a partial order"):
        bc.induced_order(mutual)
    # x*y = 0 orders 1 below 0, a partial order with minimum 1; axiom 5 fails
    upside_down = bc.CayleyAlgebra([[0, 1], [0, 0]])
    with pytest.raises(bc.InternalInvariantError) as exc:
        bc.induced_order(upside_down)
    assert str(exc.value) == "induced order has no minimum at element 0; input not BCK?"


def test_isomorphism_finds_the_relabeling(alg4_from_code):
    h = (0, 1, 3, 2)
    t = rd.ALG4_FROM_CODE
    relabeled = [[0] * 4 for _ in range(4)]
    for x in range(4):
        for y in range(4):
            relabeled[h[x]][h[y]] = h[t[x][y]]
    other = bc.CayleyAlgebra(relabeled)
    assert bc.are_isomorphic(alg4_from_code, other) == h
    assert bc.are_isomorphic(other, alg4_from_code) == h  # involution


def test_code_similar_pair_is_not_isomorphic(alg4_commutative, alg4_from_code):
    assert bc.are_isomorphic(alg4_commutative, alg4_from_code) is None
    small = bc.CayleyAlgebra([[0, 0], [1, 0]])
    assert bc.are_isomorphic(alg4_commutative, small) is None


def test_isomorphism_respects_products():
    algs = list(bc.enumerate_bck_algebras(3))
    for a in algs:
        for b in algs:
            h = bc.are_isomorphic(a, b)
            agree = bc.are_isomorphic(b, a)
            assert (h is None) == (agree is None)
            if h is not None:
                for x in range(3):
                    for y in range(3):
                        assert h[a.table[x][y]] == b.table[h[x]][h[y]]


def test_pointwise_algebra_small_cases():
    assert bc.pointwise_function_algebra(1).table == ((0, 0), (1, 0))
    alg = bc.pointwise_function_algebra(2)
    # independent derivation through set difference on subsets of {0, 1}
    def bits_to_set(i):
        return frozenset(j for j in range(2) if i & (1 << (1 - j)))

    sets = [bits_to_set(i) for i in range(4)]
    for f in range(4):
        for g in range(4):
            expected = sets[f] - sets[g]
            assert bits_to_set(alg.table[f][g]) == expected
    assert alg.names == ("00", "01", "10", "11")


def test_pointwise_algebra_is_bck_and_implicative_up_to_k5():
    for k in range(1, 6):
        alg = bc.pointwise_function_algebra(k)
        assert alg.order == 2**k
        assert bc.check_axioms(alg).is_bck
        assert bc.is_implicative(alg).holds


def test_pointwise_bounds():
    with pytest.raises(bc.InputError):
        bc.pointwise_function_algebra(0)
    with pytest.raises(bc.InputError):
        bc.pointwise_function_algebra(11)


def test_cayley_table_validation():
    with pytest.raises(bc.InputError):
        bc.CayleyAlgebra([[0, 1], [1, 2]])  # entry out of range
    with pytest.raises(bc.InputError):
        bc.CayleyAlgebra([[0, 1]])  # not square
    with pytest.raises(bc.InputError):
        bc.CayleyAlgebra([])
    with pytest.raises(bc.InputError):
        bc.CayleyAlgebra([[0, 0], [1, 0]], names=("only one",))


@pytest.mark.parametrize("table, message", [
    ([[0, 0.5], [1, 0]], "0.5 is not an integer"),
    ([[0, "0"], ["1", 0]], "'0' is not an integer"),
    ([[0, None], [1, 0]], "None is not an integer"),
    ([[0, 0], [1.0, 0]], "1.0 is not an integer"),
    (5, "5 is not a table of integer rows"),
])
def test_cayley_table_rejects_non_integers(table, message):
    with pytest.raises(bc.InputError) as exc:
        bc.CayleyAlgebra(table)
    assert str(exc.value) == message


def test_cayley_table_accepts_numpy_ints_and_bools():
    alg = bc.CayleyAlgebra([[np.int64(0), False], [np.int32(1), 0]])
    assert alg.table == ((0, 0), (1, 0))
    assert all(type(v) is int for row in alg.table for v in row)


def test_poset_validation():
    with pytest.raises(bc.InputError):
        bc.Poset((0b11, 0b11))  # antisymmetry
    with pytest.raises(bc.InputError):
        bc.Poset((0b00, 0b00))  # reflexivity
    chain = bc.Poset((0b11, 0b01))
    assert chain.minimum == 0
    upside_down = bc.Poset((0b10, 0b11))
    assert upside_down.minimum == 1
    no_min = bc.Poset((0b10, 0b01))
    assert no_min.minimum is None
    with pytest.raises(bc.InputError):
        bc.Poset((0b110, 0b011, 0b001))  # transitivity gap at (0, 2)


def _relation_oracle(m):
    """(error message or None, minimum) of a 0/1 matrix, checked by brute force.

    The checks run reflexive, antisymmetric, transitive, and each names
    the first failing pair in row-major order.
    """
    n = len(m)
    r = range(n)
    if not all(m[x][x] for x in r):
        return "relation is not reflexive", None
    for x in r:
        for y in r:
            if x != y and m[x][y] and m[y][x]:
                return f"relation is not antisymmetric at ({x}, {y})", None
    for x in r:
        for z in r:
            if not m[x][z] and any(m[x][y] and m[y][z] for y in r):
                return f"relation is not transitive at ({x}, {z})", None
    return None, next((x for x in r if all(m[x])), None)


def _small_relations():
    """Every 0/1 matrix with n <= 3 and every reflexive one with n = 4."""
    for n in range(1, 4):
        for cells in product((0, 1), repeat=n * n):
            yield [cells[i * n : (i + 1) * n] for i in range(n)]
    off = [(x, y) for x in range(4) for y in range(4) if x != y]
    for cells in product((0, 1), repeat=len(off)):
        m = [[int(x == y) for y in range(4)] for x in range(4)]
        for (x, y), v in zip(off, cells):
            m[x][y] = v
        yield m


def test_poset_validation_matches_a_brute_force_oracle():
    checked = failed = 0
    for m in _small_relations():
        message, minimum = _relation_oracle(m)
        checked += 1
        if message is not None:
            failed += 1
            with pytest.raises(bc.InputError) as exc:
                bc.Poset(pack_bits(row) for row in m)
            assert str(exc.value) == message, m
            continue
        poset = bc.Poset(pack_bits(row) for row in m)
        assert poset.minimum == minimum, m
    assert checked == 2 + 2**4 + 2**9 + 2**12
    assert 0 < failed < checked


def test_poset_rows_are_the_codewords_of_the_order():
    # bit y of rows[x] is x <= y, bit 0 most significant, as in Codeword
    for m in _small_relations():
        if _relation_oracle(m)[0] is not None:
            continue
        n = len(m)
        rows = [int("".join(str(int(v)) for v in row), 2) for row in m]
        poset = bc.Poset(rows)
        assert poset.rows == tuple(rows)
        assert [bc.Codeword.of(r, n).bits for r in poset.rows] == [
            tuple(int(v) for v in row) for row in m
        ]
    for bad in ((), (4, 1), (-1, 1)):
        with pytest.raises(bc.InputError, match="must be non-empty and fit in n bits"):
            bc.Poset(bad)


def test_names_do_not_affect_equality():
    a = bc.CayleyAlgebra([[0, 0], [1, 0]], names=("zero", "one"))
    b = bc.CayleyAlgebra([[0, 0], [1, 0]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.names == ("zero", "one")
    assert b.names is None
    # equal algebras hash equal whatever their names and constructor
    c = bc.CayleyAlgebra._trusted(((0, 0), (1, 0)), ("z", "o"))
    assert hash(c) == hash(a) and {a, b, c} == {b}
    assert bc.CayleyAlgebra(((0, 0), (1, 1)), names=("zero", "one")) not in {a}


def test_an_algebra_hashes_its_table_once():
    hashes = []

    class CountingTable(tuple):
        def __hash__(self):
            hashes.append(self)
            return super().__hash__()

    alg = bc.CayleyAlgebra._trusted(CountingTable(((0, 0), (1, 0))))
    bc.check_axioms.cache_clear()
    for _ in range(3):
        assert bc.check_axioms(alg).is_bck
        assert bc.is_commutative(alg) and bc.is_implicative(alg)
    assert len(hashes) == 1
    assert bc.check_axioms.cache_info().misses == 1


def test_check_axioms_cache_is_bounded():
    maxsize = bc.check_axioms.cache_info().maxsize
    assert maxsize is not None
    tables = list(bc.enumerate_bck_algebras(5))
    assert len(tables) > maxsize
    for alg in tables:
        bc.check_axioms(alg)
    assert bc.check_axioms.cache_info().currsize <= maxsize
