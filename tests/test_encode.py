import random

import numpy as np
import pytest

import bckcodes as bc
import reference_data as rd


def test_cut_subsets_of_reference_table(alg4_from_code):
    f = bc.BckFunction.identity(alg4_from_code)
    assert bc.cut_subset(f, 0) == ("0", "1", "2", "3")
    assert bc.cut_subset(f, 1) == ("1", "2")
    assert bc.cut_subset(f, 2) == ("2",)
    assert bc.cut_subset(f, 3) == ("3",)
    with pytest.raises(bc.InputError):
        bc.cut_subset(f, 4)
    with pytest.raises(bc.InputError):
        bc.cut_subset(f, -1)


def test_identity_classes_are_singletons(alg4_from_code):
    classes = bc.equivalence_classes(bc.BckFunction.identity(alg4_from_code))
    assert classes.classes == ((0,), (1,), (2,), (3,))
    assert classes.count == 4


def test_constant_function_merges_classes(alg4_from_code):
    f = bc.BckFunction(("a", "b"), alg4_from_code, (3, 3))
    classes = bc.equivalence_classes(f)
    assert classes.classes == ((0, 3), (1, 2))
    assert classes.cuts == (("a", "b"), ())
    code = bc.generate_code(f)
    assert code.strings() == ("11", "00")


def test_reference_codes(alg4_commutative, alg4_from_code, code4):
    assert bc.canonical_code(alg4_commutative) == bc.lex_sort_desc(code4)
    assert bc.canonical_code(alg4_from_code) == bc.lex_sort_desc(code4)
    chain2 = bc.CayleyAlgebra([[0, 0], [1, 0]])
    assert bc.canonical_code(chain2).strings() == rd.CHAIN2_CODE


def test_generate_code_requires_bck():
    non_bck = bc.CayleyAlgebra([[0, 1], [1, 0]])
    f = bc.BckFunction(("a", "b"), non_bck, (0, 1))
    with pytest.raises(bc.NotBckError):
        bc.generate_code(f)


def test_function_validation(alg4_from_code):
    with pytest.raises(bc.InputError):
        bc.BckFunction((), alg4_from_code, ())
    with pytest.raises(bc.InputError):
        bc.BckFunction(("a", "a"), alg4_from_code, (0, 1))
    with pytest.raises(bc.InputError):
        bc.BckFunction(("a", "b"), alg4_from_code, (0,))
    with pytest.raises(bc.InputError):
        bc.BckFunction(("a",), alg4_from_code, (4,))
    with pytest.raises(bc.InputError) as exc:
        bc.BckFunction(5, alg4_from_code, (0,))
    assert str(exc.value) == "function domain 5 is not a sequence"


@pytest.mark.parametrize("value, message", [
    (0.9, "0.9 is not an integer"),
    ("1", "'1' is not an integer"),
    (None, "None is not an integer"),
])
def test_function_rejects_non_integer_values(value, message, alg4_from_code):
    with pytest.raises(bc.InputError) as exc:
        bc.BckFunction(("a", "b"), alg4_from_code, (1, value))
    assert str(exc.value) == message


def test_function_accepts_numpy_ints_and_bools(alg4_from_code):
    f = bc.BckFunction(("a", "b"), alg4_from_code, (np.int64(3), True))
    assert f.values == (3, 1)
    assert all(type(v) is int for v in f.values)


@pytest.mark.parametrize("r, message", [
    (1.5, "1.5 is not an integer"),
    ("1", "'1' is not an integer"),
    (None, "None is not an integer"),
])
def test_cut_subset_rejects_non_integer_elements(r, message, alg4_from_code):
    f = bc.BckFunction.identity(alg4_from_code)
    with pytest.raises(bc.InputError) as exc:
        bc.cut_subset(f, r)
    assert str(exc.value) == message


def test_cut_subset_accepts_numpy_ints_and_bools(alg4_from_code):
    f = bc.BckFunction.identity(alg4_from_code)
    assert bc.cut_subset(f, np.int64(1)) == bc.cut_subset(f, True) == ("1", "2")


def test_generated_codes_have_no_duplicates():
    rng = random.Random(20240812)
    algebras = list(bc.enumerate_bck_algebras(4))
    for _ in range(150):
        alg = rng.choice(algebras)
        m = rng.randint(1, 6)
        labels = tuple(f"a{i}" for i in range(m))
        values = tuple(rng.randrange(alg.order) for _ in range(m))
        code = bc.generate_code(bc.BckFunction(labels, alg, values))
        assert len(set(code.words)) == len(code.words)
        assert code.length == m
        assert len(code) == bc.equivalence_classes(
            bc.BckFunction(labels, alg, values)
        ).count


def test_codeword_bits_monotone_in_the_induced_order():
    # if x <= y then the cut subset of y is contained in the cut of x
    for n in (2, 3, 4):
        for alg in bc.enumerate_bck_algebras(n):
            code_words = {}
            f = bc.BckFunction.identity(alg)
            for r in range(alg.order):
                code_words[r] = set(bc.cut_subset(f, r))
            t = alg.table
            for x in range(n):
                for y in range(n):
                    if t[x][y] == 0:
                        assert code_words[y] <= code_words[x]


def test_code_similar_is_an_equivalence_on_the_order_3_census():
    algs = list(bc.enumerate_bck_algebras(3))
    for a in algs:
        assert bc.code_similar(a, a)
    for a in algs:
        for b in algs:
            assert bc.code_similar(a, b) == bc.code_similar(b, a)
    for a in algs:
        for b in algs:
            for c in algs:
                if bc.code_similar(a, b) and bc.code_similar(b, c):
                    assert bc.code_similar(a, c)


def test_code_similar_pair(alg4_commutative, alg4_from_code):
    assert bc.code_similar(alg4_commutative, alg4_from_code)
    assert not bc.code_similar(alg4_commutative, bc.CayleyAlgebra([[0, 0], [1, 0]]))


def _code_is_the_order(alg):
    # word r has bit j set iff r*j = 0, i.e. r <= j: the words are the order's rows
    code = [w.value for w in bc.canonical_code(alg).words]
    return code == sorted(bc.induced_order(alg).rows, reverse=True)


def test_canonical_code_is_the_induced_order_of_every_small_table():
    tables = [alg for n in range(1, 6) for alg in bc.enumerate_bck_algebras(n)]
    assert len(tables) == 1 + 1 + 5 + 67 + 1735
    assert all(_code_is_the_order(alg) for alg in tables)


def test_canonical_code_is_the_order_of_every_small_poset_algebra():
    posets = [p for n in range(1, 6) for p in bc.iter_posets_with_minimum(n)]
    assert len(posets) == 1 + 2 * 1 + 3 * 3 + 4 * 19 + 5 * 219
    for p in posets:
        alg = bc.algebra_from_poset(p)
        assert _code_is_the_order(alg), p
        if p.minimum == 0:
            assert bc.induced_order(alg) == p
