import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import bckcodes as bc
from bckcodes import algebra as algebra_module, construct as construct_module
from bckcodes.codes import pack_bits
import reference_data as rd
from test_construct import descend_from_the_diagonal


def _is_unit_upper_triangular(code):
    """Square, no 1 left of the diagonal, ones on it: read off the bits, row by row."""
    rows = [w.bits for w in code.words]
    return len(rows) == len(rows[0]) and all(
        not any(row[:i]) and row[i] for i, row in enumerate(rows)
    )


def test_embed_reference_matrix():
    code = bc.lex_sort_desc(bc.BlockCode.from_strings(rd.LIFT_INPUT))
    assert code.strings() == rd.LIFT_INPUT_SORTED
    embedded = bc.embed_matrix(code)
    assert embedded.strings() == rd.LIFT_EMBEDDED


def test_embed_requires_sorted_rows():
    unsorted = bc.BlockCode.from_strings(["01", "10"])
    with pytest.raises(bc.InputError, match="descending lexicographic order"):
        bc.embed_matrix(unsorted)


def test_embed_structure_on_random_matrices():
    rng = random.Random(5)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = sorted(
            {tuple(rng.randrange(2) for _ in range(cols)) for _ in range(rows)},
            reverse=True,
        )
        m = bc.BlockCode(tuple(bc.Codeword(row) for row in entries))
        b = bc.embed_matrix(m)
        n = len(m)
        assert len(b) == b.length == n + cols
        assert _is_unit_upper_triangular(b)
        # original block sits in the upper right
        for i in range(n):
            assert b.words[i].bits[n:] == entries[i]
        # rows strictly descending, hence distinct
        for i in range(len(b) - 1):
            assert b.words[i].bits > b.words[i + 1].bits


def test_completion_reference_matrix():
    embedded = bc.BlockCode.from_strings(rd.LIFT_EMBEDDED)
    completed = bc.ensure_all_ones(embedded)
    assert completed.strings() == rd.LIFT_COMPLETED


def test_completion_is_a_no_op_when_all_ones_row_exists():
    m = bc.staircase_code(4)
    assert bc.ensure_all_ones(m) is m


def test_completion_validates_shape():
    message = "expected a square unit upper-triangular matrix"
    with pytest.raises(bc.InputError, match=message):
        bc.ensure_all_ones(bc.BlockCode.from_strings(["01", "10"]))
    with pytest.raises(bc.InputError, match=message):
        bc.ensure_all_ones(bc.BlockCode.from_strings(["101"]))


def test_lift_reference_code():
    result = bc.lift_code(bc.BlockCode.from_strings(rd.LIFT_INPUT))
    assert result.source_code.strings() == rd.LIFT_INPUT_SORTED
    assert result.embedded.strings() == rd.LIFT_EMBEDDED
    assert result.ambient.strings() == rd.LIFT_COMPLETED
    assert result.column_map == rd.LIFT_COLUMN_MAP
    assert result.domain == ("w6", "w7", "w8", "w9", "w10")
    assert result.lifted_code.strings() == rd.LIFT_OUTPUT
    assert set(result.source_code.words) <= set(result.lifted_code.words)
    assert bc.check_axioms(result.algebra).is_bck


def test_lift_code_already_in_the_family():
    result = bc.lift_code(bc.staircase_code(3))
    assert len(result.ambient) == 7
    assert set(bc.staircase_code(3).words) <= set(result.lifted_code.words)


@pytest.mark.parametrize(
    "words,order",
    [(["1" * 1024], 1025), (["1" * 1022 + "0"], 1025), (["1" * 1022, "0" * 1022], 1025)],
)
def test_lift_rejects_ambient_orders_above_the_bound(words, order):
    # a single all-ones word needs no completion row; every other code does
    with pytest.raises(bc.InputError, match=f"ambient order {order} exceeds the bound 1024"):
        bc.lift_code(bc.BlockCode.from_strings(words))


def test_lift_random_codes_contain_their_source():
    rng = random.Random(20240813)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        pool = list(range(2**m))
        rng.shuffle(pool)
        chosen = pool[: min(n, len(pool))]
        code = bc.BlockCode(
            tuple(
                bc.Codeword(tuple((v >> (m - 1 - i)) & 1 for i in range(m)))
                for v in chosen
            )
        )
        result = bc.lift_code(code)
        assert _is_unit_upper_triangular(result.embedded)
        assert _is_unit_upper_triangular(result.ambient)
        assert all(v == 1 for v in result.ambient.words[0].bits)
        assert bc.is_triangular_code(result.ambient)
        assert set(result.source_code.words) <= set(result.lifted_code.words)
        assert result.lifted_code.length == code.length


def _seeded_codes(count=2000, seed=7):
    """Codes as the codes-7 benchmark draws them: 2-8 distinct words of 2-8 bits."""
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randint(2, 8)
        words = rng.randint(2, min(8, 2**length))
        yield bc.BlockCode.of(rng.sample(range(2**length), words), length)


def _lift_fields(v):
    """Every field of the lift of ``v``, read off `construct_from_code` of its ambient code."""
    embedded = bc.embed_matrix(bc.lex_sort_desc(v))
    result = bc.construct_from_code(bc.ensure_all_ones(embedded))
    order, m = len(result.code), v.length
    column_map = tuple(range(order - m, order))
    domain = tuple(result.algebra.names[e] for e in column_map)
    words = sorted({r & (1 << m) - 1 for r in result.poset.rows}, reverse=True)
    return {
        "algebra": result.algebra,
        "domain": domain,
        "function": bc.BckFunction(domain, result.algebra, column_map),
        "column_map": column_map,
        "lifted_code": bc.BlockCode.of(words, m),
        "ambient": result.code,
        "embedded": embedded,
    }


@pytest.mark.parametrize("codes", ["readme", "seeded"])
def test_lift_fields_match_the_construction_of_the_ambient_code(codes):
    if codes == "readme":
        codes = [bc.BlockCode.from_strings(["110", "011", "101"])]
    else:
        codes = _seeded_codes()
    for v in codes:
        result = bc.lift_code(v)
        for field, expected in _lift_fields(v).items():
            # the reprs compare names too, which equality leaves out
            assert repr(getattr(result, field)) == repr(expected), (v, field)


def _assert_the_ambient_code_is_its_own_word_order(v):
    r = bc.lift_code(v)
    m = v.length
    assert bc.verify_roundtrip(r.ambient).exact, v
    values = r.ambient.values
    assert all(a > b for a, b in zip(values, values[1:])), v
    assert r.lifted_code.values == tuple(sorted({w & (1 << m) - 1 for w in values}, reverse=True))


@given(
    st.integers(1, 9).flatmap(
        lambda m: st.sets(st.integers(0, (1 << m) - 1), min_size=1, max_size=12).map(
            lambda words: bc.BlockCode.of(words, m)
        )
    )
)
def test_the_ambient_code_is_its_own_word_order(v):
    _assert_the_ambient_code_is_its_own_word_order(v)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_ambient_code_is_its_own_word_order_on_every_short_code(m):
    words = range(1 << m)
    codes = [c for size in range(1, len(words) + 1) for c in combinations(words, size)]
    assert len(codes) == 2 ** (1 << m) - 1  # 3, 15 and 255 codes
    for c in codes:
        _assert_the_ambient_code_is_its_own_word_order(bc.BlockCode.of(c, m))


def test_lifted_code_builds_no_poset_and_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a word order, a poset or a table")

    for module in (construct_module, algebra_module):
        monkeypatch.setattr(module, "Poset", refuse)
    monkeypatch.setattr(construct_module, "algebra_from_poset", refuse)
    monkeypatch.setattr(construct_module, "_word_order", refuse)
    result = bc.lift_code(bc.BlockCode.from_strings(rd.LIFT_INPUT))
    assert result.lifted_code.strings() == rd.LIFT_OUTPUT
    assert result.column_map == rd.LIFT_COLUMN_MAP


def test_the_algebra_is_built_once_on_first_read(monkeypatch):
    calls = []
    build = construct_module.algebra_from_poset
    monkeypatch.setattr(
        construct_module, "algebra_from_poset", lambda *args: calls.append(args) or build(*args)
    )
    result = bc.lift_code(bc.BlockCode.from_strings(rd.LIFT_INPUT))
    assert calls == []
    algebra = result.algebra
    assert len(calls) == 1
    assert result.domain == ("w6", "w7", "w8", "w9", "w10")
    assert result.function.algebra is algebra and result.algebra is algebra
    assert len(calls) == 1


def test_family_algebra_small():
    alg, code = bc.family_algebra(3)
    assert alg.table == ((0, 0), (1, 0))
    assert code.strings() == rd.CHAIN2_CODE

    alg4, code4 = bc.family_algebra(4)
    assert alg4.order == 8
    assert bc.check_axioms(alg4).is_bck
    assert len(code4) == 8
    assert code4.length == 8


def test_family_zero_is_the_staircase_and_order_matches_comparator():
    members = [bc.lex_sort_desc(c) for c in bc.enumerate_triangular_codes(5)]
    members.sort(key=lambda c: tuple(w.bits for w in c.words), reverse=True)
    assert members[0] == bc.staircase_code(5)
    alg, _ = bc.family_algebra(5)
    for x in range(64):
        for y in range(64):
            rel = bc.compare_codes_word(members[x], members[y])
            expected_zero = rel in (bc.Comparison.LESS, bc.Comparison.EQUAL)
            assert (alg.table[x][y] == 0) == expected_zero


def _pairwise_family_rows(n):
    """The family order pair by pair: at the first row where two sorted
    matrices differ, i <= j iff j's word has no 1 outside i's."""
    packed = sorted(
        (tuple(w.value for w in bc.lex_sort_desc(c).words) for c in bc.enumerate_triangular_codes(n)),
        reverse=True,
    )
    size = len(packed)

    def le(i, j):
        for a, b in zip(packed[i], packed[j]):
            if a != b:
                return b & ~a == 0
        return True

    return tuple(pack_bits(le(i, j) for j in range(size)) for i in range(size))


@pytest.mark.parametrize("n", range(1, 7))
def test_family_order_rows_match_the_pairwise_definition(n):
    rows = _pairwise_family_rows(n)
    alg, code = bc.family_algebra(n)
    assert bc.induced_order(alg).rows == rows
    assert [w.value for w in code.words] == sorted(rows, reverse=True)
    assert descend_from_the_diagonal(rows)


def test_family_bounds():
    with pytest.raises(bc.InputError):
        bc.family_algebra(0)
    with pytest.raises(bc.InputError):
        bc.family_algebra(7)
