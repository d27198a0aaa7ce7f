import functools
import random
import re
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bckcodes as bc
from bckcodes.codes import Comparison

words = st.lists(st.sampled_from((0, 1)), min_size=1, max_size=8).map(tuple)


def same_length_words(k: int):
    return st.lists(st.sampled_from((0, 1)), min_size=k, max_size=k).map(tuple)


# (build from one value, read the stored value back) for each integer constructor
_INT_CONSTRUCTORS = [
    (lambda v: bc.Poset((v,)), lambda p: p.rows[0]),
    (lambda v: bc.BlockCode.of((v,), 1), lambda c: c.values[0]),
    (lambda v: bc.Codeword.of(v, 1), lambda w: w.value),
]


@pytest.mark.parametrize("build, stored", _INT_CONSTRUCTORS, ids=["Poset", "BlockCode.of", "Codeword.of"])
@pytest.mark.parametrize("value, accepted", [
    (1.0, False),
    ("1", False),
    (np.float64(1.0), False),
    (np.bool_(True), False),
    (np.int64(1), True),
    (np.uint8(1), True),
    (True, True),
    (1, True),
], ids=["float", "str", "numpy-float", "numpy-bool", "numpy-int64", "numpy-uint8", "bool", "int"])
def test_integer_constructors_take_only_integers(build, stored, value, accepted):
    if not accepted:
        with pytest.raises(bc.InputError, match=re.escape(f"{value!r} is not an integer")):
            build(value)
        return
    held = stored(build(value))
    assert type(held) is int and held == 1


def test_codeword_basics():
    w = bc.Codeword.from_string("0110")
    assert str(w) == "0110"
    assert w.support == frozenset({1, 2})
    assert len(w) == 4
    with pytest.raises(bc.InputError):
        bc.Codeword(())
    with pytest.raises(bc.InputError):
        bc.Codeword((0, 2))


def test_word_leq_all_ones_is_minimum():
    ones = bc.Codeword((1, 1, 1, 1))
    for bits in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]:
        assert bc.word_leq(ones, bc.Codeword(bits))
    with pytest.raises(bc.InputError):
        bc.word_leq(ones, bc.Codeword((1, 0)))


@given(same_length_words(5), same_length_words(5), same_length_words(5))
def test_word_leq_is_a_partial_order(a, b, c):
    wa, wb, wc = bc.Codeword(a), bc.Codeword(b), bc.Codeword(c)
    assert bc.word_leq(wa, wa)
    if bc.word_leq(wa, wb) and bc.word_leq(wb, wa):
        assert wa == wb
    if bc.word_leq(wa, wb) and bc.word_leq(wb, wc):
        assert bc.word_leq(wa, wc)


@given(same_length_words(5), same_length_words(5))
def test_word_leq_matches_support_containment(a, b):
    wa, wb = bc.Codeword(a), bc.Codeword(b)
    assert bc.word_leq(wa, wb) == (wb.support <= wa.support)


def test_block_code_validation():
    with pytest.raises(bc.InputError):
        bc.BlockCode(())
    with pytest.raises(bc.InputError):
        bc.BlockCode.from_strings(["01", "010"])
    with pytest.raises(bc.InputError):
        bc.BlockCode.from_strings(["01", "01"])


@given(st.lists(same_length_words(4), min_size=1, max_size=8, unique=True))
def test_lex_sort_desc_properties(bit_rows):
    code = bc.BlockCode(tuple(bc.Codeword(b) for b in bit_rows))
    sorted_code = bc.lex_sort_desc(code)
    assert sorted(sorted_code.words, key=lambda w: w.bits, reverse=True) == list(
        sorted_code.words
    )
    assert set(sorted_code.words) == set(code.words)
    assert bc.lex_sort_desc(sorted_code) == sorted_code
    shuffled = list(code.words)
    random.Random(0).shuffle(shuffled)
    assert bc.lex_sort_desc(bc.BlockCode(tuple(shuffled))) == sorted_code


def test_triangular_membership_reasons():
    ok = bc.is_triangular_code(bc.BlockCode.from_strings(["1111", "0110", "0010", "0001"]))
    assert ok
    assert ok.reason is None

    not_square = bc.is_triangular_code(bc.BlockCode.from_strings(["11110", "10010"]))
    assert not not_square
    assert "not square" in not_square.reason

    no_ones = bc.is_triangular_code(
        bc.BlockCode.from_strings(["1110", "0111", "0011", "0001"])
    )
    assert not no_ones
    assert "all-ones" in no_ones.reason

    not_ut = bc.is_triangular_code(
        bc.BlockCode.from_strings(["1111", "1011", "0011", "0001"])
    )
    assert not not_ut
    assert "left of the diagonal" in not_ut.reason

    no_diag = bc.is_triangular_code(
        bc.BlockCode.from_strings(["1111", "0111", "0001", "0000"])
    )
    assert not no_diag
    assert "no 1 on the diagonal" in no_diag.reason


def test_enumeration_counts_match_formula():
    for n in range(1, 7):
        members = list(bc.enumerate_triangular_codes(n))
        assert len(members) == 2 ** ((n - 1) * (n - 2) // 2)
        assert len({tuple(c.strings()) for c in members}) == len(members)
        for c in members:
            assert bc.is_triangular_code(c)
        # deterministic
        assert members == list(bc.enumerate_triangular_codes(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_family_members_come_lex_descending(n):
    assert all(bc.lex_sort_desc(c) == c for c in bc.enumerate_triangular_codes(n))


def test_enumeration_bounds():
    with pytest.raises(bc.InputError):
        list(bc.enumerate_triangular_codes(0))
    with pytest.raises(bc.InputError):
        list(bc.enumerate_triangular_codes(8))
    # the bound is only a guard and can be raised
    first = next(bc.enumerate_triangular_codes(8, max_order=8))
    assert bc.is_triangular_code(first)


def test_staircase_shape_and_membership():
    for n in range(1, 7):
        st_code = bc.staircase_code(n)
        assert bc.is_triangular_code(st_code)
        for i, w in enumerate(st_code.words):
            assert w.bits == tuple(0 if j < i else 1 for j in range(n))


def test_lex_comparison_is_a_total_order_on_order_4():
    members = list(bc.enumerate_triangular_codes(4))
    for a, b in combinations(members, 2):
        ab = bc.compare_codes_lex(a, b)
        ba = bc.compare_codes_lex(b, a)
        assert ab in (Comparison.LESS, Comparison.GREATER)
        assert (ab == Comparison.LESS) == (ba == Comparison.GREATER)
    for a in members:
        assert bc.compare_codes_lex(a, a) == Comparison.EQUAL
    # transitivity via sorting: ranking by matrix equals comparator order
    ranked = sorted(members, key=lambda c: tuple(w.bits for w in c.words))
    for a, b in zip(ranked, ranked[1:]):
        assert bc.compare_codes_lex(a, b) == Comparison.LESS


def test_staircase_is_lex_maximum():
    for n in range(1, 6):
        top = bc.staircase_code(n)
        for v in bc.enumerate_triangular_codes(n):
            assert bc.compare_codes_lex(top, v) in (Comparison.GREATER, Comparison.EQUAL)


def test_word_comparison_is_a_partial_order_on_order_4():
    members = list(bc.enumerate_triangular_codes(4))
    rel = {}
    for a in members:
        for b in members:
            rel[(a, b)] = bc.compare_codes_word(a, b)
    for a in members:
        assert rel[(a, a)] == Comparison.EQUAL
    incomparable_seen = False
    for a in members:
        for b in members:
            r = rel[(a, b)]
            mirrored = rel[(b, a)]
            if r == Comparison.LESS:
                assert mirrored == Comparison.GREATER
            elif r == Comparison.INCOMPARABLE:
                incomparable_seen = True
                assert mirrored == Comparison.INCOMPARABLE
    assert incomparable_seen
    less = {
        (a, b)
        for a in members
        for b in members
        if rel[(a, b)] in (Comparison.LESS, Comparison.EQUAL)
    }
    for a, b in less:
        for c in members:
            if (b, c) in less:
                assert (a, c) in less


def test_comparisons_require_same_order_members():
    with pytest.raises(bc.InputError):
        bc.compare_codes_lex(bc.staircase_code(3), bc.staircase_code(4))
    not_member = bc.BlockCode.from_strings(["110", "011", "001"])
    with pytest.raises(bc.InputError):
        bc.compare_codes_word(not_member, bc.staircase_code(3))


# ------------------------------------------------------ integer representation


@given(st.integers(1, 16).flatmap(same_length_words))
def test_codeword_constructors_agree(bits):
    n = len(bits)
    value = int("".join(map(str, bits)), 2)
    by_bits = bc.Codeword(bits)
    by_value = bc.Codeword.of(value, n)
    by_string = bc.Codeword.from_string(str(by_bits))
    for w in (by_bits, by_value, by_string):
        assert w == by_bits
        assert hash(w) == hash(by_bits)
        assert w.bits == bits
        assert w.value == value
        assert w.length == len(w) == n
        assert str(w) == "".join(map(str, bits))
        assert w.support == frozenset(i for i, b in enumerate(bits) if b)


@given(st.integers(1, 16).flatmap(lambda n: st.lists(same_length_words(n), max_size=12)))
def test_value_order_is_bit_order_at_equal_length(rows):
    words = [bc.Codeword(b) for b in rows]
    assert sorted(words, key=lambda w: w.value) == sorted(words, key=lambda w: w.bits)


@pytest.mark.parametrize(
    "value,length",
    [(0, 0), (1, 0), (0, -1), (-1, 4), (16, 4), (2, 1), (1 << 16, 16)],
)
def test_codeword_of_rejects_values_that_do_not_fit(value, length):
    with pytest.raises(bc.InputError):
        bc.Codeword.of(value, length)


@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True),
        )
    )
)
def test_block_code_constructors_agree(case):
    n, values = case
    strings = tuple(format(v, f"0{n}b") for v in values)
    words = tuple(bc.Codeword.of(v, n) for v in values)
    by_words = bc.BlockCode(words)
    by_values = bc.BlockCode.of(values, n)
    by_strings = bc.BlockCode.from_strings(strings)
    for code in (by_words, by_values, by_strings):
        assert code == by_words
        assert hash(code) == hash(by_words)
        assert code.values == tuple(values)
        assert code.length == n
        assert code.words == words
        assert code.strings() == strings
        assert len(code) == len(values)
    assert bc.BlockCode.of(values, n + 1) != by_values


@pytest.mark.parametrize(
    "values,length,message",
    [
        ((), 3, "a block code needs at least one codeword"),
        ((1, -1), 3, "value -1 does not fit in 3 bits"),
        ((1, 8), 3, "value 8 does not fit in 3 bits"),
        ((0,), 0, "value 0 does not fit in 0 bits"),
        ((5, 3, 5), 3, "duplicate codeword"),
    ],
)
def test_block_code_of_rejects_bad_values(values, length, message):
    with pytest.raises(bc.InputError) as exc:
        bc.BlockCode.of(values, length)
    assert str(exc.value) == message


def _reference_is_triangular(code):
    """Membership read off the bit matrix of the lex-descending code."""
    n = code.length
    if len(code) != n:
        return False, f"not square: {len(code)} words of length {n}"
    if all(0 in w.bits for w in code.words):
        return False, "all-ones word missing"
    m = [w.bits for w in bc.lex_sort_desc(code).words]
    for i in range(n):
        for j in range(i):
            if m[i][j]:
                return False, f"sorted row {i} has a 1 left of the diagonal"
        if not m[i][i]:
            return False, f"sorted row {i} has no 1 on the diagonal"
    return True, None


@pytest.mark.parametrize("size,length", [(4, 4), (3, 3), (2, 3)])
def test_triangular_membership_matches_the_matrix_reference(size, length):
    words = [format(v, f"0{length}b") for v in range(1 << length)]
    for chosen in combinations(words, size):
        code = bc.BlockCode.from_strings(chosen)
        check = bc.is_triangular_code(code)
        assert (check.ok, check.reason) == _reference_is_triangular(code), chosen


# ------------------------------------------------ bulk checks against the loops


def _loop_block_code_of(values, length):
    """`BlockCode.of`'s checks as it made them one value at a time: the
    reference for its bulk pass.  Returns the stored values."""
    values = tuple(map(bc.codes.as_int, values))
    if not values:
        raise bc.InputError("a block code needs at least one codeword")
    for v in values:
        if length < 1 or not 0 <= v < 1 << length:
            raise bc.InputError(f"value {v} does not fit in {length} bits")
    if len(set(values)) != len(values):
        raise bc.InputError("duplicate codeword")
    return values


def _loop_codeword_of(value, length):
    """`Codeword.of`'s checks through `as_int`: the reference for its inlined index call."""
    value = bc.codes.as_int(value)
    if length < 1 or not 0 <= value < 1 << length:
        raise bc.InputError(f"value {value} does not fit in {length} bits")
    return value


def _outcome(build, *args):
    """``build(*args)``'s result, or the message of the `InputError` it raised."""
    try:
        return build(*args)
    except bc.InputError as exc:
        return ("InputError", str(exc))


_value_items = st.one_of(
    st.integers(-3, 40),
    st.integers(-3, 40).map(np.int64),
    st.integers(0, 40).map(np.uint8),
    st.booleans(),
    st.sampled_from([np.bool_(True), np.bool_(False), 1.0, np.float64(2.0), "1", None, (1,)]),
)


@settings(max_examples=400)
@given(st.lists(_value_items, max_size=8), st.integers(-1, 6))
def test_block_code_of_matches_the_per_value_loop(items, length):
    def stored(values, length):
        return bc.BlockCode.of(values, length).values

    # the constructor sees a one-shot generator, the loop a list
    got = _outcome(stored, (v for v in items), length)
    assert got == _outcome(_loop_block_code_of, list(items), length)
    if got[0] != "InputError":
        assert all(type(v) is int for v in got)


@given(_value_items, st.integers(-1, 6))
def test_codeword_of_matches_the_as_int_check(value, length):
    got = _outcome(lambda v, n: bc.Codeword.of(v, n).value, value, length)
    assert got == _outcome(_loop_codeword_of, value, length)
    assert type(got) in (int, tuple)


@pytest.mark.parametrize(
    "values,length,message",
    [
        ([np.int64(6), np.uint8(1), np.True_], 3, "np.True_ is not an integer"),
        ([True, np.int64(2)], 3, None),
        ([1, 2, 1.5, 3], 3, "1.5 is not an integer"),
        ([1, 2, "x", -1], 3, "'x' is not an integer"),
        ([-1, 2], 3, "value -1 does not fit in 3 bits"),
        ([9, 2], 3, "value 9 does not fit in 3 bits"),
        ([1, 2, 7, 8, -1], 3, "value 8 does not fit in 3 bits"),
        ([1, 2, 7, -1, 8], 3, "value -1 does not fit in 3 bits"),
        ([1], 0, "value 1 does not fit in 0 bits"),
        ([1], -2, "value 1 does not fit in -2 bits"),
        ([3, 1, 3], 2, "duplicate codeword"),
        ([], 3, "a block code needs at least one codeword"),
        ([], 0, "a block code needs at least one codeword"),
    ],
)
def test_block_code_of_names_the_first_offender_as_the_loop_does(values, length, message):
    expected = _outcome(_loop_block_code_of, values, length)
    assert expected == (("InputError", message) if message else (1, 2))
    # a one-shot generator: the fallback pass must see the same values
    got = _outcome(lambda v, n: bc.BlockCode.of(v, n).values, (v for v in values), length)
    assert got == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda: bc.Codeword.from_string("01x"),
        lambda: bc.Codeword.from_string("١0"),
        lambda: bc.Codeword.from_string(" 01"),
        lambda: bc.Codeword.from_string("1_0"),
        lambda: bc.Codeword.from_string("0121"),
        lambda: bc.Codeword.from_string(b"01"),
        lambda: bc.Codeword(["x"]),
        lambda: bc.Codeword([None]),
        lambda: bc.Codeword([1.5, 0]),
        lambda: bc.Codeword([0, 2]),
        lambda: bc.Codeword(["01"]),
        lambda: bc.Codeword([[1]]),
        lambda: bc.BlockCode.from_strings(["10", "0١"]),
    ],
    ids=["letter", "arabic-indic-one", "space", "underscore", "digit-two", "bytes", "str-x", "None", "float-1.5",
         "two", "two-chars", "unhashable", "from-strings"],
)
def test_bad_codeword_bits_raise_input_error(build):
    with pytest.raises(bc.InputError) as exc:
        build()
    assert str(exc.value) == "codeword bits must be 0 or 1"


def test_codeword_bits_take_numbers_bools_and_bit_characters():
    bits = [1, 0, True, False, "1", "0", 1.0, np.int64(0), np.uint8(1), np.True_]
    w = bc.Codeword(bits)
    assert w.bits == (1, 0, 1, 0, 1, 0, 1, 0, 1, 1)
    assert w == bc.Codeword.from_string("1010101011")
    assert bc.BlockCode(["110", "011"]).strings() == ("110", "011")
    for empty in (lambda: bc.Codeword(()), lambda: bc.Codeword.from_string("")):
        with pytest.raises(bc.InputError, match="^empty codeword$"):
            empty()


def _comprehension_bits(w: bc.Codeword) -> tuple[int, ...]:
    """A word's bits one shift at a time: the reference for `Codeword.bits`."""
    return tuple([w.value >> s & 1 for s in range(w.length - 1, -1, -1)])


def test_codeword_bits_match_the_comprehension_on_every_short_word():
    for n in range(1, 13):
        for v in range(1 << n):
            w = bc.Codeword.of(v, n)
            assert w.bits == _comprehension_bits(w)
            assert bc.Codeword(w.bits) == w


@pytest.mark.parametrize("n", [64, 1024])
def test_codeword_bits_match_the_comprehension_on_long_words(n):
    rng = random.Random(n)
    values = [0, 1, (1 << n) - 1, 1 << (n - 1)]
    values += [rng.getrandbits(n) for _ in range(50)]
    values += [rng.getrandbits(rng.randrange(1, n)) for _ in range(50)]  # leading zeros
    for v in values:
        w = bc.Codeword.of(v, n)
        assert len(w.bits) == n
        assert w.bits == _comprehension_bits(w)
        assert bc.Codeword(w.bits) == w


def _one_by_one():
    return bc.CayleyAlgebra(((0,),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: bc.CayleyAlgebra([1, 2]), "1 is not a sequence of integers"),
        (lambda: bc.CayleyAlgebra(((0,),), names=5), "names 5 are not a sequence"),
        (lambda: bc.BckFunction(("a",), _one_by_one(), 5), "5 is not a sequence of integers"),
        (lambda: bc.BlockCode.of([1], "x"), "length 'x' is not an integer"),
        (lambda: bc.Codeword.of(1, None), "length None is not an integer"),
        (lambda: bc.Poset(5), "5 is not a sequence of poset rows"),
        (lambda: bc.BlockCode(5), "a block code takes codewords or sequences of bits"),
        (lambda: bc.enumerate_triangular_codes("3"), "'3' is not an integer"),
        (lambda: bc.staircase_code(2.0), "2.0 is not an integer"),
    ],
    ids=["table-of-ints", "names-int", "function-values-int", "code-length-str", "word-length-None",
         "poset-int", "code-int", "enumerate-str", "staircase-float"],
)
def test_constructors_raise_input_error_on_the_wrong_type(build, message):
    with pytest.raises(bc.InputError) as exc:
        build()
    assert str(exc.value) == message


# ------------------------------------------ membership and enumeration order


def _loop_triangular_defect(values, n):
    """Membership of lex-descending values row by row, without the
    bit-length test: the reference for `_triangular_defect`."""
    if len(values) != n:
        return f"not square: {len(values)} words of length {n}"
    if values[0] != (1 << n) - 1:
        return "all-ones word missing"
    for i, v in enumerate(values):
        defect = bc.codes._row_defect(v, i, n)
        if defect:
            return f"sorted row {i} {defect}"
    return None


_value_lists = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.one_of(st.integers(0, (1 << n) - 1), st.sampled_from([(1 << n) - 1, 1 << (n - 1)])),
            min_size=1, max_size=n + 1, unique=True,
        ),
    )
)


@settings(max_examples=500)
@given(_value_lists)
def test_bit_length_membership_agrees_with_the_row_loop(case):
    n, values = case
    ordered = sorted(values, reverse=True)
    rows_ok = len(ordered) == n and not any(
        bc.codes._row_defect(v, i, n) for i, v in enumerate(ordered)
    )
    assert bc.codes._unit_upper_triangular(ordered, n) == rows_ok
    check = bc.is_triangular_code(bc.BlockCode.of(values, n))
    assert (check.ok, check.reason) == (
        _loop_triangular_defect(ordered, n) is None,
        _loop_triangular_defect(ordered, n),
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_bit_length_membership_agrees_with_the_row_loop_on_near_members(n):
    # every one-bit flip of every member at n <= 4, of the staircase above
    members = list(bc.enumerate_triangular_codes(n)) if n <= 4 else [bc.staircase_code(n)]
    for code in members:
        for k in range(n):
            for bit in range(n):
                values = list(code.values)
                values[k] ^= 1 << bit
                if len(set(values)) < n:
                    continue
                ordered = sorted(values, reverse=True)
                check = bc.is_triangular_code(bc.BlockCode.of(values, n))
                assert check.reason == _loop_triangular_defect(ordered, n)


def _counted_triangular_codes(n):
    """The family in its enumeration order, by counting one pattern whose
    bits are handed out row-major, most significant first: the reference."""
    shapes = [(1 << (n - 1 - i), (n - 2 - i) * (n - 1 - i) // 2) for i in range(1, n)]
    top = (1 << n) - 1
    for pattern in range(1 << (n - 1) * (n - 2) // 2):
        rows = (diag | (pattern >> shift) & (diag - 1) for diag, shift in shapes)
        yield (top, *rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_order_matches_pattern_counting(n):
    got = [c.values for c in bc.enumerate_triangular_codes(n)]
    assert got == list(_counted_triangular_codes(n))
    assert all(type(v) is int for v in got[-1])


def test_a_member_failing_the_bit_length_test_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(bc.codes, "_unit_upper_triangular", lambda values, n: False)
    with pytest.raises(bc.InternalInvariantError, match="no defect"):
        bc.is_triangular_code(bc.staircase_code(4))


@functools.cache
def seeded_members(n: int, count: int = 2000, seed: int = 25) -> tuple[bc.BlockCode, ...]:
    """``count`` members of the order-n family at seeded positions, in enumeration order."""
    picks = sorted(random.Random(seed).sample(range(2 ** ((n - 1) * (n - 2) // 2)), count))
    members = bc.enumerate_triangular_codes(n, max_order=n)
    return tuple(next(islice(members, p - q - 1, None)) for p, q in zip(picks, [-1, *picks]))


def _enumerated_sample():
    """Every family member at orders 1-6 and 2,000 seeded members at orders 7 and 8."""
    for n in range(1, 7):
        yield from bc.enumerate_triangular_codes(n)
    yield from seeded_members(7)
    yield from seeded_members(8)


def test_family_members_equal_the_checked_code_of_their_values():
    for code in _enumerated_sample():
        n = code.length
        assert code == bc.BlockCode.of(code.values, n)
        assert type(code) is bc.BlockCode and type(code.values) is tuple
        assert vars(code) == {"values": code.values, "length": n}
        assert len(code) == n
        assert all(a > b for a, b in zip(code.values, code.values[1:]))


def test_sweeping_the_family_calls_no_checked_constructor(monkeypatch):
    calls = []

    def counting(of):
        def count(cls, *args):
            calls.append(cls)
            return of(*args)

        return classmethod(count)

    monkeypatch.setattr(bc.BlockCode, "of", counting(bc.BlockCode.of))
    monkeypatch.setattr(bc.Codeword, "of", counting(bc.Codeword.of))
    assert sum(len(c.words) for c in bc.enumerate_triangular_codes(7)) == 7 * 2**15
    assert calls == []
    # the other builders still call the checked constructor
    bc.staircase_code(7)
    assert calls == [bc.BlockCode]


def _codes_from_every_constructor():
    rng = random.Random(7)
    for length in range(1, 10):
        values = rng.sample(range(1 << length), min(1 << length, rng.randint(1, 12)))
        strings = [format(v, f"0{length}b") for v in values]
        code = bc.BlockCode.of(values, length)
        yield code
        yield bc.BlockCode([bc.Codeword.from_string(s) for s in strings])
        yield bc.BlockCode([tuple(map(int, s)) for s in strings])
        yield bc.BlockCode.from_strings(strings)
        yield bc.lex_sort_desc(code)
        embedded = bc.embed_matrix(bc.lex_sort_desc(code))
        yield embedded
        yield bc.ensure_all_ones(embedded)
        yield bc.lift_code(code).lifted_code
    for code in (bc.staircase_code(4), bc.BlockCode.of((0b1111, 0b0110, 0b0011, 0b0001), 4)):
        yield bc.verify_roundtrip(code).regenerated
    yield next(bc.enumerate_triangular_codes(5))


def test_words_are_the_checked_codewords_of_the_values():
    for code in _codes_from_every_constructor():
        n = code.length
        assert code.words == tuple(bc.Codeword.of(v, n) for v in code.values)
        for w, v in zip(code.words, code.values):
            assert type(w) is bc.Codeword
            assert vars(w) == {"value": v, "length": n}
