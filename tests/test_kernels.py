"""Tests of the kernels: the axiom scan's two paths, the property scans
against plain loops, and the search stream."""

import random
from itertools import compress
from operator import not_

import numpy as np
import pytest

import bckcodes as bc
from bckcodes._kernels import pure
from test_algebra import brute_axiom_holds
from test_construct import chain_poset


def _random_table(rng, n):
    """An arbitrary (usually invalid) table over 0..n-1, as row lists."""
    return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]


def _random_near_valid_table(rng, n):
    """A table with the cheap shape constraints baked in.

    Random tables fail axiom 5 or 3 almost immediately, which would let
    witness comparisons pass without ever reaching the later axioms, so
    pin row 0, column 0 and the diagonal first.
    """
    t = _random_table(rng, n)
    for x in range(n):
        t[0][x] = 0
        t[x][0] = x
        t[x][x] = 0
    return t


def test_axiom1_numpy_walk_matches_plain_loops():
    rng = random.Random(4242)
    for n in [1, 2, 4, 7, 32, 40]:
        for _ in range(25):
            t = _random_table(rng, n)
            assert pure._axiom1_witness_numpy(pure._array(t)) == pure._axiom1_witness_loops(t)


def _relabeled(table, rng):
    """The table under a seeded relabeling that fixes 0, as row lists."""
    n = len(table)
    tail = list(range(1, n))
    rng.shuffle(tail)
    h = [0] + tail
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[h[x]][h[y]] = h[table[x][y]]
    return rows


def _near_valid_cases():
    """BCK tables of order 32 and up, and copies with a few cells edited.

    Relabeled indicator algebras are commutative and implicative, so the
    40-chain, which is neither, is there for the property scan.  Random
    edits are seen by axiom 1 at a small x; setting top*1 = top instead
    is seen only by the instances with x = top, wherever the relabeling
    puts it.
    """
    rng = random.Random(7)
    chain = bc.algebra_from_poset(chain_poset(40)).table
    cases = [chain]
    for k in (5, 6):
        n = 1 << k
        table = bc.pointwise_function_algebra(k).table
        base = _relabeled(table, rng)
        for edits in range(4):
            t = [list(row) for row in base]
            for _ in range(edits):
                x, y = divmod(rng.randrange(n * n), n)
                t[x][y] = rng.randrange(n)
            cases.append(t)
        top = n - 1
        edited = [list(row) for row in table]
        edited[top][1] = top
        cases.append(_relabeled(edited, rng))
    # Each product keeps two of axiom 2, exchange and right monotonicity,
    # and fails axiom 1, so the proof needs all three.
    cases.append(_times_indicator([[0, 0], [1, 1]], 4))  # not axiom 2
    cases.append(_times_indicator([[0, 0, 0], [1, 0, 1], [2, 1, 0]], 4))  # not exchange
    cases.append(_exchange_without_monotonicity())
    cases.append(_times_indicator(_NOT_TRANSITIVE, 3))
    return cases


# Axioms 2-5 and exchange hold, but a*b = 0 is not transitive: 3*2 = 0
# and 2*1 = 0, yet 3*1 = 3.  So right monotonicity cannot check covers
# only; here it fails, at 2*1 = 0 with c = 2.
_NOT_TRANSITIVE = [[0, 0, 0, 0], [1, 0, 1, 1], [2, 0, 0, 2], [3, 3, 0, 0]]


def _times_indicator(q, k):
    """The direct product of table q and the order-2**k indicator algebra.

    Element (i, j) is coded 2**k * i + j.  The indicator algebra is BCK,
    so each axiom, exchange and right monotonicity holds in the product
    exactly when it holds in q.
    """
    p = bc.pointwise_function_algebra(k).table
    m = len(p)
    return [
        [m * qv + pv for qv in q_row for pv in p_row]
        for q_row in q
        for p_row in p
    ]


def _exchange_without_monotonicity():
    """An order-32 table with axiom 2 and exchange but not monotonicity.

    Its order-4 factor has 3*1 = 0 but (3*2)*(1*2) = 1*0 = 1.  Its first
    axiom-1 witness is (24, 16, 8).
    """
    return _times_indicator([[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 1, 0]], 3)


def _property_loops(t):
    """First (x, y) with x*(x*y) != y*(y*x), and first with x*(y*x) != x, by plain loops."""
    return (
        next(
            (
                (x, y)
                for x, row in enumerate(t)
                for y, v in enumerate(row)
                if row[v] != t[y][t[y][x]]
            ),
            None,
        ),
        next(
            ((x, y) for x, row in enumerate(t) for y in range(len(t)) if row[t[y][x]] != x),
            None,
        ),
    )


def _property_scans(t):
    return pure.commutative_witness(t), pure.implicative_witness(t)


def test_array_scans_match_plain_loops_on_near_valid_tables(monkeypatch):
    cases = _near_valid_cases()
    arrays = [(pure.axiom_witnesses(t), _property_scans(t)) for t in cases]
    monkeypatch.setattr(pure, "_NUMPY_MIN_ORDER", 10**9)
    loops = [(pure.axiom_witnesses(t), _property_loops(t)) for t in cases]
    assert arrays == loops
    for t, (axioms, _) in zip(cases, arrays):
        for axiom, w in enumerate(axioms, start=1):
            assert (w is None) == brute_axiom_holds(t, axiom)
    # the cases reach every branch: tables that pass, an axiom-1 witness
    # deep in the table, and both answers of each property scan
    assert any(all(w is None for w in axioms) for axioms, _ in arrays)
    assert any(
        axioms[0] is not None and axioms[0][0] >= len(t) // 2
        for t, (axioms, _) in zip(cases, arrays)
    )
    bck_props = [props for axioms, props in arrays if axioms == (None,) * 5]
    for i in (0, 1):
        assert {p[i] is None for p in bck_props} == {True, False}


def test_property_scans_match_plain_loops_on_small_tables():
    rng = random.Random(29)
    tables = [t for n in range(1, 6) for t in pure.bck_candidates(n)]
    for n in range(1, 9):
        for _ in range(200):
            tables.append(_random_table(rng, n))
            tables.append(_random_near_valid_table(rng, n))
    found = [_property_scans(t) for t in tables]
    assert found == [_property_loops(t) for t in tables]
    for i in (0, 1):
        assert {props[i] is None for props in found} == {True, False}


def _proof_step(t):
    """The step that decides axiom 1 on the array path."""
    exchange, monotone = _proof_helpers(t)
    if not brute_axiom_holds(t, 2):
        return "axiom 2 fails"
    if not exchange:
        return "exchange fails"
    if not monotone:
        return "monotonicity fails"
    return "proved"


def _transitive(t):
    n = len(t)
    up = [{y for y in range(n) if t[x][y] == 0} for x in range(n)]
    return all(up[y] <= up[x] for x in range(n) for y in up[x])


def test_near_valid_cases_reach_every_step_of_the_axiom1_proof(monkeypatch):
    # the test above matches these cases' witnesses against the loops
    cases = _near_valid_cases()
    steps = [_proof_step(t) for t in cases]
    assert set(steps) == {
        "axiom 2 fails", "exchange fails", "monotonicity fails", "proved"
    }
    for t, step in zip(cases, steps):
        assert step != "proved" or brute_axiom_holds(t, 1)

    # Right monotonicity checks the covers only when axioms 3 and 4 hold
    # and a*b = 0 is transitive, and every pair otherwise; both run.
    monotone, covers = pure._right_monotone, pure._covers
    calls = []
    monkeypatch.setattr(
        pure, "_right_monotone", lambda T, ordered: calls.append([ordered]) or monotone(T, ordered)
    )
    monkeypatch.setattr(pure, "_covers", lambda zero: calls[-1].append(covers(zero)) or calls[-1][-1])
    routes = set()
    for t in cases:
        calls.clear()
        pure.axiom_witnesses(t)
        if not calls:
            continue
        [[ordered, *found]] = calls
        assert ordered == (brute_axiom_holds(t, 3) and brute_axiom_holds(t, 4))
        assert len(found) == ordered
        if not ordered:
            route = "all pairs: axiom 3 or 4 fails"
        elif _transitive(t):
            route = "covers"
        else:
            route = "all pairs: not transitive"
        assert (found == [None]) == (route == "all pairs: not transitive")
        routes.add(route)
    assert routes == {"covers", "all pairs: axiom 3 or 4 fails", "all pairs: not transitive"}


def _hasse(table):
    """The covering pairs of the induced order, by brute force."""
    leq = [[v == 0 for v in row] for row in table]
    n = len(leq)
    return {
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and leq[a][b]
        and not any(leq[a][c] and leq[c][b] for c in range(n) if c not in (a, b))
    }


def _cover_set(table):
    a, b = pure._covers(pure._array(table) == 0)
    return set(zip(a.tolist(), b.tolist()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_covers_are_the_hasse_diagram_on_small_bck_tables(n):
    for t in pure.bck_candidates(n):
        assert _cover_set(t) == _hasse(t)


def test_covers_are_the_hasse_diagram_on_large_bck_tables():
    rng = random.Random(5)
    tables = [_relabeled(bc.pointwise_function_algebra(k).table, rng) for k in (5, 6)]
    tables.append(bc.algebra_from_poset(chain_poset(40)).table)
    for t in tables:
        assert _cover_set(t) == _hasse(t)


def test_the_proof_spares_the_axiom1_scan_on_bck_tables(monkeypatch):
    def refuse(T):
        raise AssertionError("the axiom-1 scan ran")

    rng = random.Random(5)
    tables = [_relabeled(bc.pointwise_function_algebra(k).table, rng) for k in (5, 6)]
    tables.append(bc.algebra_from_poset(chain_poset(40)).table)
    scan = pure._axiom1_witness_numpy
    monkeypatch.setattr(pure, "_axiom1_witness_numpy", refuse)
    for t in tables:
        assert pure.axiom_witnesses(t) == (None,) * 5
    calls = []
    monkeypatch.setattr(
        pure, "_axiom1_witness_numpy", lambda T: calls.append(len(T)) or scan(T)
    )
    assert pure.axiom_witnesses(_exchange_without_monotonicity())[0] == (24, 16, 8)
    assert calls == [32]


def _proof_identities(t):
    """Whether exchange and right monotonicity hold, over n x n x n arrays."""
    T = np.asarray(t)
    xyz = T[T]  # xyz[x, y, z] = (x*y)*z
    cut = T[T[:, None, :], T[None, :, :]]  # cut[a, b, c] = (a*c)*(b*c)
    return bool((xyz == xyz.transpose(0, 2, 1)).all()), bool((cut[T == 0] == 0).all())


def _proof_helpers(t):
    T = pure._array(t)
    ordered = brute_axiom_holds(t, 3) and brute_axiom_holds(t, 4)
    return pure._exchange_holds(T), pure._right_monotone(T, ordered)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_axiom1_proof_succeeds_on_every_small_bck_table(n):
    for t in pure.bck_candidates(n):
        assert _proof_helpers(t) == (True, True)


def test_proof_helpers_match_their_definitions_across_blocks():
    # An order-131 chain, as it is and with one cell edited; monotonicity
    # takes its 130 covers in blocks of B, the last one partial.  Setting
    # top*(B-1) = B+1 breaks exchange only at x = top, the last x the
    # exchange check reaches.  Random edits fall in the last rows.
    rng = random.Random(17)
    block = pure._BLOCK
    n = 2 * block + 3
    chain = bc.algebra_from_poset(chain_poset(n)).table
    edits = [None, (n - 1, block - 1, block + 1)]
    for _ in range(10):
        x, y = (rng.randrange(2 * block, n) for _ in "xy")
        edits.append((x, y, rng.randrange(n)))
    seen = set()
    for edit in edits:
        t = [list(row) for row in chain]
        if edit:
            x, y, v = edit
            t[x][y] = v
        identities = _proof_identities(t)
        assert _proof_helpers(t) == identities
        seen.add(identities)
    assert {e for e, _ in seen} == {m for _, m in seen} == {True, False}


# Row 1 is 1 0 3 3: y = 2 and y = 3 share the value 3, so one of them is
# no representative, and exchange fails only at x = 1 with {y, z} = {2, 3}:
# (1*2)*3 = 3*3 = 0 but (1*3)*2 = 3*2 = 3.
_EXCHANGE_OFF_REPRESENTATIVES = [[0, 0, 0, 0], [1, 0, 3, 3], [2, 0, 0, 0], [3, 0, 3, 0]]


def test_exchange_holds_matches_its_definition_with_repeated_row_values():
    # Rows drawn from one or two values each, so most x*y repeat and the
    # check reads few representatives per x.
    rng = random.Random(23)
    seen = set()
    for i in range(6000):
        n = 1 + i % 6
        pools = [rng.sample(range(n), min(n, rng.randint(1, 2))) for _ in range(n)]
        t = [[rng.choice(pools[x]) for _ in range(n)] for x in range(n)]
        holds = _proof_identities(t)[0]
        assert pure._exchange_holds(pure._array(t)) == holds, t
        seen.add(holds)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "t",
    [_EXCHANGE_OFF_REPRESENTATIVES, _times_indicator(_EXCHANGE_OFF_REPRESENTATIVES, 3)],
    ids=["order-4", "order-32"],
)
def test_exchange_is_checked_off_the_representatives(t):
    # Checking representatives against representatives only would pass
    # these tables; the failing instance needs a y that is no representative.
    assert _proof_identities(t)[0] is False
    assert pure._exchange_holds(pure._array(t)) is False


def test_axiom1_proof_is_sound_on_near_valid_tables():
    # Each helper agrees with its definition, and whenever axiom 2 and
    # both helpers hold, the axiom-1 loop scan finds no witness.  Where
    # axioms 3 and 4 hold and a*b = 0 is transitive, monotonicity checked
    # on the covers alone agrees with the definition too.
    rng = random.Random(13)
    seen = set()
    covered = set()
    for i in range(100_000):
        n = 2 + i % 4
        t = _random_near_valid_table(rng, n)
        if not brute_axiom_holds(t, 2):
            continue
        identities = _proof_identities(t)
        assert _proof_helpers(t) == identities
        assert identities != (True, True) or pure._axiom1_witness_loops(t) is None
        seen.add(identities)
        if brute_axiom_holds(t, 4) and _transitive(t):
            covered.add(identities[1])
    assert len(seen) == 4
    assert covered == {True, False}


def test_pure_witnesses_match_is_bck():
    rng = random.Random(11)
    for n in [2, 3, 4]:
        for _ in range(200):
            t = _random_near_valid_table(rng, n)
            witnesses = pure.axiom_witnesses(t)
            assert pure.table_is_bck(t) == all(w is None for w in witnesses)


def test_witness_shapes():
    # table where element 1 absorbs: 1*1 = 1 breaks reflexivity
    t = [[0, 0], [1, 1]]
    w1, w2, w3, w4, w5 = pure.axiom_witnesses(t)
    assert w3 == (1,)
    assert w1 is not None and len(w1) == 3
    assert w2 is not None and len(w2) == 2
    # the valid two-chain has no witnesses at all
    assert pure.axiom_witnesses([[0, 0], [1, 0]]) == (None,) * 5


def test_first_tables_stream_before_the_sweep_finishes():
    gen = pure.bck_candidates(5)
    first = next(gen)
    assert first[0] == (0, 0, 0, 0, 0)
    gen.close()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_search_yields_naturally_labeled_bck_tables(n):
    # Naturally labeled: x*y = 0 and x != y imply x < y.
    tables = list(pure.bck_candidates(n))
    assert tables
    for t in tables:
        assert all(
            x < y for x in range(n) for y in range(n) if x != y and t[x][y] == 0
        )
        assert all(brute_axiom_holds(t, axiom) for axiom in (1, 2, 3, 4, 5))


def _order_pairs_oracle(t):
    """The pairs x != y with x*y = 0 in row-major order, by a list comprehension."""
    n = len(t)
    pairs = [
        (x, y)
        for x, row in enumerate(t)
        for y in compress(range(n), map(not_, row))
        if y != x
    ]
    return [x for x, _ in pairs], [y for _, y in pairs]


def _chain(n):
    """The BCK chain x*y = max(x - y, 0)."""
    return tuple(tuple(max(x - y, 0) for y in range(n)) for x in range(n))


def test_order_pairs_match_the_list_comprehension():
    tables = [t for n in range(1, 6) for t in pure.bck_candidates(n)]
    tables += [
        bc.family_algebra(6)[0].table,
        bc.pointwise_function_algebra(10).table,
        _chain(1024),
    ]
    for t in tables:
        assert pure.order_pairs(t) == _order_pairs_oracle(t)
    assert len(pure.order_pairs(tables[-1])[0]) == 1024 * 1023 // 2


def test_one_held_array_answers_only_its_own_table():
    # two same-order BCK tables with different answers, and an equal copy
    chain = _chain(32)
    boolean = bc.pointwise_function_algebra(5).table
    copy = tuple(tuple(row) for row in chain)
    assert copy == chain and copy is not chain
    expected = {id(t): _property_loops(t) for t in (chain, boolean, copy)}
    assert expected[id(chain)] != expected[id(boolean)]
    for t in (chain, boolean, chain, copy, boolean, copy, chain):
        assert _property_scans(t) == expected[id(t)]
        assert pure.order_pairs(t) == _order_pairs_oracle(t)
    # a list can change between calls, so it is copied each time
    t = [list(row) for row in boolean]
    assert _property_scans(t) == expected[id(boolean)]
    t[1][2] = 5
    assert _property_scans(t) == _property_loops(t) != expected[id(boolean)]
