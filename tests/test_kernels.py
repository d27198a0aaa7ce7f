"""Tests of the kernels: the axiom scan's two paths and the search stream."""

import random

import pytest

from bckcodes._kernels import pure
from test_algebra import brute_axiom_holds


def _random_table(rng, n):
    """An arbitrary (usually invalid) flat table over 0..n-1."""
    return [rng.randrange(n) for _ in range(n * n)]


def _random_near_valid_table(rng, n):
    """A table with the cheap shape constraints baked in.

    Random tables fail axiom 5 or 3 almost immediately, which would let
    witness comparisons pass without ever reaching the later axioms, so
    pin row 0, column 0 and the diagonal first.
    """
    t = _random_table(rng, n)
    for x in range(n):
        t[x] = 0
        t[x * n] = x
        t[x * n + x] = 0
    return t


def test_axiom1_numpy_walk_matches_plain_loops():
    rng = random.Random(4242)
    for n in [1, 2, 4, 7, 32, 40]:
        for _ in range(25):
            t = _random_table(rng, n)
            assert pure._axiom1_witness_numpy(t, n) == pure._axiom1_witness_loops(
                t, n
            )


def test_pure_witnesses_match_is_bck():
    rng = random.Random(11)
    for n in [2, 3, 4]:
        for _ in range(200):
            t = _random_near_valid_table(rng, n)
            witnesses = pure.axiom_witnesses(t, n)
            assert pure.table_is_bck(t, n) == all(w is None for w in witnesses)


def test_witness_shapes():
    # table where element 1 absorbs: 1*1 = 1 breaks reflexivity
    t = [0, 0, 1, 1]
    w1, w2, w3, w4, w5 = pure.axiom_witnesses(t, 2)
    assert w3 == (1,)
    assert w1 is not None and len(w1) == 3
    assert w2 is not None and len(w2) == 2
    # the valid two-chain has no witnesses at all
    assert pure.axiom_witnesses([0, 0, 1, 0], 2) == (None,) * 5


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
