import random
from functools import cache

import pytest
from hypothesis import given, settings

import flat_reference
from flat_reference import reference_flats, weight_configurations
from hypertoric.errors import EnumerationTooLarge
from hypertoric.flats import lattice
from hypertoric.morse import _below

DIAG2 = ((1,), (1,))
DIAG3 = ((1,), (1,), (1,))
TRIPLE = ((1, 0), (0, 1), (1, 1))
IDENT2 = ((1, 0), (0, 1))


def _flats(weights):
    return tuple(f for f, _ in lattice(weights))


def _coatoms(weights):
    # The lattice's flats whose basis is one row shorter than the top flat's.
    table = lattice(weights)
    return tuple(f for f, basis in table if len(basis) == len(table[-1][1]) - 1)


def _closure(weights, subset):
    # The smallest lattice flat holding subset; flats come smallest first.
    return next(f for f in _flats(weights) if set(subset) <= set(f))


def test_closure_collinear_rows():
    assert _closure(DIAG2, ()) == ()
    assert _closure(DIAG2, (0,)) == (0, 1)
    assert _closure(DIAG2, (1,)) == (0, 1)


def test_closure_triple():
    assert _closure(TRIPLE, (0,)) == (0,)
    assert _closure(TRIPLE, (2,)) == (2,)
    assert _closure(TRIPLE, (0, 1)) == (0, 1, 2)
    assert _closure(TRIPLE, (0, 2)) == (0, 1, 2)


def test_coatoms_close_their_candidates():
    # A coatom holds every row parallel to its independent rows.
    assert _coatoms(DIAG2) == ((),)
    assert _coatoms(TRIPLE) == ((0,), (1,), (2,))
    assert _coatoms(((1, 0), (0, 1), (2, 0), (1, 1))) == ((1,), (3,), (0, 2))


def test_a_zero_row_lies_in_every_flat_and_in_no_basis():
    assert lattice(((0,), (1,))) == (((0,), ()), ((0, 1), (1,)))


def test_enumerate_flats_diagonal():
    assert _flats(DIAG2) == ((), (0, 1))
    assert _flats(DIAG3) == ((), (0, 1, 2))


def test_enumerate_flats_triple():
    assert _flats(TRIPLE) == ((), (0,), (1,), (2,), (0, 1, 2))


def test_enumerate_flats_identity():
    assert _flats(IDENT2) == ((), (0,), (1,), (0, 1))


def test_enumerate_flats_zero_column_width():
    # trivial torus: every empty-row weight lies in the zero span
    assert _flats(((), ())) == ((0, 1),)


def test_proper_flats_drop_full_set():
    # The full ground set is the last flat and no other, so the proper
    # flats are every flat but the last.
    assert _flats(TRIPLE)[:-1] == ((), (0,), (1,), (2,))
    assert _flats(DIAG2)[:-1] == ((),)
    for weights in (TRIPLE, DIAG2, DIAG3, IDENT2, ((1, 0), (2, 0), (0, 1))):
        assert _flats(weights)[-1] == tuple(range(len(weights)))


def test_lattice_keeps_each_flats_basis():
    assert lattice(TRIPLE) == (((), ()), ((0,), (0,)), ((1,), (1,)),
                               ((2,), (2,)), ((0, 1, 2), (0, 1)))
    assert lattice(DIAG2) == (((), ()), ((0, 1), (0,)))
    assert lattice(()) == (((), ()),)


def test_ground_set_bound():
    big = tuple((1,) for _ in range(15))
    with pytest.raises(EnumerationTooLarge):
        lattice(big)


def test_flats_are_closed_and_sorted():
    weights = ((1, 0), (2, 0), (0, 1), (1, 1), (0, 0))
    fs = _flats(weights)
    for f in fs:
        assert flat_reference.closure(weights, f) == f
    sizes = [len(f) for f in fs]
    assert sizes == sorted(sizes)
    # zero row sits inside every flat
    assert all(4 in f for f in fs)


@given(weight_configurations())
@settings(max_examples=150, deadline=None)
def test_lattice_matches_closure_of_every_subset(weights):
    expected = reference_flats(weights)
    table = lattice(weights)
    assert tuple(f for f, _ in table) == tuple(f for f, _ in expected)
    for (f, basis), (_, rank) in zip(table, expected):
        # The first run of independent rows: row j of f is in the basis
        # exactly when the rows of f before it do not span it.
        assert len(basis) == rank
        assert basis == tuple(j for k, j in enumerate(f)
                              if j not in flat_reference.closure(weights, f[:k]))
    top = expected[-1][1]
    assert _coatoms(weights) == tuple(f for f, r in expected if r == top - 1)
    # The lattice builds each flat from the flat of its basis prefix: a
    # basis less its last row is the basis of a table flat below, and the
    # last row is the first row of the flat outside that one.
    flat_of = {basis: f for f, basis in table}
    for f, basis in table:
        if basis:
            assert basis[:-1] in flat_of
            below = flat_of[basis[:-1]]
            assert set(below) < set(f)
            assert basis[-1] == min(set(f) - set(below))


def test_fourteen_rows_at_rank_five():
    # One draw past the property's 8 rows and width 4.  Every flat is the
    # closure of its basis, and the basis is the greedy one: each basis row
    # lies outside the closure of the basis rows before it, which holds
    # every row of the flat before it.
    rng = random.Random(14)
    weights = tuple(tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(14))
    span = cache(lambda rows: flat_reference.closure(weights, rows))
    table = lattice(weights)
    assert len(table[-1][1]) == 5
    for f, basis in table:
        assert span(basis) == f
        for i, j in enumerate(basis):
            assert j not in span(basis[:i])
            assert set(f[:f.index(j)]) <= set(span(basis[:i]))
    # reference_flats finds 1,015 flats here; it takes seconds, so the
    # count is pinned.
    assert len(table) == 1015
    # The prefix-tree walk gives each flat the flats strictly inside it, as
    # a direct subset test finds them among the flats before it in the table.
    masks = [sum(1 << j for j in f) for f, _ in table]
    for i, (mask, inside) in enumerate(zip(masks, _below(table))):
        assert sorted(inside) == [k for k, sub in enumerate(masks[:i])
                                  if sub & mask == sub]
