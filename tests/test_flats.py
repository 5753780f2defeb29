import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flat_reference
from flat_reference import reference_flats, weight_configurations
from hypertoric.errors import EnumerationTooLarge
from hypertoric.flats import (closure, coatoms, enumerate_flats, flat_rank,
                              lattice)

DIAG2 = ((1,), (1,))
DIAG3 = ((1,), (1,), (1,))
TRIPLE = ((1, 0), (0, 1), (1, 1))
IDENT2 = ((1, 0), (0, 1))


def test_closure_collinear_rows():
    assert closure(DIAG2, ()) == ()
    assert closure(DIAG2, (0,)) == (0, 1)
    assert closure(DIAG2, (1,)) == (0, 1)


def test_closure_triple():
    assert closure(TRIPLE, (0,)) == (0,)
    assert closure(TRIPLE, (2,)) == (2,)
    assert closure(TRIPLE, (0, 1)) == (0, 1, 2)
    assert closure(TRIPLE, (0, 2)) == (0, 1, 2)


def test_closure_zero_row():
    weights = ((0,), (1,))
    assert closure(weights, ()) == (0,)
    assert closure(weights, (1,)) == (0, 1)


def test_enumerate_flats_diagonal():
    assert enumerate_flats(DIAG2) == ((), (0, 1))
    assert enumerate_flats(DIAG3) == ((), (0, 1, 2))


def test_enumerate_flats_triple():
    assert enumerate_flats(TRIPLE) == ((), (0,), (1,), (2,), (0, 1, 2))


def test_enumerate_flats_identity():
    assert enumerate_flats(IDENT2) == ((), (0,), (1,), (0, 1))


def test_enumerate_flats_zero_column_width():
    # trivial torus: every empty-row weight lies in the zero span
    assert enumerate_flats(((), ())) == ((0, 1),)


def test_proper_flats_drop_full_set():
    # The full ground set is the last flat and no other, so the proper
    # flats are every flat but the last.
    assert enumerate_flats(TRIPLE)[:-1] == ((), (0,), (1,), (2,))
    assert enumerate_flats(DIAG2)[:-1] == ((),)
    for weights in (TRIPLE, DIAG2, DIAG3, IDENT2, ((1, 0), (2, 0), (0, 1))):
        assert enumerate_flats(weights)[-1] == tuple(range(len(weights)))


def test_flat_rank():
    assert flat_rank(TRIPLE, ()) == 0
    assert flat_rank(TRIPLE, (0, 1, 2)) == 2
    assert flat_rank(DIAG2, (0, 1)) == 1


def test_ground_set_bound():
    big = tuple((1,) for _ in range(15))
    with pytest.raises(EnumerationTooLarge):
        enumerate_flats(big)


def test_flats_are_closed_and_sorted():
    weights = ((1, 0), (2, 0), (0, 1), (1, 1), (0, 0))
    fs = enumerate_flats(weights)
    for f in fs:
        assert closure(weights, f) == f
    sizes = [len(f) for f in fs]
    assert sizes == sorted(sizes)
    # zero row sits inside every flat
    assert all(4 in f for f in fs)


@given(weight_configurations(), st.data())
@settings(max_examples=150, deadline=None)
def test_lattice_matches_closure_of_every_subset(weights, data):
    expected = reference_flats(weights)
    assert enumerate_flats(weights) == tuple(f for f, _ in expected)
    assert lattice(weights) == tuple((sum(1 << j for j in f), r)
                                     for f, r in expected)
    top = expected[-1][1]
    assert coatoms(weights) == tuple(f for f, r in expected if r == top - 1)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(weights),
                                max_size=len(weights)))
    subset = tuple(j for j, c in enumerate(chosen) if c)
    assert closure(weights, subset) == flat_reference.closure(weights, subset)
