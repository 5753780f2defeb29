"""Property tests: genericity read from flat data agrees with subset searches.

Random setups have n <= 7 rows and d <= 3 columns.  Levels are drawn both
from a small box, where they are often non-generic, and from a wide one.
"""

from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric.exact import RatMatrix, rank, solve_exact
from hypertoric.torus import (
    alpha_witness,
    gale_of,
    metric_of,
    new_setup,
    perp_part,
    simplicity_witness,
)

PROPS = settings(max_examples=150, deadline=None)


def subset_search_witness(normals, offsets, max_size):
    """Smallest dependent set of hyperplanes with a common point, by search.

    The size-by-size search over all subsets that the coatom test replaced.
    """
    n = len(normals)
    for size in range(1, min(n, max_size) + 1):
        for subset in combinations(range(n), size):
            sub = [list(normals[i]) for i in subset]
            width = len(sub[0])
            if width and rank(RatMatrix(sub)) == size:
                continue
            rhs = [offsets[i] for i in subset]
            if width == 0:
                consistent = all(r == 0 for r in rhs)
            else:
                consistent = solve_exact(RatMatrix(sub), rhs) is not None
            if consistent:
                return subset
    return None


def solved_perp_part(weights, subset, vec):
    """Residual of vec against span{subset rows}, by one linear solve."""
    if not subset:
        return tuple(vec)
    u = RatMatrix([weights[j] for j in subset])
    ug = u @ metric_of(weights).gram_inv
    coeffs = solve_exact(ug @ u.transpose(),
                         [sum(g * v for g, v in zip(row, vec)) for row in ug.rows])
    return tuple(v - sum(c * row[j] for c, row in zip(coeffs, u.rows))
                 for j, v in enumerate(vec))


@st.composite
def weight_matrices(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 7))
    entry = st.integers(-2, 2)
    rows = tuple(draw(st.tuples(*[entry] * d)) for _ in range(n))
    assume(rank(RatMatrix(rows)) == d)
    return rows


def levels(d):
    coord = st.one_of(st.integers(-2, 2), st.integers(-60, 60))
    return st.tuples(*[coord] * d)


@st.composite
def setups(draw):
    weights = draw(weight_matrices())
    return new_setup(weights, draw(levels(len(weights[0]))))


@PROPS
@given(setups())
def test_coatom_witness_equals_subset_search(setup):
    gale = gale_of(setup)
    expected = subset_search_witness(gale.normals, gale.offsets,
                                     setup.ambient_dim + 1)
    assert simplicity_witness(setup) == expected


@PROPS
@given(setups())
def test_pairing_conditions_imply_a_simple_arrangement(setup):
    witness = alpha_witness(setup)
    assert witness is None or witness[0] == "pairing"
    if witness is None:
        assert simplicity_witness(setup) is None


@PROPS
@given(st.data())
def test_cached_projection_equals_solved_projection(data):
    weights = data.draw(weight_matrices())
    subset = tuple(sorted(data.draw(
        st.sets(st.integers(0, len(weights) - 1), max_size=len(weights)))))
    vec = data.draw(levels(len(weights[0])))
    assert perp_part(weights, subset, vec) == solved_perp_part(weights, subset, vec)


def test_coincident_hyperplanes_witness():
    # alpha = (1, 1) lies on the third weight row: hyperplanes 1 and 2 of the
    # dual line coincide
    triple = ((1, 0), (0, 1), (1, 1))
    assert simplicity_witness(new_setup(triple, [1, 1])) == (0, 1)
    assert simplicity_witness(new_setup(triple, [1, 3])) is None
