"""Each route satisfies deletion-contraction on every row that is no coloop.

For a row e of the weights B whose removal keeps the rank d,
P(B) = q P(B - e) + P(B / e), from T_M = T_{M - e} + T_{M / e} and
P(q) = q^(n-d) T_M(1, 1/q) (Hausel-Sturmfels, Toric hyperKahler varieties,
Doc. Math. 7, 2002).  B / e is integer: with k the first coordinate where
e is nonzero, each other row r becomes e[k] r - r[k] e with coordinate k
dropped, so the rows parallel to e become zero rows.  Each route is checked
against itself on the three configurations, which cross-route agreement
cannot do: it misses a fault that two routes share.  Weights have
4 <= n <= 8 nonzero rows of width d in {2, 3} with entries in [-2, 2];
census and circle-ring levels come from ``sample_generic(., 1)``.
"""

from operator import add

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric.arrangement import census_poincare, face_census
from hypertoric.exact import int_rank
from hypertoric.morse import poincare_morse
from hypertoric.ringcalc import circle_dims, ring_dims
from hypertoric.torus import new_setup, sample_generic


def contract(weights, e) -> tuple:
    """The weights B / e, of width d - 1."""
    b = weights[e]
    k = next(i for i, x in enumerate(b) if x)
    return tuple(tuple(b[k] * x - r[k] * y for i, (x, y) in enumerate(zip(r, b))
                       if i != k)
                 for j, r in enumerate(weights) if j != e)


@st.composite
def triples(draw):
    """(B, B - e, B / e) for a row e of B that is no coloop."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(d + 1, 8))
    entries = st.integers(-2, 2)
    weights = tuple(draw(st.tuples(*[entries] * d).filter(any)) for _ in range(n))
    assume(int_rank(weights, d) == d)
    e = draw(st.integers(0, n - 1))
    deleted = weights[:e] + weights[e + 1:]
    assume(int_rank(deleted, d) == d)
    return weights, deleted, contract(weights, e)


def holds(whole, deleted, contracted) -> bool:
    """Whether whole = q deleted + contracted, coefficient by coefficient;
    graded dimensions read as the coefficients of their series."""
    shifted = (0, *deleted)
    width = max(len(whole), len(shifted), len(contracted))

    def pad(coeffs):
        return tuple(coeffs) + (0,) * (width - len(coeffs))

    return pad(whole) == tuple(map(add, pad(shifted), pad(contracted)))


def test_contraction_makes_parallel_rows_zero():
    weights = ((1, 0), (2, 0), (1, 1), (0, 1))
    assert contract(weights, 0) == ((0,), (1,), (1,))
    assert contract(weights, 2) == ((-1,), (-2,), (1,))
    # Three generic rows in the plane: the A_2 space, a point and T*P^1.
    triple = ((1, 0), (0, 1), (1, 1))
    assert [poincare_morse(w) for w in (triple, triple[:2], contract(triple, 2))] == [
        (1, 2), (1,), (1, 1)]
    assert holds((1, 2), (1,), (1, 1)) and not holds((1, 1), (1,), (1, 1))


@settings(max_examples=100, deadline=None)
@given(triples())
def test_morse_recursion_deletes_and_contracts(triple):
    assert holds(*map(poincare_morse, triple))


@settings(max_examples=40, deadline=None)
@given(triples())
def test_census_deletes_and_contracts(triple):
    setups = [sample_generic(new_setup(weights), 1) for weights in triple]
    assert holds(*(census_poincare(face_census(s)) for s in setups))


@settings(max_examples=40, deadline=None)
@given(triples())
def test_ring_dims_delete_and_contract(triple):
    assert holds(*map(ring_dims, triple))


@settings(max_examples=25, deadline=None)
@given(triples())
def test_circle_dims_delete_and_contract(triple):
    # The circle dims are running sums of the Betti numbers, and a running
    # sum keeps the identity.
    assert holds(*(circle_dims(sample_generic(new_setup(weights), 1))
                   for weights in triple))
