"""The three exact routes agree on random generic setups.

Weights have n <= 7 nonzero rows of width d <= 3 with entries in [-2, 2];
levels come from ``sample_generic``.  The census reads only the weights and
alpha, the recursion only the flat lattice and the ring only its
presentation.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric.crosscheck import analyze
from hypertoric.exact import int_rank
from hypertoric.torus import new_setup, sample_generic


@st.composite
def generic_setups(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 7))
    entries = st.integers(-2, 2)
    weights = tuple(draw(st.tuples(*[entries] * d).filter(any)) for _ in range(n))
    assume(int_rank(weights, d) == d)
    return sample_generic(new_setup(weights), draw(st.integers(0, 99)))


@settings(max_examples=150, deadline=None)
@given(generic_setups())
def test_census_recursion_and_rings_agree(setup):
    assert analyze(setup).agreement == {"morse_census": True, "morse_ring": True,
                                        "circle_series": True, "all": True}
