"""Reference Hilbert dimensions by Bareiss elimination in every ranked degree.

This is the loop ``ringcalc.hilbert_dims`` ran before its ranks were found
mod a prime and then proven.  Each degree's matrix has one row per monomial
multiple of a generator, in the monomial basis of that degree, and its rank
is ``exact.int_rank``.  The tests compare ``ring_dims`` and ``circle_dims``
against it on setups drawn by ``generic_setups``.
"""

from itertools import combinations_with_replacement

from hypothesis import assume
from hypothesis import strategies as st

from hypertoric.exact import int_rank
from hypertoric.torus import sample_generic


def monomials(nvars, degree):
    """Exponent vectors of the monomials of one degree, in a fixed order."""
    return [tuple(combo.count(v) for v in range(nvars))
            for combo in combinations_with_replacement(range(nvars), degree)]


def degree_rows(pres, degree):
    """Integer rows spanning the ideal in one degree, and the column count."""
    index = {exp: i for i, exp in enumerate(monomials(pres.nvars, degree))}
    rows = []
    for gen in pres.gens:
        g = sum(gen[0][0]) if gen else 0
        if not gen or g > degree:
            continue
        for mult in monomials(pres.nvars, degree - g):
            row = [0] * len(index)
            for exp, c in gen:
                row[index[tuple(x + y for x, y in zip(exp, mult))]] += c
            rows.append(row)
    return rows, len(index)


def quotient_dim(pres, degree):
    rows, ncols = degree_rows(pres, degree)
    return ncols - (int_rank(rows, ncols) if rows else 0)


def reference_dims(pres, max_degree):
    """Quotient dimensions in degrees 0..max_degree, zero-padded after the
    first zero degree, since the ring is generated in degree 1."""
    dims = []
    for m in range(max_degree + 1):
        dims.append(0 if dims and dims[-1] == 0 else quotient_dim(pres, m))
    return tuple(dims)


@st.composite
def generic_setups(draw):
    """Full-rank weights with n ≤ 6 nonzero rows of width d ≤ 3 and entries
    in [-9, 9], given generic levels by ``sample_generic``."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=d, max_value=6))
    entries = st.integers(min_value=-9, max_value=9)
    weights = tuple(
        draw(st.tuples(*[entries] * d).filter(any)) for _ in range(n))
    assume(int_rank([list(r) for r in weights], d) == d)
    return sample_generic(weights, draw(st.integers(min_value=0, max_value=99)))
