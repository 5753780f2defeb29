"""Reference presentations and Hilbert dimensions, built the long way.

``reference_presentation`` and ``reference_circle_presentation`` take one
generator per proper flat (every flat but the last, the full ground set),
multiplied out from dict polynomials and kept with the linear forms it is
the product of, as ``ringcalc`` did before it kept only the coatoms of both
rings and expanded every generator with one builder.  ``reference_dims`` is
the loop ``ringcalc.hilbert_dims`` ran before its ranks were found mod a
prime and then proven, and before its monomials were keyed by integers.  Each
degree's matrix has one row per monomial multiple of a generator, in the
monomial basis of that degree, and its rank is ``exact.int_rank``.  The
tests compare ``ring_dims`` and ``circle_dims`` against them on setups
drawn by ``generic_setups``.
"""

from itertools import combinations_with_replacement

from hypothesis import assume
from hypothesis import strategies as st

from flat_reference import reference_flats
from hypertoric.exact import int_rank
from hypertoric.ringcalc import RingPresentation
from hypertoric.torus import negative_rows, new_setup, sample_generic


def _linear_form(coeffs, nvars):
    """Homogeneous linear polynomial sum coeffs[a] * z_a as {exponent: coeff}."""
    out = {}
    for a, c in enumerate(coeffs):
        if c:
            exp = tuple(int(i == a) for i in range(nvars))
            out[exp] = out.get(exp, 0) + c
    return out


def _mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(exp, 0) + ca * cb
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
    return out


def _freeze(p):
    return tuple(sorted(p.items()))


def product(forms, nvars):
    """The product of integer linear forms, each a row of nvars
    coefficients, as sorted (exponent tuple, coefficient) pairs."""
    poly = {(0,) * nvars: 1}
    for form in forms:
        poly = _mul(poly, _linear_form(form, nvars))
    return _freeze(poly)


def reference_presentation(weights):
    """Ordinary presentation with one generator per proper flat: the product
    of the linear forms of the rows outside it."""
    weights = tuple(tuple(r) for r in weights)
    d = len(weights[0]) if weights else 0
    forms = tuple(tuple(weights[i] for i in range(len(weights)) if i not in f)
                  for f, _ in reference_flats(weights)[:-1])
    return RingPresentation(d, tuple(product(f, d) for f in forms), forms)


def reference_circle_presentation(setup):
    """Circle-equivariant presentation with one generator per proper flat;
    a row pairing negatively with the level contributes (u0 - form), whose
    coefficients are the form's negated and then 1."""
    nvars = setup.dim + 1
    u0 = _linear_form((0,) * setup.dim + (1,), nvars)
    gens, forms = [], []
    negative = negative_rows(setup)
    for f, _ in reference_flats(setup.weights)[:-1]:
        minus = negative[f]
        plus = [i for i in range(setup.n) if i not in f and i not in minus]
        poly = {(0,) * nvars: 1}
        for i in plus:
            poly = _mul(poly, _linear_form(setup.weights[i] + (0,), nvars))
        for i in minus:
            factor = dict(u0)
            for exp, c in _linear_form(setup.weights[i] + (0,), nvars).items():
                factor[exp] = factor.get(exp, 0) - c
                if not factor[exp]:
                    del factor[exp]
            poly = _mul(poly, factor)
        gens.append(_freeze(poly))
        forms.append(tuple(setup.weights[i] + (0,) for i in plus)
                     + tuple(tuple(-x for x in setup.weights[i]) + (1,) for i in minus))
    return RingPresentation(nvars, tuple(gens), tuple(forms))


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
def generic_setups(draw, max_dim=3, max_rows=6):
    """Full-rank weights with n ≤ max_rows nonzero rows of width
    d ≤ max_dim and entries in [-9, 9], given generic levels by
    ``sample_generic``."""
    d = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=d, max_value=max_rows))
    entries = st.integers(min_value=-9, max_value=9)
    weights = tuple(
        draw(st.tuples(*[entries] * d).filter(any)) for _ in range(n))
    assume(int_rank([list(r) for r in weights], d) == d)
    return sample_generic(new_setup(weights),
                          draw(st.integers(min_value=0, max_value=99)))
