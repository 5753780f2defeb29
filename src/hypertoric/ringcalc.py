"""Cohomology ring presentations and their exact Hilbert series.

The ring is a polynomial ring on one generator per torus dimension modulo
one product-of-linear-forms relation per proper flat (the rows outside the
flat).  The circle-equivariant variant adds one extra variable and replaces
each factor by its reflection when the level pairs negatively with the row.
Dimensions are counted degree by degree with exact integer ranks, which
``exact.certified_rank`` proves from both sides.  An elimination mod a prime
finds a minor that is nonzero mod p, hence nonzero: rank ≥ r.  Null vectors
N_J = −D X, N_F = D·I on the free columns, solved over Q by p-adic lifting
and checked exactly against every row, give rank ≤ r.  Where that proof
fails, or a bound of its int64 arithmetic does, Bareiss elimination
(``exact.int_rank``) gives the rank.  The ring route reads only its
presentation, never the Morse or census answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .exact import certified_rank
from .flats import proper_flats
from .torus import TorusSetup, sign_split


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


@dataclass(frozen=True)
class RingPresentation:
    nvars: int
    gens: tuple  # one frozen polynomial per proper flat, flats order


def cohomology_presentation(weights) -> RingPresentation:
    """Ordinary presentation: for each proper flat, the product of the
    linear forms of the rows outside it."""
    weights = tuple(tuple(r) for r in weights)
    d = len(weights[0]) if weights else 0
    gens = []
    for f in proper_flats(weights):
        poly = {tuple(0 for _ in range(d)): 1}
        for i in range(len(weights)):
            if i not in f:
                poly = _mul(poly, _linear_form(weights[i], d))
        gens.append(_freeze(poly))
    return RingPresentation(d, tuple(gens))


def circle_equivariant_presentation(setup: TorusSetup) -> RingPresentation:
    """Circle-equivariant presentation on d + 1 variables (the last one is
    the equivariant class of the extra circle).

    Rows pairing positively with the level keep their linear form; rows
    pairing negatively contribute the reflected factor (u0 - form).
    """
    d = setup.dim
    nvars = d + 1
    u0 = _linear_form(tuple(0 for _ in range(d)) + (1,), nvars)
    gens = []
    for f in proper_flats(setup.weights):
        plus, minus = sign_split(setup, f)
        poly = {tuple(0 for _ in range(nvars)): 1}
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
    return RingPresentation(nvars, tuple(gens))


def _monomials(nvars, degree):
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return out


def _gen_degree(gen) -> int:
    return sum(gen[0][0]) if gen else 0


def hilbert_dims(pres: RingPresentation, max_degree: int) -> tuple:
    """Graded dimensions of the quotient ring, degrees 0..max_degree.

    In each degree the span of (monomial multiple of generator) is a lattice
    of integer coefficient vectors; its rank is ``certified_rank``, exact
    from both sides.  A nonzero r × r minor mod p is a nonzero integer, so
    rank ≥ r; when r is the row or column count, that is the rank (as in
    every vanishing degree).  Otherwise ncols − r null vectors, equal to D·I
    on the free columns and checked exactly against every row, prove
    rank ≤ r.  If the check or an int64 bound fails, Bareiss elimination
    gives the rank.  The ring is generated in degree 1, so
    R_{k+1} = S_1 R_k: once a degree is zero, every higher one is, and the
    remaining degrees are padded with zeros instead of ranked.
    """
    dims = []
    for m in range(max_degree + 1):
        if dims and dims[-1] == 0:
            return tuple(dims) + (0,) * (max_degree + 1 - m)
        basis = _monomials(pres.nvars, m)
        index = {exp: i for i, exp in enumerate(basis)}
        rows = []
        for gen in pres.gens:
            g = _gen_degree(gen)
            if not gen or g > m:
                continue
            for mult in _monomials(pres.nvars, m - g):
                row = [0] * len(basis)
                for exp, c in gen:
                    shifted = tuple(x + y for x, y in zip(exp, mult))
                    row[index[shifted]] += c
                rows.append(row)
        r = certified_rank(rows, len(basis)) if rows else 0
        dims.append(len(basis) - r)
    return tuple(dims)


def ring_dims(weights, max_degree=None) -> tuple:
    """Quotient-ring dimensions for the ordinary presentation.

    Defaults to two degrees past the top nonzero one, so vanishing beyond
    the expected range is visible in the result.
    """
    weights = tuple(tuple(r) for r in weights)
    n = len(weights)
    d = len(weights[0]) if weights else 0
    if max_degree is None:
        max_degree = n - d + 2
    return hilbert_dims(cohomology_presentation(weights), max_degree)


def circle_dims(setup: TorusSetup, max_degree=None) -> tuple:
    """Quotient-ring dimensions for the circle-equivariant presentation.

    Defaults to three degrees past the top degree n − d of the ordinary
    ring: the dimensions are cumulative sums of the Betti numbers, so they
    should stay constant from the top on, and the extra degrees show it.
    """
    if max_degree is None:
        max_degree = setup.n - setup.dim + 3
    return hilbert_dims(circle_equivariant_presentation(setup), max_degree)


def cumulative(coeffs, length) -> tuple:
    """Running sums of a coefficient sequence, padded out to length."""
    out = []
    total = 0
    for m in range(length):
        total += coeffs[m] if m < len(coeffs) else 0
        out.append(total)
    return tuple(out)


def matches_poincare(dims, poly, top) -> bool:
    """Whether ring dimensions equal the coefficients of poly through degree
    top (zero-padded) and vanish above it."""
    padded = list(poly.coeffs) + [0] * (top + 1 - len(poly.coeffs))
    return list(dims[:top + 1]) == padded and not any(dims[top + 1:])
