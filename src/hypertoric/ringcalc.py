"""Cohomology ring presentations and their exact Hilbert series.

The ring is a polynomial ring on one generator per torus dimension modulo
one product-of-linear-forms relation per proper flat (the rows outside the
flat); for the ordinary ring the coatoms' relations already generate the
ideal.  The circle-equivariant variant adds one extra variable and replaces
each factor by its reflection when the level pairs negatively with the row.
Dimensions are counted degree by degree with exact integer ranks from
``exact.certified_rank``, whose docstring gives its two-sided proof.  The
ring route reads only its presentation, never the Morse or census answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .exact import certified_rank
from .flats import coatoms, proper_flats
from .torus import TorusSetup, sign_split


@dataclass(frozen=True)
class RingPresentation:
    nvars: int
    gens: tuple  # sorted (exponent tuple, coefficient) pairs per generator


def _expand(forms, nvars) -> tuple:
    """The product of integer linear forms, each a row of nvars
    coefficients, as sorted (exponent tuple, coefficient) pairs."""
    poly = {(0,) * nvars: 1}
    for form in forms:
        out = {}
        for exp, c in poly.items():
            for a, w in enumerate(form):
                if w:
                    e = exp[:a] + (exp[a] + 1,) + exp[a + 1:]
                    out[e] = out.get(e, 0) + c * w
        poly = {e: c for e, c in out.items() if c}
    return tuple(sorted(poly.items()))


def cohomology_presentation(weights) -> RingPresentation:
    """Ordinary presentation: for each coatom, the product of the linear
    forms of the rows outside it, in flat order.

    These generate the ideal of all proper flats.  Every proper flat F lies
    in a coatom H, so the rows outside H are among the rows outside F, and
    gen_H divides gen_F: adding gen_F leaves the ideal unchanged.
    """
    weights = tuple(tuple(r) for r in weights)
    d = len(weights[0]) if weights else 0
    return RingPresentation(d, tuple(
        _expand([w for i, w in enumerate(weights) if i not in h], d)
        for h in coatoms(weights)))


def circle_equivariant_presentation(setup: TorusSetup) -> RingPresentation:
    """Circle-equivariant presentation on d + 1 variables (the last one is
    the equivariant class of the extra circle), one generator per proper
    flat, in flat order.

    Rows pairing positively with the level keep their linear form; rows
    pairing negatively contribute the reflected factor (u0 - form).  The
    signs depend on the flat, so no flat is left out.
    """
    gens = []
    for f in proper_flats(setup.weights):
        plus, minus = sign_split(setup, f)
        gens.append(_expand(
            [setup.weights[i] + (0,) for i in plus]
            + [tuple(-x for x in setup.weights[i]) + (1,) for i in minus],
            setup.dim + 1))
    return RingPresentation(setup.dim + 1, tuple(gens))


def hilbert_dims(pres: RingPresentation, max_degree: int) -> tuple:
    """Graded dimensions of the quotient ring, degrees 0..max_degree.

    In each degree the span of (monomial multiple of generator) is a lattice
    of integer coefficient vectors, whose rank is ``certified_rank``, proven
    from both sides as its docstring states.  A monomial of degree at most
    max_degree is keyed by the integer sum e_a B^a with B = max_degree + 1,
    so the key of a product is the sum of the keys.  The ring is generated
    in degree 1, so R_{k+1} = S_1 R_k: once a degree is zero, every higher one is, and the
    remaining degrees are padded with zeros instead of ranked.
    """
    powers = [(max_degree + 1) ** a for a in range(pres.nvars)]
    gens = [(sum(gen[0][0]),
             [(sum(e * b for e, b in zip(exp, powers)), c) for exp, c in gen])
            for gen in pres.gens if gen]
    keys = []  # keys[m]: the monomials of degree m, in basis order
    dims = []
    for m in range(max_degree + 1):
        if dims and dims[-1] == 0:
            return tuple(dims) + (0,) * (max_degree + 1 - m)
        keys.append([sum(powers[a] for a in combo) for combo in
                     combinations_with_replacement(range(pres.nvars), m)])
        index = {k: i for i, k in enumerate(keys[m])}
        rows = []
        for g, terms in gens:
            for shift in keys[m - g] if g <= m else ():
                row = [0] * len(index)
                for k, c in terms:
                    row[index[k + shift]] += c
                rows.append(row)
        r = certified_rank(rows, len(index)) if rows else 0
        dims.append(len(index) - r)
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
