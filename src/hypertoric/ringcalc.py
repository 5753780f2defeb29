"""Cohomology ring presentations and their exact Hilbert series.

The ring is a polynomial ring on one generator per torus dimension modulo
one product-of-linear-forms relation per proper flat (the rows outside the
flat); the coatoms' relations already generate that ideal, so both
presentations take one relation per coatom.  The circle-equivariant variant
adds one extra variable and replaces each factor by its reflection when the
level pairs negatively with the row.
Dimensions are counted degree by degree with exact integer ranks from
``exact.certified_rank``, whose docstring gives its two-sided proof; every
generator is a product of linear forms, and two that share all factors
but one hand it the left-null vectors for its upper bound.  The ring route
reads only its presentation, never the Morse or census answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .exact import certified_rank
from .flats import lattice
from .torus import TorusSetup, negative_rows


@dataclass(frozen=True)
class RingPresentation:
    nvars: int
    gens: tuple  # sorted (exponent tuple, coefficient) pairs per generator
    forms: tuple  # per generator, the linear forms it is the product of


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


def _coatom_presentation(weights, nvars, factor) -> RingPresentation:
    """For each coatom H, in flat order, the product of factor(i, H) over
    the rows i outside H.  The coatoms are the flats whose basis is one row
    shorter than the top flat's."""
    table = lattice(weights)
    r = len(table[-1][1]) - 1
    forms = tuple(tuple(factor(i, h) for i in range(len(weights)) if i not in h)
                  for h, basis in table if len(basis) == r)
    return RingPresentation(nvars, tuple(_expand(f, nvars) for f in forms), forms)


def _cofactor_pairs(forms) -> list:
    """(i, j, l_i, l_j) for every two generators gen_i = l_i C and
    gen_j = l_j C, found by bucketing each one's factors with one form
    removed; then l_j gen_i - l_i gen_j = 0."""
    buckets = {}
    for g, factors in enumerate(forms):
        for form in set(factors):
            rest = list(factors)
            rest.remove(form)
            buckets.setdefault(tuple(sorted(rest)), []).append((g, form))
    return [(i, j, li, lj) for bucket in buckets.values()
            for (i, li), (j, lj) in combinations(bucket, 2)]


def cohomology_presentation(weights) -> RingPresentation:
    """Ordinary presentation: row i contributes its linear form.

    The coatoms' generators generate the ideal of all proper flats.  Every
    proper flat F lies in a coatom H, so the rows outside H are among the
    rows outside F, and gen_H divides gen_F.
    """
    weights = tuple(tuple(r) for r in weights)
    return _coatom_presentation(weights, len(weights[0]) if weights else 0,
                                lambda i, h: weights[i])


def circle_equivariant_presentation(setup: TorusSetup) -> RingPresentation:
    """Circle-equivariant presentation on d + 1 variables, the last one the
    equivariant class u0 of the extra circle.  Row i outside a coatom H
    contributes its linear form when it pairs positively with alpha_H, the
    residual of the level against span H, and the reflected factor
    (u0 - form) when it pairs negatively.

    The coatoms' generators generate the ideal of all proper flats, each
    signed by its own residual, when alpha is generic.  Let B be the weight
    matrix, G = B^T B, and <a, b> = a^T G^-1 b.  For a proper flat F the
    vector x^F = (<alpha_F, u_i>)_i = B G^-1 alpha_F lies in col(B), and by
    genericity it vanishes exactly on F.  By Rockafellar's elementary-vector
    theorem (The elementary vectors of a subspace of R^N, 1969), x^F is a
    conformal sum of the minimal-support vectors of col(B): each summand is
    nonzero only where x^F is, with the same sign there.  The zero set of
    B v, v != 0, is a flat of rank at most d - 1; it lies in a coatom, and
    each coatom is the zero set of some B v, so the minimal-support vectors
    are those vanishing exactly on a coatom.  Take one summand c,
    vanishing exactly on a coatom H; then H contains F.  Write
    c = B G^-1 nu, with nu dual-orthogonal to span H.  That orthogonal
    complement is the line of nu, so alpha_H = (<nu, alpha> / <nu, nu>) nu
    and x^H = (<nu, alpha> / <nu, nu>) c.  As alpha - alpha_F lies in
    span F, inside span H,
        <nu, alpha> = <nu, alpha_F> = nu^T G^-1 B^T B G^-1 alpha_F
                    = sum_i c_i x^F_i > 0,
    every term being nonnegative and some positive.  So the signs of x^H
    agree with those of x^F on every row outside H, and gen_H divides
    gen_F.

    The coatom walls alone do not see every non-generic level, so the
    signs are read from ``negative_rows``, which decides the level's
    genericity over every flat.
    """
    w, minus = setup.weights, negative_rows(setup)
    return _coatom_presentation(w, setup.dim + 1, lambda i, h: (
        tuple(-x for x in w[i]) + (1,) if i in minus[h] else w[i] + (0,)))


def hilbert_dims(pres: RingPresentation, max_degree: int) -> tuple:
    """Graded dimensions of the quotient ring, degrees 0..max_degree.

    In each degree m the span of (monomial multiple of generator) is a
    lattice of integer coefficient vectors, one row per (generator,
    monomial), whose rank is ``certified_rank``, proven from both sides as
    its docstring states.  The upper bound reads left-null vectors that
    the presentation's forms give: when gen_i = l_i C and gen_j = l_j C,
    each monomial mu of degree m - deg - 1 turns l_j gen_i - l_i gen_j = 0
    into the integer relation with l_j[a] on row (gen_i, mu x_a) and
    -l_i[a] on row (gen_j, mu x_a).  They are built only when the rank
    searched mod a prime falls short of full.  A generator's degree is its
    number of forms.  A monomial of degree at most max_degree is keyed by
    the integer sum e_a B^a with B = max_degree + 1, so the key of a
    product is the sum of the keys.  The ring is generated in degree 1, so
    R_{k+1} = S_1 R_k: once a degree is zero, every higher one is, and the
    remaining degrees are padded with zeros instead of ranked.
    """
    powers = [(max_degree + 1) ** a for a in range(pres.nvars)]
    gens = [(len(factors),
             [(sum(e * b for e, b in zip(exp, powers)), c) for exp, c in gen])
            for gen, factors in zip(pres.gens, pres.forms)]
    pairs = _cofactor_pairs(pres.forms)
    keys = []  # keys[m]: the monomials of degree m, in basis order
    index = []  # index[m]: each key's place in keys[m]
    dims = []

    def syzygies(m, start):
        """Degree m's relations; row (gen g, monomial mu) is start[g] plus
        mu's place among the monomials of degree m - deg g."""
        for i, j, li, lj in pairs:
            g = gens[i][0]
            if g < m:
                place = index[m - g]
                for mu in keys[m - g - 1]:
                    yield ([(start[i] + place[mu + p], c) for p, c in zip(powers, lj) if c]
                           + [(start[j] + place[mu + p], -c) for p, c in zip(powers, li) if c])

    for m in range(max_degree + 1):
        if dims and dims[-1] == 0:
            return tuple(dims) + (0,) * (max_degree + 1 - m)
        keys.append([sum(powers[a] for a in combo) for combo in
                     combinations_with_replacement(range(pres.nvars), m)])
        index.append({k: i for i, k in enumerate(keys[m])})
        place = index[m]
        rows = []
        start = []  # start[g]: the first row of generator g
        for g, terms in gens:
            start.append(len(rows))
            for shift in keys[m - g] if g <= m else ():
                row = [0] * len(place)
                for k, c in terms:
                    row[place[k + shift]] += c
                rows.append(row)
        dims.append(len(place) - certified_rank(rows, len(place), syzygies(m, start)))
    return tuple(dims)


def ring_dims(weights) -> tuple:
    """Quotient-ring dimensions for the ordinary presentation, to two
    degrees past the top degree n − d, so that vanishing beyond it shows."""
    d = len(weights[0]) if weights else 0
    return hilbert_dims(cohomology_presentation(weights), len(weights) - d + 2)


def circle_dims(setup: TorusSetup) -> tuple:
    """Quotient-ring dimensions for the circle-equivariant presentation.

    Runs to three degrees past the top degree n − d of the ordinary ring:
    the dimensions are cumulative sums of the Betti numbers, so they should
    stay constant from the top on, and the extra degrees show it.
    """
    return hilbert_dims(circle_equivariant_presentation(setup),
                        setup.n - setup.dim + 3)

