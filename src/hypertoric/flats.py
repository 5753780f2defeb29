"""Closed subsets (flats) of an integer weight configuration.

A subset J of the row indices is a flat when it already contains every row
lying in the rational span of its members.  Flats index the fixed loci and
critical data downstream, so everything here is exact.

The flats form a lattice, built once per weights.  Every flat is an
intersection of coatoms, the flats of rank one less than the whole (Oxley,
*Matroid Theory*, 2011), and each coatom is the closure of an independent
subset of that size.  The lattice keeps each flat with its basis, the rows
of the flat, in row order, that raise the rank of the rows before them; the
flat's rank is the length of its basis.  Every later use of a flat's rank
or independent rows reads them here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import EnumerationTooLarge
from .exact import int_rank

MAX_GROUND_SET = 14


def _mask(subset) -> int:
    return sum(1 << j for j in subset)


def _indices(mask) -> tuple:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=None)
def lattice(weights) -> tuple:
    """Every flat as a (flat, basis) pair, in (size, lexicographic) order.

    The basis of the whole ground set, the last flat, gives the rank r.  The
    coatoms close the independent subsets of size r - 1 by the rows that do
    not raise their rank; a subset inside a coatom already found closes to
    that coatom or is dependent, so it is skipped.  The flats are then the
    intersections of coatoms, the whole ground set being the empty one.
    """
    n = len(weights)
    if n > MAX_GROUND_SET:
        raise EnumerationTooLarge(
            f"{n} rows exceeds the flat-enumeration bound of {MAX_GROUND_SET}")
    d = len(weights[0]) if weights else 0

    def rank(subset):
        return int_rank([weights[j] for j in subset], d)

    def basis(flat):
        picked = ()
        for j in flat:
            if len(picked) < d and rank((*picked, j)) > len(picked):
                picked += (j,)
        return picked

    whole = tuple(range(n))
    top = basis(whole)
    r = len(top) - 1  # the rank of a coatom
    hyperplanes = []
    for subset in combinations(whole, max(r, 0)):
        mask = _mask(subset)
        if any(mask & h == mask for h in hyperplanes) or rank(subset) != r:
            continue
        hyperplanes.append(mask | _mask(
            j for j in whole if not mask >> j & 1 and rank((*subset, j)) == r))
    masks = frontier = {(1 << n) - 1}
    while frontier:
        frontier = {f & h for f in frontier for h in hyperplanes} - masks
        masks = masks | frontier
    flats = sorted(map(_indices, masks), key=lambda f: (len(f), f))
    return tuple((f, basis(f)) for f in flats[:-1]) + ((whole, top),)

