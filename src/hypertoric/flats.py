"""Closed subsets (flats) of an integer weight configuration.

A subset J of the row indices is a flat when it already contains every row
lying in the rational span of its members.  Flats index the fixed loci and
critical data downstream, so everything here is exact.

The flats form a lattice, built once per weights.  Every flat is an
intersection of coatoms, the flats of rank one less than the whole (Oxley,
*Matroid Theory*, 2011), and each coatom is the closure of an independent
subset of that size.  The lattice stores each flat as a bitmask, bit j for
row j, with its rank attached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import EnumerationTooLarge
from .exact import int_rank

MAX_GROUND_SET = 14


def flat_rank(weights, subset) -> int:
    if not subset:
        return 0
    return int_rank([list(weights[j]) for j in subset], len(weights[0]))


def closure(weights, subset) -> tuple:
    """Indices of all rows inside the span of the rows named by subset."""
    r = flat_rank(weights, subset)
    return tuple(j for j in range(len(weights))
                 if j in subset or flat_rank(weights, (*subset, j)) == r)


def _mask(subset) -> int:
    return sum(1 << j for j in subset)


def _indices(mask) -> tuple:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=None)
def lattice(weights) -> tuple:
    """Every flat as a (bitmask, rank) pair, in (size, lexicographic) order.

    The coatoms are the closures of the independent subsets of size
    rank - 1; a subset inside a coatom already found closes to that coatom
    or is dependent, so it is skipped.  The flats are then the intersections
    of coatoms, the whole ground set being the empty intersection.
    """
    n = len(weights)
    if n > MAX_GROUND_SET:
        raise EnumerationTooLarge(
            f"{n} rows exceeds the flat-enumeration bound of {MAX_GROUND_SET}")
    top = flat_rank(weights, tuple(range(n)))
    hyperplanes = []
    for subset in combinations(range(n), max(top - 1, 0)):
        mask = _mask(subset)
        if any(mask & h == mask for h in hyperplanes):
            continue
        if flat_rank(weights, subset) == top - 1:
            hyperplanes.append(_mask(closure(weights, subset)))
    masks = frontier = {(1 << n) - 1}
    while frontier:
        frontier = {f & h for f in frontier for h in hyperplanes} - masks
        masks = masks | frontier
    flats = sorted(map(_indices, masks), key=lambda f: (len(f), f))
    return tuple((_mask(f), flat_rank(weights, f)) for f in flats)


@lru_cache(maxsize=None)
def enumerate_flats(weights) -> tuple:
    """All flats, sorted by (size, lexicographic order)."""
    return tuple(_indices(mask) for mask, _ in lattice(weights))


@lru_cache(maxsize=None)
def coatoms(weights) -> tuple:
    """Flats of rank one less than the whole configuration, in flat order."""
    ranked = lattice(weights)
    top = ranked[-1][1]
    return tuple(f for f, (_, r) in zip(enumerate_flats(weights), ranked)
                 if r == top - 1)
