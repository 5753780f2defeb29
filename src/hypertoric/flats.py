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

MAX_GROUND_SET = 14


def _mask(subset) -> int:
    return sum(1 << j for j in subset)


def _indices(mask) -> tuple:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _reduced(echelon, row):
    """row reduced against a fraction-free echelon, a list of (pivot
    column, row) pairs each zero at the pivot columns before its own: zero
    exactly when row lies in the echelon's span."""
    for col, e in echelon:
        x = row[col]
        if x:
            p = e[col]
            row = [p * a - x * b for a, b in zip(row, e)]
    return row


def _extend(echelon, row) -> bool:
    """Whether row raises the echelon's rank; if so its reduction joins it."""
    reduced = _reduced(echelon, row)
    col = next((c for c, x in enumerate(reduced) if x), None)
    if col is not None:
        echelon.append((col, reduced))
    return col is not None


@lru_cache(maxsize=None)
def lattice(weights) -> tuple:
    """Every flat as a (flat, basis) pair, in (size, lexicographic) order.

    Ranks and spans are read off one fraction-free row echelon per subset:
    a row joins it reduced against the rows already there, a multiple of
    it minus multiples of theirs that clears their pivot columns.  The
    echelon's rows stay independent with distinct pivots, so a row lies in
    their span exactly when it reduces to zero.  A flat's basis is the
    rows of the flat that raise the echelon's rank, in row order, at most
    d of them.  Each prefix of a basis is then the basis of its own
    closure, a flat: a row of that closure outside the prefix lies in the
    span of the prefix rows before it.  The basis of the whole ground set,
    the last flat, gives the rank r.  The coatoms close the independent
    subsets of size r - 1 by the rows that reduce to zero against their
    echelon; a subset inside a coatom already found closes to that coatom
    or is dependent, so it is skipped.  The flats are then the
    intersections of coatoms, the whole ground set being the empty one.
    """
    n = len(weights)
    if n > MAX_GROUND_SET:
        raise EnumerationTooLarge(
            f"{n} rows exceeds the flat-enumeration bound of {MAX_GROUND_SET}")
    d = len(weights[0]) if weights else 0

    def basis(flat):
        echelon, picked = [], ()
        for j in flat:
            if len(picked) == d:
                break
            if _extend(echelon, weights[j]):
                picked += (j,)
        return picked

    whole = tuple(range(n))
    top = basis(whole)
    r = len(top) - 1  # the rank of a coatom
    hyperplanes = []
    for subset in combinations(whole, r) if r >= 0 else ():
        mask = _mask(subset)
        if any(mask & h == mask for h in hyperplanes):
            continue
        echelon = []
        if all(_extend(echelon, weights[j]) for j in subset):
            hyperplanes.append(mask | _mask(
                j for j in whole if not mask >> j & 1
                and not any(_reduced(echelon, weights[j]))))
    masks = frontier = {(1 << n) - 1}
    while frontier:
        frontier = {f & h for f in frontier for h in hyperplanes} - masks
        masks = masks | frontier
    flats = sorted(map(_indices, masks), key=lambda f: (len(f), f))
    return tuple((f, basis(f)) for f in flats[:-1]) + ((whole, top),)
