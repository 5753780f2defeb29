"""Closed subsets (flats) of an integer weight configuration.

A subset J of the row indices is a flat when it already contains every row
lying in the rational span of its members.  Flats index the fixed loci and
critical data downstream, so everything here is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import EnumerationTooLarge
from .exact import RatMatrix, rank

MAX_GROUND_SET = 14


def _absorb(basis, vec):
    """Reduce vec against the echelon basis; insert the residue if nonzero."""
    v = list(vec)
    for pivot_col, row in basis:
        if v[pivot_col] != 0:
            f = v[pivot_col]
            v = [a - f * b for a, b in zip(v, row)]
    for col, a in enumerate(v):
        if a != 0:
            inv = Fraction(1) / a
            basis.append((col, [x * inv for x in v]))
            return True
    return False


def _in_span(basis, vec):
    v = list(vec)
    for pivot_col, row in basis:
        if v[pivot_col] != 0:
            f = v[pivot_col]
            v = [a - f * b for a, b in zip(v, row)]
    return all(a == 0 for a in v)


def closure(weights, subset) -> tuple:
    """Indices of all rows inside the span of the rows named by subset."""
    basis = []
    for s in subset:
        _absorb(basis, [Fraction(x) for x in weights[s]])
    return tuple(
        j for j in range(len(weights))
        if _in_span(basis, [Fraction(x) for x in weights[j]])
    )


def is_flat(weights, subset) -> bool:
    return closure(weights, subset) == tuple(sorted(subset))


def flat_rank(weights, subset) -> int:
    if not subset:
        return 0
    return rank(RatMatrix([weights[j] for j in subset]))


@lru_cache(maxsize=None)
def enumerate_flats(weights) -> tuple:
    """All flats, sorted by (size, lexicographic order).

    Every flat is the closure of one of its maximal independent subsets, so
    closures of subsets of size up to rank(weights) cover everything.
    """
    n = len(weights)
    if n > MAX_GROUND_SET:
        raise EnumerationTooLarge(
            f"{n} rows exceeds the flat-enumeration bound of {MAX_GROUND_SET}")
    r = rank(RatMatrix(weights)) if n else 0
    found = set()
    for size in range(r + 1):
        for subset in combinations(range(n), size):
            found.add(closure(weights, subset))
    return tuple(sorted(found, key=lambda f: (len(f), f)))


def proper_flats(weights) -> tuple:
    """Flats other than the full ground set (equivalently: of non-maximal rank)."""
    full = tuple(range(len(weights)))
    return tuple(f for f in enumerate_flats(weights) if f != full)


@lru_cache(maxsize=None)
def coatoms(weights) -> tuple:
    """Flats of rank one less than the whole configuration, in flat order."""
    top = flat_rank(weights, tuple(range(len(weights))))
    return tuple(f for f in proper_flats(weights)
                 if flat_rank(weights, f) == top - 1)
