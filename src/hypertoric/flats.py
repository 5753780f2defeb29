"""Closed subsets (flats) of an integer weight configuration.

A subset J of the row indices is a flat when it already contains every row
lying in the rational span of its members.  Flats index the fixed loci and
critical data downstream, so everything here is exact.

The flats form a lattice, built once per weights.  The lattice keeps each
flat with its basis, the rows of the flat, in row order, that raise the
rank of the rows before them; the flat's rank is the length of its basis.
A basis less its last row is the basis of a flat below it, so the lattice
builds each flat from that one (see ``lattice``).  Every later use of a
flat's rank or independent rows reads them here.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EnumerationTooLarge

MAX_GROUND_SET = 14


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


@lru_cache(maxsize=None)
def lattice(weights) -> tuple:
    """Every flat as a (flat, basis) pair, in (size, lexicographic) order.

    Spans are read off a fraction-free row echelon: a row joins it reduced
    against the rows already there, a multiple of it minus multiples of
    theirs that clears their pivot columns.  The echelon's rows stay
    independent with distinct pivots, so a row lies in their span exactly
    when it reduces to zero.

    Each prefix of a flat K's basis is the basis of its own closure, a flat:
    a row of that closure outside the prefix lies in the span of the prefix
    rows before it.  So K's basis less its last row j is the basis of a flat
    P below K, and j is the first row of K outside P, since the rows of K
    before j lie in the span of P's basis.  The lattice is built up from the
    bottom flat, the zero rows with basis (), and each flat P carries the
    reductions of the rows outside it against the echelon of its basis,
    none of them zero.  For each row j outside P after P's last basis row
    and in no cover of P made so far, j's reduction joins the echelon:
    reducing the other rows' reductions against it gives theirs against the
    longer echelon, and the rows whose reductions are then zero make up,
    with P and j, the cover C of P that j spans.  C is kept, with basis P's
    plus (j,), exactly when no row of C outside P comes before j; so each
    flat is made once, from the flat of its basis prefix.
    """
    n = len(weights)
    if n > MAX_GROUND_SET:
        raise EnumerationTooLarge(
            f"{n} rows exceeds the flat-enumeration bound of {MAX_GROUND_SET}")
    outside = {j: row for j, row in enumerate(weights) if any(row)}
    stack = [(sum(1 << j for j in range(n) if j not in outside), (), outside)]
    table = []
    while stack:
        flat, basis, outside = stack.pop()
        table.append((_indices(flat), basis))
        seen = 0  # the rows of the covers of flat made so far
        for j, row in outside.items():
            if basis and j < basis[-1] or seen >> j & 1:
                continue
            step = [(next(c for c, x in enumerate(row) if x), row)]
            rest = {k: _reduced(step, v) for k, v in outside.items() if k != j}
            cover = sum(1 << k for k, v in rest.items() if not any(v)) | 1 << j
            seen |= cover
            if not cover & (1 << j) - 1:
                stack.append((flat | cover, basis + (j,),
                              {k: v for k, v in rest.items() if any(v)}))
    return tuple(sorted(table, key=lambda e: (len(e[0]), e[0])))
