"""Reference flat enumeration by closing every subset, in Fraction arithmetic.

This is the enumeration the package used before it built the flat lattice
from coatoms.  Every flat is the closure of one of its maximal independent
subsets, so the closures of all subsets of size up to the rank cover every
flat.  ``test_flats.py`` compares ``flats.lattice`` against it on
configurations drawn by ``weight_configurations``.  Every other test that
needs the flats or coatoms of a configuration as inputs reads them here
rather than from the lattice, so a fault in the lattice cannot hide by
agreeing with itself.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st


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


def _basis(weights, subset):
    basis = []
    for s in subset:
        _absorb(basis, [Fraction(x) for x in weights[s]])
    return basis


def closure(weights, subset) -> tuple:
    """Indices of all rows inside the span of the rows named by subset."""
    basis = _basis(weights, subset)
    return tuple(
        j for j in range(len(weights))
        if _in_span(basis, [Fraction(x) for x in weights[j]])
    )


def reference_flats(weights) -> tuple:
    """All (flat, rank) pairs, sorted by (size, lexicographic order)."""
    n = len(weights)
    r = len(_basis(weights, range(n)))
    found = set()
    for size in range(r + 1):
        for subset in combinations(range(n), size):
            found.add(closure(weights, subset))
    return tuple((f, len(_basis(weights, f)))
                 for f in sorted(found, key=lambda f: (len(f), f)))


def reference_coatoms(weights) -> tuple:
    """The flats of rank one less than the whole, in flat order."""
    table = reference_flats(weights)
    return tuple(f for f, r in table if r == table[-1][1] - 1)


@st.composite
def weight_configurations(draw):
    """Up to 8 integer rows of width up to 4, entries in [-2, 2], with zero
    rows and rows parallel to earlier ones drawn on purpose."""
    d = draw(st.integers(min_value=0, max_value=4))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["free", "zero", "parallel"]))
        if kind == "zero":
            rows.append((0,) * d)
        elif kind == "parallel" and rows:
            scale = draw(st.sampled_from([-2, -1, 1, 2]))
            rows.append(tuple(scale * x for x in draw(st.sampled_from(rows))))
        else:
            rows.append(tuple(draw(st.integers(min_value=-2, max_value=2))
                              for _ in range(d)))
    return tuple(rows)
