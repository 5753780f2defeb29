"""Bounded-face census of the Gale-dual affine hyperplane arrangement.

The census works from the vertices of the arrangement.  Each vertex is
solved once, in integer arithmetic; the faces that have it as their lowest
or highest point under a fixed lexicographic order are then read off as sign
vectors, with no feasibility test.  A face is bounded exactly when it is the
lowest-point face of one vertex and the highest-point face of another, so
the counts are exact and reproducible.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from .errors import InvariantViolation, NonGenericAlpha
from .exact import PoincarePoly, int_solve
from .torus import TorusSetup, alpha_witness, gale_of


def _submasks(mask) -> list:
    """Every submask of an int bitmask, the empty one first."""
    subs = [0]
    while mask:
        bit = mask & -mask
        subs += [s | bit for s in subs]
        mask ^= bit
    return subs


def face_census(setup: TorusSetup) -> tuple:
    """Bounded face counts (d_0, ..., d_m) of the dual arrangement.

    Requires a generic alpha and raises NonGenericAlpha otherwise: a generic
    alpha makes the arrangement simple (see ``torus.alpha_witness``).

    A face is a nonempty set of points with one sign vector (covector)
    against the hyperplanes a_j . y = b_j.  A vertex is an independent
    m-subset S of normals; with A_S the matrix of those rows, it is the point
    v = A_S^-1 b_S, and the columns d_i of A_S^-1 (a_i . d_i = 1, a_s . d_i
    = 0 for s != i) are its edge directions.  Simplicity puts no other
    hyperplane through v, so near v the faces are exactly v + sum t_i d_i
    with the signs of t_i on S free and the signs of v off S.  Order R^m
    lexicographically (a generic functional, positive on a vector whose first
    nonzero entry is positive; no edge is level) and let u_i be the sign of
    d_i under it.  The face of K within S is lower at v when its edges at v
    are u_i d_i for i in K, and upper when they are -u_i d_i.

    1. Every face has a vertex in its closure: the normals span R^m, so the
       closure of a face is a polyhedron with no line.
    2. A polyhedron with a vertex is bounded iff the functional attains both
       its minimum and its maximum on it: an unbounded one has a nonzero
       recession direction r, a generic functional f has f(r) != 0, and
       along x + t r (t >= 0) it has no maximum if f(r) > 0 and no minimum
       if f(r) < 0.
    3. v is the minimum of a face F whose closure contains v iff every edge
       of F at v goes up: near v the closure is the cone v + cone(edges),
       and a local minimum of a linear function on a convex set is global.
       The maximum is the same statement with every edge going down.

    So every bounded k-face is the lower face of exactly one vertex and the
    upper face of exactly one vertex, every other face is at most one of the
    two, and d_k counts the upper covectors of dimension k that also occur
    as lower covectors.  A covector is one int: the plus bitmask, then the
    minus bitmask shifted by n; its dimension is its bit count less n - m.
    Only the lower keys are stored; the upper ones are tested as made.
    """
    if (witness := alpha_witness(setup)) is not None:
        raise NonGenericAlpha(witness)
    gale = gale_of(setup)
    m = setup.ambient_dim
    n = setup.n
    normals = gale.normals
    offsets = gale.offsets
    # Scaling every offset by one positive integer scales the arrangement.
    scale = lcm(*(off.denominator for off in offsets))
    offsets = [int(off * scale) for off in offsets]
    lower = set()
    vertices = []
    for support in combinations(range(n), m):
        solved = int_solve(
            [normals[i] for i in support],
            [[int(r == c) for c in range(m)] + [offsets[i]]
             for r, i in enumerate(support)])
        if solved is None:
            continue
        det, inv = solved  # rows: det * A_S^-1, then det * v
        point = [row[m] for row in inv]
        orient = 1 if det > 0 else -1
        plus = minus = 0
        for j in range(n):
            if j in support:
                continue
            side = orient * (sum(a * y for a, y in zip(normals[j], point))
                             - det * offsets[j])
            if side > 0:
                plus |= 1 << j
            elif side < 0:
                minus |= 1 << j
            else:
                raise InvariantViolation(
                    f"hyperplane {j + 1} passes through the vertex of "
                    f"{tuple(i + 1 for i in support)}")
        up = down = 0
        for col, i in enumerate(support):
            lead = next(row[col] for row in inv if row[col])
            if orient * lead > 0:
                up |= 1 << i
            else:
                down |= 1 << i
        base = plus | minus << n
        lower.update([base | s for s in _submasks(up | down << n)])
        vertices.append((base, down | up << n))

    counts = [0] * (m + 1)
    for base, upper in vertices:
        for key in lower.intersection([base | s for s in _submasks(upper)]):
            counts[key.bit_count() - (n - m)] += 1
    return tuple(counts)


def census_poincare(counts) -> PoincarePoly:
    """Poincare polynomial from bounded face counts: sum d_k (q - 1)^k."""
    q_minus_1 = PoincarePoly((-1, 1))
    total = PoincarePoly.zero()
    for k, c in enumerate(counts):
        total = total + PoincarePoly((c,)) * q_minus_1 ** k
    return total

