"""Bounded-face census of the coordinate hyperplanes in {z : B^T z = alpha}.

The arrangement lives in the affine space {z in R^n : B^T z = alpha}, cut by
the hyperplanes z_j = 0.  The census works from its vertices.  Each vertex
is solved once, in integer arithmetic; the faces that have it as their
lowest or highest point under a fixed lexicographic order are then read off
as sign vectors, with no feasibility test.  A face is bounded exactly when
it is the lowest-point face of one vertex and the highest-point face of
another, so the counts are exact and reproducible.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InvariantViolation
from .exact import int_solve, trim
from .torus import TorusSetup, integral, negative_rows


def _submasks(mask) -> list:
    """Every submask of an int bitmask, the empty one first."""
    subs = [0]
    while mask:
        bit = mask & -mask
        subs += [s | bit for s in subs]
        mask ^= bit
    return subs


def face_census(setup: TorusSetup) -> tuple:
    """Bounded face counts (d_0, ..., d_m) of the arrangement, m = n - d.

    Requires a generic alpha, which ``torus.negative_rows`` refuses with
    NonGenericAlpha otherwise: a generic alpha makes the arrangement simple
    (see ``torus._alpha_signs``).

    The arrangement is the affine space A = {z : B^T z = alpha} of dimension
    m, cut by the hyperplanes z_j = 0.  A face is a nonempty set of points
    of A with one sign vector (covector) of z.  A vertex is a basis T of d
    rows: z = 0 off T and z_T = (B_T^T)^-1 alpha.  For each row i off T the
    vector e_i with e_i = 1 at i, e_T = -(B_T^T)^-1 b_i and zero elsewhere
    lies in ker B^T, and these m vectors are the edge directions at the
    vertex v.  Simplicity puts no other hyperplane through v (z_T has no
    zero entry), so near v the faces are exactly v + sum t_i e_i with the
    signs of t_i off T free and the signs of z_T fixed.  Order R^n
    lexicographically (positive on a vector whose first nonzero entry is
    positive), which orders the directions of A; no edge is level, since an
    edge direction is nonzero.  Let u_i be the sign of e_i under it: the
    sign of its first nonzero entry, which is at a row of T before i or else
    e_i = 1.  The face of K, a set of rows off T, is lower at v when its
    edges at v are u_i e_i for i in K, and upper when they are -u_i e_i.

    1. Every face has a vertex in its closure: the closure of a face fixes
       the sign of every coordinate z_j, so a line in it would keep every
       z_j constant, and it is a polyhedron with no line.
    2. A polyhedron with a vertex is bounded iff the order has both a least
       and a greatest point on it: an unbounded one has a nonzero recession
       direction r, r is positive or negative, and along x + t r (t >= 0)
       there is no greatest point if r > 0 and no least point if r < 0.
    3. v is the least point of a face F whose closure contains v iff every
       edge of F at v is positive: near v the closure is the cone
       v + cone(edges), a sum of positive vectors is positive, and any
       point x of the closure has x - v in that cone, by convexity.  The
       greatest point is the same statement with every edge negative.

    So every bounded k-face is the lower face of exactly one vertex and the
    upper face of exactly one vertex, every other face is at most one of the
    two, and d_k counts the upper covectors of dimension k that also occur
    as lower covectors.  A covector is one int: the plus bitmask, then the
    minus bitmask shifted by n; its dimension is its bit count less d.
    Only the lower keys are stored; the upper ones are tested as made.
    """
    negative_rows(setup)
    weights = setup.weights
    n = setup.n
    d = setup.dim
    # Scaling alpha by one positive integer scales the arrangement.
    _, level = integral(setup.alpha)
    lower = set()
    vertices = []
    for basis in combinations(range(n), d):
        rest = [i for i in range(n) if i not in basis]
        solved = int_solve(
            [[weights[t][k] for t in basis] for k in range(d)],
            [[a] + [weights[i][k] for i in rest] for k, a in enumerate(level)])
        if solved is None:
            continue
        det, x = solved  # row of t: det scale z_t, then det ((B_T^T)^-1 b_i)_t
        orient = 1 if det > 0 else -1
        plus = minus = 0
        for t, row in zip(basis, x):
            if orient * row[0] > 0:
                plus |= 1 << t
            elif row[0]:
                minus |= 1 << t
            else:
                raise InvariantViolation(
                    f"hyperplane {t + 1} passes through the vertex of "
                    f"{tuple(b + 1 for b in basis)}")
        up = down = 0
        for col, i in enumerate(rest, 1):
            lead = next((-row[col] for t, row in zip(basis, x)
                         if t < i and row[col]), det)
            if orient * lead > 0:
                up |= 1 << i
            else:
                down |= 1 << i
        base = plus | minus << n
        lower.update([base | s for s in _submasks(up | down << n)])
        vertices.append((base, down | up << n))

    counts = [0] * (n - d + 1)
    for base, upper in vertices:
        for key in lower.intersection([base | s for s in _submasks(upper)]):
            counts[key.bit_count() - d] += 1
    return tuple(counts)


def census_poincare(counts) -> tuple:
    """Poincare polynomial sum d_k (q - 1)^k of bounded face counts, by
    Horner's rule: P <- (q - 1) P + d_k from the top nonzero count down."""
    poly = ()
    for c in reversed(trim(counts)):
        poly = tuple(x - y for x, y in zip((c,) + poly, poly + (0,)))
    return poly

