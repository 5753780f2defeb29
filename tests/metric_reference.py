"""Reference dual metric, residual maps and Gale duals in Fraction arithmetic.

This is the linear algebra the package used before it solved every exact
system fraction-free on integer rows: Gauss–Jordan elimination on Fraction
entries (``solve_exact``), the inverse Gram matrix (B^T B)^{-1} as Fraction
rows, and the residual map solved one unit covector at a time.  The tests
compare the wall table ``torus.walls_of``, whose bottom flat's level form
is the metric, and every witness, negative row and critical level read off
it, against it.  The Gale dual (``gale``) is the arrangement the face
census used to read, built from a Fraction reduced row echelon form
(``nullspace``).  The FM census takes its hyperplanes, vertex solves and
support kernels from here, and the subset search of the genericity tests
its hyperplanes.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm


def solve_exact(rows, rhs):
    """One exact solution of M x = rhs with free variables set to zero.

    rows are the rows of M.  Returns a tuple of Fractions, or None when the
    system is inconsistent.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    if len(rhs) != nr:
        raise ValueError("right-hand side has wrong length")
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(nr)]
    piv_cols = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if aug[i][nc] != 0:
            return None
    out = [Fraction(0)] * nc
    for i, c in enumerate(piv_cols):
        out[c] = aug[i][nc]
    return tuple(out)


def rref(rows, ncols):
    """(reduced rows, pivot columns) of the Fraction reduced row echelon
    form, zero rows dropped; it depends only on the row space."""
    aug = [[Fraction(x) for x in row] for row in rows]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    return tuple(map(tuple, aug[:r])), tuple(piv_cols)


def nullspace(rows, ncols):
    """Basis of {v : M v = 0} over Q, one Fraction row per free column f:
    1 at f, minus the RREF column f on the pivots, zero elsewhere."""
    reduced, piv_cols = rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in piv_cols:
            continue
        v = [Fraction(int(j == f)) for j in range(ncols)]
        for row, c in zip(reduced, piv_cols):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a]


@lru_cache(maxsize=None)
def gram_inverse(weights):
    """(B^T B)^{-1} as Fraction rows, one solve per unit column."""
    d = len(weights[0]) if weights else 0
    gram = matmul(list(zip(*weights)), weights)
    cols = [solve_exact(gram, [int(i == j) for i in range(d)]) for j in range(d)]
    return [list(row) for row in zip(*cols)]


def pairing(gram_inv, a, b) -> Fraction:
    """a^T G^{-1} b."""
    return sum((ai * g * bj for ai, row in zip(a, gram_inv)
                for g, bj in zip(row, b)), Fraction(0))


@lru_cache(maxsize=None)
def residual_map(weights, subset) -> tuple:
    """Rows of the matrix sending a covector to its residual against the
    span of the subset rows, one solve per unit covector."""
    d = len(weights[0])
    u = [list(weights[j]) for j in subset]
    ug = matmul(u, gram_inverse(weights))
    gram_sub = matmul(ug, list(zip(*u)))
    cols = []
    for i in range(d):
        coeffs = solve_exact(gram_sub, [row[i] for row in ug])
        col = [Fraction(int(j == i)) for j in range(d)]
        for c, row in zip(coeffs, u):
            for j, x in enumerate(row):
                col[j] -= c * x
        cols.append(col)
    return tuple(zip(*cols))


def residual(weights, subset, vec) -> tuple:
    return tuple(sum((r * v for r, v in zip(row, vec)), Fraction(0))
                 for row in residual_map(weights, subset))


def critical_level(weights, beta, subset) -> Fraction:
    """|beta_J|^2 in the dual metric, beta given as (re, im) pairs."""
    gi = gram_inverse(weights)
    re = residual(weights, subset, [x for x, _ in beta])
    im = residual(weights, subset, [y for _, y in beta])
    return pairing(gi, re, re) + pairing(gi, im, im)


def hk_critical_level(weights, alpha, beta, subset) -> Fraction:
    """1/4 |alpha_J|^2 + |beta_J|^2, the level of the muHK2 energy on the
    flat J.  The flows take the real level halved, to match the 1/2 of
    their real moment map (``flowlab.torus_rep``), hence the 1/4."""
    res = residual(weights, subset, alpha)
    return (pairing(gram_inverse(weights), res, res) / 4
            + critical_level(weights, beta, subset))


def gale(weights, alpha) -> tuple:
    """(normals, offsets) of the Gale-dual arrangement: normal j is column j
    of the RREF kernel basis C of B^T, each row scaled to integers, and the
    offsets are those ``solve_exact`` picks for B^T offsets = alpha.
    Hyperplane j is {y : normal_j . y = offset_j}; with z = offsets - C^T y
    it is the hyperplane z_j = 0 of {z : B^T z = alpha}."""
    n = len(weights)
    cmatrix = [[int(x * lcm(*(y.denominator for y in row))) for x in row]
               for row in nullspace(list(zip(*weights)), n)]
    normals = tuple(tuple(row[j] for row in cmatrix) for j in range(n))
    if not alpha:
        return normals, (Fraction(0),) * n
    return normals, solve_exact(list(zip(*weights)), alpha)
