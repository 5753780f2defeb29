"""Reference dual metric, residual maps and Gale offsets in Fraction arithmetic.

This is the linear algebra the package used before it solved every exact
system fraction-free on integer rows: Gauss–Jordan elimination on Fraction
entries (``solve_exact``), the inverse Gram matrix (B^T B)^{-1} as Fraction
rows, and the residual map solved one unit covector at a time.  The tests
compare ``torus.metric_of``, the wall table ``torus.walls_of``, every
witness, sign split and critical level read off it, and ``torus._gale``
against it, and the FM census takes
its vertex solves and support kernels from here.  The kernels come from a
Fraction reduced row echelon form (``nullspace``), so ``torus._gale`` is
compared with it by row space.
"""

from fractions import Fraction
from functools import lru_cache


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
    """|beta_J|^2 in the dual metric."""
    gi = gram_inverse(weights)
    re = residual(weights, subset, [z.re for z in beta])
    im = residual(weights, subset, [z.im for z in beta])
    return pairing(gi, re, re) + pairing(gi, im, im)


def gale(weights, alpha) -> tuple:
    """(cmatrix, normals, offsets): the RREF kernel basis of B^T and the
    offsets that ``solve_exact`` picks for B^T offsets = alpha."""
    n = len(weights)
    cmatrix = tuple(nullspace(list(zip(*weights)), n))
    normals = tuple(tuple(row[j] for row in cmatrix) for j in range(n))
    if not alpha:
        return cmatrix, normals, (Fraction(0),) * n
    return cmatrix, normals, solve_exact(list(zip(*weights)), alpha)
