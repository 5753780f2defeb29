"""Independent reference answers for the benchmark's generated requests.

Nothing here imports the package under test.  The Poincare polynomial of a
smooth toric hyperkahler quotient depends only on the matroid of its weight
rows (Hausel-Sturmfels): P(q) = q^(n-d) T_M(1, 1/q), where
T_M(1, y) is the sum over spanning row subsets A of (y - 1)^(|A| - d).
Every other exact answer the benchmark checks (census face counts, ring
dimensions, the modification polynomials) follows from P, and the flow
checks need the critical levels of flats and the genericity of the
levels, computed here with rational arithmetic.
"""

from fractions import Fraction
from itertools import combinations
from math import comb


def rank(rows) -> int:
    """Exact rank of a list of rational row vectors."""
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def _reduce(basis, row):
    """Row reduced against an echelon basis of (pivot, vector) pairs."""
    vec = [Fraction(x) for x in row]
    for piv, b in basis:
        if vec[piv]:
            f = vec[piv] / b[piv]
            vec = [x - f * y for x, y in zip(vec, b)]
    return vec


def spanning_counts(weights) -> list:
    """Number of spanning row subsets of each size.

    A depth-first walk decides one row at a time; once the chosen rows span,
    every completion spans too and is counted at once.
    """
    n = len(weights)
    d = len(weights[0]) if weights else 0
    counts = [0] * (n + 1)

    def walk(i, basis, size):
        if len(basis) == d:
            rest = n - i
            for j in range(rest + 1):
                counts[size + j] += comb(rest, j)
            return
        if d - len(basis) > n - i:
            return
        walk(i + 1, basis, size)
        vec = _reduce(basis, weights[i])
        piv = next((c for c, x in enumerate(vec) if x), None)
        walk(i + 1, basis if piv is None else basis + [(piv, vec)], size + 1)

    walk(0, [], 0)
    return counts


def poincare(weights) -> list:
    """Poincare coefficients (constant term first, trailing zeros trimmed)."""
    n = len(weights)
    d = len(weights[0]) if weights else 0
    coeffs = [0] * (n - d + 1)
    for size, count in enumerate(spanning_counts(weights)):
        k = size - d
        # q^(n-d) (1/q - 1)^k = q^(n-d-k) (1 - q)^k
        for j in range(k + 1 if count else 0):
            coeffs[n - d - k + j] += count * comb(k, j) * (-1) ** j
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def census_counts(poly, length) -> list:
    """Bounded face counts d_k with P(q) = sum d_k (q - 1)^k: P(t + 1) in t."""
    out = [0] * length
    for power, c in enumerate(poly):
        for k in range(power + 1):
            out[k] += c * comb(power, k)
    return out


def ring_arrays(poly, n, d) -> tuple:
    """Expected (ordinary, circle) Hilbert tables of the analyze report.

    The ordinary table runs two degrees past the top degree n - d and
    vanishes there; the circle table is its running sum, one entry longer.
    """
    ordinary = list(poly) + [0] * (n - d + 3 - len(poly))
    circle, total = [], 0
    for m in range(n - d + 4):
        total += ordinary[m] if m < len(ordinary) else 0
        circle.append(total)
    return ordinary, circle


def expected_analyze(weights) -> dict:
    n, d = len(weights), len(weights[0]) if weights else 0
    poly = poincare(weights)
    ordinary, circle = ring_arrays(poly, n, d)
    return {"poincare": poly, "census_d": census_counts(poly, n - d + 1),
            "ring_ordinary": ordinary, "ring_circle": circle}


def expected_census(weights) -> dict:
    n, d = len(weights), len(weights[0]) if weights else 0
    poly = poincare(weights)
    return {"poincare": poly, "d": census_counts(poly, n - d + 1)}


def expected_modify(weights, column) -> dict:
    d = len(weights[0]) if weights else 0
    enlarged = [list(row) + [c] for row, c in zip(weights, column)]
    extended = enlarged + [[0] * d + [-1]]
    return {"base": poincare(weights), "enlarged": poincare(enlarged),
            "extended": poincare(extended)}


# ---------------------------------------------------------------------------
# Flats and critical levels, for the flow checks
# ---------------------------------------------------------------------------


def closure(weights, subset) -> tuple:
    rows = [weights[j] for j in subset]
    r = rank(rows)
    return tuple(j for j in range(len(weights))
                 if j in subset or rank(rows + [weights[j]]) == r)


def flats(weights) -> list:
    n = len(weights)
    r = rank(weights)
    found = set()
    for size in range(r + 1):
        for subset in combinations(range(n), size):
            found.add(closure(weights, subset))
    return sorted(found, key=lambda f: (len(f), f))


def _solve(mat, rhs):
    """Solution of a square nonsingular rational system."""
    k = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(k):
        piv = next(i for i in range(c, k) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        for i in range(k):
            if i != c and aug[i][c] != 0:
                f = aug[i][c] / aug[c][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [aug[i][k] / aug[i][i] for i in range(k)]


class Metric:
    """The dual pairing <a, b> = a^T (B^T B)^(-1) b of a weight matrix B."""

    def __init__(self, weights):
        d = len(weights[0])
        gram = [[sum(row[i] * row[j] for row in weights) for j in range(d)]
                for i in range(d)]
        cols = [_solve(gram, [int(i == j) for i in range(d)]) for j in range(d)]
        self.inv = [[cols[j][i] for j in range(d)] for i in range(d)]
        self.weights = weights

    def pair(self, a, b) -> Fraction:
        return sum(a[i] * self.inv[i][j] * b[j]
                   for i in range(len(a)) for j in range(len(b)))

    def residual(self, vec, subset):
        """vec minus its projection onto the span of the subset rows."""
        rows = []
        for j in subset:
            if rank(rows + [self.weights[j]]) > len(rows):
                rows.append(self.weights[j])
        if not rows:
            return list(vec)
        gram = [[self.pair(u, v) for v in rows] for u in rows]
        coef = _solve(gram, [self.pair(u, vec) for u in rows])
        return [v - sum(c * u[i] for c, u in zip(coef, rows))
                for i, v in enumerate(vec)]

    def level(self, beta, subset) -> Fraction:
        """Exact critical level |beta_J|^2 of the flat J = subset."""
        re = self.residual([b[0] for b in beta], subset)
        im = self.residual([b[1] for b in beta], subset)
        return self.pair(re, re) + self.pair(im, im)


def beta_is_generic(weights, beta) -> bool:
    """Whether distinct flats get distinct nonzero-pairing residuals and levels.

    These are the conditions under which every holomorphic flow limit lies
    on exactly one critical component, so a limit can be classified.
    """
    metric = Metric(weights)
    seen_res, seen_level = set(), set()
    for f in flats(weights):
        re = metric.residual([b[0] for b in beta], f)
        im = metric.residual([b[1] for b in beta], f)
        for i, row in enumerate(weights):
            if i not in f and metric.pair(re, row) == 0 and metric.pair(im, row) == 0:
                return False
        res = (tuple(re), tuple(im))
        level = metric.pair(re, re) + metric.pair(im, im)
        if res in seen_res or level in seen_level:
            return False
        seen_res.add(res)
        seen_level.add(level)
    return True


def alpha_is_generic(weights, alpha) -> bool:
    """Whether <alpha_J, u_i> != 0 for every proper flat J and row i outside it.

    This also makes the Gale-dual arrangement simple: hyperplanes S with
    dependent normals meet exactly when alpha lies in the span of the rows
    outside S, which span less than everything, so in a proper flat.
    """
    metric = Metric(weights)
    d = rank(weights)
    for f in flats(weights):
        if rank([weights[j] for j in f]) == d:
            continue
        res = metric.residual(alpha, f)
        if any(metric.pair(res, row) == 0
               for i, row in enumerate(weights) if i not in f):
            return False
    return True


def critical_levels(weights, alpha, beta, energy) -> list:
    """Exact critical values of a flow energy, one per flat.

    On the torus the energies have their critical points where the
    coordinates off a flat J vanish, with value |alpha_J|^2 / 4 for muR2
    (the real moment map carries a factor 1/2), |beta_J|^2 for muC2, and
    their sum for muHK2; J = all rows gives the minimum 0.
    """
    metric = Metric(weights)
    levels = set()
    for f in flats(weights):
        level = Fraction(0)
        if energy in ("muR2", "muHK2"):
            res = metric.residual(alpha, f)
            level += metric.pair(res, res) / 4
        if energy in ("muC2", "muHK2"):
            level += metric.level(beta, f)
        levels.add(level)
    return sorted(levels)
