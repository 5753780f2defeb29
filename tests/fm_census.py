"""Reference face census by integer Fourier-Motzkin elimination.

This is the census the package used before it counted faces from vertices.
It reads the Gale-dual arrangement of ``metric_reference.gale``, where the
vertex census reads the coordinates z of R^n.  It walks supports
(independent subsets of normals), grows the sign vectors of the arrangement
induced on each support's intersection one hyperplane at a time, discards
infeasible prefixes, and keeps the cells whose recession cone is pointed.
The tests compare the vertex census against it.

Constraints are triples (coeffs, const, strict), meaning coeffs . y + const
> 0 when strict and >= 0 otherwise.
"""

from itertools import combinations
from math import gcd

from hypertoric.errors import InvariantViolation
from hypertoric.exact import int_rank
from hypertoric.torus import negative_rows
from metric_reference import gale, nullspace, solve_exact


def _normalize(coeffs, const, strict):
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    g = gcd(g, abs(const))
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        const //= g
    return (tuple(coeffs), const, strict)


def _const_violated(const, strict) -> bool:
    return const < 0 or (const == 0 and strict)


def fm_feasible(constraints, nvars) -> bool:
    """Exact feasibility of a strict/weak inequality system by elimination."""
    live = set()
    for coeffs, const, strict in constraints:
        if any(coeffs):
            live.add(_normalize(coeffs, const, strict))
        elif _const_violated(const, strict):
            return False
    remaining = list(range(nvars))
    while live:
        if not remaining:
            raise InvariantViolation(
                f"a constraint survived the elimination of all {nvars} variables")
        best_var, best_cost = None, None
        for v in remaining:
            pos = sum(1 for c in live if c[0][v] > 0)
            neg = sum(1 for c in live if c[0][v] < 0)
            cost = pos * neg
            if cost == 0 and (pos or neg):
                best_var, best_cost = v, 0
                break
            if (pos or neg) and (best_cost is None or cost < best_cost):
                best_var, best_cost = v, cost
        if best_var is None:  # no live constraint mentions a remaining var
            break
        v = best_var
        lows, ups, keep = [], [], set()
        for c in live:
            cv = c[0][v]
            if cv > 0:
                lows.append(c)
            elif cv < 0:
                ups.append(c)
            else:
                keep.add(c)
        for ac, a0, astrict in lows:
            av = ac[v]
            for bc, b0, bstrict in ups:
                bv = -bc[v]
                coeffs = tuple(bv * x + av * y for x, y in zip(ac, bc))
                const = bv * a0 + av * b0
                strict = astrict or bstrict
                if any(coeffs):
                    keep.add(_normalize(coeffs, const, strict))
                elif _const_violated(const, strict):
                    return False
        live = keep
        remaining.remove(v)
    return True


def cone_is_pointed(rows, k) -> bool:
    """Whether {v : r . v >= 0 for every row} contains only the origin.

    With rows of rank k, a nonzero v has r . v != 0 for some row, so a
    nonzero v in the cone has some r . v > 0 and hence (sum of rows) . v > 0.
    The cone is therefore pointed exactly when no v satisfies every
    r . v >= 0 together with (sum of rows) . v > 0.
    """
    rows = [tuple(r) for r in rows]
    if not rows or int_rank(rows, k) < k:
        return k == 0
    total = tuple(map(sum, zip(*rows)))
    return not fm_feasible([(r, 0, False) for r in rows] + [(total, 0, True)], k)


def _int_hyperplane(coeffs_q, const_q):
    """Clear denominators of a rational hyperplane a . y = b."""
    lcm = 1
    for x in list(coeffs_q) + [const_q]:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return tuple(int(x * lcm) for x in coeffs_q), int(const_q * lcm)


def bounded_regions(hyperplanes, k) -> int:
    """Bounded open cells cut out of R^k by integer hyperplanes a . y = b.

    Sign vectors are grown one hyperplane at a time, discarding infeasible
    prefixes, and each surviving cell is tested for a pointed recession cone.
    """
    if k == 0:
        return 1
    cells = [()]
    for a, b in hyperplanes:
        grown = []
        for cell in cells:
            for sgn in (1, -1):
                con = (tuple(sgn * x for x in a), -sgn * b, True)
                cand = cell + (con,)
                if fm_feasible(cand, k):
                    grown.append(cand)
        cells = grown
    count = 0
    for cell in cells:
        if cone_is_pointed([c[0] for c in cell], k):
            count += 1
    return count


def fm_face_census(setup) -> tuple:
    """Bounded face counts (d_0, ..., d_m), support by support; a
    non-generic alpha raises NonGenericAlpha, as the vertex census does."""
    negative_rows(setup)
    m = setup.ambient_dim
    n = setup.n
    normals, offsets = gale(setup.weights, setup.alpha)

    counts = [0] * (m + 1)
    for size in range(m + 1):
        k = m - size
        for support in combinations(range(n), size):
            if size:
                mat = [normals[i] for i in support]
                if int_rank(mat, m) < size:
                    continue
                point = solve_exact(mat, [offsets[i] for i in support])
                basis = nullspace(mat, m)
            else:
                point = tuple(0 for _ in range(m))
                basis = [tuple(int(i == j) for i in range(m)) for j in range(m)]
            induced = []
            for j in range(n):
                if j in support:
                    continue
                a = tuple(
                    sum(normals[j][i] * col[i] for i in range(m))
                    for col in basis
                )
                b = offsets[j] - sum(normals[j][i] * point[i] for i in range(m))
                if not any(a):
                    if b == 0:
                        raise InvariantViolation(
                            f"hyperplane {j + 1} contains the span of "
                            f"{tuple(i + 1 for i in support)}")
                    continue
                induced.append(_int_hyperplane(a, b))
            counts[k] += bounded_regions(induced, k)
    return tuple(counts)
