"""Exact rational linear algebra and polynomial arithmetic.

Everything feeding the cross-checked invariants runs on arbitrary-precision
rationals (stdlib ``fractions.Fraction``); floats only appear in the flow
laboratory.  Matrix kernels are computed as integer *lattices* (Hermite normal
form with a unimodular transform), so re-expressing weight vectors in a
sub-basis stays integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NonZeroRemainder

Rat = Fraction


def as_rat(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class CRat:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "CRat") -> "CRat":
        return CRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CRat") -> "CRat":
        return CRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


def crat(re, im=0) -> CRat:
    return CRat(as_rat(re), as_rat(im))


class RatMatrix:
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(as_rat(x) for x in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows in matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.rows)) if self.rows else RatMatrix([])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols = other.transpose().rows
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.rows]})"


# ---------------------------------------------------------------------------
# Integer helpers (fraction-free where it matters for speed)
# ---------------------------------------------------------------------------


def _content(vec) -> int:
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return g


def _int_rows(matrix: RatMatrix):
    """Scale each row to integers (kernel and rank are row-scaling invariant)."""
    out = []
    for row in matrix.rows:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        out.append([int(x * lcm) for x in row])
    return out


def _int_rank(rows, ncols: int) -> int:
    """Rank via one-step Bareiss elimination on integer rows."""
    m = [row[:] for row in rows if any(row)]
    nr = len(m)
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nr:
            break
        piv = next((i for i in range(rank, nr) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, nr):
            fi = m[i][col]
            row_i = m[i]
            row_p = m[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (pv * row_i[j] - fi * row_p[j]) // prev
            row_i[col] = 0
        prev = pv
        rank += 1
    return rank


def rank(matrix: RatMatrix) -> int:
    """Exact rank over the rationals."""
    if matrix.nrows == 0 or matrix.ncols == 0:
        return 0
    return _int_rank(_int_rows(matrix), matrix.ncols)


def hnf_rows(rows, ncols: int):
    """Canonical Hermite-form basis (as integer rows) of the row lattice.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    entries below are zero.  The result depends only on the lattice spanned,
    which makes every downstream basis choice deterministic.
    """
    m = [list(r) for r in rows if any(r)]
    res = []
    col = 0
    while m and col < ncols:
        nz = [i for i in range(len(m)) if m[i][col] != 0]
        if not nz:
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: (abs(m[i][col]), i))
            i0 = nz[0]
            base = m[i0]
            for i in nz[1:]:
                q = m[i][col] // base[col]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], base)]
            nz = [i for i in nz if m[i][col] != 0]
        piv_row = m.pop(nz[0])
        if piv_row[col] < 0:
            piv_row = [-a for a in piv_row]
        res.append(piv_row)
        m = [r for r in m if any(r)]
        col += 1
    # Reduce entries above each pivot into [0, pivot).
    pivots = [next(j for j, a in enumerate(r) if a) for r in res]
    for i in range(len(res)):
        for j in range(i + 1, len(res)):
            c = pivots[j]
            q = res[i][c] // res[j][c]
            if q:
                res[i] = [a - q * b for a, b in zip(res[i], res[j])]
    return res


def int_kernel_rows(rows, ncols: int):
    """Basis rows of the lattice {v in Z^ncols : M v = 0}, in canonical form.

    Row-reduces [M^T | I] with unimodular operations; transform rows facing a
    zero block are a lattice basis of the kernel.  The kernel of a rational
    matrix equals the kernel of its row-scaled integer version.
    """
    if ncols == 0:
        return []
    nr = len(rows)
    if nr == 0 or all(not any(r) for r in rows):
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    # aug rows: [column i of M | e_i]
    aug = [[rows[k][i] for k in range(nr)] + [1 if j == i else 0 for j in range(ncols)]
           for i in range(ncols)]
    m = aug
    col = 0
    fixed = 0
    while col < nr and fixed < len(m):
        nz = [i for i in range(fixed, len(m)) if m[i][col] != 0]
        if not nz:
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: (abs(m[i][col]), i))
            i0 = nz[0]
            base = m[i0]
            for i in nz[1:]:
                q = m[i][col] // base[col]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], base)]
            nz = [i for i in nz if m[i][col] != 0]
        i0 = nz[0]
        m[fixed], m[i0] = m[i0], m[fixed]
        fixed += 1
        col += 1
    kernel = [r[nr:] for r in m[fixed:] if not any(r[:nr])]
    return hnf_rows(kernel, ncols)


def nullspace(matrix: RatMatrix) -> RatMatrix:
    """Primitive integer kernel basis, returned as the columns of a matrix.

    Column count is ncols − rank; each basis vector has content 1 with its
    first nonzero entry positive (rows of a canonical Hermite basis of the
    saturated kernel lattice).
    """
    ker = int_kernel_rows(_int_rows(matrix), matrix.ncols)
    if not ker:
        return RatMatrix([[] for _ in range(matrix.ncols)])
    return RatMatrix(ker).transpose()


def saturate_rowspace(matrix: RatMatrix):
    """Canonical integer basis rows of rowspan_Q(matrix) ∩ Z^ncols."""
    ker = int_kernel_rows(_int_rows(matrix), matrix.ncols)
    if not ker:
        return hnf_rows([[1 if i == j else 0 for j in range(matrix.ncols)]
                         for i in range(matrix.ncols)], matrix.ncols)
    return int_kernel_rows(ker, matrix.ncols)


def solve_exact(matrix: RatMatrix, rhs):
    """One exact solution of M x = rhs with free variables set to zero.

    Returns a tuple of Fractions, or None when the system is inconsistent.
    """
    nr, nc = matrix.nrows, matrix.ncols
    rhs = [as_rat(x) for x in rhs]
    if len(rhs) != nr:
        raise ValueError("right-hand side has wrong length")
    aug = [list(matrix.rows[i]) + [rhs[i]] for i in range(nr)]
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


def inverse(matrix: RatMatrix) -> RatMatrix:
    """Exact inverse of a square nonsingular matrix (Gauss–Jordan)."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(matrix.rows[i]) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return RatMatrix([row[n:] for row in aug])


# ---------------------------------------------------------------------------
# Polynomials in one variable q (integer coefficients)
# ---------------------------------------------------------------------------


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class PoincarePoly:
    """Polynomial in q with integer coefficients; coeffs[k] multiplies q^k."""

    coeffs: tuple = ()

    @staticmethod
    def from_coeffs(coeffs) -> "PoincarePoly":
        out = []
        for c in coeffs:
            c = as_rat(c)
            if c.denominator != 1:
                raise ValueError("polynomial coefficients must be integers")
            out.append(int(c))
        return PoincarePoly(_trim(out))

    @staticmethod
    def zero() -> "PoincarePoly":
        return PoincarePoly(())

    @staticmethod
    def one() -> "PoincarePoly":
        return PoincarePoly((1,))

    @staticmethod
    def monomial(power: int, coeff: int = 1) -> "PoincarePoly":
        if coeff == 0:
            return PoincarePoly(())
        return PoincarePoly(tuple([0] * power + [coeff]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "PoincarePoly") -> "PoincarePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return PoincarePoly(_trim(self.coefficient(k) + other.coefficient(k)
                                  for k in range(n)))

    def __sub__(self, other: "PoincarePoly") -> "PoincarePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return PoincarePoly(_trim(self.coefficient(k) - other.coefficient(k)
                                  for k in range(n)))

    def __mul__(self, other: "PoincarePoly") -> "PoincarePoly":
        if not self.coeffs or not other.coeffs:
            return PoincarePoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PoincarePoly(_trim(out))

    def __pow__(self, n: int) -> "PoincarePoly":
        result = PoincarePoly.one()
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = "q" if k == 1 else f"q^{k}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts)


def poly_divide_exact(num: PoincarePoly, den: PoincarePoly) -> PoincarePoly:
    """Exact quotient num/den in Z[q]; raises NonZeroRemainder otherwise.

    Division proceeds from the lowest degree (the divisors used here have
    constant term ±1), and the product is verified against num.
    """
    if not den.coeffs:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num.coeffs:
        return PoincarePoly(())
    if num.degree < den.degree:
        raise NonZeroRemainder(f"{num.pretty()} is not divisible by {den.pretty()}")
    if den.coeffs[0] == 0:
        raise NonZeroRemainder("divisor has zero constant term")
    qdeg = num.degree - den.degree
    d0 = Fraction(den.coeffs[0])
    quot = []
    for k in range(qdeg + 1):
        acc = Fraction(num.coefficient(k))
        for j in range(max(0, k - len(den.coeffs) + 1), k):
            acc -= quot[j] * den.coefficient(k - j)
        c = acc / d0
        if c.denominator != 1:
            raise NonZeroRemainder(
                f"{num.pretty()} is not divisible by {den.pretty()} over the integers")
        quot.append(c)
    result = PoincarePoly(_trim(int(c) for c in quot))
    if result * den != num:
        raise NonZeroRemainder(f"{num.pretty()} is not divisible by {den.pretty()}")
    return result


ONE_MINUS_Q = PoincarePoly((1, -1))
