"""Exact integer linear algebra, exact rationals and polynomial division.

Everything feeding the cross-checked invariants runs on Python integers and
stdlib ``fractions.Fraction``; floats only appear in the flow laboratory.
Matrices are lists of integer rows.  ``int_rank`` eliminates them by
Bareiss, and ``int_solve`` by fraction-free Gauss–Jordan, returning a
determinant and an integer solution; it solves the wall table's Gram
system and the census's vertex ones.  ``certified_rank`` searches a
rank with int64 arithmetic mod a prime and returns it only with a proof
over Q from both sides: a minor that is nonsingular mod the prime, and an
upper bound from left-null vectors the caller hands over, checked exactly,
and from null vectors found by p-adic lifting (``_kernel_certified``) and
proven by a congruence mod a power of the prime and an integer size bound,
for the rows the left-null vectors leave.  Bareiss elimination answers
otherwise.
A polynomial is the tuple of its integer coefficients, lowest degree
first, with no trailing zero, and the one division the package needs, by a
power of 1 - q, is a run of integer prefix sums.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate
from math import isqrt

import numpy as np

from .errors import InputError, InvariantViolation, NonZeroRemainder


def as_rat(value) -> Fraction:
    """Read an int, a string like ``"3/4"`` or a Fraction as an exact
    rational; anything else, booleans included, raises InputError, as does
    ``"1e5000"``: Fraction would take unbounded time to build a power of
    ten past ``sys.get_int_max_str_digits()``, and no report could print it."""
    limit = sys.get_int_max_str_digits()
    if isinstance(value, str) and limit and _exponent(value) >= limit:
        raise InputError(f"cannot read {value!r} as an exact rational: its "
                         f"power of ten has more than {limit} digits")
    if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"cannot read {value!r} as an exact rational; write it "
                     "as an integer or a rational string like \"3/4\"")


def _exponent(text: str) -> int:
    """|e| of a decimal string like ``"1.5e-3"``; 0 without an integer e."""
    try:
        return abs(int(text.lower().partition("e")[2] or 0))
    except ValueError:
        return 0


# ---------------------------------------------------------------------------
# Integer matrices: lists of rows, eliminated fraction-free
# ---------------------------------------------------------------------------


def int_rank(rows, ncols: int) -> int:
    """Rank via one-step Bareiss elimination on integer rows."""
    m = [list(row) for row in rows if any(row)]
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


MODULUS = 33_554_393
"""The largest prime below 2^25.  A product of two residues is below 2^50,
so an int64 holds a sum of up to 2^13 of them."""

_INT64 = 1 << 63


def _pivots_mod_p(m):
    """Pivot rows and columns of an int64 array modulo MODULUS.

    Returns (rows, cols): the original indices of the pivot rows, in the
    order taken, and the pivot columns, ascending.  For each column c the
    pivot is the lowest-index row whose entry there is nonzero mod MODULUS.
    Only the other rows with a nonzero in column c are updated, and only
    from column c + 1 on; the pivot row is then set to zero, in place of
    being swapped and cleared above.  A row never taken reduces to zero mod
    MODULUS, so r = len(rows) is the rank mod MODULUS.

    The minor A[I, J] is nonsingular mod MODULUS: each step subtracts
    multiples of the pivot row from rows not yet taken, so the search is
    an LU factorization with row pivoting, A[I, J] = L U with rows in the
    order taken, L unit lower triangular and U's diagonal the pivots.  Its
    bound: a column is reduced before its search and a row before it is
    scaled, so each of the r steps adds less than MODULUS² to an entry,
    and the caller's (cap + 1) MODULUS² < 2^63, cap ≥ r, keeps it exact.
    """
    m = m % MODULUS
    rows, cols = [], []
    for c in range(m.shape[1]):
        if len(rows) == m.shape[0]:
            break
        col = m[:, c] % MODULUS
        nonzero = col.nonzero()[0]
        if not nonzero.size:
            continue
        piv, others = nonzero[0], nonzero[1:]
        if others.size:
            row = m[piv, c + 1:] % MODULUS * pow(int(col[piv]), -1, MODULUS) % MODULUS
            m[others, c + 1:] -= col[others, None] * row
        m[piv] = 0
        rows.append(piv)
        cols.append(c)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def _inverse_mod_p(b):
    """The inverse mod MODULUS of a square int64 array, by Gauss–Jordan
    elimination of [b | I].

    b is A[I, J] from ``_pivots_mod_p``, rows in the order taken, whose
    search is an LU factorization of it: so each diagonal entry is nonzero
    mod MODULUS when its column is reached, and no row is swapped.  A row
    is reduced before it scales and the rest only at the end; each of the
    r steps changes an entry by less than MODULUS², so the caller's
    (cap + 1) MODULUS² < 2^63, cap ≥ r, keeps it exact.
    """
    r = len(b)
    m = np.concatenate([b % MODULUS, np.eye(r, dtype=np.int64)], axis=1)
    for c in range(r):
        col = m[:, c] % MODULUS
        row = m[c, c:] % MODULUS * pow(int(col[c]), -1, MODULUS) % MODULUS
        m[c, c:] = row
        col[c] = 0
        others = col.nonzero()[0]
        m[others, c:] -= col[others, None] * row
    return m[:, r:] % MODULUS


def _assemble(digits):
    """Σ digits[i] · MODULUS^i as Python ints, two digits per int64 step."""
    total = np.zeros(digits[0].shape, dtype=object)
    for i in reversed(range(0, len(digits), 2)):
        pair = digits[i] + MODULUS * digits[i + 1] if i + 1 < len(digits) else digits[i]
        total = total * MODULUS ** 2 + pair.astype(object)
    return total


def _reconstruct(u, modulus, bound):
    """Denominator d ≤ bound of a fraction n/d ≡ u with |n| ≤ bound, or None."""
    r0, r1, t0, t1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound else None


def _rational_solution(x, modulus):
    """(D, N) with N ≡ D·x and |N|, D ≤ sqrt(modulus / 2), or None.

    D is grown entry by entry: an entry already integral at the current D
    needs one product, and only the others a reconstruction.
    """
    bound = isqrt(modulus // 2)
    den = 1
    for u in x.flat:
        y = den * u % modulus
        if min(y, modulus - y) <= bound:
            continue
        d = _reconstruct(y, modulus, bound)
        if d is None or den * d > bound:
            return None
        den *= d
    nums = x * den % modulus
    return den, np.where(nums > modulus // 2, nums - modulus, nums)


def _kernel_certified(a, piv_cols) -> bool:
    """Whether ncols − r null vectors of a, whose first r = len(piv_cols)
    rows are its pivot rows I, are proven by congruence and size, which
    proves rank(a) ≤ r.

    A[I, J] is nonsingular mod MODULUS, its rows in the order the search
    took them.  The system A[I, J] X = A[I, F] on the free columns F is
    solved over Q by Dixon's p-adic lifting (Numer. Math. 40, 1982): one
    inverse mod MODULUS (``_inverse_mod_p``), then int64 residual updates.
    The other rows R are carried beside I: after s digits x ≡ X mod P^s,
    P = MODULUS, and A[R, F] − A[R, J] x must be divisible by P^s, as it is
    when rank(a) = r; a residual that is not gives False.  Rational
    reconstruction over a common denominator D, tried as the digits grow by
    a quarter, gives (D, N) with N ≡ D x, and the null vectors N_J = −N,
    N_F = D·I.  Every entry of a times them is then ≡ 0 mod P^s, and once
    2 max‖a_i‖₁ max(D, |N|) < P^s it is below P^s / 2 in size, so it is 0.
    The bound reads the N returned, as a candidate may come too early.  It
    is what refuses [[P, 0], [0, 1]] at s = 1, whose congruence holds.  No
    proof by the Hadamard bound gives False.  Every int64 kernel runs only
    after its bound is checked on the integers.
    """
    ncols = a.shape[1]
    r = len(piv_cols)
    free = np.ones(ncols, dtype=bool)  # np.setdiff1d would import numpy.ma
    free[piv_cols] = False
    free = np.flatnonzero(free)
    top = max(int(a.max()), -int(a.min()))
    if top * ncols >= _INT64:  # the row norms below must fit an int64
        return False
    # A residual stays at most top (r + 1) in size, so an update of it, or
    # of a carried row, stays below top (P r + r + 1).
    if top * (MODULUS * r + r + 1) >= _INT64:
        return False
    norms = [int(v) for v in np.abs(a).sum(axis=1)]
    widest = max(norms)
    b = a[:r][:, piv_cols]
    res = a[:r][:, free]
    others = a[r:][:, piv_cols]
    carry = a[r:][:, free]
    inv = _inverse_mod_p(b)
    # Hadamard: D and every |N| are minors of A[I, :], at most H = Π ‖row‖₁.
    # Reconstruction succeeds once P^s > 2 H², the size bound holds once
    # P^s > 2 H max‖a_i‖₁, and P > 2^24.
    log_h = sum(norm.bit_length() for norm in norms[:r])
    last = (log_h + max(log_h, widest.bit_length()) + 24) // 24
    x = np.zeros(res.shape, dtype=object)
    pending = []
    attempt = 1
    for s in range(1, last + 1):
        digit = inv @ (res % MODULUS) % MODULUS
        res = (res - b @ digit) // MODULUS
        carry = carry - others @ digit
        if (carry % MODULUS).any():
            return False
        carry //= MODULUS
        pending.append(digit)
        if s < min(attempt, last):
            continue
        attempt = s + s // 4 + 1
        x = x + _assemble(pending) * MODULUS ** (s - len(pending))
        pending = []
        found = _rational_solution(x, MODULUS ** s)
        if found is None:
            continue
        den, nums = found
        if 2 * widest * np.abs(nums).max(initial=den) < MODULUS ** s:
            return True
    return False


def _unproven_rows(a, rest, relations):
    """The rows of rest, in order, that the relations do not prove to lie
    in the rational span of a's other rows.

    Each relation is a sequence of (row, coefficient) pairs, the left-null
    vector y of a with those entries.  Y a = 0 is checked exactly, in int64
    after max|a| · max‖y‖₁ < 2^63 is checked on the integers, and a
    relation that fails it raises InvariantViolation.  Then Y[:, rest]ᵀ is
    searched mod MODULUS (``_pivots_mod_p``).  Its pivot rows K and
    columns T give a minor Y[T, K] that is nonsingular mod MODULUS, so over
    Q, and Y[T] a = 0 writes a[K] as Y[T, K]⁻¹ times a combination of the
    rows outside K.
    Dropping K leaves the rank over Q unchanged.  Relations whose bounds
    do not hold are not used, and every row of rest is returned.
    """
    relations = [list(y) for y in relations]
    if not relations:
        return rest
    n = len(a)
    for t, y in enumerate(relations):
        if not all(0 <= i < n for i, _ in y):
            raise InvariantViolation(f"relation {t} names a row outside its matrix")
    top = max(int(a.max()), -int(a.min()), 1)
    norm = max(sum(abs(c) for _, c in y) for y in relations)
    cap = min(len(rest), len(relations))
    if top * norm >= _INT64 or MODULUS ** 2 * (cap + 1) >= _INT64:
        return rest
    # Pad each relation to one width with row n, a zero row below a.
    width = max(map(len, relations))
    where = np.array([[i for i, _ in y] + [n] * (width - len(y)) for y in relations],
                     dtype=np.int64)
    coef = np.array([[c for _, c in y] + [0] * (width - len(y)) for y in relations],
                    dtype=np.int64)
    padded = np.concatenate([a, np.zeros((1, a.shape[1]), dtype=np.int64)])
    product = np.zeros((len(relations), a.shape[1]), dtype=np.int64)
    for k in range(width):
        product += coef[:, k, None] * padded[where[:, k]]
    wrong = product.any(axis=1).nonzero()[0]
    if wrong.size:
        raise InvariantViolation(f"relation {wrong[0]} is not a left-null "
                                 "vector of its matrix")
    column = np.full(n + 1, len(rest))  # rows outside rest share a last column
    column[rest] = np.arange(len(rest))
    yt = np.zeros((len(rest) + 1, len(relations)), dtype=np.int64)
    np.add.at(yt, (column[where], np.arange(len(relations))[:, None]), coef)
    left = np.ones(len(rest), dtype=bool)
    left[_pivots_mod_p(yt[:-1])[0]] = False
    return rest[left]


def certified_rank(rows, ncols: int, relations=()) -> int:
    """Exact rank of integer rows over Q: searched mod MODULUS, then proven
    from both sides.

    One int64 pivot search mod MODULUS (``_pivots_mod_p``) finds pivot rows
    I and columns J with A[I, J] nonsingular mod MODULUS.  Its determinant
    is then a nonzero integer, so the rank is at least r = |I|.  When r = min(#rows, ncols)
    that settles it, as in every degree of a ring that vanishes, and
    relations is never read.  Otherwise rank ≤ r is proven on the non-pivot
    rows S in at most two steps.  First the relations, left-null vectors y
    of A each given as (row, coefficient) pairs, prune S: Y A = 0 is
    checked exactly, so the rows K ⊆ S of a minor of Y[:, S] nonsingular
    mod MODULUS, so over Q, are rational combinations of the rows outside
    K, and rank A = rank A[outside K] (``_unproven_rows``).  When K = S
    that leaves A[I], of rank r.  Otherwise ``_kernel_certified`` proves
    rank ≤ r for the rows outside K with ncols − r null vectors,
    N_J = −D X and N_F = D·I on the free columns, found by p-adic lifting:
    every row times them is ≡ 0 mod MODULUS^s and smaller than
    MODULUS^s / 2 in size, so it is 0.  When it cannot, or when an entry or
    a product could leave int64, the answer is Bareiss elimination,
    ``int_rank``, on the same rows.
    """
    if not rows or not ncols:
        return 0
    cap = min(len(rows), ncols)
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        return int_rank(rows, ncols)
    if MODULUS ** 2 * (cap + 1) >= _INT64:
        return int_rank(rows, ncols)
    piv_rows, piv_cols = _pivots_mod_p(a)
    r = len(piv_rows)
    if r == cap:
        return r
    rest = np.ones(len(a), dtype=bool)
    rest[piv_rows] = False
    rest = _unproven_rows(a, rest.nonzero()[0], relations)
    if not rest.size or _kernel_certified(a[np.concatenate([piv_rows, rest])], piv_cols):
        return r
    return int_rank(rows, ncols)


def int_solve(rows, rhs_rows):
    """Fraction-free Gauss–Jordan solve of A X = R for a square integer A.

    rows are the m integer rows of A, rhs_rows the m integer rows of R.
    Returns (det, X) with X = det * A^-1 R integral and det = +-det(A), or
    None when A is singular.  Every division is exact, because each entry
    stays a minor of [A | R].  Column k is dropped once it is eliminated: it
    is zero off the diagonal, and every diagonal entry ends up equal to det.
    """
    m = len(rows)
    aug = [list(a) + list(r) for a, r in zip(rows, rhs_rows)]
    prev = 1
    for k in range(m):
        piv = next((i for i in range(k, m) if aug[i][0]), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        head = aug[k][1:]
        p = aug[k][0]
        for i in range(m):
            if i != k:
                row = aug[i]
                f = row[0]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(row[1:], head)]
        aug[k] = head
        prev = p
    return prev, aug


# ---------------------------------------------------------------------------
# Polynomials in one variable q (integer coefficients)
# ---------------------------------------------------------------------------


def trim(coeffs) -> tuple:
    """The coefficients as a tuple without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def divide_by_one_minus_q(coeffs, power: int) -> tuple:
    """The integer coefficients coeffs divided by (1 - q)^power in Z[q].

    p = (1 - q) s exactly when s_k = p_0 + ... + p_k and the last prefix sum,
    p(1), is zero: so each division takes prefix sums and pops that last
    one.  A nonzero one raises NonZeroRemainder.
    """
    coeffs = list(coeffs)
    for _ in range(power):
        coeffs = list(accumulate(coeffs))
        if coeffs and coeffs.pop():
            raise NonZeroRemainder(f"not divisible by (1 - q)^{power}")
    return trim(coeffs)
