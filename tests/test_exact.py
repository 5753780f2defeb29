from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertoric.errors import NonZeroRemainder
from hypertoric.exact import (
    CRat,
    PoincarePoly,
    RatMatrix,
    as_rat,
    crat,
    hnf_rows,
    int_kernel_rows,
    inverse,
    nullspace,
    poly_divide_exact,
    rank,
    saturate_rowspace,
    solve_exact,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=7)
small_ints = st.integers(min_value=-6, max_value=6)


def int_matrix(nrows, ncols):
    return st.lists(
        st.lists(small_ints, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ).map(RatMatrix)


class TestRat:
    def test_as_rat_parses_strings(self):
        assert as_rat("3/4") == Fraction(3, 4)
        assert as_rat("-2") == Fraction(-2)
        assert as_rat(5) == Fraction(5)

    def test_as_rat_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rat(0.5)


class TestCRat:
    def test_arithmetic(self):
        a = crat("1/2", 1)
        b = crat(1, "-1/3")
        assert a + b == crat("3/2", "2/3")
        assert a - b == crat("-1/2", "4/3")
        assert (-a) == crat("-1/2", -1)

    def test_abs2_exact(self):
        assert crat("3/5", "4/5").abs2() == 1
        assert crat(0, 0).is_zero()
        assert not crat(0, "1/7").is_zero()

    @given(rationals, rationals)
    def test_abs2_nonnegative(self, re, im):
        assert CRat(re, im).abs2() >= 0


class TestRankNullspace:
    def test_rank_known(self):
        assert rank(RatMatrix([[1, 1], [1, 0], [0, -1]])) == 2
        assert rank(RatMatrix([[1, 2], [2, 4]])) == 1
        assert rank(RatMatrix([[0, 0], [0, 0]])) == 0
        assert rank(RatMatrix([[int(i == j) for j in range(4)] for i in range(4)])) == 4

    def test_rank_rational_entries(self):
        assert rank(RatMatrix([["1/2", "1/3"], ["3/2", 1]])) == 1

    def test_nullspace_of_ones_column(self):
        # weights (1), (1): kernel of the transpose pairing is spanned by (1, -1)
        ns = nullspace(RatMatrix([[1, 1]]))
        assert ns.ncols == 1
        assert ns.col(0) == (1, -1)

    def test_nullspace_zero_rows(self):
        ns = nullspace(RatMatrix([[0, 0, 0]]))
        assert ns.ncols == 3
        prod = RatMatrix([[0, 0, 0]]) @ ns
        assert all(x == 0 for row in prod.rows for x in row)

    def test_nullspace_saturated_not_just_primitive(self):
        # For the single row (2, 1, 1) a naive echelon basis can land in an
        # index-2 sublattice; the saturated kernel contains (0, 1, -1).
        ns = nullspace(RatMatrix([[2, 1, 1]]))
        cols = {ns.col(j) for j in range(ns.ncols)}
        assert ns.ncols == 2
        vecs = [tuple(int(x) for x in c) for c in cols]
        # (0, 1, -1) must be an integer combination of the basis columns.
        sols = solve_exact(RatMatrix(vecs).transpose(), [0, 1, -1])
        assert sols is not None
        assert all(s.denominator == 1 for s in sols)

    @given(int_matrix(3, 5))
    @settings(max_examples=60, deadline=None)
    def test_nullspace_annihilates(self, m):
        ns = nullspace(m)
        assert ns.ncols == m.ncols - rank(m)
        if ns.ncols:
            prod = m @ ns
            assert all(x == 0 for row in prod.rows for x in row)
            for j in range(ns.ncols):
                col = [int(x) for x in ns.col(j)]
                from math import gcd
                g = 0
                for x in col:
                    g = gcd(g, abs(x))
                assert g == 1
                first = next(x for x in col if x != 0)
                assert first > 0

    @given(int_matrix(4, 3))
    @settings(max_examples=60, deadline=None)
    def test_rank_transpose(self, m):
        assert rank(m) == rank(m.transpose())


class TestHNF:
    def test_canonical_form(self):
        rows = hnf_rows([[2, 4], [1, 1]], 2)
        assert rows == [[1, 0], [0, 2]] or rows == [[1, 1], [0, 2]]
        # pivots positive, below-pivot zeros
        assert rows[0][0] > 0 and rows[1][0] == 0

    def test_lattice_invariance(self):
        a = hnf_rows([[1, 2, 3], [4, 5, 6]], 3)
        b = hnf_rows([[5, 7, 9], [4, 5, 6], [1, 2, 3]], 3)
        assert a == b

    def test_saturate_rowspace(self):
        sat = saturate_rowspace(RatMatrix([[2, 1, 1]]))
        assert len(sat) == 1
        assert sat[0] == [2, 1, 1]
        sat2 = saturate_rowspace(RatMatrix([[2, 0, 2]]))
        assert sat2 == [[1, 0, 1]]

    def test_saturate_full_space(self):
        sat = saturate_rowspace(RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert sat == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_int_kernel_of_kernel_recovers_saturation(self):
        # rowspan{(1,1,0),(0,2,2)} saturates to contain (0,1,1)
        sat = saturate_rowspace(RatMatrix([[1, 1, 0], [0, 2, 2]]))
        assert [0, 1, 1] in sat or any(
            solve_exact(RatMatrix(sat).transpose(), [0, 1, 1]) for _ in [0]
        )

    def test_empty_kernel(self):
        assert int_kernel_rows([[1, 0], [0, 1]], 2) == []


class TestSolveInverse:
    def test_solve_unique(self):
        m = RatMatrix([[2, 1], [1, 3]])
        x = solve_exact(m, [5, 10])
        assert x == (Fraction(1), Fraction(3))

    def test_solve_inconsistent(self):
        m = RatMatrix([[1, 1], [2, 2]])
        assert solve_exact(m, [1, 3]) is None

    def test_solve_underdetermined(self):
        m = RatMatrix([[1, 1, 1]])
        x = solve_exact(m, [6])
        assert sum(x) == 6

    def test_inverse_roundtrip(self):
        m = RatMatrix([[2, 1], [1, 2]])
        inv = inverse(m)
        assert inv == RatMatrix([["2/3", "-1/3"], ["-1/3", "2/3"]])
        assert m @ inv == RatMatrix([[1, 0], [0, 1]])

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            inverse(RatMatrix([[1, 2], [2, 4]]))


class TestPoly:
    def test_trim_and_degree(self):
        p = PoincarePoly.from_coeffs([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree == 1

    def test_arithmetic(self):
        p = PoincarePoly((1, 1))
        q = PoincarePoly((1, -1))
        assert (p * q).coeffs == (1, 0, -1)
        assert (p + q).coeffs == (2,)
        assert (p - q).coeffs == (0, 2)
        assert (q ** 2).coeffs == (1, -2, 1)

    def test_divide_exact(self):
        num = PoincarePoly((1, 0, -1))  # 1 - q^2
        den = PoincarePoly((1, -1))     # 1 - q
        assert poly_divide_exact(num, den).coeffs == (1, 1)

    def test_divide_rejects_remainder(self):
        with pytest.raises(NonZeroRemainder):
            poly_divide_exact(PoincarePoly((1, 1)), PoincarePoly((1, -1)))

    def test_pretty(self):
        assert PoincarePoly((1, 2, 0, 1)).pretty() == "1 + 2*q + q^3"
        assert PoincarePoly(()).pretty() == "0"

    @given(st.lists(small_ints, min_size=1, max_size=5),
           st.lists(small_ints, min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_divide_undoes_multiply(self, a, b):
        p = PoincarePoly.from_coeffs(a)
        q = PoincarePoly.from_coeffs(b)
        if not q.coeffs or q.coeffs[0] == 0 or not p.coeffs:
            return
        assert poly_divide_exact(p * q, q) == p

    def test_evaluate(self):
        p = PoincarePoly((1, 2, 1))
        assert p.evaluate(Fraction(1, 2)) == Fraction(9, 4)
