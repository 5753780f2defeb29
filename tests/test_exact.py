import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric import exact
from hypertoric.errors import InputError, InvariantViolation, NonZeroRemainder
from hypertoric.exact import (
    MODULUS,
    as_rat,
    certified_rank,
    divide_by_one_minus_q,
    int_rank,
    int_solve,
    trim,
)
from hypertoric.ringcalc import circle_dims
from hypertoric.torus import new_setup, sample_generic
from metric_reference import solve_exact

small_ints = st.integers(min_value=-6, max_value=6)


def int_matrix(nrows, ncols):
    return st.lists(
        st.lists(small_ints, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    )


def times(a, b):
    """Matrix product of integer rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def solve_kernel(rows, ncols, pivots):
    """Kernel rows of integer rows whose columns at pivots form a nonsingular
    square block, from one int_solve: with X = det A_pivots^-1 A_free, the
    row for free column f is det at f and -X[:, f] on the pivots."""
    free = [f for f in range(ncols) if f not in pivots]
    det, x = int_solve([[row[c] for c in pivots] for row in rows],
                       [[row[f] for f in free] for row in rows])
    kernel = []
    for col, f in enumerate(free):
        v = [0] * ncols
        v[f] = det
        for c, xr in zip(pivots, x):
            v[c] = -xr[col]
        kernel.append(v)
    return kernel


class TestRat:
    def test_as_rat_parses_strings(self):
        assert as_rat("3/4") == Fraction(3, 4)
        assert as_rat("-2") == Fraction(-2)
        assert as_rat(5) == Fraction(5)

    def test_as_rat_refuses_a_power_of_ten_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert as_rat(f"1e{limit - 1}") == 10 ** (limit - 1)
        for text in (f"1e{limit}", f"1e-{limit}", "2.5E10000000"):
            with pytest.raises(InputError, match=f"more than {limit} digits"):
                as_rat(text)

    def test_as_rat_rejects_floats(self):
        # "1ex" has no integer exponent for the digit limit to read.
        for value in (0.5, True, None, [1], "abc", "1/0", "1ex"):
            with pytest.raises(InputError, match="3/4"):
                as_rat(value)


class TestRankNullspace:
    def test_rank_known(self):
        assert int_rank([[1, 1], [1, 0], [0, -1]], 2) == 2
        assert int_rank([[1, 2], [2, 4]], 2) == 1
        assert int_rank([[0, 0], [0, 0]], 2) == 0
        assert int_rank(identity(4), 4) == 4

    def test_rank_rational_entries(self):
        # rows (1/2, 1/3) and (3/2, 1) cleared of denominators; tuples too
        assert int_rank([(3, 2), (9, 6)], 2) == 1

    def test_nullspace_of_ones_column(self):
        # weights (1), (1): kernel of the transpose pairing is spanned by (1, -1)
        assert solve_kernel([[1, 1]], 2, [0]) == [[-1, 1]]

    def test_nullspace_zero_rows(self):
        # No rows (a trivial torus): int_solve of the empty system is (1, []),
        # so the kernel is the identity with no special case.
        assert int_solve([], []) == (1, [])
        assert solve_kernel([], 3, []) == identity(3)

    @given(int_matrix(3, 5))
    @settings(max_examples=60, deadline=None)
    def test_nullspace_annihilates(self, m):
        assume(int_rank(m, 5) == 3)
        pivots = []
        for c in range(5):
            if int_rank([[row[p] for p in pivots + [c]] for row in m],
                        len(pivots) + 1) > len(pivots):
                pivots.append(c)
        ker = solve_kernel(m, 5, pivots)
        assert len(ker) == 2 and int_rank(ker, 5) == 2
        assert all(x == 0 for row in times(m, list(zip(*ker))) for x in row)

    @given(int_matrix(4, 3))
    @settings(max_examples=60, deadline=None)
    def test_rank_transpose(self, m):
        assert int_rank(m, 3) == int_rank(list(zip(*m)), 4)


@st.composite
def rank_test_matrices(draw):
    """Integer rows B·C of rank at most the inner size, then edited row by
    row: zeroed, duplicated, scaled by MODULUS, 2^40 or 2^64, or given an
    entry plus a multiple of MODULUS, which raises the rank over Q and not
    mod MODULUS."""
    nrows = draw(st.integers(min_value=1, max_value=9))
    ncols = draw(st.integers(min_value=1, max_value=9))
    inner = draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
    left = draw(st.lists(st.lists(small_ints, min_size=inner, max_size=inner),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(small_ints, min_size=ncols, max_size=ncols),
                          min_size=inner, max_size=inner))
    rows = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(ncols)]
            for row in left]
    for i in range(nrows):
        kind = draw(st.sampled_from(
            ["keep", "zero", "duplicate", "times_modulus", "plus_modulus",
             "times_2^40", "times_2^64"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "duplicate":
            rows[i] = list(rows[draw(st.integers(min_value=0, max_value=nrows - 1))])
        elif kind == "times_modulus":
            rows[i] = [MODULUS * x for x in rows[i]]
        elif kind == "plus_modulus":
            rows[i][draw(st.integers(min_value=0, max_value=ncols - 1))] += (
                MODULUS * draw(small_ints))
        elif kind == "times_2^40":
            rows[i] = [x << 40 for x in rows[i]]
        elif kind == "times_2^64":
            rows[i] = [x << 64 for x in rows[i]]
    return rows, ncols


def spy(monkeypatch, name):
    """The (arguments, result) of every call to exact.<name>, in order."""
    calls = []
    original = getattr(exact, name)

    def recording(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(exact, name, recording)
    return calls


# Four rows of rank 2 in three columns.
DEFICIENT = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [3, 4, 7]]


class TestCertifiedRank:
    @given(rank_test_matrices())
    @settings(max_examples=300, deadline=None)
    def test_equals_bareiss(self, drawn):
        rows, ncols = drawn
        assert certified_rank(rows, ncols) == int_rank(rows, ncols)

    def test_rank_lost_mod_the_modulus_falls_back_to_bareiss(self):
        assert certified_rank([[MODULUS, 0], [0, 1]], 2) == 2

    def test_deficient_rank_is_proven_without_bareiss(self, monkeypatch):
        def bareiss(rows, ncols):
            raise AssertionError("the certificate should have proven the rank")

        monkeypatch.setattr(exact, "int_rank", bareiss)
        left = [[1, 0, 2], [0, 1, -1], [3, 1, 0], [1, 1, 1], [2, -1, 5], [0, 0, 1]]
        right = [[1, 2, 0, -1, 3], [0, 1, 1, 2, -2], [4, 0, -3, 1, 1]]
        rows = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(5)]
                for row in left]
        assert certified_rank(rows, 5) == 3
        assert certified_rank(rows + [[7, 0, 0, 0, 0]], 5) == 4
        # A carried row far wider than the pivot row: its norm enters the
        # size bound, and lifting runs until the bound holds.
        assert certified_rank([[1, 2], [2 ** 30, 2 ** 31], [3, 6]], 2) == 1
        # A circle ring with entries up to 11,640, like the benchmark's ring
        # rungs: degrees 4-6 rank 15, 60 and 150 rows of 35, 56 and 84
        # columns, the last two of rank 36 and 64.
        setup = new_setup([[-2, 9, 8], [-5, 2, 6], [9, -7, -9], [6, -1, 8],
                           [-2, -3, 6], [8, 8, 6]], [1, 2, 3])
        assert circle_dims(setup) == (1, 4, 10, 20, 20, 20, 20)

    def test_a_carried_row_that_fails_its_congruence_falls_back(self, monkeypatch):
        # Mod MODULUS the last row is the sum of the first two, so the
        # search finds rank 2; over Q it is 3.  The lifted solution (100,
        # 100) is exact, so only the carried row, whose residual is 1 after
        # the second digit, keeps the size bound from accepting it there.
        moduli = spy(monkeypatch, "_rational_solution")
        fallbacks = spy(monkeypatch, "int_rank")
        rows = [[1, 0, 100], [0, 1, 100], [1, 1, 200 + MODULUS]]
        assert certified_rank(rows, 3) == 3
        assert [args[1] for args, _ in moduli] == [MODULUS]
        assert [result for _, result in fallbacks] == [3]

    def test_the_size_bound_sends_a_modulus_row_to_bareiss(self, monkeypatch):
        # At s = 1 the null vector is (1, 0), and [[P, 0], [0, 1]] (1, 0) =
        # (P, 0) is 0 mod P: the congruence holds, and only the size bound
        # 2 · P · 1 < P, which fails, refuses it.
        solutions = spy(monkeypatch, "_rational_solution")
        fallbacks = spy(monkeypatch, "int_rank")
        assert certified_rank([[MODULUS, 0], [0, 1]], 2) == 2
        (_, modulus), (den, nums) = solutions[0]
        assert (modulus, den, nums.tolist()) == (MODULUS, 1, [[0]])
        assert [result for _, result in fallbacks] == [2]

    def test_an_entry_past_int64_goes_to_bareiss(self, monkeypatch):
        searches = spy(monkeypatch, "_pivots_mod_p")
        inverses = spy(monkeypatch, "_inverse_mod_p")
        fallbacks = spy(monkeypatch, "int_rank")
        assert certified_rank([[2 ** 70, 0], [0, 1]], 2) == 2
        assert searches == inverses == []
        assert [result for _, result in fallbacks] == [2]

    # The entries fit an int64 and the search finds a rank below 2, but a
    # row norm may reach top * ncols >= 2^63: the certificate refuses before
    # it sums one.  In the second matrix every entry is 0 mod MODULUS, so
    # the search finds rank 0, and only this refusal keeps a wrapped norm
    # from passing the size bound with rank 0.
    @pytest.mark.parametrize("rows, rank", [
        ([[2 ** 62, 2 ** 62], [1, 1], [3, 3]], 1),
        ([[-(-2 ** 62 // MODULUS) * MODULUS] * 2] * 2, 1),
    ], ids=["rank-1-search", "rank-0-search"])
    def test_row_norms_past_int64_go_to_bareiss(self, monkeypatch, rows, rank):
        certificates = spy(monkeypatch, "_kernel_certified")
        fallbacks = spy(monkeypatch, "int_rank")
        assert certified_rank(rows, 2) == rank
        assert [result for _, result in certificates] == [False]
        assert [result for _, result in fallbacks] == [rank]

    def test_lifting_without_a_reconstruction_falls_back(self, monkeypatch):
        # Rank 2 with two non-pivot rows: with no rational reconstruction
        # the lifting runs out of digits and Bareiss answers.
        monkeypatch.setattr(exact, "_rational_solution", lambda x, modulus: None)
        certificates = spy(monkeypatch, "_kernel_certified")
        fallbacks = spy(monkeypatch, "int_rank")
        assert certified_rank(DEFICIENT, 3) == 2
        assert [result for _, result in certificates] == [False]
        assert [result for _, result in fallbacks] == [2]

    def test_a_modulus_past_the_int64_bound_goes_to_bareiss(self, monkeypatch):
        # (cap + 1) MODULUS^2 >= 2^63 at cap = 3 for the prime 2^31 - 1.
        monkeypatch.setattr(exact, "MODULUS", 2_147_483_647)
        searches = spy(monkeypatch, "_pivots_mod_p")
        inverses = spy(monkeypatch, "_inverse_mod_p")
        fallbacks = spy(monkeypatch, "int_rank")
        assert certified_rank(DEFICIENT, 3) == 2
        assert searches == inverses == []
        assert [result for _, result in fallbacks] == [2]

    def test_empty_and_zero(self):
        assert certified_rank([], 3) == 0
        assert certified_rank([[0, 0], [0, 0]], 2) == 0
        assert certified_rank([[]], 0) == 0


def pivot_columns_mod(rows, ncols, modulus):
    """The pivot columns of the row echelon form of integer rows mod a
    prime, by plain elimination with row swaps."""
    m = [[x % modulus for x in row] for row in rows]
    cols = []
    for c in range(ncols):
        r = len(cols)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inverse = pow(m[r][c], -1, modulus)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inverse
            m[i] = [(x - f * y) % modulus for x, y in zip(m[i], m[r])]
        cols.append(c)
    return cols


@st.composite
def search_matrices(draw):
    """Integer rows B·C of rank at most the inner size, up to 10 x 12, with
    some columns zeroed, then edited row by row: zeroed, duplicated, scaled,
    scaled by MODULUS, or given entries plus multiples of MODULUS."""
    nrows = draw(st.integers(min_value=1, max_value=10))
    ncols = draw(st.integers(min_value=1, max_value=12))
    inner = draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
    left = draw(st.lists(st.lists(small_ints, min_size=inner, max_size=inner),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(small_ints, min_size=ncols, max_size=ncols),
                          min_size=inner, max_size=inner))
    zero = draw(st.sets(st.integers(min_value=0, max_value=ncols - 1)))
    rows = [[0 if j in zero else sum(a * right[t][j] for t, a in enumerate(row))
             for j in range(ncols)] for row in left]
    multiples = st.integers(min_value=-(2 ** 30), max_value=2 ** 30)
    for i in range(nrows):
        kind = draw(st.sampled_from(
            ["keep", "zero", "duplicate", "scale", "times_modulus", "plus_modulus"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "duplicate":
            rows[i] = list(rows[draw(st.integers(min_value=0, max_value=nrows - 1))])
        elif kind == "scale":
            rows[i] = [draw(small_ints) * x for x in rows[i]]
        elif kind == "times_modulus":
            rows[i] = [MODULUS * x for x in rows[i]]
        elif kind == "plus_modulus":
            rows[i] = [x + MODULUS * draw(multiples) for x in rows[i]]
    return rows, ncols


class TestPivotSearch:
    @given(search_matrices())
    @settings(max_examples=300, deadline=None)
    def test_pivots_of_a_nonsingular_minor_in_echelon_columns(self, drawn):
        rows, ncols = drawn
        piv_rows, piv_cols = exact._pivots_mod_p(np.array(rows, dtype=np.int64))
        assert piv_cols.tolist() == pivot_columns_mod(rows, ncols, MODULUS)
        assert len(set(piv_rows.tolist())) == len(piv_rows)
        minor = [[rows[i][j] for j in piv_cols] for i in piv_rows]
        det, _ = int_solve(minor, [[] for _ in minor])
        assert det % MODULUS

    def test_the_lowest_row_pivots_and_is_used_once(self):
        # Row 2, 1 mod MODULUS, is column 0's only pivot.  In column 1 row 0
        # pivots, where a swap of rows 0 and 2 would have put row 1 first;
        # zeroed, row 0 cannot pivot again in column 2, where row 1 does.
        # Row 3 is twice row 0 and ends zero.
        rows = np.array([[0, 1, 1], [0, 1, 2], [MODULUS + 1, 0, 0], [0, 2, 2]],
                        dtype=np.int64)
        piv_rows, piv_cols = exact._pivots_mod_p(rows)
        assert (piv_rows.tolist(), piv_cols.tolist()) == ([2, 0, 1], [0, 1, 2])

    def test_the_inverse_undoes_the_minor(self):
        minor = np.array([[2, 1, 0], [4, 3, 1], [0, 5, MODULUS + 7]], dtype=np.int64)
        inverse = exact._inverse_mod_p(minor)
        assert (minor @ inverse % MODULUS == np.eye(3, dtype=np.int64)).all()


def left_null_basis(rows, ncols):
    """Integer vectors y with y A = 0 spanning the left null space of the
    rows A, one per free column of the reduced echelon form of A^T over Q."""
    nrows = len(rows)
    m = [[Fraction(rows[i][j]) for i in range(nrows)] for j in range(ncols)]
    pivots = []
    for c in range(nrows):
        r = len(pivots)
        p = next((i for i in range(r, ncols) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(ncols):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(nrows) if c not in pivots):
        y = [Fraction(int(c == free)) for c in range(nrows)]
        for r, c in enumerate(pivots):
            y[c] = -m[r][free]
        den = lcm(*(x.denominator for x in y))
        basis.append([int(x * den) for x in y])
    return basis


def as_relation(y):
    """A dense left-null vector as the (row, coefficient) pairs
    certified_rank reads."""
    return [(i, c) for i, c in enumerate(y) if c]


@st.composite
def matrices_with_relations(draw):
    """rank_test_matrices with genuine left-null vectors: the whole basis,
    a prefix of it (too few to prove the rank alone), none, or integer
    combinations of it.  The matrices with entries near 2^40 or past 2^64
    give relations whose products leave int64, which must go unused."""
    rows, ncols = draw(rank_test_matrices())
    basis = left_null_basis(rows, ncols)
    kind = draw(st.sampled_from(["all", "prefix", "none", "combinations"]))
    if kind == "all":
        relations = basis
    elif kind == "prefix":
        relations = basis[:draw(st.integers(min_value=0, max_value=len(basis)))]
    elif kind == "none":
        relations = []
    else:
        weights = draw(st.lists(st.lists(small_ints, min_size=len(basis), max_size=len(basis)),
                                max_size=len(basis) + 2))
        relations = [[sum(w * y[i] for w, y in zip(row, basis)) for i in range(len(rows))]
                     for row in weights]
    return rows, ncols, [as_relation(y) for y in relations]


class TestRelations:
    @given(matrices_with_relations())
    @settings(max_examples=300, deadline=None)
    def test_equals_bareiss(self, drawn):
        rows, ncols, relations = drawn
        assert certified_rank(rows, ncols, relations) == int_rank(rows, ncols)

    def test_relations_prove_a_deficient_rank_alone(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the relations should have proven the rank")

        monkeypatch.setattr(exact, "_kernel_certified", refuse)
        monkeypatch.setattr(exact, "int_rank", refuse)
        left = [[1, 0, 2], [0, 1, -1], [3, 1, 0], [1, 1, 1], [2, -1, 5], [0, 0, 1]]
        right = [[1, 2, 0, -1, 3], [0, 1, 1, 2, -2], [4, 0, -3, 1, 1]]
        rows = times(left, right)
        basis = left_null_basis(rows, 5)
        assert len(basis) == 3
        assert certified_rank(rows, 5, map(as_relation, basis)) == 3

    def test_too_few_relations_leave_the_other_rows_to_lifting(self, monkeypatch):
        # The search keeps rows 0 and 1; one relation proves row 2, and
        # lifting carries row 3 alone beside the pivot rows.
        certificates = spy(monkeypatch, "_kernel_certified")
        rows = [[1, 2, 3], [0, 1, 1], [1, 3, 4], [2, 5, 7]]
        assert certified_rank(rows, 3, [as_relation([1, 1, -1, 0])]) == 2
        assert [(args[0].tolist(), result) for args, result in certificates] == [
            ([[1, 2, 3], [0, 1, 1], [2, 5, 7]], True)]

    def test_relations_are_not_read_at_full_rank(self):
        def unread():
            raise AssertionError("a full rank needs no relation")
            yield

        assert certified_rank([[1, 0], [0, 1], [1, 1]], 2, unread()) == 2
        assert certified_rank([[1, 2], [3, 4]], 2, unread()) == 2

    def test_a_relation_that_is_not_left_null_raises(self):
        rows = [[1, 2], [2, 4], [3, 6]]
        assert certified_rank(rows, 2, [[(0, 2), (1, -1)], [(0, 3), (2, -1)]]) == 1
        for wrong in ([(0, 2), (1, 1)], [(0, 3), (5, -1)], [(-1, 1)]):
            with pytest.raises(InvariantViolation):
                certified_rank(rows, 2, [[(0, 2), (1, -1)], wrong])

    def test_relations_whose_product_could_leave_int64_go_unused(self, monkeypatch):
        # max|a| max||y||_1 = 2^36 (2^35 + 1) >= 2^63: the relation, though
        # genuine, is neither checked nor used, and lifting proves the rank.
        certificates = spy(monkeypatch, "_kernel_certified")
        rows = [[2 ** 35, 2 ** 36], [1, 2]]
        assert certified_rank(rows, 2, [[(0, 1), (1, -(2 ** 35))]]) == 1
        assert [result for _, result in certificates] == [True]


class TestWorkCount:
    """The eliminations each rank runs: one search, one more for the
    relations, and one Gauss–Jordan inverse per lifting."""

    def test_a_full_rank_runs_one_search(self, monkeypatch):
        searches = spy(monkeypatch, "_pivots_mod_p")
        inverses = spy(monkeypatch, "_inverse_mod_p")
        assert certified_rank([[1, 2, 3], [0, 1, 4], [5, 6, 0]], 3) == 3
        assert certified_rank([[1, 0], [0, 1], [1, 1]], 2) == 2
        assert (len(searches), inverses) == (2, [])

    def test_relations_prove_a_deficient_rank_in_two_searches(self, monkeypatch):
        searches = spy(monkeypatch, "_pivots_mod_p")
        inverses = spy(monkeypatch, "_inverse_mod_p")
        certificates = spy(monkeypatch, "_kernel_certified")
        left = [[1, 0, 2], [0, 1, -1], [3, 1, 0], [1, 1, 1], [2, -1, 5], [0, 0, 1]]
        right = [[1, 2, 0, -1, 3], [0, 1, 1, 2, -2], [4, 0, -3, 1, 1]]
        rows = times(left, right)
        relations = [as_relation(y) for y in left_null_basis(rows, 5)]
        assert certified_rank(rows, 5, relations) == 3
        assert [args[0].shape for args, _ in searches] == [(6, 5), (3, 3)]
        assert inverses == certificates == []

    def test_each_lifting_runs_one_inverse(self, monkeypatch):
        inverses = spy(monkeypatch, "_inverse_mod_p")
        counts = []
        lifting = exact._kernel_certified

        def counted(a, piv_cols):
            before = len(inverses)
            proven = lifting(a, piv_cols)
            counts.append(len(inverses) - before)
            return proven

        monkeypatch.setattr(exact, "_kernel_certified", counted)
        searches = spy(monkeypatch, "_pivots_mod_p")
        assert certified_rank(DEFICIENT, 3) == 2
        assert (len(searches), counts) == (1, [1])
        # A circle ring whose parallel rows 0 and 1 leave rows to lifting.
        circle_dims(sample_generic(new_setup(((3, 1, 0), (-6, -2, 0), (0, 1, 5),
                                              (2, 0, 1), (1, 1, 1), (1, -1, 2))), 3))
        assert counts[1:] and set(counts) == {1}


class TestSolveInverse:
    def test_solve_unique(self):
        det, x = int_solve([[2, 1], [1, 3]], [[5], [10]])
        assert [Fraction(row[0], det) for row in x] == [1, 3]

    def test_solve_inconsistent(self):
        assert int_solve([[1, 1], [2, 2]], [[1], [3]]) is None

    def test_solve_underdetermined(self):
        # x0 + x1 + x2 = 6 is solved on its first independent column with the
        # other unknowns zero, the solution the Fraction reference picks.
        det, x = int_solve([[1]], [[6]])
        assert (Fraction(x[0][0], det), 0, 0) == solve_exact([[1, 1, 1]], [6])

    def test_inverse_roundtrip(self):
        det, adj = int_solve([[2, 1], [1, 2]], identity(2))
        assert (det, adj) == (3, [[2, -1], [-1, 2]])
        assert times([[2, 1], [1, 2]], adj) == [[det, 0], [0, det]]

    def test_inverse_singular(self):
        assert int_solve([[1, 2], [2, 4]], identity(2)) is None

    def test_inverse_of_rational_rows(self):
        # rows (1/2, 1/3) and (2, -5/4) scaled by S = diag(6, 4): the inverse
        # of the rational matrix is A_int^-1 S
        a_int = [[3, 2], [8, -5]]
        det, x = int_solve(a_int, [[6, 0], [0, 4]])
        rational = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2), Fraction(-5, 4)]]
        assert times(rational, x) == [[det, 0], [0, det]]

    @given(int_matrix(4, 4), st.lists(small_ints, min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_int_solve_is_det_times_solution(self, m, rhs):
        solved = int_solve(m, [[r] for r in rhs])
        if int_rank(m, 4) < 4:
            assert solved is None
            return
        det, x = solved
        assert all(len(row) == 1 and isinstance(row[0], int) for row in x)
        assert tuple(Fraction(row[0], det) for row in x) == solve_exact(m, rhs)


class TestPoly:
    def test_trim(self):
        assert trim([1, 0, 0]) == (1,)
        assert trim((0, 2, 0)) == (0, 2)
        assert trim([0, 0]) == ()
        assert trim(()) == ()

    def test_divide_exact(self):
        assert divide_by_one_minus_q([1, 0, -1], 1) == (1, 1)  # 1 - q^2
        assert divide_by_one_minus_q([1, -1, -1, 1, 0], 2) == (1, 1)
        assert divide_by_one_minus_q([3, 0], 0) == (3,)
        assert divide_by_one_minus_q([0, 0], 1) == ()

    def test_divide_rejects_remainder(self):
        with pytest.raises(NonZeroRemainder):
            divide_by_one_minus_q([1, 1], 1)
        with pytest.raises(NonZeroRemainder):
            divide_by_one_minus_q([1, 0, -1], 2)  # (1 - q)(1 + q)

    @given(st.lists(small_ints, min_size=1, max_size=5),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_divide_undoes_multiply(self, a, power):
        p = trim(a)
        product = list(p)
        for _ in range(power):  # times 1 - q
            product = [x - y for x, y in zip(product + [0], [0] + product)]
        assert divide_by_one_minus_q(product + [0] * 3, power) == p
