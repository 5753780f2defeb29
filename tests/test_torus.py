from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric.errors import (
    CircleInsideTorus,
    DimensionMismatch,
    InputError,
    NonGenericAlpha,
    NonGenericBeta,
    RankDeficient,
)
from hypertoric.exact import CRat, int_rank
from hypertoric.flats import enumerate_flats
from hypertoric.torus import (
    alpha_witness,
    beta_witness,
    critical_level,
    derived_seed,
    enlarged_weights,
    extended_weights,
    gale_of,
    metric_of,
    modify,
    new_setup,
    require_generic,
    sample_generic,
    walls_of,
)
import metric_reference as ref

DIAG2 = ((1,), (1,))
TRIPLE = ((1, 0), (0, 1), (1, 1))


def pairing(weights, flat, vec, i):
    """<R_J vec, u_i> read off the wall of row i outside the flat J."""
    entry = walls_of(weights)[flat]
    return Fraction(sum(map(mul, dict(entry.walls)[i], vec)), entry.denom)


def assert_kernel_basis(gale, weights):
    """C B = 0, C has n - d rows of rank n - d, and the normals are the
    columns of C."""
    n, d = len(weights), len(weights[0])
    c = gale.cmatrix
    assert all(sum(row[j] * weights[j][k] for j in range(n)) == 0
               for row in c for k in range(d))
    assert len(c) == n - d and int_rank(c, n) == n - d
    assert gale.normals == tuple(tuple(row[j] for row in c) for j in range(n))


class TestNewSetup:
    def test_defaults_to_zero_levels(self):
        s = new_setup(DIAG2)
        assert s.n == 2 and s.dim == 1 and s.ambient_dim == 1
        assert s.alpha == (Fraction(0),)
        assert s.beta == (CRat(),)

    def test_accepts_rational_strings(self):
        s = new_setup(DIAG2, ["3/2"], [("1/2", "-2")])
        assert s.alpha == (Fraction(3, 2),)
        assert s.beta == (CRat(Fraction(1, 2), Fraction(-2)),)

    def test_rejects_non_integer_weights(self):
        with pytest.raises(InputError):
            new_setup(((1.5,), (1,)))
        with pytest.raises(InputError):
            new_setup(((True,), (1,)))

    def test_rejects_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            new_setup(((1, 0), (1,)))

    def test_rejects_bad_level_lengths(self):
        with pytest.raises(DimensionMismatch):
            new_setup(DIAG2, [1, 2])
        with pytest.raises(DimensionMismatch):
            new_setup(DIAG2, [1], [(1, 0), (0, 0)])

    def test_rejects_rank_deficient(self):
        with pytest.raises(RankDeficient):
            new_setup(((1, 1), (2, 2)))
        with pytest.raises(RankDeficient):
            new_setup(((1, 0),), [0, 0])  # 1 row cannot have rank 2

    def test_trivial_torus(self):
        s = new_setup(((), ()), [], [])
        assert s.dim == 0 and s.ambient_dim == 2


class TestMetricGale:
    def test_gram_and_inverse(self):
        m = metric_of(TRIPLE)
        # G = [[2, 1], [1, 2]], G^-1 = [[2/3, -1/3], [-1/3, 2/3]]
        assert m.adj == ((2, -1), (-1, 2))
        assert m.det == 3

    def test_gale_diagonal_circle(self):
        s = new_setup(DIAG2, [1])
        g = gale_of(s)
        assert_kernel_basis(g, s.weights)
        assert g.offsets == (Fraction(1), Fraction(0))

    def test_gale_kernel_annihilates_weights(self):
        s = new_setup(((1,), (1,), (1,)), [2])
        g = gale_of(s)
        assert_kernel_basis(g, s.weights)
        assert g.offsets == (Fraction(2), Fraction(0), Fraction(0))

    def test_gale_square_case_has_empty_normals(self):
        s = new_setup(((1, 0), (0, 1)), [1, 2])
        g = gale_of(s)
        assert g.cmatrix == ()
        assert g.normals == ((), ())
        assert g.offsets == (Fraction(1), Fraction(2))

    def test_gale_trivial_torus_is_coordinate_arrangement(self):
        s = new_setup(((), ()), [], [])
        g = gale_of(s)
        assert_kernel_basis(g, s.weights)
        assert g.offsets == (Fraction(0), Fraction(0))

    def test_pairing(self):
        # on the empty flat the residual is the identity: plain pairings
        assert pairing(DIAG2, (), (1,), 0) == Fraction(1, 2)
        assert pairing(TRIPLE, (), (1, 2), 0) == 0
        assert pairing(TRIPLE, (), (1, 3), 0) == Fraction(-1, 3)


class TestResiduals:
    def test_perp_part_empty_subset_is_identity(self):
        # the empty flat's level form is G^-1 itself: adj over det
        entry = walls_of(TRIPLE)[()]
        assert entry.form == metric_of(TRIPLE).adj
        assert entry.denom == metric_of(TRIPLE).det
        assert [pairing(TRIPLE, (), (1, 2), i) for i in range(3)] == [0, 1, 1]

    def test_perp_part_full_span_kills_vector(self):
        # (0, 1) spans everything and closes to the top flat: no walls, and
        # the residual of (3, -2) is zero
        entry = walls_of(TRIPLE)[(0, 1, 2)]
        assert entry.walls == ()
        assert entry.form == ((0, 0), (0, 0))
        assert critical_level(new_setup(TRIPLE, beta=[(3, 0), (-2, 0)]),
                              (0, 1, 2)) == 0

    def test_residual_orthogonal_to_flat(self):
        # form u_2 would be the wall of row 2 on the flat (2,): it is zero,
        # so the residuals of Re beta and Im beta pair to zero with u_2
        entry = walls_of(TRIPLE)[(2,)]
        assert [sum(map(mul, row, TRIPLE[2])) for row in entry.form] == [0, 0]
        assert [i for i, _ in entry.walls] == [0, 1]
        # Re beta and Im beta have residuals +-(1/2, -1/2), each of squared
        # dual length 1/2
        s = new_setup(TRIPLE, [1, 3], [(1, 0), (0, 1)])
        assert critical_level(s, (2,)) == 1

    def test_critical_levels_diagonal(self):
        s = new_setup(DIAG2, [1], [(3, 0)])
        assert critical_level(s, ()) == Fraction(9, 2)
        assert critical_level(s, (0, 1)) == 0
        s2 = new_setup(DIAG2, [1], [(0, 1)])
        assert critical_level(s2, ()) == Fraction(1, 2)

    def test_norm2_uses_dual_metric(self):
        # 3^2 G^-1 = 9/2 where the Euclidean square would be 9
        entry = walls_of(DIAG2)[()]
        assert Fraction(3 * 3 * entry.form[0][0], entry.denom) == Fraction(9, 2)


class TestGenericBeta:
    def test_zero_beta_rejected(self):
        s = new_setup(DIAG2, [1], [(0, 0)])
        assert beta_witness(s) == ("pairing", (), 0)
        with pytest.raises(NonGenericBeta):
            require_generic(s)

    def test_residual_vanishes_on_flat(self):
        s = new_setup(TRIPLE, [1, 3], [(1, 0), (1, 0)])
        assert beta_witness(s) == ("pairing", (2,), 0)

    def test_level_collision_detected(self):
        s = new_setup(((1, 0), (0, 1)), [1, 2], [(1, 0), (1, 0)])
        w = beta_witness(s)
        assert w is not None and w[0] == "level_collision"
        assert set(w[1:]) == {(0,), (1,)}

    def test_generic_beta_accepted(self):
        assert beta_witness(new_setup(DIAG2, [1], [(1, 0)])) is None
        assert beta_witness(new_setup(((1, 0), (0, 1)), [1, 2], [(1, 0), (2, 0)])) is None


class TestGenericAlpha:
    def test_zero_alpha_rejected(self):
        s = new_setup(DIAG2, [0])
        assert alpha_witness(s) == ("pairing", (), 0)
        with pytest.raises(NonGenericAlpha):
            require_generic(s)

    def test_coincident_hyperplanes_rejected(self):
        s = new_setup(TRIPLE, [1, 1])
        w = alpha_witness(s)
        assert w is not None

    def test_pairing_wall_rejected_even_when_simple(self):
        # offsets (1,2,0) give three distinct points, yet alpha pairs to zero
        # with the first weight row
        s = new_setup(TRIPLE, [1, 2])
        assert alpha_witness(s) == ("pairing", (), 0)

    def test_generic_alpha_accepted(self):
        assert alpha_witness(new_setup(DIAG2, [1])) is None
        assert alpha_witness(new_setup(TRIPLE, [1, 3])) is None
        assert alpha_witness(new_setup(((1, 0), (0, 1)), [1, 2])) is None
        assert alpha_witness(new_setup(((), ()), [], [])) is None


class TestSampling:
    def test_sample_is_deterministic_and_generic(self):
        s1 = sample_generic(TRIPLE, seed=11)
        s2 = sample_generic(TRIPLE, seed=11)
        assert s1 == s2
        require_generic(s1)

    def test_sample_respects_pinned_alpha(self):
        s = sample_generic(TRIPLE, seed=5, alpha=[1, 3])
        assert s.alpha == (Fraction(1), Fraction(3))
        assert beta_witness(s) is None

    def test_pinned_nongeneric_alpha_is_redrawn(self):
        s = sample_generic(TRIPLE, seed=5, alpha=[1, 1])
        assert s.alpha != (Fraction(1), Fraction(1))
        require_generic(s)

    def test_different_seeds_usually_differ(self):
        draws = {sample_generic(TRIPLE, seed=k) for k in range(6)}
        assert len(draws) > 1

    def test_derived_seed_stable(self):
        a = derived_seed("tag", TRIPLE, (1, 0, 1), 3)
        b = derived_seed("tag", TRIPLE, (1, 0, 1), 3)
        c = derived_seed("tag", TRIPLE, (1, 0, 1), 4)
        assert a == b != c
        assert 0 <= a < 2 ** 32


class TestModification:
    def test_shapes(self):
        assert enlarged_weights(DIAG2, (1, 0)) == ((1, 1), (1, 0))
        assert extended_weights(DIAG2, (1, 0)) == ((1, 1), (1, 0), (0, -1))

    def test_modify_builds_generic_pair(self):
        s = sample_generic(DIAG2, seed=1)
        pair = modify(s, (1, 0), seed=2)
        assert pair.enlarged.weights == ((1, 1), (1, 0))
        assert pair.extended.weights == ((1, 1), (1, 0), (0, -1))
        require_generic(pair.enlarged)
        require_generic(pair.extended)

    def test_modify_deterministic(self):
        s = sample_generic(DIAG2, seed=1)
        assert modify(s, (1, 0), seed=2) == modify(s, (1, 0), seed=2)

    def test_circle_in_span_rejected(self):
        s = sample_generic(DIAG2, seed=1)
        with pytest.raises(CircleInsideTorus):
            modify(s, (2, 2))

    def test_bad_circle_rejected(self):
        s = sample_generic(DIAG2, seed=1)
        with pytest.raises(DimensionMismatch):
            modify(s, (1, 0, 0))
        with pytest.raises(InputError):
            modify(s, (1, 0.5))


@st.composite
def rational_setups(draw):
    """Full-rank weights with n <= 8 rows and d <= 4 columns, and rational
    levels."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(max(d, 1), 8))
    weights = tuple(draw(st.tuples(*[st.integers(-3, 3)] * d)) for _ in range(n))
    assume(int_rank(weights, d) == d)
    q = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    alpha = draw(st.tuples(*[q] * d))
    beta = [CRat(draw(q), draw(q)) for _ in range(d)]
    return new_setup(weights, alpha, beta)


@given(rational_setups())
@settings(max_examples=100, deadline=None)
def test_metric_and_residuals_equal_the_fraction_reference(setup):
    w = setup.weights
    metric = metric_of(w)
    gi = ref.gram_inverse(w)
    assert metric.det > 0
    assert [[Fraction(x, metric.det) for x in row] for row in metric.adj] == gi
    gale = gale_of(setup)
    cmatrix, _, offsets = ref.gale(w, setup.alpha)
    assert_kernel_basis(gale, w)
    assert ref.rref(gale.cmatrix, setup.n) == ref.rref(cmatrix, setup.n)
    assert gale.offsets == offsets
    table = walls_of(w)
    assert list(table) == list(enumerate_flats(w))
    for f, entry in table.items():
        assert entry.denom > 0
        # form / denom = G^-1 R_J, which is symmetric
        assert [[Fraction(x, entry.denom) for x in row] for row in entry.form] \
            == ref.matmul(gi, ref.residual_map(w, f))
        assert critical_level(setup, f) == ref.critical_level(w, setup.beta, f)
        res = ref.residual(w, f, setup.alpha)
        assert [i for i, _ in entry.walls] == [i for i in range(setup.n)
                                               if i not in f]
        for i, h in entry.walls:
            assert pairing(w, f, setup.alpha, i) == ref.pairing(gi, res, w[i])
