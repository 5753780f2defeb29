from fractions import Fraction
from math import gcd
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
    SamplingExhausted,
)
from hypertoric.exact import int_rank
from hypertoric import exact, flats, torus
from hypertoric.torus import (
    critical_levels,
    derived_seed,
    modify,
    negative_rows,
    new_setup,
    sample_generic,
    walls_of,
)
from flat_reference import reference_flats
import metric_reference as ref
from test_acceptance import CATALOG

DIAG2 = ((1,), (1,))
TRIPLE = ((1, 0), (0, 1), (1, 1))


def pairing(weights, flat, vec, i):
    """<R_J vec, u_i> read off the wall of row i outside the flat J."""
    walls, _, denom = walls_of(weights)[flat]
    return Fraction(sum(map(mul, dict(walls)[i], vec)), denom)


def level(weights, flat, beta):
    """|R_J beta|^2 read off the level form of the flat J: b^T form b / denom
    summed over b = Re beta and Im beta, for any beta, generic or not."""
    _, form, denom = walls_of(weights)[flat]
    return sum(Fraction(sum(x * sum(map(mul, row, b))
                            for x, row in zip(b, form)), denom)
               for b in zip(*beta))


class TestNewSetup:
    def test_defaults_to_zero_levels(self):
        s = new_setup(DIAG2)
        assert s.n == 2 and s.dim == 1 and s.ambient_dim == 1
        assert s.alpha == (Fraction(0),)
        assert s.beta == ((0, 0),)

    def test_accepts_rational_strings(self):
        s = new_setup(DIAG2, ["3/2"], [("1/2", "-2")])
        assert s.alpha == (Fraction(3, 2),)
        assert s.beta == ((Fraction(1, 2), Fraction(-2)),)

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
        # The bottom flat's level form is G^-1: with G = [[2, 1], [1, 2]],
        # G^-1 = [[2/3, -1/3], [-1/3, 2/3]] is its adjugate over det G
        _, form, denom = walls_of(TRIPLE)[()]
        assert form == ((2, -1), (-1, 2))
        assert denom == 3

    def test_pairing(self):
        # on the empty flat the residual is the identity: plain pairings
        assert pairing(DIAG2, (), (1,), 0) == Fraction(1, 2)
        assert pairing(TRIPLE, (), (1, 2), 0) == 0
        assert pairing(TRIPLE, (), (1, 3), 0) == Fraction(-1, 3)


class TestResiduals:
    def test_perp_part_empty_subset_is_identity(self):
        # the empty flat's level form is G^-1 itself: adj over det
        _, form, denom = walls_of(TRIPLE)[()]
        assert form == ((2, -1), (-1, 2))
        assert denom == 3
        assert [pairing(TRIPLE, (), (1, 2), i) for i in range(3)] == [0, 1, 1]

    def test_perp_part_full_span_kills_vector(self):
        # (0, 1) spans everything and closes to the top flat: no walls, and
        # the residual of (3, -2) is zero
        walls, form, _ = walls_of(TRIPLE)[(0, 1, 2)]
        assert walls == ()
        assert form == ((0, 0), (0, 0))
        assert critical_levels(new_setup(TRIPLE, beta=[(3, 0), (-2, 0)]))[
            (0, 1, 2)] == 0

    def test_residual_orthogonal_to_flat(self):
        # form u_2 would be the wall of row 2 on the flat (2,): it is zero,
        # so the residuals of Re beta and Im beta pair to zero with u_2
        walls, form, _ = walls_of(TRIPLE)[(2,)]
        assert [sum(map(mul, row, TRIPLE[2])) for row in form] == [0, 0]
        assert [i for i, _ in walls] == [0, 1]
        # Re beta and Im beta have residuals +-(1/2, -1/2), each of squared
        # dual length 1/2; this beta is not generic, so the wall table gives
        # the level
        s = new_setup(TRIPLE, [1, 3], [(1, 0), (0, 1)])
        assert level(TRIPLE, (2,), s.beta) == 1
        assert ref.critical_level(TRIPLE, s.beta, (2,)) == 1
        with pytest.raises(NonGenericBeta):
            critical_levels(s)

    def test_critical_levels_diagonal(self):
        s = new_setup(DIAG2, [1], [(3, 0)])
        assert critical_levels(s) == {(): Fraction(9, 2), (0, 1): 0}
        s2 = new_setup(DIAG2, [1], [(0, 1)])
        assert critical_levels(s2)[()] == Fraction(1, 2)

    def test_norm2_uses_dual_metric(self):
        # 3^2 G^-1 = 9/2 where the Euclidean square would be 9
        _, form, denom = walls_of(DIAG2)[()]
        assert Fraction(3 * 3 * form[0][0], denom) == Fraction(9, 2)


class TestGenericBeta:
    def test_zero_beta_rejected(self):
        s = new_setup(DIAG2, [1], [(0, 0)])
        with pytest.raises(NonGenericBeta) as raised:
            negative_rows(s)
            critical_levels(s)
        assert raised.value.witness == ("pairing", (), 0)

    def test_residual_vanishes_on_flat(self):
        s = new_setup(TRIPLE, [1, 3], [(1, 0), (1, 0)])
        with pytest.raises(NonGenericBeta) as raised:
            critical_levels(s)
        assert raised.value.witness == ("pairing", (2,), 0)

    def test_level_collision_detected(self):
        s = new_setup(((1, 0), (0, 1)), [1, 2], [(1, 0), (1, 0)])
        with pytest.raises(NonGenericBeta) as raised:
            critical_levels(s)
        w = raised.value.witness
        assert w[0] == "level_collision"
        assert set(w[1:]) == {(0,), (1,)}

    def test_generic_beta_accepted(self):
        critical_levels(new_setup(DIAG2, [1], [(1, 0)]))
        critical_levels(new_setup(((1, 0), (0, 1)), [1, 2], [(1, 0), (2, 0)]))


class TestGenericAlpha:
    def test_zero_alpha_rejected(self):
        s = new_setup(DIAG2, [0])
        with pytest.raises(NonGenericAlpha) as raised:
            negative_rows(s)
            critical_levels(s)
        assert raised.value.witness == ("pairing", (), 0)

    def test_coincident_hyperplanes_rejected(self):
        with pytest.raises(NonGenericAlpha):
            negative_rows(new_setup(TRIPLE, [1, 1]))

    def test_pairing_wall_rejected_even_when_simple(self):
        # offsets (1,2,0) give three distinct points, yet alpha pairs to zero
        # with the first weight row
        with pytest.raises(NonGenericAlpha) as raised:
            negative_rows(new_setup(TRIPLE, [1, 2]))
        assert raised.value.witness == ("pairing", (), 0)

    def test_generic_alpha_accepted(self):
        negative_rows(new_setup(DIAG2, [1]))
        negative_rows(new_setup(TRIPLE, [1, 3]))
        negative_rows(new_setup(((1, 0), (0, 1)), [1, 2]))
        negative_rows(new_setup(((), ()), [], []))


class TestSampling:
    def test_sample_is_deterministic_and_generic(self):
        s1 = sample_generic(new_setup(TRIPLE), seed=11)
        s2 = sample_generic(new_setup(TRIPLE), seed=11)
        assert s1 == s2
        negative_rows(s1)
        critical_levels(s1)

    def test_sample_respects_pinned_alpha(self):
        s = sample_generic(new_setup(TRIPLE, [1, 3]), seed=5)
        assert s.alpha == (Fraction(1), Fraction(3))
        critical_levels(s)

    def test_pinned_nongeneric_alpha_is_redrawn(self):
        s = sample_generic(new_setup(TRIPLE, [1, 1]), seed=5)
        assert s.alpha != (Fraction(1), Fraction(1))
        negative_rows(s)
        critical_levels(s)

    def test_a_checked_generic_setup_comes_back_without_a_rank(self, monkeypatch):
        s = new_setup(TRIPLE, [1, 3], [(1, 0), (3, 0)])
        negative_rows(s)
        critical_levels(s)
        calls = []
        for module in (torus, exact):
            monkeypatch.setattr(module, "int_rank",
                                lambda *args: calls.append(args))
        monkeypatch.setattr(flats, "_reduced", lambda *args: calls.append(args))
        assert sample_generic(s, seed=5) is s
        assert calls == []

    @pytest.mark.parametrize("weights", CATALOG)
    def test_a_level_not_given_is_drawn_like_a_zero_level(self, weights):
        d = len(weights[0])
        for seed in (0, 3):
            assert sample_generic(new_setup(weights), seed) == sample_generic(
                new_setup(weights, alpha=[0] * d, beta=[[0, 0]] * d), seed)

    def test_no_rounds_left_refuses_the_first_non_generic_level(self, monkeypatch):
        monkeypatch.setattr("hypertoric.torus._SAMPLE_ROUNDS", 0)
        with pytest.raises(SamplingExhausted, match="^no generic alpha found$"):
            sample_generic(new_setup(DIAG2), seed=0)
        with pytest.raises(SamplingExhausted, match="^no generic beta found$"):
            sample_generic(new_setup(DIAG2, [1]), seed=0)

    def test_different_seeds_usually_differ(self):
        draws = {sample_generic(new_setup(TRIPLE), seed=k) for k in range(6)}
        assert len(draws) > 1

    def test_derived_seed_stable(self):
        a = derived_seed("tag", TRIPLE, (1, 0, 1), 3)
        b = derived_seed("tag", TRIPLE, (1, 0, 1), 3)
        c = derived_seed("tag", TRIPLE, (1, 0, 1), 4)
        assert a == b != c
        assert 0 <= a < 2 ** 32


class TestModification:
    def test_shapes(self):
        _, enlarged, extended = modify(sample_generic(new_setup(TRIPLE), seed=1),
                                       (1, 0, 0), seed=3)
        assert enlarged.weights == ((1, 0, 1), (0, 1, 0), (1, 1, 0))
        assert extended.weights == ((1, 0, 1), (0, 1, 0), (1, 1, 0),
                                    (0, 0, -1))

    def test_modify_builds_generic_pair(self):
        s = sample_generic(new_setup(DIAG2), seed=1)
        _, enlarged, extended = modify(s, (1, 0), seed=2)
        assert enlarged.weights == ((1, 1), (1, 0))
        assert extended.weights == ((1, 1), (1, 0), (0, -1))
        for derived in (enlarged, extended):
            negative_rows(derived)
            critical_levels(derived)

    def test_modify_deterministic(self):
        s = sample_generic(new_setup(DIAG2), seed=1)
        assert modify(s, (1, 0), seed=2) == modify(s, (1, 0), seed=2)

    def test_circle_in_span_rejected(self):
        s = sample_generic(new_setup(DIAG2), seed=1)
        inside = "circle weight column lies in the span of the existing weights"
        with pytest.raises(CircleInsideTorus, match=f"^{inside}$"):
            modify(s, (2, 2))
        # With no rows the circle column is empty: rank 0, not 1.
        with pytest.raises(CircleInsideTorus, match=f"^{inside}$"):
            modify(new_setup(()), ())

    def test_bad_circle_rejected(self):
        s = sample_generic(new_setup(DIAG2), seed=1)
        with pytest.raises(DimensionMismatch,
                           match="^circle has 3 entries, weights have 2 rows$"):
            modify(s, (1, 0, 0))
        for circle in ((1, 0.5), (True, 0)):
            with pytest.raises(InputError, match="^circle weights must be integers$"):
                modify(s, circle)


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
    beta = [(draw(q), draw(q)) for _ in range(d)]
    return new_setup(weights, alpha, beta)


@given(rational_setups())
@settings(max_examples=100, deadline=None)
def test_metric_and_residuals_equal_the_fraction_reference(setup):
    w = setup.weights
    table = walls_of(w)
    assert list(table) == [f for f, _ in reference_flats(w)]
    # The bottom flat, spanned by the zero rows, projects nothing out: its
    # level form over its denominator is G^-1
    _, metric_form, metric_denom = next(iter(table.values()))
    gi = ref.gram_inverse(w)
    assert metric_denom > 0
    assert [[Fraction(x, metric_denom) for x in row] for row in metric_form] == gi
    for f, (walls, form, denom) in table.items():
        assert denom > 0
        # form / denom = G^-1 R_J, which is symmetric
        assert [[Fraction(x, denom) for x in row] for row in form] \
            == ref.matmul(gi, ref.residual_map(w, f))
        assert level(w, f, setup.beta) == ref.critical_level(w, setup.beta, f)
        res = ref.residual(w, f, setup.alpha)
        assert [i for i, _ in walls] == [i for i in range(setup.n)
                                         if i not in f]
        for i, h in walls:
            assert pairing(w, f, setup.alpha, i) == ref.pairing(gi, res, w[i])


class TestLevelLayerWork:
    """The eliminations of the level layer: the lattice reduces rows against
    an echelon and ranks nothing, and the wall table solves the Gram system
    once per weights and downdates every other flat's form from the entry
    of its basis less the last row."""

    WEIGHTS = (TRIPLE, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3)),
               ((2, 0), (0, 2), (1, 1), (0, 1)),
               ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (1, 1, 1, 1), (1, -1, 2, 0)))

    @pytest.fixture(autouse=True)
    def cold_tables(self):
        """Every test builds its tables afresh, and leaves none behind."""
        flats.lattice.cache_clear()
        walls_of.cache_clear()
        yield
        flats.lattice.cache_clear()
        walls_of.cache_clear()

    def test_the_lattice_ranks_nothing_and_the_walls_solve_once(self, monkeypatch):
        ranks, solves = [], []
        for module in (torus, exact):
            monkeypatch.setattr(module, "int_rank",
                                lambda *args: ranks.append(args))
        solve = torus.int_solve
        monkeypatch.setattr(torus, "int_solve",
                            lambda *args: solves.append(args) or solve(*args))
        for weights in self.WEIGHTS:
            walls_of(weights)
        assert ranks == []
        assert len(solves) == len(self.WEIGHTS)

    def test_every_downdated_form_is_in_lowest_terms(self):
        for weights in self.WEIGHTS:
            _, *rest = walls_of(weights).values()
            assert all(gcd(denom, *(x for row in form for x in row)) == 1
                       for _, form, denom in rest)
        # The bottom flat keeps the Gram solve's adjugate and determinant:
        # G = 4 I has adjugate 4 I over 16.
        assert walls_of(((2, 0), (0, 2)))[()][1:] == (((4, 0), (0, 4)), 16)

    def test_a_lattice_without_its_first_atom_keeps_the_true_forms(self, monkeypatch):
        # The dropped atom's basis is a prefix of the bases above it, so
        # their downdates build its entry themselves.
        for weights in self.WEIGHTS:
            truth = dict(walls_of(weights))
            walls_of.cache_clear()
            table = flats.lattice(weights)
            atom = next(f for f, basis in table if len(basis) == 1)
            with monkeypatch.context() as patch:
                patch.setattr(flats, "lattice", lambda w: tuple(
                    entry for entry in table if entry[0] != atom))
                faulted = dict(walls_of(weights))
            walls_of.cache_clear()
            assert faulted == {f: v for f, v in truth.items() if f != atom}
