from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertoric.errors import NonGenericAlpha, NonGenericBeta, RankDeficient
from hypertoric.exact import PoincarePoly, RatMatrix, rank
from hypertoric.morse import (
    critical_components,
    modification_cases,
    modification_recurrence,
    perfection_sum,
    poincare_morse,
    sign_split,
)
from hypertoric.torus import new_setup, sample_generic

DIAG2 = ((1,), (1,))
TRIPLE = ((1, 0), (0, 1), (1, 1))


class TestPoincare:
    def test_projective_cotangent_series(self):
        # cotangent bundles of projective spaces: all coefficients 1
        for n in range(1, 5):
            weights = tuple((1,) for _ in range(n + 1))
            assert poincare_morse(weights).coeffs == (1,) * (n + 1)

    def test_triple(self):
        assert poincare_morse(TRIPLE).coeffs == (1, 2)

    def test_points(self):
        assert poincare_morse(((1, 0), (0, 1))).coeffs == (1,)
        assert poincare_morse(((1,),)).coeffs == (1,)

    def test_trivial_torus_is_contractible(self):
        assert poincare_morse(((), ())).coeffs == (1,)

    def test_scaled_weights_share_matroid(self):
        assert poincare_morse(((1,), (2,))).coeffs == (1, 1)

    def test_rank_deficient_weights_rejected(self):
        with pytest.raises(RankDeficient):
            poincare_morse(((1, 1), (2, 2)))

    def test_zero_row_is_inert(self):
        assert poincare_morse(((0,), (1,))).coeffs == (1,)
        assert poincare_morse(((0, 0), (1, 0), (0, 1), (1, 1))).coeffs == \
            poincare_morse(TRIPLE).coeffs

    def test_constant_term_and_degree_bound(self):
        for weights in [DIAG2, TRIPLE, ((1,), (1,), (2,), (3,))]:
            p = poincare_morse(weights)
            assert p.coefficient(0) == 1
            n, d = len(weights), len(weights[0])
            assert p.degree <= n - d


class TestPerfection:
    def test_known_configurations(self):
        for weights in [DIAG2, TRIPLE, ((1, 0), (0, 1)),
                        ((1,), (1,), (1,), (1,)), ((0,), (1,), (2,))]:
            assert perfection_sum(weights) == PoincarePoly.one()

    @given(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                             min_size=2, max_size=2),
                    min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_full_rank(self, rows):
        weights = tuple(tuple(r) for r in rows)
        if rank(RatMatrix(weights)) != 2:
            return
        assert perfection_sum(weights) == PoincarePoly.one()


class TestCriticalComponents:
    def test_diagonal_circle(self):
        s = new_setup(DIAG2, [1], [(3, 0)])
        comps = critical_components(s)
        assert [c.flat for c in comps] == [(), (0, 1)]
        assert [c.level for c in comps] == [Fraction(9, 2), Fraction(0)]
        assert [c.index for c in comps] == [4, 0]
        assert [c.rank for c in comps] == [0, 1]

    def test_requires_generic_beta(self):
        s = new_setup(DIAG2, [1], [(0, 0)])
        with pytest.raises(NonGenericBeta):
            critical_components(s)

    def test_levels_strictly_separated(self):
        s = sample_generic(TRIPLE, seed=3)
        comps = critical_components(s)
        levels = [c.level for c in comps]
        assert len(set(levels)) == len(levels)


class TestSignSplit:
    def test_diagonal_circle_signs(self):
        up = new_setup(DIAG2, [1])
        assert sign_split(up, ()) == ((0, 1), ())
        down = new_setup(DIAG2, [-1])
        assert sign_split(down, ()) == ((), (0, 1))

    def test_rows_in_flat_excluded(self):
        s = new_setup(TRIPLE, [1, 3])
        plus, minus = sign_split(s, (2,))
        assert set(plus) | set(minus) == {0, 1}

    def test_zero_pairing_raises(self):
        s = new_setup(TRIPLE, [1, 2])  # pairs to zero against row 0
        with pytest.raises(NonGenericAlpha):
            sign_split(s, ())


class TestModification:
    def test_recurrence_diagonal_circle(self):
        p_base, p_enl, p_ext, ok = modification_recurrence(DIAG2, (1, 0))
        assert p_base.coeffs == (1, 1)
        assert p_enl.coeffs == (1,)
        assert p_ext.coeffs == (1, 2)
        assert ok

    def test_recurrence_batch(self):
        pairs = [
            (DIAG2, (1, 0)),
            (DIAG2, (0, 1)),
            (TRIPLE, (1, 0, 0)),
            (TRIPLE, (0, 0, 1)),
            (((1,), (1,), (1,)), (1, 0, 0)),
            (((1,), (2,), (3,)), (0, 1, 1)),
        ]
        for weights, circle in pairs:
            _, _, _, ok = modification_recurrence(weights, circle)
            assert ok, (weights, circle)

    def test_recurrence_rejects_spanned_circle(self):
        from hypertoric.errors import CircleInsideTorus
        with pytest.raises(CircleInsideTorus):
            modification_recurrence(TRIPLE, (0, 1, 1))

    def test_cases_diagonal_circle(self):
        cases = modification_cases(DIAG2, (1, 0))
        assert cases.new_only == ((0,), (1,))
        assert cases.shared_both == ((),)
        assert cases.shared_extended == ((0, 1),)

    def test_case_sizes_sum_to_enlarged_flat_count(self):
        from hypertoric.flats import enumerate_flats
        from hypertoric.torus import enlarged_weights
        for weights, circle in [(TRIPLE, (1, 0, 0)), (DIAG2, (0, 1)),
                                (((1,), (1,), (1,)), (1, -1, 0))]:
            cases = modification_cases(weights, circle)
            total = (len(cases.new_only) + len(cases.shared_both)
                     + len(cases.shared_extended))
            assert total == len(enumerate_flats(enlarged_weights(weights, circle)))
