import pytest

from hypertoric.arrangement import (
    bounded_regions,
    census_poincare,
    cone_is_pointed,
    face_census,
    fm_feasible,
)
from hypertoric.errors import DegenerateNormal, InvariantViolation, NotSimple
from hypertoric.morse import poincare_morse
from hypertoric.torus import new_setup, sample_generic

DIAG2 = ((1,), (1,))
TRIPLE = ((1, 0), (0, 1), (1, 1))


class TestFeasibility:
    def test_interval(self):
        # 0 < y < 1
        assert fm_feasible([((1,), 0, True), ((-1,), 1, True)], 1)
        # 0 < y < 0
        assert not fm_feasible([((1,), 0, True), ((-1,), 0, True)], 1)
        # 0 <= y <= 0 admits the single point
        assert fm_feasible([((1,), 0, False), ((-1,), 0, False)], 1)
        # 0 < y <= 0
        assert not fm_feasible([((1,), 0, True), ((-1,), 0, False)], 1)

    def test_constant_constraints(self):
        assert not fm_feasible([((0, 0), -1, False)], 2)
        assert fm_feasible([((0, 0), 0, False)], 2)
        assert not fm_feasible([((0, 0), 0, True)], 2)

    def test_triangle_interior(self):
        cons = [((1, 0), 0, True), ((0, 1), 0, True), ((-1, -1), 1, True)]
        assert fm_feasible(cons, 2)
        cons.append(((1, 1), -1, True))  # y1 + y2 > 1 contradicts the rest
        assert not fm_feasible(cons, 2)

    def test_empty_system(self):
        assert fm_feasible([], 3)

    def test_constraint_beyond_nvars_is_invariant_violation(self):
        with pytest.raises(InvariantViolation):
            fm_feasible([((1,), 0, True)], 0)


class TestPointedCone:
    def test_quadrant_is_not_pointed(self):
        assert not cone_is_pointed([(1, 0), (0, 1)], 2)

    def test_triangle_cone_is_pointed(self):
        assert cone_is_pointed([(1, 0), (0, 1), (-1, -1)], 2)

    def test_rank_deficient_is_not_pointed(self):
        assert not cone_is_pointed([(1, 0)], 2)
        assert not cone_is_pointed([(1, 0), (-1, 0)], 2)

    def test_interval_cone(self):
        assert cone_is_pointed([(1,), (-1,)], 1)
        assert not cone_is_pointed([(1,)], 1)


class TestBoundedRegions:
    def test_point_dimension(self):
        assert bounded_regions([], 0) == 1

    def test_line_with_marked_points(self):
        # hyperplanes y = 0, y = 1, y = 3 cut the line into two bounded cells
        hps = [((1,), 0), ((1,), 1), ((1,), 3)]
        assert bounded_regions(hps, 1) == 2

    def test_plane_triangle(self):
        hps = [((1, 0), 0), ((0, 1), 0), ((1, 1), 2)]
        assert bounded_regions(hps, 2) == 1

    def test_no_hyperplanes_unbounded(self):
        assert bounded_regions([], 2) == 0


class TestCensus:
    def test_diagonal_circle(self):
        assert face_census(new_setup(DIAG2, [1])) == (2, 1)

    def test_projective_plane_cotangent(self):
        s = new_setup(((1,), (1,), (1,)), [2])
        assert face_census(s) == (3, 3, 1)

    def test_triple(self):
        assert face_census(new_setup(TRIPLE, [1, 3])) == (3, 2)

    def test_trivial_torus(self):
        assert face_census(new_setup(((), ()), [], [])) == (1, 0, 0)

    def test_ambient_zero(self):
        assert face_census(new_setup(((1, 0), (0, 1)), [1, 2])) == (1,)

    def test_ambient_zero_degenerate(self):
        with pytest.raises(DegenerateNormal):
            face_census(new_setup(((1, 0), (0, 1)), [1, 0]))

    def test_coincident_hyperplanes_rejected(self):
        with pytest.raises(NotSimple):
            face_census(new_setup(TRIPLE, [1, 1]))

    def test_inert_coordinate_is_skipped(self):
        weights = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))
        s = new_setup(weights, [1, 3, 5])
        assert face_census(s) == (3, 2)

    def test_census_polynomial(self):
        assert census_poincare((2, 1)).coeffs == (1, 1)
        assert census_poincare((3, 3, 1)).coeffs == (1, 1, 1)
        assert census_poincare((3, 2)).coeffs == (1, 2)
        assert census_poincare((1, 0, 0)).coeffs == (1,)


class TestAgreementWithRecursion:
    def test_sampled_setups_agree(self):
        for weights in [DIAG2, TRIPLE, ((1,), (1,), (1,)),
                        ((1,), (2,), (3,)), ((1, 0), (0, 1))]:
            s = sample_generic(weights, seed=7)
            assert census_poincare(face_census(s)) == poincare_morse(weights), weights

    def test_census_is_alpha_invariant(self):
        reference = None
        for seed in range(5):
            s = sample_generic(TRIPLE, seed=seed)
            c = face_census(s)
            if reference is None:
                reference = c
            assert c == reference
