"""Face census tests.

The vertex census in ``hypertoric.arrangement`` is checked against the
support-by-support Fourier-Motzkin census it replaced, kept in
``fm_census`` with its own unit tests, and against the Morse recursion.
"""

import random
from dataclasses import replace

import pytest
from fm_census import bounded_regions, cone_is_pointed, fm_face_census, fm_feasible
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric import arrangement
from hypertoric.arrangement import census_poincare, face_census
from hypertoric.errors import InvariantViolation, NonGenericAlpha
from hypertoric.exact import int_rank
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
        # Hyperplane 2 of the point arrangement has a zero offset, so it
        # fills the space: alpha lies on the first row.
        with pytest.raises(NonGenericAlpha) as caught:
            face_census(new_setup(((1, 0), (0, 1)), [1, 0]))
        assert caught.value.witness == ("pairing", (), 1)
        assert caught.value.exit_code == 3

    def test_coincident_hyperplanes_rejected(self):
        # alpha = (1, 1) lies on the third row: hyperplanes 1 and 2 coincide.
        with pytest.raises(NonGenericAlpha) as caught:
            face_census(new_setup(TRIPLE, [1, 1]))
        assert caught.value.witness == ("pairing", (2,), 0)
        assert caught.value.exit_code == 3

    def test_a_hyperplane_through_a_vertex_is_an_invariant_violation(
            self, monkeypatch):
        # alpha = 0 puts every hyperplane through every vertex; with the
        # alpha decision let through, the census refuses at the first vertex.
        monkeypatch.setattr(arrangement, "negative_rows", lambda setup: {})
        with pytest.raises(InvariantViolation, match=r"^hyperplane 1 passes "
                           r"through the vertex of \(1,\)$") as caught:
            face_census(new_setup(((1,), (2,), (1,)), [0]))
        assert caught.value.exit_code == 4

    def test_inert_coordinate_is_skipped(self):
        weights = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))
        s = new_setup(weights, [1, 3, 5])
        assert face_census(s) == (3, 2)

    def test_census_polynomial(self):
        assert census_poincare((2, 1)) == (1, 1)
        assert census_poincare((3, 3, 1)) == (1, 1, 1)
        assert census_poincare((3, 2)) == (1, 2)
        assert census_poincare((1, 0, 0)) == (1,)
        assert census_poincare((2, 1, 0)) == (1, 1)


class TestAgreementWithRecursion:
    def test_sampled_setups_agree(self):
        for weights in [DIAG2, TRIPLE, ((1,), (1,), (1,)),
                        ((1,), (2,), (3,)), ((1, 0), (0, 1))]:
            s = sample_generic(new_setup(weights), seed=7)
            assert census_poincare(face_census(s)) == poincare_morse(weights), weights

    def test_census_is_alpha_invariant(self):
        reference = None
        for seed in range(5):
            s = sample_generic(new_setup(TRIPLE), seed=seed)
            c = face_census(s)
            if reference is None:
                reference = c
            assert c == reference


class TestLargeCensus:
    """Sizes the Fourier-Motzkin census could not reach in minutes."""

    @pytest.mark.parametrize("n, d", [(14, 1), (12, 2)])
    def test_census_matches_morse(self, n, d):
        rng = random.Random(f"large-census-{n}-{d}")
        while True:
            weights = tuple(tuple(rng.randint(-2, 2) for _ in range(d))
                            for _ in range(n))
            if int_rank(weights, d) == d:
                break
        s = sample_generic(new_setup(weights), seed=n)
        assert census_poincare(face_census(s)) == poincare_morse(weights)


def test_four_planes_bound_one_tetrahedron():
    # T*P^3: the coordinate hyperplanes cut the level set z_1 + z_2 + z_3 +
    # z_4 = 1 into one bounded tetrahedron with 4 vertices, 6 edges and 4
    # triangles.
    weights = ((1,), (1,), (1,), (1,))
    s = new_setup(weights, [1])
    assert face_census(s) == (4, 6, 4, 1)
    assert census_poincare(face_census(s)) == poincare_morse(weights)
    assert poincare_morse(weights) == (1, 1, 1, 1)


@st.composite
def setups(draw):
    """Setups with n <= 7 rows and d <= 3 columns; levels come from a small
    box, where many are not generic, from a wide one, or from
    ``sample_generic``."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 7))
    entry = st.integers(-2, 2)
    weights = tuple(draw(st.tuples(*[entry] * d)) for _ in range(n))
    assume(int_rank(weights, d) == d)
    coord = st.one_of(st.integers(-2, 2), st.integers(-60, 60))
    sampled = st.integers(0, 2**16).map(
        lambda seed: sample_generic(new_setup(weights), seed).alpha)
    return new_setup(weights, draw(st.one_of(st.tuples(*[coord] * d), sampled)))


def outcome(census, setup):
    """The counts census returns, or the type and witness it raises."""
    try:
        return census(setup)
    except NonGenericAlpha as exc:
        return type(exc).__name__, exc.witness


@settings(max_examples=150, deadline=None)
@given(setups(), st.data())
def test_vertex_census_matches_fm_census(setup, data):
    counts = outcome(face_census, setup)
    assert counts == outcome(fm_face_census, setup)
    # The census orders edges by row order; the counts must not depend on it.
    order = data.draw(st.permutations(range(setup.n)))
    again = outcome(face_census,
                    replace(setup, weights=tuple(setup.weights[j] for j in order)))
    if counts[0] == "NonGenericAlpha":  # the witness names rows, which moved
        assert again[0] == counts[0]
    else:
        assert again == counts
