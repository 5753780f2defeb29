import random
from itertools import accumulate, combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flat_reference import reference_coatoms, reference_flats
from hypertoric import exact
from hypertoric.crosscheck import analyze
from hypertoric.errors import NonGenericAlpha
from hypertoric.exact import int_rank
from hypertoric.ringcalc import (
    RingPresentation,
    circle_dims,
    circle_equivariant_presentation,
    cohomology_presentation,
    hilbert_dims,
    ring_dims,
)
from hypertoric.torus import negative_rows, new_setup, sample_generic
from ring_reference import (degree_rows, generic_setups, monomials, product, quotient_dim,
                            reference_circle_presentation, reference_dims,
                            reference_presentation)
from test_report_digests import wide_weights

DIAG2 = ((1,), (1,))
TRIPLE = ((1, 0), (0, 1), (1, 1))


def factored(pres):
    """Each generator with its forms, in sorted order."""
    return {(gen, tuple(sorted(forms))) for gen, forms in zip(pres.gens, pres.forms)}


class TestPresentation:
    def test_diagonal_circle_generator(self):
        pres = cohomology_presentation(DIAG2)
        assert pres.nvars == 1
        # single proper flat (the empty one): x^2
        assert pres.gens == ((((2,), 1),),)

    def test_triple_generators(self):
        pres = cohomology_presentation(TRIPLE)
        assert pres.nvars == 2
        # one generator per coatom: the three single rows
        assert len(pres.gens) == 3
        gens = {g for g in pres.gens}
        # flat (2,) leaves rows x1 and x2: generator x1 x2
        assert (((1, 1), 1),) in gens
        # flat (0,) leaves x2 (x1 + x2) = x1 x2 + x2^2
        assert (((0, 2), 1), ((1, 1), 1)) in gens

    def test_circle_reflected_factor(self):
        up = new_setup(DIAG2, [1])
        pres = circle_equivariant_presentation(up)
        assert pres.nvars == 2
        assert pres.gens == ((((2, 0), 1),),)  # x^2
        down = new_setup(DIAG2, [-1])
        pres2 = circle_equivariant_presentation(down)
        # (u0 - x)^2 = x^2 - 2 x u0 + u0^2
        assert pres2.gens == ((((0, 2), 1), ((1, 1), -2), ((2, 0), 1)),)

    @settings(max_examples=40, deadline=None)
    @given(generic_setups())
    def test_generators_keep_the_presentation_format(self, setup):
        # Readers outside the package take a generator's degree as
        # sum(gen[0][0]), so every generator must be a nonempty, sorted,
        # homogeneous tuple of (exponent tuple, nonzero int) pairs.
        for pres in (cohomology_presentation(setup.weights),
                     circle_equivariant_presentation(setup)):
            assert isinstance(pres.gens, tuple) and pres.gens
            for gen in pres.gens:
                assert isinstance(gen, tuple) and gen
                assert list(gen) == sorted(gen)
                assert len({exp for exp, _ in gen}) == len(gen)
                for exp, c in gen:
                    assert isinstance(exp, tuple) and len(exp) == pres.nvars
                    assert type(c) is int and c
                assert {sum(exp) for exp, _ in gen} == {sum(gen[0][0])}

    def test_triple_circle_generators(self):
        # alpha = (1, 3) pairs negatively only with row 0 outside the
        # coatom (2,), so that generator is x1 (u0 - x0).
        pres = circle_equivariant_presentation(new_setup(TRIPLE, [1, 3]))
        assert pres.nvars == 3
        assert pres.gens == (
            (((0, 2, 0), 1), ((1, 1, 0), 1)),   # coatom (0,): x1 (x0 + x1)
            (((1, 1, 0), 1), ((2, 0, 0), 1)),   # coatom (1,): x0 (x0 + x1)
            (((0, 1, 1), 1), ((1, 1, 0), -1)),  # coatom (2,): x1 (u0 - x0)
        )

    def test_circle_requires_nonzero_pairings(self):
        # The only zero pairing of alpha = (1, 2) is on the empty flat, not
        # a coatom, so this guards the explicit genericity check.
        with pytest.raises(NonGenericAlpha):
            circle_equivariant_presentation(new_setup(TRIPLE, [1, 2]))

    def test_circle_names_the_first_zero_pairing_in_flat_order(self):
        with pytest.raises(NonGenericAlpha) as raised:
            circle_equivariant_presentation(new_setup(TRIPLE, [1, 2]))
        assert raised.value.witness == ("pairing", (), 0)

    @settings(max_examples=100, deadline=None)
    @given(generic_setups(max_dim=4, max_rows=8))
    def test_every_flat_is_signed_like_a_coatom_above_it(self, setup):
        # The lemma behind the coatom-only circle presentation: each proper
        # flat F lies in a coatom H whose rows outside it split by sign as
        # they do for F, so gen_H divides gen_F.
        negative = negative_rows(setup)

        def split(f):
            minus = set(negative[f])
            return set(range(setup.n)) - set(f) - minus, minus

        splits = {h: split(h) for h in reference_coatoms(setup.weights)}
        for f, _ in reference_flats(setup.weights)[:-1]:
            plus, minus = split(f)
            assert any(set(h) >= set(f) and hp <= plus and hm <= minus
                       for h, (hp, hm) in splits.items()), f


class TestDims:
    def test_diagonal_circle(self):
        assert ring_dims(DIAG2) == (1, 1, 0, 0)

    def test_triple(self):
        assert ring_dims(TRIPLE) == (1, 2, 0, 0)

    def test_point(self):
        assert ring_dims(((1, 0), (0, 1))) == (1, 0, 0)

    def test_trivial_torus(self):
        assert ring_dims(((), ())) == (1, 0, 0, 0, 0)

    def test_matches_recursion_route(self):
        for weights in [DIAG2, TRIPLE, ((1,), (1,), (1,), (1,)),
                        ((1,), (2,), (3,)), ((1, 0), (0, 1), (1, 1), (1, -1))]:
            setup = sample_generic(new_setup(weights), 0)
            assert analyze(setup).agreement["morse_ring"], weights

    def test_custom_degree(self):
        assert hilbert_dims(cohomology_presentation(DIAG2), 5) == (1, 1, 0, 0, 0, 0)

    def test_padded_degrees_equal_every_degree(self):
        for weights in [DIAG2, TRIPLE, ((1,), (2,), (3,)),
                        ((1, 0), (0, 1), (1, 1), (1, -1))]:
            top = len(weights) - len(weights[0])
            pres = cohomology_presentation(weights)
            dims = hilbert_dims(pres, top + 6)
            assert dims == tuple(quotient_dim(pres, m) for m in range(top + 7))
            assert dims[top + 1:] == (0,) * 6


class TestCircleDims:
    def test_diagonal_circle_both_orientations(self):
        up = new_setup(DIAG2, [1])
        assert circle_dims(up) == (1, 2, 2, 2, 2)
        down = new_setup(DIAG2, [-1])
        assert circle_dims(down) == (1, 2, 2, 2, 2)

    def test_point_is_polynomial_ring_on_circle_class(self):
        s = new_setup(((1, 0), (0, 1)), [1, 2])
        assert circle_dims(s) == (1, 1, 1, 1)

    def test_equals_cumulative_ordinary(self):
        for weights in [DIAG2, TRIPLE, ((1,), (1,), (1,))]:
            agreement = analyze(sample_generic(new_setup(weights), seed=2)).agreement
            assert agreement["morse_ring"] and agreement["circle_series"], weights

    def test_the_running_sums_hold_exactly_when_u0_is_regular(self):
        # At u0 = 0 every generator is +- an ordinary one, so R / u0 R is the
        # ordinary ring whatever the signs, and 0 -> ann(u0) -> R(-1) -> R
        # -> R / u0 R -> 0 makes the circle dims the running sums of the
        # ordinary ones exactly when ann(u0) is zero below the top degree
        # checked: the check sees the signs only through u0's regularity.
        outcomes = []
        for weights, pres in signed_setups():
            top = len(weights) - len(weights[0])
            circle = hilbert_dims(pres, top + 3)
            ordinary = ring_dims(weights) + (0,)
            regular = all(annihilator_dim(pres, m) == 0 for m in range(top + 3))
            assert (circle == tuple(accumulate(ordinary))) == regular, (weights, pres)
            outcomes.append(regular)
        assert len(set(outcomes)) == 2

    @settings(max_examples=40, deadline=None)
    @given(generic_setups())
    def test_both_routes_equal_the_bareiss_reference(self, setup):
        top = setup.n - setup.dim
        assert factored(cohomology_presentation(setup.weights)) <= factored(
            reference_presentation(setup.weights))
        circle_pres = circle_equivariant_presentation(setup)
        assert factored(circle_pres) <= factored(
            reference_circle_presentation(setup))
        assert circle_pres.nvars == setup.dim + 1
        assert len(circle_pres.gens) == len(reference_coatoms(setup.weights))
        ordinary = ring_dims(setup.weights)
        assert ordinary == reference_dims(
            cohomology_presentation(setup.weights), top + 2)
        assert ordinary == reference_dims(
            reference_presentation(setup.weights), top + 2)
        circle = circle_dims(setup)
        assert circle == reference_dims(circle_pres, top + 3)
        assert circle == reference_dims(
            reference_circle_presentation(setup), top + 3)


def signed_setups():
    """30 full-rank weights, n in 3..6 rows of width d in 1..3 with entries
    in [-2, 2], each with 6 random circle presentations: every row outside
    every coatom gives its form or u0 minus it by a coin toss."""
    rng = random.Random(21)
    drawn = 0
    while drawn < 30:
        d = rng.randint(1, 3)
        n = rng.randint(max(3, d), 6)
        weights = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n))
        if int_rank(weights, d) < d:
            continue
        drawn += 1
        for _ in range(6):
            forms = tuple(
                tuple(tuple(-x for x in weights[i]) + (1,) if rng.random() < 0.5
                      else weights[i] + (0,) for i in range(n) if i not in h)
                for h in reference_coatoms(weights))
            yield weights, RingPresentation(
                d + 1, tuple(product(f, d + 1) for f in forms), forms)


def annihilator_dim(pres, m):
    """dim ann(u0)_m = dim R_m - dim u0 R_m, the second being the rank the
    multiples u0 mu, mu of degree m, add to the ideal in degree m + 1."""
    rows, ncols = degree_rows(pres, m)
    above, wide = degree_rows(pres, m + 1)
    place = {e: k for k, e in enumerate(monomials(pres.nvars, m + 1))}
    times_u0 = [[int(k == place[mu[:-1] + (mu[-1] + 1,)]) for k in range(wide)]
                for mu in monomials(pres.nvars, m)]
    return (ncols - int_rank(rows, ncols)
            - int_rank(above + times_u0, wide) + int_rank(above, wide))


@st.composite
def uniform_setups(draw):
    """Weights whose every d rows are independent, n <= 7 rows of width
    d <= 4 with n + d <= 10 and entries in [-9, 9], at a sampled level.
    (7, 4) is left out: its Bareiss reference takes about 18 s."""
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=d + 1, max_value=min(7, 10 - d)))
    entries = st.integers(min_value=-9, max_value=9)
    weights = tuple(draw(st.tuples(*[entries] * d)) for _ in range(n))
    assume(all(int_rank([weights[i] for i in rows], d) == d
               for rows in combinations(range(n), d)))
    return sample_generic(new_setup(weights), draw(st.integers(min_value=0, max_value=99)))


def refuse(*args):
    raise AssertionError("the generators' syzygies should have proven every rank")


class TestSyzygies:
    @settings(max_examples=12, deadline=None)
    @given(uniform_setups())
    def test_a_uniform_matroid_needs_no_lifting(self, setup):
        top = setup.n - setup.dim
        ordinary = reference_dims(cohomology_presentation(setup.weights), top + 2)
        circle = reference_dims(circle_equivariant_presentation(setup), top + 3)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(exact, "_kernel_certified", refuse)
            monkeypatch.setattr(exact, "int_rank", refuse)
            assert ring_dims(setup.weights) == ordinary
            assert circle_dims(setup) == circle

    @pytest.mark.parametrize("weights", list(wide_weights()), ids=str)
    def test_the_wide_ring_shapes_need_no_lifting(self, monkeypatch, weights):
        # One setup of each shape of the benchmark's ring rungs, as pinned
        # by report digest.
        setup = sample_generic(new_setup(weights), 0)
        top = setup.n - setup.dim
        circle = reference_dims(circle_equivariant_presentation(setup), top + 3)
        monkeypatch.setattr(exact, "_kernel_certified", refuse)
        monkeypatch.setattr(exact, "int_rank", refuse)
        assert circle_dims(setup) == circle

    def test_parallel_rows_still_need_lifting(self, monkeypatch):
        # Rows 0 and 1 are parallel, so the matroid is not uniform, and the
        # syzygies leave rows of the circle ring's matrices to lifting.
        setup = sample_generic(new_setup(((3, 1, 0), (-6, -2, 0), (0, 1, 5), (2, 0, 1),
                                          (1, 1, 1), (1, -1, 2))), 3)
        top = setup.n - setup.dim
        circle = reference_dims(circle_equivariant_presentation(setup), top + 3)
        liftings = []
        lifting = exact._kernel_certified

        def recorded(*args):
            liftings.append(lifting(*args))
            return liftings[-1]

        monkeypatch.setattr(exact, "_kernel_certified", recorded)
        assert circle_dims(setup) == circle
        assert liftings and all(liftings)

    def test_a_presentation_hands_its_forms_relations(self, monkeypatch):
        assert cohomology_presentation(TRIPLE).forms == (
            ((0, 1), (1, 1)), ((1, 0), (1, 1)), ((1, 0), (0, 1)))
        pres = circle_equivariant_presentation(new_setup(TRIPLE, [1, 3]))
        handed = []

        def bareiss(rows, ncols, relations):
            handed.append(list(relations))
            return int_rank(rows, ncols)

        monkeypatch.setattr("hypertoric.ringcalc.certified_rank", bareiss)
        dims = hilbert_dims(pres, 4)
        assert dims == (1, 3, 3, 3, 3) and any(handed)


class TestHilbertEdgeCases:
    def test_single_weight_presents_a_point(self):
        # The empty set is a proper flat of a single nonzero weight, so the
        # presentation has the single generator x and the quotient is Q.
        pres = cohomology_presentation(((1,),))
        assert pres.gens == ((((1,), 1),),)
        assert hilbert_dims(pres, 3) == (1, 0, 0, 0)

    def test_no_generators_leaves_the_free_ring(self):
        pres = RingPresentation(1, (), ())
        assert hilbert_dims(pres, 3) == (1, 1, 1, 1)
