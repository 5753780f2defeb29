"""Property tests: genericity read from flat data agrees with subset searches,
and one sampling loop decides levels as the two loops it replaced did.

Random setups have n <= 7 rows and d <= 3 columns.  Levels are drawn both
from a small box, where they are often non-generic, and from a wide one.
Every answer read off the integer wall table is also checked against the
Fraction residuals and pairings of ``metric_reference``, with the loops the
package ran on them before the table.
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import flat_reference
from flat_reference import reference_coatoms, reference_flats
from hypertoric.errors import NonGenericAlpha, NonGenericBeta, SamplingExhausted
from hypertoric.exact import int_rank
from hypertoric.torus import (
    _alpha_signs,
    _beta_levels,
    critical_levels,
    negative_rows,
    new_setup,
    sample_generic,
    walls_of,
)
from metric_reference import (
    gale,
    gram_inverse,
    matmul,
    pairing,
    residual,
    solve_exact,
)
from metric_reference import critical_level as reference_level
from test_torus import level as table_level

PROPS = settings(max_examples=150, deadline=None)


def subset_search_witness(normals, offsets, max_size):
    """Smallest dependent set of hyperplanes with a common point, by search.

    The size-by-size search over all subsets that the coatom test replaced.
    """
    n = len(normals)
    for size in range(1, min(n, max_size) + 1):
        for subset in combinations(range(n), size):
            sub = [list(normals[i]) for i in subset]
            width = len(sub[0])
            if width and int_rank(sub, width) == size:
                continue
            rhs = [offsets[i] for i in subset]
            if width == 0:
                consistent = all(r == 0 for r in rhs)
            else:
                consistent = solve_exact(sub, rhs) is not None
            if consistent:
                return subset
    return None


def pairwise_beta_witness(weights, beta):
    """First failing beta condition, with collisions found pair by pair.

    The O(flats^2) loop over pairs (a, b), a < b in flat order, that
    grouping the flats by level replaced.  Its residual_collision branch is
    never reached: equal residuals fail a pairing first.
    """
    gi = gram_inverse(weights)
    all_flats = [f for f, _ in reference_flats(weights)]
    residuals = {}
    levels = {}
    for f in all_flats:
        re = residual(weights, f, [x for x, _ in beta])
        im = residual(weights, f, [y for _, y in beta])
        residuals[f] = (re, im)
        levels[f] = reference_level(weights, beta, f)
        for i in range(len(weights)):
            if i in f:
                continue
            if pairing(gi, re, weights[i]) == 0 and pairing(gi, im, weights[i]) == 0:
                return ("pairing", f, i)
    for a in range(len(all_flats)):
        for b in range(a + 1, len(all_flats)):
            fa, fb = all_flats[a], all_flats[b]
            if residuals[fa] == residuals[fb]:
                return ("residual_collision", fa, fb)
            if levels[fa] == levels[fb]:
                return ("level_collision", fa, fb)
    return None


def reference_alpha_witness(weights, alpha):
    """The first (J, i) with <alpha_J, u_i> = 0, J a proper flat."""
    gi = gram_inverse(weights)
    for f, _ in reference_flats(weights)[:-1]:
        res = residual(weights, f, alpha)
        for i in range(len(weights)):
            if i not in f and pairing(gi, res, weights[i]) == 0:
                return ("pairing", f, i)
    return None


def reference_negative_rows(weights, alpha, flat):
    """Rows outside the flat whose pairing with alpha_J is negative."""
    gi = gram_inverse(weights)
    res = residual(weights, flat, alpha)
    return tuple(i for i in range(len(weights))
                 if i not in flat and pairing(gi, res, weights[i]) < 0)


def reference_simplicity_witness(weights, alpha):
    """Complement of the largest coatom F with alpha_F = 0, or None."""
    best = None
    for f in reference_coatoms(weights):
        if any(residual(weights, f, alpha)):
            continue
        rest = tuple(j for j in range(len(weights)) if j not in f)
        if best is None or (len(rest), rest) < (len(best), best):
            best = rest
    return best


def solved_perp_part(weights, subset, vec):
    """Residual of vec against span{subset rows}, by one linear solve."""
    if not subset:
        return tuple(vec)
    u = [list(weights[j]) for j in subset]
    ug = matmul(u, gram_inverse(weights))
    coeffs = solve_exact(matmul(ug, list(zip(*u))),
                         [sum(g * v for g, v in zip(row, vec)) for row in ug])
    return tuple(v - sum(c * row[j] for c, row in zip(coeffs, u))
                 for j, v in enumerate(vec))


def two_loop_sample_generic(weights, seed, alpha=None, beta=None):
    """Sampling as it was before one loop served both levels: a level not
    given was drawn, alpha first.  A given level had to be generic, which
    ``two_witness_ensure_generic`` has checked before calling this.
    """
    base = new_setup(weights)
    d = base.dim
    rng = random.Random(seed)
    alpha_t = None if alpha is None else tuple(alpha)
    beta_t = None if beta is None else tuple(beta)
    if alpha_t is None:
        size = 3
        for _ in range(8):
            for _ in range(64):
                cand = replace(base, alpha=tuple(
                    Fraction(rng.randint(-size, size)) for _ in range(d)))
                if _alpha_signs(cand.weights, cand.alpha)[0] is None:
                    alpha_t = cand.alpha
                    break
            if alpha_t is not None:
                break
            size *= 2
        if alpha_t is None:
            raise SamplingExhausted("no generic alpha found")
    if beta_t is None:
        size = 3
        for _ in range(8):
            for _ in range(64):
                cand_beta = tuple((Fraction(rng.randint(-size, size)),
                                   Fraction(rng.randint(-size, size)))
                                  for _ in range(d))
                if _beta_levels(base.weights, cand_beta)[0] is None:
                    beta_t = cand_beta
                    break
            if beta_t is not None:
                break
            size *= 2
        if beta_t is None:
            raise SamplingExhausted("no generic beta found")
    return replace(base, alpha=alpha_t, beta=beta_t)


def two_witness_ensure_generic(setup, seed, sample):
    """The command line's genericity step before the two readers: both
    witnesses first, then the bad levels redrawn or the first one raised."""
    alpha_bad = _alpha_signs(setup.weights, setup.alpha)[0]
    beta_bad = _beta_levels(setup.weights, setup.beta)[0]
    if alpha_bad is None and beta_bad is None:
        return setup
    if not sample:
        if alpha_bad is not None:
            raise NonGenericAlpha(alpha_bad)
        raise NonGenericBeta(beta_bad)
    return two_loop_sample_generic(
        setup.weights, seed,
        alpha=setup.alpha if alpha_bad is None else None,
        beta=setup.beta if beta_bad is None else None)


def outcome(fn, *args):
    """The setup fn returns, or the type, witness and message it raises."""
    try:
        return fn(*args)
    except (NonGenericAlpha, NonGenericBeta, SamplingExhausted) as exc:
        return type(exc).__name__, getattr(exc, "witness", None), str(exc)


@st.composite
def weight_matrices(draw, max_rows=7, dims=(1, 3), bound=2):
    d = draw(st.integers(*dims))
    n = draw(st.integers(d, max_rows))
    entry = st.integers(-bound, bound)
    rows = tuple(draw(st.tuples(*[entry] * d)) for _ in range(n))
    assume(int_rank(rows, d) == d)
    return rows


def levels(d):
    coord = st.one_of(st.integers(-2, 2), st.integers(-60, 60))
    return st.tuples(*[coord] * d)


@st.composite
def setups(draw):
    weights = draw(weight_matrices())
    return new_setup(weights, draw(levels(len(weights[0]))))


@st.composite
def given_levels(draw):
    """Setups with n <= 6 whose levels come from boxes small enough that
    about half of them are not generic."""
    weights = draw(weight_matrices(max_rows=6))
    d = len(weights[0])
    alpha = draw(st.tuples(*[st.integers(-2, 2)] * d))
    beta = draw(st.tuples(*[st.tuples(st.integers(-1, 1), st.integers(0, 1))] * d))
    return new_setup(weights, alpha, beta)


@PROPS
@given(given_levels(), st.integers(0, 2**32 - 1))
def test_one_sampling_loop_matches_two(setup, seed):
    def required(s):
        negative_rows(s)
        critical_levels(s)
        return s

    assert outcome(required, setup) == outcome(
        two_witness_ensure_generic, setup, seed, False)
    assert outcome(sample_generic, setup, seed) == outcome(
        two_witness_ensure_generic, setup, seed, True)


@PROPS
@given(weight_matrices(), st.data())
def test_beta_witness_equals_the_pairwise_search(weights, data):
    # Entries in [-1, 1] make pairing failures and level collisions common:
    # about a third and a tenth of the draws.
    part = st.integers(-1, 1).map(Fraction)
    beta = data.draw(st.tuples(*[st.tuples(part, part)] * len(weights[0])))
    setup = new_setup(weights, beta=beta)
    assert _beta_levels(weights, setup.beta)[0] == pairwise_beta_witness(
        weights, setup.beta)


@pytest.mark.parametrize("weights, beta, witness", [
    # beta = 0 pairs to zero with every row on the bottom flat, first of all
    (((1, 0), (0, 1), (1, 1)), [0, 0], ("pairing", (), 0)),
    # Re beta = (1, 1) is row 2 and Im beta = 0: beta's residual vanishes
    # on the flat (2,), the fourth of five
    (((1, 0), (0, 1), (1, 1)), [1, 1], ("pairing", (2,), 0)),
    (((1, 0), (0, 1)), [1, 1], ("level_collision", (0,), (1,))),
])
def test_critical_levels_refuse_a_non_generic_beta(weights, beta, witness):
    # critical_levels refuses with the beta decision's witness; every flat's
    # level is still read off the wall table.
    setup = new_setup(weights, beta=beta)
    assert pairwise_beta_witness(weights, setup.beta) == witness
    with pytest.raises(NonGenericBeta) as raised:
        critical_levels(setup)
    assert raised.value.witness == witness
    for f, _ in reference_flats(weights):
        assert table_level(weights, f, setup.beta) == reference_level(
            weights, setup.beta, f)


# alpha = (1, 1) lies on the third row of TRIPLE: hyperplanes 1 and 2 of the
# dual line coincide.  alpha = (1, 3) is generic.
@example(new_setup(((1, 0), (0, 1), (1, 1)), [1, 1]))
@example(new_setup(((1, 0), (0, 1), (1, 1)), [1, 3]))
@settings(max_examples=300, deadline=None)
@given(setups())
def test_pairing_conditions_imply_a_simple_arrangement(setup):
    # The face census decides genericity alone and rests on this: a generic
    # alpha leaves no dependent set of hyperplanes with a common point, found
    # by the coatom test or by the subset search, and no zero normal with a
    # zero offset (a hyperplane filling the space).
    witness = _alpha_signs(setup.weights, setup.alpha)[0]
    assert witness is None or witness[0] == "pairing"
    normals, offsets = gale(setup.weights, setup.alpha)
    coatom = reference_simplicity_witness(setup.weights, setup.alpha)
    assert coatom == subset_search_witness(normals, offsets,
                                           setup.ambient_dim + 1)
    if witness is None:
        assert coatom is None
        assert all(any(normal) or offset for normal, offset
                   in zip(normals, offsets))


@PROPS
@given(st.data())
def test_cached_projection_equals_solved_projection(data):
    # The table holds G^-1 R_J as form / denom for the flat J spanned by the
    # subset, so form . vec / denom is G^-1 of the solved residual.
    weights = data.draw(weight_matrices())
    subset = tuple(sorted(data.draw(
        st.sets(st.integers(0, len(weights) - 1), max_size=len(weights)))))
    vec = data.draw(levels(len(weights[0])))
    _, form, denom = walls_of(weights)[flat_reference.closure(weights, subset)]
    res = solved_perp_part(weights, subset, vec)
    assert [Fraction(sum(x * v for x, v in zip(row, vec)), denom)
            for row in form] == [sum(g * r for g, r in zip(row, res))
                                 for row in gram_inverse(weights)]


@PROPS
@given(weight_matrices(), st.data())
def test_wall_table_equals_the_fraction_reference(weights, data):
    assert_wall_table_equals_the_fraction_reference(weights, data)


@settings(max_examples=12, deadline=None)
@given(weight_matrices(max_rows=6, dims=(4, 5), bound=9), st.data())
def test_wide_wall_table_equals_the_fraction_reference(weights, data):
    # The ring rungs' shape: each flat's form is downdated from the bottom
    # flat's through up to d - 1 others.
    assert_wall_table_equals_the_fraction_reference(weights, data)


def assert_wall_table_equals_the_fraction_reference(weights, data):
    # Entries of small numerator and denominator put levels on walls often.
    q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    d = len(weights[0])
    setup = new_setup(weights, data.draw(st.tuples(*[q] * d)),
                      data.draw(st.tuples(*[st.tuples(q, q)] * d)))
    witness = reference_alpha_witness(weights, setup.alpha)
    assert _alpha_signs(weights, setup.alpha)[0] == witness
    beta_bad = pairwise_beta_witness(weights, setup.beta)
    assert _beta_levels(weights, setup.beta)[0] == beta_bad
    all_flats = [f for f, _ in reference_flats(weights)]
    for f in all_flats:
        assert table_level(weights, f, setup.beta) == reference_level(
            weights, setup.beta, f)
    if beta_bad is None:
        assert list(critical_levels(setup)) == all_flats
        assert critical_levels(setup) == {
            f: reference_level(weights, setup.beta, f) for f in all_flats}
    else:
        with pytest.raises(NonGenericBeta) as raised:
            critical_levels(setup)
        assert raised.value.witness == beta_bad
    if witness is not None:
        with pytest.raises(NonGenericAlpha) as raised:
            negative_rows(setup)
        assert raised.value.witness == witness
        return
    for f in all_flats:
        assert negative_rows(setup)[f] == reference_negative_rows(
            weights, setup.alpha, f)
