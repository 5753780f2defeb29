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

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric.errors import NonGenericAlpha, NonGenericBeta, SamplingExhausted
from hypertoric.exact import CRat, int_rank
from hypertoric.flats import closure, coatoms, enumerate_flats
from hypertoric.torus import (
    alpha_witness,
    beta_witness,
    critical_level,
    gale_of,
    new_setup,
    require_generic,
    sample_generic,
    sign_split,
    simplicity_witness,
    walls_of,
)
from metric_reference import (
    gram_inverse,
    matmul,
    pairing,
    residual,
    solve_exact,
)
from metric_reference import critical_level as reference_level

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
    all_flats = enumerate_flats(weights)
    residuals = {}
    levels = {}
    for f in all_flats:
        re = residual(weights, f, [z.re for z in beta])
        im = residual(weights, f, [z.im for z in beta])
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
    for f in enumerate_flats(weights)[:-1]:
        res = residual(weights, f, alpha)
        for i in range(len(weights)):
            if i not in f and pairing(gi, res, weights[i]) == 0:
                return ("pairing", f, i)
    return None


def reference_sign_split(weights, alpha, flat):
    """(plus, minus) rows outside the flat by the sign of their pairing with
    alpha_J, or the witness of the first zero pairing."""
    gi = gram_inverse(weights)
    res = residual(weights, flat, alpha)
    plus, minus = [], []
    for i in range(len(weights)):
        if i in flat:
            continue
        p = pairing(gi, res, weights[i])
        if p == 0:
            return ("pairing", flat, i)
        (plus if p > 0 else minus).append(i)
    return tuple(plus), tuple(minus)


def reference_simplicity_witness(weights, alpha):
    """Complement of the largest coatom F with alpha_F = 0, or None."""
    best = None
    for f in coatoms(weights):
        if any(residual(weights, f, alpha)):
            continue
        rest = tuple(j for j in range(len(weights)) if j not in f)
        if best is None or (len(rest), rest) < (len(best), best):
            best = rest
    return best


def signs(setup, flat):
    try:
        return sign_split(setup, flat)
    except NonGenericAlpha as exc:
        return exc.witness


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
                if alpha_witness(cand) is None:
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
                cand_beta = tuple(CRat(Fraction(rng.randint(-size, size)),
                                       Fraction(rng.randint(-size, size)))
                                  for _ in range(d))
                if beta_witness(replace(base, beta=cand_beta)) is None:
                    beta_t = cand_beta
                    break
            if beta_t is not None:
                break
            size *= 2
        if beta_t is None:
            raise SamplingExhausted("no generic beta found")
    return replace(base, alpha=alpha_t, beta=beta_t)


def two_witness_ensure_generic(setup, seed, sample):
    """The command line's genericity step before ``require_generic``: both
    witnesses first, then the bad levels redrawn or the first one raised."""
    alpha_bad = alpha_witness(setup)
    beta_bad = beta_witness(setup)
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
def weight_matrices(draw, max_rows=7):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, max_rows))
    entry = st.integers(-2, 2)
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
        require_generic(s)
        return s

    assert outcome(required, setup) == outcome(
        two_witness_ensure_generic, setup, seed, False)
    assert outcome(sample_generic, setup.weights, seed, setup.alpha,
                   setup.beta) == outcome(
        two_witness_ensure_generic, setup, seed, True)


@PROPS
@given(weight_matrices(), st.data())
def test_beta_witness_equals_the_pairwise_search(weights, data):
    # Entries in [-1, 1] make pairing failures and level collisions common:
    # about a third and a tenth of the draws.
    part = st.integers(-1, 1).map(Fraction)
    beta = data.draw(st.tuples(*[st.builds(CRat, part, part)] * len(weights[0])))
    setup = new_setup(weights, beta=beta)
    assert beta_witness(setup) == pairwise_beta_witness(weights, setup.beta)


@PROPS
@given(setups())
def test_coatom_witness_equals_subset_search(setup):
    gale = gale_of(setup)
    expected = subset_search_witness(gale.normals, gale.offsets,
                                     setup.ambient_dim + 1)
    assert simplicity_witness(setup) == expected


@PROPS
@given(setups())
def test_pairing_conditions_imply_a_simple_arrangement(setup):
    witness = alpha_witness(setup)
    assert witness is None or witness[0] == "pairing"
    if witness is None:
        assert simplicity_witness(setup) is None


@PROPS
@given(st.data())
def test_cached_projection_equals_solved_projection(data):
    # The table holds G^-1 R_J as form / denom for the flat J spanned by the
    # subset, so form . vec / denom is G^-1 of the solved residual.
    weights = data.draw(weight_matrices())
    subset = tuple(sorted(data.draw(
        st.sets(st.integers(0, len(weights) - 1), max_size=len(weights)))))
    vec = data.draw(levels(len(weights[0])))
    entry = walls_of(weights)[closure(weights, subset)]
    res = solved_perp_part(weights, subset, vec)
    assert [Fraction(sum(x * v for x, v in zip(row, vec)), entry.denom)
            for row in entry.form] == [sum(g * r for g, r in zip(row, res))
                                       for row in gram_inverse(weights)]


@PROPS
@given(weight_matrices(), st.data())
def test_wall_table_equals_the_fraction_reference(weights, data):
    # Entries of small numerator and denominator put levels on walls often.
    q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    d = len(weights[0])
    setup = new_setup(weights, data.draw(st.tuples(*[q] * d)),
                      data.draw(st.tuples(*[st.builds(CRat, q, q)] * d)))
    assert alpha_witness(setup) == reference_alpha_witness(weights, setup.alpha)
    assert beta_witness(setup) == pairwise_beta_witness(weights, setup.beta)
    assert simplicity_witness(setup) == reference_simplicity_witness(
        weights, setup.alpha)
    all_flats = enumerate_flats(weights)
    for f in all_flats:
        assert critical_level(setup, f) == reference_level(weights, setup.beta, f)
    for f in all_flats[:-1]:
        assert signs(setup, f) == reference_sign_split(weights, setup.alpha, f)


def test_coincident_hyperplanes_witness():
    # alpha = (1, 1) lies on the third weight row: hyperplanes 1 and 2 of the
    # dual line coincide
    triple = ((1, 0), (0, 1), (1, 1))
    assert simplicity_witness(new_setup(triple, [1, 1])) == (0, 1)
    assert simplicity_witness(new_setup(triple, [1, 3])) is None
