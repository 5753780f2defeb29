"""The moments kernel against the weighted-form reference, by central
differences, across stacks, and on levels of the wrong length.

Every value ``energy``, ``grad``, ``grad_component``, ``moment_hk`` and
``flow_objective`` give matches the reference of ``flow_reference`` to
1e-12 relative to the largest entry of its array.  The product with the
generator blocks w, v and i v gives the residuals and the vectors Q_c s of
the conjugation construction bit for bit, in stacks of any length.  On
tori a state's objective is the same bit for bit alone and in any stack,
also one longer than a chunk of the generator product.  A cross-term run
builds the generator blocks once.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flow_reference import (diagonal_sum, energy, grad, grad_component, moment_hk,
                            random_state, reference_energy_grad, reference_kernel,
                            reference_moment_hk, su2_irrep)
from hypertoric.errors import InputError
from hypertoric.exact import int_rank
from hypertoric.flowlab import moments
from hypertoric.flowlab.analysis import cross_term_stats
from hypertoric.flowlab.moments import ENERGY_KINDS, flow_objective, pack_state
from hypertoric.flowlab.reps import GroupRep, torus_rep
from hypertoric.torus import new_setup


def empty_family(n):
    """The family of no basis elements acting on C^n: k = 0."""
    return GroupRep(basis=np.zeros((0, n, n), dtype=np.complex128),
                    structure=np.zeros((0, 0, 0)), abelian=True)


@st.composite
def tori(draw, max_d=4, max_n=8):
    """The torus of full-rank integer weights, d <= max_d and n <= max_n,
    zero rows allowed, at integer levels."""
    d = draw(st.integers(min_value=1, max_value=max_d))
    n = draw(st.integers(min_value=d, max_value=max_n))
    entries = st.integers(min_value=-3, max_value=3)
    weights = [draw(st.lists(entries, min_size=d, max_size=d)) for _ in range(n)]
    assume(int_rank(weights, d) == d)
    levels = st.lists(st.integers(min_value=-5, max_value=5), min_size=d, max_size=d)
    beta = [(a, b) for a, b in zip(draw(levels), draw(levels))]
    return torus_rep(new_setup([tuple(row) for row in weights], alpha=draw(levels),
                               beta=beta))


@st.composite
def families(draw):
    """A representation with levels: a torus, an su(2) irrep of dimension
    2 to 6, a diagonal sum of irreps, or the empty family."""
    kind = draw(st.sampled_from(["torus", "irrep", "sum", "empty"]))
    if kind == "torus":
        return draw(tori())
    if kind == "irrep":
        rep = su2_irrep(draw(st.integers(min_value=2, max_value=6)))
    elif kind == "sum":
        rep = diagonal_sum(su2_irrep(draw(st.integers(min_value=2, max_value=3))),
                           draw(st.integers(min_value=1, max_value=3)))
    else:
        rep = empty_family(draw(st.integers(min_value=1, max_value=5)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=1 << 16)))
    alpha = rng.standard_normal(rep.k)
    return rep, alpha, rng.standard_normal(rep.k) + 1j * rng.standard_normal(rep.k)


def assert_close(got, want):
    want = np.asarray(want)
    assert np.shape(got) == want.shape
    scale = np.max(np.abs(want), initial=1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@given(family=families(), count=st.sampled_from([None, 1, 5]),
       seed=st.integers(min_value=0, max_value=1 << 16),
       radius=st.sampled_from([0.5, 1.0, 3.0]))
@settings(max_examples=150, deadline=None)
def test_values_match_the_reference(family, count, seed, radius):
    rep, alpha, beta = family
    x, y = random_state(np.random.default_rng(seed), rep.dim, radius, count=count)
    states = pack_state(x, y)
    for which in ENERGY_KINDS:
        f, g = reference_energy_grad(rep.basis, which, alpha, beta, states)
        got_f, got_g = flow_objective(rep.basis, which, alpha, beta)(states)
        assert_close(got_f, f)
        assert_close(got_g, g)
        assert_close(energy(rep, which, alpha, beta, x, y), f)
        assert_close(pack_state(*grad(rep, which, alpha, beta, x, y)), g)
    triple, grads = reference_moment_hk(rep, alpha, beta, x, y)
    for got, want in zip(moment_hk(rep, alpha, beta, x, y), triple):
        assert_close(got, want)
    for index, want in zip((1, 2, 3), grads):
        assert_close(pack_state(*grad_component(rep, index, alpha, beta, x, y)),
                     pack_state(*want))


@pytest.mark.parametrize("n", [1, 4])
def test_the_empty_family_has_no_energy(n):
    rep = empty_family(n)
    states = pack_state(*random_state(np.random.default_rng(n), n, 1.0, count=3))
    for which in ENERGY_KINDS:
        f, g = flow_objective(rep.basis, which, [], [])(states)
        assert np.array_equal(f, np.zeros(3)) and np.array_equal(g, np.zeros_like(states))
    assert [mu.shape for mu in moment_hk(rep, [], [], *random_state(
        np.random.default_rng(0), n))] == [(0,)] * 3


@given(family=families(), seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=40, deadline=None)
def test_gradient_matches_central_differences(family, seed):
    rep, alpha, beta = family
    state = pack_state(*random_state(np.random.default_rng(seed), rep.dim, 1.0))
    step = 1e-5
    shifts = state + step * np.concatenate([np.eye(state.size), -np.eye(state.size)])
    for which in ENERGY_KINDS:
        fun = flow_objective(rep.basis, which, alpha, beta)
        values = fun(shifts)[0]
        numeric = (values[:state.size] - values[state.size:]) / (2 * step)
        exact = fun(state)[1]
        assert np.allclose(numeric, exact, rtol=1e-6, atol=1e-6 * (1.0 + np.abs(exact).max()))


@given(family=tori(max_d=2, max_n=5), function=st.sampled_from(ENERGY_KINDS),
       seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=20, deadline=None)
def test_torus_objective_does_not_depend_on_the_stack(family, function, seed):
    rep, alpha, beta = family
    fun = flow_objective(rep.basis, function, alpha, beta)
    # One more row than a chunk of the product of the stack with G.
    chunk = moments._ONE_THREAD_MADDS // (16 * rep.dim ** 2 * rep.k) + 1
    rng = np.random.default_rng(seed)
    for count in (2, 70, chunk):
        stack = pack_state(*random_state(rng, rep.dim, 1.5, count=count))
        f, g = fun(stack)
        for row in sorted({0, count // 2, count - 1}):
            f1, g1 = fun(stack[row:row + 1])
            assert np.array_equal(f1, f[row:row + 1])
            assert np.array_equal(g1, g[row:row + 1])


def _with_levels(rep, seed):
    rng = np.random.default_rng(seed)
    return (rep, rng.standard_normal(rep.k),
            rng.standard_normal(rep.k) + 1j * rng.standard_normal(rep.k))


def _torus(weights, seed):
    rng = np.random.default_rng(seed)
    d = len(weights[0])
    return torus_rep(new_setup(weights, alpha=rng.integers(-5, 6, d).tolist(),
                               beta=rng.integers(-5, 6, (d, 2)).tolist()))


@pytest.mark.parametrize("family", [
    _torus(((1, 0), (0, 1), (1, 1)), 1),
    _torus(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -2, 0), (0, 0, 0), (2, 1, -3)), 2),
    _torus(tuple((i % 3 - 1, 7 * i % 5 - 2, 1, i % 2, 3 * i % 4 - 1)
                 for i in range(14)), 3),
    _with_levels(su2_irrep(3), 4),
    _with_levels(su2_irrep(5), 5),
    _with_levels(diagonal_sum(su2_irrep(3), 2), 6)],
    ids=["torus-3-2", "torus-6-3", "torus-14-5", "su2-3", "su2-5", "su2-3x2"])
def test_the_folded_product_equals_the_conjugation_construction(family):
    # A stack of one, a chunk less one row, a chunk, a chunk and one row
    # (that row meets G alone, in a product that on su2-5 and su2-3x2 rounds
    # unlike a longer one), and many chunks.
    rep, alpha, beta = family
    rng = np.random.default_rng(rep.dim)
    rows = moments._ONE_THREAD_MADDS // (16 * rep.dim ** 2 * rep.k)
    for which in ENERGY_KINDS:
        parts = moments._PARTS[which]
        folded = moments.moment_terms(rep.basis, parts, alpha, beta)
        reference = reference_kernel(rep.basis, parts, alpha, beta)
        for count in (1, rows - 1, rows, rows + 1, 513):
            s = pack_state(*random_state(rng, rep.dim, 1.5, count=count))
            (r, p), (want_r, want_p) = folded(s), reference(s)
            assert np.array_equal(r, want_r) and np.array_equal(p, want_p), (which, count)


@pytest.mark.parametrize("alpha,beta", [([0.5], np.zeros(3)),
                                        (np.zeros(5), np.zeros(3)),
                                        (np.zeros(3), [1j]),
                                        (0.5, np.zeros(3)),
                                        (np.zeros(3), np.zeros((2, 3)))])
def test_levels_of_the_wrong_length_are_refused(alpha, beta):
    rep = su2_irrep(3)
    x, y = random_state(np.random.default_rng(0), rep.dim)
    calls = [lambda: flow_objective(rep.basis, "muHK2", alpha, beta),
             lambda: moment_hk(rep, alpha, beta, x, y)]
    calls += [lambda i=i: grad_component(rep, i, alpha, beta, x, y) for i in (1, 2, 3)]
    for which in ENERGY_KINDS:
        calls += [lambda which=which: energy(rep, which, alpha, beta, x, y),
                  lambda which=which: grad(rep, which, alpha, beta, x, y)]
    for call in calls:
        with pytest.raises(InputError, match="k = 3"):
            call()


def test_cross_terms_build_the_generator_blocks_once(monkeypatch):
    # 2,000 samples run in 8 stacks, all read by one evaluator.
    built = []
    true = moments._generators
    monkeypatch.setattr(moments, "_generators",
                        lambda basis, parts: built.append(parts) or true(basis, parts))
    cross_term_stats(su2_irrep(3), np.zeros(3), 2000, seed=0)
    assert built == [(0, 1, 2)]
