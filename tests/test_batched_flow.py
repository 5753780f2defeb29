"""Stacked flows, tail fits and cross terms against their one-at-a-time
reference.

Trials keep their seed, status and classified flat; limit energies agree to
1e-12 absolute and the other floats to 1e-6 relative.  Stacked tail fits
keep the k_hat and bound of the per-trajectory fit exactly, its
arclength to 1e-12 and its exponent, a centred least-squares slope in
place of ``np.polyfit``, to 1e-9 relative.  Cross-term statistics agree to
1e-12 relative, with a 1e-12 absolute floor for the statistics that are
roundoff by construction (the bracket identity residual, and every cross
term of a torus).  ``descend``, which tries a row's step and its halved
retry in one round, follows one trial per round bit for bit on tori.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flow_reference import (DECAY_FIELDS, InsufficientTail, StatePath,
                            cross_term_stats_one_by_one, descend_lockstep, diagonal_sum,
                            energy, grad, grad_component,
                            lojasiewicz_report, lojasiewicz_report_one, moment_hk,
                            random_state, run_ensemble_one_by_one, su2_irrep,
                            tail_report_one)
from hypertoric.exact import int_rank
from hypertoric.flowlab import analysis, cross_term_stats, flow, run_ensemble
from hypertoric.flowlab.analysis import tail_reports
from hypertoric.flowlab.flow import STATUS_MAX_TIME, STATUS_UNDERFLOW, descend
from hypertoric.flowlab.moments import ENERGY_KINDS, flow_objective, pack_state
from hypertoric.flowlab.reps import gaussian_state, torus_rep
from hypertoric.torus import new_setup, sample_generic

TRIPLE = ((1, 0), (0, 1), (1, 1))


def assert_records_match(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a["seed"], a["status"], a["J"]) == (b["seed"], b["status"], b["J"])
        assert abs(a["f_limit"] - b["f_limit"]) <= 1e-12
        for key in DECAY_FIELDS:
            if b[key] is None:
                assert a[key] is None
            else:
                assert math.isclose(a[key], b[key], rel_tol=1e-6), key


def assert_stats_match(got, want):
    assert {k: got[k] for k in ("samples", "seed", "radius", "abelian")} == \
        {k: want[k] for k in ("samples", "seed", "radius", "abelian")}
    pairs = [(got["pairs"][p], want["pairs"][p]) for p in want["pairs"]]
    for a, b in pairs + [(got["bracket"], want["bracket"])]:
        assert a.keys() == b.keys()
        for key in b:
            assert math.isclose(a[key], b[key], rel_tol=1e-12, abs_tol=1e-12), key


@st.composite
def torus_setups(draw):
    """Full-rank weights with n <= 5 nonzero rows of width d <= 2, given
    generic levels by ``sample_generic``."""
    d = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=d, max_value=5))
    entries = st.integers(min_value=-3, max_value=3)
    weights = tuple(
        draw(st.tuples(*[entries] * d).filter(any)) for _ in range(n))
    assume(int_rank([list(r) for r in weights], d) == d)
    return sample_generic(new_setup(weights),
                          draw(st.integers(min_value=0, max_value=99)))


nonabelian_reps = st.one_of(
    st.builds(su2_irrep, st.integers(min_value=2, max_value=4)),
    st.builds(diagonal_sum, st.builds(su2_irrep, st.integers(min_value=2, max_value=3)),
              st.integers(min_value=1, max_value=2)))


def assert_records_path(traj, path):
    """``traj`` records ``path`` bit for bit: the same status, energies and
    gradient norms, the distance of each state from the one before, and
    the last state; each per-sample field holds one entry per sample."""
    want = path.trajectory()
    assert traj.status == want.status
    for key in ("step_lengths", "energies", "grad_norms"):
        assert getattr(traj, key).shape == (len(traj.energies),), key
        assert np.array_equal(getattr(traj, key), getattr(want, key)), key
    assert np.array_equal(traj.final, want.final)


def _torus_objective(setup, function):
    rep, alpha, beta = torus_rep(setup)
    return flow_objective(rep.basis, function, alpha, beta)


def _recorded(fun):
    """``fun`` with the list of the stacks it is called with."""
    stacks = []

    def recorded(states):
        stacks.append(states.copy())
        return fun(states)
    return recorded, stacks


# Initial steps: below _MIN_STEP, just above it (so that rows which meet
# rounding noise underflow), and from small to large enough that most
# trials are rejected at first.
initial_steps = st.one_of(st.just(5e-19), st.floats(min_value=1e-18, max_value=4e-18),
                          st.floats(min_value=-3.0, max_value=3.0).map(
                              lambda e: 10.0 ** e))


@given(setup=torus_setups(), function=st.sampled_from(ENERGY_KINDS),
       count=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=1 << 16), h0=initial_steps,
       grad_tol=st.sampled_from([1e-5, 1e-12]),
       max_steps=st.integers(min_value=0, max_value=200),
       max_time=st.floats(min_value=0.05, max_value=1e3),
       log_block=st.sampled_from([1, 2, 7, flow._LOG_BLOCK]))
# Ends rows by convergence, by the step budget and by underflow after steps.
@example(setup=new_setup(TRIPLE, alpha=(1, 2), beta=(1, 3)), function="muC2",
         count=12, seed=5, h0=3e-18, grad_tol=1e-5, max_steps=200, max_time=1e3,
         log_block=flow._LOG_BLOCK)
@settings(max_examples=100, deadline=None)
def test_descend_equals_one_trial_per_round(setup, function, count, seed, h0,
                                            grad_tol, max_steps, max_time, log_block):
    # Small log blocks join the log many times within a descent; the
    # trajectories must not depend on where the joins fall.
    fun = _torus_objective(setup, function)
    starts = pack_state(*random_state(np.random.default_rng(seed), setup.n, 1.0,
                                      count=count))
    options = dict(h0=h0, grad_tol=grad_tol, max_steps=max_steps, max_time=max_time)
    with mock.patch.object(flow, "_LOG_BLOCK", log_block):
        got = descend(fun, starts, **options)
    want = descend_lockstep(fun, starts, **options)
    assert len(got) == len(want) == count
    for a, b in zip(got, want):
        assert_records_path(a, b)


def test_descend_halves_the_rounds_of_an_ensemble():
    # 64 trials at n = 5 for each energy, with run_ensemble's options.  One
    # trial per round needs about two rounds per step of the slowest trial;
    # trying h and h/2 together about one.
    setup = sample_generic(new_setup(((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))), 1)
    draws = np.stack([np.random.default_rng((1, trial)).standard_normal((4, 5))
                      for trial in range(64)])
    starts = pack_state(*gaussian_state(draws, 1.0))
    calls, reference_calls = 0, 0
    for function in ENERGY_KINDS:
        fun, got = _recorded(_torus_objective(setup, function))
        ref, want = _recorded(_torus_objective(setup, function))
        descend(fun, starts, grad_tol=1e-5, max_steps=200_000)
        descend_lockstep(ref, starts, grad_tol=1e-5, max_steps=200_000)
        calls, reference_calls = calls + len(got), reference_calls + len(want)
    assert calls <= 0.6 * reference_calls


def test_no_trial_point_is_tried_twice():
    # 1.5 x**2 accepts exactly the steps h <= 0.2: from h = 4 the row is
    # rejected at 4, 2, 1, 0.5 and 0.25 before its first step.  Every point
    # the reference tries is tried, and none twice.
    def quadratic(states):
        return 1.5 * states[:, 0] ** 2, 3.0 * states

    fun, stacks = _recorded(quadratic)
    ref, reference_stacks = _recorded(quadratic)
    [got] = descend(fun, [[1.0]], h0=4.0, grad_tol=1e-6)
    [want] = descend_lockstep(ref, [[1.0]], h0=4.0, grad_tol=1e-6)
    assert_records_path(got, want)
    points = np.concatenate(stacks[1:])[:, 0].tolist()   # after the start
    assert len(points) == len(set(points))
    assert set(np.concatenate(reference_stacks[1:])[:, 0].tolist()) <= set(points)


def test_no_candidate_below_the_minimum_step():
    # Steps shorter than 1e-18 would be accepted, but a row whose step h is
    # below twice _MIN_STEP may not take h/2: it underflows, as in the
    # reference, without a step.
    def threshold(states):
        return np.where(states[:, 0] > -1e-18, states[:, 0], 1.0), np.ones_like(states)

    for h0 in (1.5e-18, 1.9e-18):
        [got] = descend(threshold, [[0.0]], h0=h0)
        [want] = descend_lockstep(threshold, [[0.0]], h0=h0)
        assert ((got.status, len(got.energies) - 1)
                == (want.status, len(want.energies) - 1) == (STATUS_UNDERFLOW, 0))


def test_rows_below_twice_the_minimum_step_never_take_their_half_step():
    # Each row descends x along a gradient of 1 towards a cliff at -c, its
    # second coordinate, past which the energy jumps to 1.  From h0 = 4e-18,
    # in the second round the rows at c = 1e-30 and c = 1.5e-18 have
    # h = 1e-18: both try h and h/2 = 5e-19 like every row, the second takes
    # h, and the first takes neither, since h/2 is below _MIN_STEP though it
    # would be accepted.  The row at c = 1e-17 tries 8e-18 and takes 4e-18,
    # and the row at c = 1 takes 8e-18.
    def cliff(states):
        x, c = states[:, 0], states[:, 1]
        return np.where(x > -c, x, 1.0), np.stack([np.ones_like(x), np.zeros_like(x)], 1)

    starts = [[0.0, 1e-30], [0.0, 1.5e-18], [0.0, 1e-17], [0.0, 1.0]]
    fun, stacks = _recorded(cliff)
    got = descend(fun, starts, h0=4e-18, max_steps=8)
    want = descend_lockstep(cliff, starts, h0=4e-18, max_steps=8)
    assert [len(stack) for stack in stacks[:3]] == [4, 8, 8]
    assert np.array_equal(stacks[2][:, 0], [-1e-18, -1e-18, -4e-18 - 8e-18, -4e-18 - 8e-18,
                                            -5e-19, -5e-19, -4e-18 - 4e-18, -4e-18 - 4e-18])
    assert [(traj.status, len(traj.energies) - 1) for traj in got] == [
        (STATUS_UNDERFLOW, 0), (STATUS_UNDERFLOW, 1), (STATUS_UNDERFLOW, 3),
        (STATUS_MAX_TIME, 8)]
    for a, b in zip(got, want):
        assert_records_path(a, b)


def test_an_empty_stack_has_no_trajectories():
    calls = []

    def fun(states):
        calls.append(states.shape)
        if len(calls) > 3:
            raise AssertionError("descend keeps evaluating an empty stack")
        return np.zeros(len(states)), np.zeros_like(states)

    assert descend(fun, np.zeros((0, 4))) == []
    assert len(calls) <= 1


@given(setup=torus_setups(), function=st.sampled_from(ENERGY_KINDS),
       seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=30, deadline=None)
def test_ensembles_match_one_by_one(setup, function, seed):
    assert_records_match(run_ensemble(setup, 3, seed, function=function),
                         run_ensemble_one_by_one(setup, 3, seed, function=function))


@given(rep=nonabelian_reps, samples=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=1 << 16),
       radius=st.sampled_from([0.5, 1.0, 2.0]), data=st.data())
@settings(max_examples=30, deadline=None)
def test_cross_terms_match_one_by_one(rep, samples, seed, radius, data):
    alpha = np.array(data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                                        min_size=rep.k, max_size=rep.k))) / 4
    assert_stats_match(cross_term_stats(rep, alpha, samples, seed, radius),
                       cross_term_stats_one_by_one(rep, alpha, samples, seed, radius))


def test_torus_cross_terms_match_one_by_one():
    rep, alpha, _ = torus_rep(sample_generic(new_setup(TRIPLE), 4))
    assert_stats_match(cross_term_stats(rep, alpha, 50, 8),
                       cross_term_stats_one_by_one(rep, alpha, 50, 8))


@pytest.mark.parametrize("function", ENERGY_KINDS)
def test_small_blocks_match_one_block(monkeypatch, function):
    setup = new_setup(TRIPLE, alpha=(1, 2), beta=(1, 3))
    whole = run_ensemble(setup, 8, 21, function=function)
    rep = su2_irrep(3)
    stats = cross_term_stats(rep, np.zeros(3), 10, 5)
    monkeypatch.setattr(analysis, "_BLOCK", 3)
    assert_records_match(run_ensemble(setup, 8, 21, function=function), whole)
    assert_stats_match(cross_term_stats(rep, np.zeros(3), 10, 5), stats)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.3])
def test_stacked_starts_equal_one_draw_per_trial(radius):
    # run_ensemble turns a block's draws into states in one call; each start
    # must equal bit for bit the one random_state gives its trial alone.
    draws = np.stack([np.random.default_rng((7, trial)).standard_normal((4, 5))
                      for trial in range(70)])
    x, y = gaussian_state(draws, radius)
    for trial in range(70):
        x1, y1 = random_state(np.random.default_rng((7, trial)), 5, radius)
        assert np.array_equal(x[trial], x1) and np.array_equal(y[trial], y1)


@given(setup=torus_setups(), function=st.sampled_from(ENERGY_KINDS),
       seed=st.integers(min_value=0, max_value=1 << 16))
@example(setup=new_setup(TRIPLE, alpha=(1, 2), beta=(1, 3)), function="muC2",
         seed=13)
@settings(max_examples=20, deadline=None)
def test_a_trial_does_not_depend_on_its_ensemble(setup, function, seed):
    first = run_ensemble(setup, 8, seed, function=function)[:3]
    alone = run_ensemble(setup, 3, seed, function=function)
    with mock.patch.object(analysis, "_BLOCK", 3):
        blocked = run_ensemble(setup, 8, seed, function=function)[:3]
    for other in (alone, blocked):
        assert_records_match(other, first)


@st.composite
def tails(draw):
    """A path with every state, and its limit value: energies falling by 0.01
    to 1 decades a step, or in one step of four by 3 to 20, so that some windows
    must widen and some find no width; gradient norms on a noisy power law
    of the excess, some of them zero; and a limit at zero, at the final
    energy, or at a random sample, with the later samples at or below it."""
    size = draw(st.integers(min_value=1, max_value=24))
    small, large = st.floats(0.01, 1.0), st.floats(3.0, 20.0)
    drops = draw(st.lists(st.one_of(small, small, small, large),
                          min_size=size - 1, max_size=size - 1))
    decades = draw(st.floats(-3.0, 3.0)) - np.concatenate([[0.0], np.cumsum(drops)])
    energies = 10.0 ** decades
    power, scale = draw(st.floats(0.3, 1.5)), draw(st.floats(0.1, 10.0))
    noise = np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=size,
                                   max_size=size)))
    norms = scale * 10.0 ** (power * decades) * np.exp(noise)
    norms[draw(st.lists(st.integers(0, size - 1), max_size=2))] = 0.0
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    path = StatePath(rng.standard_normal((size, 8)), energies, norms, "Converged")
    limit = draw(st.sampled_from(["final", "zero", "sample"]))
    if limit == "final":
        return path, None
    return path, 0.0 if limit == "zero" else float(
        energies[draw(st.integers(0, size - 1))])


def assert_reports_match(got, want):
    assert list(got) == list(want) == list(DECAY_FIELDS)
    if want["k_hat"] is None:
        assert got == want
        return
    assert (got["k_hat"], got["bound"]) == (want["k_hat"], want["bound"])
    assert math.isclose(got["arclength"], want["arclength"], rel_tol=1e-12)
    assert math.isclose(got["fitted_exponent"], want["fitted_exponent"], rel_tol=1e-9)


@given(stack=st.lists(tails(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_stacked_tail_reports_match_one_by_one(stack):
    trajs = [path.trajectory() for path, _ in stack]
    limits = [path.f_limit if f_c is None else f_c for path, f_c in stack]
    for (path, f_c), traj, got in zip(stack, trajs, tail_reports(
            trajs, limits, [2.0, 4.0, 8.0, 16.0])):
        assert_reports_match(got, tail_report_one(path, f_c=f_c))
        try:
            want = lojasiewicz_report_one(path, f_c=f_c)
        except InsufficientTail:
            want = dict.fromkeys(DECAY_FIELDS)
        try:
            got = lojasiewicz_report(traj, f_c=f_c)
        except InsufficientTail:
            got = dict.fromkeys(DECAY_FIELDS)
        assert_reports_match(got, want)


def test_tail_reports_widen_and_give_up_like_the_reference():
    """Five-decade drops leave one sample per 2 decades: the window widens
    to 16 decades; three samples are too few at any width; and a sample
    exactly 2 decades above the smallest excess lies in the window."""
    energies = 10.0 ** -np.arange(0.0, 30.0, 5.0)
    edge = np.array([1000.0, 100.0, 50.0, 10.0, 1.0])
    paths = [StatePath(np.eye(6)[:len(fs)], fs, fs ** 0.75, "Converged")
             for fs in (energies, energies[:3], edge)]
    wide, none, closed = tail_reports([path.trajectory() for path in paths],
                                      [0.0] * 3, [2.0, 4.0, 8.0, 16.0])
    # |grad f| = f^(3/4), so k_hat is 1 and the bound 4 f^(1/4) at the
    # window's first sample: 1e-10, the fourth from the end, and 100.
    assert [wide["k_hat"], closed["k_hat"]] == pytest.approx([1.0, 1.0], rel=1e-12)
    assert [wide["bound"], closed["bound"]] == pytest.approx(
        [4.0 * 1e-10 ** 0.25, 4.0 * 100.0 ** 0.25], rel=1e-12)
    assert none == dict.fromkeys(DECAY_FIELDS)
    for path, got in zip(paths, (wide, none, closed)):
        assert_reports_match(got, tail_report_one(path, f_c=0.0))


def _stack_values(rep, alpha, beta, x, y):
    """Every value the moments module returns, for a stack of states."""
    values = [*moment_hk(rep, alpha, beta, x, y)]
    for which in ENERGY_KINDS:
        values += [energy(rep, which, alpha, beta, x, y),
                   *grad(rep, which, alpha, beta, x, y)]
    for index in (1, 2, 3):
        values += grad_component(rep, index, alpha, beta, x, y)
    return values


def _one_by_one(rep, alpha, beta, x, y):
    rows = [_stack_values(rep, alpha, beta, x[i:i + 1], y[i:i + 1])
            for i in range(len(x))]
    return [np.concatenate(column) for column in zip(*rows)]


@given(setup=torus_setups(), count=st.integers(min_value=2, max_value=70),
       seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=30, deadline=None)
def test_torus_values_do_not_depend_on_the_stack(setup, count, seed):
    rep, alpha, beta = torus_rep(setup)
    x, y = random_state(np.random.default_rng(seed), setup.n, 1.5, count=count)
    for got, want in zip(_stack_values(rep, alpha, beta, x, y),
                         _one_by_one(rep, alpha, beta, x, y)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rep", [su2_irrep(2), su2_irrep(4),
                                 diagonal_sum(su2_irrep(3), 2), su2_irrep(14)],
                         ids=["su2-2", "su2-4", "su2-3x2", "su2-14"])
def test_values_in_a_stack_equal_a_stack_of_one_to_rounding(rep):
    rng = np.random.default_rng(31)
    alpha = rng.standard_normal(rep.k)
    beta = rng.standard_normal(rep.k) + 1j * rng.standard_normal(rep.k)
    x, y = random_state(rng, rep.dim, 1.5, count=300)
    for got, want in zip(_stack_values(rep, alpha, beta, x, y),
                         _one_by_one(rep, alpha, beta, x, y)):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
