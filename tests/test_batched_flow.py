"""Stacked flows and cross terms against their one-state-at-a-time reference.

Trials keep their seed, status and classified flat; limit energies agree to
1e-12 absolute and the other floats to 1e-6 relative.  Cross-term
statistics agree to 1e-12 relative, with a 1e-12 absolute floor for the
statistics that are roundoff by construction (the bracket identity
residual, and every cross term of a torus).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flow_reference import cross_term_stats_one_by_one, run_ensemble_one_by_one
from hypertoric.exact import int_rank
from hypertoric.flowlab import (cross_term_stats, diagonal_sum, run_ensemble,
                                su2_irrep, torus_rep)
from hypertoric.flowlab import analysis
from hypertoric.flowlab.moments import ENERGY_KINDS
from hypertoric.torus import new_setup, sample_generic

TRIPLE = ((1, 0), (0, 1), (1, 1))
FLOATS = ("k_hat", "fitted_exponent", "arclength", "bound")


def assert_records_match(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a["seed"], a["status"], a["J"]) == (b["seed"], b["status"], b["J"])
        assert abs(a["f_limit"] - b["f_limit"]) <= 1e-12
        for key in FLOATS:
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
    return sample_generic(weights, draw(st.integers(min_value=0, max_value=99)))


nonabelian_reps = st.one_of(
    st.builds(su2_irrep, st.integers(min_value=2, max_value=4)),
    st.builds(diagonal_sum, st.builds(su2_irrep, st.integers(min_value=2, max_value=3)),
              st.integers(min_value=1, max_value=2)))


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
    trep = torus_rep(sample_generic(TRIPLE, 4))
    assert_stats_match(cross_term_stats(trep.rep, trep.alpha, 50, 8),
                       cross_term_stats_one_by_one(trep.rep, trep.alpha, 50, 8))


@pytest.mark.parametrize("function", ENERGY_KINDS)
def test_small_blocks_match_one_block(monkeypatch, function):
    setup = new_setup(TRIPLE, alpha=(1, 2), beta=(1, 3))
    whole = run_ensemble(setup, 8, 21, function=function)
    rep = su2_irrep(3)
    stats = cross_term_stats(rep, np.zeros(3), 10, 5)
    monkeypatch.setattr(analysis, "_BLOCK", 3)
    assert_records_match(run_ensemble(setup, 8, 21, function=function), whole)
    assert_stats_match(cross_term_stats(rep, np.zeros(3), 10, 5), stats)


def test_a_trial_does_not_depend_on_its_ensemble():
    setup = new_setup(TRIPLE, alpha=(1, 2), beta=(1, 3))
    assert_records_match(run_ensemble(setup, 8, 13)[:3], run_ensemble(setup, 3, 13))
