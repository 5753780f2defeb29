"""Each flat's critical set is reached by a descent started on its stratum.

A start that is zero outside a flat J stays so under the flow on a torus,
since each coordinate's gradient is linear in that coordinate alone.  So
its limit lies on J's critical set: the support is exactly J, and the
energy is the level of J, |beta_J|^2 for muC2 and 1/4 |alpha_J|^2 +
|beta_J|^2 for muHK2 (``metric_reference.hk_critical_level``).  Setups have
n <= 5 nonzero rows of width d <= 2 with entries in [-2, 2], and levels
from ``sample_generic``; one start per flat.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flat_reference import reference_flats
from hypertoric.exact import int_rank
from hypertoric.flowlab.flow import STATUS_CONVERGED, STATUS_UNDERFLOW, descend
from hypertoric.flowlab.moments import flow_objective, pack_state, unpack_state
from hypertoric.flowlab.reps import torus_rep
from hypertoric.torus import new_setup, sample_generic
from metric_reference import critical_level, hk_critical_level

# A coordinate is in a limit's support when |x_j|^2 + |y_j|^2 is at least
# this, the threshold of the flow reports' limit classification.
SUPPORT_TOL = 1e-4


@st.composite
def generic_setups(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(d, 5))
    entries = st.integers(-2, 2)
    weights = tuple(draw(st.tuples(*[entries] * d).filter(any)) for _ in range(n))
    assume(int_rank(weights, d) == d)
    return sample_generic(new_setup(weights), draw(st.integers(0, 99)))


# A setup whose start on the flat (1,) stalls just above the tolerance 1e-6.
STALL = new_setup(((-1, -1), (-1, -2)), [3, 0], [[3, 0], [-3, -1]])


def stratum_starts(setup, seed):
    """The flats, and a stack of one start per flat, zero outside it."""
    flats = [f for f, _ in reference_flats(setup.weights)]
    draws = np.random.default_rng(seed).standard_normal((len(flats), 4, setup.n))
    for f, draw in zip(flats, draws):
        draw[:, [j for j in range(setup.n) if j not in f]] = 0.0
    return flats, pack_state((draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2),
                             (draws[:, 2] + 1j * draws[:, 3]) / np.sqrt(2))


def check_stratum_starts(setup, seed):
    """Descend one start per flat for each energy and check every limit;
    return the number of starts."""
    flats, starts = stratum_starts(setup, seed)
    rep, alpha, beta = torus_rep(setup)
    levels = {"muC2": [critical_level(setup.weights, setup.beta, f) for f in flats],
              "muHK2": [hk_critical_level(setup.weights, setup.alpha, setup.beta, f)
                        for f in flats]}
    for function, want in levels.items():
        objective = flow_objective(rep.basis, function, alpha, beta)
        trajs = descend(objective, starts, grad_tol=1e-6, max_steps=20_000)
        for f, level, traj in zip(flats, want, trajs):
            x, y = unpack_state(traj.final, setup.n)
            sizes = np.abs(x) ** 2 + np.abs(y) ** 2
            assert traj.status == STATUS_CONVERGED, (function, f)
            assert tuple(np.flatnonzero(sizes >= SUPPORT_TOL)) == f, (function, f)
            assert abs(traj.f_limit - float(level)) < 1e-6, (function, f)
    return len(flats)


# The examples are drawn from a fixed seed.  Over 6,000 random setups drawn
# as here, 6 of 41,472 trials (all at n = d = 2, on a one-row flat) stalled
# just above the tolerance, as the next test records, so 50 fresh draws each
# run would fail about one run in twenty.
@settings(max_examples=50, deadline=None, derandomize=True)
@given(generic_setups(), st.integers(0, 2**32 - 1))
def test_stratum_starts_converge_to_their_flat_level(setup, seed):
    check_stratum_starts(setup, seed)


@pytest.mark.xfail(reason="at the level 82 of the flat (1,), no step lowers "
                   "the energy once the gradient norm is 2.7e-6, and the "
                   "descent ends StepUnderflow after 38 steps",
                   raises=AssertionError)
def test_a_stratum_start_that_stalls_above_the_tolerance():
    # Near a critical point whose energy f is far from 0, the decrease the
    # step rule asks for, 70 % of the first-order one, falls below the
    # rounding of f once the gradient norm is about sqrt(ulp(f) * curvature),
    # here some 1e-6.  No step is accepted after that, so the descent ends
    # StepUnderflow above the tolerance.
    check_stratum_starts(STALL, 0)


def test_a_descent_below_the_float_floor_ends_within_a_hundred_steps():
    # With a tolerance no float gradient reaches, a descent ends once no step
    # lowers the energy, rather than spending its budget on steps too short
    # to move the state, and its energy falls at every step.
    flats, starts = stratum_starts(STALL, 0)
    rep, alpha, beta = torus_rep(STALL)
    for function in ("muC2", "muHK2"):
        objective = flow_objective(rep.basis, function, alpha, beta)
        for f, traj in zip(flats, descend(objective, starts, grad_tol=1e-300,
                                          max_steps=20_000)):
            assert traj.status in (STATUS_CONVERGED, STATUS_UNDERFLOW), (function, f)
            assert len(traj.energies) - 1 <= 100, (function, f)
            assert np.all(np.diff(traj.energies) < 0), (function, f)
