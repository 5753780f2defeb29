"""Negative gradient flow with monotone-decrease step control.

The integrator takes explicit Euler steps along the negative gradient.
A step is accepted only when it achieves a fixed fraction of the ideal
first-order decrease; otherwise the step size is halved.  Accepted
steps double the step size for the next attempt, so the scheme adapts
to the local curvature without a stiffness model.  Energy is therefore
strictly decreasing along every recorded trajectory.

States descend as a stack in lock step.  Each round every unfinished
state tries its step h and, when h/2 is at least _MIN_STEP, also the
halved step h/2 that a rejection of h would try next; the energies and
gradients at all trial points are evaluated as one stack.  A state takes
the first of its candidates that is acceptable, keeping the gradient found
at that trial point, and leaves the round with h/4 when it takes none (h/2
when it had no second candidate).  Since the doubling rule rejects about
every other step, this halves the rounds a stack needs, at the cost of an
h/2 trial evaluated in vain after each accepted h.  Each state tries the
same points in the same order with the same float operations as one trial
per round would, so where a state's values do not depend on the rest of
the stack (on tori they do not) every trajectory is bit for bit the same.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..errors import InputError, NonFiniteState
from .moments import flow_objective, pack_state
from .reps import GroupRep

STATUS_CONVERGED = "Converged"
STATUS_MAX_TIME = "MaxTimeReached"
STATUS_UNDERFLOW = "StepUnderflow"

_DECREASE_FRACTION = 0.7
_MIN_STEP = 1e-18


@dataclass
class Trajectory:
    """Recorded descent path of one state: row s of ``states`` is the state
    at flow time ``times[s]``, with energy ``energies[s]`` and gradient norm
    ``grad_norms[s]``; row 0 is the start."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    grad_norms: np.ndarray
    status: str

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def f_limit(self) -> float:
        return float(self.energies[-1])


def descend(fun: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
            states0,
            *,
            grad_tol: float = 1e-8,
            max_time: float = 1e6,
            h0: float = 0.05,
            max_steps: int = 1_000_000) -> List[Trajectory]:
    """Integrate the negative gradient flow of ``fun`` from each row of ``states0``.

    ``fun`` maps a stack of states (one per row) to the pair of their
    energies and their gradients, each row on its own.  Every row keeps
    its own step size, flow time, step count and status, and gets its own
    trajectory.  A row terminates with status Converged once its gradient
    norm drops below ``grad_tol``, MaxTimeReached when its flow-time or
    step budget is exhausted, and StepUnderflow when no acceptable step at
    least ``_MIN_STEP`` long exists.  Non-finite values at an accepted
    state raise NonFiniteState; non-finite trial steps are merely rejected.
    A one-dimensional ``states0`` is a stack of one.

    Each round makes one call of ``fun`` on the trial points of every
    unfinished row: its step h, then h/2 for the rows whose h/2 is at
    least ``_MIN_STEP`` (see the module docstring).  A row thus follows
    the path of one trial per round in about half the rounds.  Raises
    InputError unless ``h0`` is finite and positive.
    """
    if not (math.isfinite(h0) and h0 > 0):
        raise InputError(f"the initial step must be finite and positive, got {h0}")
    states = np.array(states0, dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("initial state is not finite")
    f, g = (np.array(value, dtype=np.float64) for value in fun(states))
    gnorm = np.linalg.norm(g, axis=1)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(gnorm))):
        raise NonFiniteState("energy or gradient is not finite at the start")

    count = len(states)
    t, h = np.zeros(count), np.full(count, float(h0))
    steps, status = np.zeros(count, dtype=np.int64), np.empty(count, dtype=object)
    log = [(np.arange(count), t.copy(), states.copy(), f.copy(), gnorm.copy())]
    active = np.arange(count)
    while True:
        converged = gnorm[active] < grad_tol
        spent = (t[active] >= max_time) | (steps[active] >= max_steps)
        underflow = h[active] < _MIN_STEP
        done = converged | spent | underflow
        if done.any():
            # Later assignments win: convergence is tested first, then the
            # budgets.
            status[active[underflow]] = STATUS_UNDERFLOW
            status[active[spent]] = STATUS_MAX_TIME
            status[active[converged]] = STATUS_CONVERGED
            active = active[~done]
            if active.size == 0:
                break
        # Candidates: every row at its step h, then the rows that may halve
        # it at h/2.
        hs = h[active]
        halves = hs * 0.5
        second = halves >= _MIN_STEP
        rows = np.concatenate([active, active[second]])
        sizes = np.concatenate([hs, halves[second]])
        trial = states[rows] - sizes[:, None] * g[rows]
        f_trial, g_trial = (np.asarray(value, dtype=np.float64)
                            for value in fun(trial))
        norms = gnorm[rows]
        ok = (np.isfinite(f_trial) & np.all(np.isfinite(trial), axis=1)
              & (f_trial <= f[rows] - _DECREASE_FRACTION * sizes * norms * norms))
        # A row takes its first acceptable candidate, or none.
        taken = ok.copy()
        taken[active.size:] &= ~ok[:active.size][second]
        h[active] = np.where(second, hs * 0.25, halves)  # rows that move reset it
        moved = rows[taken]
        if moved.size == 0:
            continue
        size, accepted = sizes[taken], trial[taken]
        f_new, g_new = f_trial[taken], g_trial[taken]
        t_new, gnorm_new = t[moved] + size, np.linalg.norm(g_new, axis=1)
        finite = np.isfinite(gnorm_new)   # f_trial passed the finite test
        if not np.all(finite):
            raise NonFiniteState("non-finite energy or gradient at flow time "
                                 f"{float(t_new[~finite][0])}")
        states[moved], f[moved], g[moved] = accepted, f_new, g_new
        t[moved], gnorm[moved] = t_new, gnorm_new
        steps[moved] += 1
        h[moved] = 2.0 * size
        log.append((moved, t_new, accepted, f_new, gnorm_new))

    # Regroup the log by row; a stable sort keeps each row in time order.
    order = np.argsort(np.concatenate([entry[0] for entry in log]), kind="stable")
    cuts = np.cumsum(steps + 1)[:-1]
    columns = [np.split(np.concatenate([entry[i] for entry in log])[order], cuts)
               for i in range(1, 5)]
    return [Trajectory(*fields, status=row_status)
            for *fields, row_status in zip(*columns, status)]


def integrate_flow(rep: GroupRep, which: str, alpha, beta, x0, y0,
                   **options) -> Trajectory:
    """Gradient descent of the selected moment-map energy from (x0, y0).

    States in the returned trajectory are flat real vectors as produced
    by pack_state.
    """
    return descend(flow_objective(rep.basis, which, alpha, beta),
                   pack_state(x0, y0), **options)[0]
