"""Negative gradient flow with monotone-decrease step control.

The integrator takes explicit Euler steps along the negative gradient.
A step is accepted only when it achieves a fixed fraction of the ideal
first-order decrease; otherwise the step size is halved.  Accepted
steps double the step size for the next attempt, so the scheme adapts
to the local curvature without a stiffness model.  Energy is therefore
strictly decreasing along every recorded trajectory.

States descend as a stack in lock step: each round every unfinished state
makes one trial step with its own step size, and the energies and gradients
at all trial steps are evaluated as one stack; an accepted step keeps the
gradient found at its trial point.
"""

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..errors import NonFiniteState
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
    """
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
        # Later assignments win: convergence is tested first, then the budgets.
        status[active[underflow]] = STATUS_UNDERFLOW
        status[active[spent]] = STATUS_MAX_TIME
        status[active[converged]] = STATUS_CONVERGED
        active = active[~(converged | spent | underflow)]
        if active.size == 0:
            break
        hs = h[active]
        trial = states[active] - hs[:, None] * g[active]
        f_trial, g_trial = (np.asarray(value, dtype=np.float64)
                            for value in fun(trial))
        ok = (np.isfinite(f_trial) & np.all(np.isfinite(trial), axis=1)
              & (f_trial <= f[active] - _DECREASE_FRACTION * hs * gnorm[active]
                 * gnorm[active]))
        h[active[~ok]] *= 0.5
        moved = active[ok]
        if moved.size == 0:
            continue
        accepted = trial[ok]
        states[moved] = accepted
        t[moved] += h[moved]
        f[moved] = f_trial[ok]
        g[moved] = g_trial[ok]
        gnorm[moved] = np.linalg.norm(g[moved], axis=1)
        finite = np.isfinite(gnorm[moved])   # f_trial passed the finite test
        if not np.all(finite):
            raise NonFiniteState("non-finite energy or gradient at flow time "
                                 f"{float(t[moved][~finite][0])}")
        steps[moved] += 1
        h[moved] *= 2.0
        log.append((moved, t[moved], accepted, f[moved], gnorm[moved]))

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
