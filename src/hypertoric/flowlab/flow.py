"""Negative gradient flow with monotone-decrease step control.

The integrator takes explicit Euler steps along the negative gradient.
A step is accepted only when it achieves a fixed fraction of the ideal
first-order decrease; otherwise the step size is halved.  Accepted
steps double the step size for the next attempt, so the scheme adapts
to the local curvature without a stiffness model.  Energy is therefore
strictly decreasing along every recorded trajectory.
"""

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..errors import NonFiniteState
from .moments import energy, grad, pack_state, unpack_state
from .reps import GroupRep

STATUS_CONVERGED = "Converged"
STATUS_MAX_TIME = "MaxTimeReached"
STATUS_UNDERFLOW = "StepUnderflow"

_DECREASE_FRACTION = 0.7
_MIN_STEP = 1e-18


@dataclass
class Trajectory:
    """Recorded descent path: samples of (time, state, energy, gradient norm)."""

    samples: List[Tuple[float, np.ndarray, float, float]]
    status: str

    @property
    def steps(self) -> int:
        return len(self.samples) - 1

    @property
    def f_limit(self) -> float:
        return self.samples[-1][2]

    @property
    def final_state(self) -> np.ndarray:
        return self.samples[-1][1]

    def times(self) -> np.ndarray:
        return np.array([s[0] for s in self.samples])

    def energies(self) -> np.ndarray:
        return np.array([s[2] for s in self.samples])

    def grad_norms(self) -> np.ndarray:
        return np.array([s[3] for s in self.samples])

    def states(self) -> np.ndarray:
        return np.array([s[1] for s in self.samples])


def path_length(traj: Trajectory, start: int = 0) -> float:
    """Euclidean length of the recorded polygonal path from sample ``start``."""
    states = traj.states()
    if len(states) - 1 <= start:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(states[start:], axis=0), axis=1)))


def descend(fun: Callable[[np.ndarray], float],
            grad_fun: Callable[[np.ndarray], np.ndarray],
            state0,
            *,
            grad_tol: float = 1e-8,
            max_time: float = 1e6,
            h0: float = 0.05,
            max_steps: int = 1_000_000) -> Trajectory:
    """Integrate the negative gradient flow of ``fun`` from ``state0``.

    Terminates with status Converged once the gradient norm drops below
    ``grad_tol``, MaxTimeReached when the flow-time or step budget is
    exhausted, and StepUnderflow when no acceptable step at least
    ``_MIN_STEP`` long exists.  Non-finite values at an accepted state
    raise NonFiniteState; non-finite trial steps are merely rejected.
    """
    state = np.array(state0, dtype=np.float64).copy()
    if not np.all(np.isfinite(state)):
        raise NonFiniteState("initial state is not finite")
    f = float(fun(state))
    g = np.asarray(grad_fun(state), dtype=np.float64)
    gnorm = float(np.linalg.norm(g))
    if not (np.isfinite(f) and np.isfinite(gnorm)):
        raise NonFiniteState("energy or gradient is not finite at the start")

    samples: List[Tuple[float, np.ndarray, float, float]] = [(0.0, state.copy(), f, gnorm)]
    t = 0.0
    h = float(h0)
    status = None
    while True:
        if gnorm < grad_tol:
            status = STATUS_CONVERGED
            break
        if t >= max_time or len(samples) - 1 >= max_steps:
            status = STATUS_MAX_TIME
            break
        accepted = False
        while h >= _MIN_STEP:
            trial = state - h * g
            f_trial = float(fun(trial))
            if (np.isfinite(f_trial) and np.all(np.isfinite(trial))
                    and f_trial <= f - _DECREASE_FRACTION * h * gnorm * gnorm):
                accepted = True
                break
            h *= 0.5
        if not accepted:
            status = STATUS_UNDERFLOW
            break
        state = trial
        t += h
        f = f_trial
        g = np.asarray(grad_fun(state), dtype=np.float64)
        gnorm = float(np.linalg.norm(g))
        if not (np.isfinite(f) and np.isfinite(gnorm)):
            raise NonFiniteState(f"non-finite energy or gradient at flow time {t}")
        samples.append((t, state.copy(), f, gnorm))
        h *= 2.0
    return Trajectory(samples=samples, status=status)


def integrate_flow(rep: GroupRep, which: str, alpha, beta, x0, y0,
                   **options) -> Trajectory:
    """Gradient descent of the selected moment-map energy from (x0, y0).

    States in the returned trajectory are flat real vectors as produced
    by pack_state.
    """
    n = np.asarray(x0).shape[0]

    def fun(state):
        return energy(rep, which, alpha, beta, *unpack_state(state, n))

    def grad_fun(state):
        return pack_state(*grad(rep, which, alpha, beta, *unpack_state(state, n)))

    return descend(fun, grad_fun, pack_state(x0, y0), **options)
