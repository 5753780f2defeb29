"""Negative gradient flow with monotone-decrease step control.

The integrator takes explicit Euler steps along the negative gradient.
A step is accepted only when it lowers the energy, by at least a fixed
fraction of the ideal first-order decrease; otherwise the step size is
halved.  Accepted steps double the step size for the next attempt, so the
scheme adapts to the local curvature without a stiffness model.  Energy
is therefore strictly decreasing along every recorded trajectory.

States descend as a stack in lock step.  Each round every unfinished
state tries its step h and also the halved step h/2 that a rejection of h
would try next; the energies and gradients at all trial points are
evaluated as one stack.  A state takes the first of its candidates that is
acceptable, keeping the gradient found at that trial point, and leaves the
round with h/4 when it takes none.  An h/2 below _MIN_STEP is evaluated
but never taken: its state has h below twice _MIN_STEP, so unless it takes
h it ends with StepUnderflow the next round, as with one trial per round.
Since the doubling rule rejects about every other step, this halves the
rounds a stack needs, at the cost of an h/2 trial evaluated in vain after
each accepted h.  Each state takes the same points in the same order, with
the same float operations, as one trial per round would, so where a
state's values do not depend on the rest of the stack (on tori they do
not) every trajectory is bit for bit the same.

The stack is kept compact: every per-state array (state, gradient,
energy, gradient norm, flow time, step count, step size, id) holds the
unfinished states only, in the order of their ids, and a state that
finishes is dropped from each by one boolean take.  The candidates of a
round are one broadcast, s - [h; h/2] g, of shape (2, rows), evaluated
whole.  Each round logs, for the states that moved, the step length,
energy and gradient norm; the log is joined into one block every
_LOG_BLOCK rounds and sorted by id once at the end, one column at a time.
A state's status and last state are written out when it finishes: the
tail analysis reads step lengths and limits only, and the flow time serves
the stop rule alone.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..errors import InputError, NonFiniteState

STATUS_CONVERGED = "Converged"
STATUS_MAX_TIME = "MaxTimeReached"
STATUS_UNDERFLOW = "StepUnderflow"
# By code: 2 converged, else 1 spent its budget, else 0 had no step left.
_STATUSES = (STATUS_UNDERFLOW, STATUS_MAX_TIME, STATUS_CONVERGED)

_DECREASE_FRACTION = 0.7
_MIN_STEP = 1e-18
# A round tries each row at its step h and at h/2.
_STEP_FRACTIONS = np.array([[1.0], [0.5]])
# Rounds logged between joins of the log into one block.
_LOG_BLOCK = 1024


@dataclass
class Trajectory:
    """Recorded descent path of one state: sample s is the state after s
    accepted steps, with energy ``energies[s]`` and gradient norm
    ``grad_norms[s]``, reached by a step of length ``step_lengths[s]`` (the
    distance from sample s - 1; 0.0 at the start, sample 0).  Of the states
    only the last, ``final``, is kept."""

    step_lengths: np.ndarray
    energies: np.ndarray
    grad_norms: np.ndarray
    final: np.ndarray
    status: str

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
    A one-dimensional ``states0`` is a stack of one; a stack of no rows
    gives no trajectories, without a call of ``fun``.

    Each round makes one call of ``fun`` on the trial points of every
    unfinished row: its step h, then h/2, which is never taken below
    ``_MIN_STEP`` (see the module docstring).  A row thus follows
    the path of one trial per round in about half the rounds.  Raises
    InputError unless ``h0`` is finite and positive.
    """
    if not (math.isfinite(h0) and h0 > 0):
        raise InputError(f"the initial step must be finite and positive, got {h0}")
    s = np.array(states0, dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(s)):
        raise NonFiniteState("initial state is not finite")
    count = len(s)
    if count == 0:
        return []
    f, g = (np.array(value, dtype=np.float64) for value in fun(s))
    gn = _norms(g)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(gn))):
        raise NonFiniteState("energy or gradient is not finite at the start")

    # The unfinished rows, in the order of their ids.
    ids = np.arange(count)
    t, h = np.zeros(count), np.full(count, float(h0))
    steps = np.zeros(count, dtype=np.int64)
    final, ended = np.empty_like(s), np.empty(count, dtype=np.int64)
    log, blocks = [(ids, np.zeros(count), f.copy(), gn.copy())], []
    while True:
        converged, spent = gn < grad_tol, (t >= max_time) | (steps >= max_steps)
        done = converged | spent | (h < _MIN_STEP)
        if done.any():
            final[ids[done]] = s[done]
            ended[ids[done]] = np.where(converged, 2, spent)[done]
            keep = ~done
            ids, s, g, f, gn, t, h, steps = (
                column[keep] for column in (ids, s, g, f, gn, t, h, steps))
            if ids.size == 0:
                break
        # Candidates: every row at its step h, then at h/2; candidate c
        # tries row c % size at sizes.flat[c].
        size = len(ids)
        sizes = _STEP_FRACTIONS * h
        trial = (s - sizes[:, :, None] * g).reshape(2 * size, -1)
        bound = (f - _DECREASE_FRACTION * sizes * gn * gn).ravel()
        h = 0.25 * h   # rows that move reset h
        f_trial, g_trial = (np.asarray(value, dtype=np.float64)
                            for value in fun(trial))
        ok = (np.isfinite(f_trial) & (f_trial <= bound)
              & (f_trial.reshape(2, size) < f).ravel())
        if not np.isfinite(trial).all():
            ok &= np.isfinite(trial).all(axis=1)
        # A row takes its first acceptable candidate, or none; an h/2 below
        # _MIN_STEP is never taken.
        ok[size:] &= (sizes[1] >= _MIN_STEP) & ~ok[:size]
        taken = np.flatnonzero(ok)
        if taken.size == 0:
            continue
        rows, step = taken % size, sizes.ravel()[taken]
        accepted, f_new, g_new = trial[taken], f_trial[taken], g_trial[taken]
        t_new, gn_new = t[rows] + step, _norms(g_new)
        if not np.isfinite(gn_new).all():   # f_trial passed the finite test
            raise NonFiniteState("non-finite energy or gradient at flow time "
                                 f"{float(t_new[~np.isfinite(gn_new)][0])}")
        log.append((ids[rows], _norms(accepted - s[rows]), f_new, gn_new))
        if len(log) == _LOG_BLOCK:
            blocks.append(tuple(map(np.concatenate, zip(*log))))
            log = []
        s[rows], f[rows], g[rows], gn[rows], t[rows] = accepted, f_new, g_new, gn_new, t_new
        steps[rows] += 1
        h[rows] = 2.0 * step

    # Regroup the log by row id; a stable sort keeps each row in step order.
    # The columns are joined, sorted and released one at a time, so that
    # only one of them is ever held twice.
    columns = list(zip(*blocks, *log))
    del blocks, log
    logged = np.concatenate(columns.pop(0))
    order = np.argsort(logged, kind="stable")
    samples = np.bincount(logged, minlength=count)
    del logged
    lengths, energies, norms = (np.concatenate(columns.pop(0))[order]
                                for _ in range(3))
    ends = np.cumsum(samples)
    return [Trajectory(lengths[end - size:end], energies[end - size:end],
                       norms[end - size:end], last, _STATUSES[code])
            for end, size, last, code in zip(ends.tolist(), samples.tolist(), final,
                                             ended.tolist())]


def _norms(g: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, as ``np.linalg.norm(g, axis=1)``
    computes it."""
    return np.sqrt(np.add.reduce(g * g, axis=1))
