"""Decay analysis, limit classification, and structured experiments.

This module connects the floating-point flows back to the exact data:
limits of the holomorphic energy flow are matched against the critical
levels attached to flats, and the decay of the gradient norm along a
trajectory is summarized by an empirical power-law certificate.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InputError, InsufficientTail, NonFiniteState
from ..torus import critical_level, walls_of
from .flow import STATUS_CONVERGED, Trajectory, descend
from .moments import (flow_objective, grad_component, moment_hk, pack_state,
                      unpack_state)
from .reps import GroupRep, gaussian_state, random_state, torus_rep

_EXPONENT = 0.75
_MIN_TAIL_POINTS = 4
_STATE_TOL = 1e-4
_PREP_TOL = 1e-20
_REL_TOL = 1e-8
# Most states stacked at once: ensembles, cross terms and reduction checks
# run in blocks of this many, so memory does not grow with their size.
_BLOCK = 256


@dataclass
class LojReport:
    """Empirical gradient-decay certificate over the tail of a trajectory.

    With f_c the limit value, ``k_hat`` is the smallest observed value of
    |grad f| / (f - f_c)^(3/4) on the window, and ``bound`` is the resulting
    prediction 4 k_hat^{-1} (f_start - f_c)^{1/4} for the remaining path
    length from the start of the window.
    """

    k_hat: float
    fitted_exponent: float
    tail_arclength: float
    bound: float
    window_size: int


def tail_reports(trajs: Sequence[Trajectory], limits,
                 widths: Sequence[float]) -> List[Optional[LojReport]]:
    """Fit the gradient-decay law on the final decades of every trajectory.

    Trajectory i is measured against the limit value ``limits[i]``.  Its
    window holds the samples with a nonzero gradient whose energy exceeds
    the limit by at most 10**width times the smallest positive excess
    observed, for the first of ``widths`` (in decades) that puts
    _MIN_TAIL_POINTS samples in it; its report is None when none does.
    The exponent is the least-squares slope of log |grad f| against
    log(f - f_c), each centred on its window mean.  The samples of all
    trajectories, whose states must have one length, are reduced together
    with one reduction per quantity, segment by segment.
    """
    count = len(trajs)
    sizes = np.array([len(traj.energies) for traj in trajs])
    owner = np.repeat(np.arange(count), sizes)
    excess = (np.concatenate([traj.energies for traj in trajs])
              - np.asarray(limits, dtype=np.float64)[owner])
    gns = np.concatenate([traj.grad_norms for traj in trajs])
    usable = (excess > 0.0) & (gns > 0.0)
    floor = np.full(count, np.inf)
    np.minimum.at(floor, owner[usable], excess[usable])
    cap = np.full(count, -np.inf)
    for width in widths:
        wide = floor * (10.0 ** width)
        inside = np.bincount(owner[usable & (excess <= wide[owner])], minlength=count)
        grown = np.isneginf(cap) & (inside >= _MIN_TAIL_POINTS)
        cap[grown] = wide[grown]
        if not np.isneginf(cap).any():
            break
    window = np.flatnonzero(usable & (excess <= cap[owner]))
    reports: List[Optional[LojReport]] = [None] * count
    if window.size == 0:
        return reports

    # Per windowed trajectory: its first window sample and its window size.
    heads = np.flatnonzero(np.diff(owner[window], prepend=-1))
    size = np.diff(heads, append=window.size)
    g, gn = excess[window], gns[window]
    k_hat = np.minimum.reduceat(gn / g ** _EXPONENT, heads)
    log_g, log_gn = np.log(g), np.log(gn)
    dx = log_g - np.repeat(np.add.reduceat(log_g, heads) / size, size)
    dy = log_gn - np.repeat(np.add.reduceat(log_gn, heads) / size, size)
    slope = np.add.reduceat(dx * dy, heads) / np.add.reduceat(dx * dx, heads)
    # Path length from the start of each window to the end of its trajectory,
    # over the concatenated tails of the states alone, one segment each.
    first = owner[window[heads]]
    starts = window[heads] - (np.cumsum(sizes) - sizes)[first]
    tails = [trajs[i].states[start:]
             for i, start in zip(first.tolist(), starts.tolist())]
    segment = np.repeat(np.arange(len(tails)), sizes[first] - starts)
    inner = segment[1:] == segment[:-1]
    steps = np.linalg.norm(np.diff(np.concatenate(tails), axis=0), axis=1)
    arclength = np.bincount(segment[1:][inner], weights=steps[inner],
                            minlength=len(tails))
    for i, k, g_start, exponent, length, size_i in zip(
            first.tolist(), k_hat.tolist(), g[heads].tolist(), slope.tolist(),
            arclength.tolist(), size.tolist()):
        reports[i] = LojReport(k_hat=k, fitted_exponent=exponent,
                               tail_arclength=length,
                               bound=4.0 * g_start ** (1.0 - _EXPONENT) / k,
                               window_size=size_i)
    return reports


def lojasiewicz_report(traj: Trajectory, f_c: Optional[float] = None,
                       decades: float = 2.0) -> LojReport:
    """The report of ``tail_reports`` for one trajectory at one width.

    The limit value is ``f_c``, or the final energy when it is None.
    Raises InsufficientTail when fewer than ``_MIN_TAIL_POINTS`` samples
    land in the window.
    """
    limit = traj.f_limit if f_c is None else float(f_c)
    [report] = tail_reports([traj], [limit], [decades])
    if report is None:
        raise InsufficientTail(
            f"fewer than {_MIN_TAIL_POINTS} samples lie within {decades} "
            "decades above the limit value")
    return report


def classify_limit(setup, traj: Trajectory,
                   tol_f: float = 1e-6) -> Optional[Tuple[int, ...]]:
    """Match a converged holomorphic-energy limit to a flat of the setup.

    The candidate index set collects the coordinates whose base and fiber
    sizes both vanished; its complement must be a flat whose critical
    level agrees with the limit energy within ``tol_f``.  Returns the
    flat, or None when the limit is unresolved.
    """
    match = _match_limit(setup, traj, {}, tol_f)
    return None if match is None else match[0]


def _match_limit(setup, traj: Trajectory, levels: dict, tol_f: float = 1e-6):
    """The flat of ``classify_limit`` with its critical level as a float,
    or None.  ``levels`` caches the levels of the flats met so far."""
    n = setup.n
    x, y = unpack_state(traj.states[-1], n)
    sizes = np.abs(x) ** 2 + np.abs(y) ** 2
    flat = tuple(j for j in range(n) if sizes[j] >= _STATE_TOL)
    if flat not in walls_of(setup.weights):  # keyed by exactly the flats
        return None
    level = levels.get(flat)
    if level is None:
        level = levels[flat] = float(critical_level(setup, flat))
    if abs(traj.f_limit - level) >= tol_f:
        return None
    return flat, level


def _blocks(count: int):
    """Consecutive ranges of at most _BLOCK indices that cover range(count)."""
    return (range(start, min(start + _BLOCK, count))
            for start in range(0, count, _BLOCK))


def run_ensemble(setup, trials: int, base_seed: int, *,
                 function: str = "muC2", radius: float = 1.0,
                 grad_tol: float = 1e-5, max_time: float = 1e6,
                 decades: float = 2.0, max_steps: int = 200_000) -> List[dict]:
    """Independent random-start descents of a moment-map energy.

    Each trial draws its start from a generator seeded by
    (base_seed, trial), so ensembles are reproducible and individual
    trials can be re-run in isolation.  The starts descend together, as
    stacks of at most _BLOCK states, each along its own trajectory.  Limit
    classification applies to the holomorphic energy only; for the other
    energies J is None.  A trial that collapses several decades of energy
    per step can leave too few samples in the window of ``decades``, so
    its decay report widens the window up to 16 decades, which span any
    double tail.  A non-finite energy or gradient in a descent raises
    InputError: the starts are finite and every step lowers the energy, so
    it comes from the size of the radius or of the setup.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    if setup.n == 0:  # no state to descend
        raise InputError("a flow needs at least one weight row")
    _require_seed(base_seed)
    _require_radius(radius)
    if not (math.isfinite(grad_tol) and grad_tol > 0):
        raise InputError(
            f"the gradient tolerance must be finite and positive, got {grad_tol}")
    if not max_time > 0:  # also rejects NaN
        raise InputError(f"the flow-time budget must be positive, got {max_time}")
    if not decades > 0:  # a window of no decades would widen forever
        raise InputError(f"the tail window must span positive decades, got {decades}")
    trep = torus_rep(setup)
    objective = flow_objective(trep.rep.basis, function, trep.alpha, trep.beta)
    widths, width = [], decades
    while width <= 16.0:
        widths.append(width)
        width *= 2.0
    records = []
    # Overflow to inf is expected near the float range: a descent rejects
    # such trial steps and raises on such starts, and an infinite size still
    # compares as large.  numpy need not print a warning for it.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(trials):
            draws = np.stack([np.random.default_rng((base_seed, trial)).standard_normal(
                (4, setup.n)) for trial in block])
            starts = pack_state(*gaussian_state(draws, radius))
            try:
                trajs = descend(objective, starts, grad_tol=grad_tol,
                                max_time=max_time, max_steps=max_steps)
            except NonFiniteState as exc:
                raise InputError(f"{exc}: radius {radius} or the setup is too "
                                 "large for floating point") from exc
            levels = {}   # each distinct flat's critical level, once per block
            matches = [_match_limit(setup, traj, levels)
                       if function == "muC2" and traj.status == STATUS_CONVERGED
                       else None for traj in trajs]
            reports = tail_reports(trajs, [traj.f_limit if match is None else match[1]
                                           for traj, match in zip(trajs, matches)],
                                   widths)
            for trial, traj, match, report in zip(block, trajs, matches, reports):
                record = {"seed": trial, "status": traj.status,
                          "f_limit": traj.f_limit,
                          "J": None if match is None else match[0],
                          "k_hat": None, "fitted_exponent": None,
                          "arclength": None, "bound": None}
                if report is not None:
                    record.update(k_hat=report.k_hat,
                                  fitted_exponent=report.fitted_exponent,
                                  arclength=report.tail_arclength,
                                  bound=report.bound)
                records.append(record)
    return records


def _require_radius(radius: float) -> None:
    if not (math.isfinite(radius) and radius > 0):
        raise InputError(f"the radius must be finite and positive, got {radius}")


def _require_seed(seed: int) -> None:
    # numpy's generators take only non-negative seeds.
    if seed < 0:
        raise InputError(f"the seed must be non-negative, got {seed}")


def cross_term_stats(rep: GroupRep, alpha, samples: int, seed: int,
                     radius: float = 1.0) -> dict:
    """Pairwise gradient inner products of the three component energies.

    Evaluates, over random states, the inner products between the
    gradients of |mu_1|^2, |mu_2|^2 and |mu_3|^2 (holomorphic level
    zero), together with the bracket scalar <mu_1, [mu_2, mu_3]>.  For
    the (2,3) pair the inner product equals -4 times that scalar; the
    residual of this identity, normalized by |grad_2| |grad_3| so it
    stays meaningful when both sides are pure roundoff, is reported.
    Both the raw bracket scalar and the dimensionless comparison
    4|<mu_1,[mu_2,mu_3]>| / (|grad_2| + |grad_3|)^2 are recorded.
    The states are drawn from one generator in order and evaluated in
    stacks of at most _BLOCK; only running maxima and sums are kept.
    """
    if samples < 1:
        raise InputError("need at least one sample state")
    _require_seed(seed)
    _require_radius(radius)
    rng = np.random.default_rng(seed)
    beta = np.zeros(rep.k, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.float64)
    pair_keys = ((1, 2), (1, 3), (2, 3))
    # Running maxima and sums of |ip| and ratio per pair, |scalar|, the
    # remark ratio and the identity residual.
    top, total = np.full(9, -np.inf), np.zeros(9)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(samples):
            x, y = random_state(rng, rep.dim, radius, count=len(block))
            grads = {i: pack_state(*grad_component(rep, i, alpha, beta, x, y))
                     for i in (1, 2, 3)}
            norms = {i: np.sqrt(np.sum(grads[i] ** 2, axis=1)) for i in (1, 2, 3)}
            ips = {(i, j): np.sum(grads[i] * grads[j], axis=1) for i, j in pair_keys}
            mu1, mu2, mu3 = moment_hk(rep, alpha, beta, x, y)
            scalar = np.sum(mu1 * rep.bracket_coords(mu2, mu3), axis=1)
            values = np.array(
                [np.abs(ips[p]) for p in pair_keys]
                + [np.abs(ips[i, j]) / (norms[i] * norms[j] + 1e-30) for i, j in pair_keys]
                + [np.abs(scalar),
                   4.0 * np.abs(scalar) / ((norms[2] + norms[3]) ** 2 + 1e-30),
                   np.abs(ips[2, 3] + 4.0 * scalar) / (norms[2] * norms[3] + 1e-30)])
            top = np.maximum(top, values.max(axis=1))
            total += values.sum(axis=1)
    mean = total / samples
    if not (np.all(np.isfinite(top)) and np.all(np.isfinite(mean))):
        raise InputError(f"the cross terms at radius {radius} are too large "
                         "for floating point")
    top, mean = top.tolist(), mean.tolist()
    stats = {"samples": samples, "seed": seed, "radius": radius,
             "abelian": rep.abelian, "pairs": {}}
    for p, (i, j) in enumerate(pair_keys):
        stats["pairs"][f"{i}{j}"] = {
            "max_abs": top[p], "mean_abs": mean[p],
            "max_ratio": top[3 + p], "mean_ratio": mean[3 + p]}
    stats["bracket"] = {
        "max_abs_scalar": top[6], "mean_abs_scalar": mean[6],
        "max_remark_ratio": top[7], "max_identity_residual": top[8]}
    return stats


def torus_reduction_check(rep: GroupRep, sub_rep: GroupRep, samples: int,
                          seed: int, *, alpha=None,
                          radius: float = 1.0) -> List[dict]:
    """Compare full and abelian gradient norms at prepared base states.

    Each random base vector is first driven by gradient descent to make
    the moment-map components outside the abelian subalgebra vanish.
    At such states the gradient of the full energy coincides with the
    gradient of the energy of the restricted abelian action, so the two
    norms must agree to rounding.  Samples whose preparation does not
    reach ``_PREP_TOL`` are reported as skipped rather than judged.
    """
    if samples < 1:
        raise InputError("need at least one sample state")
    _require_seed(seed)
    _require_radius(radius)
    coords = np.real(np.einsum("bij,aij->ba", np.conj(sub_rep.basis), rep.basis))
    rebuilt = np.tensordot(coords, rep.basis, axes=1)
    if np.any(np.linalg.norm(rebuilt - sub_rep.basis, axis=(1, 2)) > 1e-10):
        raise InputError(
            "the abelian family does not lie in the span of the full basis")
    # Orthonormal coordinate rows of the complement of the abelian subalgebra.
    others = np.linalg.svd(coords)[2][len(coords):]
    if alpha is None:
        alpha_full = np.zeros(rep.k)
    else:
        alpha_full = np.asarray(alpha, dtype=np.float64)
        if np.linalg.norm(others @ alpha_full) > 1e-12:
            raise InputError("the level must lie in the abelian subalgebra")
    alpha_sub = coords @ alpha_full

    # The components of mu1 off the abelian subalgebra are mu1 of the basis
    # of the complement, so the preparation descends the real energy of that
    # family at level zero.
    n = rep.dim
    zero_level = np.zeros(rep.k)
    objective = flow_objective(np.tensordot(others, rep.basis, axes=1), "muR2",
                               np.zeros(len(others)), np.zeros(len(others)))

    rng = np.random.default_rng(seed)
    results = []
    for block in _blocks(samples):
        draws = rng.standard_normal((len(block), 2, n))
        x0 = radius * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
        trajs = descend(objective, pack_state(x0, np.zeros_like(x0)),
                        grad_tol=1e-12, max_steps=50_000)
        finals = np.array([traj.states[-1] for traj in trajs])
        x, y = unpack_state(finals, n)
        full = np.linalg.norm(pack_state(
            *grad_component(rep, 1, alpha_full, zero_level, x, y)), axis=1)
        sub = np.linalg.norm(pack_state(
            *grad_component(sub_rep, 1, alpha_sub, np.zeros(sub_rep.k), x, y)),
            axis=1)
        for off_norm2, full_norm, sub_norm in zip(objective(finals)[0].tolist(),
                                                  full, sub):
            rel = (None if off_norm2 >= _PREP_TOL
                   else float(abs(full_norm - sub_norm) / max(full_norm, 1e-30)))
            status = "skipped" if rel is None else "pass" if rel < _REL_TOL else "fail"
            results.append({"status": status, "off_norm2": off_norm2, "rel_err": rel})
    return results
