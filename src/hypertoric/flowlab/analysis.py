"""Decay analysis, limit classification, and the cross-term experiment.

This module connects the floating-point flows back to the exact data:
limits of the holomorphic energy flow are matched against the critical
levels attached to flats, and the decay of the gradient norm along a
trajectory is summarized by an empirical power-law certificate.
"""

import math
from typing import List, Sequence

import numpy as np
# Imported with the package, so that a command's first draw does not pay
# for loading numpy.random.
from numpy.random import default_rng

from ..errors import InputError, NonFiniteState
from ..torus import critical_levels
from .flow import STATUS_CONVERGED, Trajectory, descend
from .moments import flow_objective, moment_terms, pack_state, unpack_state
from .reps import GroupRep, gaussian_state, torus_rep

_EXPONENT = 0.75
_MIN_TAIL_POINTS = 4
_STATE_TOL = 1e-4
# Largest gap between a limit energy and the critical level it is matched to.
_LEVEL_TOL = 1e-6
# Most states stacked at once: ensembles and cross terms run in blocks of
# this many, so memory does not grow with their size.
_BLOCK = 256
# Accepted steps of one ensemble trial at most.
_MAX_STEPS = 200_000
# Tail windows of an ensemble's decay reports, in decades, tried in order.
_WIDTHS = (2.0, 4.0, 8.0, 16.0)
# The decay fields of a flow record, in report order.
_DECAY_FIELDS = ("k_hat", "fitted_exponent", "arclength", "bound")


def tail_reports(trajs: Sequence[Trajectory], limits,
                 widths: Sequence[float]) -> List[dict]:
    """Fit the gradient-decay law on the final decades of every trajectory.

    Trajectory i is measured against the limit value f_c = ``limits[i]``.
    Its window holds the samples with a nonzero gradient whose energy
    exceeds the limit by at most 10**width times the smallest positive
    excess observed, for the first of ``widths`` (in decades) that puts
    _MIN_TAIL_POINTS samples in it.  Its report is a dict of the decay
    fields of a flow record, each None when no width does: ``k_hat`` is
    the smallest observed value of |grad f| / (f - f_c)^(3/4) on the
    window; ``fitted_exponent`` is the least-squares slope of log |grad f|
    against log(f - f_c), each centred on its window mean; ``arclength`` is
    the sum of the step lengths after the window's first sample; and
    ``bound`` is the prediction 4 k_hat^{-1} (f_start - f_c)^{1/4} for that
    remaining path length.  The samples of all trajectories are reduced
    together with one reduction per quantity, segment by segment.
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
    reports = [dict.fromkeys(_DECAY_FIELDS) for _ in trajs]
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
    # Path length from the start of each window to the end of its trajectory:
    # the steps after the window's first sample, summed in order.
    first = owner[window[heads]]
    lengths = np.concatenate([traj.step_lengths for traj in trajs])
    after = np.full(count, owner.size)
    after[first] = window[heads]
    tail = np.arange(owner.size) > after[owner]
    arclength = np.bincount(owner[tail], weights=lengths[tail], minlength=count)[first]
    for i, k, g_start, exponent, length in zip(
            first.tolist(), k_hat.tolist(), g[heads].tolist(), slope.tolist(),
            arclength.tolist()):
        reports[i] = {"k_hat": k, "fitted_exponent": exponent, "arclength": length,
                      "bound": 4.0 * g_start ** (1.0 - _EXPONENT) / k}
    return reports


def _match_limit(setup, traj: Trajectory, levels):
    """Match a converged holomorphic-energy limit to a flat of the setup.

    The candidate index set collects the coordinates whose base and fiber
    sizes both vanished; its complement must be a flat whose critical
    level, in ``levels`` (``critical_levels(setup)``), agrees with the limit
    energy within ``_LEVEL_TOL``.  Returns the flat with its critical level
    as a float, or None when the limit is unresolved.
    """
    n = setup.n
    x, y = unpack_state(traj.final, n)
    sizes = np.abs(x) ** 2 + np.abs(y) ** 2
    flat = tuple(j for j in range(n) if sizes[j] >= _STATE_TOL)
    level = levels.get(flat)  # keyed by exactly the flats
    if level is None or abs(traj.f_limit - float(level)) >= _LEVEL_TOL:
        return None
    return flat, float(level)


def _blocks(count: int):
    """Consecutive ranges of at most _BLOCK indices that cover range(count)."""
    return (range(start, min(start + _BLOCK, count))
            for start in range(0, count, _BLOCK))


def run_ensemble(setup, trials: int, base_seed: int, *,
                 function: str = "muC2", radius: float = 1.0,
                 grad_tol: float = 1e-5, max_time: float = 1e6) -> List[dict]:
    """Independent random-start descents of a moment-map energy.

    Each trial draws its start from a generator seeded by
    (base_seed, trial), so ensembles are reproducible and individual
    trials can be re-run in isolation.  The starts descend together, as
    stacks of at most _BLOCK states, each along its own trajectory.  Limit
    classification applies to the holomorphic energy only; for the other
    energies J is None.  A trial that collapses several decades of energy
    per step can leave too few samples in a window of 2 decades, so its
    decay report widens the window up to 16 decades, which span any
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
    rep, alpha, beta = torus_rep(setup)
    objective = flow_objective(rep.basis, function, alpha, beta)
    levels = critical_levels(setup) if function == "muC2" else None
    records = []
    # Overflow to inf is expected near the float range: a descent rejects
    # such trial steps and raises on such starts, and an infinite size still
    # compares as large.  numpy need not print a warning for it.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(trials):
            draws = np.stack([default_rng((base_seed, trial)).standard_normal(
                (4, setup.n)) for trial in block])
            starts = pack_state(*gaussian_state(draws, radius))
            try:
                trajs = descend(objective, starts, grad_tol=grad_tol,
                                max_time=max_time, max_steps=_MAX_STEPS)
            except NonFiniteState as exc:
                raise InputError(f"{exc}: radius {radius} or the setup is too "
                                 "large for floating point") from exc
            matches = [_match_limit(setup, traj, levels)
                       if levels is not None and traj.status == STATUS_CONVERGED
                       else None for traj in trajs]
            reports = tail_reports(trajs, [traj.f_limit if match is None else match[1]
                                           for traj, match in zip(trajs, matches)],
                                   _WIDTHS)
            for trial, traj, match, fields in zip(block, trajs, matches, reports):
                records.append({"seed": trial, "status": traj.status,
                                "f_limit": traj.f_limit,
                                "J": None if match is None else match[0], **fields})
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
    rng = default_rng(seed)
    evaluate = moment_terms(rep.basis, (0, 1, 2), alpha, np.zeros(rep.k))
    pair_keys = ((1, 2), (1, 3), (2, 3))
    # Running maxima and sums of |ip| and ratio per pair, |scalar|, the
    # remark ratio and the identity residual.
    top, total = np.full(9, -np.inf), np.zeros(9)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(samples):
            x, y = gaussian_state(
                rng.standard_normal((len(block), 4, rep.dim)), radius)
            r, vectors = evaluate(pack_state(x, y))
            mu = r.reshape(len(block), 3, rep.k)
            packed = (4.0 * mu[:, :, None]) @ vectors.reshape(len(block), 3, rep.k, 4 * rep.dim)
            grads = {i: packed[:, i - 1, 0] for i in (1, 2, 3)}
            norms = {i: np.sqrt(np.sum(grads[i] ** 2, axis=1)) for i in (1, 2, 3)}
            ips = {(i, j): np.sum(grads[i] * grads[j], axis=1) for i, j in pair_keys}
            scalar = np.sum(mu[:, 0] * rep.bracket_coords(mu[:, 1], mu[:, 2]), axis=1)
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
