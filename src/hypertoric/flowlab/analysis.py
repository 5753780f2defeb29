"""Decay analysis, limit classification, and structured experiments.

This module connects the floating-point flows back to the exact data:
limits of the holomorphic energy flow are matched against the critical
levels attached to flats, and the decay of the gradient norm along a
trajectory is summarized by an empirical power-law certificate.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import InputError, InsufficientTail
from ..flats import closure
from ..torus import critical_level
from .flow import STATUS_CONVERGED, Trajectory, descend, energy_functions
from .moments import grad_component, moment_hk, pack_state, unpack_state
from .reps import GroupRep, random_state, torus_rep

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


def lojasiewicz_report(traj: Trajectory, f_c: Optional[float] = None,
                       decades: float = 2.0) -> LojReport:
    """Fit the gradient-decay law on the final decades of a trajectory.

    The window consists of the samples whose energy exceeds the limit
    value by at most a factor 10**decades of the smallest positive excess
    observed.  Raises InsufficientTail when fewer than ``_MIN_TAIL_POINTS``
    samples land in the window.
    """
    fs = traj.energies
    gns = traj.grad_norms
    limit = float(fs[-1]) if f_c is None else float(f_c)
    excess = fs - limit
    usable = np.flatnonzero((excess > 0.0) & (gns > 0.0))
    if usable.size == 0:
        raise InsufficientTail("no samples lie strictly above the limit value")
    cap = excess[usable].min() * (10.0 ** decades)
    window = usable[excess[usable] <= cap]
    if window.size < _MIN_TAIL_POINTS:
        raise InsufficientTail(
            f"only {window.size} samples in the final {decades} decades "
            f"(need {_MIN_TAIL_POINTS})")
    g = excess[window]
    gn = gns[window]
    ratios = gn / g ** _EXPONENT
    k_hat = float(ratios.min())
    g_start = float(g[0])
    bound = 4.0 * g_start ** (1.0 - _EXPONENT) / k_hat
    tail = float(np.sum(np.linalg.norm(np.diff(traj.states[window[0]:], axis=0),
                                       axis=1)))
    slope = float(np.polyfit(np.log(g), np.log(gn), 1)[0])
    return LojReport(k_hat=k_hat, fitted_exponent=slope, tail_arclength=tail,
                     bound=bound, window_size=int(window.size))


def classify_limit(setup, traj: Trajectory,
                   tol_f: float = 1e-6) -> Optional[Tuple[int, ...]]:
    """Match a converged holomorphic-energy limit to a flat of the setup.

    The candidate index set collects the coordinates whose base and fiber
    sizes both vanished; its complement must be a flat whose critical
    level agrees with the limit energy within ``tol_f``.  Returns the
    flat, or None when the limit is unresolved.
    """
    n = setup.n
    x, y = unpack_state(traj.states[-1], n)
    sizes = np.abs(x) ** 2 + np.abs(y) ** 2
    flat = tuple(j for j in range(n) if sizes[j] >= _STATE_TOL)
    if closure(setup.weights, flat) != flat:
        return None
    level = float(critical_level(setup, flat))
    if abs(traj.f_limit - level) >= tol_f:
        return None
    return flat


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
    energies J is None.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    _require_radius(radius)
    if not (math.isfinite(grad_tol) and grad_tol > 0):
        raise InputError(
            f"the gradient tolerance must be finite and positive, got {grad_tol}")
    if not max_time > 0:  # also rejects NaN
        raise InputError(f"the flow-time budget must be positive, got {max_time}")
    trep = torus_rep(setup)
    fun, grad_fun = energy_functions(trep.rep, function, trep.alpha, trep.beta,
                                     setup.n)
    records = []
    for block in _blocks(trials):
        starts = [pack_state(*random_state(np.random.default_rng((base_seed, trial)),
                                           setup.n, radius))
                  for trial in block]
        trajs = descend(fun, grad_fun, starts, grad_tol=grad_tol,
                        max_time=max_time, max_steps=max_steps)
        for trial, traj in zip(block, trajs):
            flat = None
            if function == "muC2" and traj.status == STATUS_CONVERGED:
                flat = classify_limit(setup, traj)
            f_c = float(critical_level(setup, flat)) if flat is not None else None
            record = {"seed": trial, "status": traj.status,
                      "f_limit": traj.f_limit, "J": flat,
                      "k_hat": None, "fitted_exponent": None,
                      "arclength": None, "bound": None}
            # A trial that collapses several decades of energy per step can
            # leave too few samples in the default window; widen it until the
            # estimate has enough points (16 decades spans any double tail).
            report = None
            width = decades
            while report is None and width <= 16.0:
                try:
                    report = lojasiewicz_report(traj, f_c=f_c, decades=width)
                except InsufficientTail:
                    width *= 2.0
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
    _require_radius(radius)
    rng = np.random.default_rng(seed)
    beta = np.zeros(rep.k, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.float64)
    pair_keys = ((1, 2), (1, 3), (2, 3))
    # Running maxima and sums of |ip| and ratio per pair, |scalar|, the
    # remark ratio and the identity residual.
    top, total = np.full(9, -np.inf), np.zeros(9)
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
    top, mean = top.tolist(), (total / samples).tolist()
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
    _require_radius(radius)
    coords = np.real(np.einsum("bij,aij->ba", np.conj(sub_rep.basis), rep.basis))
    rebuilt = np.tensordot(coords, rep.basis, axes=1)
    if np.any(np.linalg.norm(rebuilt - sub_rep.basis, axis=(1, 2)) > 1e-10):
        raise InputError(
            "the abelian family does not lie in the span of the full basis")
    projector = coords.T @ coords
    if alpha is None:
        alpha_full = np.zeros(rep.k)
    else:
        alpha_full = np.asarray(alpha, dtype=np.float64)
        off_level = alpha_full - projector @ alpha_full
        if np.linalg.norm(off_level) > 1e-12:
            raise InputError("the level must lie in the abelian subalgebra")
    alpha_sub = coords @ alpha_full

    n = rep.dim
    zero_level = np.zeros(rep.k)

    def off_energy(states):
        mu = moment_hk(rep, zero_level, zero_level, *unpack_state(states, n))[0]
        off = mu - mu @ projector
        return np.sum(off * off, axis=-1)

    def off_grad(states):
        # I - projector is an orthogonal projection, so the gradient of
        # |(I - projector) mu1|^2 is that of |mu1 - a|^2 at a = projector mu1.
        x, y = unpack_state(states, n)
        mu = moment_hk(rep, zero_level, zero_level, x, y)[0]
        return pack_state(*grad_component(rep, 1, mu @ projector, zero_level, x, y))

    rng = np.random.default_rng(seed)
    results = []
    for block in _blocks(samples):
        draws = rng.standard_normal((len(block), 2, n))
        x0 = radius * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
        trajs = descend(off_energy, off_grad, pack_state(x0, np.zeros_like(x0)),
                        grad_tol=1e-12, max_steps=50_000)
        finals = np.array([traj.states[-1] for traj in trajs])
        x, y = unpack_state(finals, n)
        full = np.linalg.norm(pack_state(
            *grad_component(rep, 1, alpha_full, zero_level, x, y)), axis=1)
        sub = np.linalg.norm(pack_state(
            *grad_component(sub_rep, 1, alpha_sub, np.zeros(sub_rep.k), x, y)),
            axis=1)
        for off_norm2, full_norm, sub_norm in zip(off_energy(finals).tolist(),
                                                  full, sub):
            rel = (None if off_norm2 >= _PREP_TOL
                   else float(abs(full_norm - sub_norm) / max(full_norm, 1e-30)))
            status = "skipped" if rel is None else "pass" if rel < _REL_TOL else "fail"
            results.append({"status": status, "off_norm2": off_norm2, "rel_err": rel})
    return results
