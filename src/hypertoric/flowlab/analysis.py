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

from ..errors import InputError, InsufficientTail
from ..flats import closure
from ..torus import critical_level
from .flow import (STATUS_CONVERGED, Trajectory, descend, integrate_flow,
                   path_length)
from .moments import grad_component, moment_hk, pack_state, unpack_state
from .reps import GroupRep, random_state, torus_rep

_EXPONENT = 0.75
_MIN_TAIL_POINTS = 4
_STATE_TOL = 1e-4
_PREP_TOL = 1e-20
_REL_TOL = 1e-8


@dataclass
class LojReport:
    """Empirical gradient-decay certificate over the tail of a trajectory.

    ``k_hat`` is the smallest observed value of |grad f| / (f - f_c)^(3/4)
    on the window, and ``bound`` is the resulting prediction
    4 k_hat^{-1} (f_start - f_c)^{1/4} for the remaining path length from
    the start of the window.
    """

    f_c: float
    k_hat: float
    fitted_exponent: float
    tail_arclength: float
    bound: float
    window_start: int
    window_size: int


def lojasiewicz_report(traj: Trajectory, f_c: Optional[float] = None,
                       decades: float = 2.0) -> LojReport:
    """Fit the gradient-decay law on the final decades of a trajectory.

    The window consists of the samples whose energy exceeds the limit
    value by at most a factor 10**decades of the smallest positive excess
    observed.  Raises InsufficientTail when fewer than ``_MIN_TAIL_POINTS``
    samples land in the window.
    """
    fs = traj.energies()
    gns = traj.grad_norms()
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
    tail = path_length(traj, start=int(window[0]))
    slope = float(np.polyfit(np.log(g), np.log(gn), 1)[0])
    return LojReport(f_c=limit, k_hat=k_hat, fitted_exponent=slope,
                     tail_arclength=tail, bound=bound,
                     window_start=int(window[0]), window_size=int(window.size))


def classify_limit(setup, traj: Trajectory,
                   tol_f: float = 1e-6) -> Optional[Tuple[int, ...]]:
    """Match a converged holomorphic-energy limit to a flat of the setup.

    The candidate index set collects the coordinates whose base and fiber
    sizes both vanished; its complement must be a flat whose critical
    level agrees with the limit energy within ``tol_f``.  Returns the
    flat, or None when the limit is unresolved.
    """
    n = setup.n
    x, y = unpack_state(traj.final_state, n)
    sizes = np.abs(x) ** 2 + np.abs(y) ** 2
    flat = tuple(j for j in range(n) if sizes[j] >= _STATE_TOL)
    if closure(setup.weights, flat) != flat:
        return None
    level = float(critical_level(setup, flat))
    if abs(traj.f_limit - level) >= tol_f:
        return None
    return flat


def run_ensemble(setup, trials: int, base_seed: int, *,
                 function: str = "muC2", radius: float = 1.0,
                 grad_tol: float = 1e-5, max_time: float = 1e6,
                 decades: float = 2.0, max_steps: int = 200_000) -> List[dict]:
    """Independent random-start descents of a moment-map energy.

    Each trial draws its start from a generator seeded by
    (base_seed, trial), so ensembles are reproducible and individual
    trials can be re-run in isolation.  Limit classification applies to
    the holomorphic energy only; for the other energies J is None.
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
    records = []
    for trial in range(trials):
        rng = np.random.default_rng((base_seed, trial))
        x0, y0 = random_state(rng, setup.n, radius)
        traj = integrate_flow(trep.rep, function, trep.alpha, trep.beta, x0, y0,
                              grad_tol=grad_tol, max_time=max_time,
                              max_steps=max_steps)
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


def _real_inner(ux, uy, vx, vy) -> float:
    """Real inner product of two complex-form tangent vectors."""
    return float(np.real(np.vdot(ux, vx)) + np.real(np.vdot(uy, vy)))


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
    """
    if samples < 1:
        raise InputError("need at least one sample state")
    _require_radius(radius)
    rng = np.random.default_rng(seed)
    beta = np.zeros(rep.k, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.float64)
    pair_keys = ((1, 2), (1, 3), (2, 3))
    abs_ip = {p: [] for p in pair_keys}
    ratio = {p: [] for p in pair_keys}
    scalars = []
    remark_ratios = []
    identity_residuals = []
    for _ in range(samples):
        x, y = random_state(rng, rep.dim, radius)
        grads = {i: grad_component(rep, i, alpha, beta, x, y) for i in (1, 2, 3)}
        norms = {i: math.sqrt(_real_inner(*grads[i], *grads[i])) for i in (1, 2, 3)}
        for i, j in pair_keys:
            ip = _real_inner(*grads[i], *grads[j])
            abs_ip[(i, j)].append(abs(ip))
            ratio[(i, j)].append(abs(ip) / (norms[i] * norms[j] + 1e-30))
            if (i, j) == (2, 3):
                mu1, mu2, mu3 = moment_hk(rep, alpha, beta, x, y)
                scalar = float(mu1 @ rep.bracket_coords(mu2, mu3))
                scalars.append(abs(scalar))
                remark_ratios.append(
                    4.0 * abs(scalar) / ((norms[2] + norms[3]) ** 2 + 1e-30))
                identity_residuals.append(
                    abs(ip + 4.0 * scalar) / (norms[2] * norms[3] + 1e-30))
    stats = {"samples": samples, "seed": seed, "radius": radius,
             "abelian": rep.abelian, "pairs": {}}
    for i, j in pair_keys:
        values = np.array(abs_ip[(i, j)])
        ratios = np.array(ratio[(i, j)])
        stats["pairs"][f"{i}{j}"] = {
            "max_abs": float(values.max()), "mean_abs": float(values.mean()),
            "max_ratio": float(ratios.max()), "mean_ratio": float(ratios.mean())}
    stats["bracket"] = {
        "max_abs_scalar": float(np.max(scalars)),
        "mean_abs_scalar": float(np.mean(scalars)),
        "max_remark_ratio": float(np.max(remark_ratios)),
        "max_identity_residual": float(np.max(identity_residuals))}
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
    zero_fiber = np.zeros(n, dtype=np.complex128)
    zero_level = np.zeros(rep.k)

    def off_energy(state):
        mu = moment_hk(rep, zero_level, zero_level, *unpack_state(state, n))[0]
        off = mu - projector @ mu
        return float(off @ off)

    def off_grad(state):
        # I - projector is an orthogonal projection, so the gradient of
        # |(I - projector) mu1|^2 is that of |mu1 - a|^2 at a = projector mu1.
        x, y = unpack_state(state, n)
        mu = moment_hk(rep, zero_level, zero_level, x, y)[0]
        return pack_state(*grad_component(rep, 1, projector @ mu, zero_level, x, y))

    rng = np.random.default_rng(seed)
    results = []
    for _ in range(samples):
        x0 = radius * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        traj = descend(off_energy, off_grad, pack_state(x0, zero_fiber),
                       grad_tol=1e-12, max_steps=50_000)
        off_norm2 = off_energy(traj.final_state)
        if off_norm2 >= _PREP_TOL:
            results.append({"status": "skipped", "off_norm2": off_norm2,
                            "rel_err": None})
            continue
        x, y = unpack_state(traj.final_state, n)
        full_norm = float(np.linalg.norm(pack_state(
            *grad_component(rep, 1, alpha_full, zero_level, x, y))))
        sub_norm = float(np.linalg.norm(pack_state(
            *grad_component(sub_rep, 1, alpha_sub, np.zeros(sub_rep.k), x, y))))
        rel = abs(full_norm - sub_norm) / max(full_norm, 1e-30)
        status = "pass" if rel < _REL_TOL else "fail"
        results.append({"status": status, "off_norm2": off_norm2, "rel_err": rel})
    return results
