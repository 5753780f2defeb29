"""Reference flows, tail fits and cross terms, one at a time.

These are the loops ``flowlab`` ran before it stacked states: ``descend_one``
integrates a single state with the same step rule as ``descend``,
``descend_lockstep`` runs a stack with one trial step per row and round, an
ensemble runs its trials one after another, ``tail_report_one`` fits the
decay law of one trajectory with ``np.polyfit`` and widens its window one
width at a time, and the cross-term experiment evaluates one sample state
per iteration.  The reference flows record every state of their path, as a
``StatePath``, and the tail fits measure arclength from those states; a
``Trajectory`` keeps step lengths and the last state only.  The tests
compare the stacked code against them.

The one-state entries to the stacked API are kept here as adapters:
``random_state``, ``integrate_flow``, ``energy``, ``grad``, ``moment_hk``,
``grad_component``, ``classify_limit`` and ``lojasiewicz_report`` each make
one call of ``gaussian_state``, ``descend``, ``flow_objective``,
``moment_terms``, ``analysis._match_limit`` or ``tail_reports``.  The
readers of ``moment_terms`` contract only what they return: the residuals
of the triple, or the vectors p of one part against its residuals.

The moment maps and gradients are also kept here as they were computed
before they were read off one generator product: ``_apply`` applies each
basis element to the states, and ``_energy_grad`` combines those rows by
one weighted form (``reference_energy_grad`` and ``reference_moment_hk``
wrap it for packed stacks and for (x, y)).  ``reference_kernel`` is the
generator product as it was before v and i v had generator blocks of their
own: the product gives w alone, and v and i v follow from it by
conjugation, negation and multiplication by i.

Last come the fixtures and checks no command runs: ``su2_irrep`` and
``diagonal_sum`` build su(2) representations for the tests,
``abelian_gradient_norm2`` is the closed form of the holomorphic gradient
norm on a torus, and ``torus_reduction_check`` compares full and abelian
gradient norms at states where the moment map lies in the abelian part.
"""

import math
from dataclasses import dataclass

import numpy as np

from hypertoric.errors import InputError, NonFiniteState
from hypertoric.flowlab.analysis import _match_limit, tail_reports
from hypertoric.flowlab.flow import (STATUS_CONVERGED, STATUS_MAX_TIME, STATUS_UNDERFLOW,
                                     Trajectory, descend)
from hypertoric.flowlab.moments import (flow_objective, moment_terms, pack_state,
                                        unpack_state)
from hypertoric.flowlab.reps import from_matrices, gaussian_state, torus_rep
from hypertoric.torus import critical_levels

_DECREASE_FRACTION = 0.7
_MIN_STEP = 1e-18
_EXPONENT = 0.75
_MIN_TAIL_POINTS = 4
# The decay fields of a flow record, in report order.
DECAY_FIELDS = ("k_hat", "fitted_exponent", "arclength", "bound")


class InsufficientTail(Exception):
    """Too few trajectory samples in the decay window for a tail estimate."""


def random_state(rng, n, radius=1.0, count=None):
    """Independent complex Gaussian coordinates with scale ``radius``; with
    ``count``, a stack of that many states, drawn as that many calls would."""
    return gaussian_state(
        rng.standard_normal((4, n) if count is None else (count, 4, n)), radius)


def integrate_flow(rep, which, alpha, beta, x0, y0, **options):
    """Gradient descent of the selected moment-map energy from (x0, y0): the
    trajectory ``descend`` gives a stack of one packed state."""
    return descend(flow_objective(rep.basis, which, alpha, beta),
                   pack_state(x0, y0), **options)[0]


def energy(rep, which, alpha, beta, x, y):
    """Squared distance of the selected moment map from its level, per state."""
    return flow_objective(rep.basis, which, alpha, beta)(pack_state(x, y))[0][()]


def grad(rep, which, alpha, beta, x, y):
    """Gradient (complex form) of the selected energy."""
    return unpack_state(flow_objective(rep.basis, which, alpha, beta)(
        pack_state(x, y))[1], rep.dim)


def _packed_grads(rep, parts, alpha, beta, x, y):
    """The gradients of |mu_c|^2 for the parts c, packed, of shape
    (..., len(parts), 4n): 4 r_c p_c, summed over the basis."""
    states = pack_state(x, y)
    s = states.reshape(-1, states.shape[-1])
    r, p = moment_terms(rep.basis, parts, alpha, beta)(s)
    grads = (4.0 * r.reshape(len(s), len(parts), 1, rep.k)) @ p.reshape(
        len(s), len(parts), rep.k, s.shape[1])
    return grads.reshape(states.shape[:-1] + (len(parts), s.shape[1]))


def moment_hk(rep, alpha, beta, x, y):
    """The hyperkahler triple (mu1, mu2, mu3), levels subtracted."""
    states = pack_state(x, y)
    r = moment_terms(rep.basis, (0, 1, 2), alpha, beta)(
        states.reshape(-1, states.shape[-1]))[0]
    mu = r.reshape(states.shape[:-1] + (3, rep.k))
    return mu[..., 0, :], mu[..., 1, :], mu[..., 2, :]


def grad_component(rep, index, alpha, beta, x, y):
    """Gradient (complex form) of |mu_index|^2 for index in {1, 2, 3}."""
    if index not in (1, 2, 3):
        raise InputError("component index must be 1, 2 or 3")
    return unpack_state(_packed_grads(rep, (index - 1,), alpha, beta, x, y)[..., 0, :],
                        rep.dim)


def classify_limit(setup, traj):
    """The flat a converged holomorphic-energy limit reaches, or None."""
    match = _match_limit(setup, traj, critical_levels(setup))
    return None if match is None else match[0]


def lojasiewicz_report(traj, f_c=None, decades=2.0):
    """The decay fields ``tail_reports`` gives one trajectory at one width,
    against ``f_c`` or else the final energy; raises InsufficientTail when
    fewer than _MIN_TAIL_POINTS samples land in the window."""
    limit = traj.f_limit if f_c is None else float(f_c)
    [report] = tail_reports([traj], [limit], [decades])
    if report["k_hat"] is None:
        raise InsufficientTail(
            f"fewer than {_MIN_TAIL_POINTS} samples lie within {decades} "
            "decades above the limit value")
    return report


@dataclass
class StatePath:
    """Recorded descent path of one state with every state kept: row s of
    ``states`` is the state after s accepted steps, with energy
    ``energies[s]`` and gradient norm ``grad_norms[s]``; row 0 is the start."""

    states: np.ndarray
    energies: np.ndarray
    grad_norms: np.ndarray
    status: str

    @property
    def f_limit(self) -> float:
        return float(self.energies[-1])

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def trajectory(self) -> Trajectory:
        """The ``Trajectory`` that records this path: the distance of each
        state from the one before (0.0 at the start) and the last state."""
        lengths = np.linalg.norm(np.diff(self.states, axis=0), axis=1)
        return Trajectory(np.concatenate([[0.0], lengths]), self.energies,
                          self.grad_norms, self.final, self.status)


def _point(x, y) -> np.ndarray:
    return np.concatenate([x, y], axis=-1, dtype=np.complex128)


def _apply(basis: np.ndarray, z) -> np.ndarray:
    """The rows e_a z = (e_a x, conj(e_a) y) of every basis element, of shape
    (..., k, 2n)."""
    k, n = basis.shape[:2]
    rows = basis.reshape(k * n, n)
    shape = z.shape[:-1] + (k, n)
    return np.concatenate([(z[..., :n] @ rows.T).reshape(shape),
                           (z[..., n:] @ np.conj(rows).T).reshape(shape)], axis=-1)


def _mu_real(alpha, z, ez) -> np.ndarray:
    """mu1_a = -Im<e_a z, z>/2 - alpha_a."""
    return (-0.5 * np.imag((np.conj(ez) * z[..., None, :]).sum(axis=-1))
            - np.asarray(alpha, dtype=np.float64))


def _mu_holo(beta, z, ez) -> np.ndarray:
    """muC_a = -i y^T e_a x - beta_a."""
    n = z.shape[-1] // 2
    return (-1j * (ez[..., :n] * z[..., None, n:]).sum(axis=-1)
            - np.asarray(beta, dtype=np.complex128))


def _weighted_grad(ez, w_real, w_holo) -> np.ndarray:
    """The gradient of 2 sum_a (w_a mu1_a + Re(conj(c_a) muC_a)) at fixed
    weights, -2i sum_a (w_a e_a z + c_a conj(J e_a z)) with J(u, v) = (v, -u);
    a zero weight is None."""
    n = ez.shape[-1] // 2
    terms = 0.0 if w_real is None else w_real[..., None] * ez
    if w_holo is not None:
        conj_jez = np.concatenate([np.conj(ez[..., n:]), -np.conj(ez[..., :n])],
                                  axis=-1)
        terms = terms + w_holo[..., None] * conj_jez
    return -2j * np.sum(terms, axis=-2)


def _energy_grad(basis: np.ndarray, which: str, alpha, beta, z):
    """The selected energy and its gradient g_z, per state, of the family
    ``basis`` at the point z = (x, y)."""
    real, holo = which != "muC2", which != "muR2"
    ez = _apply(basis, z)
    mu1 = _mu_real(alpha, z, ez) if real else None
    mu_c = _mu_holo(beta, z, ez) if holo else None
    total = 0.0
    if real:
        total = total + (mu1 * mu1).sum(axis=-1)
    if holo:
        total = total + (np.real(mu_c) ** 2 + np.imag(mu_c) ** 2).sum(axis=-1)
    return total, _weighted_grad(ez, mu1, mu_c)


def reference_energy_grad(basis, which, alpha, beta, states):
    """The energy and packed gradient of ``flow_objective`` on packed states."""
    f, gz = _energy_grad(basis, which, alpha, beta,
                         np.ascontiguousarray(states, dtype=np.float64)
                         .view(np.complex128))
    return f, gz.view(np.float64)


def reference_moment_hk(rep, alpha, beta, x, y):
    """(mu1, mu2, mu3) and the gradients (gx, gy) of |mu1|^2, |mu2|^2 and
    |mu3|^2, as ``moment_hk`` and ``grad_component`` give them."""
    z = _point(x, y)
    ez = _apply(rep.basis, z)
    mu1, mu_c = _mu_real(alpha, z, ez), _mu_holo(beta, z, ez)
    n = rep.dim
    grads = [_weighted_grad(ez, mu1, None), _weighted_grad(ez, None, np.real(mu_c)),
             _weighted_grad(ez, None, 1j * np.imag(mu_c))]
    return ((mu1, np.real(mu_c), np.imag(mu_c)),
            [(g[..., :n], g[..., n:]) for g in grads])


def reference_kernel(basis, parts, alpha, beta):
    """``moments.moment_terms`` with G holding w alone: the product s G gives
    w = (w_1, ..., w_k), and v = (-conj(w_y), conj(w_x)) and i v are made from
    it.  The stack meets G in chunks of fewer than 2^19 multiply-adds."""
    k, n = basis.shape[:2]
    alpha, beta = np.asarray(alpha, dtype=np.float64), np.asarray(beta, dtype=np.complex128)
    levels = np.stack([alpha, beta.real, beta.imag])[list(parts)].ravel()
    unit = np.eye(4 * n).view(np.complex128)
    w = -0.5j * np.concatenate([np.einsum("aml,il->iam", basis, unit[:, :n]),
                                np.einsum("aml,il->iam", np.conj(basis), unit[:, n:])],
                               axis=-1)
    gen = np.ascontiguousarray(w).view(np.float64).reshape(4 * n, 4 * n * k)
    rows = max(1, (1 << 19) // max(gen.size, 1))
    first, holo = parts[0], parts[-1] == 2

    def evaluate(s):
        count = len(s)
        p = np.empty((count, 3 if holo else 1, k, 4 * n))
        for i in range(0, count, rows):
            chunk = s[i:i + rows]
            np.matmul(chunk, gen, out=p[i:i + rows, 0].reshape(len(chunk), 4 * n * k))
        if holo:
            z = p.view(np.complex128).reshape(count, 3, k, 2, n)
            np.conjugate(z[:, 0, :, ::-1], out=z[:, 1])
            z[:, 1, :, 0] *= -1
            np.multiply(z[:, 1], 1j, out=z[:, 2])
        p = p[:, first:].reshape(count, levels.size, 4 * n)
        r = (p @ s[:, :, None]).reshape(count, levels.size) - levels
        return r, p

    return evaluate


def descend_one(fun, grad_fun, state0, *, grad_tol=1e-8, max_time=1e6, h0=0.05,
                max_steps=1_000_000):
    """Negative gradient flow of one state; ``fun`` and ``grad_fun`` read one
    flat state."""
    state = np.array(state0, dtype=np.float64).copy()
    if not np.all(np.isfinite(state)):
        raise NonFiniteState("initial state is not finite")
    f = float(fun(state))
    g = np.asarray(grad_fun(state), dtype=np.float64)
    gnorm = float(np.linalg.norm(g))
    if not (np.isfinite(f) and np.isfinite(gnorm)):
        raise NonFiniteState("energy or gradient is not finite at the start")

    samples = [(state.copy(), f, gnorm)]
    t = 0.0
    h = float(h0)
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
                    and f_trial <= f - _DECREASE_FRACTION * h * gnorm * gnorm
                    and f_trial < f):
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
        samples.append((state.copy(), f, gnorm))
        h *= 2.0
    states, energies, norms = (np.array(column) for column in zip(*samples))
    return StatePath(states, energies, norms, status)


def descend_lockstep(fun, states0, *, grad_tol=1e-8, max_time=1e6, h0=0.05,
                     max_steps=1_000_000):
    """``descend`` with one candidate per row and round: a rejected row
    halves its step and tries again in the next round."""
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
    log = [(np.arange(count), states.copy(), f.copy(), gnorm.copy())]
    active = np.arange(count)
    while True:
        converged = gnorm[active] < grad_tol
        spent = (t[active] >= max_time) | (steps[active] >= max_steps)
        underflow = h[active] < _MIN_STEP
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
                 * gnorm[active])
              & (f_trial < f[active]))
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
        finite = np.isfinite(gnorm[moved])
        if not np.all(finite):
            raise NonFiniteState("non-finite energy or gradient at flow time "
                                 f"{float(t[moved][~finite][0])}")
        steps[moved] += 1
        h[moved] *= 2.0
        log.append((moved, accepted, f[moved], gnorm[moved]))

    order = np.argsort(np.concatenate([entry[0] for entry in log]), kind="stable")
    cuts = np.cumsum(steps + 1)[:-1]
    columns = [np.split(np.concatenate([entry[i] for entry in log])[order], cuts)
               for i in range(1, 4)]
    return [StatePath(*fields, status=row_status)
            for *fields, row_status in zip(*columns, status)]


def lojasiewicz_report_one(traj, f_c=None, decades=2.0):
    """The decay fields of one trajectory at one window width; raises
    InsufficientTail when fewer than _MIN_TAIL_POINTS samples land in it."""
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
    return {"k_hat": k_hat, "fitted_exponent": slope, "arclength": tail,
            "bound": bound}


def tail_report_one(traj, f_c=None, decades=2.0):
    """The decay fields at the first of decades, 2 decades, ... up to 16
    decades that fits, or each None when none does."""
    width = decades
    while width <= 16.0:
        try:
            return lojasiewicz_report_one(traj, f_c=f_c, decades=width)
        except InsufficientTail:
            width *= 2.0
    return dict.fromkeys(DECAY_FIELDS)


def run_ensemble_one_by_one(setup, trials, base_seed, *, function="muC2",
                            radius=1.0, grad_tol=1e-5, max_time=1e6, decades=2.0,
                            max_steps=200_000):
    """``run_ensemble`` with each trial integrated on its own."""
    rep, alpha, beta = torus_rep(setup)
    n = setup.n

    def fun(state):
        return energy(rep, function, alpha, beta, *unpack_state(state, n))

    def grad_fun(state):
        return pack_state(*grad(rep, function, alpha, beta, *unpack_state(state, n)))

    records = []
    for trial in range(trials):
        rng = np.random.default_rng((base_seed, trial))
        traj = descend_one(fun, grad_fun, pack_state(*random_state(rng, n, radius)),
                           grad_tol=grad_tol, max_time=max_time, max_steps=max_steps)
        flat = None
        if function == "muC2" and traj.status == STATUS_CONVERGED:
            flat = classify_limit(setup, traj)
        f_c = float(critical_levels(setup)[flat]) if flat is not None else None
        records.append({"seed": trial, "status": traj.status,
                        "f_limit": traj.f_limit, "J": flat,
                        **tail_report_one(traj, f_c=f_c, decades=decades)})
    return records


def _real_inner(ux, uy, vx, vy):
    return float(np.real(np.vdot(ux, vx)) + np.real(np.vdot(uy, vy)))


def cross_term_stats_one_by_one(rep, alpha, samples, seed, radius=1.0):
    """``cross_term_stats`` with one sample state per iteration."""
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


def su2_irrep(dim):
    """Irreducible su(2) representation on C^dim, orthonormalized.

    The third basis element is diagonal and spans the Cartan subalgebra.
    """
    j = (dim - 1) / 2.0
    m = j - np.arange(dim)
    s3 = np.diag(m).astype(np.complex128)
    raise_offdiag = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    splus = np.zeros((dim, dim), dtype=np.complex128)
    for i, val in enumerate(raise_offdiag):
        splus[i, i + 1] = val
    sminus = splus.conj().T
    s1 = (splus + sminus) / 2
    s2 = (splus - sminus) / (2j)
    return from_matrices([1j * s1, 1j * s2, 1j * s3])


def diagonal_sum(rep, copies):
    """Same algebra acting diagonally on several copies of its space."""
    n = rep.dim
    mats = []
    for a in range(rep.k):
        big = np.zeros((n * copies, n * copies), dtype=np.complex128)
        for c in range(copies):
            big[c * n:(c + 1) * n, c * n:(c + 1) * n] = rep.basis[a]
        mats.append(big)
    return from_matrices(mats)


def abelian_gradient_norm2(bmat, beta, x, y):
    """Closed form for |grad of the holomorphic energy|^2 on a torus.

    For the diagonal torus with integer weight rows b_j the squared
    gradient norm of (B^T z - beta)^H G^{-1} (B^T z - beta), z_j = x_j y_j,
    equals 4 sum_j (|x_j|^2 + |y_j|^2) |(B w)_j|^2 with w = G^{-1}(B^T z - beta).
    Here beta is the level in the original weight coordinates.
    """
    bmat = np.asarray(bmat, dtype=np.float64)
    if bmat.shape[1] == 0:
        return 0.0
    z = np.asarray(x) * np.asarray(y)
    gram = bmat.T @ bmat
    w = np.linalg.solve(gram, bmat.T @ z - np.asarray(beta, dtype=np.complex128))
    rates = bmat @ w
    sizes = np.abs(np.asarray(x)) ** 2 + np.abs(np.asarray(y)) ** 2
    return float(4.0 * np.sum(sizes * np.abs(rates) ** 2))


_PREP_TOL = 1e-20
_REL_TOL = 1e-8


def torus_reduction_check(rep, sub_rep, samples, seed, *, alpha=None):
    """Compare full and abelian gradient norms at prepared base states.

    Each random base vector is first driven by gradient descent to make
    the moment-map components outside the abelian subalgebra vanish.
    At such states the gradient of the full energy coincides with the
    gradient of the energy of the restricted abelian action, so the two
    norms must agree to rounding.  Samples whose preparation does not
    reach ``_PREP_TOL`` are reported as skipped rather than judged.
    """
    if seed < 0:
        raise InputError(f"the seed must be non-negative, got {seed}")
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
    objective = flow_objective(np.tensordot(others, rep.basis, axes=1), "muR2",
                               np.zeros(len(others)), np.zeros(len(others)))
    draws = np.random.default_rng(seed).standard_normal((samples, 2, n))
    x0 = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
    trajs = descend(objective, pack_state(x0, np.zeros_like(x0)),
                    grad_tol=1e-12, max_steps=50_000)
    finals = np.array([traj.final for traj in trajs])
    x, y = unpack_state(finals, n)
    full = np.linalg.norm(_packed_grads(rep, (0,), alpha_full, np.zeros(rep.k), x, y)[:, 0],
                          axis=1)
    sub = np.linalg.norm(_packed_grads(sub_rep, (0,), alpha_sub, np.zeros(sub_rep.k),
                                       x, y)[:, 0], axis=1)
    results = []
    for off_norm2, full_norm, sub_norm in zip(objective(finals)[0].tolist(), full, sub):
        rel = (None if off_norm2 >= _PREP_TOL
               else float(abs(full_norm - sub_norm) / max(full_norm, 1e-30)))
        status = "skipped" if rel is None else "pass" if rel < _REL_TOL else "fail"
        results.append({"status": status, "off_norm2": off_norm2, "rel_err": rel})
    return results
