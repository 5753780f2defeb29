"""Representations, moment maps, and the flow integrator."""

import numpy as np
import pytest

from flow_reference import (abelian_gradient_norm2, diagonal_sum, energy, grad,
                            grad_component, integrate_flow, lojasiewicz_report,
                            moment_hk, random_state, su2_irrep)
from hypertoric.errors import InputError, NonFiniteState, RankDeficient
from hypertoric.flowlab.flow import STATUS_CONVERGED, STATUS_UNDERFLOW, descend
from hypertoric.flowlab.moments import pack_state, unpack_state
from hypertoric.flowlab.reps import from_matrices, torus_rep
from hypertoric.torus import new_setup, sample_generic

TRIPLE = ((1, 0), (0, 1), (1, 1))


def circle_rep(n):
    return from_matrices([1j * np.eye(n)])


class TestFromMatrices:
    def test_rejects_non_skew(self):
        with pytest.raises(InputError):
            from_matrices([np.eye(2)])

    def test_rejects_dependent(self):
        with pytest.raises(RankDeficient):
            from_matrices([1j * np.eye(2), 2j * np.eye(2)])

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-9])
    def test_rejects_nearly_dependent(self, eps):
        # The second generator passes the dependence test, but its unit
        # residual is not orthogonal to the first to within the Gram bound.
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, c = (m - np.conj(m.T) for m in rng.normal(size=(2, 3, 3))
                    + 1j * rng.normal(size=(2, 3, 3)))
            with pytest.raises(RankDeficient, match="too close to dependent"):
                from_matrices([a, a + eps * c])

    def test_rejects_unclosed_bracket(self):
        # i*sigma_1 and i*sigma_2 bracket to a multiple of i*sigma_3,
        # which is outside their span.
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]])
        with pytest.raises(InputError):
            from_matrices([1j * s1, 1j * s2])

    def test_orthonormalizes(self):
        rep = from_matrices([3j * np.eye(2)])
        assert np.allclose(rep.basis[0], 1j * np.eye(2) / np.sqrt(2))
        assert rep.abelian

    def test_su2_structure(self):
        rep = su2_irrep(2)
        assert rep.k == 3 and rep.dim == 2
        assert not rep.abelian
        # orthonormal and skew
        for a in range(3):
            e = rep.basis[a]
            assert np.allclose(e, -np.conj(e.T))
            for b in range(3):
                ip = np.real(np.sum(np.conj(e) * rep.basis[b]))
                assert abs(ip - (a == b)) < 1e-12
        # brackets are totally antisymmetric multiples of the third element
        coords = rep.bracket_coords(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert abs(coords[0]) < 1e-12 and abs(coords[1]) < 1e-12
        assert abs(abs(coords[2]) - np.sqrt(2)) < 1e-12

    def test_diagonal_sum_doubles_space(self):
        rep = diagonal_sum(su2_irrep(2), 2)
        assert rep.k == 3 and rep.dim == 4
        assert not rep.abelian


class TestTorusRep:
    def test_basis_is_orthonormal(self):
        rep, _, _ = torus_rep(new_setup(TRIPLE))
        for a in range(2):
            for b in range(2):
                ip = np.real(np.sum(np.conj(rep.basis[a]) * rep.basis[b]))
                assert abs(ip - (a == b)) < 1e-12

    def test_levels_are_transported(self):
        setup = new_setup(((1,), (1,)), alpha=(4,), beta=(6,))
        _, alpha, beta = torus_rep(setup)
        # gram = 2, so the single basis column is 1/sqrt(2); the real level
        # additionally picks up the one-half normalization
        assert np.allclose(alpha, [0.5 * 4 / np.sqrt(2)])
        assert np.allclose(beta, [6 / np.sqrt(2)])

    def test_zero_dim_torus(self):
        rep, alpha, _ = torus_rep(new_setup(((), ())))
        assert rep.k == 0
        assert alpha.shape == (0,)


class TestMoments:
    def test_diagonal_circle_value(self):
        rep = circle_rep(3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mu1, _, _ = moment_hk(rep, np.zeros(1), np.zeros(1, complex), x,
                              np.zeros(3, complex))
        assert np.allclose(mu1, np.sum(np.abs(x) ** 2) / (2 * np.sqrt(3)))

    def test_zero_state_zero_level(self):
        rep = circle_rep(2)
        zero = np.zeros(2, complex)
        triple = moment_hk(rep, np.zeros(1), np.zeros(1, complex), zero, zero)
        assert all(np.allclose(mu, 0.0) for mu in triple)

    def test_conjugate_fiber_kills_real_moment(self):
        rep, _, _ = torus_rep(new_setup(TRIPLE))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mu1, _, _ = moment_hk(rep, np.zeros(2), np.zeros(2, complex), x,
                              np.conj(x))
        assert np.max(np.abs(mu1)) < 1e-12

    def test_single_circle_cotangent_values(self):
        rep = circle_rep(1)
        x = np.array([1.0 + 0j])
        y = np.array([0.0 + 0j])
        mu1, mu2, mu3 = moment_hk(rep, np.zeros(1), np.zeros(1, complex), x, y)
        assert np.allclose(mu1, [0.5])
        assert np.allclose(mu2, [0.0]) and np.allclose(mu3, [0.0])
        _, mu2, mu3 = moment_hk(rep, np.zeros(1), np.ones(1, complex), x, y)
        assert np.allclose(mu2, [-1.0]) and np.allclose(mu3, [0.0])

    def test_hand_gradient(self):
        # f = |xy - 1|^2 at (1, 0): gradient (0, -2)
        rep = circle_rep(1)
        gx, gy = grad(rep, "muC2", np.zeros(1), np.ones(1, complex),
                      np.array([1.0 + 0j]), np.array([0.0 + 0j]))
        assert np.allclose(gx, [0.0]) and np.allclose(gy, [-2.0])
        assert energy(rep, "muC2", np.zeros(1), np.ones(1, complex),
                      np.array([1.0 + 0j]), np.array([0.0 + 0j])) == 1.0

    def test_unknown_kind_rejected(self):
        rep = circle_rep(1)
        with pytest.raises(InputError):
            energy(rep, "mu", np.zeros(1), np.zeros(1, complex),
                   np.zeros(1, complex), np.zeros(1, complex))

    def test_component_gradients_sum(self):
        rep, alpha, beta = torus_rep(sample_generic(new_setup(TRIPLE), seed=2))
        rng = np.random.default_rng(3)
        x, y = random_state(rng, 3, 1.2)
        parts = [grad_component(rep, i, alpha, beta, x, y)
                 for i in (1, 2, 3)]
        gx, gy = grad(rep, "muHK2", alpha, beta, x, y)
        assert np.allclose(sum(p[0] for p in parts), gx)
        assert np.allclose(sum(p[1] for p in parts), gy)

    @pytest.mark.parametrize("rep", [su2_irrep(3), diagonal_sum(su2_irrep(2), 2),
                                     torus_rep(sample_generic(new_setup(TRIPLE),
                                                              seed=5))[0]],
                             ids=["su2", "su2-sum", "torus"])
    def test_matches_per_element_loop(self, rep):
        rng = np.random.default_rng(12)
        alpha = rng.standard_normal(rep.k)
        beta = rng.standard_normal(rep.k) + 1j * rng.standard_normal(rep.k)
        x, y = random_state(rng, rep.dim, 1.4)
        mu1 = np.array([-0.5 * np.real(np.vdot(1j * (e @ x), x))
                        - 0.5 * np.real(np.vdot(1j * (np.conj(e) @ y), y))
                        for e in rep.basis]) - alpha
        mu_c = np.array([-1j * (y @ (e @ x)) for e in rep.basis]) - beta
        gx = sum(2 * m * (-1j * (e @ x)) + 2 * c * np.conj(-1j * (e.T @ y))
                 for e, m, c in zip(rep.basis, mu1, mu_c))
        gy = sum(2 * m * (-1j * (np.conj(e) @ y)) + 2 * c * np.conj(-1j * (e @ x))
                 for e, m, c in zip(rep.basis, mu1, mu_c))
        got = moment_hk(rep, alpha, beta, x, y)
        assert np.allclose(got[0], mu1, rtol=1e-12, atol=1e-12)
        assert np.allclose(got[1] + 1j * got[2], mu_c, rtol=1e-12, atol=1e-12)
        hx, hy = grad(rep, "muHK2", alpha, beta, x, y)
        assert np.allclose(hx, gx, rtol=1e-12, atol=1e-12)
        assert np.allclose(hy, gy, rtol=1e-12, atol=1e-12)

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(4)
        x, y = random_state(rng, 5, 2.0)
        state = pack_state(x, y)
        assert state.shape == (20,)
        x2, y2 = unpack_state(state, 5)
        assert np.array_equal(x, x2) and np.array_equal(y, y2)


def finite_difference(fun, x, y, h=1e-5):
    """Central finite-difference gradient in complex form."""
    gx = np.zeros_like(x, dtype=complex)
    gy = np.zeros_like(y, dtype=complex)
    for vec, out in ((x, gx), (y, gy)):
        for j in range(vec.shape[0]):
            for part, unit in ((1.0, 1.0), (1j, 1j)):
                vec[j] += part * h
                fp = fun(x, y)
                vec[j] -= 2 * part * h
                fm = fun(x, y)
                vec[j] += part * h
                out[j] += unit * (fp - fm) / (2 * h)
    return gx, gy


def energy_and_grad(rep, which, alpha, beta):
    """Energy and gradient callables for an energy kind or a component index."""
    if which in (1, 2, 3):
        def fun(x, y):
            mu = moment_hk(rep, alpha, beta, x, y)[which - 1]
            return float(mu @ mu)
        return fun, lambda x, y: grad_component(rep, which, alpha, beta, x, y)
    return (lambda x, y: energy(rep, which, alpha, beta, x, y),
            lambda x, y: grad(rep, which, alpha, beta, x, y))


ENERGIES = ["muR2", "muC2", "muHK2", 1, 2, 3]
ENERGY_IDS = ["muR2", "muC2", "muHK2", "mu1sq", "mu2sq", "mu3sq"]


def assert_matches_finite_differences(fun, gradient, x, y):
    num = finite_difference(fun, x, y)
    exact = gradient(x, y)
    scale = np.linalg.norm(np.concatenate(exact))
    err = np.linalg.norm(np.concatenate(num) - np.concatenate(exact))
    assert err < 1e-5 * max(scale, 1.0)


class TestFiniteDifferences:
    @pytest.mark.parametrize("which", ENERGIES, ids=ENERGY_IDS)
    def test_torus_rep(self, which):
        rep, alpha, beta = torus_rep(sample_generic(new_setup(TRIPLE), seed=7))
        fun, gradient = energy_and_grad(rep, which, alpha, beta)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x, y = random_state(rng, 3, 1.5)
            assert_matches_finite_differences(fun, gradient, x, y)

    @pytest.mark.parametrize("which", ENERGIES, ids=ENERGY_IDS)
    def test_su2(self, which):
        rep = su2_irrep(2)
        rng = np.random.default_rng(9)
        alpha = rng.standard_normal(3)
        beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fun, gradient = energy_and_grad(rep, which, alpha, beta)
        for _ in range(10):
            x, y = random_state(rng, 2, 1.5)
            assert_matches_finite_differences(fun, gradient, x, y)


class TestNormFormula:
    def test_matches_direct_gradient(self):
        for seed in range(5):
            setup = sample_generic(new_setup(TRIPLE), seed=seed)
            rep, alpha, beta = torus_rep(setup)
            rng = np.random.default_rng(100 + seed)
            x, y = random_state(rng, 3, 1.3)
            gx, gy = grad(rep, "muC2", alpha, beta, x, y)
            direct = float(np.sum(np.abs(gx) ** 2) + np.sum(np.abs(gy) ** 2))
            closed = abelian_gradient_norm2(
                np.array(setup.weights, dtype=float),
                np.array([complex(*z) for z in setup.beta]), x, y)
            assert abs(direct - closed) <= 1e-10 * max(closed, 1.0)

    def test_zero_dim(self):
        assert abelian_gradient_norm2(np.zeros((2, 0)), np.zeros(0),
                                      np.ones(2, complex), np.ones(2, complex)) == 0.0


class TestFlow:
    def test_single_circle_reaches_fiber(self):
        rep = circle_rep(1)
        traj = integrate_flow(rep, "muC2", np.zeros(1), np.ones(1, complex),
                              np.array([1.0 + 0j]), np.array([0.0 + 0j]),
                              grad_tol=1e-10)
        assert traj.status == STATUS_CONVERGED
        x, y = unpack_state(traj.final, 1)
        assert abs(x[0] * y[0] - 1.0) < 1e-6
        assert traj.f_limit < 1e-12

    def test_critical_start_converges_immediately(self):
        # solve x_j y_j = z_j with B^T z = beta: for the diagonal circle on
        # C^2 with beta = 3 take z = (3/2, 3/2)
        setup = new_setup(((1,), (1,)), beta=(3,))
        rep, alpha, beta = torus_rep(setup)
        z = np.array([1.5, 1.5], dtype=complex)
        x0 = np.sqrt(np.abs(z)).astype(complex)
        y0 = z / x0
        gx, gy = grad(rep, "muC2", alpha, beta, x0, y0)
        assert np.linalg.norm(np.concatenate([gx, gy])) < 1e-12
        traj = integrate_flow(rep, "muC2", alpha, beta, x0, y0)
        assert traj.status == STATUS_CONVERGED
        assert len(traj.energies) - 1 == 0

    def test_monotone_energies_and_positive_steps(self):
        setup = new_setup(((1,), (1,)), beta=(3,))
        rep, alpha, beta = torus_rep(setup)
        rng = np.random.default_rng(11)
        x0, y0 = random_state(rng, 2, 1.0)
        traj = integrate_flow(rep, "muC2", alpha, beta, x0, y0,
                              grad_tol=1e-6)
        assert np.all(np.diff(traj.energies) < 0)
        assert np.all(traj.step_lengths[1:] > 0)
        assert traj.status == STATUS_CONVERGED

    def test_bounded_states_over_seeds(self):
        # |s_0| plus the path length bounds every |s_t| by the triangle
        # inequality; the paper bounds the path length itself.
        setup = new_setup(((1,), (1,)), beta=(3,))
        rep, alpha, beta = torus_rep(setup)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x0, y0 = random_state(rng, 2, 1.0)
            traj = integrate_flow(rep, "muC2", alpha, beta,
                                  x0, y0, grad_tol=1e-6)
            assert traj.status == STATUS_CONVERGED
            assert (np.linalg.norm(pack_state(x0, y0))
                    + np.sum(traj.step_lengths)) < 100.0

    def test_step_underflow_status(self):
        # pretend gradient of |x| at the minimum: no step can decrease f
        [traj] = descend(lambda s: (np.abs(s[:, 0]), np.ones_like(s)), [[0.0]])
        assert traj.status == STATUS_UNDERFLOW

    @pytest.mark.parametrize("h0", [float("nan"), float("inf"), 0.0, -0.05])
    def test_initial_step_must_be_finite_and_positive(self, h0):
        # A NaN step is never accepted and never underflows.
        with pytest.raises(InputError, match="initial step"):
            descend(lambda s: (s[:, 0] ** 2, 2 * s), [[1.0]], h0=h0)

    def test_non_finite_start_raises(self):
        with pytest.raises(NonFiniteState):
            descend(lambda s: (s[:, 0] ** 2, 2 * s), [[np.inf]])

    def test_non_finite_energy_raises(self):
        with pytest.raises(NonFiniteState):
            descend(lambda s: (np.full(len(s), np.nan), np.ones_like(s)), [[1.0]])

    def test_a_non_finite_trial_is_rejected_whatever_its_energy(self):
        # Energy -x near the float maximum: every step overflows to inf at
        # first, and fun gives inf an energy below every finite state's.
        def fun(s):
            low = -np.finfo(np.float64).max
            return np.where(np.isfinite(s[:, 0]), -s[:, 0], low), -np.ones_like(s)

        with np.errstate(over="ignore"):
            [traj] = descend(fun, [[1.7e308]], h0=1e308)
        assert np.isfinite(traj.final).all() and len(traj.energies) == 2
        assert traj.final[0] > 1.7e308 and traj.energies[-1] == -traj.final[0]

    def test_a_non_finite_gradient_at_an_accepted_step_raises(self):
        # x^2 is finite everywhere, its gradient only at the start.
        def fun(s):
            return s[:, 0] ** 2, np.where(s == 1.0, 2 * s, np.nan)

        with pytest.raises(NonFiniteState, match="at flow time 0.05"):
            descend(fun, [[1.0]])

    def test_quartic_toy_exponent(self):
        [traj] = descend(lambda s: (s[:, 0] ** 4, 4 * s ** 3),
                         [[1.0]], grad_tol=1e-10, h0=1e-3, max_time=1e12)
        report = lojasiewicz_report(traj, f_c=0.0, decades=3.0)
        assert abs(report["fitted_exponent"] - 0.75) < 0.02
