"""Representations, moment maps, and the flow integrator."""

import numpy as np
import pytest

from hypertoric.errors import InputError, NonFiniteState, RankDeficient
from hypertoric.flowlab import (
    STATUS_CONVERGED,
    STATUS_UNDERFLOW,
    abelian_gradient_norm2,
    descend,
    diagonal_sum,
    energy,
    from_matrices,
    grad,
    grad_component,
    integrate_flow,
    moment_hk,
    pack_state,
    random_state,
    su2_irrep,
    torus_rep,
    unpack_state,
)
from hypertoric.flowlab.reps import beta_vector, weights_matrix
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
        assert rep.cartan == (0,)

    def test_su2_structure(self):
        rep = su2_irrep(2)
        assert rep.k == 3 and rep.dim == 2
        assert not rep.abelian
        assert rep.cartan == (2,)
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
        trep = torus_rep(new_setup(TRIPLE))
        for a in range(2):
            for b in range(2):
                ip = np.real(np.sum(np.conj(trep.rep.basis[a]) * trep.rep.basis[b]))
                assert abs(ip - (a == b)) < 1e-12

    def test_levels_are_transported(self):
        setup = new_setup(((1,), (1,)), alpha=(4,), beta=(6,))
        trep = torus_rep(setup)
        # gram = 2, so the single basis column is 1/sqrt(2); the real level
        # additionally picks up the one-half normalization
        assert np.allclose(trep.alpha, [0.5 * 4 / np.sqrt(2)])
        assert np.allclose(trep.beta, [6 / np.sqrt(2)])

    def test_zero_dim_torus(self):
        trep = torus_rep(new_setup(((), ())))
        assert trep.rep.k == 0
        assert trep.alpha.shape == (0,)


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
        trep = torus_rep(new_setup(TRIPLE))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mu1, _, _ = moment_hk(trep.rep, np.zeros(2), np.zeros(2, complex), x,
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
        trep = torus_rep(sample_generic(TRIPLE, seed=2))
        rng = np.random.default_rng(3)
        x, y = random_state(rng, 3, 1.2)
        parts = [grad_component(trep.rep, i, trep.alpha, trep.beta, x, y)
                 for i in (1, 2, 3)]
        gx, gy = grad(trep.rep, "muHK2", trep.alpha, trep.beta, x, y)
        assert np.allclose(sum(p[0] for p in parts), gx)
        assert np.allclose(sum(p[1] for p in parts), gy)

    @pytest.mark.parametrize("rep", [su2_irrep(3), diagonal_sum(su2_irrep(2), 2),
                                     torus_rep(sample_generic(TRIPLE, seed=5)).rep],
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
        trep = torus_rep(sample_generic(TRIPLE, seed=7))
        fun, gradient = energy_and_grad(trep.rep, which, trep.alpha, trep.beta)
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
            setup = sample_generic(TRIPLE, seed=seed)
            trep = torus_rep(setup)
            rng = np.random.default_rng(100 + seed)
            x, y = random_state(rng, 3, 1.3)
            gx, gy = grad(trep.rep, "muC2", trep.alpha, trep.beta, x, y)
            direct = float(np.sum(np.abs(gx) ** 2) + np.sum(np.abs(gy) ** 2))
            closed = abelian_gradient_norm2(weights_matrix(setup),
                                            beta_vector(setup), x, y)
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
        x, y = unpack_state(traj.final_state, 1)
        assert abs(x[0] * y[0] - 1.0) < 1e-6
        assert traj.f_limit < 1e-12

    def test_critical_start_converges_immediately(self):
        # solve x_j y_j = z_j with B^T z = beta: for the diagonal circle on
        # C^2 with beta = 3 take z = (3/2, 3/2)
        setup = new_setup(((1,), (1,)), beta=(3,))
        trep = torus_rep(setup)
        z = np.array([1.5, 1.5], dtype=complex)
        x0 = np.sqrt(np.abs(z)).astype(complex)
        y0 = z / x0
        gx, gy = grad(trep.rep, "muC2", trep.alpha, trep.beta, x0, y0)
        assert np.linalg.norm(np.concatenate([gx, gy])) < 1e-12
        traj = integrate_flow(trep.rep, "muC2", trep.alpha, trep.beta, x0, y0)
        assert traj.status == STATUS_CONVERGED
        assert traj.steps == 0

    def test_monotone_energies_and_increasing_times(self):
        setup = new_setup(((1,), (1,)), beta=(3,))
        trep = torus_rep(setup)
        rng = np.random.default_rng(11)
        x0, y0 = random_state(rng, 2, 1.0)
        traj = integrate_flow(trep.rep, "muC2", trep.alpha, trep.beta, x0, y0,
                              grad_tol=1e-6)
        fs = traj.energies()
        ts = traj.times()
        assert np.all(np.diff(fs) < 0)
        assert np.all(np.diff(ts) > 0)
        assert traj.status == STATUS_CONVERGED

    def test_bounded_states_over_seeds(self):
        setup = new_setup(((1,), (1,)), beta=(3,))
        trep = torus_rep(setup)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x0, y0 = random_state(rng, 2, 1.0)
            traj = integrate_flow(trep.rep, "muC2", trep.alpha, trep.beta,
                                  x0, y0, grad_tol=1e-6)
            assert traj.status == STATUS_CONVERGED
            assert np.max(np.linalg.norm(traj.states(), axis=1)) < 100.0

    def test_step_underflow_status(self):
        # pretend gradient of |x| at the minimum: no step can decrease f
        traj = descend(lambda s: abs(s[0]), lambda s: np.array([1.0]), [0.0])
        assert traj.status == STATUS_UNDERFLOW

    def test_non_finite_start_raises(self):
        with pytest.raises(NonFiniteState):
            descend(lambda s: s[0] ** 2, lambda s: 2 * s, [np.inf])

    def test_non_finite_energy_raises(self):
        with pytest.raises(NonFiniteState):
            descend(lambda s: np.nan, lambda s: np.array([1.0]), [1.0])

    def test_quartic_toy_exponent(self):
        traj = descend(lambda s: s[0] ** 4, lambda s: np.array([4 * s[0] ** 3]),
                       [1.0], grad_tol=1e-10, h0=1e-3, max_time=1e12)
        from hypertoric.flowlab import lojasiewicz_report
        report = lojasiewicz_report(traj, f_c=0.0, decades=3.0)
        assert abs(report.fitted_exponent - 0.75) < 0.02
