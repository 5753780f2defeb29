"""Limit classification, decay certificates, and structured experiments."""

from fractions import Fraction

import numpy as np
import pytest

from flow_reference import (InsufficientTail, classify_limit, integrate_flow,
                            lojasiewicz_report, su2_irrep, torus_reduction_check)
from hypertoric.errors import InputError
from hypertoric.flowlab import analysis, cross_term_stats, from_matrices, run_ensemble
from hypertoric.flowlab.flow import STATUS_CONVERGED, descend
from hypertoric.flowlab.moments import flow_objective, pack_state
from hypertoric.flowlab.reps import torus_rep
from hypertoric import torus
from hypertoric.torus import critical_levels, new_setup

TRIPLE = ((1, 0), (0, 1), (1, 1))
PAIR = ((1,), (1,))


class TestClassifyLimit:
    def test_generic_start_reaches_full_flat(self):
        setup = new_setup(PAIR, beta=(3,))
        rep, alpha, beta = torus_rep(setup)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        traj = integrate_flow(rep, "muC2", alpha, beta, x0, y0,
                              grad_tol=1e-7)
        flat = classify_limit(setup, traj)
        assert flat == (0, 1)
        assert abs(traj.f_limit - float(critical_levels(setup)[flat])) < 1e-8

    def test_origin_start_lands_on_empty_flat(self):
        setup = new_setup(PAIR, beta=(3,))
        rep, alpha, beta = torus_rep(setup)
        traj = integrate_flow(rep, "muC2", alpha, beta,
                              np.zeros(2, complex), np.zeros(2, complex))
        assert traj.status == STATUS_CONVERGED and len(traj.energies) - 1 == 0
        flat = classify_limit(setup, traj)
        assert flat == ()
        # the limit energy is the critical level of the empty flat, 9/2
        assert abs(traj.f_limit - 4.5) < 1e-12

    def test_unresolved_when_tolerance_violated(self):
        setup = new_setup(PAIR, beta=(3,))
        rep, alpha, beta = torus_rep(setup)
        traj = integrate_flow(rep, "muC2", alpha, beta,
                              np.zeros(2, complex), np.zeros(2, complex))
        # the limit is the empty flat's level 9/2, off by 1e-3 from the one given
        levels = critical_levels(setup)
        shifted = {**levels, (): levels[()] + Fraction(1, 1000)}
        assert analysis._match_limits([traj], levels, 2) == [((), 4.5)]
        assert analysis._match_limits([traj], shifted, 2) == [None]

    def test_a_block_matches_each_limit_as_alone(self):
        # Starts on the strata of the flats (0, 1, 2), (0,), (1,) and (),
        # matched in one pass with a trajectory stopped unconverged one step
        # from the limit of (0,): each flat gets its own level, and the
        # unconverged trajectory none, though its limit would match.
        setup = new_setup(TRIPLE, alpha=(1, 2), beta=(1, 3))
        rep, alpha, beta = torus_rep(setup)
        rng = np.random.default_rng(2)
        support = np.array([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 0], [1, 1, 1]])
        x, y = (support * (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
                for _ in range(2))
        fun = flow_objective(rep.basis, "muC2", alpha, beta)
        trajs = descend(fun, pack_state(x, y), grad_tol=1e-7)
        trajs += descend(fun, trajs[1].final[None], grad_tol=1e-300, max_steps=1)
        assert trajs[-1].status != STATUS_CONVERGED
        levels = critical_levels(setup)
        matches = analysis._match_limits(trajs, levels, 3)
        assert [match and match[0] for match in matches] == [
            (0, 1, 2), (0,), (1,), (), (0, 1, 2), None]
        for traj, match in zip(trajs[:5], matches):
            assert match == (classify_limit(setup, traj), float(levels[match[0]]))


class TestLojReport:
    def _trajectory(self, max_steps=1_000_000):
        [traj] = descend(lambda s: (s[:, 0] ** 4, 4 * s ** 3),
                         [[1.0]], grad_tol=1e-10, h0=1e-3, max_time=1e12,
                         max_steps=max_steps)
        return traj

    def test_exact_power_law(self):
        report = lojasiewicz_report(self._trajectory(), f_c=0.0, decades=3.0)
        # |grad f| = 4 (f - 0)^{3/4} exactly for the quartic
        assert abs(report["k_hat"] - 4.0) < 1e-9
        assert abs(report["fitted_exponent"] - 0.75) < 1e-9
        assert report["arclength"] <= 1.5 * report["bound"]

    def test_insufficient_tail(self):
        # The first two samples of the trajectory, with its first step's length.
        short = self._trajectory(max_steps=1)
        assert len(short.energies) - 1 == 1
        with pytest.raises(InsufficientTail):
            lojasiewicz_report(short, f_c=0.0)

    def test_no_positive_excess(self):
        traj = self._trajectory()
        with pytest.raises(InsufficientTail):
            lojasiewicz_report(traj, f_c=1e6)


class TestEnsemble:
    def test_small_ensemble_converges_and_classifies(self):
        setup = new_setup(PAIR, beta=(3,))
        records = run_ensemble(setup, 4, base_seed=11)
        assert len(records) == 4
        for rec in records:
            assert rec["status"] == STATUS_CONVERGED
            assert rec["J"] == (0, 1)
            level = float(critical_levels(setup)[rec["J"]])
            assert abs(rec["f_limit"] - level) < 1e-6
            assert rec["k_hat"] > 0
            assert rec["arclength"] <= 1.5 * rec["bound"]

    def test_deterministic_given_seed(self):
        setup = new_setup(TRIPLE, beta=(1, 3))
        a = run_ensemble(setup, 2, base_seed=5)
        b = run_ensemble(setup, 2, base_seed=5)
        assert a == b

    def test_other_energies_skip_classification(self):
        setup = new_setup(PAIR, beta=(3,))
        records = run_ensemble(setup, 1, base_seed=3, function="muHK2")
        assert records[0]["J"] is None

    def test_rejects_a_negative_seed(self):
        with pytest.raises(InputError, match="seed"):
            run_ensemble(new_setup(PAIR, beta=(3,)), 1, base_seed=-1)

    def test_each_limit_flat_gets_its_level_once_per_ensemble(self, monkeypatch):
        setup = new_setup(PAIR, beta=(3,))
        want = run_ensemble(setup, 10, base_seed=11)
        monkeypatch.setattr(analysis, "_BLOCK", 4)
        torus._beta_levels.cache_clear()
        got = run_ensemble(setup, 10, base_seed=11)
        assert got == want
        # Every trial reaches the full flat; blocks of 4, 4 and 2 trials read
        # the levels computed once, fetched once.
        assert {rec["J"] for rec in got} == {(0, 1)}
        info = torus._beta_levels.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    def test_trial_count_is_at_most_two_to_the_32(self, monkeypatch):
        # Past 2**32 trials the count is refused before any draw; at 2**32
        # the first block is drawn, and the spy stops the run there.
        class Reached(Exception):
            pass

        blocks = []

        def spy(base_seed, trials, n):
            blocks.append(trials)
            raise Reached

        monkeypatch.setattr(analysis, "_start_draws", spy)
        setup = new_setup(PAIR, beta=(3,))
        with pytest.raises(InputError, match="trials"):
            run_ensemble(setup, 2 ** 32 + 1, 0)
        assert blocks == []
        with pytest.raises(Reached):
            run_ensemble(setup, 2 ** 32, 0)
        assert blocks == [range(0, 256)]


class TestCrossTerms:
    def test_abelian_orthogonality(self):
        rep, alpha, _ = torus_rep(new_setup(TRIPLE, beta=(1, 3)))
        stats = cross_term_stats(rep, alpha, 200, seed=3)
        assert stats["abelian"]
        for pair in stats["pairs"].values():
            assert pair["max_ratio"] < 1e-12
        # brackets vanish identically for a torus
        assert stats["bracket"]["max_abs_scalar"] == 0.0

    def test_su2_bracket_identity(self):
        rep = su2_irrep(2)
        stats = cross_term_stats(rep, np.zeros(3), 200, seed=4)
        assert not stats["abelian"]
        # the (2,3) inner product equals -4<mu1,[mu2,mu3]> pointwise
        assert stats["bracket"]["max_identity_residual"] < 1e-10
        # nonabelian cross terms are genuinely nonzero
        assert stats["pairs"]["23"]["max_abs"] > 0.0

    def test_needs_at_least_one_sample(self):
        rep = su2_irrep(2)
        with pytest.raises(InputError):
            cross_term_stats(rep, np.zeros(3), 0, seed=1)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(InputError, match="seed"):
            cross_term_stats(su2_irrep(2), np.zeros(3), 5, seed=-1)


class TestReductionCheck:
    def test_torus_against_itself(self):
        rep, _, _ = torus_rep(new_setup(PAIR, beta=(3,)))
        results = torus_reduction_check(rep, rep, 3, seed=1)
        assert all(r["status"] == "pass" for r in results)

    def test_su2_prepared_states_match(self):
        rep = su2_irrep(2)
        sub = from_matrices([rep.basis[2]])
        results = torus_reduction_check(rep, sub, 5, seed=9)
        assert all(r["status"] in ("pass", "skipped") for r in results)
        passed = [r for r in results if r["status"] == "pass"]
        assert len(passed) >= 3
        for r in passed:
            assert r["rel_err"] < 1e-8

    def test_rejects_a_negative_seed(self):
        rep, _, _ = torus_rep(new_setup(PAIR, beta=(3,)))
        with pytest.raises(InputError, match="seed"):
            torus_reduction_check(rep, rep, 3, seed=-1)

    def test_rejects_family_outside_span(self):
        rep = su2_irrep(2)
        stray = from_matrices([1j * np.eye(2)])
        with pytest.raises(InputError):
            torus_reduction_check(rep, stray, 1, seed=0)

    def test_rejects_level_outside_subalgebra(self):
        rep = su2_irrep(2)
        sub = from_matrices([rep.basis[2]])
        with pytest.raises(InputError):
            torus_reduction_check(rep, sub, 1, seed=0,
                                  alpha=np.array([1.0, 0.0, 0.0]))
