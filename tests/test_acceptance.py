"""Acceptance suite: one test per release criterion, stated tolerances only.

Each test prints a single summary line on success; a pytest failure line is
the corresponding rejection.  Derived constants (catalog matrices, expected
polynomials) are frozen literals so the suite never depends on external
randomness beyond the seeds written here.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from flat_reference import reference_flats
from flow_reference import (abelian_gradient_norm2, energy, grad, lojasiewicz_report,
                            random_state, su2_irrep)
from hypertoric.crosscheck import analyze, census_recurrence, polynomial_recurrence
from hypertoric.flowlab import cross_term_stats, run_ensemble
from hypertoric.flowlab.flow import descend
from hypertoric.flowlab.reps import torus_rep
from hypertoric.morse import poincare_morse
from hypertoric.ringcalc import cohomology_presentation, hilbert_dims
from hypertoric.torus import (
    critical_levels,
    derived_seed,
    modify,
    new_setup,
    sample_generic,
)
from test_stratum_flows import check_stratum_starts

# Catalog of weight matrices, all with at most 7 rows and 3 columns:
# diagonal circles, identity blocks, the (1,0),(0,1),(1,1) family, and
# random full-rank matrices with entries in [-2,2] (frozen literals).
CATALOG = (
    ((1,), (1,)),
    ((1,), (1,), (1,)),
    ((1,), (1,), (1,), (1,)),
    ((1,), (1,), (1,), (1,), (1,)),
    ((1,), (1,), (1,), (1,), (1,), (1,)),
    ((1,), (1,), (1,), (1,), (1,), (1,), (1,)),
    ((1, 0), (0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
    ((1,), (2,)),
    ((1,), (-1,), (2,)),
    ((1,), (-2,), (-2,), (1,), (1,)),
    ((-1,), (1,), (-2,)),
    ((2,), (-1,)),
    ((1,), (1,), (-1,), (-1,), (0,), (1,), (-1,)),
    ((0, 1), (1, 2), (-1, 0), (2, 2), (1, 0), (0, 0)),
    ((2, 1), (2, 1), (2, 0), (1, 2), (1, -2), (2, 2), (1, 0)),
    ((0, -2, 0), (0, 0, 0), (0, 0, -2), (-1, 2, 1), (0, 0, 2)),
    ((1,), (1,), (0,), (1,), (2,), (2,), (0,)),
)

MODIFICATION_PAIRS = (
    (((1,), (1,)), (1, 0)),
    (((1,), (1,), (1,)), (1, 0, 0)),
    (((1,), (1,), (1,)), (1, 1, 0)),
    (((1, 0), (0, 1), (1, 1)), (1, 0, 0)),
    (((1, 0), (0, 1), (1, 1)), (1, 1, 0)),
    (((), ()), (1, 1)),
    (((1,), (2,)), (1, 1)),
    (((1,), (-1,), (2,)), (1, 0, 0)),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (1, 1, 0, 0)),
    (((-1,), (1,), (-2,)), (1, 1, 1)),
    (((0, 1), (1, 2), (-1, 0), (2, 2), (1, 0), (0, 0)), (1, 0, 0, 0, 0, 0)),
    (((0, -2, 0), (0, 0, 0), (0, 0, -2), (-1, 2, 1), (0, 0, 2)),
     (0, 1, 0, 0, 0)),
)

# Nonzero rows, n <= 5 and d <= 2, entries in [-2, 2]: the setups of the
# stratum-start property in tests/test_stratum_flows.py.
STRATUM_SETUPS = (
    ((1,), (1,)),
    ((1,), (-1,), (2,)),
    ((1,), (-2,), (-2,), (1,), (1,)),
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (0, 1), (1, 1), (1, -1)),
    ((2, 1), (1, 2), (-1, 0), (0, 1), (1, 1)),
)

ENSEMBLE_SETUPS = (
    (((1,), (1,)), ((3, 0),)),
    (((1, 0), (0, 1)), ((1, 0), (2, 0))),
    (((1, 0), (0, 1), (1, 1)), ((1, 0), (3, 0))),
)


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


def test_criterion_1_triple_agreement():
    start = time.time()
    assert len(CATALOG) >= 20
    for weights in CATALOG:
        n, d = len(weights), len(weights[0]) if weights[0] else 0
        assert n <= 7 and d <= 3
        for repeat in range(5):
            setup = sample_generic(new_setup(weights),
                                   derived_seed("acc1", weights, repeat))
            agreement = analyze(setup).agreement
            assert agreement["morse_census"], (weights, repeat)
            assert agreement["morse_ring"], (weights, repeat)
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 1 PASS: 20 setups x (morse = census x5 = hilbert), "
          f"{elapsed:.1f}s")


def test_criterion_2_projective_family():
    for n in range(1, 7):
        weights = tuple((1,) for _ in range(n + 1))
        assert poincare_morse(weights) == tuple([1] * (n + 1))
    print("ACCEPTANCE 2 PASS: cotangent projective-space family n=1..6 exact")


def test_criterion_3_modification_recurrences():
    assert len(MODIFICATION_PAIRS) >= 10
    for weights, column in MODIFICATION_PAIRS:
        setup = sample_generic(new_setup(weights),
                               derived_seed("acc3", weights, column))
        pair = modify(setup, column, seed=1)
        *_, poly_ok = polynomial_recurrence(pair)
        assert poly_ok, (weights, column)
        (new_only, shared_both, shared_extended), *_, census_ok = \
            census_recurrence(pair)
        total = len(new_only) + len(shared_both) + len(shared_extended)
        wide = tuple(row + (c,) for row, c in zip(weights, column))
        assert total == len(reference_flats(wide))
        assert census_ok, (weights, column)
    print(f"ACCEPTANCE 3 PASS: {len(MODIFICATION_PAIRS)} modification pairs, "
          "polynomial + census recurrences, trichotomy zero violations")


def test_criterion_4_ring_sanity():
    for weights in CATALOG:
        n, d = len(weights), len(weights[0]) if weights[0] else 0
        dims = hilbert_dims(cohomology_presentation(weights), n - d + 3)
        assert dims[0] == 1
        assert all(v == 0 for k, v in enumerate(dims) if k > n - d)
        setup = sample_generic(new_setup(weights), derived_seed("acc4", weights))
        result = analyze(setup)
        assert result.ordinary == dims[:-1]
        assert len(result.circle) == n - d + 4
        assert result.agreement["circle_series"], weights
    print("ACCEPTANCE 4 PASS: Hilbert tables vanish above top degree, "
          "constant term 1, circle series is the cumulative ordinary series")


def _five_reps():
    reps = []
    for weights in (((1,), (1,)), ((1, 0), (0, 1), (1, 1)),
                    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))):
        setup = sample_generic(new_setup(weights), derived_seed("acc5", weights))
        reps.append((*torus_rep(setup), True, weights))
    rng = np.random.default_rng(55)
    for dim in (2, 3):
        rep = su2_irrep(dim)
        alpha = 0.1 * rng.standard_normal(3)
        beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        reps.append((rep, alpha, beta, False, None))
    return reps


def test_criterion_5_gradient_correctness():
    fd_worst = 0.0
    norm_worst = 0.0
    for rep, alpha, beta, is_torus, weights in _five_reps():
        rng = np.random.default_rng(derived_seed("acc5-states", rep.dim, rep.k))
        if is_torus:
            setup = sample_generic(new_setup(weights), derived_seed("acc5", weights))
            bmat = np.array(setup.weights, dtype=float)
            bvec = np.array([complex(*z) for z in setup.beta])
        for _ in range(100):
            x, y = random_state(rng, rep.dim, 1.2)
            for which in ("muR2", "muC2", "muHK2"):
                exact = grad(rep, which, alpha, beta, x, y)
                approx = finite_difference(
                    lambda a, b: energy(rep, which, alpha, beta, a, b), x, y)
                err = np.linalg.norm(np.concatenate(approx)
                                     - np.concatenate(exact))
                scale = max(np.linalg.norm(np.concatenate(exact)), 1.0)
                fd_worst = max(fd_worst, err / scale)
            if is_torus:
                gx, gy = grad(rep, "muC2", alpha, beta, x, y)
                direct = float(np.sum(np.abs(gx) ** 2)
                               + np.sum(np.abs(gy) ** 2))
                closed = abelian_gradient_norm2(bmat, bvec, x, y)
                norm_worst = max(norm_worst,
                                 abs(direct - closed) / max(closed, 1e-30))
    assert fd_worst < 1e-5
    assert norm_worst < 1e-10
    print(f"ACCEPTANCE 5 PASS: finite differences rel {fd_worst:.2e} "
          f"(100 states x 3 energies x 5 reps), norm formula rel "
          f"{norm_worst:.2e}")


def test_criterion_6_flow_and_lojasiewicz():
    start = time.time()
    total = 0
    for weights, beta in ENSEMBLE_SETUPS:
        setup = new_setup(weights, beta=beta)
        records = run_ensemble(setup, 32, derived_seed("acc6", weights))
        assert len(records) == 32
        for rec in records:
            assert rec["status"] == "Converged"
            assert rec["J"] is not None, rec
            level = float(critical_levels(setup)[rec["J"]])
            assert abs(rec["f_limit"] - level) < 1e-6
            assert rec["k_hat"] is not None and rec["k_hat"] > 0
            assert rec["arclength"] <= 1.5 * rec["bound"]
        total += len(records)
    [traj] = descend(lambda s: (s[:, 0] ** 4, 4 * s ** 3),
                     [[1.0]], grad_tol=1e-10, h0=1e-3, max_time=1e12)
    report = lojasiewicz_report(traj, f_c=0.0, decades=3.0)
    assert abs(report["fitted_exponent"] - 0.75) < 0.02
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 6 PASS: {total} runs converged and classified, "
          f"decay bounds hold, toy exponent {report['fitted_exponent']:.4f}, "
          f"{elapsed:.1f}s")


def test_criterion_7_cross_terms():
    worst = 0.0
    for weights in (((1,), (1,)), ((1, 0), (0, 1), (1, 1))):
        rep, alpha, _ = torus_rep(sample_generic(new_setup(weights),
                                                 derived_seed("acc7", weights)))
        stats = cross_term_stats(rep, alpha, 5000,
                                 derived_seed("acc7-states", weights))
        assert stats["abelian"] is True
        worst = max(worst, max(p["max_ratio"] for p in stats["pairs"].values()))
    assert worst < 1e-10
    rep = su2_irrep(2)
    stats = cross_term_stats(rep, np.array([0.2, -0.1, 0.3]), 2000, 77)
    out = Path(tempfile.gettempdir()) / "hypertoric_su2_crossterm.json"
    out.write_text(json.dumps(stats, indent=2) + "\n")
    assert stats["abelian"] is False
    print(f"ACCEPTANCE 7 PASS: abelian max ratio {worst:.2e} over 10^4 "
          f"states; nonabelian statistics written to {out}")


def test_criterion_8_determinism(tmp_path):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(
        {"weights": [[1], [1], [1]], "alpha": ["1"], "beta": [["3", "0"]]}))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "hypertoric", *args],
                              capture_output=True)

    first = run("analyze", str(path))
    second = run("analyze", str(path))
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stdout
    flow_a = run("flow", str(path), "--trials", "4", "--seed", "3")
    flow_b = run("flow", str(path), "--trials", "4", "--seed", "3")
    assert flow_a.returncode == 0
    assert flow_a.stdout == flow_b.stdout and flow_a.stdout
    print("ACCEPTANCE 8 PASS: repeated analyze and flow runs byte-identical")


def test_criterion_9_stratum_starts_reach_their_flat():
    starts = 0
    for weights in STRATUM_SETUPS:
        setup = sample_generic(new_setup(weights), derived_seed("acc9", weights))
        starts += check_stratum_starts(setup, derived_seed("acc9-starts", weights))
    print(f"ACCEPTANCE 9 PASS: {starts} stratum starts on {len(STRATUM_SETUPS)} "
          "setups reach support J at |beta_J|^2 (muC2) and "
          "1/4 |alpha_J|^2 + |beta_J|^2 (muHK2)")
