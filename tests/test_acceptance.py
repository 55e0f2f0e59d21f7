"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines as they are produced.
"""

import json
import math
import time

import mpmath as mp
import numpy as np

import specrec as sr
from specrec.cli import main
from _util import (diagonal_operator, exp_weight_integral,
                   fixed_point_from_random_start, rel_err, ulp_close)

mp.mp.dps = 40

B1 = sr.WeightFunction.constant(1.0)
SPEC = sr.FractionalNormSpec(0.25, 0.0)

# frozen 40-digit oracles
ONE_MINUS_E_INV = 0.6321205588285577
TWO_MINUS_E_INV = 1.6321205588285577


def _criterion(n, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n:02d}] {status}: {desc}  {detail}".rstrip())
    assert ok, f"criterion {n} failed: {desc} {detail}"


def test_criterion_01_inverse_diagonal_closed_form():
    """Diagonal inverse matches lam/(exp(T*lam)-1), 1/T at lam = 0."""
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        T = float(rng.uniform(0.05, 5.0))
        lams = np.sort(rng.uniform(-50.0, 0.0, size=9))[::-1]
        lams = np.concatenate([[0.0], lams])  # keep the lam = 0 branch covered
        op = diagonal_operator(lams)
        mus = 1.0 / sr.mode_weights(op, 0.0, B1, T).betas
        for lam, mu in zip(lams, mus):
            if lam == 0.0:
                want = 1.0 / mp.mpf(T)
            else:
                want = mp.mpf(lam) / mp.expm1(mp.mpf(T) * mp.mpf(lam))
            worst = max(worst, rel_err(mu, float(want)))
    elapsed = time.perf_counter() - start
    _criterion(1, "inverse diagonal matches the closed form",
               worst <= 1e-12 and elapsed < 1.0,
               f"(200 samples, worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_linear_round_trip():
    """Heat operator round trip: observed data, then exact data."""
    start = time.perf_counter()
    op = sr.build_second_order(16, 1.0, 0.0, "dirichlet")
    u0 = np.zeros(16)
    u0[0] = 1.0
    fine = sr.make_graded_grid(1.0, 4096)
    M_obs = sr.observe(sr.forward_solve(op, u0, sr.Zero(), fine), 0.0, B1)
    grid = sr.make_graded_grid(1.0, 1024)
    rep = sr.picard_recover(op, sr.ConditionE(0.0, B1, M_obs), sr.Zero(),
                            grid, SPEC)
    err_obs = float(np.linalg.norm(rep.u0_recovered - u0))

    M_exact = np.zeros(16)
    M_exact[0] = ONE_MINUS_E_INV  # int_0^1 e^{-t} dt at 40 digits
    rep2 = sr.picard_recover(op, sr.ConditionE(0.0, B1, M_exact), sr.Zero(),
                             grid, SPEC)
    err_exact = float(np.linalg.norm(rep2.u0_recovered - u0))
    elapsed = time.perf_counter() - start
    _criterion(2, "linear round trip at observation grid 4096",
               err_obs <= 1e-6 and err_exact <= 1e-12 and elapsed < 1.0,
               f"(observed {err_obs:.2e}, exact-data {err_exact:.2e}, "
               f"{elapsed:.2f}s)")


def test_criterion_03_three_reductions_agree():
    """All three couplings reproduce the hand-derived scalar initial state."""
    op = diagonal_operator([-1.0])
    grid = sr.make_graded_grid(1.0, 32)
    cases = [
        ("E", sr.ConditionE(0.0, B1, np.array([ONE_MINUS_E_INV]))),
        ("E100", sr.ConditionE100(1.0, np.array([ONE_MINUS_E_INV]))),
        ("E200", sr.ConditionE200(B1, np.array([TWO_MINUS_E_INV]))),
    ]
    worst = 0.0
    for _, cond in cases:
        rep = sr.picard_recover(op, cond, sr.Zero(), grid, SPEC)
        worst = max(worst, abs(rep.u0_recovered[0] - 1.0))
    _criterion(3, "three problem reductions agree on the scalar oracle",
               worst <= 1e-10, f"(worst abs err {worst:.2e})")


def test_criterion_04_nonlinear_round_trip():
    """Superlinear forcing: convergent recovery of second order."""
    start = time.perf_counter()
    op = sr.build_second_order(16, 1.0, 0.0, "dirichlet")
    f = sr.PowerLaw(0.25, 1.0)
    rng = np.random.default_rng(44)
    u0 = rng.standard_normal(16)
    u0 *= 0.01 / np.linalg.norm(u0)
    errors = []
    ratios_ok = True
    for n in (64, 128, 256):
        fine = sr.make_graded_grid(0.5, 4 * n)
        M = sr.observe(sr.forward_solve(op, u0, f, fine), 0.0, B1)
        grid = sr.make_graded_grid(0.5, n)
        rep = sr.picard_recover(op, sr.ConditionE(0.0, B1, M), f, grid, SPEC)
        ratios_ok = ratios_ok and rep.converged \
            and all(r < 1.0 for r in rep.contraction_ratios)
        errors.append(float(np.linalg.norm(rep.u0_recovered - u0)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    monotone = errors[0] > errors[1] > errors[2]
    mean_order = sum(orders) / len(orders)
    elapsed = time.perf_counter() - start
    _criterion(4, "nonlinear round trip converges at order 2",
               ratios_ok and errors[-1] <= 1e-4 and monotone
               and mean_order >= 1.7 and elapsed < 10.0,
               f"(errors {errors[0]:.2e} -> {errors[1]:.2e} -> "
               f"{errors[2]:.2e}, order {mean_order:.2f}, {elapsed:.1f}s)")


def test_criterion_05_smallness_certificate():
    """Below the certified threshold the iteration always contracts."""
    rng = np.random.default_rng(20260810)
    counterexamples = 0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        op = sr.build_second_order(n, float(rng.uniform(0.5, 2.0)),
                                   float(rng.uniform(0.0, 1.0)), "dirichlet")
        T = float(rng.uniform(0.3, 1.5))
        ell = float(rng.choice([1.0, 2.0]))
        theta = 0.3 / (ell + 1.0)
        f = sr.PowerLaw(float(rng.uniform(0.2, 1.0)), ell)
        spec = sr.FractionalNormSpec(theta, 0.0)
        b = sr.WeightFunction.constant(float(rng.uniform(0.5, 2.0)))
        a = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
        rng.integers(10**6)  # keeps the instances' draws in order
        c_bar = sr.check_growth_condition(f, op, spec)
        est = sr.theoretical_threshold(
            op, sr.GrowthExponents(0.0, theta, theta * (ell + 1.0), ell),
            c_bar, T, spec)
        w = sr.mode_weights(op, a, b, T)
        z = rng.standard_normal(n)
        z *= 0.9 * est.m_T / np.linalg.norm(z)
        cond = sr.ConditionE(a, b, w.betas * z)
        rep = sr.picard_recover(op, cond, f, sr.make_graded_grid(T, 48), spec)
        if rep.sigma_T0_norm <= est.m_T:
            checked += 1
            if not (rep.converged
                    and all(r < 1.0 for r in rep.contraction_ratios)):
                counterexamples += 1
    _criterion(5, "smallness certificate has zero counterexamples",
               counterexamples == 0 and checked == 50,
               f"({checked} certified instances, {counterexamples} failures)")


def test_criterion_06_spectral_violation_detection(tmp_path):
    """Constructed kernel elements are flagged at mode 1, CLI exits 2."""
    op = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
    lam1 = float(op.eigenvalues[0])

    # initial-final coupling with b placed exactly on the first root
    b100 = math.exp(-lam1 * 1.0)
    grid = sr.make_graded_grid(1.0, 16)
    rep100 = sr.check_spectral_condition(
        op, sr.ConditionE100(b100, np.zeros(4)), grid)
    ok = (not rep100.ok and rep100.failing_modes == (1,)
          and rep100.margins[0] <= 1e-8)

    # time-average coupling with a tuned against the quadrature of b
    bpoly = sr.WeightFunction.poly([1.0, 0.5])
    a = -math.exp(-lam1 * 1.0) * exp_weight_integral(lam1, 1.0, bpoly)
    repE = sr.check_spectral_condition(
        op, sr.ConditionE(a, bpoly, np.zeros(4)), grid)
    ok = ok and (not repE.ok and 1 in repE.failing_modes
                 and repE.margins[0] <= 1e-8)

    # same two violations through the CLI
    base = {
        "operator": {"family": "dirichlet2", "modes": 4},
        "u0": {"type": "mode", "index": 1},
        "grid": {"T": 1.0, "n": 16},
    }
    cfg100 = dict(base, condition={"problem": "E100", "b": b100,
                                   "M": {"type": "from-u0"}})
    cfgE = dict(base, condition={"problem": "E", "a": a,
                                 "b": {"type": "poly", "coeffs": [1.0, 0.5]},
                                 "M": {"type": "from-u0"}})
    codes = []
    for name, cfg in (("e100.json", cfg100), ("e.json", cfgE)):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        codes.append(main(["check-spectral", "--config", str(path),
                           "--out", str(tmp_path / (name + ".csv")),
                           "--quiet"]))
    ok = ok and codes == [2, 2]
    _criterion(6, "constructed spectral violations flagged, CLI exit 2",
               ok, f"(margins {rep100.margins[0]:.1e}, {repE.margins[0]:.1e}, "
                   f"exit codes {codes})")


def test_criterion_07_forward_exactness_and_order():
    """Zero forcing hits the semigroup to 4 ulp; power law is order 2."""
    op = sr.build_second_order(12, 1.0, 0.0, "dirichlet")
    grid = sr.make_graded_grid(1.0, 256, 2.0)
    rng = np.random.default_rng(7)
    u0 = rng.standard_normal(12)
    u = sr.forward_solve(op, u0, sr.Zero(), grid)
    want = np.exp(np.outer(grid.nodes, op.eigenvalues)) * u0
    exact_ok = ulp_close(u.coeffs, want, 4)

    f = sr.PowerLaw(0.5, 1.0)
    small = np.zeros(12)
    small[0], small[1] = 0.05, 0.02

    def solve(n):
        return sr.forward_solve(op, small, f, sr.make_graded_grid(0.5, n))

    fine = solve(512).coeffs[::2]
    finer = solve(1024).coeffs[::4]
    reference = finer + (finer - fine) / 3.0
    errs = []
    for n in (64, 128):
        coeffs = solve(n).coeffs
        errs.append(np.max(np.linalg.norm(
            coeffs - reference[:: 256 // n], axis=1)))
    ratio = errs[0] / errs[1]
    _criterion(7, "forward solver: exact semigroup, order-2 nonlinear",
               exact_ok and 3.5 <= ratio <= 4.5,
               f"(doubling ratio {ratio:.2f})")


def test_criterion_08_admissibility_and_growth():
    """The certified growth constant bound."""
    scalar = diagonal_operator([-1.0])
    c_bar = sr.check_growth_condition(sr.PowerLaw(1.0, 1.0), scalar,
                                      sr.FractionalNormSpec(0.0, 0.0))
    growth_ok = c_bar <= 1.0 + 1e-9
    _criterion(8, "growth constant bound", growth_ok,
               f"(c_bar {c_bar:.6f})")


def test_criterion_09_quadrature_stability():
    """Near-zero exponents agree with the Taylor expansion to 1e-13."""
    worst = 0.0
    for z in (1e-4, 1e-6, 1e-8, 1e-10):
        for sign in (1.0, -1.0):
            zz = sign * z
            taylor = 1.0 * (1 + zz / 2 + zz**2 / 6 + zz**3 / 24)
            got = exp_weight_integral(zz, 1.0, B1)
            worst = max(worst, rel_err(got, taylor))
    _criterion(9, "exponential-weight quadrature stable near lam = 0",
               worst <= 1e-13, f"(worst rel err {worst:.2e})")


def test_criterion_10_uniqueness_of_recovery():
    """The substitution map iterated from a random start lands on the
    recovery's fixed point."""
    rng = np.random.default_rng(1011)
    # the starts take their own stream, so the 20 problems stay as drawn
    starts = np.random.default_rng(1012)
    tol = 1e-10
    worst, nearest = 0.0, math.inf
    for _ in range(20):
        n = int(rng.integers(4, 10))
        op = sr.build_second_order(n, float(rng.uniform(0.5, 2.0)),
                                   float(rng.uniform(0.0, 0.5)), "dirichlet")
        T = float(rng.uniform(0.4, 1.2))
        f = sr.PowerLaw(float(rng.uniform(0.2, 0.8)), 1.0)
        w = sr.mode_weights(op, 0.0, B1, T)
        z = rng.standard_normal(n)
        z *= 0.05 / np.linalg.norm(z)
        cond = sr.ConditionE(0.0, B1, w.betas * z)
        grid = sr.make_graded_grid(T, 48)
        report = sr.picard_recover(op, cond, f, grid, SPEC, tol=tol)
        assert report.converged
        start, other = fixed_point_from_random_start(op, cond, f, grid,
                                                     starts, tol)
        nearest = min(nearest, float(np.max(np.linalg.norm(
            start - report.trajectory.coeffs, axis=1))))
        dist = float(np.max(np.linalg.norm(
            other - report.trajectory.coeffs, axis=1)))
        worst = max(worst, dist)
    _criterion(10, "recovery independent of the Picard start",
               worst <= 2 * tol and nearest > 1e3 * tol,
               f"(nearest start {nearest:.2e}, "
               f"worst sup distance {worst:.2e})")
