"""Recovery operators, spectral checks, Picard driver, certified thresholds."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrec as sr
from specrec.nonlinearity import Nonlinearity
from specrec.harness import resolve_M
from specrec.recover import _denominators
from specrec.spectral import _row_norms
from _util import exp_weight_integral, rel_err

B1 = sr.ConstantWeight(1.0)
ONE_POLY = sr.PolynomialWeight([1.0])
SPEC = sr.FractionalNormSpec(0.25, 0.0)

# frozen 40-digit oracles
ONE_MINUS_E_INV = 0.6321205588285577
TWO_MINUS_E_INV = 1.6321205588285577


def _traj(grid, values):
    return sr.Trajectory(grid, np.asarray(values, dtype=float))


class TestConditions:
    def test_e_requires_weight_at_origin(self):
        with pytest.raises(sr.AdmissibilityError):
            sr.ConditionE(0.0, sr.PolynomialWeight([0.0, 1.0]), [1.0])

    def test_e100_requires_nonzero(self):
        with pytest.raises(sr.AdmissibilityError):
            sr.ConditionE100(0.0, [1.0])

    def test_e200_requires_nonzero_weight(self):
        with pytest.raises(sr.AdmissibilityError):
            sr.ConditionE200(sr.ConstantWeight(0.0), [1.0])

    @pytest.mark.parametrize("build, name", [
        (lambda x: sr.ConditionE(x, B1, [1.0, 1.0]), "a"),
        (lambda x: sr.ConditionE100(x, [1.0, 1.0]), "b"),
    ], ids=["E-a", "E100-b"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_scalar_named(self, build, name, bad):
        with pytest.raises(sr.InvalidParameterError, match=f"^{name} must be finite"):
            build(bad)


def _with_bad(values, i, bad):
    out = np.array(values, dtype=float)
    out[i % out.size] = bad
    return out


# each builds one input with a non-finite value at position i
_NONFINITE_TARGETS = {
    "M": lambda bad, i: sr.ConditionE(0.0, B1, _with_bad([0.1, 0.2, 0.3], i, bad)),
    "u0": lambda bad, i: sr.forward_solve(
        sr.diagonal_operator([-1.0, -2.0, -3.0]),
        _with_bad([0.1, 0.2, 0.3], i, bad), sr.Zero(),
        sr.make_graded_grid(1.0, 4)),
    "table": lambda bad, i: sr.TabulatedWeight(
        *_with_bad([0.0, 0.5, 1.0, 1.0, 2.0, 3.0], i, bad).reshape(2, 3)),
    "polynomial": lambda bad, i: sr.PolynomialWeight(
        _with_bad([1.0, -0.5, 0.25], i, bad)),
    "constant": lambda bad, i: sr.ConstantWeight(bad),
    "E.a": lambda bad, i: sr.ConditionE(bad, B1, [0.1, 0.2, 0.3]),
    "E100.b": lambda bad, i: sr.ConditionE100(bad, [0.1, 0.2, 0.3]),
}


@settings(deadline=None, max_examples=100)
@given(target=st.sampled_from(sorted(_NONFINITE_TARGETS)),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       i=st.integers(0, 5))
def test_nonfinite_input_rejected(target, bad, i):
    with pytest.raises(sr.InvalidParameterError):
        _NONFINITE_TARGETS[target](bad, i)


def _psi_oracle(lam, nodes, g, a, b, dps=25):
    """a v(T) + int_0^T b(t) v(t) dt at dps digits for v(t) =
    int_0^t e^{(t-s) lam} g(s) ds, lam != 0 and g linear between the nodes:
    v is exact on each step, and mp.quad integrates b v between consecutive
    nodes and table knots."""
    import mpmath as mp
    with mp.workdps(dps):
        lam = mp.mpf(lam)
        t = [mp.mpf(x) for x in nodes]
        knots = set(t)
        if isinstance(b, sr.TabulatedWeight):
            bt = [mp.mpf(x) for x in b.times]
            bv = [mp.mpf(x) for x in b.values]
            knots |= set(bt[1:-1])

            def bfun(s):
                i = max(j for j in range(len(bt) - 1) if bt[j] <= s)
                slope = (bv[i + 1] - bv[i]) / (bt[i + 1] - bt[i])
                return bv[i] + slope * (s - bt[i])
        else:
            coeffs = (b.coeffs if isinstance(b, sr.PolynomialWeight)
                      else [b.value])

            def bfun(s):
                return mp.polyval([mp.mpf(c) for c in coeffs[::-1]], s)

        # v on step k from v(t_k), with E1 = int_0^tau e^{u lam} du and
        # E2 = int_0^tau u e^{u lam} du = (tau e^{tau lam} - E1) / lam; E2
        # cancels about log10(1 / |tau lam|) digits, 9 at lam = -1e-9
        steps = []
        v_k = mp.mpf(0)
        for k in range(len(t) - 1):
            slope = (mp.mpf(g[k + 1]) - mp.mpf(g[k])) / (t[k + 1] - t[k])

            def v(s, t0=t[k], v0=v_k, g0=mp.mpf(g[k]), slope=slope):
                tau = s - t0
                em = mp.expm1(tau * lam)
                E1 = em / lam
                E2 = (tau * (em + 1) - E1) / lam
                return (em + 1) * v0 + (g0 + slope * tau) * E1 - slope * E2
            steps.append(v)
            v_k = v(t[k + 1])
        pts = sorted(knots)
        total = a * v_k
        for lo, hi in zip(pts[:-1], pts[1:]):
            v = steps[max(k for k in range(len(t) - 1) if t[k] <= lo)]
            total += mp.quad(lambda s: bfun(s) * v(s), [lo, hi])
        return float(total)


class TestApplyPsiE:
    def test_zero_forcing(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 16)
        out = sr.apply_psi_E(1.0, B1, 1.0, sr.Trajectory.zeros(grid, 1), op)
        assert np.all(out == 0.0)

    def test_final_time_propagation_only(self):
        # a = 1, b = 0, lam = 0, g = 1: int_0^1 ds = 1
        op = sr.diagonal_operator([0.0])
        grid = sr.make_graded_grid(1.0, 16)
        g = _traj(grid, np.ones((17, 1)))
        out = sr.apply_psi_E(1.0, sr.ConstantWeight(0.0), 1.0, g, op)
        assert abs(out[0] - 1.0) < 1e-14

    def test_tail_average_only(self):
        # a = 0, b = 1, lam = 0, g = 1: int_0^1 (1 - s) ds = 0.5
        op = sr.diagonal_operator([0.0])
        grid = sr.make_graded_grid(1.0, 16)
        g = _traj(grid, np.ones((17, 1)))
        out = sr.apply_psi_E(0.0, B1, 1.0, g, op)
        assert abs(out[0] - 0.5) < 1e-14

    @pytest.mark.parametrize("b", [B1, sr.PolynomialWeight([1.0, -0.5, 0.25])],
                             ids=["constant", "poly"])
    def test_against_double_integral_oracle(self, b):
        # full operator on linear-in-time forcing, oracle by 30-digit
        # double quadrature of a*e^{(T-s)lam} g(s) + b-part tail
        import mpmath as mp
        mp.mp.dps = 30
        lam, T, a = -2.0, 1.0, 0.5
        op = sr.diagonal_operator([lam])
        grid = sr.make_graded_grid(T, 24, 1.3)
        g = _traj(grid, (0.3 + 0.4 * grid.nodes)[:, None])
        out = sr.apply_psi_E(a, b, T, g, op)

        def gfun(s):
            return mp.mpf("0.3") + mp.mpf("0.4") * s

        coeffs = b.coeffs if isinstance(b, sr.PolynomialWeight) else [b.value]

        def bfun(t):
            return sum(mp.mpf(c) * t**k for k, c in enumerate(coeffs))

        term_a = mp.quad(lambda s: mp.exp(lam * (T - s)) * gfun(s), [0, T])
        term_b = mp.quad(lambda s: gfun(s) * mp.quad(
            lambda t: bfun(t) * mp.exp(lam * (t - s)), [s, T]), [0, T])
        want = float(a * term_a + term_b)
        assert abs(out[0] - want) < 1e-12

    @pytest.mark.parametrize(
        "n, b", [(64, B1), (256, B1), (1024, B1),
                 (64, ONE_POLY), (256, ONE_POLY), (1024, ONE_POLY)],
        ids=["64", "256", "1024", "poly-64", "poly-256", "poly-1024"])
    def test_constant_weight_exact_on_stiff_modes(self, n, b):
        # pinned4 reaches lam = -32**4, so the tail factor has a boundary
        # layer far thinner than a step; b = 1 as a constant and as a
        # degree-0 polynomial; for g = alpha + beta*s the operator
        # is a*(alpha T phi1 + beta T^2 phi2) + alpha T^2 phi2 + beta T^3 phi3
        # at z = T*lam, evaluated here at 50 digits
        import mpmath as mp
        op = sr.build_fourth_order(32, 1.0)
        T = 1.0
        grid = sr.make_graded_grid(T, n)

        def phi(k, lam):
            with mp.workdps(50):
                z = mp.mpf(T) * mp.mpf(lam)
                return (mp.exp(z) - sum(z**m / mp.factorial(m)
                                        for m in range(k))) / z**k

        ones = _traj(grid, np.ones((n + 1, 32)))
        got = sr.apply_psi_E(0.0, b, T, ones, op)
        want = [float(T**2 * phi(2, lam)) for lam in op.eigenvalues]
        assert rel_err(got, want) <= 1e-12

        alpha, beta, a = 0.3, 0.4, 0.5
        line = _traj(grid, np.repeat((alpha + beta * grid.nodes)[:, None],
                                     32, axis=1))
        got = sr.apply_psi_E(a, b, T, line, op)
        want = [float(a * (alpha * T * phi(1, lam) + beta * T**2 * phi(2, lam))
                      + alpha * T**2 * phi(2, lam) + beta * T**3 * phi(3, lam))
                for lam in op.eigenvalues]
        assert rel_err(got, want) <= 1e-12

    def test_exact_for_piecewise_polynomial_weights(self):
        # a table that changes sign, with knots between the nodes, one with
        # a knot one ulp past a node, a degree-2 polynomial and a constant,
        # with a = 0.3 and modes from stiff to growing
        grid = sr.make_graded_grid(1.0, 8, 1.5)
        lams = [0.7, -1e-9, -1.0, -1e3, -1.05e6]
        op = sr.diagonal_operator(lams)
        weights = {
            "table": sr.TabulatedWeight([0.0, 0.23, 0.61, 1.0],
                                        [1.0, -0.7, 0.4, 0.9]),
            "table-ulp": sr.TabulatedWeight(
                [0.0, np.nextafter(grid.nodes[3], 1.0), 1.0], [1.0, -0.5, 0.8]),
            "poly": sr.PolynomialWeight([1.0, -0.5, 0.25]),
            "constant": sr.ConstantWeight(1.3),
        }
        g = 0.3 + 0.4 * grid.nodes + 0.2 * np.sin(7.0 * grid.nodes)
        forcing = _traj(grid, np.repeat(g[:, None], len(lams), axis=1))
        errors = {}
        for kind, b in weights.items():
            got = sr.apply_psi_E(0.3, b, 1.0, forcing, op)
            assert np.all(np.isfinite(got)), kind
            errors[kind] = rel_err(got, [_psi_oracle(lam, grid.nodes, g, 0.3, b)
                                         for lam in lams])
        assert max(errors.values()) <= 1e-12, errors

    def test_stiff_mode_stability(self):
        # the a-term has a boundary layer at s = T; the convolution
        # recurrence must capture it even when |lam| * h >> 1
        lam = -4096.0
        op = sr.diagonal_operator([lam])
        grid = sr.make_graded_grid(1.0, 32)
        g = _traj(grid, np.ones((33, 1)))
        out = sr.apply_psi_E(1.0, sr.ConstantWeight(0.0), 1.0, g, op)
        want = (1.0 - math.exp(lam)) / (-lam)  # int_0^T e^{(T-s)lam} ds
        assert rel_err(out[0], want) < 1e-12


    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("problem", ["E", "E100", "E200"])
    def test_terminal_term_is_the_convolution_at_T(self, problem, seed):
        # psi splits into a times the convolution at T and the psi of the
        # same b with a = 0; a table with breakpoints inside steps, modes
        # from growing to stiff, a random forcing linear between nodes
        grid = sr.make_graded_grid(1.0, 16, 1.5)
        op = sr.diagonal_operator([0.7, -1e-9, -1.0, -40.0, -1e3, -1.05e6])
        table = sr.TabulatedWeight([0.0, 0.23, 0.61, 1.0],
                                   [1.0, -0.7, 0.4, 0.9])
        M = np.zeros(op.n_modes)
        cond = {"E": sr.ConditionE(0.3, table, M),
                "E100": sr.ConditionE100(-0.8, M),
                "E200": sr.ConditionE200(table, M)}[problem]
        _, a, b = cond.coupling
        rng = np.random.default_rng(seed)
        g = _traj(grid, rng.standard_normal((grid.nodes.size, op.n_modes)))
        got = sr.apply_psi_E(a, b, 1.0, g, op)
        want = (a * sr.duhamel_convolve(op, g).coeffs[-1]
                + sr.apply_psi_E(0.0, b, 1.0, g, op))
        assert rel_err(got, want) <= 1e-13


def _recover_linear(op, cond, T=1.0, n=8):
    """u(0) recovered for zero forcing, where it is M / d per mode."""
    spec = sr.FractionalNormSpec(SPEC.theta, sr.default_shift(op))
    report = sr.picard_recover(op, cond, sr.Zero(),
                               sr.make_graded_grid(T, n), spec)
    assert report.converged
    return report.u0_recovered


def _initial_value(op, cond, T, g):
    """The initial-value map (M - psi(g)) / d of a condition for a forcing
    trajectory g."""
    denoms, _ = _denominators(op, cond, T)
    _, a, b = cond.coupling
    return (cond.M - sr.apply_psi_E(a, b, T, g, op)) / denoms


class TestSigmaE:
    """The initial-value map of problem E, u(0) = (M - psi(g)) / beta."""

    def test_diagonal_inversion(self):
        op = sr.diagonal_operator([-1.0, -4.0, -9.0])
        w = sr.mode_weights(op, 0.3, B1, 1.0)
        z = np.array([1.0, -2.0, 0.5])
        got = _recover_linear(op, sr.ConditionE(0.3, B1, w.betas * z))
        assert np.allclose(got, z, rtol=1e-15, atol=0)

    def test_linear_scalar_oracle(self):
        op = sr.diagonal_operator([-1.0])
        got = _recover_linear(op, sr.ConditionE(0.0, B1, [ONE_MINUS_E_INV]))
        assert abs(got[0] - 1.0) < 1e-14

    def test_zero_data(self):
        op = sr.diagonal_operator([-1.0])
        got = _recover_linear(op, sr.ConditionE(0.0, B1, [0.0]))
        assert got[0] == 0.0

    def test_scaling_linearity(self):
        op = sr.build_second_order(5, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 12)
        rng = np.random.default_rng(2)
        M = rng.standard_normal(5)
        g = rng.standard_normal((13, 5))
        c1 = 3.7
        a_side = _initial_value(op, sr.ConditionE(0.2, B1, c1 * M), 1.0,
                                _traj(grid, c1 * g))
        b_side = c1 * _initial_value(op, sr.ConditionE(0.2, B1, M), 1.0,
                                     _traj(grid, g))
        scale = np.max(np.abs(b_side))
        assert np.max(np.abs(a_side - b_side)) <= 4 * np.spacing(scale)

    def test_ill_posed_rejected(self):
        op = sr.diagonal_operator([-1.0])
        a = -math.exp(1.0) * exp_weight_integral(-1.0, 1.0, B1)
        with pytest.raises(sr.IllPosedModeError):
            _recover_linear(op, sr.ConditionE(a, B1, [1.0]))


class TestSigmaE100:
    """The initial-value map of problem E100,
    u(0) = (M + b int_0^T e^{(T-s)lam} g ds) / (1 - b e^{T lam})."""

    def test_linear_scalar_oracle(self):
        op = sr.diagonal_operator([-1.0])
        got = _recover_linear(op, sr.ConditionE100(1.0, [ONE_MINUS_E_INV]))
        assert abs(got[0] - 1.0) < 1e-14

    def test_zero_data(self):
        op = sr.diagonal_operator([-1.0])
        got = _recover_linear(op, sr.ConditionE100(1.0, [0.0]))
        assert got[0] == 0.0

    def test_constructed_root_rejected(self):
        op = sr.diagonal_operator([-1.0])
        with pytest.raises(sr.IllPosedModeError) as err:
            _recover_linear(op, sr.ConditionE100(math.e, [1.0]))
        assert err.value.modes == [1]

    def test_forcing_term(self):
        # b * int_0^T e^{(T-s)lam} g ds enters with a plus sign
        import mpmath as mp
        mp.mp.dps = 30
        lam, T, b = -1.5, 1.0, 0.8
        op = sr.diagonal_operator([lam])
        grid = sr.make_graded_grid(T, 100)
        g = _traj(grid, np.ones((101, 1)))
        got = _initial_value(op, sr.ConditionE100(b, [0.0]), T, g)
        z = float(mp.quad(lambda s: mp.exp(lam * (T - s)), [0, T]))
        want = b * z / (1.0 - b * math.exp(lam * T))
        assert rel_err(got[0], want) < 1e-13


class TestSigmaE200:
    """The initial-value map of problem E200, u(0) = (M - psi0) / (1 + phi0)."""

    def test_linear_scalar_oracle(self):
        # b = 1, lam = 0, T = 1: phi0 = 1 so u0 = M / 2
        op = sr.diagonal_operator([0.0])
        got = _recover_linear(op, sr.ConditionE200(B1, [2.0]))
        assert got[0] == 1.0

    def test_zero_data(self):
        op = sr.diagonal_operator([0.0])
        got = _recover_linear(op, sr.ConditionE200(B1, [0.0]))
        assert got[0] == 0.0

    def test_nonnegative_weight_never_ill_posed(self):
        # denominators 1 + phi0 >= 1 for b >= 0 and dissipative modes
        op = sr.build_second_order(10, 1.0, 0.0, "dirichlet")
        cond = sr.ConditionE200(B1, np.ones(10))
        got = _recover_linear(op, cond, T=2.0)
        assert np.all(np.isfinite(got))
        report = sr.check_spectral_condition(op, cond, 2.0)
        assert report.ok
        assert np.all(report.margins >= 1.0)


class TestCheckSpectralCondition:
    def test_e_sufficiency(self):
        # nonnegative weight with positive mass, a >= 0, dissipative modes
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        cond = sr.ConditionE(0.0, B1, np.zeros(8))
        report = sr.check_spectral_condition(op, cond, 1.0)
        assert report.ok
        assert np.all(report.margins > 0)

    def test_e100_sufficiency(self):
        # b <= 1 with strictly negative spectrum
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        cond = sr.ConditionE100(1.0, np.zeros(8))
        report = sr.check_spectral_condition(op, cond, 1.0)
        assert report.ok

    def test_e100_constructed_root(self):
        op = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
        b = math.exp(-op.eigenvalues[0] * 1.0)
        cond = sr.ConditionE100(b, np.zeros(4))
        report = sr.check_spectral_condition(op, cond, 1.0)
        assert not report.ok
        assert report.failing_modes == (1,)
        assert report.margins[0] <= 1e-8

    def test_e_constructed_kernel(self):
        op = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
        b = sr.PolynomialWeight([1.0, 0.5])
        lam1 = op.eigenvalues[0]
        a = -math.exp(-lam1 * 1.0) * exp_weight_integral(lam1, 1.0, b)
        cond = sr.ConditionE(a, b, np.zeros(4))
        report = sr.check_spectral_condition(op, cond, 1.0)
        assert not report.ok
        assert 1 in report.failing_modes
        assert report.margins[0] <= 1e-8


class TestPicardLinear:
    def test_two_iterations_for_zero_forcing(self):
        op = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 32)
        cond = sr.ConditionE(0.0, B1, np.array([0.5, 0.1, 0.0, -0.2]))
        report = sr.picard_recover(op, cond, sr.Zero(), grid, SPEC)
        assert report.converged
        assert report.iterations == 2
        assert report.residual_weighted[-1] == 0.0
        assert len(report.contraction_ratios) == report.iterations - 1

    def test_matches_diagonal_closed_form(self):
        # oracle: u0_j = M_j * lam_j/(e^{T lam_j} - 1) for a=0, b=1
        op = sr.build_second_order(6, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 16)
        rng = np.random.default_rng(4)
        M = rng.standard_normal(6)
        cond = sr.ConditionE(0.0, B1, M)
        report = sr.picard_recover(op, cond, sr.Zero(), grid, SPEC)
        lam = op.eigenvalues
        want = M * lam / np.expm1(lam)
        assert rel_err(report.u0_recovered, want) < 1e-12

    def test_scalar_recovery(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 16)
        cond = sr.ConditionE(0.0, B1, np.array([ONE_MINUS_E_INV]))
        report = sr.picard_recover(op, cond, sr.Zero(), grid, SPEC)
        assert abs(report.u0_recovered[0] - 1.0) <= 1e-10

    def test_mode_decoupling(self):
        op = sr.build_second_order(5, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 16)
        M = np.zeros(5)
        base = sr.picard_recover(op, sr.ConditionE(0.0, B1, M), sr.Zero(),
                                 grid, SPEC).u0_recovered
        M2 = M.copy()
        M2[2] = 1.0
        bumped = sr.picard_recover(op, sr.ConditionE(0.0, B1, M2), sr.Zero(),
                                   grid, SPEC).u0_recovered
        delta = bumped - base
        assert delta[2] != 0.0
        assert np.all(delta[[0, 1, 3, 4]] == 0.0)

    def test_sigma0_norm_reported(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 16)
        cond = sr.ConditionE(0.0, B1, np.array([ONE_MINUS_E_INV]))
        report = sr.picard_recover(op, cond, sr.Zero(), grid, SPEC)
        assert report.sigma_T0_norm == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_nonfinite_tol(self, tol):
        # an infinite tol would report convergence after one sweep
        op = sr.diagonal_operator([-1.0])
        cond = sr.ConditionE(0.0, B1, np.array([ONE_MINUS_E_INV]))
        with pytest.raises(sr.InvalidParameterError):
            sr.picard_recover(op, cond, sr.Zero(), sr.make_graded_grid(1.0, 8),
                              SPEC, tol=tol)


    def test_large_finite_data_scales(self):
        # the norms of data at 1e160 square past the float range; the
        # recovery does not, and it is linear in M
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 16)
        base = sr.picard_recover(op, sr.ConditionE(0.0, B1, np.ones(8)),
                                 sr.Zero(), grid, SPEC)
        big = sr.picard_recover(op, sr.ConditionE(0.0, B1, np.full(8, 1e160)),
                                sr.Zero(), grid, SPEC)
        assert big.converged and not big.diverged
        assert big.iterations == base.iterations
        assert rel_err(big.sigma_T0_norm, 1e160 * base.sigma_T0_norm) <= 1e-14
        assert rel_err(big.u0_recovered, 1e160 * base.u0_recovered) <= 1e-14


class TestSweepResiduals:
    """Both residuals of a sweep come from one pass over the squared
    update; they match the row norms of the same update."""

    @staticmethod
    def _first_update(op, cond, f, spec):
        # one sweep from the zero start: the update is the iterate itself
        grid = sr.make_graded_grid(1.0, 32)
        report = sr.picard_recover(op, cond, f, grid, spec, max_iter=1)
        assert report.iterations == 1 and not report.diverged
        start = 0 if spec.theta == 0.0 else 1
        diff = report.trajectory.coeffs
        t_mu = grid.nodes[start:] ** spec.theta
        rw = np.max(t_mu * _row_norms(op, diff[start:], spec))
        rs = np.max(_row_norms(op, diff, sr.FractionalNormSpec(0.0, spec.delta0)))
        return report, rw, rs

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.6])
    def test_match_row_norms(self, theta):
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        spec = sr.FractionalNormSpec(theta, 0.0)
        M = np.random.default_rng(9).standard_normal(8) * 0.05
        report, rw, rs = self._first_update(
            op, sr.ConditionE(0.3, B1, M), sr.PowerLaw(0.5, 1.0), spec)
        assert rel_err(report.residual_weighted[0], rw) <= 1e-14
        assert rel_err(report.residual_sup[0], rs) <= 1e-14

    def test_match_row_norms_when_squares_overflow(self):
        # an update near 1e160 squares past the float range; the residuals
        # are taken from the rescaled row norms instead
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        spec = sr.FractionalNormSpec(0.25, 0.0)
        M = np.random.default_rng(9).standard_normal(8) * 1e160
        report, rw, rs = self._first_update(
            op, sr.ConditionE(0.3, B1, M), sr.Zero(), spec)
        assert math.isfinite(rw) and rs > 1e155
        assert rel_err(report.residual_weighted[0], rw) <= 1e-14
        assert rel_err(report.residual_sup[0], rs) <= 1e-14


class TestPicardNonlinear:
    def _setup(self, n=64, kappa=0.5, amp=0.05):
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, n)
        f = sr.PowerLaw(kappa, 1.0)
        rng = np.random.default_rng(8)
        z = rng.standard_normal(8)
        z *= amp / np.linalg.norm(z)
        w = sr.mode_weights(op, 0.0, B1, 1.0)
        M = w.betas * z
        return op, grid, f, sr.ConditionE(0.0, B1, M)

    def test_converges_with_contracting_ratios(self):
        op, grid, f, cond = self._setup()
        report = sr.picard_recover(op, cond, f, grid, SPEC)
        assert report.converged
        assert all(r < 1.0 for r in report.contraction_ratios)

    def test_fixed_point_of_initial_value_map(self):
        # the converged u0 is the affine map u0 = (M - psi(g)) / beta of the
        # forcing g of the final trajectory, cross-checked directly
        op, grid, f, cond = self._setup()
        report = sr.picard_recover(op, cond, f, grid, SPEC)
        assert report.converged
        g = f.eval_trajectory(report.trajectory, op)
        want = _initial_value(op, cond, grid.T, g)
        assert rel_err(report.u0_recovered, want) < 1e-10

    def test_no_convergence_reported_not_raised(self):
        op, grid, f, cond = self._setup(kappa=0.5, amp=0.05)
        report = sr.picard_recover(op, cond, f, grid, SPEC, tol=1e-10,
                                   max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    def test_divergence_flagged(self):
        op, grid, f, cond = self._setup(kappa=50.0, amp=20.0)
        report = sr.picard_recover(op, cond, f, grid, SPEC, max_iter=200)
        assert not report.converged

    def test_uniqueness_of_ball_fixed_point(self):
        op, grid, f, cond = self._setup()
        tol = 1e-10
        r0 = sr.picard_recover(op, cond, f, grid, SPEC, tol=tol)
        r1 = sr.picard_recover(op, cond, f, grid, SPEC, tol=tol,
                               initial="linear")
        assert r0.converged and r1.converged
        dist = np.max(np.linalg.norm(r0.trajectory.coeffs
                                     - r1.trajectory.coeffs, axis=1))
        assert dist <= 2 * tol

    def test_memory_kernel_recovery(self):
        op = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(0.5, 64)
        f = sr.MemoryKernel(0.5, -0.25, 1.0)
        w = sr.mode_weights(op, 0.0, B1, 0.5)
        z = np.array([0.05, -0.02, 0.01, 0.0])
        cond = sr.ConditionE(0.0, B1, w.betas * z)
        report = sr.picard_recover(op, cond, f, grid, SPEC)
        assert report.converged
        assert all(r < 1.0 for r in report.contraction_ratios)

    def test_tabulated_weight_recovery(self):
        op = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
        bt = sr.TabulatedWeight([0.0, 0.4, 1.0], [1.0, 1.5, 0.8])
        w = sr.mode_weights(op, 0.0, bt, 1.0)
        z = np.array([0.05, -0.02, 0.01, 0.0])
        cond = sr.ConditionE(0.0, bt, w.betas * z)
        grid = sr.make_graded_grid(1.0, 24)
        report = sr.picard_recover(op, cond, sr.PowerLaw(0.5, 1.0), grid, SPEC)
        assert report.converged
        assert all(r < 1.0 for r in report.contraction_ratios)

    @pytest.mark.parametrize("f", [sr.PowerLaw(0.5, 1.0),
                                   sr.MemoryKernel(0.5, -0.25, 1.0)],
                             ids=["power", "memory"])
    def test_overflow_flagged_as_divergence(self, f):
        # data at 1e160 overflows the payload and the norms; the report says
        # so instead of raising, also with warnings as errors
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(0.5, 16)
        cond = sr.ConditionE(0.0, B1, np.full(8, 1e160))
        report = sr.picard_recover(op, cond, f, grid, SPEC)
        assert report.diverged and not report.converged

    def test_history_built_once(self, monkeypatch):
        # one history operator serves every sweep and the final evaluation
        built = []
        history_rows = sr.MemoryKernel.history_rows

        def counting(self, nodes, start, stop):
            built.append((start, stop))
            return history_rows(self, nodes, start, stop)

        monkeypatch.setattr(sr.MemoryKernel, "history_rows", counting)
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(0.5, 32, 2.0)
        cond = sr.ConditionE(0.0, B1, np.full(8, 0.01))
        report = sr.picard_recover(op, cond, sr.MemoryKernel(0.5, -0.5, 1.0),
                                   grid, SPEC)
        assert report.converged and report.iterations > 2
        assert built == [(0, grid.nodes.size)]


class TestRecoveryPlan:
    FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"

    @pytest.mark.parametrize("name", ["psi-quadrature-poly",
                                      "psi-quadrature-table",
                                      "memory-forward", "threshold-sweep"])
    def test_supplied_plan_same_bytes(self, name):
        # a plan built for other data (M = 0) serves this M bit for bit
        cfg = sr.parse_config(self.FIXTURES / f"{name}.json")
        op, f, grid = cfg.build_operator(), cfg.build_nonlinearity(), cfg.build_grid()
        spec = cfg.build_norm_spec(op)
        cond = cfg.build_condition(resolve_M(cfg, op, f)[0])
        plan = sr.build_plan(op, cfg.build_condition(np.zeros(op.n_modes)),
                             f, grid)
        kwargs = dict(tol=cfg.solver.tol, max_iter=cfg.solver.max_iter)
        own = sr.picard_recover(op, cond, f, grid, spec, **kwargs)
        shared = sr.picard_recover(op, cond, f, grid, spec, plan=plan,
                                   **kwargs)
        assert own.converged
        assert shared.u0_recovered.tobytes() == own.u0_recovered.tobytes()
        assert shared.iterations == own.iterations

    PLAN_OP = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
    PLAN_TABLE = sr.TabulatedWeight([0.0, 0.2, 0.5], [1.0, -0.5, 0.8])

    @settings(deadline=None, max_examples=25)
    @given(M=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
    @pytest.mark.parametrize("problem", ["E", "E100", "E200"])
    @pytest.mark.parametrize("forcing", ["zero", "power", "memory"])
    def test_plan_for_zero_data_serves_any_data(self, forcing, problem, M):
        # the plan depends on the problem only: one built for M = 0 gives,
        # for any M, the bytes and iteration count of the recovery's own
        op, table = self.PLAN_OP, self.PLAN_TABLE
        f = {"zero": sr.Zero(), "power": sr.PowerLaw(0.5, 1.0),
             "memory": sr.MemoryKernel(0.5, -0.5, 1.0)}[forcing]
        make = {"E": lambda M: sr.ConditionE(0.3, table, M),
                "E100": lambda M: sr.ConditionE100(0.5, M),
                "E200": lambda M: sr.ConditionE200(table, M)}[problem]
        grid = sr.make_graded_grid(0.5, 16, 2.0)
        spec = sr.FractionalNormSpec(0.25, sr.default_shift(op))
        plan = sr.build_plan(op, make(np.zeros(4)), f, grid)
        cond = make(np.array(M))
        own = sr.picard_recover(op, cond, f, grid, spec, max_iter=60)
        shared = sr.picard_recover(op, cond, f, grid, spec, max_iter=60,
                                   plan=plan)
        assert shared.u0_recovered.tobytes() == own.u0_recovered.tobytes()
        assert shared.iterations == own.iterations

    @pytest.mark.parametrize("name", ["memory-forward", "threshold-sweep"])
    def test_sweeps_build_no_trajectory(self, name, monkeypatch):
        # a sweep works on coefficient arrays: one eval_node call per sweep
        # and one for the converged u0, no eval_trajectory call, and a
        # single Trajectory, the report's
        cfg = sr.parse_config(self.FIXTURES / f"{name}.json")
        op, f, grid = cfg.build_operator(), cfg.build_nonlinearity(), cfg.build_grid()
        cond = cfg.build_condition(resolve_M(cfg, op, f)[0])
        plan = sr.build_plan(op, cond, f, grid)
        calls = dict.fromkeys(["eval_node", "eval_trajectory", "Trajectory"], 0)

        def counting(key, method):
            def counted(*args, **kwargs):
                calls[key] += 1
                return method(*args, **kwargs)
            return counted

        for key in ("eval_node", "eval_trajectory"):
            monkeypatch.setattr(type(f), key, counting(key, getattr(type(f), key)))
        monkeypatch.setattr(sr.Trajectory, "__post_init__",
                            counting("Trajectory", sr.Trajectory.__post_init__))
        report = sr.picard_recover(op, cond, f, grid, cfg.build_norm_spec(op),
                                   tol=cfg.solver.tol,
                                   max_iter=cfg.solver.max_iter, plan=plan)
        assert report.converged and report.iterations > 2
        assert calls == {"eval_node": report.iterations + 1,
                         "eval_trajectory": 0, "Trajectory": 1}

    def test_failing_mode_raises_with_plan(self):
        # an ill-posed problem has no plan: building one raises with the
        # failing mode, as a recovery does
        op = sr.diagonal_operator([-1.0, -2.0])
        lam = op.eigenvalues
        a = -(np.expm1(lam[1]) / lam[1]) / np.exp(lam[1])
        cond = sr.ConditionE(a, B1, np.array([0.1, 0.1]))
        grid = sr.make_graded_grid(1.0, 16)
        with pytest.raises(sr.IllPosedModeError) as info:
            sr.build_plan(op, cond, sr.Zero(), grid)
        assert info.value.modes == [2]
        with pytest.raises(sr.IllPosedModeError) as info:
            sr.picard_recover(op, cond, sr.Zero(), grid, SPEC)
        assert info.value.modes == [2]


class _ConstantForcing(Nonlinearity):
    """Forcing that does not vanish at zero, which the recovery rejects."""

    vanishes_at_zero = False

    def __init__(self, value, n_modes):
        self.value = value
        self.n = n_modes

    def eval_node(self, c, op):
        out = np.zeros(self.n)
        out[0] = self.value
        return out


class TestSmallTMode:
    """The theory needs f(0) = 0; a forcing without it is rejected."""

    def test_rejected_without_flag(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(0.1, 16)
        cond = sr.ConditionE(0.0, B1, np.array([0.01]))
        with pytest.raises(sr.AdmissibilityError):
            sr.picard_recover(op, cond, _ConstantForcing(0.1, 1), grid, SPEC)

    def test_rejected_by_the_plan(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(0.1, 16)
        cond = sr.ConditionE(0.0, B1, np.array([0.01]))
        with pytest.raises(sr.AdmissibilityError,
                           match="must vanish at the zero state"):
            sr.build_plan(op, cond, _ConstantForcing(0.1, 1), grid)

    def test_ill_posed_mode_reported_first(self):
        # a problem that is ill-posed and has an inadmissible forcing
        # reports the failing mode
        op = sr.diagonal_operator([-1.0])
        cond = sr.ConditionE100(math.e, np.array([0.01]))
        with pytest.raises(sr.IllPosedModeError) as info:
            sr.picard_recover(op, cond, _ConstantForcing(0.1, 1),
                              sr.make_graded_grid(1.0, 16), SPEC)
        assert info.value.modes == [1]


class TestTheoreticalThreshold:
    def test_invalid_exponents(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.GrowthExponents(0.0, 1.0, 0.5, 1.0)   # (gamma, theta) = (0, 1)
        with pytest.raises(sr.InvalidParameterError):
            sr.GrowthExponents(0.0, 0.5, 1.0, 1.0)   # nu = 1
        with pytest.raises(sr.InvalidParameterError):
            sr.GrowthExponents(0.0, 0.5, 0.5, 0.0)   # ell = 0

    def test_zero_growth_is_unbounded(self):
        op = sr.diagonal_operator([-1.0])
        est = sr.theoretical_threshold(
            op, sr.GrowthExponents(0.0, 0.25, 0.5, 1.0), 0.0, 1.0, SPEC)
        assert est.unbounded
        assert math.isinf(est.m_T)
        assert est.contraction_factor(0.99) == 0.0

    def test_beta_unit_path(self):
        # gamma = 0 forces gamma0 = 0; vanishing theta and nu push the Beta
        # factor to B(1, 1) = 1
        op = sr.diagonal_operator([-1.0])
        est = sr.theoretical_threshold(
            op, sr.GrowthExponents(0.0, 1e-9, 0.0, 1.0), 1.0, 1.0,
            sr.FractionalNormSpec(0.0, 0.0))
        assert est.gamma0 == 0.0
        assert est.beta_value == pytest.approx(1.0, abs=1e-6)

    def test_bisection_against_closed_form(self):
        # independent root: L = (1/(2 w c B'))**(1/ell) for the increasing map
        op = sr.diagonal_operator([-1.0])
        exps = sr.GrowthExponents(0.2, 0.25, 0.5, 1.0)
        est = sr.theoretical_threshold(op, exps, 1.0, 1.0, SPEC)
        assert est.gamma0 == pytest.approx(0.1, rel=1e-15)
        bracket = 1.0 + 1.0 ** (1.0 + 0.1 - 0.5) * est.beta_value
        closed = 0.5 / (est.omega_T * 1.0 * bracket)
        assert est.L_star == pytest.approx(closed, rel=1e-12)
        assert est.m_T == pytest.approx(est.L_star / (4 * est.omega_T), rel=1e-15)
        assert est.m_T > 0

    def test_ell_two_root(self):
        op = sr.diagonal_operator([-1.0])
        exps = sr.GrowthExponents(0.0, 0.2, 0.3, 2.0)
        c_hat = 3.0
        est = sr.theoretical_threshold(op, exps, c_hat, 0.7, SPEC)
        # contraction factor at the root must be 1/2
        assert est.contraction_factor(est.L_star) == pytest.approx(0.5, rel=1e-9)
        assert est.contraction_factor(est.L_star) <= 0.5

    def test_omega_floor(self):
        op = sr.build_second_order(6, 1.0, 0.5, "dirichlet")
        est = sr.theoretical_threshold(
            op, sr.GrowthExponents(0.0, 0.25, 0.5, 1.0), 1.0, 1.0, SPEC)
        assert est.omega_T >= 1.0

    def test_shifted_norm_uses_numeric_bound(self):
        op = sr.build_second_order(2, 1.0, 0.0, "neumann", allow_zero_mode=True)
        spec = sr.FractionalNormSpec(0.25, 1.0)
        est = sr.theoretical_threshold(
            op, sr.GrowthExponents(0.0, 0.25, 0.5, 1.0), 1.0, 1.0, spec)
        assert est.omega_T >= 1.0
        assert np.isfinite(est.m_T)

    @pytest.mark.parametrize("eigs, delta0, theta, gamma, T, dominant", [
        # shifted: s_1**theta sup_t t**theta e**(-t) decides
        (-np.arange(1.0, 7.0) ** 2, 20.0, 0.5, 0.0, 1.0, True),
        # unshifted with gamma = 0: both terms stay below 1
        (-np.arange(1.0, 7.0) ** 2, 0.0, 0.25, 0.0, 1.0, False),
        # gamma > 0 and a growing mode: s_1**(theta - gamma) T**(theta -
        # gamma0) e**(T lam_1) decides
        ([0.5, -1.0, -4.0], 0.6, 0.5, 0.4, 4.0, True),
        # the peak of the stiff modes lies inside (0, T], not at T
        (-np.array([10.0, 100.0, 1e4]), 1e4, 0.75, 0.3, 2.0, True),
    ])
    def test_omega_closed_form_against_dense_sup(
            self, eigs, delta0, theta, gamma, T, dominant):
        op = sr.diagonal_operator(eigs)
        lam = op.eigenvalues
        est = sr.theoretical_threshold(
            op, sr.GrowthExponents(gamma, theta, 0.5, 1.0), 1.0, T,
            sr.FractionalNormSpec(theta, delta0))
        gamma0 = est.gamma0
        terms = [(theta, theta), (theta - gamma, theta - gamma0)]
        # the analytic peak of s**a t**p e**(t lam), mode by mode
        peak = max(
            (delta0 - l) ** a * t ** p * math.exp(t * l)
            for a, p in terms for l in lam
            for t in [min(T, p / -l) if l < 0 else T])
        bounded = math.exp(T * max(0.0, lam[0]))
        assert est.omega_T == pytest.approx(max(1.0, bounded, peak),
                                            rel=1e-12)
        assert (est.omega_T > max(1.0, bounded)) == dominant
        # a dense numeric sup over t never exceeds it
        t = T * np.concatenate([np.logspace(-10, 0, 20001),
                                np.linspace(0.0, 1.0, 200001)[1:]])[:, None]
        dense = max(np.max((delta0 - lam) ** a * t ** p * np.exp(t * lam))
                    for a, p in terms)
        assert est.omega_T >= dense

    def test_invalid_norm_spec_rejected(self):
        # delta0 must exceed the spectral bound, as for every norm
        op = sr.diagonal_operator([0.5, -1.0])
        with pytest.raises(sr.InvalidParameterError):
            sr.theoretical_threshold(
                op, sr.GrowthExponents(0.0, 0.25, 0.5, 1.0), 1.0, 1.0, SPEC)


class TestContractionCertificate:
    def test_certified_instances_converge(self):
        # whenever the zero-forcing data stays below the certified threshold,
        # the iteration must contract
        rng = np.random.default_rng(99)
        for _ in range(5):
            n = int(rng.integers(4, 10))
            op = sr.build_second_order(n, float(rng.uniform(0.5, 2.0)),
                                       float(rng.uniform(0.0, 1.0)),
                                       "dirichlet")
            T = float(rng.uniform(0.3, 1.2))
            f = sr.PowerLaw(float(rng.uniform(0.2, 1.0)), 1.0)
            spec = sr.FractionalNormSpec(0.25, 0.0)
            rng.integers(1e6)  # keeps the instances' draws in order
            c_bar = sr.check_growth_condition(f, op, spec)
            est = sr.theoretical_threshold(
                op, sr.GrowthExponents(0.0, 0.25, 0.5, 1.0), c_bar, T, spec)
            w = sr.mode_weights(op, 0.0, B1, T)
            z = rng.standard_normal(n)
            z *= 0.9 * est.m_T / np.linalg.norm(z)
            cond = sr.ConditionE(0.0, B1, w.betas * z)
            grid = sr.make_graded_grid(T, 48)
            report = sr.picard_recover(op, cond, f, grid, spec)
            assert report.sigma_T0_norm <= est.m_T
            assert report.converged
            assert all(r < 1.0 for r in report.contraction_ratios)
