"""Forward solver: phi kernels, convolution, marching, observation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrec as sr
from specrec.duhamel import _step_tables
from specrec.kernels import moments
from _util import rel_err, ulp_close


class TestPhi1:
    def test_limit_value(self):
        assert sr.phi1(0.0) == 1.0

    def test_direct(self):
        # oracle: e - 1 frozen from 40-digit evaluation
        assert rel_err(sr.phi1(1.0), 1.718281828459045) < 1e-15

    def test_stiff_no_overflow(self):
        # oracle: (1 - exp(-50))/50 = 0.019999999999999999996...
        assert rel_err(sr.phi1(-50.0), 0.02) < 1e-15

    def test_series_branch(self):
        assert sr.phi1(1e-9) == 1.0 + 0.5e-9

    @settings(deadline=None, max_examples=50)
    @given(z=st.floats(-700.0, 20.0))
    def test_phi_pair_consistency(self, z):
        J = moments(np.array([z]), 2)
        p1, p2, p3 = J[0], J[0] - J[1], 0.5 * (J[0] - 2.0 * J[1] + J[2])
        assert rel_err(p1[0], sr.phi1(z)) < 1e-13
        # phi2(z) = (phi1(z) - 1)/z away from the origin
        if abs(z) > 1e-3:
            assert rel_err(p2[0], (sr.phi1(z) - 1.0) / z) < 1e-10
        # phi3(z) = (phi2(z) - 1/2)/z, which cancels more near the origin
        if abs(z) > 1e-2:
            p2_ref = (sr.phi1(z) - 1.0) / z
            assert rel_err(p3[0], (p2_ref - 0.5) / z) < 1e-10


    @pytest.mark.parametrize("z", [-1e4, -7e5])
    def test_stiff_left_step_weight(self, z):
        # h*J_1(h*lam) with h = 1: (1 - (1 - z) e^z)/z**2, e^z below rounding
        _, left, _ = _step_tables(np.array([0.0, 1.0]), np.array([z]))
        want = float((1 - (1 - mp.mpf(z)) * mp.exp(z)) / mp.mpf(z)**2)
        assert rel_err(left[0, 0], want) < 1e-14


class TestDuhamelConvolve:
    def test_zero_forcing(self):
        op = sr.diagonal_operator([-1.0, -2.0])
        grid = sr.make_graded_grid(1.0, 16)
        g = sr.Trajectory.zeros(grid, 2)
        assert np.all(sr.duhamel_convolve(op, g).coeffs == 0.0)

    def test_lam_zero_integrates_time(self):
        op = sr.diagonal_operator([0.0])
        grid = sr.make_graded_grid(2.0, 10, 2.0)
        g = sr.Trajectory(grid, np.ones((11, 1)))
        v = sr.duhamel_convolve(op, g)
        assert np.array_equal(v.coeffs[:, 0], grid.nodes)

    def test_constant_forcing_closed_form(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 200)
        g = sr.Trajectory(grid, np.ones((201, 1)))
        v = sr.duhamel_convolve(op, g)
        want = 1.0 - np.exp(-grid.nodes)
        assert np.max(np.abs(v.coeffs[:, 0] - want)) < 1e-12

    def test_exact_for_linear_forcing(self):
        # g(t) = 2 - 3t against lam = -4; oracle is 40-digit quadrature
        import mpmath as mp
        mp.mp.dps = 40
        lam = -4.0
        op = sr.diagonal_operator([lam])
        grid = sr.make_graded_grid(1.5, 12, 1.7)
        g = sr.Trajectory(grid, (2.0 - 3.0 * grid.nodes)[:, None])
        v = sr.duhamel_convolve(op, g)
        for i in (1, 5, 12):
            t = mp.mpf(grid.nodes[i])
            want = float(mp.quad(lambda s: mp.exp(lam * (t - s)) * (2 - 3 * s),
                                 [0, t]))
            assert abs(v.coeffs[i, 0] - want) < 1e-15

    def test_linearity(self):
        op = sr.diagonal_operator([-1.0, -9.0])
        grid = sr.make_graded_grid(1.0, 20)
        rng = np.random.default_rng(0)
        g1 = rng.standard_normal((21, 2))
        g2 = rng.standard_normal((21, 2))
        va = sr.duhamel_convolve(op, sr.Trajectory(grid, g1)).coeffs
        vb = sr.duhamel_convolve(op, sr.Trajectory(grid, g2)).coeffs
        vs = sr.duhamel_convolve(op, sr.Trajectory(grid, g1 + g2)).coeffs
        # 4 ulp at the scale of the data (entries may cancel to near zero)
        scale = max(np.max(np.abs(va)), np.max(np.abs(vb)), np.max(np.abs(vs)))
        assert np.max(np.abs(vs - (va + vb))) <= 4 * np.spacing(scale)

    def test_causality(self):
        op = sr.diagonal_operator([-2.0])
        grid = sr.make_graded_grid(1.0, 16)
        rng = np.random.default_rng(1)
        g = rng.standard_normal((17, 1))
        v = sr.duhamel_convolve(op, sr.Trajectory(grid, g)).coeffs
        g2 = g.copy()
        g2[9:] += 5.0  # perturb only later nodes
        v2 = sr.duhamel_convolve(op, sr.Trajectory(grid, g2)).coeffs
        assert np.array_equal(v[:9], v2[:9])
        assert not np.array_equal(v[9:], v2[9:])

    def test_grid_mismatch(self):
        op = sr.diagonal_operator([-1.0])
        g = sr.Trajectory.zeros(sr.make_graded_grid(1.0, 8), 1)
        with pytest.raises(sr.InvalidParameterError):
            sr.duhamel_convolve(op, g, sr.make_graded_grid(1.0, 16))


class TestForwardSolve:
    def test_heat_decay(self):
        # oracle: exp(-1) for the first mode after unit time
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 64)
        u = sr.forward_solve(op, [1.0], sr.Zero(), grid)
        assert rel_err(u.coeffs[-1, 0], 0.36787944117144233) < 1e-15

    def test_zero_state_fixed_point(self):
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 32)
        u = sr.forward_solve(op, np.zeros(8), sr.PowerLaw(1.0, 1.0), grid)
        assert np.all(u.coeffs == 0.0)

    def test_stationary_mode(self):
        op = sr.diagonal_operator([0.0])
        grid = sr.make_graded_grid(1.0, 16)
        u = sr.forward_solve(op, [2.0], sr.Zero(), grid)
        assert np.all(u.coeffs == 2.0)

    def test_linear_exactness_4ulp(self):
        op = sr.build_second_order(16, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 128, 2.0)
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(16)
        u = sr.forward_solve(op, u0, sr.Zero(), grid)
        want = np.exp(np.outer(grid.nodes, op.eigenvalues)) * u0
        assert ulp_close(u.coeffs, want, 4)

    def test_second_order_convergence(self):
        # error against a Richardson-extrapolated reference drops ~4x per
        # grid doubling
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        f = sr.PowerLaw(0.5, 1.0)
        u0 = np.zeros(8)
        u0[0] = 0.05
        u0[1] = 0.02

        def solve(n):
            grid = sr.make_graded_grid(0.5, n)
            return sr.forward_solve(op, u0, f, grid)

        fine = solve(512).coeffs[::2]
        finer = solve(1024).coeffs[::4]
        reference = finer + (finer - fine) / 3.0  # Richardson, order 2

        errors = []
        for n in (64, 128):
            u = solve(n).coeffs
            ref = reference[:: 256 // n]
            errors.append(np.max(np.linalg.norm(u - ref, axis=1)))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5

    def test_memory_kernel_forward(self):
        # scalar mode, lam = 0, f(u)(t) = int_0^t u(s) ds with u ~ const:
        # u' = 0 + f means u(t) = u0 + u0|u0| t^2/2 + higher order
        op = sr.diagonal_operator([0.0])
        grid = sr.make_graded_grid(0.2, 128)
        f = sr.MemoryKernel(1.0, 0.0, 1.0)
        u = sr.forward_solve(op, [0.1], f, grid)
        t = grid.nodes
        leading = 0.1 + 0.1 * 0.1 * t**2 / 2.0
        assert np.max(np.abs(u.coeffs[:, 0] - leading)) < 1e-5


class TestObserve:
    def test_zero_trajectory(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 8)
        M = sr.observe(sr.Trajectory.zeros(grid, 1), 1.0, sr.ConstantWeight(1.0))
        assert np.all(M == 0.0)

    def test_constant_exact(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 8)
        u = sr.Trajectory(grid, np.full((9, 1), 3.0))
        M = sr.observe(u, 1.0, sr.ConstantWeight(1.0))
        # a*c + int b*c = 3 + 3
        assert ulp_close(M[0], 6.0, 4)

    def test_trapezoid_accuracy(self):
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 4096)
        u = sr.Trajectory(grid, np.exp(-grid.nodes)[:, None])
        M = sr.observe(u, 0.0, sr.ConstantWeight(1.0))
        assert abs(M[0] - 0.6321205588285577) < 1e-7

    def test_weighted(self):
        # oracle: int_0^1 t * e^{-t} dt = 1 - 2/e, frozen at 40 digits
        op = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 4096)
        u = sr.Trajectory(grid, np.exp(-grid.nodes)[:, None])
        M = sr.observe(u, 0.0, sr.PolynomialWeight([0.0, 1.0]))
        assert abs(M[0] - 0.26424111765711533) < 1e-7
