"""Nonlinearity catalogue: evaluation, growth sampling, admissibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrec as sr
from specrec.nonlinearity import _pointwise_power

OP = sr.build_second_order(6, 1.0, 0.0, "dirichlet")
GRID = sr.make_graded_grid(1.0, 32)
SPEC0 = sr.FractionalNormSpec(0.0, 0.0)


def _const_traj(op, grid, coeffs, includes_t0=True):
    c = np.tile(np.asarray(coeffs, dtype=float), (grid.nodes.size, 1))
    return sr.Trajectory(grid, c, includes_t0)


class TestPointwisePower:
    def test_identity_like(self):
        # |2| * 2 = 4
        assert _pointwise_power(1.0, 1.0, np.array([2.0]))[0] == 4.0

    def test_signed(self):
        # 0.5 * |-1|**2 * (-1) = -0.5
        assert _pointwise_power(0.5, 2.0, np.array([-1.0]))[0] == -0.5

    def test_vanishes_at_zero(self):
        assert _pointwise_power(3.0, 1.5, np.zeros(4)).tolist() == [0.0] * 4


class TestEvalLocal:
    def test_zero_input(self):
        f = sr.PowerLaw(2.0, 1.0)
        out = f.eval_trajectory(sr.Trajectory.zeros(GRID, OP.n_modes), OP)
        assert np.all(out.coeffs == 0.0)

    def test_scalar_mode(self):
        op1 = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 4)
        f = sr.PowerLaw(1.0, 1.0)
        out = f.eval_trajectory(_const_traj(op1, grid, [2.0]), op1)
        assert np.allclose(out.coeffs, 4.0, rtol=0, atol=0)

    def test_missing_origin_extrapolated(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((GRID.nodes.size, OP.n_modes))
        coeffs[0] = 0.0
        u = sr.Trajectory(GRID, coeffs, includes_t0=False)
        out = sr.PowerLaw(1.0, 1.0).eval_trajectory(u, OP)
        assert np.array_equal(out.coeffs[0], out.coeffs[1])

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6), ell=st.sampled_from([0.5, 1.0, 2.0]))
    def test_odd_symmetry(self, seed, ell):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((GRID.nodes.size, OP.n_modes))
        u = sr.Trajectory(GRID, coeffs)
        minus_u = sr.Trajectory(GRID, -coeffs)
        f = sr.PowerLaw(0.7, ell)
        assert np.allclose(f.eval_trajectory(minus_u, OP).coeffs,
                           -f.eval_trajectory(u, OP).coeffs, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("make_f", [
        lambda: sr.PowerLaw(1.0, 1.0),
        lambda: sr.PowerLaw(1.0, 2.0),
        lambda: sr.MemoryKernel(1.0, 0.0, 1.0),
    ])
    def test_superlinear_vanishing(self, make_f):
        f = make_f()
        rng = np.random.default_rng(11)
        base = rng.standard_normal((GRID.nodes.size, OP.n_modes))

        def response(s):
            u = sr.Trajectory(GRID, s * base)
            out = f.eval_trajectory(u, OP)
            return np.max(np.linalg.norm(out.coeffs, axis=1)) / s

        assert response(1e-4) <= 1e-3 * response(1.0)


class TestMemoryKernel:
    def test_zero_input(self):
        f = sr.MemoryKernel(1.0, -0.5, 1.0)
        out = f.eval_trajectory(sr.Trajectory.zeros(GRID, OP.n_modes), OP)
        assert np.all(out.coeffs == 0.0)

    def test_constant_state_linear_growth(self):
        # oracle: int_0^t v0*|v0| ds = v0*|v0|*t for lambda_exp = 0
        op1 = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 50)
        f = sr.MemoryKernel(1.0, 0.0, 1.0)
        v0 = -1.5
        out = f.eval_trajectory(_const_traj(op1, grid, [v0]), op1)
        want = v0 * abs(v0) * grid.nodes
        assert np.max(np.abs(out.coeffs[:, 0] - want)) < 1e-13

    def test_singular_kernel_closed_form(self):
        # oracle: int_0^t (t-s)^(-1/2) ds = 2*sqrt(t)
        op1 = sr.diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 50)
        f = sr.MemoryKernel(1.0, -0.5, 1.0)
        out = f.eval_trajectory(_const_traj(op1, grid, [1.0]), op1)
        want = 2.0 * np.sqrt(grid.nodes)
        assert np.max(np.abs(out.coeffs[:, 0] - want)) < 1e-12

    def test_matches_time_scaled_power_law(self):
        # lambda_exp = 0 on a time-constant trajectory equals t * power law
        f = sr.MemoryKernel(0.8, 0.0, 2.0)
        p = sr.PowerLaw(0.8, 2.0)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(OP.n_modes)
        u = _const_traj(OP, GRID, c)
        mem = f.eval_trajectory(u, OP).coeffs
        point = p.eval_trajectory(u, OP).coeffs[0]
        want = GRID.nodes[:, None] * point[None, :]
        assert np.max(np.abs(mem - want)) < 1e-8

    def test_node_evaluation_matches_trajectory(self):
        f = sr.MemoryKernel(1.0, -0.3, 1.0)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal((GRID.nodes.size, OP.n_modes))
        u = sr.Trajectory(GRID, coeffs)
        traj = f.eval_trajectory(u, OP)
        payloads = np.array([f.eval_node(c, OP) for c in coeffs])
        for i in (0, 1, 7, GRID.n_steps):
            node = f.history_row(GRID.nodes, i) @ payloads[:i + 1]
            assert np.allclose(node, traj.coeffs[i], rtol=0, atol=1e-14)

    def test_missing_origin_takes_first_node(self):
        f = sr.MemoryKernel(1.0, -0.3, 1.0)
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal((GRID.nodes.size, OP.n_modes))
        got = f.eval_trajectory(sr.Trajectory(GRID, coeffs, False), OP)
        shifted = coeffs.copy()
        shifted[0] = coeffs[1]
        want = f.eval_trajectory(sr.Trajectory(GRID, shifted), OP)
        assert np.array_equal(got.coeffs, want.coeffs)

    def test_invalid_exponent(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.MemoryKernel(1.0, -1.0, 1.0)
        with pytest.raises(sr.InvalidParameterError):
            sr.MemoryKernel(1.0, 0.0, 0.0)


class TestGrowthCondition:
    def test_zero_nonlinearity(self):
        check = sr.check_growth_condition(sr.Zero(), OP, SPEC0)
        assert check.c_hat == 0.0 and check.ok

    def test_scalar_power_law_bounded_by_one(self):
        # scalar inequality | |v|v - |w|w | <= (|v| + |w|) |v - w|
        op1 = sr.diagonal_operator([-1.0])
        check = sr.check_growth_condition(sr.PowerLaw(1.0, 1.0), op1, SPEC0,
                                          sample_count=400, seed=12)
        assert check.ok
        assert check.c_hat <= 1.0 + 1e-9

    def test_homogeneous_in_kappa(self):
        op1 = sr.diagonal_operator([-1.0])
        check = sr.check_growth_condition(sr.PowerLaw(2.0, 1.0), op1, SPEC0,
                                          sample_count=400, seed=12)
        assert check.c_hat <= 2.0 + 1e-9
        base = sr.check_growth_condition(sr.PowerLaw(1.0, 1.0), op1, SPEC0,
                                         sample_count=400, seed=12)
        assert check.c_hat == pytest.approx(2.0 * base.c_hat, rel=1e-12)

    def test_sample_count_floor(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.check_growth_condition(sr.PowerLaw(1.0, 1.0), OP, SPEC0,
                                      sample_count=10)

    def test_declared_metadata(self):
        f = sr.PowerLaw(1.0, 1.5)
        gamma, nu = f.declared_exponents(0.3)
        assert gamma == 0.0
        assert nu == pytest.approx(0.3 * 2.5, rel=1e-15)
        g = sr.MemoryKernel(1.0, 0.5, 1.0)
        assert g.declared_exponents(0.3) == (0.0, 0.0)


class TestKernelAdmissibility:
    def test_passing_tuple(self):
        res = sr.check_kernel_admissibility(0.0, 0.2, 1.0, 0.5)
        assert res.ok and res.violated == ()

    def test_boundary_exponent_fails(self):
        res = sr.check_kernel_admissibility(-1.0, 0.2, 1.0, 0.5)
        assert not res.ok
        assert "lambda_exp > -1" in res.violated

    def test_superlinearity_budget_fails(self):
        res = sr.check_kernel_admissibility(0.0, 0.6, 1.0, 0.0)
        assert not res.ok
        assert "theta*(ell+1) < 1" in res.violated
