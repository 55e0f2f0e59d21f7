"""Nonlinearity catalogue: evaluation, growth sampling, admissibility."""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrec as sr
from specrec import nonlinearity
from specrec.harness import build_condition, resolve_M
from specrec.nonlinearity import (GrowthCheck, _finite, _growth_samples,
                                  _pointwise_power)

OP = sr.build_second_order(6, 1.0, 0.0, "dirichlet")
GRID = sr.make_graded_grid(1.0, 32)
SPEC0 = sr.FractionalNormSpec(0.0, 0.0)


def _const_traj(op, grid, coeffs):
    c = np.tile(np.asarray(coeffs, dtype=float), (grid.nodes.size, 1))
    return sr.Trajectory(grid, c)


class TestPointwisePower:
    def test_identity_like(self):
        # |2| * 2 = 4
        assert _pointwise_power(1.0, 1.0, np.array([2.0]))[0] == 4.0

    def test_signed(self):
        # 0.5 * |-1|**2 * (-1) = -0.5
        assert _pointwise_power(0.5, 2.0, np.array([-1.0]))[0] == -0.5

    def test_vanishes_at_zero(self):
        assert _pointwise_power(3.0, 1.5, np.zeros(4)).tolist() == [0.0] * 4

    @pytest.mark.parametrize("ell", [0.5, 1.0, 1.5, 2.0])
    def test_matches_expression_bytes(self, ell):
        # in place on one array, with the power skipped at ell = 1: the
        # bytes of the expression it evaluates, and the input untouched
        v = np.random.default_rng(2).standard_normal((5, 9))
        keep = v.copy()
        got = _pointwise_power(0.7, ell, v)
        assert got.tobytes() == (0.7 * np.abs(keep) ** ell * keep).tobytes()
        assert np.array_equal(v, keep)


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


def _inline_payload(kappa, ell, coeffs, op, name):
    """The stacked payload written out with the matrix products of
    ``synthesize`` and ``analyze``: the contiguous transposed basis and the
    weights-times-basis product, formed here from the operator's basis."""
    W = _pointwise_power(kappa, ell, coeffs @ np.ascontiguousarray(op.basis.T))
    return _finite(W @ (op.weights[:, None] * op.basis), name)


class TestStackedPayload:
    FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"

    @pytest.mark.parametrize("f", [sr.Zero(), sr.PowerLaw(0.7, 2.0),
                                   sr.MemoryKernel(1.0, -0.5, 1.5)],
                             ids=["zero", "power", "memory"])
    def test_stack_matches_rows(self, f):
        # one call on a (k, n_modes) stack gives each row's payload, to the
        # rounding of a matrix product against a matrix-vector one
        C = np.random.default_rng(9).standard_normal((7, OP.n_modes))
        P = f.eval_node(C, OP)
        rows = np.array([f.eval_node(c, OP) for c in C])
        assert P.shape == C.shape
        assert np.max(np.abs(P - rows)) <= 1e-14 * np.max(np.abs(rows))

    @pytest.mark.parametrize("name", ["psi-quadrature-poly",
                                      "psi-quadrature-table",
                                      "memory-forward", "threshold-sweep"])
    def test_recovery_bytes_unchanged(self, name, monkeypatch):
        # the recovery's payloads go through synthesize and analyze; for a
        # fixed M it must give the bytes of the products written inline
        cfg = sr.parse_config(self.FIXTURES / f"{name}.json")
        op, f, grid = cfg.build_operator(), cfg.build_nonlinearity(), cfg.build_grid()
        spec = cfg.build_norm_spec(op)
        cond = build_condition(cfg, resolve_M(cfg, op, f)[0])

        def recovered():
            report = sr.picard_recover(op, cond, f, grid, spec,
                                       tol=cfg.solver.tol,
                                       max_iter=cfg.solver.max_iter)
            return report.u0_recovered.tobytes()

        routed = recovered()
        monkeypatch.setattr(nonlinearity, "_trajectory_payload",
                            _inline_payload)
        assert recovered() == routed


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
            node = f.history_rows(GRID.nodes, i, i + 1)[0] @ payloads[:i + 1]
            assert np.allclose(node, traj.coeffs[i], rtol=0, atol=1e-14)

    def test_invalid_exponent(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.MemoryKernel(1.0, -1.0, 1.0)
        with pytest.raises(sr.InvalidParameterError):
            sr.MemoryKernel(1.0, 0.0, 0.0)


def _history_oracle(nodes, i, lambda_exp):
    """Row i of the history weights at 60 digits, from the closed form
    (differences of (t_i - t_k)**(lambda + 1) and their first moments)
    evaluated at the given nodes."""
    with mp.workdps(60):
        t = [mp.mpf(float(v)) for v in nodes[:i + 1]]
        a = mp.mpf(lambda_exp) + 1
        d = [t[i] - tk for tk in t]
        p1 = [dk ** a for dk in d]
        p2 = [pk * dk for pk, dk in zip(p1, d)]
        row = [mp.mpf(0)] * (i + 1)
        for k in range(i):
            m0 = (p1[k] - p1[k + 1]) / a
            m1 = (p2[k] - p2[k + 1]) / (a + 1)
            right = (d[k] * m0 - m1) / (t[k + 1] - t[k])
            row[k] += m0 - right
            row[k + 1] += right
        return np.array([float(w) for w in row])


class TestHistoryRows:
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    @pytest.mark.parametrize("lambda_exp", [-0.9, -0.5, 0.5])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_against_mpmath(self, n, lambda_exp, r):
        # every weight of the middle and last rows within 1e-13 relative,
        # uniform and graded; differences of powers of t_i - t_k err 5e-9
        # at n = 4096 on the uniform grid.  The rows come in blocks of 41,
        # built in several passes at n = 4096
        nodes = sr.make_graded_grid(1.0, n, r).nodes
        f = sr.MemoryKernel(1.0, lambda_exp, 1.0)
        for i in (n // 2, n):
            block = f.history_rows(nodes, max(0, i - 40), i + 1)
            want = _history_oracle(nodes, i, lambda_exp)
            assert np.all(block[-1] > 0.0)
            assert np.max(np.abs(block[-1] - want) / want) <= 1e-13

    def test_lower_triangular_blocks(self):
        # a block of rows is the matching slice of the whole operator
        f = sr.MemoryKernel(1.0, -0.5, 1.0)
        nodes = GRID.nodes
        H = f.history_rows(nodes, 0, nodes.size)
        assert np.array_equal(H, np.tril(H))
        assert np.all(H[0] == 0.0)
        assert np.allclose(f.history_rows(nodes, 10, 20), H[10:20, :20],
                           rtol=1e-15, atol=0)

    def test_pointwise_maps_have_none(self):
        for f in (sr.Zero(), sr.PowerLaw(1.0, 1.0)):
            assert f.history_rows(GRID.nodes, 0, GRID.nodes.size) is None


def _growth_oracle(f, op, spec, sample_count, amplitude_range, seed):
    """The sample-by-sample loop: the same draws, one pair at a time.

    Also returns the cancellation factor (||p(v)|| + ||p(w)||) /
    ||p(v) - p(w)|| of the pair that sets c_hat: rounding in the payloads
    reaches the ratio amplified by this factor.
    """
    w_spec = (spec.delta0 - op.eigenvalues) ** spec.theta
    rng = np.random.default_rng(seed)
    lo, hi = amplitude_range
    c_hat, ok, used, cancel = 0.0, True, 0, 1.0
    for k in range(sample_count):
        v = rng.standard_normal(op.n_modes)
        v *= rng.uniform(lo, hi) / max(np.linalg.norm(v), 1e-300)
        if k % 2 == 0:
            w = rng.standard_normal(op.n_modes)
            w *= rng.uniform(lo, hi) / max(np.linalg.norm(w), 1e-300)
        else:
            step = rng.uniform(1e-6, 1e-3) * np.linalg.norm(v)
            z = rng.standard_normal(op.n_modes)
            w = v + step / np.linalg.norm(z) * z
        dv = np.linalg.norm(w_spec * (v - w))
        if dv == 0.0:
            continue
        denom = (np.linalg.norm(w_spec * v) ** f.ell
                 + np.linalg.norm(w_spec * w) ** f.ell) * dv
        if denom == 0.0:
            continue
        pv, pw = f.eval_node(v, op), f.eval_node(w, op)
        num = np.linalg.norm(pv - pw)
        ratio = num / denom
        if not np.isfinite(ratio):
            ok = False
            continue
        used += 1
        if ratio > c_hat:
            c_hat = float(ratio)
            cancel = (np.linalg.norm(pv) + np.linalg.norm(pw)) / num
    return GrowthCheck(c_hat, ok, used), cancel


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

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("theta", [0.0, 0.25])
    def test_matches_sample_loop(self, seed, theta):
        spec = sr.FractionalNormSpec(theta, 0.0)
        f = sr.PowerLaw(0.7, 1.5)
        got = sr.check_growth_condition(f, OP, spec, seed=seed)
        want, cancel = _growth_oracle(f, OP, spec, 200, (0.01, 1.0), seed)
        assert got.n_samples == want.n_samples
        assert got.ok == want.ok
        # the stacked payloads round differently from one-by-one ones; a
        # close pair that sets c_hat amplifies that by its cancellation
        # factor (9.2e2 at theta = 0.25, seed 2), a far pair does not (1.0
        # to 1.2 on the other nine)
        assert abs(got.c_hat - want.c_hat) <= 1e-14 * cancel * want.c_hat

    def test_large_amplitudes_stay_finite(self):
        # ||p(v) - p(w)|| is about 1e200 here, so its sum of squares
        # overflows although every ratio is finite
        check = sr.check_growth_condition(sr.PowerLaw(1.0, 1.0), OP, SPEC0,
                                          amplitude_range=(1e100, 1e101))
        assert check.ok
        assert 0.0 < check.c_hat < math.inf
        # no close pair collapses onto w == v
        assert check.n_samples == 200

    @pytest.mark.parametrize("amplitude", [0.01, 1.0, 1e100])
    def test_close_pairs_scale_with_v(self, amplitude):
        V, W = _growth_samples(OP.n_modes, 200, (amplitude, amplitude), 3)
        gap = np.linalg.norm(W[1::2] - V[1::2], axis=1)
        size = np.linalg.norm(V[1::2], axis=1)
        assert np.all(gap > 0.0)
        assert np.all(gap <= 1e-3 * size * (1.0 + 1e-12))
        assert np.all(gap >= 1e-6 * size * (1.0 - 1e-12))

    @pytest.mark.parametrize("amplitudes", [(0.01, 1.0), (1e100, 1e101)])
    def test_samples_match_linalg_norm_loop(self, amplitudes):
        # the draws scale by sqrt(v @ v), the value np.linalg.norm gives
        # for a vector, so the samples and c_hat keep their bytes
        n, count, seed = OP.n_modes, 200, 7
        rng = np.random.default_rng(seed)
        lo, hi = amplitudes
        want_V, want_W = np.empty((2, count, n))
        for k in range(count):
            v = rng.standard_normal(n)
            v *= rng.uniform(lo, hi) / max(np.linalg.norm(v), 1e-300)
            if k % 2 == 0:
                w = rng.standard_normal(n)
                w *= rng.uniform(lo, hi) / max(np.linalg.norm(w), 1e-300)
            else:
                step = rng.uniform(1e-6, 1e-3) * np.linalg.norm(v)
                z = rng.standard_normal(n)
                w = v + step / max(np.linalg.norm(z), 1e-300) * z
            want_V[k], want_W[k] = v, w
        V, W = _growth_samples(n, count, amplitudes, seed)
        assert V.tobytes() == want_V.tobytes()
        assert W.tobytes() == want_W.tobytes()

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
