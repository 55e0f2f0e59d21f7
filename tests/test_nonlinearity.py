"""Nonlinearity catalogue: evaluation, growth bound, admissibility."""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrec as sr
from specrec import nonlinearity
from specrec.harness import resolve_M
from specrec.nonlinearity import _finite, _pointwise_power

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
        cond = cfg.build_condition(resolve_M(cfg, op, f)[0])

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

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("lambda_exp", [-0.9, -0.5, 0.5])
    @pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
    def test_series_switch_against_mpmath(self, n, lambda_exp, r):
        # the weights next to a segment with x = h/(t_i - t_k) in [0.03,
        # 0.08], around the switch from the series to the closed form at
        # x = 0.05, where the closed form cancels most: the largest error
        # over these rows is 1.0e-14 (node 0 of row 16 of the uniform grid,
        # x = 1/16, lambda = -0.9)
        nodes = sr.make_graded_grid(1.0, n, r).nodes
        f = sr.MemoryKernel(1.0, lambda_exp, 1.0)
        for i in (16, n // 2, n):
            row = f.history_rows(nodes, i, i + 1)[0]
            x = np.diff(nodes[:i + 1]) / (nodes[i] - nodes[:i])
            seg = (x >= 0.03) & (x <= 0.08)
            near = np.append(seg, False) | np.append(False, seg)
            want = _history_oracle(nodes, i, lambda_exp)
            assert near.any()
            assert np.max(np.abs(row - want)[near] / want[near]) <= 1.5e-14

    @pytest.mark.parametrize("r", [1.0, 4.0], ids=["uniform", "graded"])
    def test_block_size_same_bytes(self, monkeypatch, r):
        # each weight depends only on its row, column and the nodes, so one
        # row per block gives the bytes of the default blocks
        nodes = sr.make_graded_grid(1.0, 300, r).nodes
        f = sr.MemoryKernel(1.0, -0.5, 1.0)
        blocks = [f.history_rows(nodes, 0, nodes.size),
                  f.history_rows(nodes, 100, 164)]
        monkeypatch.setattr(nonlinearity, "_BLOCK_ENTRIES", 1)
        rows = [f.history_rows(nodes, 0, nodes.size),
                f.history_rows(nodes, 100, 164)]
        for want, got in zip(blocks, rows):
            assert got.tobytes() == want.tobytes()

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


def _growth_pairs(op, spec, count, seed):
    """Pairs (v, w) for the growth oracle, in four kinds taken in turn:
    independent draws; w within 1e-4 to 1e-2 times ||v|| of v; and, twice,
    v peaked at the row i* of the sup-norm embedding, v_j proportional to
    basis[i*, j] s_j**(-2 theta), where Cauchy-Schwarz is an equality, with
    w = (1 + eps) v or w within 1e-4 to 1e-2 times ||v|| of v.  The close
    pairs stop at 1e-4 so that rounding in the payloads, amplified by
    their cancellation, stays far below the bound's slack."""
    rng = np.random.default_rng(seed)
    n = op.n_modes
    s = spec.delta0 - op.eigenvalues
    rows = np.square(op.basis) @ s ** (-2.0 * spec.theta)
    peak = op.basis[np.argmax(rows)] * s ** (-2.0 * spec.theta)

    def draw(direction):
        return direction * rng.uniform(0.01, 1.0) / np.linalg.norm(direction)

    def near(v):
        z = rng.standard_normal(n)
        step = rng.uniform(1e-4, 1e-2) * np.linalg.norm(v)
        return v + step * z / np.linalg.norm(z)

    pairs = []
    for k in range(count):
        kind = k % 4
        v = draw(rng.standard_normal(n) if kind < 2 else peak)
        if kind == 0:
            w = draw(rng.standard_normal(n))
        elif kind == 2:
            w = v * (1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 1e-2))
        else:
            w = near(v)
        pairs.append((v, w))
    return pairs


def _growth_oracle(f, op, spec, pairs):
    """The largest ratio

        ||p(v) - p(w)||_0 / ((||v||_theta**ell + ||w||_theta**ell)
                             ||v - w||_theta)

    over the pairs, one pair at a time with ``np.linalg.norm``."""
    w_spec = (spec.delta0 - op.eigenvalues) ** spec.theta
    c_hat = 0.0
    for v, w in pairs:
        dv = np.linalg.norm(w_spec * (v - w))
        denom = (np.linalg.norm(w_spec * v) ** f.ell
                 + np.linalg.norm(w_spec * w) ** f.ell) * dv
        num = np.linalg.norm(f.eval_node(v, op) - f.eval_node(w, op))
        ratio = num / denom
        assert np.isfinite(ratio)
        c_hat = max(c_hat, float(ratio))
    return c_hat


def _growth_operator(family, modes, coef, seed):
    if family == "dirichlet2":
        return sr.build_second_order(modes, coef, 0.5 * coef, "dirichlet")
    if family == "neumann2":
        return sr.build_second_order(modes, coef, 0.0, "neumann",
                                     allow_zero_mode=True)
    if family == "pinned4":
        return sr.build_fourth_order(modes, coef, 0.5)
    # eigenvalues of either sign, so the shift is positive or zero
    rng = np.random.default_rng(seed)
    return sr.diagonal_operator(np.sort(rng.uniform(-20.0, 2.0, modes))[::-1])


class TestGrowthCondition:
    def test_zero_nonlinearity(self):
        assert sr.check_growth_condition(sr.Zero(), OP, SPEC0) == 0.0

    def test_memory_kernel_rejected(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.check_growth_condition(sr.MemoryKernel(1.0, 0.0, 1.0), OP,
                                      SPEC0)

    def test_scalar_power_law_bounded_by_one(self):
        # scalar inequality | |v|v - |w|w | <= (|v| + |w|) |v - w|
        op1 = sr.diagonal_operator([-1.0])
        c_bar = sr.check_growth_condition(sr.PowerLaw(1.0, 1.0), op1, SPEC0)
        assert c_bar <= 1.0 + 1e-9

    def test_scalar_bound_attained(self):
        # C_1 = 1 is sharp: a same-signed scalar pair attains it, up to the
        # Gram slack of 1e-10 per mode
        op1 = sr.diagonal_operator([-1.0])
        f = sr.PowerLaw(1.0, 1.0)
        c_bar = sr.check_growth_condition(f, op1, SPEC0)
        pair = (np.array([0.5]), np.array([0.25]))
        assert _growth_oracle(f, op1, SPEC0, [pair]) == pytest.approx(
            c_bar, rel=1e-9)

    def test_homogeneous_in_kappa(self):
        op1 = sr.diagonal_operator([-1.0])
        c_bar = sr.check_growth_condition(sr.PowerLaw(2.0, 1.0), op1, SPEC0)
        assert c_bar <= 2.0 + 1e-9
        base = sr.check_growth_condition(sr.PowerLaw(1.0, 1.0), op1, SPEC0)
        assert c_bar == pytest.approx(2.0 * base, rel=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(family=st.sampled_from(["dirichlet2", "neumann2", "pinned4",
                                   "diagonal"]),
           modes=st.integers(1, 8), coef=st.floats(0.2, 3.0),
           theta=st.floats(0.0, 1.0),
           ell=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
           extra_shift=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
           sign=st.sampled_from([-1.0, 1.0]), size=st.floats(0.1, 2.0),
           seed=st.integers(0, 10**6))
    def test_sampled_ratios_within_certified_bound(
            self, family, modes, coef, theta, ell, extra_shift, sign, size,
            seed):
        # both sides scale with |kappa|; a tiny kappa would only take the
        # oracle's sums of squares below the normal float range
        op = _growth_operator(family, modes, coef, seed)
        spec = sr.FractionalNormSpec(theta, sr.default_shift(op) + extra_shift)
        f = sr.PowerLaw(sign * size, ell)
        c_bar = sr.check_growth_condition(f, op, spec)
        pairs = _growth_pairs(op, spec, 80, seed)
        assert _growth_oracle(f, op, spec, pairs) <= c_bar

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
