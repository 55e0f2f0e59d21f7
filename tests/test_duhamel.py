"""Forward solver: phi kernels, convolution, marching, observation."""

import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrec as sr
from specrec import duhamel
from specrec.duhamel import _convolve, _scan, _spans, _step_tables
from specrec.kernels import moments
from _util import diagonal_operator, rel_err, trapezoid, ulp_close


def phi1(z):
    """(exp(z) - 1) / z, with phi1(0) = 1: the moment J_0."""
    return float(moments(z, 0)[0])


class TestPhi1:
    def test_limit_value(self):
        assert moments(0.0, 0)[0] == 1.0

    def test_direct(self):
        # oracle: e - 1 frozen from 40-digit evaluation
        assert rel_err(phi1(1.0), 1.718281828459045) < 1e-15

    def test_stiff_no_overflow(self):
        # oracle: (1 - exp(-50))/50 = 0.019999999999999999996...
        assert rel_err(phi1(-50.0), 0.02) < 1e-15

    def test_series_branch(self):
        assert phi1(1e-9) == 1.0 + 0.5e-9

    @settings(deadline=None, max_examples=50)
    @given(z=st.floats(-700.0, 20.0))
    def test_phi_pair_consistency(self, z):
        J = moments(np.array([z]), 2)
        p1, p2, p3 = J[0], J[0] - J[1], 0.5 * (J[0] - 2.0 * J[1] + J[2])
        assert rel_err(p1[0], phi1(z)) < 1e-13
        # phi2(z) = (phi1(z) - 1)/z away from the origin
        if abs(z) > 1e-3:
            assert rel_err(p2[0], (phi1(z) - 1.0) / z) < 1e-10
        # phi3(z) = (phi2(z) - 1/2)/z, which cancels more near the origin
        if abs(z) > 1e-2:
            p2_ref = (phi1(z) - 1.0) / z
            assert rel_err(p3[0], (p2_ref - 0.5) / z) < 1e-10


    @pytest.mark.parametrize("z", [-1e4, -7e5])
    def test_stiff_left_step_weight(self, z):
        # h*J_1(h*lam) with h = 1: (1 - (1 - z) e^z)/z**2, e^z below rounding
        _, left, _ = _step_tables(np.array([0.0, 1.0]), np.array([z]))
        want = float((1 - (1 - mp.mpf(z)) * mp.exp(z)) / mp.mpf(z)**2)
        assert rel_err(left[0, 0], want) < 1e-14


def _loop_convolve(tables, G):
    """The one-step recurrence v_{i+1} = e_i v_i + wl_i G_i + wr_i G_{i+1},
    one step at a time: the reference for the doubling scan."""
    e, wl, wr = tables
    out = np.zeros_like(G)
    for i in range(e.shape[0]):
        out[i + 1] = e[i] * out[i] + (wl[i] * G[i] + wr[i] * G[i + 1])
    return out


class TestDuhamelConvolve:
    def test_zero_forcing(self):
        op = diagonal_operator([-1.0, -2.0])
        grid = sr.make_graded_grid(1.0, 16)
        g = sr.Trajectory(grid, np.zeros((17, 2)))
        assert np.all(sr.duhamel_convolve(op, g).coeffs == 0.0)

    def test_lam_zero_integrates_time(self):
        op = diagonal_operator([0.0])
        grid = sr.make_graded_grid(2.0, 10, 2.0)
        g = sr.Trajectory(grid, np.ones((11, 1)))
        v = sr.duhamel_convolve(op, g)
        assert np.array_equal(v.coeffs[:, 0], grid.nodes)

    def test_constant_forcing_closed_form(self):
        op = diagonal_operator([-1.0])
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
        op = diagonal_operator([lam])
        grid = sr.make_graded_grid(1.5, 12, 1.7)
        g = sr.Trajectory(grid, (2.0 - 3.0 * grid.nodes)[:, None])
        v = sr.duhamel_convolve(op, g)
        for i in (1, 5, 12):
            t = mp.mpf(grid.nodes[i])
            want = float(mp.quad(lambda s: mp.exp(lam * (t - s)) * (2 - 3 * s),
                                 [0, t]))
            assert abs(v.coeffs[i, 0] - want) < 1e-15

    def test_linearity(self):
        op = diagonal_operator([-1.0, -9.0])
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
        op = diagonal_operator([-2.0])
        grid = sr.make_graded_grid(1.0, 16)
        rng = np.random.default_rng(1)
        g = rng.standard_normal((17, 1))
        v = sr.duhamel_convolve(op, sr.Trajectory(grid, g)).coeffs
        g2 = g.copy()
        g2[9:] += 5.0  # perturb only later nodes
        v2 = sr.duhamel_convolve(op, sr.Trajectory(grid, g2)).coeffs
        assert np.array_equal(v[:9], v2[:9])
        assert not np.array_equal(v[9:], v2[9:])

    def test_prebuilt_tables_identical(self):
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 32, 2.0)
        rng = np.random.default_rng(4)
        g = sr.Trajectory(grid, rng.standard_normal((33, 8)))
        # picard_recover builds the grid's tables once and convolves every
        # sweep's forcing through the private helper
        tables = _step_tables(grid.nodes, op.eigenvalues)
        prebuilt = np.zeros_like(g.coeffs)
        prebuilt[1:] = _convolve(tables, g.coeffs[1:],
                                 tables[1][0] * g.coeffs[0])
        assert np.array_equal(prebuilt, sr.duhamel_convolve(op, g).coeffs)

    @pytest.mark.parametrize("rows", [1, 2, 7, 64, 100])
    @pytest.mark.parametrize("flat", [False, True], ids=["random", "lam0"])
    def test_prebuilt_spans_identical(self, rows, flat):
        # picard_recover and each forward window build the scan's spans
        # once and reuse them every sweep: the bytes of spans formed per
        # call, and of the doubling scan that updates its spans in place
        rng = np.random.default_rng(rows)
        e = rng.uniform(0.2, 1.5, (rows, 6))
        if flat:
            e[:, 0] = 1.0    # a lam = 0 column, summed by np.cumsum
        spans = _spans(e)
        for x in rng.standard_normal((2, rows, 6)):
            want = _scan(e, x.copy())
            assert _scan(e, x.copy(), spans).tobytes() == want.tobytes()
            # reference: the doubling scan updating its spans in place
            ref, span, d = x.copy(), e.copy(), 1
            while d < rows:
                ref[d:] += span[d:] * ref[:-d]
                span[d:] = span[d:] * span[:-d]
                d *= 2
            if flat:
                ref[:, 0] = np.cumsum(x[:, 0])
            assert ref.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op, T, n, r", [
        (sr.build_fourth_order(32, 1.0), 0.5, 64, 4.0),
        (sr.build_fourth_order(32, 1.0), 0.5, 1000, 2.0),
        (diagonal_operator([3.0, 1.0, 0.0, -0.5, -40.0]), 1.0, 128, 1.0),
        (diagonal_operator([8.0, 3.0, 0.5, -0.5, -40.0]), 1.0, 1000, 2.0),
    ], ids=["stiff", "stiff-n1000", "growing", "growing-n1000"])
    def test_scan_matches_sequential_loop(self, op, T, n, r):
        # eigenvalues down to -32**4, and positive ones where |e| > 1 and
        # the products the scan forms grow, next to a lam = 0 column that is
        # summed in order; relative to the size of the terms summed (the
        # recurrence run on absolute values), since a random forcing's sums
        # cancel
        grid = sr.make_graded_grid(T, n, r)
        tables = _step_tables(grid.nodes, op.eigenvalues)
        G = np.random.default_rng(5).standard_normal((n + 1, op.n_modes))
        want = _loop_convolve(tables, G)
        size = _loop_convolve([np.abs(t) for t in tables], np.abs(G))
        got = sr.duhamel_convolve(op, sr.Trajectory(grid, G)).coeffs
        assert np.all(np.abs(got - want) <= 1e-14 * size)


class TestForwardSolve:
    def test_heat_decay(self):
        # oracle: exp(-1) for the first mode after unit time
        op = diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 64)
        u = sr.forward_solve(op, [1.0], sr.Zero(), grid)
        assert rel_err(u.coeffs[-1, 0], 0.36787944117144233) < 1e-15

    def test_zero_state_fixed_point(self):
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        grid = sr.make_graded_grid(1.0, 32)
        u = sr.forward_solve(op, np.zeros(8), sr.PowerLaw(1.0, 1.0), grid)
        assert np.all(u.coeffs == 0.0)

    def test_stationary_mode(self):
        op = diagonal_operator([0.0])
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
        op = diagonal_operator([0.0])
        grid = sr.make_graded_grid(0.2, 128)
        f = sr.MemoryKernel(1.0, 0.0, 1.0)
        u = sr.forward_solve(op, [0.1], f, grid)
        t = grid.nodes
        leading = 0.1 + 0.1 * 0.1 * t**2 / 2.0
        assert np.max(np.abs(u.coeffs[:, 0] - leading)) < 1e-5


class TestForwardSolveMemoryKernel:
    OP = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
    U0 = np.array([0.5, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("lambda_exp, r", [(0.0, 1.0), (-0.5, 2.0)])
    def test_second_order_convergence(self, lambda_exp, r):
        # max error against n = 2048 drops ~4x per grid doubling; the
        # singular kernel runs on a graded grid
        f = sr.MemoryKernel(1.0, lambda_exp, 1.0)

        def solve(n):
            grid = sr.make_graded_grid(0.5, n, r)
            return sr.forward_solve(self.OP, self.U0, f, grid).coeffs

        reference = solve(2048)
        errors = [np.max(np.abs(solve(n) - reference[:: 2048 // n]))
                  for n in (64, 128, 256)]
        for coarse, fine in zip(errors[:-1], errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize("f", [sr.PowerLaw(1.0, 1.0),
                                   sr.MemoryKernel(1.0, -0.5, 1.0)],
                             ids=["power", "memory"])
    def test_mild_solution_identity(self, f):
        # the node-by-node march satisfies u = e^{tA} u0 + conv(f(u)) with
        # the forcing evaluated trajectory-wide
        grid = sr.make_graded_grid(0.5, 64, 2.0)
        u = sr.forward_solve(self.OP, self.U0, f, grid)
        hom = np.exp(np.outer(grid.nodes, self.OP.eigenvalues)) * self.U0
        mild = hom + sr.duhamel_convolve(self.OP,
                                         f.eval_trajectory(u, self.OP)).coeffs
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(u.coeffs - mild)) <= 1e-13 * scale

    def test_history_memory_linear_in_nodes(self):
        # the march keeps O(n m) state; an (n + 1)**2 history matrix at 4,097
        # nodes would take 134 MB
        grid = sr.make_graded_grid(0.5, 4096)
        f = sr.MemoryKernel(1.0, -0.5, 1.0)
        tracemalloc.start()
        try:
            sr.forward_solve(self.OP, 0.1 * self.U0, f, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_repeated_solves_same_bytes(self):
        # the history rows live in buffers each solve allocates once, so
        # nothing carries over from one solve to the next, also across grids
        f = sr.MemoryKernel(1.0, -0.5, 1.0)
        grid = sr.make_graded_grid(0.5, 200, 4.0)
        first = sr.forward_solve(self.OP, self.U0, f, grid).coeffs
        again = sr.forward_solve(self.OP, self.U0, f, grid).coeffs
        sr.forward_solve(self.OP, -self.U0, f, sr.make_graded_grid(0.5, 90))
        last = sr.forward_solve(self.OP, self.U0, f, grid).coeffs
        assert first.tobytes() == again.tobytes() == last.tobytes()

    @pytest.mark.parametrize("f", [sr.PowerLaw(1.0, 1.0),
                                   sr.MemoryKernel(1.0, -0.5, 1.0)],
                             ids=["power", "memory"])
    def test_overflow_carries_step(self, f):
        grid = sr.make_graded_grid(0.5, 16)
        with pytest.raises(sr.NumericFailureError) as info:
            sr.forward_solve(self.OP, np.full(8, 1e160), f, grid)
        # the payload of u0 itself overflows
        assert isinstance(info.value.step, int) and info.value.step == 0


class _CountingEvals:
    """Counts ``eval_node`` calls, the payload evaluations of a march, and
    the states they evaluate, one per row of a stack."""

    calls = 0
    rows = 0

    def eval_node(self, c, op):
        self.calls += 1
        self.rows += c.shape[0] if c.ndim == 2 else 1
        return super().eval_node(c, op)


class CountingPowerLaw(_CountingEvals, sr.PowerLaw):
    pass


class CountingMemoryKernel(_CountingEvals, sr.MemoryKernel):
    pass


class _FailFirstStack(sr.PowerLaw):
    """A power law whose first stacked call fails as an overflow would; it
    records the length of every stack evaluated after that."""

    def __init__(self, kappa, ell):
        super().__init__(kappa, ell)
        self.lengths = None

    def eval_node(self, c, op):
        if c.ndim == 2:
            if self.lengths is None:
                self.lengths = []
                raise sr.NumericFailureError("injected failure")
            self.lengths.append(c.shape[0])
        return super().eval_node(c, op)


class TestCorrectorMarch:
    DIRICHLET = sr.build_second_order(32, 1.0, 0.0, "dirichlet")
    PINNED = sr.build_fourth_order(32, 1.0)

    @staticmethod
    def first_mode(amplitude, n_modes=32):
        u0 = np.zeros(n_modes)
        u0[0] = amplitude
        return u0

    @pytest.mark.parametrize("make_f, amplitude, n, bound", [
        (lambda: CountingPowerLaw(0.25, 1.0), 0.1, 256, 2.2),
        (lambda: CountingMemoryKernel(1.0, -0.5, 1.0), 0.5, 512, 2.8),
        (lambda: CountingPowerLaw(1.0, 1.0), 0.5, 64, 3.5),
    ], ids=["power", "memory", "power-coarse"])
    def test_payload_evaluations_per_step(self, make_f, amplitude, n, bound):
        # payload evaluations per step, counted as calls: the windowed march
        # makes 0.07 to 0.19 (test_payload_calls_batched), so these bounds,
        # set for a step-by-step corrector making 1.6 to 2.4, hold with room
        f = make_f()
        grid = sr.make_graded_grid(0.5, n, 4.0)
        sr.forward_solve(self.DIRICHLET, self.first_mode(amplitude), f, grid)
        assert f.calls / n <= bound

    @pytest.mark.parametrize("make_f, amplitude, n, calls, rows", [
        (lambda: CountingPowerLaw(0.25, 1.0), 0.1, 256, 0.09, 5.5),
        (lambda: CountingMemoryKernel(1.0, -0.5, 1.0), 0.5, 512, 0.10, 6.3),
        (lambda: CountingPowerLaw(1.0, 1.0), 0.5, 64, 0.24, 14.3),
    ], ids=["power", "memory", "power-coarse"])
    def test_payload_calls_batched(self, make_f, amplitude, n, calls, rows):
        # a sweep evaluates a whole window of up to 64 states in one call:
        # 0.070, 0.078 and 0.19 calls and 4.3, 4.9 and 11.0 states per step
        # here, where a step-by-step corrector makes 1.9 to 3.3 calls of one
        # state each
        f = make_f()
        grid = sr.make_graded_grid(0.5, n, 4.0)
        sr.forward_solve(self.DIRICHLET, self.first_mode(amplitude), f, grid)
        assert f.calls / n <= calls
        assert f.rows / n <= rows

    def test_hopeless_window_halved_early(self):
        # the first windows of this march cannot settle within the sweep cap:
        # running each to the cap costs 2.75 calls and 58.6 states per step,
        # halving each once its contraction ratios show it costs 1.9 and 23
        op = sr.build_second_order(16, 1.0, 1.0, "neumann")
        f = CountingMemoryKernel(1.0, -0.9, 1.0)
        grid = sr.make_graded_grid(0.5, 64, 4.0)
        sr.forward_solve(op, self.first_mode(0.5, 16), f, grid)
        assert f.calls / 64 <= 2.2
        assert f.rows / 64 <= 30.0

    def test_window_rows_match_one_shot(self, monkeypatch):
        # the rows each window reads from the march's kept buffer, also
        # after the window is halved, are the bytes of one-shot rows
        seen = []
        window = duhamel._window

        def recording(f, op, hom, tables, conv, g, rows, payloads):
            seen.append((len(payloads) - 1, rows.copy()))
            return window(f, op, hom, tables, conv, g, rows, payloads)

        monkeypatch.setattr(duhamel, "_window", recording)
        op = sr.build_second_order(16, 1.0, 1.0, "neumann")
        f = sr.MemoryKernel(1.0, -0.9, 1.0)
        grid = sr.make_graded_grid(0.5, 64, 4.0)
        sr.forward_solve(op, self.first_mode(0.5, 16), f, grid)
        starts = [s for s, _ in seen]
        assert len(set(starts)) < len(starts)    # some window was halved
        for s, rows in seen:
            k = rows.shape[0]
            want = f.history_rows(grid.nodes, s + 1, s + k + 1)
            assert rows.tobytes() == want.tobytes()

    def test_second_order_on_graded_grid(self):
        # a graded grid's steps grow 15-fold at the start; the order must
        # stay 2
        op = TestForwardSolveMemoryKernel.OP
        u0 = TestForwardSolveMemoryKernel.U0
        f = sr.PowerLaw(1.0, 1.0)

        def solve(n):
            grid = sr.make_graded_grid(0.5, n, 4.0)
            return sr.forward_solve(op, u0, f, grid).coeffs

        reference = solve(2048)
        errors = [np.max(np.abs(solve(n) - reference[:: 2048 // n]))
                  for n in (64, 128, 256)]
        for coarse, fine in zip(errors[:-1], errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_failure_mid_march_keeps_step(self):
        # a memory kernel this strong stops contracting part way along this
        # grid, at step 9; the failure must name that step
        grid = sr.make_graded_grid(0.5, 16, 4.0)
        f = sr.MemoryKernel(1.0, -0.9, 1.0)
        with pytest.raises(sr.NumericFailureError) as info:
            sr.forward_solve(self.DIRICHLET, self.first_mode(2.0), f, grid)
        assert isinstance(info.value.step, int) and info.value.step == 9

    def test_window_halves_and_grows_back(self):
        # the failed first window is retried at 32 steps, after which the
        # windows double back to 64, and the march reaches the same states
        grid = sr.make_graded_grid(0.5, 256, 4.0)
        u0 = self.first_mode(0.1)
        f = _FailFirstStack(0.25, 1.0)
        u = sr.forward_solve(self.DIRICHLET, u0, f, grid).coeffs
        want = sr.forward_solve(self.DIRICHLET, u0, sr.PowerLaw(0.25, 1.0),
                                grid).coeffs
        assert f.lengths[0] == 32 and max(f.lengths) == 64
        assert np.max(np.abs(u - want)) <= 1e-14 * np.max(np.abs(want))

    def test_failure_past_first_window(self):
        # this march fails near the end of a 256-step grid, windows past the
        # first one; halving the failing window down to one step must name
        # the step that fails on its own
        op = sr.build_fourth_order(16, 1.0)
        grid = sr.make_graded_grid(0.5, 256, 4.0)
        f = sr.MemoryKernel(1.0, -0.9, 1.0)
        with pytest.raises(sr.NumericFailureError) as info:
            sr.forward_solve(op, self.first_mode(0.5, 16), f, grid)
        assert isinstance(info.value.step, int) and info.value.step == 253

    @settings(deadline=None, max_examples=60)
    @given(family=st.sampled_from(["dirichlet2", "pinned4", "neumann2"]),
           kind=st.sampled_from(["power", "memory"]),
           ell=st.sampled_from([1.0, 2.0]),
           lambda_exp=st.sampled_from([-0.5, -0.9]),
           log_norm=st.floats(-12.0, float(np.log10(2.0))),
           n=st.sampled_from([16, 64]),
           seed=st.integers(0, 2**32 - 1))
    def test_solves_or_names_step(self, family, kind, ell, lambda_exp,
                                  log_norm, n, seed):
        # every march either meets the mild-solution identity or raises a
        # typed failure carrying a step of the grid
        op = {"dirichlet2": lambda: sr.build_second_order(16, 1.0),
              "pinned4": lambda: sr.build_fourth_order(16, 1.0),
              "neumann2": lambda: sr.build_second_order(16, 1.0, 1.0,
                                                        "neumann")}[family]()
        f = (sr.PowerLaw(1.0, ell) if kind == "power"
             else sr.MemoryKernel(1.0, lambda_exp, ell))
        u0 = np.random.default_rng(seed).standard_normal(16)
        u0 *= 10.0**log_norm / np.linalg.norm(u0)
        grid = sr.make_graded_grid(0.5, n, 4.0)
        try:
            u = sr.forward_solve(op, u0, f, grid)
        except sr.NumericFailureError as err:
            assert isinstance(err.step, int) and 0 <= err.step <= n
            return
        hom = np.exp(np.outer(grid.nodes, op.eigenvalues)) * u0
        mild = hom + sr.duhamel_convolve(op, f.eval_trajectory(u, op)).coeffs
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(u.coeffs - mild)) <= 1e-13 * scale

    def test_step_after_subnormal_step(self):
        # the second step is 1e323 times the first, a ratio past the float
        # range
        grid = sr.TimeGrid(np.array([0.0, 5e-324, 0.5, 1.0]))
        op = diagonal_operator([-1.0, -2.0])
        u0 = np.array([0.1, 0.2])
        u = sr.forward_solve(op, u0, sr.Zero(), grid)
        want = np.exp(np.outer(grid.nodes, op.eigenvalues)) * u0
        assert ulp_close(u.coeffs, want, 4)
        u = sr.forward_solve(op, u0, sr.PowerLaw(1.0, 1.0), grid)
        assert np.all(np.isfinite(u.coeffs))

    @pytest.mark.parametrize("amplitude", [1e-12, 1e-3, 0.5])
    @pytest.mark.parametrize("f", [sr.PowerLaw(1.0, 1.0),
                                   sr.MemoryKernel(1.0, -0.5, 1.0)],
                             ids=["power", "memory"])
    def test_stiff_operator_solves(self, f, amplitude):
        # eigenvalues down to -32**4 = -1.05e6
        grid = sr.make_graded_grid(0.5, 64, 4.0)
        u = sr.forward_solve(self.PINNED, self.first_mode(amplitude), f, grid)
        assert np.all(np.isfinite(u.coeffs))

    @pytest.mark.parametrize("f", [sr.PowerLaw(1.0, 1.0),
                                   sr.MemoryKernel(1.0, -0.5, 1.0)],
                             ids=["power", "memory"])
    def test_mild_solution_identity_stiff(self, f):
        # as TestForwardSolveMemoryKernel.test_mild_solution_identity, on
        # pinned4 with 32 modes
        grid = sr.make_graded_grid(0.5, 64, 2.0)
        u0 = self.first_mode(0.5)
        u = sr.forward_solve(self.PINNED, u0, f, grid)
        hom = np.exp(np.outer(grid.nodes, self.PINNED.eigenvalues)) * u0
        mild = hom + sr.duhamel_convolve(
            self.PINNED, f.eval_trajectory(u, self.PINNED)).coeffs
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(u.coeffs - mild)) <= 1e-13 * scale


def exact_product_integral(nodes, values, b):
    """int_0^T b(t) u(t) dt for u linear between the nodes with the given
    values, in exact rationals: Simpson's rule, exact for b's pieces of
    degree <= 2 times a line, on every interval between the nodes and b's
    edges, with b evaluated from the piece that holds the interval."""
    T = nodes[-1]
    cuts = sorted({Fraction(float(t)) for t in nodes}
                  | {Fraction(float(e)) for e in b.edges if 0.0 < e < T})
    F = [Fraction(float(t)) for t in nodes]

    def u(t):
        i = min(np.searchsorted(nodes, float(t), side="right") - 1,
                len(nodes) - 2)
        lam = (t - F[i]) / (F[i + 1] - F[i])
        return Fraction(float(values[i])) * (1 - lam) \
            + Fraction(float(values[i + 1])) * lam

    total = Fraction(0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = (lo + hi) / 2
        p = min(np.searchsorted(b.edges, float(mid), side="right") - 1,
                len(b.coeffs) - 1)
        edge = Fraction(float(b.edges[p]))
        c = [Fraction(float(x)) for x in b.coeffs[p]]

        def bu(t):
            return sum(ck * (t - edge) ** k for k, ck in enumerate(c)) * u(t)

        total += (hi - lo) / 6 * (bu(lo) + 4 * bu(mid) + bu(hi))
    return total


class TestObserve:
    def test_zero_trajectory(self):
        op = diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 8)
        M = sr.observe(sr.Trajectory(grid, np.zeros((9, 1))), 1.0,
                       sr.WeightFunction.constant(1.0))
        assert np.all(M == 0.0)

    def test_constant_exact(self):
        op = diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 8)
        u = sr.Trajectory(grid, np.full((9, 1), 3.0))
        M = sr.observe(u, 1.0, sr.WeightFunction.constant(1.0))
        # a*c + int b*c = 3 + 3
        assert ulp_close(M[0], 6.0, 4)

    def test_trapezoid_accuracy(self):
        op = diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 4096)
        u = sr.Trajectory(grid, np.exp(-grid.nodes)[:, None])
        M = sr.observe(u, 0.0, sr.WeightFunction.constant(1.0))
        assert abs(M[0] - 0.6321205588285577) < 1e-7

    def test_weighted(self):
        # oracle: int_0^1 t * e^{-t} dt = 1 - 2/e, frozen at 40 digits
        op = diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 4096)
        u = sr.Trajectory(grid, np.exp(-grid.nodes)[:, None])
        M = sr.observe(u, 0.0, sr.WeightFunction.poly([0.0, 1.0]))
        assert abs(M[0] - 0.26424111765711533) < 1e-7

    @pytest.mark.parametrize("b", [
        sr.WeightFunction.poly([1.0, -0.5, 0.25]),
        # knots off every node, one before 0 and one past T
        sr.WeightFunction.table([-0.1, 0.13, 0.37, 0.71, 1.2],
                                [1.0, 0.6, 0.9, 0.2, 0.5]),
    ], ids=["poly", "table"])
    def test_exact_for_piecewise_linear_data(self, b):
        # product integration integrates b exactly against the
        # piecewise-linear interpolant of u, breakpoints included
        grid = sr.make_graded_grid(1.0, 16, 2.0)
        values = np.random.default_rng(3).uniform(0.5, 2.0, grid.nodes.size)
        M = sr.observe(sr.Trajectory(grid, values[:, None]), 0.0, b)
        want = exact_product_integral(grid.nodes, values, b)
        assert rel_err(M[0], float(want)) <= 1e-14

    def test_constant_weight_is_trapezoid(self):
        grid = sr.make_graded_grid(1.0, 16, 2.0)
        coeffs = np.random.default_rng(5).uniform(0.5, 2.0, (17, 6))
        u, b = sr.Trajectory(grid, coeffs), sr.WeightFunction.constant(2.5)
        assert ulp_close(sr.observe(u, 0.0, b), trapezoid(u, b), 4)
