"""Spectral core: operators, semigroup, norms, grids, transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrec as sr
from specrec.spectral import _row_norms
from _util import diagonal_operator, ulp_close

DIRICHLET3 = sr.build_second_order(3, 1.0, 0.0, "dirichlet")


def semigroup(op, t, c):
    """e^{tA} c, read off a zero-forcing forward solve, which applies the
    semigroup exactly from t = 0: row 1 of the grid 0, t, 2t (row 0 when
    t = 0)."""
    grid = sr.make_graded_grid(2.0 * t or 1.0, 2)
    u = sr.forward_solve(op, c, sr.Zero(), grid)
    return u.coeffs[1] if t else u.coeffs[0]


class TestOperators:
    def test_dirichlet_classic_eigenvalues(self):
        # classical sine eigenvalues of the second-derivative operator
        assert np.allclose(DIRICHLET3.eigenvalues, [-1.0, -4.0, -9.0], rtol=0, atol=0)
        assert DIRICHLET3.alpha == -1.0
        assert DIRICHLET3.label == "dirichlet2"

    def test_dirichlet_with_reaction(self):
        # oracle: evaluate -d*j**2 - c0 by hand
        op = sr.build_second_order(2, 2.0, 0.5, "dirichlet")
        assert np.allclose(op.eigenvalues, [-2.5, -8.5], rtol=0, atol=0)

    def test_neumann_eigenvalues(self):
        # oracle: -d*(j-1)**2 - c0
        op = sr.build_second_order(2, 1.0, 1.0, "neumann")
        assert np.allclose(op.eigenvalues, [-1.0, -2.0], rtol=0, atol=0)

    def test_neumann_zero_reaction_rejected(self):
        with pytest.raises(sr.AdmissibilityError):
            sr.build_second_order(4, 1.0, 0.0, "neumann")
        op = sr.build_second_order(4, 1.0, 0.0, "neumann", allow_zero_mode=True)
        assert op.eigenvalues[0] == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.build_second_order(3, -1.0, 0.0, "dirichlet")
        with pytest.raises(sr.InvalidParameterError):
            sr.build_second_order(3, 1.0, -0.5, "dirichlet")
        with pytest.raises(sr.InvalidParameterError):
            sr.build_fourth_order(3, 0.0)
        with pytest.raises(sr.InvalidParameterError):
            sr.build_second_order(8, 1.0, 0.0, "dirichlet", grid_size=8)

    @pytest.mark.parametrize("n,d1,d2,expected", [
        (2, 1.0, 0.0, [-1.0, -16.0]),   # -j**4
        (2, 1.0, 1.0, [-2.0, -20.0]),   # -j**4 - j**2
        (1, 3.0, 2.0, [-5.0]),          # -3 - 2
    ])
    def test_fourth_order(self, n, d1, d2, expected):
        op = sr.build_fourth_order(n, d1, d2)
        assert np.allclose(op.eigenvalues, expected, rtol=0, atol=0)
        assert op.alpha < 0

    @pytest.mark.parametrize("make", [
        lambda: sr.build_second_order(12, 1.3, 0.7, "dirichlet"),
        lambda: sr.build_second_order(9, 0.5, 2.0, "neumann"),
        lambda: sr.build_fourth_order(7, 2.0, 0.3),
    ])
    def test_discrete_orthonormality(self, make):
        op = make()
        gram = op.basis.T @ (op.weights[:, None] * op.basis)
        assert np.max(np.abs(gram - np.eye(op.n_modes))) <= 1e-10


class TestSemigroup:
    def test_identity_at_zero(self):
        out = semigroup(diagonal_operator([-1.0]), 0.0, [3.5])
        assert out[0] == 3.5

    def test_scalar_exponential(self):
        # oracle: exp(-1) to double precision
        out = semigroup(diagonal_operator([-1.0]), 1.0, [1.0])
        assert abs(out[0] - 0.36787944117144233) < 1e-16

    def test_modewise(self):
        out = semigroup(diagonal_operator([0.0, -2.0]), 0.5, [1.0, 1.0])
        assert out[0] == 1.0
        assert abs(out[1] - math.exp(-1.0)) < 1e-16

    @settings(deadline=None, max_examples=60)
    @given(
        # dyadic times and integer eigenvalues keep every product t*lam
        # exactly representable, so only the exponential's own rounding
        # enters the 4-ulp comparison
        t=st.integers(0, 128).map(lambda k: k / 64.0),
        s=st.integers(0, 128).map(lambda k: k / 64.0),
        lam=st.integers(-20, 0).map(float),
        c=st.floats(-10.0, 10.0),
    )
    def test_semigroup_law(self, t, s, lam, c):
        op = diagonal_operator([lam])
        once = semigroup(op, t + s, [c])
        twice = semigroup(op, t, semigroup(op, s, [c]))
        assert ulp_close(once, twice, 4)

    @settings(deadline=None, max_examples=40)
    @given(t=st.floats(0.0, 50.0), seed=st.integers(0, 10**6))
    def test_contractivity(self, t, seed):
        rng = np.random.default_rng(seed)
        op = sr.build_second_order(6, 1.0, 0.0, "dirichlet")
        c = rng.standard_normal(6)
        assert np.linalg.norm(semigroup(op, t, c)) \
            <= np.linalg.norm(c) * (1 + 1e-15)


class TestFractionalNorm:
    def test_theta_zero_is_euclidean(self):
        spec = sr.FractionalNormSpec(0.0, 17.0)
        assert sr.fractional_norm(DIRICHLET3, [1.0, 0.0, 0.0], spec) == 1.0

    def test_weighting(self):
        op = diagonal_operator([-1.0])
        # (0 - (-1))**0.5 * 2 = 2
        assert sr.fractional_norm(op, [2.0], sr.FractionalNormSpec(0.5, 0.0)) == 2.0
        op = diagonal_operator([-3.0])
        # (1 + 3)**0.5 = 2
        assert sr.fractional_norm(op, [1.0], sr.FractionalNormSpec(0.5, 1.0)) == 2.0

    def test_invalid_shift_rejected(self):
        op = diagonal_operator([-1.0])
        with pytest.raises(sr.InvalidParameterError):
            sr.fractional_norm(op, [1.0], sr.FractionalNormSpec(0.5, -1.0))

    def test_default_shift(self):
        assert sr.default_shift(DIRICHLET3) == 0.0
        op0 = sr.build_second_order(2, 1.0, 0.0, "neumann", allow_zero_mode=True)
        assert sr.default_shift(op0) == 1.0

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6),
           thetas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_monotone_in_theta_when_weights_exceed_one(self, seed, thetas):
        rng = np.random.default_rng(seed)
        op = sr.build_second_order(5, 1.0, 0.0, "dirichlet")
        c = rng.standard_normal(5)
        lo, hi = sorted(thetas)
        # delta0 = 1 makes every weight delta0 - lambda_j >= 2
        nlo = sr.fractional_norm(op, c, sr.FractionalNormSpec(lo, 1.0))
        nhi = sr.fractional_norm(op, c, sr.FractionalNormSpec(hi, 1.0))
        assert nhi >= nlo * (1 - 1e-12)

    @settings(deadline=None, max_examples=60)
    @given(t=st.floats(1e-6, 5.0), theta=st.floats(0.01, 1.0),
           seed=st.integers(0, 10**6))
    def test_smoothing_bound(self, t, theta, seed):
        rng = np.random.default_rng(seed)
        op = sr.build_second_order(8, 1.0, 0.5, "dirichlet")
        c = rng.standard_normal(8)
        spec = sr.FractionalNormSpec(theta, 0.0)
        lhs = t**theta * sr.fractional_norm(
            op, semigroup(op, t, c), spec)
        bound = (theta / math.e) ** theta * np.linalg.norm(c)
        assert lhs <= bound * (1 + 1e-12)


class TestTimeGrid:
    def test_uniform(self):
        grid = sr.make_graded_grid(1.0, 2, 1.0)
        assert np.allclose(grid.nodes, [0.0, 0.5, 1.0], rtol=0, atol=0)

    def test_graded(self):
        # oracle: (i/2)**2
        grid = sr.make_graded_grid(1.0, 2, 2.0)
        assert np.allclose(grid.nodes, [0.0, 0.25, 1.0], rtol=0, atol=0)

    def test_uniform_longer(self):
        grid = sr.make_graded_grid(2.0, 4, 1.0)
        assert np.allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0], rtol=0, atol=0)

    def test_endpoint_exact(self):
        grid = sr.make_graded_grid(0.7, 13, 3.7)
        assert grid.nodes[-1] == 0.7 and grid.T == 0.7
        assert np.all(np.diff(grid.nodes) > 0)

    def test_validation(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.make_graded_grid(-1.0, 4)
        with pytest.raises(sr.InvalidParameterError):
            sr.make_graded_grid(1.0, 1)
        with pytest.raises(sr.InvalidParameterError):
            sr.make_graded_grid(1.0, 4, 0.5)
        for nodes in ([0.0, 1.0], [0.1, 0.5, 1.0], [0.0, 1.0, 0.5],
                      [0.0, math.nan, 1.0], [0.0, 0.5, math.inf]):
            with pytest.raises(sr.InvalidParameterError):
                sr.TimeGrid(np.array(nodes))

    def test_default_grading_capped(self):
        assert sr.default_grading(0.25) == 4.0
        assert sr.default_grading(0.1) == 4.0
        assert sr.default_grading(0.5) == 2.0
        assert sr.default_grading(1.0) == 1.0


class TestWeightedSupNorm:
    def test_constant_trajectory(self):
        op = diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 8)
        u = sr.Trajectory(grid, np.ones((9, 1)))
        spec = sr.FractionalNormSpec(0.0, 0.0)
        assert sr.weighted_sup_norm(op, u, 0.0, spec) == 1.0

    def test_weight_cancels_singularity(self):
        op = diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 8)
        vals = np.zeros((9, 1))
        vals[1:, 0] = 1.0 / grid.nodes[1:]
        u = sr.Trajectory(grid, vals)
        spec = sr.FractionalNormSpec(0.0, 0.0)
        assert abs(sr.weighted_sup_norm(op, u, 1.0, spec) - 1.0) < 1e-14

    def test_zero_trajectory(self):
        op = diagonal_operator([-1.0])
        grid = sr.make_graded_grid(1.0, 4)
        u = sr.Trajectory(grid, np.zeros((5, 1)))
        assert sr.weighted_sup_norm(op, u, 0.3, sr.FractionalNormSpec(0.5, 0.0)) == 0.0


def _sup_norm_oracle(op, u, mu, spec):
    """The node-by-node loop: t_i**mu * ||w * c_i|| with w the spectral
    weight, over the nodes the origin rule admits."""
    w = (spec.delta0 - op.eigenvalues) ** spec.theta
    start = 0 if (mu == 0.0 and spec.theta == 0.0) else 1
    best = 0.0
    for i in range(start, u.grid.nodes.size):
        best = max(best, u.grid.nodes[i] ** mu
                   * np.linalg.norm(w * u.coeffs[i]))
    return best


class TestWeightedSupNormOracle:
    GRID = sr.make_graded_grid(0.7, 24, 2.0)

    # every case has a large row 0, which shows whether the origin rule
    # admits it; the one-value parameter keeps the cases' ids from when a
    # trajectory could also be built without its t = 0 row
    @pytest.mark.parametrize("large_origin", [True])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("theta", [0.0, 0.25])
    @pytest.mark.parametrize("delta0", [0.0, 1.0])
    @pytest.mark.parametrize("n_modes", [1, 7])
    def test_matches_node_loop(self, large_origin, mu, theta, delta0, n_modes):
        op = sr.build_second_order(n_modes, 1.0, 0.0, "dirichlet")
        spec = sr.FractionalNormSpec(theta, delta0)
        rng = np.random.default_rng(n_modes)
        for _ in range(5):
            c = rng.standard_normal((self.GRID.nodes.size, n_modes))
            c[0] *= 100.0
            u = sr.Trajectory(self.GRID, c)
            want = _sup_norm_oracle(op, u, mu, spec)
            got = sr.weighted_sup_norm(op, u, mu, spec)
            assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("theta", [0.0, 0.25])
    def test_zero_trajectory(self, theta):
        op = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
        u = sr.Trajectory(self.GRID, np.zeros((25, 4)))
        spec = sr.FractionalNormSpec(theta, 0.0)
        assert sr.weighted_sup_norm(op, u, 0.0, spec) == 0.0
        assert _sup_norm_oracle(op, u, 0.0, spec) == 0.0

    @pytest.mark.parametrize("mu, theta", [(0.0, 0.0), (0.3, 0.25)])
    def test_large_finite_data_does_not_overflow(self, mu, theta):
        # the sum of squares of a 1e200 row overflows; the norm does not
        op = sr.build_second_order(7, 1.0, 0.0, "dirichlet")
        spec = sr.FractionalNormSpec(theta, 0.0)
        c = np.random.default_rng(3).standard_normal((self.GRID.nodes.size, 7))
        u = sr.Trajectory(self.GRID, c)
        big = sr.Trajectory(self.GRID, 1e200 * c)
        want = 1e200 * _sup_norm_oracle(op, u, mu, spec)
        got = sr.weighted_sup_norm(op, big, mu, spec)
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-15 * want
        row = sr.fractional_norm(op, big.coeffs[5], spec)
        assert abs(row - 1e200 * sr.fractional_norm(op, c[5], spec)) \
            <= 1e-15 * row

    @pytest.mark.parametrize("value", [1e-170, 3e-160])
    def test_underflowing_row_keeps_its_digits(self, value):
        # the sum of squares of these rows is 0 or subnormal; the norm is
        # rescaled as an overflowing one is
        op = sr.build_second_order(4, 1.0, 0.0, "dirichlet")
        got = sr.fractional_norm(op, np.full(4, value),
                                 sr.FractionalNormSpec(0.0, 0.0))
        assert abs(got - 2.0 * value) <= 1e-15 * 2.0 * value

    @pytest.mark.parametrize("theta", [0.0, 0.25])
    def test_rows_in_range_keep_their_bytes(self, theta):
        # rows whose sum of squares neither overflows nor underflows take
        # the plain formula, next to rows that are rescaled or zero
        op = sr.build_second_order(7, 1.0, 0.0, "dirichlet")
        spec = sr.FractionalNormSpec(theta, 0.0)
        c = np.random.default_rng(5).standard_normal((6, 7))
        c *= np.array([1e-150, 1e-3, 1.0, 1e150, 1e-170, 0.0])[:, None]
        w = c * (-op.eigenvalues) ** theta
        plain = np.sqrt(np.einsum("ij,ij->i", w, w))
        got = _row_norms(op, c, spec)
        assert got[:4].tobytes() == plain[:4].tobytes()
        assert got[5] == 0.0
        assert abs(got[4] - 1e-170 * np.linalg.norm(w[4] / 1e-170)) \
            <= 1e-15 * got[4]

    def test_norm_beyond_float_range_is_inf(self):
        op = diagonal_operator([-1.0, -2.0])
        spec = sr.FractionalNormSpec(0.0, 0.0)
        assert sr.fractional_norm(op, [1.5e308, 1.5e308], spec) == math.inf


class TestTransforms:
    def test_zero_roundtrip(self):
        c = np.zeros(3)
        assert np.all(sr.analyze(DIRICHLET3, sr.synthesize(DIRICHLET3, c)) == 0.0)

    def test_single_mode_roundtrip(self):
        op = sr.build_second_order(1, 1.0, 0.0, "dirichlet")
        v = sr.synthesize(op, [1.0])
        expected = np.sqrt(2 / np.pi) * np.sin(op.points)
        assert np.allclose(v, expected, rtol=1e-15, atol=0)
        assert abs(sr.analyze(op, v)[0] - 1.0) <= 1e-10

    def test_two_mode_roundtrip(self):
        op = sr.build_second_order(2, 1.0, 0.0, "dirichlet")
        c = np.array([1.0, 1.0])
        back = sr.analyze(op, sr.synthesize(op, c))
        assert np.max(np.abs(back - c)) <= 1e-10

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10**6))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        op = sr.build_second_order(10, 1.0, 0.0, "dirichlet")
        c = rng.uniform(-5, 5, size=10)
        back = sr.analyze(op, sr.synthesize(op, c))
        assert np.max(np.abs(back - c)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.synthesize(DIRICHLET3, [1.0, 2.0])
        with pytest.raises(sr.InvalidParameterError):
            sr.analyze(DIRICHLET3, np.zeros(5))

    @pytest.mark.parametrize("op", [
        sr.build_second_order(12, 1.0, 0.0, "dirichlet"),
        sr.build_fourth_order(16, 1.0),
        diagonal_operator([-1.0, -3.0]),
    ], ids=["dirichlet2", "pinned4", "diagonal"])
    def test_stack_matches_rows(self, op):
        # a (k, .) stack transforms each row as a one-vector call does, to
        # the rounding of a matrix product against a matrix-vector one
        rng = np.random.default_rng(5)
        C = rng.standard_normal((7, op.n_modes))
        V = sr.synthesize(op, C)
        rows = np.array([sr.synthesize(op, c) for c in C])
        assert V.shape == (7, op.grid_size)
        assert np.max(np.abs(V - rows)) <= 1e-14 * np.max(np.abs(rows))
        back = sr.analyze(op, V)
        rows = np.array([sr.analyze(op, v) for v in V])
        assert back.shape == C.shape
        assert np.max(np.abs(back - rows)) <= 1e-14 * np.max(np.abs(rows))

    def test_stack_shape_checked(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.synthesize(DIRICHLET3, np.zeros((4, 2)))
        with pytest.raises(sr.InvalidParameterError):
            sr.analyze(DIRICHLET3, np.zeros((4, 5)))
        with pytest.raises(sr.InvalidParameterError):
            sr.synthesize(DIRICHLET3, np.zeros((2, 4, 3)))
        with pytest.raises(sr.InvalidParameterError):
            sr.analyze(DIRICHLET3, np.zeros((2, 4, DIRICHLET3.grid_size)))
