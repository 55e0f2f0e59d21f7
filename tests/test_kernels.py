"""Exponential-weight integrals, observation diagonals, Beta function."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrec as sr
from specrec import kernels
from specrec.errors import IllPosedModeError, NumericFailureError
from specrec.kernels import moments
from _util import exp_weight_integral, rel_err, tail_weight, ulp_close

mp.mp.dps = 40

B1 = sr.ConstantWeight(1.0)

# frozen from the 40-digit oracle 1 - exp(-1)
ONE_MINUS_E_INV = 0.6321205588285577


def _moment_oracle(z, k):
    """J_k(z) = k!/(-z)**(k+1) (1 - e^z sum_{m<=k} (-z)**m/m!) at 160
    digits, enough to absorb the cancellation of the closed form, about
    9 (k + 1) digits at |z| = 1e-9."""
    if z == 0.0:
        return 1.0 / (k + 1)
    with mp.workdps(160):
        x = -mp.mpf(z)
        head = sum(x**m / mp.factorial(m) for m in range(k + 1))
        return float(mp.factorial(k) / x**(k + 1) * (1 - mp.exp(-x) * head))


def _tail_oracle(lam, s, T, pieces):
    """int_s^T b(t) e^{(t - s) lam} dt at 60 digits for b given as
    (lo, hi, coefficients in powers of t) pieces, through the antiderivative
    e^{(t - s) lam} sum_j (-1)**j b^(j)(t) / lam**(j + 1)."""
    with mp.workdps(60):
        lam, s, T = mp.mpf(lam), mp.mpf(s), mp.mpf(T)

        def antiderivative(c, t):
            acc = 0
            for j in range(len(c)):
                acc += (-1)**j * mp.polyval(c[::-1], t) / lam**(j + 1)
                c = [m * c[m] for m in range(1, len(c))]
            return mp.exp(lam * (t - s)) * acc

        total = mp.mpf(0)
        for lo, hi, c in pieces:
            lo, hi = max(mp.mpf(lo), s), min(mp.mpf(hi), T)
            if lo < hi:
                total += antiderivative(c, hi) - antiderivative(c, lo)
        return float(total)


def _table_pieces(times, values):
    out = []
    for t0, t1, v0, v1 in zip(times[:-1], times[1:], values[:-1], values[1:]):
        slope = (mp.mpf(v1) - v0) / (mp.mpf(t1) - t0)
        out.append((t0, t1, [v0 - slope * t0, slope]))
    return out


@functools.lru_cache(maxsize=None)
def _dense_oracle(z, k):
    return _moment_oracle(z, k)


class TestMoments:
    # both sides of the series/recurrence switch at |z| = 3, where every
    # kmax up to 6 switches, points on either side of |z| = 1 inside the
    # series branch, the stiff end and the origin
    @pytest.mark.parametrize("z", [
        -7e5, -1e4, -700.0, -50.0, -3.3, -3.0 - 1e-7, -3.0, -3.0 + 1e-7,
        -1.5, -1.0 - 1e-7, -1.0, -1.0 + 1e-7, -0.35, -1e-3, -1e-9, 0.0, 1e-9,
        0.35, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 3.0, 3.3, 20.0])
    def test_against_mpmath(self, z):
        J = moments(z, 3)
        assert J.shape == (4,)
        for k in range(4):
            assert rel_err(J[k], _moment_oracle(z, k)) < 1e-14
        # moments up to k = 8 enter polynomial weights of degree 6 and up
        J = moments(z, 8)
        for k in range(9):
            assert rel_err(J[k], _moment_oracle(z, k)) < 5e-14

    def test_shape_follows_input(self):
        z = np.array([[-2.0, 0.5, 0.0], [4.0, -0.1, -30.0]])
        J = moments(z, 2)
        assert J.shape == (3, 2, 3)
        assert np.array_equal(J[:, 1, 1], moments(-0.1, 2))

    # steps of 0.01 across both sides of every kmax's switch (|z| = 3 up to
    # kmax = 6, 3.38 at 7 and 3.76 at 8), and one ulp-scale step either
    # side of |z| = 3
    DENSE = np.concatenate([np.linspace(-4.0, 4.0, 801),
                            [-3.0 - 1e-7, -3.0 + 1e-7, 3.0 - 1e-7,
                             3.0 + 1e-7]])

    @pytest.mark.parametrize("kmax", range(9))
    def test_dense_grid_against_mpmath(self, kmax):
        J = moments(self.DENSE, kmax)
        for k in range(kmax + 1):
            want = [_dense_oracle(float(z), k) for z in self.DENSE]
            assert rel_err(J[k], want) < (1e-14 if k <= 3 else 5e-14)

    # kmax 9..12, the psi weights of polynomial weights of degree 7 to 10:
    # steps of 0.01 on [-6, 6], and 1e-7 either side of every switch from
    # kmax 7 on, at (kmax!)**(1/kmax) = 3.38, 3.76, 4.15, 4.53, 4.91, 5.29
    WIDE = np.concatenate([np.linspace(-6.0, 6.0, 1201)] + [
        [sign * (math.factorial(k) ** (1 / k) + step)
         for sign in (-1.0, 1.0) for step in (-1e-7, 1e-7)]
        for k in range(7, 13)])

    @pytest.mark.parametrize("kmax", range(9, 13))
    def test_wide_grid_against_mpmath(self, kmax):
        # the series alternates for z < 0, so its error grows with kmax: on
        # this grid at most 2.9e-14, 1.2e-13, 3.4e-13 and 4.0e-13 for kmax
        # 9..12; the bound is the one stated in ``moments``
        J = moments(self.WIDE, kmax)
        for k in range(kmax + 1):
            want = [_dense_oracle(float(z), k) for z in self.WIDE]
            assert rel_err(J[k], want) < 1e-12

    @settings(deadline=None, max_examples=80)
    @given(z=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=16),
           kmax=st.integers(0, 8))
    def test_entry_independent_of_batch(self, z, kmax):
        J = moments(np.array(z), kmax)
        for i, zi in enumerate(z):
            assert J[:, i].tobytes() == moments(zi, kmax).tobytes()


class TestWeightFunctions:
    def test_constant(self):
        b = sr.ConstantWeight(2.5)
        assert b.value_at_zero == 2.5
        assert not b.is_zero
        assert sr.ConstantWeight(0.0).is_zero
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(sr.InvalidParameterError):
                sr.ConstantWeight(value)

    def test_polynomial(self):
        b = sr.PolynomialWeight([1.0, 2.0])
        assert b.value_at_zero == 1.0
        assert b(1.0) == 3.0

    def test_tabulated(self):
        b = sr.TabulatedWeight([0.0, 1.0, 2.0], [1.0, 3.0, 0.0])
        assert b(0.5) == 2.0
        with pytest.raises(sr.InvalidParameterError):
            sr.TabulatedWeight([0.0, 0.0], [1.0, 1.0])


class TestExpWeightIntegral:
    def test_lam_zero_constant(self):
        assert exp_weight_integral(0.0, 2.0, B1) == 2.0

    def test_closed_form(self):
        got = exp_weight_integral(-1.0, 1.0, B1)
        assert abs(got - ONE_MINUS_E_INV) < 1e-15

    def test_series_limit(self):
        # oracle: 40-digit evaluation of (exp(T*lam) - 1)/lam at lam = -1e-12
        want = float((mp.exp(mp.mpf("-1e-12")) - 1) / mp.mpf("-1e-12"))
        got = exp_weight_integral(-1e-12, 1.0, B1)
        assert rel_err(got, want) < 1e-13

    @pytest.mark.parametrize("lam,T", [(-3.0, 2.0), (-0.1, 0.5), (2.0, 1.0)])
    def test_polynomial_vs_quadrature_oracle(self, lam, T):
        coeffs = [1.0, 2.0, -1.0, 0.5]
        b = sr.PolynomialWeight(coeffs)
        want = float(mp.quad(
            lambda t: (coeffs[0] + coeffs[1]*t + coeffs[2]*t**2
                       + coeffs[3]*t**3) * mp.exp(lam * t), [0, T]))
        assert rel_err(exp_weight_integral(lam, T, b), want) < 1e-13

    def test_tabulated_vs_quadrature_oracle(self):
        b = sr.TabulatedWeight([0.0, 0.5, 1.0], [1.0, 2.0, 0.5])
        want = float(mp.quad(lambda t: (1 + 2*t) * mp.exp(-2*t), [0, mp.mpf("0.5")])
                     + mp.quad(lambda t: (3.5 - 3*t) * mp.exp(-2*t),
                               [mp.mpf("0.5"), 1]))
        assert rel_err(exp_weight_integral(-2.0, 1.0, b), want) < 1e-12

    def test_tabulated_must_cover(self):
        b = sr.TabulatedWeight([0.0, 0.5], [1.0, 1.0])
        with pytest.raises(sr.InvalidParameterError):
            exp_weight_integral(-1.0, 1.0, b)

    def test_invalid_horizon(self):
        with pytest.raises(sr.InvalidParameterError):
            exp_weight_integral(-1.0, 0.0, B1)

    @settings(deadline=None, max_examples=40)
    @given(lam=st.floats(-40.0, 2.0), T=st.floats(0.05, 4.0))
    def test_constant_vs_oracle(self, lam, T):
        want = float(mp.quad(lambda t: mp.exp(mp.mpf(lam) * t), [0, mp.mpf(T)]))
        assert rel_err(exp_weight_integral(lam, T, B1), want) < 1e-13

    def test_taylor_stability_near_zero(self):
        # 4-term Taylor expansion of the integral for b = 1
        for z in (1e-4, -1e-4, 1e-6, 1e-8, 1e-10):
            T = 1.0
            lam = z / T
            taylor = T * (1 + z/2 + z**2/6 + z**3/24)
            got = exp_weight_integral(lam, T, B1)
            assert rel_err(got, taylor) < 1e-13


class TestTailWeight:
    def test_empty_interval(self):
        assert tail_weight(-7.3, 1.0, 1.0, B1) == 0.0

    def test_lam_zero(self):
        assert tail_weight(0.0, 0.5, 1.0, B1) == 0.5

    def test_full_interval_matches_integral(self):
        got = tail_weight(-1.0, 0.0, 1.0, B1)
        assert abs(got - ONE_MINUS_E_INV) < 1e-15

    def test_polynomial_shift(self):
        b = sr.PolynomialWeight([1.0, 2.0, -1.0])
        want = float(mp.quad(
            lambda t: (1 + 2*t - t**2) * mp.exp(-3 * (t - mp.mpf("0.7"))),
            [mp.mpf("0.7"), 2]))
        assert rel_err(tail_weight(-3.0, 0.7, 2.0, b), want) < 1e-13

    def test_out_of_range(self):
        with pytest.raises(sr.InvalidParameterError):
            tail_weight(-1.0, -0.1, 1.0, B1)
        with pytest.raises(sr.InvalidParameterError):
            tail_weight(-1.0, 1.5, 1.0, B1)

    @settings(deadline=None, max_examples=40)
    @given(lam=st.floats(-20.0, 1.0), s=st.floats(0.01, 0.99))
    def test_additivity(self, lam, s):
        # int_0^T = int_0^s + e^{s*lam} * int_s^T for constant weight
        T = 1.0
        whole = exp_weight_integral(lam, T, B1)
        head = exp_weight_integral(lam, s, B1)
        tail = tail_weight(lam, s, T, B1)
        assert rel_err(head + math.exp(s * lam) * tail, whole) < 1e-12


class TestModeWeights:
    def test_cancellation_to_one(self):
        # oracle: exp(-1) + (1 - exp(-1)) = 1 by the closed-form sum
        op = sr.diagonal_operator([-1.0])
        w = sr.mode_weights(op, 1.0, B1, 1.0)
        assert ulp_close(w.betas[0], 1.0, 4)

    def test_trivial_weights(self):
        op = sr.diagonal_operator([0.0])
        assert sr.mode_weights(op, 0.0, B1, 2.0).betas[0] == 2.0

    def test_identity_decomposition(self):
        op = sr.build_second_order(8, 1.0, 0.0, "dirichlet")
        w = sr.mode_weights(op, 0.7, B1, 1.3)
        decay = np.exp(1.3 * op.eigenvalues)
        phi0s = sr.mode_weights(op, 0.0, B1, 1.3).betas
        assert np.array_equal(w.betas, 0.7 * decay + phi0s)

    @pytest.mark.parametrize("a", [0.7, -1.3])
    def test_zero_weight_in_closed_form(self, a, monkeypatch):
        # b = 0 (problem E100): the terminal terms alone, with no march,
        # down to the stiffest mode
        def no_march(*args):
            raise AssertionError("a zero weight was marched")

        monkeypatch.setattr(kernels, "_march", no_march)
        op = sr.build_fourth_order(16, 1.0)
        w = sr.mode_weights(op, a, sr.ConstantWeight(0.0), 0.8)
        end = np.exp(0.8 * op.eigenvalues)
        assert w.betas.tobytes() == (a * end).tobytes()
        assert w.scales.tobytes() == (abs(a) * end).tobytes()

    def test_positivity_certificate(self):
        # nonnegative weight, nonnegative a, dissipative modes -> positive betas
        op = sr.build_second_order(12, 1.0, 0.5, "dirichlet")
        for b in (B1, sr.PolynomialWeight([0.5, 1.0]),
                  sr.TabulatedWeight([0.0, 2.0], [1.0, 0.5])):
            w = sr.mode_weights(op, 0.3, b, 2.0)
            assert np.all(w.betas > 0)

    def test_sign_changing_table_scale(self):
        # |1 - 2t| on [0, 1]: the scale integrates |b|, exactly
        # (e^lam - 1)/lam - 2 (e^{lam/2} - 1)^2 / lam^2
        lams = [2.0, -0.5, -3.0]
        b = sr.TabulatedWeight([0.0, 1.0], [1.0, -1.0])
        w = sr.mode_weights(sr.diagonal_operator(lams), 0.0, b, 1.0)
        want = [float(mp.expm1(lam) / lam
                      - 2 * mp.expm1(mp.mpf(lam) / 2) ** 2 / lam**2)
                for lam in lams]
        assert rel_err(w.scales, want) < 1e-12

    @pytest.mark.parametrize("b", [B1, sr.TabulatedWeight([0.0, 1.0], [1.0, 0.5])],
                             ids=["constant", "table"])
    def test_nonfinite_weight_names_mode(self, b):
        # e^{800} overflows: mode 1 cannot be observed in double precision
        op = sr.diagonal_operator([800.0, -1.0])
        with pytest.raises(NumericFailureError) as err:
            sr.mode_weights(op, 0.0, b, 1.0)
        assert err.value.mode == 1

    def test_monotone_in_eigenvalue(self):
        op = sr.build_second_order(10, 1.0, 0.0, "dirichlet")
        phi0s = sr.mode_weights(op, 0.0, B1, 1.0).betas
        # eigenvalues decrease with j, so phi0 must too
        assert np.all(np.diff(phi0s) < 0)


def _abs_pieces_oracle(edges, coeffs):
    """|b|'s pieces found one piece at a time, each split at the real roots
    that ``np.roots`` gives inside it and signed at its midpoint."""
    out_edges, out_coeffs = [edges[:1]], []
    for lo, hi, c in zip(edges[:-1], edges[1:], coeffs):
        r = np.roots(c[::-1])
        r = np.sort(r[np.isreal(r)].real)
        r = r[(r > 0.0) & (r < hi - lo)]
        left = np.concatenate([[0.0], r])
        right = np.concatenate([r, [hi - lo]])
        sign = np.sign(np.polynomial.polynomial.polyval(0.5 * (left + right), c))
        out_edges.append(np.concatenate([lo + r, [hi]]))
        out_coeffs.append(sign[:, None] * kernels._taylor_shift(
            np.tile(c, (left.size, 1)), left))
    return np.concatenate(out_edges), np.concatenate(out_coeffs)


def _two_march_scales(op, a, b, T):
    """The scales of ``mode_weights`` with |b| marched over its own pieces."""
    lam = op.eigenvalues
    edges, coeffs = _abs_pieces_oracle(*b.pieces(T))
    R = kernels._march(lam, *kernels._cut(edges, coeffs, edges))[0]
    return abs(a) * np.exp(T * lam) + R[0]


ONE_SIGNED = {
    "constant": B1,
    "negative-constant": sr.ConstantWeight(-2.0),
    "poly": sr.PolynomialWeight([1.0, -0.5, 0.25]),
    "negative-poly": sr.PolynomialWeight([-1.0, 0.5, -0.25]),
    "table": sr.TabulatedWeight([0.0, 0.2, 0.4, 0.5], [1.0, 0.7, 0.4, 0.2]),
    "negative-table": sr.TabulatedWeight([0.0, 0.3, 0.5], [-1.0, -0.0, -2.0]),
}
# weights with a root inside (0, T), where b changes sign or touches zero
SPLIT = {
    "table": sr.TabulatedWeight([0.0, 0.5], [1.0, -1.0]),
    "poly": sr.PolynomialWeight([0.0075, -0.2, 1.0]),
    "touching-poly": sr.PolynomialWeight([0.0625, -0.5, 1.0]),
    "table-with-zero-piece": sr.TabulatedWeight([0.0, 0.2, 0.5],
                                                [0.0, 0.0, 1.0]),
}


class TestAbsPieces:
    """|b|'s pieces equal, bit for bit, those of np.roots on every piece."""

    @staticmethod
    def _check(pieces):
        edges, coeffs, sign = kernels._abs_pieces(*pieces)
        want_edges, want_coeffs = _abs_pieces_oracle(*pieces)
        assert edges.tobytes() == want_edges.tobytes()
        assert coeffs.tobytes() == want_coeffs.tobytes()
        assert sign.size == coeffs.shape[0]

    @pytest.mark.parametrize("times,values", [
        ([0.0, 0.5, 1.0], [2.0, 2.0, 2.0]),        # flat
        ([0.0, 0.5, 1.0], [-2.0, -2.0, 3.0]),      # flat, then rising
        ([0.0, 0.4, 1.0], [0.0, 0.0, 1.0]),        # identically zero piece
        ([0.0, 0.4, 1.0], [-0.0, 0.0, -0.0]),      # zero everywhere
        ([0.0, 1.0], [1.0, -1.0]),                 # crosses zero inside
        ([0.0, 0.3, 0.7, 1.0], [1.0, -2.0, 3.0, -1.0]),
        ([0.0, 0.51, 1.0], [2.86, 0.0, -2.86]),    # root exactly on a knot
        ([0.0, 0.66, 1.0], [2.77, 0.0, -2.77]),    # an ulp short of the knot
        ([0.0, 0.73, 1.0], [1.66, 0.0, -1.66]),    # an ulp beyond the knot
        # a split piece whose start plus width rounds below its end
        ([0.0, 0.06, 0.88, 1.0], [1.0, 1.0, -1.0, -1.0]),
    ])
    def test_table_against_np_roots(self, times, values):
        self._check(sr.TabulatedWeight(times, values).pieces(1.0))

    @pytest.mark.parametrize("coeffs", [
        [1.0], [0.1875, -1.0, 1.0], [1.0, -0.5, 0.25], [0.25, -1.0, 1.0],
        [1.0, 2.0, 0.0, 0.0], [-0.1, 1.1, -3.0, 2.0]])
    def test_polynomial_against_np_roots(self, coeffs):
        self._check(sr.PolynomialWeight(coeffs).pieces(1.0))

    def test_root_within_1e_135_of_a_knot(self):
        # below about 1e-135, np.roots scales its 1 x 1 companion matrix and
        # returns a neighbour of -c0/c1; the closed form keeps -c0/c1
        T = 0.01171875
        pieces = sr.TabulatedWeight([0.0, T], [5.149479152831485e-218,
                                               -1.0]).pieces(T)
        c0, c1 = pieces[1][0]
        edges, _, sign = kernels._abs_pieces(*pieces)
        want_edges, _ = _abs_pieces_oracle(*pieces)
        assert edges[1] == -c0 / c1 != want_edges[1]
        assert edges[1] in (np.nextafter(want_edges[1], 0.0),
                            np.nextafter(want_edges[1], 1.0))
        assert sign.tolist() == [1.0, -1.0]

    # values are 0 or at least 1e-100 in magnitude, so that every root lies
    # 0 or more than 1e-135 from its piece's left knot (see above)
    @settings(deadline=None, max_examples=80)
    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, -0.0, 1.0, -1.0]),
               st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-100)),
               min_size=2, max_size=8),
           data=st.data())
    def test_random_table_against_np_roots(self, values, data):
        steps = data.draw(st.lists(st.floats(0.01, 1.0),
                                   min_size=len(values) - 1,
                                   max_size=len(values) - 1))
        times = np.concatenate([[0.0], np.cumsum(steps)])
        self._check(sr.TabulatedWeight(times, values).pieces(times[-1]))


class TestSingleMarch:
    """A b of one sign takes its scales from the march over b."""

    OP = sr.build_fourth_order(16, 1.0)

    @staticmethod
    def _count_marches(monkeypatch):
        calls = []
        march = kernels._march

        def counted(*args, **kwargs):
            calls.append(args)
            return march(*args, **kwargs)

        monkeypatch.setattr(kernels, "_march", counted)
        return calls

    @pytest.mark.parametrize("a", [0.0, -0.3])
    @pytest.mark.parametrize("name", sorted(ONE_SIGNED))
    def test_one_signed_weight_marches_once(self, name, a, monkeypatch):
        b = ONE_SIGNED[name]
        want = _two_march_scales(self.OP, a, b, 0.5)
        calls = self._count_marches(monkeypatch)
        w = sr.mode_weights(self.OP, a, b, 0.5)
        assert len(calls) == 1
        assert w.scales.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(SPLIT))
    def test_split_weight_marches_abs(self, name, monkeypatch):
        b = SPLIT[name]
        want = _two_march_scales(self.OP, 0.3, b, 0.5)
        calls = self._count_marches(monkeypatch)
        w = sr.mode_weights(self.OP, 0.3, b, 0.5)
        assert len(calls) == 2
        assert w.scales.tobytes() == want.tobytes()


class TestStiffWeights:
    """Tabulated and sign-uncertified polynomial weights on pinned4 with 32
    modes, where lambda_32 = -32**4: every integral is closed form, so the
    stiff modes are as accurate as the first."""

    OP = sr.build_fourth_order(32, 1.0)
    T = 0.5
    TABLE = ([0.0, 0.2, 0.4, 0.5], [1.0, 0.7, 0.4, 0.2])
    POLY = [1.0, -0.5, 0.25]
    WEIGHTS = {
        "table": (sr.TabulatedWeight(*TABLE), _table_pieces(*TABLE)),
        "poly": (sr.PolynomialWeight(POLY), [(0.0, 0.5, POLY)]),
    }

    @pytest.mark.parametrize("kind", ["table", "poly"])
    def test_mode_weights(self, kind):
        b, pieces = self.WEIGHTS[kind]
        w = sr.mode_weights(self.OP, 0.0, b, self.T)
        for j in (1, 13, 32):
            lam = self.OP.eigenvalues[j - 1]
            want = _tail_oracle(lam, 0.0, self.T, pieces)
            assert rel_err(w.betas[j - 1], want) < 1e-12
            # both weights are positive on [0, T], so |b| = b
            assert rel_err(w.scales[j - 1], want) < 1e-12

    @pytest.mark.parametrize("kind", ["table", "poly"])
    @pytest.mark.parametrize("s", [0.0, 0.2, 0.33])
    def test_tail_weight(self, kind, s):
        b, pieces = self.WEIGHTS[kind]
        lam = -32.0**4
        want = _tail_oracle(lam, s, self.T, pieces)
        assert rel_err(tail_weight(lam, s, self.T, b), want) < 1e-12

    @pytest.mark.parametrize("lam", [-1.0, -1e3, -32.0**4])
    @pytest.mark.parametrize("side", [-1.0, 0.0, 1.0],
                             ids=["ulp-below", "on-knot", "ulp-above"])
    def test_tail_weight_at_knot(self, lam, side):
        # s on the table's knot 0.2 or one ulp either side of it: the march
        # then starts with a piece one ulp wide, or with none
        b, pieces = self.WEIGHTS["table"]
        s = 0.2 if side == 0.0 else float(np.nextafter(0.2, side))
        want = _tail_oracle(lam, s, self.T, pieces)
        assert rel_err(tail_weight(lam, s, self.T, b), want) < 1e-12

    def test_scales_of_sign_changing_poly(self):
        # b = (t - 1/4)(t - 3/4) changes sign twice in [0, 1], so |b| is
        # split at both roots
        b = sr.PolynomialWeight([0.1875, -1.0, 1.0])
        pieces = [(0.0, 0.25, [0.1875, -1.0, 1.0]),
                  (0.25, 0.75, [-0.1875, 1.0, -1.0]),
                  (0.75, 1.0, [0.1875, -1.0, 1.0])]
        lams = [-1.0, -1e3, -1.05e6]
        w = sr.mode_weights(sr.diagonal_operator(lams), 0.0, b, 1.0)
        for j, lam in enumerate(lams):
            want = _tail_oracle(lam, 0.0, 1.0, pieces)
            assert rel_err(w.scales[j], want) < 1e-12


class TestInverseDiagonal:
    def test_lam_zero_gives_inverse_horizon(self):
        op = sr.diagonal_operator([0.0])
        w = sr.mode_weights(op, 0.0, B1, 2.0)
        assert 1.0 / w.betas[0] == 0.5

    def test_matches_closed_form(self):
        # oracle: lam/(exp(T*lam) - 1) at 40 digits = 1.581976706869326...
        op = sr.diagonal_operator([-1.0])
        w = sr.mode_weights(op, 0.0, B1, 1.0)
        got = 1.0 / w.betas[0]
        assert rel_err(got, 1.5819767068693264) < 1e-15

    def test_unit_beta(self):
        op = sr.diagonal_operator([-1.0])
        w = sr.mode_weights(op, 1.0, B1, 1.0)
        assert ulp_close(1.0 / w.betas[0], 1.0, 4)

    def test_ill_posed_mode_flagged(self):
        # constructed kernel: a = -int b e^{-lam (T-t)} dt makes beta_1 = 0
        op = sr.diagonal_operator([-1.0, -4.0])
        a = -math.exp(1.0) * exp_weight_integral(-1.0, 1.0, B1)
        cond = sr.ConditionE(a, B1, np.zeros(2))
        grid = sr.make_graded_grid(1.0, 8)
        with pytest.raises(IllPosedModeError) as err:
            sr.picard_recover(op, cond, sr.Zero(), grid,
                              sr.FractionalNormSpec(0.0, 0.0))
        assert err.value.modes == [1]


class TestBetaFunction:
    def test_unit(self):
        assert sr.beta_function(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_half_is_pi(self):
        assert sr.beta_function(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_integers(self):
        # 1!*2!/4! = 1/12
        assert sr.beta_function(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(sr.InvalidParameterError):
            sr.beta_function(0.0, 1.0)
        with pytest.raises(sr.InvalidParameterError):
            sr.beta_function(1.0, -2.0)

    @settings(deadline=None, max_examples=60)
    @given(x=st.floats(1e-3, 10.0), y=st.floats(1e-3, 10.0))
    def test_accuracy_against_mpmath(self, x, y):
        want = float(mp.beta(mp.mpf(x), mp.mpf(y)))
        assert rel_err(sr.beta_function(x, y), want) < 1e-12
