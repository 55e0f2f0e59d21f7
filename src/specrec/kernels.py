"""Stable scalar kernels for exponential-weight integrals.

Everything the recovery operators need reduces per mode to integrals of the
form ``int b(t) exp(t*lam) dt`` and their tail variants.  Every weight is
piecewise polynomial on [0, T], so every such integral is a finite sum of
the moments J_k(z) = int_0^1 s**k exp(z*s) ds, which one evaluator supplies
in closed form (with a series branch near z = 0 to avoid cancellation).  The
Beta function used by the well-posedness estimates lives here too.
"""

import math

import numpy as np

from .errors import (IllPosedModeError, InvalidParameterError,
                     NumericFailureError)

# Scale-relative tolerance below which a diagonal observation weight is
# treated as a genuine kernel element rather than harmless cancellation.
ILL_POSED_RTOL = 1e-10


# --------------------------------------------------------------------------
# moments  J_k(z) = int_0^1 s**k exp(z*s) ds
# --------------------------------------------------------------------------

_SERIES_TERMS = 30
_SERIES_CUTOFF = 1.0
# The recurrence multiplies the error of J_{k-1} by k/|z|, so moments past
# k = 3 take the series out to |z| = 3, where 40 terms reach rounding.
_HIGH_K_SERIES_TERMS = 40
_HIGH_K_SERIES_CUTOFF = 3.0


def moments(z, kmax):
    """J_k(z) for k = 0..kmax, shape (kmax + 1,) + z.shape.

    Series sum_m z**m / (m! (m + k + 1)) for |z| < 1 (|z| < 3 when
    kmax > 3), where the by-parts recurrence J_k = (e^z - k J_{k-1}) / z
    cancels; the recurrence elsewhere.
    The phi functions are phi1 = J_0, phi2 = J_0 - J_1 and
    phi3 = (J_0 - 2 J_1 + J_2) / 2.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    cutoff, terms = ((_SERIES_CUTOFF, _SERIES_TERMS) if kmax <= 3
                     else (_HIGH_K_SERIES_CUTOFF, _HIGH_K_SERIES_TERMS))
    small = np.abs(flat) < cutoff
    zr = np.where(small, 1.0, flat)
    ez = np.exp(zr)
    out = np.empty((kmax + 1, flat.size))
    out[0] = np.expm1(zr) / zr
    for k in range(1, kmax + 1):
        out[k] = (ez - k * out[k - 1]) / zr
    if small.any():
        # Horner, evaluated only where the series is needed
        zs = flat[small]
        for k in range(kmax + 1):
            acc = np.zeros_like(zs)
            for m in range(terms - 1, -1, -1):
                acc = acc * zs + 1.0 / (math.factorial(m) * (m + k + 1))
            out[k, small] = acc
    return out.reshape((kmax + 1,) + z.shape)


# --------------------------------------------------------------------------
# weight functions
# --------------------------------------------------------------------------

class WeightFunction:
    """Scalar time weight b on [0, T].

    ``sign_certificate`` asserts b >= 0 on the weight's domain; it is derived
    conservatively from the representation (never claimed when it cannot be
    proven from the data).
    """

    sign_certificate = False

    def __call__(self, t):
        raise NotImplementedError

    @property
    def value_at_zero(self):
        return float(self(0.0))

    @property
    def is_zero(self):
        raise NotImplementedError

    def pieces(self, T):
        """b on [0, T] as polynomial pieces (edges, coeffs): breakpoints
        0 = edges[0] < ... < edges[-1] = T, and coeffs[p] the Taylor
        coefficients of b about edges[p] in increasing degree."""
        raise NotImplementedError


class ConstantWeight(WeightFunction):
    """b(t) = value."""

    def __init__(self, value):
        self.value = float(value)
        self.sign_certificate = self.value >= 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.value)

    @property
    def is_zero(self):
        return self.value == 0.0

    def pieces(self, T):
        return np.array([0.0, T]), np.array([[self.value]])

    def __repr__(self):
        return f"ConstantWeight({self.value!r})"


class PolynomialWeight(WeightFunction):
    """b(t) = sum_k coeffs[k] * t**k (coefficients in increasing degree)."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise InvalidParameterError("polynomial coefficients must be a finite vector")
        self.coeffs = c.copy()
        self.coeffs.setflags(write=False)
        # all coefficients nonnegative is sufficient for b >= 0 on t >= 0
        self.sign_certificate = bool(np.all(c >= 0.0))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a in self.coeffs[::-1]:
            out = out * t + a
        return out

    @property
    def is_zero(self):
        return bool(np.all(self.coeffs == 0.0))

    def pieces(self, T):
        return np.array([0.0, T]), self.coeffs[None, :]

    def __repr__(self):
        return f"PolynomialWeight({list(self.coeffs)!r})"


class TabulatedWeight(WeightFunction):
    """Piecewise-linear weight through (times[i], values[i])."""

    def __init__(self, times, values):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise InvalidParameterError("table needs matching time/value vectors")
        if np.any(np.diff(t) <= 0):
            raise InvalidParameterError("table nodes must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise InvalidParameterError("table entries must be finite")
        self.times = t.copy()
        self.values = v.copy()
        self.times.setflags(write=False)
        self.values.setflags(write=False)
        self.sign_certificate = bool(np.all(v >= 0.0))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, self.times, self.values)

    def require_covers(self, T):
        if self.times[0] > 0.0 or self.times[-1] < T - 1e-12 * max(1.0, T):
            raise InvalidParameterError(
                f"table covers [{self.times[0]}, {self.times[-1]}], not [0, {T}]"
            )

    def pieces(self, T):
        self.require_covers(T)
        inner = self.times[(self.times > 0.0) & (self.times < T)]
        edges = np.concatenate([[0.0], inner, [T]])
        v = self(edges)
        return edges, np.column_stack([v[:-1], np.diff(v) / np.diff(edges)])

    @property
    def is_zero(self):
        return bool(np.all(self.values == 0.0))

    def __repr__(self):
        return f"TabulatedWeight({list(self.times)!r}, {list(self.values)!r})"


# --------------------------------------------------------------------------
# the integrals
# --------------------------------------------------------------------------

def _taylor_shift(coeffs, d):
    """Taylor coefficients about x + d[p] of the polynomial whose
    coefficients about x are coeffs[p], for every row p."""
    out = np.zeros_like(coeffs)
    for k in range(coeffs.shape[1]):
        for m in range(k + 1):
            out[:, m] += math.comb(k, m) * d ** (k - m) * coeffs[:, k]
    return out


def _poly_exp(coeffs, widths, lams):
    """int_0^w (sum_m coeffs[p, m] u**m) e^{u*lam} du for every row p with
    its width w = widths[p] and every lam, shape (rows, lams.size)."""
    J = moments(widths[:, None] * lams, coeffs.shape[1] - 1)
    powers = widths[:, None] ** np.arange(1, coeffs.shape[1] + 1)
    return np.einsum("pk,kpl->pl", coeffs * powers, J)


def _tail(lams, svals, edges, coeffs):
    """Tail integrals int_s^T b(t) e^{(t - s)*lam} dt of the piecewise
    polynomial b given by ``WeightFunction.pieces`` (T = edges[-1]), for
    every s in svals (all in [0, T]) and every lam, shape
    (svals.size, lams.size).

    The part in s's own piece is one moment sum; the later pieces add
    e^{(edge - s)*lam} times their backward suffix sum, so every exponent is
    <= 0 when lam <= 0.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    widths = np.diff(edges)
    whole = _poly_exp(coeffs, widths, lams)
    step = np.exp(widths[:, None] * lams)
    suffix = np.zeros((widths.size + 1, lams.size))
    for p in range(widths.size - 1, -1, -1):
        suffix[p] = whole[p] + step[p] * suffix[p + 1]
    p = np.clip(np.searchsorted(edges, svals, side="right") - 1,
                0, widths.size - 1)
    rest = edges[p + 1] - svals
    own = _poly_exp(_taylor_shift(coeffs[p], svals - edges[p]), rest, lams)
    return own + np.exp(rest[:, None] * lams) * suffix[p + 1]


def _abs_pieces(edges, coeffs):
    """The pieces of |b| for the pieces of b: each piece is split at its
    real roots inside it and takes its sign from its midpoint.  A root that
    rounds onto an edge is dropped, since |b| is at rounding level there."""
    out_edges, out_coeffs = [edges[:1]], []
    for lo, hi, c in zip(edges[:-1], edges[1:], coeffs):
        r = np.roots(c[::-1])
        r = np.sort(r[np.isreal(r)].real)
        r = r[(r > 0.0) & (r < hi - lo)]
        left = np.concatenate([[0.0], r])
        right = np.concatenate([r, [hi - lo]])
        sign = np.sign(np.polynomial.polynomial.polyval(0.5 * (left + right), c))
        out_edges.append(np.concatenate([lo + r, [hi]]))
        out_coeffs.append(sign[:, None] * _taylor_shift(
            np.tile(c, (left.size, 1)), left))
    return np.concatenate(out_edges), np.concatenate(out_coeffs)


def _pieces(b, T):
    if not T > 0:
        raise InvalidParameterError("T must be positive")
    if not isinstance(b, WeightFunction):
        raise InvalidParameterError("b must be a WeightFunction")
    return b.pieces(T)


def exp_weight_integral(lam, T, b):
    """int_0^T b(t) exp(t*lam) dt."""
    return float(_tail(lam, 0.0, *_pieces(b, T))[0, 0])


def tail_weight(lam, s, T, b):
    """int_s^T b(t) exp((t - s)*lam) dt; zero at s = T."""
    if not 0.0 <= s <= T:
        raise InvalidParameterError("s must lie in [0, T]")
    return float(_tail(lam, s, *_pieces(b, T))[0, 0])


# --------------------------------------------------------------------------
# per-mode observation weights
# --------------------------------------------------------------------------

class ModeWeights:
    """Per-mode scalars diagonalizing the observation operators.

    betas[j]  = a*exp(T*lambda_j) + int_0^T b(t) exp(t*lambda_j) dt
    phi0s[j]  = int_0^T b(t) exp(t*lambda_j) dt
    scales[j] = |a|*exp(T*lambda_j) + int_0^T |b(t)| exp(t*lambda_j) dt
    """

    def __init__(self, betas, phi0s, scales):
        self.betas = betas
        self.phi0s = phi0s
        self.scales = scales
        finite = np.isfinite(betas) & np.isfinite(phi0s) & np.isfinite(scales)
        if not finite.all():
            j = int(np.argmin(finite))
            raise NumericFailureError(
                f"non-finite observation weight at mode {j + 1}", mode=j + 1)
        for arr in (betas, phi0s, scales):
            arr.setflags(write=False)

    @property
    def n_modes(self):
        return self.betas.size


def mode_weights(op, a, b, T):
    """Diagonal observation weights for all modes of an operator."""
    edges, coeffs = _pieces(b, T)
    lam = op.eigenvalues
    # an overflowing unstable mode is reported by ModeWeights, with its index
    with np.errstate(over="ignore", invalid="ignore"):
        phi0s = _tail(lam, 0.0, edges, coeffs)[0]
        decay = np.exp(T * lam)
        betas = a * decay + phi0s
        scales = (abs(a) * decay
                  + _tail(lam, 0.0, *_abs_pieces(edges, coeffs))[0])
    return ModeWeights(betas, phi0s, scales)


def _require_nonvanishing(denoms, scales, tol=ILL_POSED_RTOL):
    """Raise IllPosedModeError naming the modes whose denominator is zero up
    to tol times its scale."""
    bad = np.nonzero(~(np.abs(denoms) > tol * scales))[0]
    if bad.size:
        modes = [int(j) + 1 for j in bad]
        raise IllPosedModeError(
            f"spectral condition violated at modes {modes}", modes)


def beta_function(x, y):
    """Euler Beta function via log-gamma."""
    if not (x > 0 and y > 0):
        raise InvalidParameterError("Beta function arguments must be positive")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
