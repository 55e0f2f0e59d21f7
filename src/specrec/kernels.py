"""Stable scalar kernels for exponential-weight integrals.

Everything the recovery operators need reduces per mode to integrals of the
form ``int b(t) exp(t*lam) dt`` and their tail variants.  Every weight is
piecewise polynomial on [0, T], so every such integral is a finite sum of
the moments J_k(z) = int_0^1 s**k exp(z*s) ds, which one evaluator supplies
in closed form (with a series branch near z = 0 to avoid cancellation).
One backward march over the weight's polynomial pieces turns these sums
into the tail part of the recovery's psi weights, the weight's part of the
per-mode denominators and scales, and ``tail_weight``.  The Beta function
used by the well-posedness estimates lives here too.
"""

import math

import numpy as np

from .errors import InvalidParameterError, NumericFailureError

# --------------------------------------------------------------------------
# moments  J_k(z) = int_0^1 s**k exp(z*s) ds
# --------------------------------------------------------------------------

# Below |z| = 3 the series gives J_kmax, where 30 terms reach rounding
# (3**30 / 30! < 1e-18), and the downward recurrence the lower moments;
# above it the upward recurrence multiplies the error of J_{k-1} by
# k/|z| < k/3.
_SERIES_TERMS = 30
_SERIES_CUTOFF = 3.0


def moments(z, kmax):
    """J_k(z) for k = 0..kmax, shape (kmax + 1,) + z.shape.

    For |z| < 3, where the by-parts recurrence J_k = (e^z - k J_{k-1}) / z
    cancels, J_kmax is the series sum_m z**m / (m! (m + kmax + 1)) and the
    lower moments follow from J_{k-1} = (e^z - z J_k) / k; the upward
    recurrence elsewhere.
    The phi functions are phi1 = J_0, phi2 = J_0 - J_1 and
    phi3 = (J_0 - 2 J_1 + J_2) / 2.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    small = np.abs(flat) < _SERIES_CUTOFF
    zr = np.where(small, 1.0, flat)
    ez = np.exp(zr)
    out = np.empty((kmax + 1, flat.size))
    out[0] = np.expm1(zr) / zr
    for k in range(1, kmax + 1):
        out[k] = (ez - k * out[k - 1]) / zr
    if small.any():
        # Horner for J_kmax, evaluated only where the series is needed
        zs = flat[small]
        acc = np.zeros_like(zs)
        for m in range(_SERIES_TERMS - 1, -1, -1):
            acc = acc * zs + 1.0 / (math.factorial(m) * (m + kmax + 1))
        out[kmax, small] = acc
        es = np.exp(zs)
        for k in range(kmax, 0, -1):
            acc = (es - zs * acc) / k
            out[k - 1, small] = acc
    return out.reshape((kmax + 1,) + z.shape)


# --------------------------------------------------------------------------
# weight functions
# --------------------------------------------------------------------------

class WeightFunction:
    """Scalar time weight b on [0, T]."""

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
        if not math.isfinite(self.value):
            raise InvalidParameterError("constant weight must be finite")

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


def _cut(edges, coeffs, points):
    """b's pieces (edges, coeffs) cut at the sorted points, which span the
    part of [0, T] to march over and include every edge inside it.  Returns
    the widths w of the new pieces and c with b(lo + w tau) =
    sum_m c[p, m] tau**m on each piece [lo, lo + w]."""
    lo = points[:-1]
    w = np.diff(points)
    p = np.searchsorted(edges, lo, side="right") - 1
    m = np.arange(coeffs.shape[1])
    return w, _taylor_shift(coeffs[p], lo - edges[p]) * w[:, None] ** m


def _march(lam, w, c, kmax=None):
    """R(t) = int_t^T b(s) e^{(s - t) lam} ds at every cut of the pieces
    from ``_cut``, shape (w.size + 1, lam.size), and the moments
    J_0..J_kmax at z = w lam (kmax defaults to b's degree).

    R marches back from R(T) = 0 by R(lo) = w sum_m c_m J_m(z) + e^z R(hi),
    so every exponent is <= 0 when lam <= 0.  A terminal term a e^{(T - t)
    lam} is not marched: its callers take it in closed form.
    """
    z = w[:, None] * lam
    J = moments(z, c.shape[1] - 1 if kmax is None else kmax)
    inner = w[:, None] * np.einsum("pm,mpj->pj", c, J[:c.shape[1]])
    step = np.exp(z)
    R = np.empty((w.size + 1, lam.size))
    R[-1] = 0.0
    for i in range(w.size - 1, -1, -1):
        R[i] = inner[i] + step[i] * R[i + 1]
    return R, J


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


def tail_weight(lam, s, T, b):
    """int_s^T b(t) exp((t - s)*lam) dt; zero at s = T."""
    edges, coeffs = _pieces(b, T)
    if not 0.0 <= s <= T:
        raise InvalidParameterError("s must lie in [0, T]")
    points = np.concatenate([[s], edges[edges > s]])
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return float(_march(lam, *_cut(edges, coeffs, points))[0][0, 0])


def exp_weight_integral(lam, T, b):
    """int_0^T b(t) exp(t*lam) dt."""
    return tail_weight(lam, 0.0, T, b)


# --------------------------------------------------------------------------
# per-mode observation weights
# --------------------------------------------------------------------------

class ModeWeights:
    """Per-mode scalars diagonalizing the observation operators.

    betas[j]  = a*exp(T*lambda_j) + int_0^T b(t) exp(t*lambda_j) dt
    scales[j] = |a|*exp(T*lambda_j) + int_0^T |b(t)| exp(t*lambda_j) dt
    """

    def __init__(self, betas, scales):
        self.betas = betas
        self.scales = scales
        finite = np.isfinite(betas) & np.isfinite(scales)
        if not finite.all():
            j = int(np.argmin(finite))
            raise NumericFailureError(
                f"non-finite observation weight at mode {j + 1}", mode=j + 1)
        for arr in (betas, scales):
            arr.setflags(write=False)

    @property
    def n_modes(self):
        return self.betas.size


def mode_weights(op, a, b, T):
    """Diagonal observation weights for all modes of an operator.  The
    terminal terms a e^{T lam} and |a| e^{T lam} are taken in closed form;
    the march over b's pieces, and over |b|'s, adds R(0), and runs only for
    a nonzero b.  An a of 0 adds no terminal term."""
    lam = op.eigenvalues
    edges, coeffs = _pieces(b, T)
    betas = scales = np.zeros(lam.size)
    # an overflowing unstable mode is reported by ModeWeights, with its index
    with np.errstate(over="ignore", invalid="ignore"):
        if a != 0.0:
            end = np.exp(T * lam)
            betas, scales = a * end, abs(a) * end
        if not b.is_zero:
            betas = betas + _march(lam, *_cut(edges, coeffs, edges))[0][0]
            edges, coeffs = _abs_pieces(edges, coeffs)
            scales = scales + _march(lam, *_cut(edges, coeffs, edges))[0][0]
    return ModeWeights(betas, scales)


def beta_function(x, y):
    """Euler Beta function via log-gamma."""
    if not (x > 0 and y > 0):
        raise InvalidParameterError("Beta function arguments must be positive")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
