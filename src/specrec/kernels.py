"""Stable scalar kernels for exponential-weight integrals.

Everything the recovery operators need reduces per mode to integrals of the
form ``int b(t) exp(t*lam) dt`` and their tail variants.  Constant and
polynomial weights get closed forms built from the phi-function family (with
series branches near lam = 0 to avoid cancellation); tabulated weights fall
back to adaptive Gauss-Legendre panels.  The Beta function used by the
well-posedness estimates lives here too.
"""

import hashlib
import math

import numpy as np

from .errors import (IllPosedModeError, InvalidParameterError,
                     NumericFailureError)

# Scale-relative tolerance below which a diagonal observation weight is
# treated as a genuine kernel element rather than harmless cancellation.
ILL_POSED_RTOL = 1e-10

_PHI1_SMALL = 1e-8


def phi1(z):
    """(exp(z) - 1) / z with the series branch for |z| < 1e-8; phi1(0) = 1."""
    z = float(z)
    if abs(z) < _PHI1_SMALL:
        return 1.0 + 0.5 * z
    return math.expm1(z) / z


def _phi1_vec(z):
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI1_SMALL
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


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

    def fingerprint(self):
        """Stable identity hash of the weight's defining data."""
        return hashlib.sha1(self._key().encode()).hexdigest()[:16]

    def _key(self):
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

    def _key(self):
        return f"constant:{self.value!r}"

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

    def _key(self):
        return "poly:" + ",".join(repr(float(a)) for a in self.coeffs)

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

    @property
    def is_zero(self):
        return bool(np.all(self.values == 0.0))

    def _key(self):
        return ("table:" + ",".join(repr(float(x)) for x in self.times) + ";"
                + ",".join(repr(float(x)) for x in self.values))

    def __repr__(self):
        return f"TabulatedWeight({list(self.times)!r}, {list(self.values)!r})"


# --------------------------------------------------------------------------
# polynomial moments  J_k(z) = int_0^1 s**k exp(z*s) ds
# --------------------------------------------------------------------------

_SERIES_TERMS = 30
_SERIES_CUTOFF = 1.0


def _poly_moments(z, kmax):
    """J_k(z) for k = 0..kmax, vectorized over z.

    Series for |z| < 1 (the by-parts recurrence cancels there), exact
    integration-by-parts recurrence otherwise.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    small = np.abs(z) < _SERIES_CUTOFF
    out = np.empty((kmax + 1,) + z.shape)

    # Horner on sum_m z**m / (m! (m + k + 1)), holding no power table
    zs = np.where(small, z, 0.0)
    for k in range(kmax + 1):
        acc = np.zeros_like(zs)
        for m in range(_SERIES_TERMS - 1, -1, -1):
            acc = acc * zs + 1.0 / (math.factorial(m) * (m + k + 1))
        out[k] = acc

    zr = np.where(small, 1.0, z)
    ez = np.exp(np.where(small, 0.0, z))
    rec = np.expm1(np.where(small, 0.0, z)) / zr
    out[0] = np.where(small, out[0], rec)
    for k in range(1, kmax + 1):
        rec = (ez - k * rec) / zr
        out[k] = np.where(small, out[k], rec)
    return out


def _poly_exp_integral(coeffs, lam, T):
    """int_0^T (sum_k coeffs[k] t**k) exp(t*lam) dt, broadcast over lam, T
    and the entries of each coeffs[k]."""
    J = _poly_moments(lam * T, len(coeffs) - 1)
    return sum(a * T ** (k + 1) * J[k] for k, a in enumerate(coeffs))


def _shifted_poly_coeffs(coeffs, s):
    """Coefficients of t -> b(s + t) for polynomial b, broadcast over s."""
    return [sum(a * math.comb(k, m) * s ** (k - m)
                for k, a in enumerate(coeffs) if k >= m)
            for m in range(len(coeffs))]


# --------------------------------------------------------------------------
# adaptive Gauss-Legendre panels for tabulated weights
# --------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_DEPTH = 40


def _gl_panel(fn, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(_GL_WEIGHTS @ fn(mid + half * _GL_NODES))


def _adaptive_gl(fn, lo, hi, breakpoints=(), rel_tol=1e-12):
    """Panel-adaptive Gauss-Legendre with bisection refinement.

    The initial panels split at the supplied breakpoints (table kinks).
    Raises on non-convergence, carrying the achieved error estimate.
    """
    if hi <= lo:
        return 0.0
    cuts = [lo] + [b for b in sorted(breakpoints) if lo < b < hi] + [hi]
    scale = sum(_gl_panel(lambda t: np.abs(fn(t)), a, b)
                for a, b in zip(cuts[:-1], cuts[1:]))
    scale = max(scale, 1e-300)
    width = hi - lo

    def refine(a, b, coarse, tol_abs, depth):
        mid = 0.5 * (a + b)
        left = _gl_panel(fn, a, mid)
        right = _gl_panel(fn, mid, b)
        err = abs(left + right - coarse)
        if err <= tol_abs or err <= 1e-16 * scale:
            return left + right
        if depth >= _MAX_DEPTH:
            raise NumericFailureError(
                f"quadrature did not converge on [{a}, {b}]",
                error_estimate=err,
            )
        return (refine(a, mid, left, 0.5 * tol_abs, depth + 1)
                + refine(mid, b, right, 0.5 * tol_abs, depth + 1))

    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        tol_abs = rel_tol * scale * (b - a) / width
        total += refine(a, b, _gl_panel(fn, a, b), tol_abs, 0)
    return total


# --------------------------------------------------------------------------
# the integrals
# --------------------------------------------------------------------------

def exp_weight_integral(lam, T, b):
    """int_0^T b(t) exp(t*lam) dt."""
    if not T > 0:
        raise InvalidParameterError("T must be positive")
    return float(_exp_weight_integral_vec(np.array([lam], dtype=float), T, b)[0])


def _exp_weight_integral_vec(lams, T, b):
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if isinstance(b, ConstantWeight):
        return b.value * T * _phi1_vec(lams * T)
    if isinstance(b, PolynomialWeight):
        return _poly_exp_integral(b.coeffs, lams, T)
    if isinstance(b, TabulatedWeight):
        b.require_covers(T)
        out = np.empty_like(lams)
        for i, lam in enumerate(lams):
            out[i] = _adaptive_gl(lambda t: b(t) * np.exp(lam * t), 0.0, T,
                                  breakpoints=b.times)
        return out
    raise InvalidParameterError(f"unsupported weight type {type(b).__name__}")


def tail_weight(lam, s, T, b):
    """int_s^T b(t) exp((t - s)*lam) dt; zero at s = T."""
    if not 0.0 <= s <= T:
        raise InvalidParameterError("s must lie in [0, T]")
    return float(_tail_weight_matrix(np.array([lam], dtype=float),
                                     np.array([s], dtype=float), T, b)[0, 0])


def _tail_weight_matrix(lams, svals, T, b):
    """Tail integrals int_s^T b(t) exp((t - s)*lam) dt for every s in svals
    (all in [0, T]) and every lam, shape (svals.size, lams.size)."""
    span = (T - svals)[:, None]
    if isinstance(b, ConstantWeight):
        return b.value * span * _phi1_vec(span * lams)
    if isinstance(b, PolynomialWeight):
        shifted = _shifted_poly_coeffs(b.coeffs, svals[:, None])
        return _poly_exp_integral(shifted, lams, span)
    if isinstance(b, TabulatedWeight):
        b.require_covers(T)
        out = np.empty((svals.size, lams.size))
        for q, s in enumerate(svals):
            for i, lam in enumerate(lams):
                out[q, i] = _adaptive_gl(
                    lambda t: b(t) * np.exp(lam * (t - s)), s, T,
                    breakpoints=b.times)
        return out
    raise InvalidParameterError(f"unsupported weight type {type(b).__name__}")


def _abs_weight_integral_vec(lams, T, b):
    """int_0^T |b(t)| exp(t*lam) dt, used as the ill-posedness scale."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if isinstance(b, ConstantWeight):
        return abs(b.value) * T * _phi1_vec(lams * T)
    if isinstance(b, PolynomialWeight):
        if b.sign_certificate:
            return _poly_exp_integral(b.coeffs, lams, T)
        out = np.empty_like(lams)
        for i, lam in enumerate(lams):
            out[i] = _adaptive_gl(lambda t: np.abs(b(t)) * np.exp(lam * t),
                                  0.0, T, rel_tol=1e-9)
        return out
    if isinstance(b, TabulatedWeight):
        # |b| is piecewise linear once every sign-changing segment is split
        # at its zero; a crossing that rounds onto a table node is dropped,
        # since |b| is at rounding level there anyway
        t, v = b.times, b.values
        i = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        zeros = t[i] - v[i] * (t[i + 1] - t[i]) / (v[i + 1] - v[i])
        zeros = zeros[(zeros > t[i]) & (zeros < t[i + 1])]
        times = np.concatenate([t, zeros])
        order = np.argsort(times)
        babs = TabulatedWeight(times[order],
                               np.concatenate([np.abs(v), np.zeros_like(zeros)])[order])
        return _exp_weight_integral_vec(lams, T, babs)
    raise InvalidParameterError(f"unsupported weight type {type(b).__name__}")


# --------------------------------------------------------------------------
# per-mode observation weights
# --------------------------------------------------------------------------

class ModeWeights:
    """Per-mode scalars diagonalizing the observation operators.

    betas[j]  = a*exp(T*lambda_j) + int_0^T b(t) exp(t*lambda_j) dt
    phi0s[j]  = int_0^T b(t) exp(t*lambda_j) dt
    ks[j]     = 1 - b*exp(T*lambda_j)            (constant b only)
    scales[j] = |a|*exp(T*lambda_j) + int_0^T |b(t)| exp(t*lambda_j) dt
    """

    def __init__(self, eigenvalues, a, weight, T, betas, phi0s, ks, scales):
        self.eigenvalues = eigenvalues
        self.a = float(a)
        self.weight = weight
        self.weight_fingerprint = weight.fingerprint()
        self.T = float(T)
        self.betas = betas
        self.phi0s = phi0s
        self.ks = ks
        self.scales = scales
        for arr in (betas, phi0s, scales):
            if not np.all(np.isfinite(arr)):
                raise NumericFailureError("non-finite observation weight")
            arr.setflags(write=False)
        if ks is not None:
            ks.setflags(write=False)

    @property
    def n_modes(self):
        return self.betas.size


def mode_weights(op, a, b, T):
    """Diagonal observation weights for all modes of an operator."""
    if not T > 0:
        raise InvalidParameterError("T must be positive")
    if not isinstance(b, WeightFunction):
        raise InvalidParameterError("b must be a WeightFunction")
    lam = op.eigenvalues
    if isinstance(b, TabulatedWeight):
        phi0s = np.empty(op.n_modes)
        for j in range(op.n_modes):
            try:
                phi0s[j] = exp_weight_integral(lam[j], T, b)
            except NumericFailureError as exc:
                raise NumericFailureError(
                    f"observation weight failed at mode {j + 1}: {exc}",
                    error_estimate=exc.error_estimate, mode=j + 1,
                ) from exc
    else:
        phi0s = _exp_weight_integral_vec(lam, T, b)
    decay = np.exp(T * lam)
    betas = a * decay + phi0s
    scales = abs(a) * decay + _abs_weight_integral_vec(lam, T, b)
    ks = 1.0 - b.value * decay if isinstance(b, ConstantWeight) else None
    return ModeWeights(lam, a, b, T, betas, phi0s, ks, scales)


def _require_nonvanishing(denoms, scales, tol=ILL_POSED_RTOL):
    """Raise IllPosedModeError naming the modes whose denominator is zero up
    to tol times its scale."""
    bad = np.nonzero(~(np.abs(denoms) > tol * scales))[0]
    if bad.size:
        modes = [int(j) + 1 for j in bad]
        raise IllPosedModeError(
            f"spectral condition violated at modes {modes}", modes)


def phi_T_inverse_diagonal(weights):
    """Per-mode reciprocals of the diagonal observation weights.

    Rejects modes whose weight is zero up to the scale-relative tolerance,
    since those directions are not recoverable from the observation.
    """
    _require_nonvanishing(weights.betas, weights.scales)
    return 1.0 / weights.betas


def beta_function(x, y):
    """Euler Beta function via log-gamma."""
    if not (x > 0 and y > 0):
        raise InvalidParameterError("Beta function arguments must be positive")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
