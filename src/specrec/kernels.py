"""Stable scalar kernels for exponential-weight integrals.

Everything the recovery operators need reduces per mode to integrals of the
form ``int b(t) exp(t*lam) dt`` and their tail variants.  Every weight is
piecewise polynomial on [0, T], so every such integral is a finite sum of
the moments J_k(z) = int_0^1 s**k exp(z*s) ds, which one evaluator supplies
in closed form (with a series branch near z = 0 to avoid cancellation).
One backward march over the weight's polynomial pieces turns these sums
into the tail part of the recovery's psi weights and the weight's part of
the per-mode denominators and scales.  The Beta function used by the
well-posedness estimates lives here too.
"""

import math

import numpy as np

from .errors import InvalidParameterError, NumericFailureError

# --------------------------------------------------------------------------
# moments  J_k(z) = int_0^1 s**k exp(z*s) ds
# --------------------------------------------------------------------------

# Below |z| = 3 the series gives J_kmax, where 30 terms reach rounding
# (3**30 / 30! < 1e-18), and the downward recurrence the lower moments;
# above it the upward recurrence multiplies the error of J_{k-1} by k/|z|,
# kmax!/|z|**kmax in all.  That product passes 1 above |z| = 3 once kmax
# >= 7, so there the series runs out to (kmax!)**(1/kmax), with as many
# terms as reach rounding at that cutoff.  Each kmax's cutoff and series
# coefficients 1/(m! (m + kmax + 1)), highest m first, are built once, and
# Horner's rule runs in place.  Every step is elementwise, so an entry's
# value does not depend on the other entries of the call.
_SERIES = {}


def _series(kmax):
    """The series cutoff for J_kmax and the series coefficients."""
    if kmax not in _SERIES:
        # at most 30, where 114 terms reach rounding and their factorials
        # are still floats
        cutoff = min(max(3.0, math.exp(math.lgamma(kmax + 1) / max(kmax, 1))),
                     30.0)
        terms = next(n for n in range(1, 200)
                     if cutoff**n / math.factorial(n) < 1e-18)
        _SERIES[kmax] = cutoff, [1.0 / (math.factorial(m) * (m + kmax + 1))
                                 for m in range(terms - 1, -1, -1)]
    return _SERIES[kmax]


def moments(z, kmax):
    """J_k(z) for k = 0..kmax, shape (kmax + 1,) + z.shape.

    For |z| < 3 (more for kmax >= 7), where the by-parts recurrence J_k =
    (e^z - k J_{k-1}) / z cancels, J_kmax is the series sum_m z**m / (m!
    (m + kmax + 1)) and the lower moments follow from J_{k-1} = (e^z - z
    J_k) / k; the upward recurrence elsewhere.
    The phi functions are phi1 = J_0, phi2 = J_0 - J_1 and
    phi3 = (J_0 - 2 J_1 + J_2) / 2.

    Against a 160-digit oracle on z in [-6, 6] the relative error is below
    1e-14 for k <= 3, 5e-14 for kmax <= 8 and 1e-12 for kmax 9 to 12
    (gated in ``TestMoments``).  The series alternates for z < 0, so the
    error grows with kmax, worst just inside the switch.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    cutoff, coeffs = _series(kmax)
    small = np.abs(flat) < cutoff
    zr = np.where(small, 1.0, flat)
    ez = np.exp(zr)
    out = np.empty((kmax + 1, flat.size))
    out[0] = np.expm1(zr) / zr
    for k in range(1, kmax + 1):
        out[k] = (ez - k * out[k - 1]) / zr
    if small.any():
        # Horner for J_kmax and the downward recurrence, evaluated only
        # where the series is needed, then written back at once
        zs = flat[small]
        first, *rest = coeffs
        low = np.full((kmax + 1, zs.size), first)
        acc = low[kmax]
        for c in rest:
            acc *= zs
            acc += c
        es = np.exp(zs)
        for k in range(kmax, 0, -1):
            low[k - 1] = (es - zs * low[k]) / k
        out[:, small] = low
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
    if not d.any():
        # the sums below would add only signed zeros to finite coefficients
        return coeffs + 0.0
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
    # R(lo) = e^z R(hi) + inner, written in place, row by row
    rows = list(R)
    for r, nxt, a, e in zip(rows[-2::-1], rows[:0:-1], inner[::-1],
                            step[::-1]):
        np.multiply(e, nxt, out=r)
        r += a
    return R, J


def _abs_pieces(edges, coeffs):
    """The pieces of |b| for the pieces of b, and the sign of b on each:
    each piece is split at its real roots inside it and takes its sign from
    its midpoint.  A root that rounds onto an edge is dropped, since |b| is
    at rounding level there.  A flat piece has no root and a linear one
    -c0/c1, which is what ``np.roots`` gives too (unless the root lies
    within 1e-135 of the piece's start, where LAPACK rescales), so only
    pieces of higher degree are solved one at a time."""
    width = np.diff(edges)
    owner, roots = np.arange(width.size), np.full(width.size, np.nan)
    if coeffs.shape[1] == 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = -coeffs[:, 0] / coeffs[:, 1]
    elif coeffs.shape[1] > 2:
        found = [np.sort(r[np.isreal(r)].real)
                 for r in (np.roots(c[::-1]) for c in coeffs)]
        owner = np.repeat(owner, [r.size for r in found])
        roots = np.concatenate(found)
    inside = (roots > 0.0) & (roots < width[owner])
    owner, roots = owner[inside], roots[inside]
    # piece p's parts start at 0 and at its roots, in order, and each ends
    # where the next starts or at the piece's width
    at = np.searchsorted(owner, np.arange(width.size))
    piece = np.insert(owner, at, np.arange(width.size))
    left = np.insert(roots, at, 0.0)
    last = np.append(piece[1:] != piece[:-1], True)
    right = np.where(last, width[piece], np.append(left[1:], 0.0))
    c = coeffs[piece]
    sign = np.sign(np.polynomial.polynomial.polyval(
        0.5 * (left + right), c.T, tensor=False))
    out_edges = np.where(last, edges[piece + 1], edges[piece] + right)
    return (np.concatenate([edges[:1], out_edges]),
            sign[:, None] * _taylor_shift(c, left), sign)


def _pieces(b, T):
    if not T > 0:
        raise InvalidParameterError("T must be positive")
    if not isinstance(b, WeightFunction):
        raise InvalidParameterError("b must be a WeightFunction")
    return b.pieces(T)


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


def mode_weights(op, a, b, T):
    """Diagonal observation weights for all modes of an operator.  The
    terminal terms a e^{T lam} and |a| e^{T lam} are taken in closed form;
    the march over b's pieces adds R(0), and runs only for a nonzero b.  A b
    of one sign on [0, T] adds +-R(0) to the scales, which is bit for bit
    what a march over |b| = +-b gives, since negation is exact; any other b
    gets its own march over the pieces of |b|.  An a of 0 adds no terminal
    term."""
    lam = op.eigenvalues
    edges, coeffs = _pieces(b, T)
    betas = scales = np.zeros(lam.size)
    # an overflowing unstable mode is reported by ModeWeights, with its index
    with np.errstate(over="ignore", invalid="ignore"):
        if a != 0.0:
            end = np.exp(T * lam)
            betas, scales = a * end, abs(a) * end
        if not b.is_zero:
            R0 = _march(lam, *_cut(edges, coeffs, edges))[0][0]
            betas = betas + R0
            abs_edges, abs_coeffs, sign = _abs_pieces(edges, coeffs)
            if sign.size == len(coeffs) and abs(sign.sum()) == sign.size:
                scales = scales + sign[0] * R0
            else:
                scales = scales + _march(
                    lam, *_cut(abs_edges, abs_coeffs, abs_edges))[0][0]
    return ModeWeights(betas, scales)


def beta_function(x, y):
    """Euler Beta function via log-gamma."""
    if not (x > 0 and y > 0):
        raise InvalidParameterError("Beta function arguments must be positive")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
