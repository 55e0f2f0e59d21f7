"""Stable scalar kernels for exponential-weight integrals.

Everything the recovery operators need reduces per mode to integrals of the
form ``int b(t) exp(t*lam) dt`` and their tail variants.  Every weight is
one ``WeightFunction``, polynomial pieces (edges, coeffs) however it was
built, and is read only as its pieces on [0, T], so every such integral is
a finite sum of the moments J_k(z) = int_0^1 s**k exp(z*s) ds, which one
evaluator supplies in closed form (with a series branch near z = 0 to avoid
cancellation).  One backward march over those pieces, cut where b changes
sign so that each piece's integral keeps b's sign, and solved as one
doubling scan, turns these sums into the tail part of the recovery's psi
weights and the weight's part of the per-mode denominators and scales.
The Beta function used by the well-posedness estimates lives here too.
"""

import math

import numpy as np

from .errors import InvalidParameterError, NumericFailureError

# --------------------------------------------------------------------------
# moments  J_k(z) = int_0^1 s**k exp(z*s) ds
# --------------------------------------------------------------------------

# The series takes as many terms as reach rounding at the cutoff (cutoff**n
# / n! < 1e-18), and the cutoff stops at 30, where 114 terms do and their
# factorials are still floats.  Coefficients are built once per kmax.
_NEAR_ZERO = 2.0**-20
_SERIES = {}


def _series(kmax):
    """The series cutoff for J_kmax and the series coefficients."""
    if kmax not in _SERIES:
        cutoff = (_NEAR_ZERO if kmax == 0 else
                  (math.factorial(kmax) / 8.0) ** (1.0 / kmax) if kmax <= 3
                  else min(max(3.0, math.exp(math.lgamma(kmax + 1) / kmax)),
                           30.0))
        terms = next(n for n in range(1, 200)
                     if cutoff**n / math.factorial(n) < 1e-18)
        _SERIES[kmax] = cutoff, [1.0 / (math.factorial(m) * (m + kmax + 1))
                                 for m in range(terms - 1, -1, -1)]
    return _SERIES[kmax]


def moments(z, kmax):
    """J_k(z) for k = 0..kmax, shape (kmax + 1,) + z.shape.

    J_0 is expm1(z) / z, and the upward recurrence J_k = (e^z - k J_{k-1})
    / z gives the others, except below a cutoff where it cancels: there
    J_kmax is the series sum_m z**m / (m! (m + kmax + 1)) by Horner's rule
    and J_{k-1} = (e^z - z J_k) / k the rows below (J_0 for |z| < 2**-20).
    The recurrence multiplies the error of J_0 by kmax! / |z|**kmax, so the
    cutoff is 2**-20 for kmax = 0; 0.125, 0.5 and 0.91 for kmax 1 to 3,
    where that is 8; 3 for kmax 4 to 6; and (kmax!)**(1/kmax) above.  All
    steps are elementwise: an entry does not depend on the others.
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
    out = np.empty((kmax + 1, flat.size))
    # upward on whole rows; the entries below the cutoff are overwritten
    with np.errstate(all="ignore"):
        e = np.exp(flat)
        np.divide(np.expm1(flat), flat, out=out[0])
        for k in range(1, kmax + 1):
            out[k] = (e - k * out[k - 1]) / flat
    small = np.abs(flat) < cutoff
    if small.any():
        # Horner for J_kmax, then the downward recurrence
        zs = flat[small]
        first, *rest = coeffs
        low = np.full((kmax + 1, zs.size), first)
        acc = low[kmax]
        for c in rest:
            acc *= zs
            acc += c
        es = e[small]
        for k in range(kmax, 0, -1):
            low[k - 1] = (es - zs * low[k]) / k
        out[1:, small] = low[1:]
        near = np.abs(flat) < _NEAR_ZERO
        out[0][near] = low[0][near[small]]
    return out.reshape((kmax + 1,) + z.shape)


# --------------------------------------------------------------------------
# weight functions
# --------------------------------------------------------------------------

class WeightFunction:
    """Scalar time weight b(t) = sum_k coeffs[p, k] (t - edges[p])**k on
    the piece [edges[p], edges[p + 1]], its first and last pieces run on
    outside the edges.  The edges increase strictly and only the last may
    be inf: ``constant`` and ``poly`` build the one piece [0, inf]."""

    def __init__(self, edges, coeffs):
        self.edges = e = np.array(edges, dtype=float)
        self.coeffs = c = np.array(coeffs, dtype=float)
        if not (c.ndim == 2 and c.size and e.shape == (len(c) + 1,)
                and np.all(np.diff(e) > 0) and math.isfinite(e[0])
                and np.all(np.isfinite(c))):
            raise InvalidParameterError(
                "a weight needs strictly increasing edges and finite "
                "coefficients, one row per piece")
        e.setflags(write=False)
        c.setflags(write=False)

    @classmethod
    def constant(cls, value):
        """b(t) = value."""
        return cls.poly([value])

    @classmethod
    def poly(cls, coeffs):
        """b(t) = sum_k coeffs[k] t**k, in increasing degree."""
        return cls([0.0, math.inf], [coeffs])

    @classmethod
    def table(cls, t, b):
        """Linear between the knots (t[i], b[i]): ``np.interp`` on [t0, tn)."""
        t, v = np.asarray(t, dtype=float), np.asarray(b, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise InvalidParameterError("table needs matching time/value vectors")
        if np.any(np.diff(t) <= 0):
            raise InvalidParameterError("table nodes must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise InvalidParameterError("table entries must be finite")
        with np.errstate(all="ignore"):
            slopes = np.diff(v) / np.diff(t)
        if not np.all(np.isfinite(slopes)):
            i = np.argmin(np.isfinite(slopes))
            raise InvalidParameterError(
                f"table slope on [{t[i]}, {t[i + 1]}] is not finite")
        return cls(t, np.column_stack([v[:-1], slopes]))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # the piece holding each t, the first or last one outside them all
        p = np.searchsorted(self.edges[1:-1], t, side="right")
        x, c = t - self.edges[p], self.coeffs[p]
        out = c[..., -1]
        for k in range(self.coeffs.shape[1] - 2, -1, -1):
            out = out * x + c[..., k]
        return out

    @property
    def value_at_zero(self):
        return float(self(0.0))

    @property
    def is_zero(self):
        return not self.coeffs.any()

    def pieces(self, T):
        """b on [0, T] as pieces (edges, coeffs), cut at 0, T and b's edges
        between, with coeffs[p] the Taylor coefficients about edges[p].  b
        must cover [0, T], but for a last edge up to 1e-12 max(1, T) short
        of T, where its last piece runs on."""
        if not T > 0:
            raise InvalidParameterError("T must be positive")
        e = self.edges
        if e[0] > 0.0 or e[-1] < T - 1e-12 * max(1.0, T):
            raise InvalidParameterError(
                f"table covers [{e[0]}, {e[-1]}], not [0, {T}]")
        inner = e[1:-1]
        cuts = np.concatenate(([0.0], inner[(inner > 0.0) & (inner < T)], [T]))
        p = np.searchsorted(inner, cuts[:-1], side="right")
        return cuts, _taylor_shift(self.coeffs[p], cuts[:-1] - e[p])


# --------------------------------------------------------------------------
# the integrals
# --------------------------------------------------------------------------

def _taylor_shift(coeffs, d):
    """Taylor coefficients about x + d[p] of the polynomial whose
    coefficients about x are coeffs[p], for every row p, by repeated
    synthetic division: deg (deg + 1) / 2 whole-column updates."""
    out = coeffs + 0.0
    if not d.any():
        # the updates would add only signed zeros to finite coefficients
        return out
    for i in range(coeffs.shape[1] - 1):
        for j in range(coeffs.shape[1] - 2, i - 1, -1):
            out[:, j] += d * out[:, j + 1]
    return out


def _cut(edges, coeffs, points):
    """b's pieces (edges, coeffs) cut at the sorted points, which span the
    part of [0, T] to march over and include every edge inside it.  Returns
    the widths w of the new pieces and c with b(lo + w tau) =
    sum_m c[p, m] tau**m on each piece [lo, lo + w]."""
    lo = points[:-1]
    w = points[1:] - lo
    p = np.searchsorted(edges, lo, side="right") - 1
    m = np.arange(coeffs.shape[1])
    return w, _taylor_shift(coeffs[p], lo - edges[p]) * w[:, None] ** m


def _cut_at(nodes, edges, coeffs):
    """b's pieces on [0, T] cut at a grid's nodes too: the cuts, the union
    of the nodes and b's edges, and ``_cut``'s w and c there."""
    # np.union1d's values in about half its time on a few dozen points, and
    # without the numpy.ma import of its first call
    cuts = np.sort(np.concatenate((nodes, edges)))
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    return (cuts, *_cut(edges, coeffs, cuts))


def _hat_scatter(cuts, X, Y, nodes):
    """The weights int F phi_i on a grid's nodes, phi_i the hat of node i,
    from integrals over the pieces between the sorted cuts, which hold
    every node: X[p] = int F and Y[p] = int tau F over piece p, tau running
    from 0 to 1 across it, for any F (one per column of X's further axes).
    On a piece [lo, lo + w] of step k, [t_k, t_k + h], the step's hats are
    A - D tau and 1 - A + D tau, with A = (t_k + h - lo) / h and D = w / h,
    so the piece gives A X - D Y to node k and (1 - A) X + D Y to node
    k + 1, summed over the step's pieces in order.  Where the cuts are the
    nodes, A = D = 1."""
    if cuts.size == nodes.size:
        left, right = X - Y, Y
    else:
        # the end of each piece's step, and the step's width
        lo, k = cuts[:-1], np.searchsorted(nodes, cuts[:-1], side="right")
        end = nodes[k]
        h, w = end - nodes[k - 1], cuts[1:] - lo
        if X.ndim > 1:
            end, h, w, lo = end[:, None], h[:, None], w[:, None], lo[:, None]
        A, DY = (end - lo) / h, w / h * Y
        left, right = np.add.reduceat([A * X - DY, (1.0 - A) * X + DY],
                                      np.searchsorted(cuts, nodes[:-1]),
                                      axis=1)
    W = np.zeros((nodes.size,) + X.shape[1:])
    W[:-1] += left
    W[1:] += right
    return W


def _spans(e):
    """The products of e that the passes of ``_scan`` over e's rows
    multiply by: pass d = 1, 2, 4, ... takes, for each row i >= d, the
    product of e over rows i - d + 1 .. i, pass d's at rows i and i - d
    times each other.  A caller scanning many forcings builds them once."""
    spans, span, d = [], e[1:], 1
    while d < e.shape[0]:
        spans.append(span)
        span = span[d:] * span[:-d]
        d *= 2
    return spans


def _scan(e, x, spans=None, work=None):
    """x[i] <- e[i] x[i - 1] + x[i] for i >= 1, in place, by recursive
    doubling: ceil(log2 k) passes over the k rows, none multiplying by
    e[0].  ``spans`` are ``_spans(e)``, built here when not given; each
    pass's products go into ``work`` (at least k - 1 rows), a kept array
    when given.

    A column whose every e is 1 (lam = 0, or a step too short to move
    e^{h lam} off 1) is summed by ``np.cumsum`` instead, in the one-step
    loop's order.  Column 0 holds the largest eigenvalue, so e[0, 0] < 1
    rules such a column out at the cost of one comparison."""
    flat = None
    if e.size and e[0, 0] >= 1.0:
        flat = (e == 1.0).all(axis=0)
        sums = np.cumsum(x[:, flat], axis=0)
    work = np.empty_like(x) if work is None else work
    d = 1
    for span in _spans(e) if spans is None else spans:
        x[d:] += np.multiply(span, x[:-d], out=work[:len(span)])
        d *= 2
    if flat is not None:
        x[:, flat] = sums
    return x


def _march(lam, w, c, kmax=None):
    """R(t) = int_t^T b(s) e^{(s - t) lam} ds at every cut of the pieces
    from ``_cut``, shape (w.size + 1, lam.size), the same integral of |b|
    at 0, the moments J_0..J_kmax at z = w lam (kmax defaults to b's
    degree) and e^z.  R(T) = 0 and R(lo) = e^z R(hi) + q, q = w sum_m c_m
    J_m(z), one ``_scan`` over the reversed pieces, so every exponent is
    <= 0 when lam <= 0.  Where b keeps one sign on every piece, |q| is the
    integral of |b| e^{(s - lo) lam} over it, and the scan of |q| over the
    same spans gives |b|'s integral.  Where q keeps one sign throughout
    that scan is |R(0)|, bit for bit, as the scan is sign-equivariant, and
    is not run.  A terminal term a e^{(T - t) lam} is not marched: its
    callers take it in closed form."""
    z = w[:, None] * lam
    J = moments(z, c.shape[1] - 1 if kmax is None else kmax)
    R = np.empty((w.size + 1, lam.size))
    R[-1] = 0.0
    back = R[-2::-1]
    np.einsum("pm,mpj->pj", c[::-1], J[:c.shape[1], ::-1], out=back)
    back *= w[::-1, None]
    e = np.exp(z, out=z)
    spans, size = _spans(e[::-1]), None
    if back.min(initial=0.0) < 0.0 < back.max(initial=0.0):
        size = _scan(e[::-1], np.abs(back), spans)[-1]
    _scan(e[::-1], back, spans)
    return R, np.abs(R[0]) if size is None else size, J, e


def _sign_changes(edges, coeffs):
    """The real roots inside b's pieces, where b may change sign, as points
    of [0, T].  A piece with |c_0| > (1 + 1e-12) sum_{k>0} |c_k| w**k keeps
    c_0's sign and has none; on the others a linear b has -c0/c1, as
    ``np.roots`` gives (unless the root lies within 1e-135 of the piece's
    start, where LAPACK rescales), and a b of higher degree ``np.roots``'
    real roots.  A root that rounds onto the piece's end, by width or
    place, is dropped: |b| is at rounding level there."""
    width = np.diff(edges)
    size = np.abs(coeffs) * width[:, None] ** np.arange(coeffs.shape[1])
    owner = np.nonzero(~(size[:, 0] > (1.0 + 1e-12)
                         * size[:, 1:].sum(axis=1)))[0]
    if not owner.size:
        return np.empty(0)
    if coeffs.shape[1] == 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = -coeffs[owner, 0] / coeffs[owner, 1]
    else:
        found = [r[np.isreal(r)].real
                 for r in map(np.roots, coeffs[owner, ::-1])]
        owner = np.repeat(owner, [r.size for r in found])
        roots = np.concatenate(found)
    lo = edges[owner]
    inside = ((roots > 0.0) & (roots < width[owner])
              & (lo + roots < edges[owner + 1]))
    return lo[inside] + roots[inside]


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


def _weight_march(lam, a, b, T, nodes, extra=0):
    """The ``ModeWeights`` of (a, b) and the one march of b, cut at the
    nodes and at b's sign changes too, moments to b's degree plus
    ``extra``: (cuts, w, c, R, J, e^z), None for a zero b.  a e^{T lam}
    and |a| e^{T lam} are taken in closed form; R(0) is b's part of betas
    and the march's integral of |b|, b keeping one sign on every piece, its
    part of the scales."""
    if not isinstance(b, WeightFunction):
        raise InvalidParameterError("b must be a WeightFunction")
    edges, coeffs = b.pieces(T)
    betas = scales = np.zeros(lam.size)
    march = None
    # an overflowing unstable mode is reported by ModeWeights, with its index
    with np.errstate(over="ignore", invalid="ignore"):
        if a != 0.0:
            end = np.exp(T * lam)
            betas, scales = a * end, abs(a) * end
        if not b.is_zero:
            cuts, w, c = _cut_at(
                np.concatenate((nodes, _sign_changes(edges, coeffs))),
                edges, coeffs)
            R, size, J, e = _march(lam, w, c, c.shape[1] - 1 + extra)
            march = cuts, w, c, R, J, e
            betas, scales = betas + R[0], scales + size
    return ModeWeights(betas, scales), march


def mode_weights(op, a, b, T):
    """``_weight_march``'s observation weights, over b's own pieces."""
    return _weight_march(op.eigenvalues, a, b, T, [0.0, T])[0]


def beta_function(x, y):
    """Euler Beta function via log-gamma."""
    if not (x > 0 and y > 0):
        raise InvalidParameterError("Beta function arguments must be positive")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
