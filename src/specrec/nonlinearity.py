"""Nonlinearity catalogue and the growth check.

Three forcing terms are supported: the zero map, a pointwise superlinear
power law kappa*|u|**ell * u applied on the physical grid, and a memory
kernel integrating c*(t-s)**lambda_exp * |u(s)|**ell * u(s) over the past.
All of them vanish on the zero state, which is the structural property the
small-data recovery theory rests on.
"""

import math

import numpy as np

from .errors import InvalidParameterError, NumericFailureError
from .spectral import (ORTHONORMALITY_TOL, Trajectory, _check_spec, analyze,
                       synthesize)


class Nonlinearity:
    """Base class: a map from trajectories to forcing trajectories.

    Every catalogue member is a weighted history of one pointwise payload,
    f(u)(t_i) = sum_k H_ik p(u(t_k)), with p(c) a pointwise map of the
    synthesised state analysed back onto the eigenbasis.  ``eval_node``
    evaluates p at one state or at a (k, n_modes) stack of states in one
    synthesise/analyse pair, O(k N m) for N grid points and m modes;
    ``forward_solve`` calls it once per sweep over a window of up to 64
    steps, and ``picard_recover`` once per sweep over the whole grid.
    ``history_rows`` gives rows of the weights H_ik, and a pointwise map
    has none: f(u)(t_i) = p(u(t_i)); ``_row_writer`` writes such rows into
    one kept buffer, for a caller that needs many.
    """

    #: True when f maps the zero state to zero (all catalogue members do).
    vanishes_at_zero = True

    def eval_node(self, c, op):
        """Payload coefficients p(c) of one coefficient vector, or of each
        row of a (k, n_modes) stack."""
        raise NotImplementedError

    def history_rows(self, nodes, start, stop):
        """Weights H_ik of p(u(t_k)) in f(u)(t_i) for the rows i = start ..
        stop - 1, shape (stop - start, stop), zero for k > i; None for a
        pointwise map."""
        return None

    def _row_writer(self, nodes, rows):
        """A ``_HistoryRows`` that writes up to ``rows`` rows of the weights
        over ``nodes`` into one kept buffer; None for a pointwise map."""
        return None

    def eval_trajectory(self, u, op):
        """Forcing trajectory for a full state trajectory, in one call."""
        raise NotImplementedError

    def declared_exponents(self, theta):
        """(gamma, nu) this nonlinearity declares for the weighted-space
        assumptions, given the solution-space exponent theta."""
        raise NotImplementedError


class Zero(Nonlinearity):
    """The zero forcing term."""

    ell = 1.0

    def eval_node(self, c, op):
        return np.zeros(np.shape(c))

    def eval_trajectory(self, u, op):
        return Trajectory(u.grid, np.zeros((u.grid.nodes.size, op.n_modes)))

    def declared_exponents(self, theta):
        return 0.0, 0.0

    def __repr__(self):
        return "Zero()"


def _pointwise_power(kappa, ell, values):
    """kappa * |values|**ell * values, in place on one new array; the power
    is skipped for ell = 1, where it is the identity."""
    out = np.abs(values)
    if ell != 1.0:
        out **= ell
    out *= kappa
    out *= values
    return out


def _finite(payload, name):
    """Return the payload, or raise a typed failure where an overflow left
    it non-finite.  ``forward_solve`` and ``picard_recover`` silence numpy's
    overflow warnings around the payloads, so this check decides there also
    when warnings are errors."""
    if not np.isfinite(payload).all():
        raise NumericFailureError(f"{name} produced non-finite values")
    return payload


def _trajectory_payload(kappa, ell, coeffs, op, name):
    """The power of the synthesised state, analysed onto the eigenbasis, for
    one coefficient vector or every row of a (k, n_modes) stack at once."""
    W = _pointwise_power(kappa, ell, synthesize(op, coeffs))
    return _finite(analyze(op, W), name)


class PowerLaw(Nonlinearity):
    """Pointwise superlinear map kappa*|u|**ell * u on the physical grid."""

    def __init__(self, kappa, ell):
        if not ell > 0:
            raise InvalidParameterError("superlinearity exponent ell must be positive")
        self.kappa = float(kappa)
        self.ell = float(ell)

    def eval_node(self, c, op):
        return _trajectory_payload(self.kappa, self.ell, c, op, "power law")

    def eval_trajectory(self, u, op):
        P = _trajectory_payload(self.kappa, self.ell, u.coeffs, op, "power law")
        return Trajectory(u.grid, P)

    def declared_exponents(self, theta):
        return 0.0, theta * (self.ell + 1.0)

    def __repr__(self):
        return f"PowerLaw(kappa={self.kappa!r}, ell={self.ell!r})"


# Below this x = h/(t_i - t_k) the history weights are summed as a series:
# the closed form cancels there, erring about 5e-16/x, and 13 terms reach
# x**13 = 1e-17.
_SERIES_X = 0.05
_SERIES_TERMS = 13

# History weights evaluated per array pass, so each of the five work arrays
# stays near 128 KB, in cache, whatever the grid size.
_BLOCK_ENTRIES = 2**14


class _HistoryRows:
    """Rows of a memory kernel's history weights, written in place.

    Holds one (rows, nodes.size) buffer for the weights of up to ``rows``
    rows and a fixed work area: five arrays of min(rows n, max(2**14, n))
    floats for n + 1 nodes (``_BLOCK_ENTRIES`` = 2**14; more only when one
    row holds more) and a mask of as many entries, all allocated here,
    once.  ``fill`` writes the weights of ``MemoryKernel.history_rows``
    into that buffer with ufunc ``out=`` arguments, in the fewest blocks
    that keep each within the work area, so filling rows allocates no
    array above a few KB.  Each weight depends only on its row, its column
    and the nodes, so the bytes are the same whatever rows a call fills
    and however they are cut into blocks.
    """

    def __init__(self, lambda_exp, nodes, rows):
        size = nodes.size
        self._a = lambda_exp + 1.0
        self._nodes = nodes
        self._h = np.diff(nodes)
        self._cols = np.arange(size)
        j = np.arange(_SERIES_TERMS)
        b = np.cumprod(np.append(1.0, (j[:-1] - lambda_exp) / (j[:-1] + 1.0)))
        self._series = b / (j + 2.0)
        self._out = np.empty((rows, size))
        entries = min(rows * (size - 1), max(_BLOCK_ENTRIES, size - 1))
        self._work = np.empty((5, entries))
        self._mask = np.empty(entries, dtype=bool)

    def fill(self, start, stop):
        """Write the weights of rows start .. stop - 1 over the nodes before
        ``stop`` and return them, the buffer's view of shape (stop - start,
        stop); the next call overwrites it.  The rows go in the fewest
        blocks of at most ``_BLOCK_ENTRIES // (stop - 1)`` rows, the widest
        row's share, shared out evenly."""
        rows = stop - start
        out = self._out[:rows, :stop]
        per = max(1, _BLOCK_ENTRIES // max(1, stop - 1))
        count = -(-rows // per)
        lo = start
        for b in range(count):
            hi = lo + rows // count + (b < rows % count)
            self._block(lo, hi, out[lo - start:hi - start])
            lo = hi
        return out

    def _block(self, lo, hi, out):
        """Rows lo .. hi - 1 into ``out``, in one pass over the work area."""
        a, nodes = self._a, self._nodes
        n_rows, m = hi - lo, hi - 1
        h = self._h[:m]
        x, E, F, T, d = (w[:n_rows * m].reshape(n_rows, m) for w in self._work)
        mask = self._mask[:n_rows * m].reshape(n_rows, m)
        # d = t_i - t_k >= h below the diagonal; h on and above it, where
        # x = 1 keeps every formula finite until those entries are zeroed
        np.subtract(nodes[lo:hi, None], nodes[:m], out=d)
        np.maximum(d, h, out=d)
        np.divide(h, d, out=x)
        np.negative(x, out=E)
        with np.errstate(divide="ignore"):    # log1p(-1) where x = 1
            np.log1p(E, out=E)
        E *= a
        np.expm1(E, out=E)
        np.negative(E, out=E)
        # F_R by its closed form everywhere, then the series where x is
        # small; E is left holding E_a / a
        with np.errstate(all="ignore"):    # x**2 may underflow where unused
            np.subtract(1.0, E, out=F)
            F *= x
            F += E
            F /= a + 1.0
            E /= a
            np.subtract(E, F, out=F)
            np.multiply(x, x, out=T)
            F /= T
        np.less(x, _SERIES_X, out=mask)
        T[...] = self._series[-1]
        for c in self._series[-2::-1]:
            T *= x
            T += c
        np.copyto(F, T, where=mask)
        # h d**lambda = x d**a, so the segment's weight is d**a E_a / a, of
        # which x d**a F_R goes to its right node and the rest, formed in E,
        # to its left; d**a is zeroed for k >= i
        d **= a
        upper = mask[:, lo:]
        np.greater_equal(self._cols[lo:m], self._cols[lo:hi, None], out=upper)
        np.copyto(d[:, lo:], 0.0, where=upper)
        x *= d
        x *= F
        E *= d
        E -= x
        out[:, :m] = E
        out[:, m:] = 0.0
        out[:, 1:hi] += x


class MemoryKernel(Nonlinearity):
    """Forcing with memory: f(u)(t) = int_0^t c*(t-s)**lambda_exp *
    |u(s)|**ell * u(s) ds, evaluated pointwise on the physical grid.

    The payload c*|u|**ell * u is interpolated linearly between nodes and the
    kernel power integrated exactly against it, so a singular kernel
    (lambda_exp in (-1, 0)) costs no accuracy at the endpoint.  Since the
    analysis onto the eigenbasis is linear, the history sum runs over the
    modal payloads of ``eval_node``, weighted by ``history_rows``.

    The weights depend only on the grid.  ``eval_trajectory`` is one product
    H @ P of the lower-triangular history operator H, (n + 1)**2 floats for
    n steps (0.13 MB at n = 128, 8.4 MB at n = 1024), with the payloads P;
    ``picard_recover`` builds H once per recovery and forms that product
    from ``eval_node`` itself each sweep.  ``forward_solve`` allocates one
    (64, n + 1) rows buffer and a fixed work area of five arrays of at most
    max(2**14, n) floats, once per solve, and writes each window's rows of
    H into them in place, in one block per window up to n = 256, so its
    memory stays O(n (m + 64)) for m modes; a sweep over the window costs
    one synthesise/analyse pair on the window's stack of states, the sum
    over the nodes before the window, formed once per window, and the
    window's own lower-triangular block of H.
    """

    def __init__(self, c, lambda_exp, ell):
        if not lambda_exp > -1.0:
            raise InvalidParameterError("kernel exponent must exceed -1")
        if not ell > 0:
            raise InvalidParameterError("superlinearity exponent ell must be positive")
        self.c = float(c)
        self.lambda_exp = float(lambda_exp)
        self.ell = float(ell)

    def eval_node(self, c, op):
        return _trajectory_payload(self.c, self.ell, c, op, "memory kernel")

    def history_rows(self, nodes, start, stop):
        """Integrals of (t_i - s)**lambda_exp against the hat function of
        each node k <= i over [0, t_i], exact, for the rows i = start ..
        stop - 1; shape (stop - start, stop), zero for k > i.

        Segment [t_k, t_{k+1}] of row i, with d = t_i - t_k, h = t_{k+1} -
        t_k and x = h/d in (0, 1], adds h d**lambda (F_0 - F_R)(x) to node k
        and h d**lambda F_R(x) to node k + 1, where

            F_0(x) = int_0^1 (1 - x s)**lambda ds = E_a / (a x),
            F_R(x) = int_0^1 s (1 - x s)**lambda ds
                   = (E_a / a - E_{a+1} / (a + 1)) / x**2,

        a = lambda + 1 and E_m = 1 - (1 - x)**m = -expm1(m log1p(-x)), so
        E_{a+1} = E_a + x (1 - E_a).  The form of F_R cancels for small x;
        below x = 0.05 it is the series sum_j b_j x**j / (j + 2) instead,
        with (1 - y)**lambda = sum_j b_j y**j.  No difference of powers of
        t_i - t_k is formed.  Against a 60-digit oracle, on uniform and
        graded grids of 64 to 1024 steps with lambda = -0.9, -0.5 and 0.5,
        every weight measured was within 1.1e-14 relative of the exact
        integral at the given nodes, about 45 ulp; the largest errors sit
        next to the switch at x = 0.05, where the closed form cancels most.
        Cost O((stop - start) stop), written in place into the result in
        the fewest blocks of at most 2**14 // (stop - 1) rows, shared out
        evenly: 65 + 64 rows for the 129 rows of a 128-step grid.
        """
        return self._row_writer(nodes[:stop], stop - start).fill(start, stop)

    def _row_writer(self, nodes, rows):
        return _HistoryRows(self.lambda_exp, nodes, rows)

    def eval_trajectory(self, u, op):
        """f(u) on the whole grid as H @ P, building H."""
        nodes = u.grid.nodes
        P = _trajectory_payload(self.c, self.ell, u.coeffs, op, "memory kernel")
        return Trajectory(u.grid, self.history_rows(nodes, 0, nodes.size) @ P)

    def declared_exponents(self, theta):
        gap = theta * (self.ell + 1.0) - 1.0 - self.lambda_exp
        nu = 0.0 if gap < 0.0 else 0.5 * (gap + 1.0)
        return 0.0, nu

    def __repr__(self):
        return (f"MemoryKernel(c={self.c!r}, lambda_exp={self.lambda_exp!r}, "
                f"ell={self.ell!r})")


def check_growth_condition(f, op, spec):
    """Certified growth constant c_bar of a pointwise map's payload p =
    ``f.eval_node``: ||p(v) - p(w)||_0 <= c_bar (||v||_theta**ell +
    ||w||_theta**ell) ||v - w||_theta for all coefficient vectors v and w.
    It is 0 for ``Zero`` and, for ``PowerLaw(kappa, ell)``,
    c_bar = |kappa| C_ell K**ell s_min**(-theta) (1 + m tol), where
    s_j = delta0 - lambda_j, K = max_i (sum_j B_ij**2 s_j**(-2 theta))**0.5
    over the basis B, m is the mode count and tol ``ORTHONORMALITY_TOL``.
    Proof, with x = B v, y = B w, Q the quadrature weights and
    ||g||_Q**2 = g^T Q g:

    1. ``analyze`` is g -> B^T Q g and ``SpectralOperator`` admits
       |B^T Q B - I| <= tol entrywise, so ||B^T Q B||_2 <= 1 + m tol,
       ||B^T Q g||_2 <= (1 + m tol)**0.5 ||g||_Q and ||B c||_Q <=
       (1 + m tol)**0.5 ||c||_2.
    2. phi(a) = |a|**ell a has |phi(a) - phi(b)| <= C_ell (|a|**ell +
       |b|**ell) |a - b|, with C_ell = ell + 1 by the mean value theorem
       and C_1 = 1: phi(a) - phi(b) is (a + b)(a - b) if a and b share a
       sign, else of size a**2 + b**2 <= (|a| + |b|)|a - b|.
    3. Cauchy-Schwarz on x_i = sum_j (B_ij s_j**(-theta)) (s_j**theta v_j)
       gives |x_i| <= K ||v||_theta, and likewise |y_i| <= K ||w||_theta.
    4. Hence ||p(v) - p(w)||_0 <= (1 + m tol)**0.5 |kappa| C_ell K**ell
       (||v||_theta**ell + ||w||_theta**ell) ||x - y||_Q, and by 1,
       ||x - y||_Q <= (1 + m tol)**0.5 s_min**(-theta) ||v - w||_theta.

    One pass over the (N, m) basis; other maps raise InvalidParameterError.
    """
    if isinstance(f, Zero):
        return 0.0
    if not isinstance(f, PowerLaw):
        raise InvalidParameterError(
            "the growth check applies to pointwise nonlinearities"
        )
    _check_spec(op, spec)
    s = spec.delta0 - op.eigenvalues
    K = math.sqrt(np.max(np.square(op.basis) @ s ** (-2.0 * spec.theta)))
    c_ell = 1.0 if f.ell == 1.0 else f.ell + 1.0
    return (abs(f.kappa) * c_ell * K ** f.ell * float(s.min()) ** -spec.theta
            * (1.0 + op.n_modes * ORTHONORMALITY_TOL))
