"""Forward mild-solution solver and the inhomogeneous convolution.

The state is marched in the eigenbasis by an exponential trapezoid rule: the
homogeneous part is applied exactly through the semigroup, and the forcing
enters through phi-function weights that integrate piecewise-linear data
exactly.  Stiff modes therefore cost nothing in stability, and zero forcing
reproduces the semigroup to rounding.
"""

import math

import numpy as np

from .errors import InvalidParameterError, NumericFailureError
from .kernels import (WeightFunction, _cut_at, _hat_scatter, _scan, _spans,
                      moments)
from .spectral import Trajectory

__all__ = ["duhamel_convolve", "forward_solve", "observe"]


def _step_tables(nodes, lam):
    """Per-step tables e^{h*lam}, h*J_1(h*lam) and h*(J_0 - J_1)(h*lam)
    for all steps at once, shape (n_steps, n_modes), J_k the moments of
    ``kernels.moments``.

    The two weights integrate e^{(t_{i+1}-s)*lam} against the left and right
    hat functions of step i, so sums of them are exact for piecewise-linear
    data.
    """
    h = np.diff(nodes)[:, None]
    z = h * lam[None, :]
    J0, J1 = moments(z, 1)
    J0 -= J1
    J0 *= h
    J1 *= h
    return np.exp(z, out=z), J1, J0


def duhamel_convolve(op, g):
    """Convolve a forcing trajectory with the semigroup.

    Returns v with v(t_i) = int_0^{t_i} e^{(t_i-s)A} g(s) ds, computed per
    mode by the one-step recurrence v_{i+1} = e_i v_i + (weights of g_i and
    g_{i+1}), exact whenever g is linear in time between nodes.  The
    recurrence is solved by a doubling scan, O(n m log n) for n steps and m
    modes in whole-array passes.
    """
    if g.coeffs.shape[1] != op.n_modes:
        raise InvalidParameterError("forcing trajectory does not match the operator")
    tables = _step_tables(g.grid.nodes, op.eigenvalues)
    wl = tables[1]
    out = np.zeros_like(g.coeffs)
    out[1:] = _convolve(tables, g.coeffs[1:], wl[0] * g.coeffs[0])
    return Trajectory(g.grid, out)


# Steps per window, at most.  A sweep's Python work is shared by the k steps
# of its window, but a node settles only after every node before it has, so
# longer windows take more sweeps; a memory kernel's solve also keeps a
# (64, n + 1) buffer of history weights, 2 MB at n = 4096.
_WINDOW = 64

# The sweeps stop once every node's update is below this multiple of
# 1 + ||u||: 45 ulp of the state, a few times the rounding of one pass, so
# they neither stop early nor chase rounding noise (the 1 covers states near
# zero).
_CORRECTOR_RTOL = 1e-14

# Sweeps per window, at most: the stop above is reached from an O(1) first
# update in 25 sweeps whenever each contracts the update by 0.27 or better
# (0.27**25 < 1e-14).  A single step contracting more slowly than that is
# too long for the forcing's Lipschitz constant and is reported, not ground
# through.
_CORRECTOR_MAX_PASSES = 25


def _convolve(tables, G, known, spans=None, out=None, work=None):
    """The convolution at the ends of the steps of ``tables`` = (e, wl, wr),
    from the forcing G at those nodes and the ``known`` part of the first
    step: e_0 times the convolution at the node before it plus wl_0 times
    the forcing there.  One doubling scan over the steps, with the
    ``spans`` of e when given.  A caller convolving many forcings passes
    kept arrays ``out``, the shape of G, and ``work``, one row fewer, to
    allocate nothing."""
    e, wl, wr = tables
    x = np.multiply(wr, G, out=out)
    work = np.empty_like(x) if work is None else work
    x[1:] += np.multiply(wl[1:], G[:-1], out=work[:len(x) - 1])
    x[0] += known
    return _scan(e, x, spans, work)


def _hopeless(res, ratio, prev_ratio, left, stop):
    """Whether ``left`` more sweeps cannot bring the update ``res`` under the
    ``stop`` of each node, even if the contraction ``ratio`` kept improving
    as fast as it did over the last sweep: ratio**left * rho**(left (left +
    1) / 2) with rho = ratio / prev_ratio, at most 1.  Waveform relaxation
    converges superlinearly on a window, so the ratios fall; the projection
    counts on that and halves only windows whose ratios have stopped
    falling too soon."""
    rho = min(1.0, ratio / prev_ratio)
    reach = res * ratio**left * rho**(left * (left + 1) // 2)
    return reach > math.sqrt(stop @ stop)


def _window(f, op, hom, tables, conv, g, rows, payloads):
    """Solve one window's steps by waveform relaxation, from the convolution
    ``conv`` and forcing ``g`` at the node before it, its history ``rows``
    (None for a pointwise map) and the ``payloads`` of the nodes before it.
    Returns the states, convolutions, payloads and forcing; a failed sweep
    raises ``NumericFailureError`` without a step."""
    e, wl, wr = tables
    spans = _spans(e)
    if rows is not None:
        past = rows[:, :len(payloads)] @ payloads
        block = rows[:, len(payloads):]
    known = e[0] * conv + wl[0] * g
    U = hom + _convolve(tables, np.broadcast_to(g, hom.shape), known, spans)
    prev_res = np.inf
    for sweep in range(1, _CORRECTOR_MAX_PASSES + 1):
        P = f.eval_node(U, op)
        G = P if rows is None else past + block @ P
        x = _convolve(tables, G, known, spans)
        U_old, U = U, hom + x
        D = U - U_old  # row norms as np.linalg.norm's, without its checks
        d = np.sqrt(np.add.reduce(D * D, axis=1))
        res = math.sqrt(d @ d)
        if not math.isfinite(res):
            raise NumericFailureError("corrector diverged", error_estimate=res)
        stop = _CORRECTOR_RTOL * (1.0 + np.sqrt(np.add.reduce(U * U, axis=1)))
        if np.all(d <= stop):
            return U, x, P, G
        if res >= prev_res:
            raise NumericFailureError(
                f"corrector residual grew ({prev_res:.3e} -> {res:.3e})",
                error_estimate=res)
        ratio = res / prev_res
        # two ratios show the trend; a single step keeps the cap's message
        if sweep > 2 and len(U) > 1 and _hopeless(
                res, ratio, prev_ratio, _CORRECTOR_MAX_PASSES - sweep, stop):
            raise NumericFailureError("window cannot settle within "
                                      f"{_CORRECTOR_MAX_PASSES} sweeps",
                                      error_estimate=res)
        prev_res, prev_ratio = res, ratio
    raise NumericFailureError(
        f"corrector did not converge within {_CORRECTOR_MAX_PASSES} iterations",
        error_estimate=prev_res)


def forward_solve(op, u0, f, grid):
    """March the mild solution u(t) = e^{tA} u0 + int_0^t e^{(t-s)A} f(u)(s) ds.

    The exponential trapezoid rule gives one integral identity per step,
    solved by waveform relaxation over windows of up to 64 steps.  The
    homogeneous part is applied directly from t = 0, so zero forcing gives
    the semigroup exactly.  A window starts from the forcing at the node
    before it, held constant; a sweep is one ``f.eval_node`` call on the
    window's (k, m) stack of states, O(k N m) for N grid points and m modes,
    and a doubling scan for the convolution, O(k m log k).  The sweeps stop
    once every node's update is below 1e-14 (1 + ||u||), and the last
    sweep's forcing is accepted, so each state is exactly the convolution of
    the accepted forcing.  These are the equations a step-by-step corrector
    solves, with the same fixed point.

    A window whose payload overflows, whose update turns non-finite or
    grows, or that takes more than 25 sweeps is halved and retried, and so
    is one whose contraction ratios show, from the third sweep on, that 25
    cannot suffice; the length doubles back toward 64 after each solved
    window.  A single step
    that fails raises ``NumericFailureError`` with its ``step`` (0 when the
    payload of u0 overflows).  For a memory kernel the solve allocates one
    (64, n + 1) buffer and a fixed work area of four arrays of at most 2**14
    floats, once, and writes each window's history rows into them in place,
    also after a window is halved; its sum over earlier nodes is formed once
    per window, so the solve holds O(n (m + 64)) floats for n steps, never
    the (n + 1)**2 operator.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (op.n_modes,) or not np.all(np.isfinite(u0)):
        raise InvalidParameterError("u0 must be a finite coefficient vector")
    nodes = grid.nodes
    n = nodes.size - 1
    e, wl, wr = _step_tables(nodes, op.eigenvalues)
    coeffs = np.empty((n + 1, op.n_modes))
    coeffs[0] = u0
    payloads = np.empty_like(coeffs)
    conv = np.zeros(op.n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        hom = np.outer(nodes, op.eigenvalues)
        np.exp(hom, out=hom)
        hom *= u0
        try:
            payloads[0] = f.eval_node(u0, op)
        except NumericFailureError as err:
            raise _at_step(err, 0) from err
        writer = f._row_writer(nodes, _WINDOW)
        g = (payloads[0] if writer is None
             else writer.fill(0, 1)[0, 0] * payloads[0])
        s, k, built, rows = 0, _WINDOW, -1, None
        while s < n:
            k = min(k, n - s)
            if writer is not None and built != s:
                rows, built = writer.fill(s + 1, s + k + 1), s
            w = slice(s, s + k)
            try:
                U, x, P, G = _window(
                    f, op, hom[s + 1:s + k + 1], (e[w], wl[w], wr[w]), conv,
                    g, None if rows is None else rows[:k, :s + k + 1],
                    payloads[:s + 1])
            except NumericFailureError as err:
                if k == 1:
                    raise _at_step(err, s + 1) from err
                k //= 2
                continue
            coeffs[s + 1:s + k + 1] = U
            payloads[s + 1:s + k + 1] = P
            conv, g = x[-1], G[-1]
            s += k
            k = min(2 * k, _WINDOW)
    return Trajectory(grid, coeffs)


def _at_step(err, step):
    """The failure ``err`` again, carrying the step where it happened."""
    return NumericFailureError(f"{err} at step {step}",
                               error_estimate=err.error_estimate, step=step)


def _hat_pieces(nodes, b):
    """b cut at the nodes, for ``kernels._hat_scatter``: the cuts and, on
    each piece, X = int b and Y = int tau b in closed form, w sum_m c_m /
    (m + 1) and w sum_m c_m / (m + 2), with no e^{t lam} anywhere."""
    cuts, w, c = _cut_at(nodes, *b.pieces(nodes[-1]))
    inv = 1.0 / np.arange(1.0, c.shape[1] + 2)
    return cuts, w * (c @ inv[:-1]), w * (c @ inv[1:])


def observe(u, a, b):
    """Weighted time-average observation a*u(T) + int_0^T b(t) u(t) dt.

    Product integration on the trajectory's own grid, t = 0 included: b is
    integrated exactly against the piecewise-linear interpolant of u, its
    breakpoints included, so the rule is exact for u linear between nodes,
    second order for smooth u, and the trapezoid rule for constant b.  It
    shares no formula with the recovery's psi weights, which integrate
    e^{t lam}, so round-trip errors reflect genuine method error rather
    than a shared quadrature.
    """
    if not isinstance(b, WeightFunction):
        raise InvalidParameterError("b must be a WeightFunction")
    w = _hat_scatter(*_hat_pieces(u.grid.nodes, b), u.grid.nodes)
    return a * u.coeffs[-1] + w @ u.coeffs
