"""Shared helpers for the test suite."""

import numpy as np

from specrec import (SpectralOperator, Trajectory, apply_psi_E,
                     duhamel_convolve, kernels)
from specrec.errors import InvalidParameterError
from specrec.recover import _plan_weights


def ulp_close(a, b, n_ulp=4):
    """True when a and b differ by at most n_ulp units in the last place."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tol = n_ulp * np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= tol))


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), 1e-300)
    return float(np.max(np.abs(got - want) / scale))


def trapezoid(u, b):
    """int_0^T b u dt by the trapezoid rule on b*u at u's nodes, the
    observation rule before product integration."""
    bu = b(u.grid.nodes)[:, None] * u.coeffs
    h = np.diff(u.grid.nodes)[:, None]
    return 0.5 * ((bu[:-1] + bu[1:]) * h).sum(axis=0)


def tail_weight(lam, s, T, b):
    """int_s^T b(t) exp((t - s)*lam) dt, zero at s = T: the weight march
    of ``specrec.kernels`` started from a cut at s."""
    edges, coeffs = b.pieces(T)
    if not 0.0 <= s <= T:
        raise InvalidParameterError("s must lie in [0, T]")
    points = np.concatenate([[s], edges[edges > s]])
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    w, c = kernels._cut(edges, coeffs, points)
    return float(kernels._march(lam, w, c)[0][0, 0])


def exp_weight_integral(lam, T, b):
    """int_0^T b(t) exp(t*lam) dt."""
    return tail_weight(lam, 0.0, T, b)


def loop_march(lam, w, c, kmax=None):
    """``kernels._march`` as a Python loop over the pieces, last first:
    R(lo) = e^z R(hi) + q, q = w sum_m c_m J_m(z), and the same recurrence
    over |q|, one row at a time, with the same moments and e^z."""
    z = w[:, None] * lam
    J = kernels.moments(z, c.shape[1] - 1 if kmax is None else kmax)
    inner = w[:, None] * np.einsum("pm,mpj->pj", c, J[:c.shape[1]])
    step = np.exp(z)
    R = np.empty((w.size + 1, lam.size))
    R[-1] = 0.0
    size = np.zeros(lam.size)
    for p in range(w.size - 1, -1, -1):
        R[p] = step[p] * R[p + 1] + inner[p]
        size = step[p] * size + np.abs(inner[p])
    return R, size, J, step


def abs_pieces_oracle(edges, coeffs):
    """|b|'s pieces found one piece at a time, each split at the real roots
    that ``np.roots`` gives inside it and signed at its midpoint: the
    edges, the coefficients and the split points inside b's pieces."""
    out_edges, out_coeffs, inner = [edges[:1]], [], [np.empty(0)]
    for lo, hi, c in zip(edges[:-1], edges[1:], coeffs):
        r = np.roots(c[::-1])
        r = np.sort(r[np.isreal(r)].real)
        r = r[(r > 0.0) & (r < hi - lo) & (lo + r < hi)]
        left = np.concatenate([[0.0], r])
        right = np.concatenate([r, [hi - lo]])
        sign = np.sign(np.polynomial.polynomial.polyval(0.5 * (left + right), c))
        inner.append(lo + r)
        out_edges.append(np.concatenate([lo + r, [hi]]))
        out_coeffs.append(sign[:, None] * kernels._taylor_shift(
            np.tile(c, (left.size, 1)), left))
    return (np.concatenate(out_edges), np.concatenate(out_coeffs),
            np.concatenate(inner))


def two_march_scales(op, a, b, T):
    """The scales of ``mode_weights`` with |b| marched over its own pieces
    in a march of its own, as they were taken before the march of b was
    cut at b's sign changes."""
    lam = op.eigenvalues
    edges, coeffs, _ = abs_pieces_oracle(*b.pieces(T))
    R = kernels._march(lam, *kernels._cut(edges, coeffs, edges))[0]
    return abs(a) * np.exp(T * lam) + R[0]


def loop_scatter(cuts, X, Y, nodes):
    """``kernels._hat_scatter`` as a loop over the nodes and the pieces
    between the cuts, with each node's hat phi_i sampled at the cuts by
    ``np.interp``: phi_i is linear on a piece, so the piece gives node i
    phi_i(lo) X + (phi_i(hi) - phi_i(lo)) Y.  Returns the weights and, per
    node, the sum of |X| + |Y| over the pieces under its hat, which bounds
    the sum of their shares' sizes."""
    W = np.zeros((nodes.size,) + X.shape[1:])
    size = np.zeros_like(W)
    for i in range(nodes.size):
        hat = np.interp(cuts, nodes, np.eye(nodes.size)[i])
        for p in range(cuts.size - 1):
            W[i] += hat[p] * X[p] + (hat[p + 1] - hat[p]) * Y[p]
            if hat[p] or hat[p + 1]:
                size[i] += np.abs(X[p]) + np.abs(Y[p])
    return W, size


def denominators(op, cond, grid):
    """The per-mode denominators d_j of a condition, as a recovery plan on
    the grid takes them."""
    return _plan_weights(op, grid, cond.coupling, cond.problem)[1]


def diagonal_operator(eigenvalues):
    """Operator with the identity eigenbasis; handy for scalar oracles."""
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    n = lam.size
    return SpectralOperator(lam, float(np.max(lam)), np.eye(n),
                            np.arange(n, dtype=float), np.ones(n), "diagonal")


def initial_value(op, cond, T, g):
    """The initial-value map (M - psi(g)) / d of a condition for a forcing
    trajectory g."""
    denoms = denominators(op, cond, g.grid)
    _, a, b = cond.coupling
    return (cond.M - apply_psi_E(a, b, T, g, op)) / denoms


def fixed_point_from_random_start(op, cond, f, grid, rng, tol):
    """Iterate the discrete substitution map Phi(u) = e^{tA} (M - psi(g)) / d
    + conv(g), g = f(u), built from the one-shot ``apply_psi_E`` and
    ``duhamel_convolve``, from a random trajectory as large as the linear
    solution e^{tA} M / d in the sup over nodes of the Euclidean norm.  It
    stops once a sweep moves the iterate by at most ``tol`` in that norm, or
    after 50 sweeps, and returns the start and the last iterate."""
    hom = np.exp(np.outer(grid.nodes, op.eigenvalues))
    denoms = denominators(op, cond, grid)
    size = np.max(np.linalg.norm(hom * (cond.M / denoms), axis=1))
    start = rng.standard_normal(hom.shape)
    start *= size / np.max(np.linalg.norm(start, axis=1))
    u = start
    for _ in range(50):
        g = f.eval_trajectory(Trajectory(grid, u), op)
        new = (hom * initial_value(op, cond, grid.T, g)
               + duhamel_convolve(op, g).coeffs)
        step = np.max(np.linalg.norm(new - u, axis=1))
        u = new
        if step <= tol:
            break
    return start, u
