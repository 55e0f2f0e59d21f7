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
    R(lo) = e^z R(hi) + w sum_m c_m J_m(z), one row at a time, with the
    same moments and e^z."""
    z = w[:, None] * lam
    J = kernels.moments(z, c.shape[1] - 1 if kmax is None else kmax)
    inner = w[:, None] * np.einsum("pm,mpj->pj", c, J[:c.shape[1]])
    step = np.exp(z)
    R = np.empty((w.size + 1, lam.size))
    R[-1] = 0.0
    for p in range(w.size - 1, -1, -1):
        R[p] = step[p] * R[p + 1] + inner[p]
    return R, J, step


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
