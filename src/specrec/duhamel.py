"""Forward mild-solution solver and the inhomogeneous convolution.

The state is marched in the eigenbasis by an exponential trapezoid rule: the
homogeneous part is applied exactly through the semigroup, and the forcing
enters through phi-function weights that integrate piecewise-linear data
exactly.  Stiff modes therefore cost nothing in stability, and zero forcing
reproduces the semigroup to rounding.
"""

import numpy as np

from .errors import InvalidParameterError, NumericFailureError
from .kernels import WeightFunction, moments, phi1
from .spectral import Trajectory

__all__ = ["phi1", "duhamel_convolve", "forward_solve", "observe"]


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
    J = moments(z, 1)
    return np.exp(z), h * J[1], h * (J[0] - J[1])


def _require_same_grid(g, grid):
    if grid is None:
        return g.grid
    if not np.array_equal(g.grid.nodes, grid.nodes):
        raise InvalidParameterError("trajectory grid does not match the given grid")
    return grid


def duhamel_convolve(op, g, grid=None):
    """Convolve a forcing trajectory with the semigroup.

    Returns v with v(t_i) = int_0^{t_i} e^{(t_i-s)A} g(s) ds, computed per
    mode by a one-step recurrence that is exact whenever g is linear in time
    between nodes.
    """
    grid = _require_same_grid(g, grid)
    if g.coeffs.shape[1] != op.n_modes:
        raise InvalidParameterError("forcing trajectory does not match the operator")
    e, wl, wr = _step_tables(grid.nodes, op.eigenvalues)
    inc = wl * g.coeffs[:-1] + wr * g.coeffs[1:]
    out = np.zeros_like(g.coeffs)
    for i in range(inc.shape[0]):
        out[i + 1] = e[i] * out[i] + inc[i]
    return Trajectory(grid, out)


def forward_solve(op, u0, f, grid, max_inner=25):
    """March the mild solution u(t) = e^{tA} u0 + int_0^t e^{(t-s)A} f(u)(s) ds.

    Each step solves the step-local integral identity by a predictor-corrector
    sweep on the exponential trapezoid rule.  The homogeneous part is applied
    directly from t = 0, never compounded step by step, so zero forcing gives
    the semigroup exactly.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (op.n_modes,) or not np.all(np.isfinite(u0)):
        raise InvalidParameterError("u0 must be a finite coefficient vector")
    nodes = grid.nodes
    n1 = nodes.size
    hom = np.exp(np.outer(nodes, op.eigenvalues)) * u0
    e, wl, wr = _step_tables(nodes, op.eigenvalues)
    coeffs = np.empty((n1, op.n_modes))
    coeffs[0] = u0
    conv = np.zeros(op.n_modes)
    g_prev = f.eval_node(coeffs, grid, 0, op)
    for i in range(n1 - 1):
        base = e[i] * conv + wl[i] * g_prev
        coeffs[i + 1] = hom[i + 1] + base + wr[i] * g_prev
        prev_res = np.inf
        for _ in range(max_inner):
            g_next = f.eval_node(coeffs, grid, i + 1, op)
            u_new = hom[i + 1] + base + wr[i] * g_next
            res = float(np.linalg.norm(u_new - coeffs[i + 1]))
            coeffs[i + 1] = u_new
            if not np.isfinite(res):
                raise NumericFailureError(
                    f"corrector diverged at step {i + 1}",
                    error_estimate=res, step=i + 1,
                )
            if res <= 1e-14 * (1.0 + np.linalg.norm(u_new)):
                break
            if res >= prev_res:
                raise NumericFailureError(
                    f"corrector residual grew at step {i + 1} "
                    f"({prev_res:.3e} -> {res:.3e})",
                    error_estimate=res, step=i + 1,
                )
            prev_res = res
        else:
            raise NumericFailureError(
                f"corrector did not converge within {max_inner} iterations "
                f"at step {i + 1}",
                error_estimate=prev_res, step=i + 1,
            )
        g_next = f.eval_node(coeffs, grid, i + 1, op)
        conv = base + wr[i] * g_next
        g_prev = g_next
    return Trajectory(grid, coeffs)


def observe(u, a, b, grid=None):
    """Weighted time-average observation a*u(T) + int_0^T b(t) u(t) dt.

    Uses the composite trapezoid rule on the trajectory's own grid.  This is
    deliberately a different discretization from the recovery operators, so
    that round-trip errors reflect genuine method error rather than a shared
    quadrature.
    """
    grid = _require_same_grid(u, grid)
    if not isinstance(b, WeightFunction):
        raise InvalidParameterError("b must be a WeightFunction")
    if not u.includes_t0:
        raise InvalidParameterError("observation needs the t = 0 node populated")
    nodes = grid.nodes
    bw = np.asarray(b(nodes), dtype=float)
    integrand = bw[:, None] * u.coeffs
    h = np.diff(nodes)
    integral = 0.5 * ((integrand[:-1] + integrand[1:]) * h[:, None]).sum(axis=0)
    return a * u.coeffs[-1] + integral
