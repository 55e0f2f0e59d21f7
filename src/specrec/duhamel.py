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
from .kernels import WeightFunction, moments
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
    J = moments(z, 1)
    return np.exp(z), h * J[1], h * (J[0] - J[1])


def duhamel_convolve(op, g, *, tables=None):
    """Convolve a forcing trajectory with the semigroup.

    Returns v with v(t_i) = int_0^{t_i} e^{(t_i-s)A} g(s) ds, computed per
    mode by a one-step recurrence that is exact whenever g is linear in time
    between nodes.  A caller convolving many trajectories on one grid builds
    the grid's ``_step_tables`` once and passes them as ``tables``.
    """
    if g.coeffs.shape[1] != op.n_modes:
        raise InvalidParameterError("forcing trajectory does not match the operator")
    if tables is None:
        tables = _step_tables(g.grid.nodes, op.eigenvalues)
    e, wl, wr = tables
    inc = wl * g.coeffs[:-1] + wr * g.coeffs[1:]
    out = np.zeros_like(g.coeffs)
    for i in range(inc.shape[0]):
        out[i + 1] = e[i] * out[i] + inc[i]
    return Trajectory(g.grid, out)


# Rows of a memory kernel's history operator that forward_solve requests at
# a time: the block holds 32 (n + 1) floats, O(n), and one build serves 32
# steps.
_HISTORY_BLOCK = 32

# The corrector stops once an update is below this multiple of 1 + ||u||:
# 45 ulp of the state, a few times the rounding of one pass, so it neither
# stops early nor chases rounding noise (the 1 covers states near zero).
_CORRECTOR_RTOL = 1e-14

# Corrector passes per step, at most: the stop above is reached from an O(1)
# first update in 25 passes whenever each pass contracts the update by 0.27
# or better (0.27**25 < 1e-14).  A step contracting more slowly than that is
# too long for the forcing's Lipschitz constant and is reported, not ground
# through.
_CORRECTOR_MAX_PASSES = 25


def _history_rows(f, nodes):
    """Row i of f's history weights, node by node, of length i + 1 (None for
    a pointwise map), built ``_HISTORY_BLOCK`` rows at a time."""
    for start in range(0, nodes.size, _HISTORY_BLOCK):
        stop = min(start + _HISTORY_BLOCK, nodes.size)
        block = f.history_rows(nodes, start, stop)
        for i in range(start, stop):
            yield None if block is None else block[i - start, :i + 1]


def _forcing(f, op, i, row, payloads):
    """The forcing at node i as a function of the state there, given its
    history row and the payloads of nodes 0..i-1; each call stores node i's
    payload."""
    hist = None if row is None else row[:-1] @ payloads[:i]

    def forcing(c):
        try:
            p = payloads[i] = f.eval_node(c, op)
        except NumericFailureError as err:
            raise NumericFailureError(f"{err} at step {i}",
                                      error_estimate=err.error_estimate,
                                      step=i) from err
        return p if row is None else hist + row[-1] * p
    return forcing


def forward_solve(op, u0, f, grid):
    """March the mild solution u(t) = e^{tA} u0 + int_0^t e^{(t-s)A} f(u)(s) ds.

    Each step solves the step-local integral identity by a predictor-corrector
    sweep on the exponential trapezoid rule.  The homogeneous part is applied
    directly from t = 0, never compounded step by step, so zero forcing gives
    the semigroup exactly.

    The corrector starts from the linear extrapolation of the last two
    accepted forcing values, scaled by the step ratio h_i / h_{i-1} so that
    it stays first-order accurate on graded grids (the first step starts from
    the forcing at u0).  Once the corrector stops, the forcing of its last pass
    is accepted as the node's forcing: the accepted state is exactly
    ``hom + base + w_R g`` for that g, so no further evaluation is made and
    the march stays self-consistent.  A step then costs about two payload
    evaluations, each one synthesise/analyse pair, O(N m) for N grid points
    and m modes, plus O(m) arithmetic.

    The payload ``f.eval_node`` of each accepted node is kept, so a memory
    kernel's history sum over the earlier nodes is formed once per step,
    O(i m) at step i.  Its history weights come from ``f.history_rows``, 32
    rows per build, so the solve holds O(n (m + 32)) floats for n steps,
    never the (n + 1)**2 operator.  Overflow raises ``NumericFailureError``
    carrying the step.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (op.n_modes,) or not np.all(np.isfinite(u0)):
        raise InvalidParameterError("u0 must be a finite coefficient vector")
    nodes = grid.nodes
    n1 = nodes.size
    e, wl, wr = _step_tables(nodes, op.eigenvalues)
    h = np.diff(nodes)
    coeffs = np.empty((n1, op.n_modes))
    coeffs[0] = u0
    payloads = np.empty((n1, op.n_modes))
    conv = np.zeros(op.n_modes)
    rows = _history_rows(f, nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        hom = np.exp(np.outer(nodes, op.eigenvalues)) * u0
        # the predictor's step ratios: 0 starts a step from the last forcing
        # value, as on the first step, which has no earlier one, and on a step
        # whose ratio overflows, which follows a subnormal one
        ratios = np.concatenate(([0.0], h[1:] / h[:-1]))
        ratios[np.isinf(ratios)] = 0.0
        g_prev = g_old = _forcing(f, op, 0, next(rows), payloads)(u0)
        for i in range(n1 - 1):
            forcing = _forcing(f, op, i + 1, next(rows), payloads)
            base = e[i] * conv + wl[i] * g_prev
            known = hom[i + 1] + base
            g = g_prev + ratios[i] * (g_prev - g_old)
            u = known + wr[i] * g
            prev_res = np.inf
            for _ in range(_CORRECTOR_MAX_PASSES):
                g = forcing(u)
                u_new = known + wr[i] * g
                d = u_new - u
                u = u_new
                res = math.sqrt(d @ d)
                if not math.isfinite(res):
                    raise NumericFailureError(
                        f"corrector diverged at step {i + 1}",
                        error_estimate=res, step=i + 1,
                    )
                if res <= _CORRECTOR_RTOL * (1.0 + math.sqrt(u @ u)):
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
                    "corrector did not converge within "
                    f"{_CORRECTOR_MAX_PASSES} iterations at step {i + 1}",
                    error_estimate=prev_res, step=i + 1,
                )
            coeffs[i + 1] = u
            g_old, g_prev = g_prev, g
            conv = base + wr[i] * g
    return Trajectory(grid, coeffs)


def observe(u, a, b):
    """Weighted time-average observation a*u(T) + int_0^T b(t) u(t) dt.

    Uses the composite trapezoid rule on the trajectory's own grid, t = 0
    included.  This is deliberately a different discretization from the
    recovery operators, so that round-trip errors reflect genuine method
    error rather than a shared quadrature.
    """
    if not isinstance(b, WeightFunction):
        raise InvalidParameterError("b must be a WeightFunction")
    nodes = u.grid.nodes
    bw = np.asarray(b(nodes), dtype=float)
    integrand = bw[:, None] * u.coeffs
    h = np.diff(nodes)
    integral = 0.5 * ((integrand[:-1] + integrand[1:]) * h[:, None]).sum(axis=0)
    return a * u.coeffs[-1] + integral
