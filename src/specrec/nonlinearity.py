"""Nonlinearity catalogue and admissibility checks.

Three forcing terms are supported: the zero map, a pointwise superlinear
power law kappa*|u|**ell * u applied on the physical grid, and a memory
kernel integrating c*(t-s)**lambda_exp * |u(s)|**ell * u(s) over the past.
All of them vanish on the zero state, which is the structural property the
small-data recovery theory rests on.
"""

import numpy as np
from dataclasses import dataclass

from .errors import InvalidParameterError, NumericFailureError
from .spectral import Trajectory, analyze, fractional_norm, synthesize


class Nonlinearity:
    """Base class: a map from trajectories to forcing trajectories."""

    #: True when f maps the zero state to zero (all catalogue members do).
    vanishes_at_zero = True

    def eval_node(self, coeffs, grid, i, op):
        """Forcing coefficients at node i given state rows 0..i."""
        raise NotImplementedError

    def eval_trajectory(self, u, op):
        """Forcing trajectory for a full state trajectory."""
        raise NotImplementedError

    def declared_exponents(self, theta):
        """(gamma, nu) this nonlinearity declares for the weighted-space
        assumptions, given the solution-space exponent theta."""
        raise NotImplementedError


class Zero(Nonlinearity):
    """The zero forcing term."""

    ell = 1.0

    def eval_node(self, coeffs, grid, i, op):
        return np.zeros(op.n_modes)

    def eval_trajectory(self, u, op):
        return Trajectory.zeros(u.grid, op.n_modes)

    def declared_exponents(self, theta):
        return 0.0, 0.0

    def __repr__(self):
        return "Zero()"


def _pointwise_power(kappa, ell, values):
    return kappa * np.abs(values) ** ell * values


class PowerLaw(Nonlinearity):
    """Pointwise superlinear map kappa*|u|**ell * u on the physical grid."""

    def __init__(self, kappa, ell):
        if not ell > 0:
            raise InvalidParameterError("superlinearity exponent ell must be positive")
        self.kappa = float(kappa)
        self.ell = float(ell)

    def eval_node(self, coeffs, grid, i, op):
        return self.eval_coeffs(op, coeffs[i])

    def eval_coeffs(self, op, c):
        values = _pointwise_power(self.kappa, self.ell, synthesize(op, c))
        if not np.all(np.isfinite(values)):
            raise NumericFailureError("power law produced non-finite values")
        return analyze(op, values)

    def eval_trajectory(self, u, op):
        V = u.coeffs @ op.basis.T
        W = _pointwise_power(self.kappa, self.ell, V)
        if not np.all(np.isfinite(W)):
            raise NumericFailureError("power law produced non-finite values")
        out = (W * op.weights) @ op.basis
        if not u.includes_t0:
            # state at t=0 unavailable: take the limit from the first
            # interior node
            out[0] = out[1]
        return Trajectory(u.grid, out)

    def declared_exponents(self, theta):
        return 0.0, theta * (self.ell + 1.0)

    def __repr__(self):
        return f"PowerLaw(kappa={self.kappa!r}, ell={self.ell!r})"


class MemoryKernel(Nonlinearity):
    """Forcing with memory: f(u)(t) = int_0^t c*(t-s)**lambda_exp *
    |u(s)|**ell * u(s) ds, evaluated pointwise on the physical grid.

    The kernel power may be singular (lambda_exp in (-1, 0)); the quadrature
    integrates the power factor exactly against piecewise-linear data, so the
    endpoint singularity costs no accuracy.
    """

    def __init__(self, c, lambda_exp, ell):
        if not lambda_exp > -1.0:
            raise InvalidParameterError("kernel exponent must exceed -1")
        if not ell > 0:
            raise InvalidParameterError("superlinearity exponent ell must be positive")
        self.c = float(c)
        self.lambda_exp = float(lambda_exp)
        self.ell = float(ell)

    def _segment_weights(self, nodes, i):
        """Exact moments of (t_i - s)**lambda_exp against piecewise-linear
        data on the segments of [0, t_i]."""
        le = self.lambda_exp
        ti = nodes[i]
        right = ti - nodes[:i]        # decreasing, > 0
        left = ti - nodes[1:i + 1]    # last entry is 0
        h = nodes[1:i + 1] - nodes[:i]
        m0 = (right ** (le + 1.0) - left ** (le + 1.0)) / (le + 1.0)
        m1 = (right ** (le + 2.0) - left ** (le + 2.0)) / (le + 2.0)
        w_right = (right * m0 - m1) / h
        w_left = m0 - w_right
        return w_left, w_right

    def _payload(self, coeffs, op, include_t0):
        V = coeffs @ op.basis.T
        P = _pointwise_power(self.c, self.ell, V)
        if not include_t0:
            P[0] = P[1]
        if not np.all(np.isfinite(P)):
            raise NumericFailureError("memory kernel produced non-finite values")
        return P

    def eval_node(self, coeffs, grid, i, op):
        if i == 0:
            return np.zeros(op.n_modes)
        P = self._payload(coeffs[:i + 1], op, True)
        w_left, w_right = self._segment_weights(grid.nodes, i)
        values = w_left @ P[:-1] + w_right @ P[1:]
        return analyze(op, values)

    def eval_trajectory(self, u, op):
        nodes = u.grid.nodes
        P = self._payload(u.coeffs, op, u.includes_t0)
        out = np.zeros((nodes.size, op.n_modes))
        for i in range(1, nodes.size):
            w_left, w_right = self._segment_weights(nodes, i)
            values = w_left @ P[:i] + w_right @ P[1:i + 1]
            out[i] = analyze(op, values)
        return Trajectory(u.grid, out)

    def declared_exponents(self, theta):
        gap = theta * (self.ell + 1.0) - 1.0 - self.lambda_exp
        nu = 0.0 if gap < 0.0 else 0.5 * (gap + 1.0)
        return 0.0, nu

    def __repr__(self):
        return (f"MemoryKernel(c={self.c!r}, lambda_exp={self.lambda_exp!r}, "
                f"ell={self.ell!r})")


@dataclass(frozen=True)
class GrowthCheck:
    """Empirical superlinear-growth constant: a sampled lower bound on the
    true Lipschitz constant, never a proof."""

    c_hat: float
    ok: bool
    n_samples: int


def check_growth_condition(f, op, spec, sample_count=200,
                           amplitude_range=(0.01, 1.0), seed=0):
    """Sample pairs (v, w) and report the largest observed ratio

        ||f(v) - f(w)||_0 / ((||v||_theta**ell + ||w||_theta**ell) ||v - w||_theta).

    Degenerate pairs are skipped; the check fails only on non-finite ratios.
    """
    if sample_count < 100:
        raise InvalidParameterError("sample_count must be at least 100")
    if isinstance(f, Zero):
        return GrowthCheck(0.0, True, sample_count)
    if not isinstance(f, PowerLaw):
        raise InvalidParameterError(
            "the growth check applies to pointwise nonlinearities"
        )
    rng = np.random.default_rng(seed)
    lo, hi = amplitude_range
    c_hat = 0.0
    ok = True
    used = 0
    for k in range(sample_count):
        v = rng.standard_normal(op.n_modes)
        v *= rng.uniform(lo, hi) / max(np.linalg.norm(v), 1e-300)
        if k % 2 == 0:
            w = rng.standard_normal(op.n_modes)
            w *= rng.uniform(lo, hi) / max(np.linalg.norm(w), 1e-300)
        else:
            # probe the w -> v limit, where the ratio peaks
            w = v + rng.uniform(1e-6, 1e-3) * rng.standard_normal(op.n_modes)
        dv = fractional_norm(op, v - w, spec)
        if dv == 0.0:
            continue
        denom = (fractional_norm(op, v, spec) ** f.ell
                 + fractional_norm(op, w, spec) ** f.ell) * dv
        if denom == 0.0:
            continue
        num = np.linalg.norm(f.eval_coeffs(op, v) - f.eval_coeffs(op, w))
        ratio = num / denom
        if not np.isfinite(ratio):
            ok = False
            continue
        used += 1
        c_hat = max(c_hat, float(ratio))
    return GrowthCheck(c_hat, ok, used)


@dataclass(frozen=True)
class KernelAdmissibility:
    ok: bool
    violated: tuple


def check_kernel_admissibility(lambda_exp, theta, ell, nu):
    """Check the memory-kernel admissibility inequalities and name each
    violated one."""
    violated = []
    if not lambda_exp > -1.0:
        violated.append("lambda_exp > -1")
    if not theta * (ell + 1.0) < 1.0:
        violated.append("theta*(ell+1) < 1")
    if not 1.0 + nu + lambda_exp > theta * (ell + 1.0):
        violated.append("1 + nu + lambda_exp > theta*(ell+1)")
    return KernelAdmissibility(not violated, tuple(violated))
