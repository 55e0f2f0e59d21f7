"""Initial-state recovery from nonlocal-in-time observations.

Three observation couplings are supported, each reducing to a nonlocal
initial condition u(0) = S(u) that is diagonal in the eigenbasis:

* problem "E":    a*u(T) + int_0^T b(t) u(t) dt = M
* problem "E100": u(0) - b*u(T) = M            (scalar b)
* problem "E200": u(0) + int_0^T b(t) u(t) dt = M

The recovered initial state is the fixed point of successive substitution
u -> e^{tA} S(u) + convolution(f(u)), run in the combined weighted-plus-sup
metric.  S is affine in the forcing, S(g) = (M - psi(g)) / d per mode, and
its denominators d and the per-node weights of psi are built once per
problem: exactly from phi functions for a constant observation weight, with
a 6-point Gauss-Legendre rule per grid interval on the tail factor of any
other weight.  A theoretical smallness threshold for the observation data is
estimated alongside.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .duhamel import _step_tables, duhamel_convolve
from .errors import (AdmissibilityError, IllPosedModeError,
                     InvalidParameterError, NumericFailureError)
from .kernels import (ILL_POSED_RTOL, ConstantWeight, WeightFunction,
                      _require_nonvanishing, _tail, beta_function, moments,
                      mode_weights)
from .spectral import (FractionalNormSpec, Trajectory, fractional_norm,
                       weighted_sup_norm)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


# --------------------------------------------------------------------------
# nonlocal conditions
# --------------------------------------------------------------------------

class NonlocalCondition:
    """Base class for the three observation couplings."""

    problem = None

    def __init__(self, M):
        M = np.atleast_1d(np.asarray(M, dtype=float))
        if M.ndim != 1 or not np.all(np.isfinite(M)):
            raise InvalidParameterError("M must be a finite coefficient vector")
        self.M = M
        self.M.setflags(write=False)


class ConditionE(NonlocalCondition):
    """Weighted time-average coupling a*u(T) + int b(t) u(t) dt = M.

    Requires b(0) != 0: without weight at the initial instant the average
    carries no information about the initial state.
    """

    problem = "E"

    def __init__(self, a, b, M):
        super().__init__(M)
        if not isinstance(b, WeightFunction):
            raise InvalidParameterError("b must be a WeightFunction")
        if b.value_at_zero == 0.0:
            raise AdmissibilityError("problem E requires b(0) != 0")
        self.a = float(a)
        self.b = b


class ConditionE100(NonlocalCondition):
    """Initial-final coupling u(0) - b*u(T) = M with scalar b != 0."""

    problem = "E100"

    def __init__(self, b, M):
        super().__init__(M)
        b = float(b)
        if b == 0.0:
            raise AdmissibilityError("problem E100 requires b != 0")
        self.b = b


class ConditionE200(NonlocalCondition):
    """Initial-plus-average coupling u(0) + int b(t) u(t) dt = M."""

    problem = "E200"

    def __init__(self, b, M):
        super().__init__(M)
        if not isinstance(b, WeightFunction):
            raise InvalidParameterError("b must be a WeightFunction")
        if b.is_zero:
            raise AdmissibilityError("problem E200 requires a nonzero weight")
        self.b = b


# --------------------------------------------------------------------------
# the affine observation corrections
# --------------------------------------------------------------------------
#
# Every condition reads c*u(0) + a*u(T) + int_0^T b(t) u(t) dt = M.  With the
# mild solution u(t) = e^{tA} u(0) + v(t), v the convolution of the forcing
# g, it fixes u(0) = (M - psi(g)) / d per mode, where
#
#     d_j      = c + a e^{T lam_j} + int_0^T b(t) e^{t lam_j} dt
#     psi_j(g) = a v_j(T) + int_0^T b(t) v_j(t) dt
#              = int_0^T g_j(s) [a e^{(T-s) lam_j} + tail_j(s)] ds,
#
# tail_j(s) = int_s^T b(t) e^{(t-s) lam_j} dt.  Both depend on the problem
# only, so they are built once and each sweep is two array contractions.

_NO_WEIGHT = ConstantWeight(0.0)


def _coupling(cond):
    """(c, a, b) of a condition."""
    if cond.problem == "E":
        return 0.0, cond.a, cond.b
    if cond.problem == "E100":
        return 1.0, -cond.b, _NO_WEIGHT
    if cond.problem == "E200":
        return 1.0, 0.0, cond.b
    raise InvalidParameterError(f"unknown problem tag {cond.problem!r}")


def _denominators(op, c, a, b, T):
    """Per-mode denominators d_j and their magnitude scales
    |c| + |a| e^{T lam_j} + int_0^T |b(t)| e^{t lam_j} dt."""
    w = mode_weights(op, a, b, T)
    return c + w.betas, abs(c) + w.scales


def _psi_weights(op, grid, a, b):
    """Per-node weights (wL, wR), each (n_steps, n_modes), such that
    psi_j(g) = sum_k wL[k, j] g_k[j] + wR[k, j] g_{k+1}[j] for g linear
    between the grid nodes.

    The a-term is exact.  For constant b the tail term is exact too: on step
    k, with R = (T - t_{k+1}) J_0((T - t_{k+1}) lam), the tail splits into
    the part inside the step, h**2 (J_0 - J_2)/2 and h**2 (J_0 - 2 J_1 +
    J_2)/2 at z = h lam against the two hats, and e^{(t_{k+1}-s) lam} R.
    Other weights integrate the tail against the hat functions with a
    6-point Gauss-Legendre rule per step.
    """
    lam = op.eigenvalues
    nodes = grid.nodes
    T = grid.T
    h = np.diff(nodes)[:, None]
    rest = T - nodes[1:, None]
    _, left, right = _step_tables(nodes, lam)
    carry = a * np.exp(rest * lam)
    wl, wr = carry * left, carry * right
    if b.is_zero:
        return wl, wr
    if isinstance(b, ConstantWeight):
        J = moments(h * lam, 2)
        R = rest * moments(rest * lam, 0)[0]
        wl += b.value * (h * h * 0.5 * (J[0] - J[2]) + left * R)
        wr += b.value * (h * h * 0.5 * (J[0] - 2.0 * J[1] + J[2]) + right * R)
        return wl, wr
    frac = 0.5 * (1.0 + _GL_NODES)
    S = nodes[:-1, None] + h * frac
    Wq = 0.5 * h * _GL_WEIGHTS
    tails = _tail(lam, S.ravel(), *b.pieces(T)).reshape(S.shape + lam.shape)
    wl += np.einsum("kq,kqj->kj", Wq * (1.0 - frac), tails)
    wr += np.einsum("kq,kqj->kj", Wq * frac, tails)
    return wl, wr


def _psi(weights, g):
    """psi(g) for the per-node weights of ``_psi_weights`` and coefficient
    samples g of shape (n_nodes, n_modes)."""
    wl, wr = weights
    return np.einsum("kj,kj->j", wl, g[:-1]) + np.einsum("kj,kj->j", wr, g[1:])


def _require_forcing_grid(T, g, op):
    if abs(T - g.grid.T) > 1e-12 * max(1.0, T):
        raise InvalidParameterError("T does not match the forcing grid")
    if g.coeffs.shape[1] != op.n_modes:
        raise InvalidParameterError("forcing trajectory does not match the operator")


def apply_psi_E(a, b, T, g, op):
    """Accumulated contribution of a forcing trajectory to the time-average
    observation:

        a * int_0^T e^{(T-s)A} g(s) ds
        + int_0^T g_j(s) * [tail integral of b from s] ds   (per mode).

    A one-shot call: it builds the per-node weights that ``picard_recover``
    builds once per problem and contracts them with g.  The result is exact
    for g linear between nodes when b is constant, stable for arbitrarily
    stiff modes, and uses a 6-point Gauss-Legendre rule per grid interval on
    the tail factor of any other b.
    """
    _require_forcing_grid(T, g, op)
    return _psi(_psi_weights(op, g.grid, a, b), g.coeffs)


def _sigma_once(op, a, b, T, M, g, denominators, tol):
    _require_forcing_grid(T, g, op)
    denoms, scales = denominators
    _require_nonvanishing(denoms, scales, tol)
    psi = _psi(_psi_weights(op, g.grid, a, b), g.coeffs)
    return (np.asarray(M, dtype=float) - psi) / denoms


def sigma_E(w, M, g, op, tol=ILL_POSED_RTOL):
    """Initial state for problem E: per mode (M_j - psi_j) / beta_j."""
    return _sigma_once(op, w.a, w.weight, w.T, M, g, (w.betas, w.scales), tol)


def sigma_E100(b, T, M, g, op, tol=ILL_POSED_RTOL):
    """Initial state for problem E100:
    (M_j + b * int_0^T e^{(T-s)lam_j} g_j ds) / (1 - b e^{T lam_j})."""
    den = _denominators(op, 1.0, -b, _NO_WEIGHT, T)
    return _sigma_once(op, -b, _NO_WEIGHT, T, M, g, den, tol)


def sigma_E200(b, T, M, g, op, tol=ILL_POSED_RTOL):
    """Initial state for problem E200: (M_j - psi0_j) / (1 + phi0_j)."""
    den = _denominators(op, 1.0, 0.0, b, T)
    return _sigma_once(op, 0.0, b, T, M, g, den, tol)


# --------------------------------------------------------------------------
# spectral admissibility
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralConditionReport:
    """Per-mode margins of the diagonal denominators.

    A mode passes when its |denominator| exceeds tol times its magnitude
    scale.  Violations are data, not exceptions.
    """

    problem: str
    margins: np.ndarray
    scales: np.ndarray
    tol: float
    ok_per_mode: np.ndarray
    failing_modes: tuple
    ok: bool


def check_spectral_condition(op, cond, T, tol=ILL_POSED_RTOL):
    """Evaluate the per-mode solvability margins for a condition."""
    denoms, scales = _denominators(op, *_coupling(cond), T)
    margins = np.abs(denoms)
    ok_per_mode = margins > tol * scales
    failing = tuple(int(j) + 1 for j in np.nonzero(~ok_per_mode)[0])
    return SpectralConditionReport(cond.problem, margins, scales, float(tol),
                                   ok_per_mode, failing, not failing)


# --------------------------------------------------------------------------
# Picard fixed point
# --------------------------------------------------------------------------

@dataclass
class FixedPointReport:
    """Trace of the successive-substitution iteration.

    ``trajectory`` carries the final iterate (the discrete mild solution on
    convergence); it is excluded from serialized reports.
    """

    iterations: int
    residual_weighted: list
    residual_sup: list
    contraction_ratios: list
    converged: bool
    u0_recovered: np.ndarray
    sigma_T0_norm: float
    threshold_m: float = None
    diverged: bool = False
    trajectory: Trajectory = None

    @property
    def final_ratio(self):
        return self.contraction_ratios[-1] if self.contraction_ratios else math.nan


def _small_t_diagnostic(op, T, betas):
    """Scale check for the short-horizon regime: the graph-norm size of the
    diagonal observation inverse should stay of order 1/T."""
    graph_weight = np.maximum(1.0, -op.eigenvalues)
    return float(np.max(T / (np.abs(betas) * graph_weight)))


def picard_recover(op, cond, f, grid, spec, tol=1e-10, max_iter=200,
                   initial="zero", small_t_mode=False, threshold_m=None):
    """Recover the initial state by successive substitution.

    Starting from the zero trajectory (or from the linear solution when
    ``initial="linear"``), each sweep recomputes the nonlocal initial value
    from the current forcing and propagates it forward.  Iteration stops when
    the combined weighted-plus-sup residual drops below ``tol``; hitting
    ``max_iter`` or a runaway residual yields a report with
    ``converged=False``, never a silent answer.

    The initial value map u(0) = (M - psi(g)) / d is affine in the forcing
    g, so its denominators and the per-node weights of psi are built once
    per call; each sweep applies them as array contractions.  The weights
    are exact for forcing linear between nodes when the observation weight
    is constant, and use a 6-point Gauss-Legendre rule per grid interval
    otherwise.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    if int(max_iter) != max_iter or max_iter < 1:
        raise InvalidParameterError("max_iter must be a positive integer")
    T = grid.T
    if cond.M.shape != (op.n_modes,):
        raise InvalidParameterError("M does not match the operator's mode count")
    c, a, b = _coupling(cond)
    denoms, scales = _denominators(op, c, a, b, T)
    _require_nonvanishing(denoms, scales)
    if not f.vanishes_at_zero:
        if not small_t_mode:
            raise AdmissibilityError(
                "the nonlinearity must vanish at the zero state; "
                "enable small_t_mode for the short-horizon regime"
            )
        if cond.problem != "E" or cond.a != 0.0:
            raise AdmissibilityError(
                "small_t_mode applies to problem E with a = 0 only"
            )
        factor = _small_t_diagnostic(op, T, denoms)
        warnings.warn(
            "nonlinearity does not vanish at zero: proceeding in the "
            f"short-horizon regime (inverse-scale factor {factor:.3g}); "
            "expect solvability only for small T",
            stacklevel=2,
        )

    weights = _psi_weights(op, grid, a, b)

    def sigma(g):
        return (cond.M - _psi(weights, g.coeffs)) / denoms

    e0_spec = FractionalNormSpec(0.0, spec.delta0)
    tables = _step_tables(grid.nodes, op.eigenvalues)
    # overflow of a runaway iterate is caught by the finite checks below
    with np.errstate(over="ignore", invalid="ignore"):
        sigma0 = cond.M / denoms
        sigma_T0_norm = fractional_norm(op, sigma0, e0_spec)

        hom = np.exp(np.outer(grid.nodes, op.eigenvalues))
        if initial == "zero":
            u = Trajectory.zeros(grid, op.n_modes)
        elif initial == "linear":
            u = Trajectory(grid, hom * sigma0)
        else:
            raise InvalidParameterError('initial must be "zero" or "linear"')

        residual_weighted = []
        residual_sup = []
        converged = False
        diverged = False
        u0 = sigma0
        first_residual = None
        for _ in range(int(max_iter)):
            try:
                g = f.eval_trajectory(u, op)
                u0 = sigma(g)
                v = duhamel_convolve(op, g, tables=tables)
                new_coeffs = hom * u0 + v.coeffs
            except NumericFailureError:
                # runaway iterate overflowed inside the evaluation chain
                diverged = True
                break
            if not np.all(np.isfinite(new_coeffs)):
                diverged = True
                break
            new = Trajectory(grid, new_coeffs)
            diff = Trajectory(grid, new.coeffs - u.coeffs)
            rw = weighted_sup_norm(op, diff, spec.theta, spec)
            rs = weighted_sup_norm(op, diff, 0.0, e0_spec)
            residual_weighted.append(rw)
            residual_sup.append(rs)
            u = new
            combined = rw + rs
            if combined <= tol:
                converged = True
                break
            if first_residual is None:
                first_residual = combined
            if (not math.isfinite(combined)
                    or combined > 1e6 * first_residual):
                diverged = True
                break
    combined = [rw + rs for rw, rs in zip(residual_weighted, residual_sup)]
    contraction_ratios = [combined[i + 1] / combined[i]
                          for i in range(len(combined) - 1)]
    if converged:
        u0 = sigma(f.eval_trajectory(u, op))
    return FixedPointReport(
        iterations=len(residual_weighted),
        residual_weighted=residual_weighted,
        residual_sup=residual_sup,
        contraction_ratios=contraction_ratios,
        converged=converged,
        u0_recovered=np.asarray(u0, dtype=float),
        sigma_T0_norm=sigma_T0_norm,
        threshold_m=threshold_m,
        diverged=diverged,
        trajectory=u,
    )


# --------------------------------------------------------------------------
# theoretical smallness threshold
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthExponents:
    """Exponent bundle (gamma, theta, nu, ell) of the growth assumptions."""

    gamma: float
    theta: float
    nu: float
    ell: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidParameterError("gamma must lie in [0, 1]")
        if not 0.0 < self.theta <= 1.0:
            raise InvalidParameterError("theta must lie in (0, 1]")
        if self.gamma == 0.0 and self.theta == 1.0:
            raise InvalidParameterError("(gamma, theta) = (0, 1) is excluded")
        if not 0.0 <= self.nu < 1.0:
            raise InvalidParameterError("nu must lie in [0, 1)")
        if not self.ell > 0.0:
            raise InvalidParameterError("ell must be positive")


@dataclass(frozen=True)
class WellPosednessEstimate:
    """Estimated smallness threshold for the observation data.

    ``contraction_factor(L)`` bounds the Lipschitz constant of the
    substitution map on the ball of radius L; ``L_star`` is the largest
    radius keeping it at or below 1/2 and ``m_T = L_star / (4 * omega_T)``
    the resulting data threshold.  All of it rests on the *empirical* growth
    constant supplied by the caller, so it is an estimate, not a proof.
    """

    omega_T: float
    gamma0: float
    beta_value: float
    L_star: float
    m_T: float
    unbounded: bool
    c_hat: float
    T: float
    exponents: GrowthExponents

    def contraction_factor(self, L):
        e = self.exponents
        return (self.omega_T * self.c_hat * L ** e.ell
                * (1.0 + self.T ** (1.0 + self.gamma0 - e.nu) * self.beta_value))


def _omega_estimate(op, theta, gamma, gamma0, T, delta0):
    """Upper estimate of the semigroup constant in the spectral norms.

    With zero shift the smoothing factor has the closed form
    sup_x (t*x)**theta * exp(-t*x) = (theta/e)**theta; otherwise the
    supremum is taken numerically over a log grid in t and the discrete
    modes and inflated by 5%.
    """
    lam = op.eigenvalues
    bounded = math.exp(T * max(0.0, float(lam[0])))
    if delta0 == 0.0 and gamma == 0.0:
        smooth = (theta / math.e) ** theta
        return max(1.0, bounded, smooth)
    ts = T * np.logspace(-8, 0, 200)
    d = delta0 - lam
    grid_exp = np.exp(ts[:, None] * lam[None, :])
    f2 = np.max(ts[:, None] ** theta * d[None, :] ** theta * grid_exp)
    f3 = np.max(ts[:, None] ** (theta - gamma0)
                * d[None, :] ** (theta - gamma) * grid_exp)
    return max(1.0, bounded, 1.05 * float(max(f2, f3)))


def theoretical_threshold(op, exponents, c_hat, T, spec):
    """Estimate the largest observation size for which the substitution map
    provably contracts.

    The auxiliary exponent gamma0 is half of min(gamma, theta) when gamma is
    positive and zero otherwise; the ball radius solves
    contraction_factor(L) = 1/2 by bisection.  Zero growth constant means no
    smallness is needed at all and the threshold is reported as unbounded.
    """
    if not isinstance(exponents, GrowthExponents):
        exponents = GrowthExponents(*exponents)
    if c_hat < 0 or not np.isfinite(c_hat):
        raise InvalidParameterError("c_hat must be a finite nonnegative number")
    if not T > 0:
        raise InvalidParameterError("T must be positive")
    gamma0 = min(exponents.gamma, exponents.theta) / 2.0 \
        if exponents.gamma > 0 else 0.0
    beta_value = beta_function(1.0 + gamma0 - exponents.theta,
                               1.0 - exponents.nu)
    omega = _omega_estimate(op, exponents.theta, exponents.gamma, gamma0,
                            T, spec.delta0)
    bracket = 1.0 + T ** (1.0 + gamma0 - exponents.nu) * beta_value

    def factor(L):
        return omega * c_hat * L ** exponents.ell * bracket

    l_max = 1.0 - 1e-12
    if c_hat == 0.0:
        return WellPosednessEstimate(omega, gamma0, beta_value, 1.0,
                                     math.inf, True, 0.0, float(T), exponents)
    if factor(l_max) <= 0.5:
        l_star = l_max
    else:
        lo, hi = 0.0, l_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if factor(mid) <= 0.5:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        l_star = lo
    return WellPosednessEstimate(omega, gamma0, beta_value, l_star,
                                 l_star / (4.0 * omega), False, float(c_hat),
                                 float(T), exponents)
