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
problem, in closed form from moments: exact for g linear between nodes and
any piecewise-polynomial b.  Each condition maps to one coupling (c, a, b),
and one predicate on the denominators, |d_j| > tol * scale_j, decides
solvability for both the spectral check and the Picard driver.  A
theoretical smallness threshold for the observation data is estimated
alongside.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .duhamel import _convolve, _spans, _step_tables
from .errors import (AdmissibilityError, IllPosedModeError,
                     InvalidParameterError, NumericFailureError)
from .kernels import (ConstantWeight, WeightFunction, _cut, _march,
                      beta_function, mode_weights)
from .spectral import (FractionalNormSpec, Trajectory, _row_norms,
                       fractional_norm)

# Not called here: perfbench wraps these names at this module to time the
# layers of a recovery (tests/test_benchmark_targets.py), and a sweep now
# uses the array-level helpers behind them.
from .duhamel import duhamel_convolve  # noqa: F401
from .spectral import weighted_sup_norm  # noqa: F401


# --------------------------------------------------------------------------
# nonlocal conditions
# --------------------------------------------------------------------------

def _finite_scalar(value, name):
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite")
    return value


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
        self.a = _finite_scalar(a, "a")
        self.b = b


class ConditionE100(NonlocalCondition):
    """Initial-final coupling u(0) - b*u(T) = M with scalar b != 0."""

    problem = "E100"

    def __init__(self, b, M):
        super().__init__(M)
        self.b = _finite_scalar(b, "b")
        if self.b == 0.0:
            raise AdmissibilityError("problem E100 requires b != 0")


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
    """(c, a, b) of a condition, c*u(0) + a*u(T) + int b u dt = M; the
    observation synthesis reads it too."""
    if cond.problem == "E":
        return 0.0, cond.a, cond.b
    if cond.problem == "E100":
        return 1.0, -cond.b, _NO_WEIGHT
    if cond.problem == "E200":
        return 1.0, 0.0, cond.b
    raise InvalidParameterError(f"unknown problem tag {cond.problem!r}")


def _psi_weights(op, grid, a, b):
    """Per-node weights (wL, wR), each (n_steps, n_modes), such that
    psi_j(g) = sum_k wL[k, j] g_k[j] + wR[k, j] g_{k+1}[j] for g linear
    between the grid nodes, exact for every piecewise-polynomial b.

    psi weighs g(s) by R(s) = a e^{(T-s) lam} + tail(s).  ``kernels._march``
    gives R at every cut of [0, T] at the grid nodes and b's breakpoints, so
    each piece [lo, hi] of width w lies in one step and one polynomial piece
    of b, b(lo + w tau) = sum_m c_m tau**m.  There R(lo + w sigma) =
    e^{(1-sigma) z} R(hi) plus w int_sigma^1 b e^{(tau-sigma) z} dtau at
    z = w lam.  A hat running from A at lo to B at hi takes
    w (B J_0 + (A - B) J_1) R(hi) + w**2 sum_k q_k J_k, with
    q(rho) = int_rho^1 (A + (B - A)(tau - rho)) b(lo + w tau) dtau, so the
    march's moments, taken to deg + 2, give both terms.
    """
    nodes = grid.nodes
    edges, coeffs = b.pieces(grid.T)
    cuts = np.union1d(nodes, edges)
    lo, hi = cuts[:-1], cuts[1:]
    w, c = _cut(edges, coeffs, cuts)
    m = np.arange(c.shape[1])
    R, J = _march(op.eigenvalues, w, c, a, m.size + 1)
    w = w[:, None]
    k = np.searchsorted(nodes, lo, side="right") - 1
    # end values of the left and right hats of step k on each piece
    h = np.diff(nodes)[k]
    A = np.stack([nodes[k + 1] - lo, lo - nodes[k]]) / h
    B = np.stack([nodes[k + 1] - hi, hi - nodes[k]]) / h
    D = B - A
    # q's coefficients, from int_rho^1 tau**m dtau = (1 - rho**(m+1)) / (m+1)
    P1, P2 = c @ (1.0 / (m + 1)), c @ (1.0 / (m + 2))
    q = np.zeros((2, lo.size, m.size + 2))
    q[..., 0] = A * P1 + D * P2
    q[..., 1] = -D * P1
    q[..., 1:-1] -= A[..., None] * c / (m + 1)
    q[..., 2:] += D[..., None] * c / ((m + 1) * (m + 2))
    per = (w * (B[..., None] * J[0] + (A - B)[..., None] * J[1]) * R[1:]
           + w * w * np.einsum("hsk,ksj->hsj", q, J))
    wl, wr = np.add.reduceat(per, np.searchsorted(cuts, nodes[:-1]), axis=1)
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
    for g linear between nodes and any piecewise-polynomial b, and stable
    for arbitrarily stiff modes.
    """
    _require_forcing_grid(T, g, op)
    return _psi(_psi_weights(op, g.grid, a, b), g.coeffs)


# --------------------------------------------------------------------------
# spectral admissibility
# --------------------------------------------------------------------------

# Scale-relative tolerance below which a denominator is treated as a genuine
# kernel element rather than harmless cancellation.
ILL_POSED_RTOL = 1e-10


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


def _denominators(op, cond, T):
    """Per-mode denominators d_j of a condition and its
    SpectralConditionReport, with scales
    |c| + |a| e^{T lam_j} + int_0^T |b(t)| e^{t lam_j} dt.  Mode j passes
    the one solvability predicate when |d_j| > ILL_POSED_RTOL * scale_j."""
    c, a, b = _coupling(cond)
    w = mode_weights(op, a, b, T)
    denoms, scales = c + w.betas, abs(c) + w.scales
    margins = np.abs(denoms)
    ok_per_mode = margins > ILL_POSED_RTOL * scales
    failing = tuple(int(j) + 1 for j in np.nonzero(~ok_per_mode)[0])
    return denoms, SpectralConditionReport(
        cond.problem, margins, scales, ILL_POSED_RTOL, ok_per_mode, failing,
        not failing)


def check_spectral_condition(op, cond, T):
    """Evaluate the per-mode solvability margins for a condition."""
    return _denominators(op, cond, T)[1]


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
    diverged: bool = False
    trajectory: Trajectory = None

    @property
    def final_ratio(self):
        return self.contraction_ratios[-1] if self.contraction_ratios else math.nan


# A sweep is declared divergent once its residual exceeds this multiple of
# the first one: a contracting iteration shrinks it, so such growth is a
# runaway iterate, reported long before it overflows.
_DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True, eq=False)
class _Plan:
    """What a recovery builds that does not depend on the data M: the
    denominators and their report and, for a solvable problem only, the psi
    weights, the grid's step tables and the doubling scan's spans of their
    step factors, the semigroup samples e^{t_i lam_j} and the history
    operator (None for a pointwise map)."""

    denoms: np.ndarray
    spectral: SpectralConditionReport
    weights: tuple = None
    tables: tuple = None
    spans: list = None
    hom: np.ndarray = None
    history: np.ndarray = None


def _build_plan(op, cond, f, grid):
    """The ``_Plan`` of one problem.  Only the coupling of ``cond`` enters,
    so one plan serves every data vector M of a sweep."""
    denoms, spectral = _denominators(op, cond, grid.T)
    if not spectral.ok:
        return _Plan(denoms, spectral)
    _, a, b = _coupling(cond)
    tables = _step_tables(grid.nodes, op.eigenvalues)
    with np.errstate(over="ignore"):
        hom = np.exp(np.outer(grid.nodes, op.eigenvalues))
    return _Plan(denoms, spectral, _psi_weights(op, grid, a, b), tables,
                 _spans(tables[0]), hom,
                 f.history_rows(grid.nodes, 0, grid.nodes.size))


def picard_recover(op, cond, f, grid, spec, tol=1e-10, max_iter=200,
                   initial="zero", *, _plan=None):
    """Recover the initial state by successive substitution.

    Starting from the zero trajectory (or from the linear solution when
    ``initial="linear"``), each sweep recomputes the nonlocal initial value
    from the current forcing and propagates it forward.  Iteration stops when
    the combined weighted-plus-sup residual drops below ``tol``; hitting
    ``max_iter`` or a runaway residual yields a report with
    ``converged=False``, never a silent answer.

    The initial value map u(0) = (M - psi(g)) / d is affine in the forcing
    g.  Everything but M is built once per problem: the denominators, the
    per-node weights of psi, exact for g linear between nodes and any
    piecewise-polynomial b, the grid's step tables and the doubling scan's
    span products, the semigroup samples, and the history operator of a
    nonlinearity with memory, (n + 1)**2 floats for n steps (0.13 MB at
    n = 128, 8.4 MB at n = 1024).  A caller recovering many data vectors of
    one problem passes that plan as ``_plan``; the norm weights
    (delta0 - lam_j)**theta and t_i**theta are formed once per call.

    A sweep then works on coefficient arrays: the payload ``f.eval_node``
    of every node in one stacked call (its two matrix products), one
    product with the history operator for a memory kernel, two
    contractions for psi, a doubling-scan convolution, O(n m log n) for m
    modes, and the two residual norms.  The iterate is checked finite each
    sweep; the report's ``Trajectory`` is built once, from the last one.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidParameterError("tol must be positive and finite")
    if int(max_iter) != max_iter or max_iter < 1:
        raise InvalidParameterError("max_iter must be a positive integer")
    if cond.M.shape != (op.n_modes,):
        raise InvalidParameterError("M does not match the operator's mode count")
    plan = _build_plan(op, cond, f, grid) if _plan is None else _plan
    spectral = plan.spectral
    if not spectral.ok:
        modes = list(spectral.failing_modes)
        raise IllPosedModeError(
            f"spectral condition violated at modes {modes}", modes)
    if not f.vanishes_at_zero:
        raise AdmissibilityError(
            "the nonlinearity must vanish at the zero state")

    hom, history, wl = plan.hom, plan.history, plan.tables[1]

    def forcing(u):
        P = f.eval_node(u, op)
        return P if history is None else history @ P

    def sigma(G):
        return (cond.M - _psi(plan.weights, G)) / plan.denoms

    e0_spec = FractionalNormSpec(0.0, spec.delta0)
    # the weighted residual skips t = 0 unless theta = 0, as
    # ``weighted_sup_norm`` does
    start = 0 if spec.theta == 0.0 else 1
    t_mu = grid.nodes[start:] ** spec.theta

    def residual(diff, t_weights, norm_spec):
        """max_i t_weights[i] ||diff[i]|| in ``norm_spec``, by the formula
        of ``_row_norms``, which rescales rows only when a norm overflows."""
        c = diff if norm_spec.theta == 0.0 else lam_mu * diff
        r = float((t_weights * np.sqrt(np.einsum("...j,...j->...", c, c)))
                  .max())
        if not math.isfinite(r):
            r = float((t_weights * _row_norms(op, diff, norm_spec)).max())
        return r

    # overflow of a runaway iterate is caught by the finite checks below
    with np.errstate(over="ignore", invalid="ignore"):
        sigma0 = cond.M / plan.denoms
        sigma_T0_norm = fractional_norm(op, sigma0, e0_spec)  # checks delta0
        lam_mu = (spec.delta0 - op.eigenvalues) ** spec.theta

        if initial == "zero":
            u = np.zeros_like(hom)
        elif initial == "linear":
            u = hom * sigma0
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
                G = forcing(u)
            except NumericFailureError:
                # runaway iterate overflowed inside the evaluation chain
                diverged = True
                break
            u0 = sigma(G)
            new = hom * u0
            new[1:] += _convolve(plan.tables, G[1:], wl[0] * G[0], plan.spans)
            if not np.isfinite(new).all():
                diverged = True
                break
            diff = new - u
            rw = residual(diff[start:], t_mu, spec)
            rs = residual(diff, 1.0, e0_spec)
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
                    or combined > _DIVERGENCE_FACTOR * first_residual):
                diverged = True
                break
    combined = [rw + rs for rw, rs in zip(residual_weighted, residual_sup)]
    contraction_ratios = [combined[i + 1] / combined[i]
                          for i in range(len(combined) - 1)]
    if converged:
        u0 = sigma(forcing(u))
    return FixedPointReport(
        iterations=len(residual_weighted),
        residual_weighted=residual_weighted,
        residual_sup=residual_sup,
        contraction_ratios=contraction_ratios,
        converged=converged,
        u0_recovered=np.asarray(u0, dtype=float),
        sigma_T0_norm=sigma_T0_norm,
        diverged=diverged,
        trajectory=Trajectory(grid, u),
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
    contraction_factor(L) = 1/2 in closed form, capped below 1 and rounded
    down so that the factor there stays at or below 1/2.  Zero growth
    constant means no smallness is needed at all and the threshold is
    reported as unbounded.
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
    est = WellPosednessEstimate(omega, gamma0, beta_value, 1.0, math.inf,
                                True, 0.0, float(T), exponents)
    if c_hat == 0.0:
        return est
    est = replace(est, unbounded=False, c_hat=float(c_hat))
    # contraction_factor(L) = K L**ell with K = contraction_factor(1)
    l_star = 1.0 - 1e-12
    if est.contraction_factor(l_star) > 0.5:
        l_star = (0.5 / est.contraction_factor(1.0)) ** (1.0 / exponents.ell)
        while est.contraction_factor(l_star) > 0.5:
            l_star = float(np.nextafter(l_star, 0.0))
    return replace(est, L_star=l_star, m_T=l_star / (4.0 * omega))
