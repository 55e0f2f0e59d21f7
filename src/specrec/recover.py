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
smallness threshold for the observation data, below which the substitution
provably contracts, is certified alongside from closed-form bounds.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .duhamel import _convolve, _spans, _step_tables
from .errors import (AdmissibilityError, IllPosedModeError,
                     InvalidParameterError, NumericFailureError)
from .kernels import (ConstantWeight, WeightFunction, _cut, _march,
                      beta_function, mode_weights)
from .spectral import (FractionalNormSpec, Trajectory, _check_spec,
                       _row_norms, fractional_norm)

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


_NO_WEIGHT = ConstantWeight(0.0)


class NonlocalCondition:
    """Base class for the three observation couplings.  Each sets its
    ``coupling`` (c, a, b), read c*u(0) + a*u(T) + int b u dt = M, once."""

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
        self.coupling = 0.0, self.a, b


class ConditionE100(NonlocalCondition):
    """Initial-final coupling u(0) - b*u(T) = M with scalar b != 0."""

    problem = "E100"

    def __init__(self, b, M):
        super().__init__(M)
        self.b = _finite_scalar(b, "b")
        if self.b == 0.0:
            raise AdmissibilityError("problem E100 requires b != 0")
        self.coupling = 1.0, -self.b, _NO_WEIGHT


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
        self.coupling = 1.0, 0.0, b


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
# only, so they are built once and psi is one array contraction per sweep.
# The a terms are taken in closed form, so only a nonzero b is marched.


def _psi_weights(op, grid, a, b, tables):
    """Per-node weights W, shape (n_nodes, n_modes), with psi_j(g) =
    sum_i W[i, j] g_i[j] exact for g linear between the grid nodes and any
    piecewise-polynomial b; ``tables`` are the grid's ``_step_tables``.

    psi weighs g(s) by a e^{(T-s) lam} + tail(s).  The a term is a times
    the convolution at T, so step k's hats take a e^{(T - t_{k+1}) lam}
    (wl_k, wr_k), the exponent formed directly.  The tail, for a nonzero b
    only, is ``kernels._march``'s at every cut of [0, T] at the nodes and
    b's breakpoints, so each piece [lo, hi] of width w lies in one step and
    one polynomial piece, b(lo + w tau) = sum_m c_m tau**m.  There
    tail(lo + w sigma) = e^{(1-sigma) z} tail(hi) + w int_sigma^1 b
    e^{(tau-sigma) z} dtau at z = w lam, and a hat running from A at lo to
    B at hi takes w (B J_0 + (A - B) J_1) tail(hi) + w**2 sum_k q_k J_k,
    with q(rho) = int_rho^1 (A + (B - A)(tau - rho)) b(lo + w tau) dtau, so
    the march's moments, taken to deg + 2, give both terms.
    """
    nodes, lam = grid.nodes, op.eigenvalues
    edges, coeffs = b.pieces(grid.T)
    W = np.zeros((nodes.size, lam.size))
    if a != 0.0:
        _, tl, tr = tables
        decay = a * np.exp((grid.T - nodes[1:, None]) * lam)
        W[:-1] = decay * tl
        W[1:] += decay * tr
    if b.is_zero:
        return W
    cuts = np.union1d(nodes, edges)
    lo, hi = cuts[:-1], cuts[1:]
    w, c = _cut(edges, coeffs, cuts)
    m = np.arange(c.shape[1])
    R, J = _march(lam, w, c, m.size + 1)
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
    W[:-1] += wl
    W[1:] += wr
    return W


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
    if abs(T - g.grid.T) > 1e-12 * max(1.0, T):
        raise InvalidParameterError("T does not match the forcing grid")
    if g.coeffs.shape[1] != op.n_modes:
        raise InvalidParameterError("forcing trajectory does not match the operator")
    W = _psi_weights(op, g.grid, a, b,
                     _step_tables(g.grid.nodes, op.eigenvalues))
    return np.einsum("ij,ij->j", W, g.coeffs)


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
    c, a, b = cond.coupling
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
class RecoveryPlan:
    """What a recovery of a solvable problem builds that does not depend on
    the data M: the denominators and their report, the per-node psi weights
    W, the grid's step tables and the doubling scan's spans of their step
    factors, the semigroup samples e^{t_i lam_j} and the history operator of
    a nonlinearity with memory, sized in ``MemoryKernel`` (None for a
    pointwise map)."""

    denoms: np.ndarray
    spectral: SpectralConditionReport
    weights: np.ndarray
    tables: tuple
    spans: list
    hom: np.ndarray
    history: np.ndarray


def build_plan(op, cond, f, grid):
    """The ``RecoveryPlan`` of one problem.  Only the coupling of ``cond``
    enters, so one plan serves every data vector M of a sweep.  An ill-posed
    mode raises ``IllPosedModeError`` and a nonlinearity that does not
    vanish at the zero state ``AdmissibilityError``, before any weight is
    built."""
    denoms, spectral = _denominators(op, cond, grid.T)
    if not spectral.ok:
        modes = list(spectral.failing_modes)
        raise IllPosedModeError(
            f"spectral condition violated at modes {modes}", modes)
    if not f.vanishes_at_zero:
        raise AdmissibilityError(
            "the nonlinearity must vanish at the zero state")
    _, a, b = cond.coupling
    tables = _step_tables(grid.nodes, op.eigenvalues)
    with np.errstate(over="ignore"):
        hom = np.exp(np.outer(grid.nodes, op.eigenvalues))
    return RecoveryPlan(denoms, spectral, _psi_weights(op, grid, a, b, tables),
                        tables, _spans(tables[0]), hom,
                        f.history_rows(grid.nodes, 0, grid.nodes.size))


def picard_recover(op, cond, f, grid, spec, tol=1e-10, max_iter=200,
                   initial="zero", *, plan=None):
    """Recover the initial state by successive substitution.

    Starting from the zero trajectory (or from the linear solution when
    ``initial="linear"``), each sweep recomputes the nonlocal initial value
    from the current forcing and propagates it forward.  Iteration stops when
    the combined weighted-plus-sup residual drops below ``tol``; hitting
    ``max_iter`` or a runaway residual yields a report with
    ``converged=False``, never a silent answer.

    The initial value map u(0) = (M - psi(g)) / d is affine in the forcing
    g, so everything but M is built once per problem, as the
    ``RecoveryPlan`` of ``build_plan``, which raises for an ill-posed
    problem; a caller recovering many data vectors of one problem passes
    one as ``plan``.  Each call forms the norm weights (delta0 -
    lam_j)**theta and t_i**theta, and its work arrays, once: two state
    buffers that swap, the convolution, the scan's products and the
    squared update.

    A sweep then works on coefficient arrays: the payload ``f.eval_node``
    of every node in one stacked call (its two matrix products), one
    product with the history operator for a memory kernel, one contraction
    with W for psi, and the semigroup samples times u(0) plus a
    doubling-scan convolution, O(n m log n) for m modes.  Both residuals
    come from one product of S = (new - u)**2 with the columns 1 and
    mu = (delta0 - lam)**(2 theta): max_i sqrt(S_i . 1) and max_i
    t_i**theta sqrt(S_i . mu).  Only when one is not finite is the iterate
    checked finite and the update's norms rescaled as ``_row_norms`` does.
    The report's ``Trajectory`` is built once, from the last iterate.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidParameterError("tol must be positive and finite")
    if int(max_iter) != max_iter or max_iter < 1:
        raise InvalidParameterError("max_iter must be a positive integer")
    if cond.M.shape != (op.n_modes,):
        raise InvalidParameterError("M does not match the operator's mode count")
    if plan is None:
        plan = build_plan(op, cond, f, grid)

    hom, history, tables = plan.hom, plan.history, plan.tables

    def forcing(u):
        P = f.eval_node(u, op)
        return P if history is None else history @ P

    def sigma(G):
        return (cond.M - np.einsum("ij,ij->j", plan.weights, G)) / plan.denoms

    e0_spec = FractionalNormSpec(0.0, spec.delta0)
    # the weighted residual skips t = 0 unless theta = 0, as
    # ``weighted_sup_norm`` does
    start = 0 if spec.theta == 0.0 else 1
    t_mu = grid.nodes[start:] ** spec.theta

    # overflow of a runaway iterate is caught by the finite checks below
    with np.errstate(over="ignore", invalid="ignore"):
        sigma0 = cond.M / plan.denoms
        sigma_T0_norm = fractional_norm(op, sigma0, e0_spec)  # checks delta0
        lam_mu = (spec.delta0 - op.eigenvalues) ** spec.theta
        norm_weights = np.column_stack([np.ones_like(lam_mu), lam_mu * lam_mu])

        if initial == "zero":
            u = np.zeros_like(hom)
        elif initial == "linear":
            u = hom * sigma0
        else:
            raise InvalidParameterError('initial must be "zero" or "linear"')
        new, S = np.empty_like(hom), np.empty_like(hom)
        conv, work = np.empty_like(hom[1:]), np.empty_like(hom[1:])

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
            np.multiply(hom, u0, out=new)
            new[1:] += _convolve(tables, G[1:], tables[1][0] * G[0],
                                 plan.spans, conv, work)
            np.subtract(new, u, out=S)
            np.multiply(S, S, out=S)
            sums = S @ norm_weights
            rs = math.sqrt(sums[:, 0].max())
            rw = float((t_mu * np.sqrt(sums[start:, 1])).max())
            if not (math.isfinite(rs) and math.isfinite(rw)):
                if not np.isfinite(new).all():
                    diverged = True
                    break
                diff = new - u
                rw = float((t_mu * _row_norms(op, diff[start:], spec)).max())
                rs = float(_row_norms(op, diff, e0_spec).max())
            residual_weighted.append(rw)
            residual_sup.append(rs)
            u, new = new, u
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
# certified smallness threshold
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
    """Certified smallness threshold for the observation data.

    ``contraction_factor(L)`` bounds the Lipschitz constant of the
    substitution map on the ball of radius L; ``L_star`` is the largest
    radius keeping it at or below 1/2 and ``m_T = L_star / (4 * omega_T)``
    the resulting data threshold.  ``omega_T`` is in closed form, so m_T is
    certified whenever ``c_hat`` bounds the growth constant from above, as
    ``check_growth_condition``'s does.
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


def _omega_bound(op, exponents, gamma0, T, delta0):
    """The semigroup constant in the spectral norms, in closed form: the
    largest of 1, e**(T max(0, lam_1)) and, over the modes, s_j**theta
    sup_t t**theta e**(t lam_j) and s_j**(theta - gamma) sup_t
    t**(theta - gamma0) e**(t lam_j), with s_j = delta0 - lam_j and t in
    (0, T].  Since p = theta or theta - gamma0 is positive, t**p e**(t lam)
    peaks at its only critical point p / (-lam), or at T past it."""
    lam, theta = op.eigenvalues, exponents.theta
    omega = max(1.0, math.exp(T * max(0.0, float(lam[0]))))
    for a, p in ((theta, theta), (theta - exponents.gamma, theta - gamma0)):
        t = np.full(lam.shape, float(T))
        inside = -lam * T > p
        t[inside] = p / -lam[inside]
        peak = (delta0 - lam) ** a * t ** p * np.exp(t * lam)
        omega = max(omega, float(np.max(peak)))
    return omega


def theoretical_threshold(op, exponents, c_hat, T, spec):
    """Certify the largest observation size for which the substitution map
    provably contracts, given an upper bound ``c_hat`` on the growth
    constant, such as ``check_growth_condition``'s.

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
    _check_spec(op, spec)
    gamma0 = min(exponents.gamma, exponents.theta) / 2.0 \
        if exponents.gamma > 0 else 0.0
    beta_value = beta_function(1.0 + gamma0 - exponents.theta,
                               1.0 - exponents.nu)
    omega = _omega_bound(op, exponents, gamma0, T, spec.delta0)
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
