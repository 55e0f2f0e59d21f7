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
problem, by one march of b in closed form: exact for g linear between
nodes and any piecewise-polynomial b.  Each condition maps to one coupling
(c, a, b), and one predicate on the denominators, |d_j| > tol * scale_j,
decides solvability for both the spectral check and the Picard driver.  A
smallness threshold for the observation data, below which the substitution
provably contracts, is certified alongside from closed-form bounds.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .duhamel import _convolve, _spans, _step_tables
from .errors import (AdmissibilityError, IllPosedModeError,
                     InvalidParameterError, NumericFailureError)
from .kernels import (WeightFunction, _hat_scatter, _weight_march,
                      beta_function)
from .spectral import (FractionalNormSpec, Trajectory, _check_spec,
                       _row_norms, fractional_norm)

# Not called here: perfbench wraps these names at this module to time the
# layers of a recovery (tests/test_benchmark_targets.py); a sweep and a plan
# now use the array-level helpers and the march behind them.
from .duhamel import duhamel_convolve  # noqa: F401
from .kernels import mode_weights  # noqa: F401
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
        self.coupling = 1.0, -self.b, WeightFunction.constant(0.0)


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
# The a terms are taken in closed form; one march of a nonzero b gives tail
# at every cut, and int_0^T b e^{t lam} dt = tail(0).


def _plan_weights(op, grid, coupling, problem):
    """The per-node psi weights W, shape (n_nodes, n_modes), exact for g
    linear between the nodes and any piecewise-polynomial b, the
    denominators d, their ``SpectralConditionReport`` and the grid's step
    tables, from ``kernels._weight_march``'s one march of b.

    The a term takes a e^{(T - t_{k+1}) lam} times step k's tables.  On a
    piece [lo, lo + w] of the march, b(lo + w tau) = sum_m c_m tau**m, and
    ``kernels._hat_scatter`` turns the integrals of tail and tau tail over
    it into node weights: X = w J_0 tail(hi) + w**2 sum_k u_k J_k and Y = w
    (J_0 - J_1) tail(hi) + w**2 sum_k v_k J_k, u(rho) = int_rho^1 b and
    v(rho) = int_rho^1 (tau - rho) b, with moments to deg + 2 at z = w lam,
    which are the step tables too when the cuts are the nodes."""
    c0, a, b = coupling
    nodes, lam = grid.nodes, op.eigenvalues
    weights, march = _weight_march(lam, a, b, grid.T, nodes, 2)
    W, tables = np.zeros((nodes.size, lam.size)), None
    if march is not None:
        cuts, w, c, R, J, e = march
        w, m = w[:, None], np.arange(c.shape[1])
        uv = np.zeros((w.size, 2, m.size + 2))
        uv[:, 0, 0] = c @ (1.0 / (m + 1))
        uv[:, 0, 1:-1] = -c / (m + 1)
        uv[:, 1, 0] = c @ (1.0 / (m + 2))
        uv[:, 1, 1] = -uv[:, 0, 0]
        uv[:, 1, 2:] = c / ((m + 1) * (m + 2))
        XY = np.matmul(uv, J.transpose(1, 0, 2)) * (w * w)[:, None]
        X, Y = XY.transpose(1, 0, 2)
        wl, wr = w * J[1], w * (J[0] - J[1])
        X += w * J[0] * R[1:]
        Y += wr * R[1:]
        W = _hat_scatter(cuts, X, Y, nodes)
        tables = (e, wl, wr) if cuts.size == nodes.size else None
    tables = tables or _step_tables(nodes, lam)
    if a != 0.0:
        _, tl, tr = tables
        decay = a * np.exp((grid.T - nodes[1:, None]) * lam)
        W[:-1] += decay * tl
        W[1:] += decay * tr
    denoms, scales = c0 + weights.betas, abs(c0) + weights.scales
    margins = np.abs(denoms)
    ok = margins > ILL_POSED_RTOL * scales
    failing = tuple(int(j) + 1 for j in np.nonzero(~ok)[0])
    return W, denoms, SpectralConditionReport(
        problem, margins, scales, ILL_POSED_RTOL, ok, failing,
        not failing), tables


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
    W = _plan_weights(op, g.grid, (0.0, a, b), "E")[0]
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


def check_spectral_condition(op, cond, grid):
    """The per-mode solvability margins of a condition on a time grid, from
    the plan's march: ``build_plan(...).spectral``, bit for bit."""
    return _plan_weights(op, grid, cond.coupling, cond.problem)[2]


# --------------------------------------------------------------------------
# Picard fixed point
# --------------------------------------------------------------------------

@dataclass
class FixedPointReport:
    """Trace of the successive-substitution iteration.

    ``iterations`` counts the sweeps after the linear solution.
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
        """The last contraction ratio, an estimate only where the iteration
        did not converge: a converged one ends at the tolerance floor, where
        a one-ulp change of the psi weights moves it by about 1e-4 relative
        (row 6 of the threshold-sweep fixture; 1e-14 on its diverging row)."""
        return self.contraction_ratios[-1] if self.contraction_ratios else math.nan


# A sweep is declared divergent once its residual exceeds this multiple of
# the linear solution's combined norm: a contracting iteration shrinks it,
# so such growth is a runaway iterate, reported long before it overflows.
_DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True, eq=False)
class RecoveryPlan:
    """What a recovery of a solvable problem builds that does not depend on
    the data M: the denominators and their report, the per-node psi weights
    W, the grid's step tables and the doubling scan's spans of their step
    factors, the semigroup samples e^{t_i lam_j} and the history operator of
    a nonlinearity with memory, sized in ``MemoryKernel`` (None for a
    pointwise map); one march of b gives the first three.  ``built_for``
    holds the operator, nonlinearity and grid it was built for and the
    coupling (c, a, b), which ``picard_recover`` checks a plan against."""

    denoms: np.ndarray
    spectral: SpectralConditionReport
    weights: np.ndarray
    tables: tuple
    spans: list
    hom: np.ndarray
    history: np.ndarray
    built_for: tuple


def build_plan(op, cond, f, grid):
    """The ``RecoveryPlan`` of one problem.  Only the coupling of ``cond``
    enters, so one plan serves every data vector M of a sweep; it comes
    from one march of b, see ``_plan_weights``.  An ill-posed mode raises
    ``IllPosedModeError`` and a nonlinearity that does not vanish at the
    zero state ``AdmissibilityError``."""
    weights, denoms, spectral, tables = _plan_weights(
        op, grid, cond.coupling, cond.problem)
    if not spectral.ok:
        modes = list(spectral.failing_modes)
        raise IllPosedModeError(
            f"spectral condition violated at modes {modes}", modes, spectral)
    if not f.vanishes_at_zero:
        raise AdmissibilityError(
            "the nonlinearity must vanish at the zero state")
    with np.errstate(over="ignore"):
        hom = np.outer(grid.nodes, op.eigenvalues)
        np.exp(hom, out=hom)
    return RecoveryPlan(denoms, spectral, weights, tables, _spans(tables[0]),
                        hom, f.history_rows(grid.nodes, 0, grid.nodes.size),
                        (op, f, grid, cond.coupling))


def _check_plan(plan, op, cond, f, grid):
    """Raise ``InvalidParameterError`` unless ``plan`` was built for these
    very operator, nonlinearity and grid and a coupling of equal values (a
    condition may build its own zero weight)."""
    *objects, (c, a, b) = plan.built_for
    for name, built, given in zip(("operator", "nonlinearity", "grid"),
                                  objects, (op, f, grid)):
        if built is not given:
            raise InvalidParameterError(f"the plan is for another {name}")
    c2, a2, b2 = cond.coupling
    if not (c == c2 and a == a2 and np.array_equal(b.edges, b2.edges)
            and np.array_equal(b.coeffs, b2.coeffs)):
        raise InvalidParameterError("the plan is for another coupling")


def picard_recover(op, cond, f, grid, spec, tol=1e-10, max_iter=200, *,
                   plan=None):
    """Recover the initial state by successive substitution.

    The iteration starts at the linear solution e^{tA} M / d, the first
    iterate of the substitution map from the zero trajectory, since
    f(0) = 0; each sweep recomputes the nonlocal initial value from the
    current forcing and propagates it forward.  It stops when the combined
    weighted-plus-sup residual drops below ``tol``; ``max_iter`` sweeps
    after the linear solution, or a residual run away from that solution's
    norm, give ``converged=False``, never a silent answer.  A linear
    solution that overflows is reported as divergent after 0 sweeps.

    The initial value map u(0) = (M - psi(g)) / d is affine in the forcing
    g, so everything but M is built once per problem, as the ``RecoveryPlan``
    of ``build_plan``, which raises for an ill-posed problem; a caller
    recovering many data vectors of one problem passes one as ``plan``,
    built for the same operator, nonlinearity and grid objects and a
    coupling of equal values, else ``InvalidParameterError``.  The norm
    weights and work arrays are formed once per call.

    A sweep works on coefficient arrays: one stacked ``f.eval_node`` call
    for every node (two matrix products), a product with the history
    operator for a memory kernel, one contraction with W for psi, and the
    semigroup samples times u(0) plus a doubling-scan convolution,
    O(n m log n) for m modes.  Both residuals come from one product of
    S = (new - u)**2 with the columns 1 and mu = (delta0 - lam)**(2 theta):
    max_i sqrt(S_i . 1) and max_i t_i**theta sqrt(S_i . mu); only when one
    is not finite is the iterate checked finite and the norms rescaled as
    ``_row_norms`` does.  The linear solution's residual against zero seeds
    the runaway test.
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
    else:
        _check_plan(plan, op, cond, f, grid)

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
        u0 = cond.M / plan.denoms
        sigma_T0_norm = fractional_norm(op, u0, e0_spec)  # checks delta0
        lam_mu = (spec.delta0 - op.eigenvalues) ** spec.theta
        norm_weights = np.column_stack([np.ones_like(lam_mu), lam_mu * lam_mu])
        S = np.empty_like(hom)
        conv, work = np.empty_like(hom[1:]), np.empty_like(hom[1:])

        def residuals(new, u):
            # (weighted, sup) norms of new - u, None if new is not finite
            np.subtract(new, u, out=S)
            np.multiply(S, S, out=S)
            sums = S @ norm_weights
            rs = math.sqrt(sums[:, 0].max())
            rw = float((t_mu * np.sqrt(sums[start:, 1])).max())
            if not (math.isfinite(rs) and math.isfinite(rw)):
                if not np.isfinite(new).all():
                    return None
                diff = new - u
                rw = float((t_mu * _row_norms(op, diff[start:], spec)).max())
                rs = float(_row_norms(op, diff, e0_spec).max())
            return rw, rs

        u, new = np.zeros_like(hom), hom * u0
        measured = residuals(new, u)
        diverged = measured is None
        if not diverged:
            u, new = new, u
            first_residual = sum(measured)
            diverged = not math.isfinite(first_residual)
        residual_weighted, residual_sup = [], []
        converged = False
        for _ in range(0 if diverged else int(max_iter)):
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
            measured = residuals(new, u)
            if measured is None:
                diverged = True
                break
            rw, rs = measured
            residual_weighted.append(rw)
            residual_sup.append(rs)
            u, new = new, u
            combined = rw + rs
            if combined <= tol:
                converged = True
                break
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
