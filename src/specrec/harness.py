"""Round-trip and threshold-sweep experiments.

The round trip synthesizes an observation from a known initial state on a
fine grid of 2x the solver's steps, hands only the observation vector to
the recovery path, and compares the recovered initial state against the
truth.  An integral observation extrapolates its product rule against the
solver's own grid, both grids' weights scattered from one cut of b by
``kernels._hat_scatter``; u(T) alone (E100) is extrapolated from a second
forward solve on the solver's own grid.  That solve shares the recovery's
grid and forward rule, but not its psi weights: an M from it alone would
recover u0 to about 1e-12 on the memory-forward fixture, and the
extrapolated M recovers it to the recovery's own error (gated in
``TestRoundtripHarness``), so the reported errors are genuine method error.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .duhamel import _hat_pieces, forward_solve
from .errors import ConfigError, InvalidParameterError, SpecrecError
from .kernels import _hat_scatter
from .nonlinearity import check_growth_condition
from .recover import (FixedPointReport, GrowthExponents, build_plan,
                      picard_recover, theoretical_threshold)
from .spectral import fractional_norm, make_graded_grid

# Not called here: perfbench wraps this name at this module to time the
# observation (tests/test_benchmark_targets.py); a synthesized observation
# extrapolates its rule by ``_integral_weights``.
from .duhamel import observe  # noqa: F401

# Forward steps per recovery step, for every coupling.  The extrapolated
# integral is fourth order in the step, so 2x leaves its error well below
# the recovery's; u(T) alone cancels the forward solve's h**2 term against
# the solver's own grid.
INTEGRAL_REFINEMENT = 2


def _integral_weights(nodes, b):
    """Weights of int_0^T b u dt on ``nodes`` (an even number of steps):
    (4 I - I_2) / 3 for the product rule I of ``observe`` on the nodes and
    I_2 on their every-other-node subgrid, one Richardson step that
    cancels the rule's h**2 error term: fourth order for smooth u.  A
    breakpoint of b inside a step leaves an h**4 term whose factor moves
    with the breakpoint's place in its step, so single halvings gain 4x to
    60x there (both gated in ``TestSynthesizedObservation``)."""
    pieces = _hat_pieces(nodes, b)
    out = 4.0 * _hat_scatter(*pieces, nodes)
    out[::2] -= _hat_scatter(*pieces, nodes[::2])
    return out / 3.0


def synthesize_observation(cfg, op, f, u0_true):
    """Forward-solve on a refined grid and form the observation vector
    c*u0 + a*u(T) + int b u dt, the integral by ``_integral_weights``.
    Without an integral (b = 0) u(T) is (4 u_2n(T) - u_n(T)) / 3, with u_n
    from a second solve on the solver's own grid: one Richardson step that
    cancels the forward solve's h**2 term (gated by
    ``TestRoundtripHarness.test_e100_error_is_the_recovery_own``)."""
    # the coupling (c, a, b) does not depend on M
    c, a, b = cfg.build_condition(np.zeros(op.n_modes)).coupling
    grid_fine = make_graded_grid(cfg.grid.T, INTEGRAL_REFINEMENT * cfg.grid.n,
                                 cfg.grid.r)
    u = forward_solve(op, u0_true, f, grid_fine)
    if b.is_zero:
        u_n = forward_solve(op, u0_true, f, cfg.build_grid())
        return (c * u0_true + a * (4.0 * u.coeffs[-1] - u_n.coeffs[-1]) / 3.0,
                grid_fine)
    integral = _integral_weights(grid_fine.nodes, b) @ u.coeffs
    return c * u0_true + (a * u.coeffs[-1] + integral), grid_fine


def resolve_M(cfg, op, f):
    """Observation vector from the config: literal or synthesized from u0."""
    source = cfg.condition.m_source
    if source.kind == "coefficients":
        M = np.asarray(source.fields["values"], dtype=float)
        if M.shape != (op.n_modes,):
            raise ConfigError(
                f"condition.M.values has length {M.size}, expected {op.n_modes}"
            )
        return M, None
    u0_true = cfg.resolve_u0(op)
    M, _ = synthesize_observation(cfg, op, f, u0_true)
    return M, u0_true


@dataclass
class RoundTripResult:
    """A round trip's data, errors and timings.  ``observation_nodes`` is
    the number of steps of the observation's fine forward grid: 2n on a
    recovery grid of n, for every coupling.  u(T) alone (E100) also
    forward-solves on the recovery grid itself, to extrapolate."""

    u0_true: np.ndarray
    observed_M: np.ndarray
    u0_recovered: np.ndarray
    error_e0: float
    error_etheta: float
    forward_seconds: float
    recover_seconds: float
    observation_nodes: int
    report: FixedPointReport
    failure_stage: str = None


def roundtrip(cfg):
    """Forward solve, observe, recover, compare."""
    op = cfg.build_operator()
    f = cfg.build_nonlinearity()
    grid = cfg.build_grid()
    spec = cfg.build_norm_spec(op)
    u0_true = cfg.resolve_u0(op)

    t0 = time.perf_counter()
    M, grid_fine = synthesize_observation(cfg, op, f, u0_true)
    forward_seconds = time.perf_counter() - t0

    cond = cfg.build_condition(M)
    t0 = time.perf_counter()
    report = picard_recover(op, cond, f, grid, spec,
                            tol=cfg.solver.tol, max_iter=cfg.solver.max_iter)
    recover_seconds = time.perf_counter() - t0

    diff = report.u0_recovered - u0_true
    return RoundTripResult(
        u0_true=u0_true,
        observed_M=M,
        u0_recovered=report.u0_recovered,
        error_e0=float(np.linalg.norm(diff)),
        error_etheta=fractional_norm(op, diff, spec),
        forward_seconds=forward_seconds,
        recover_seconds=recover_seconds,
        observation_nodes=grid_fine.n_steps,
        report=report,
        failure_stage=None if report.converged else "not-converged",
    )


@dataclass
class SweepRow:
    """A sweep row; ``final_ratio`` estimates the contraction only on a row
    that did not converge (see ``FixedPointReport.final_ratio``)."""

    index: int
    scale: float
    converged: bool
    iterations: int
    final_ratio: float
    sigma_T0_norm: float
    threshold_m: float
    status: str


SWEEP_HEADER = tuple(field.name for field in fields(SweepRow))


def _threshold_exponents(cfg, f):
    """The growth exponents of the certified threshold m_T.  One out of its
    range is a config error naming the keys the exponents come from: a
    power law declares nu = theta * (ell + 1) unless solver.nu is set."""
    gamma, theta, nu = cfg.solver.gamma, cfg.solver.theta, cfg.resolved_nu()
    try:
        return GrowthExponents(gamma, theta, nu, getattr(f, "ell", 1.0))
    except InvalidParameterError as exc:
        if cfg.solver.nu is not None:
            nu_is = f"solver.nu = {nu!r}"
        elif cfg.nonlinearity.kind == "power":
            nu_is = f"nu = solver.theta * (nonlinearity.ell + 1) = {nu!r}"
        else:
            nu_is = f"nu = {nu!r}"
        raise ConfigError(f"sweep: {exc}, with solver.gamma = {gamma!r}, "
                          f"solver.theta = {theta!r} and {nu_is}") from None


def sweep_threshold(cfg):
    """Re-run the recovery over scaled observations s * M.

    Each row records the convergence flag, the last contraction ratio, the
    size of the zero-forcing initial value, and the certified threshold
    m_T: a row whose sigma_T0_norm lies below it provably converges.  Only M
    changes between rows, so one recovery plan, built at the first row,
    serves them all.  Row failures are recorded and the sweep continues.
    m_T needs the growth bound of a pointwise map, so a memory kernel is
    rejected before any work is done, and so are growth exponents out of
    their range.
    """
    scales = cfg.sweep_scales
    if not scales:
        raise ConfigError("sweep needs a 'sweep.scales' list in the config")
    if cfg.nonlinearity.kind not in ("zero", "power"):
        raise ConfigError("sweep needs a 'zero' or 'power' nonlinearity, "
                          f"not {cfg.nonlinearity.kind!r}")
    f = cfg.build_nonlinearity()
    exponents = _threshold_exponents(cfg, f)
    op = cfg.build_operator()
    grid = cfg.build_grid()
    spec = cfg.build_norm_spec(op)
    M_base, _ = resolve_M(cfg, op, f)

    c_bar = check_growth_condition(f, op, spec)
    estimate = theoretical_threshold(op, exponents, c_bar, grid.T, spec)

    rows = []
    plan = None
    for idx, s in enumerate(scales):
        try:
            with np.errstate(over="ignore"):
                cond = cfg.build_condition(float(s) * M_base)
            # a plan that fails to build fails every row alike
            if plan is None:
                plan = build_plan(op, cond, f, grid)
            report = picard_recover(op, cond, f, grid, spec,
                                    tol=cfg.solver.tol,
                                    max_iter=cfg.solver.max_iter,
                                    plan=plan)
            rows.append(SweepRow(idx, float(s), report.converged,
                                 report.iterations, report.final_ratio,
                                 report.sigma_T0_norm, estimate.m_T, "ok"))
        except SpecrecError as exc:
            rows.append(SweepRow(idx, float(s), False, 0, float("nan"),
                                 float("nan"), estimate.m_T,
                                 f"error:{type(exc).__name__}"))
    return rows, estimate
