"""Round-trip and threshold-sweep experiments.

The round trip synthesizes an observation from a known initial state on a
fine grid (2x the solver's steps, product integration extrapolated against
the solver's own grid; 4x for u(T) alone, which has no quadrature), hands
only the observation vector to the recovery path, and compares the
recovered initial state against the truth.  Forward and backward
discretizations share nothing, so the reported errors are genuine method
error.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .duhamel import _hat_weights, forward_solve
from .errors import ConfigError, SpecrecError
from .nonlinearity import check_growth_condition
from .recover import (FixedPointReport, GrowthExponents, build_plan,
                      picard_recover, theoretical_threshold)
from .spectral import fractional_norm, make_graded_grid

# Not called here: perfbench wraps this name at this module to time the
# observation (tests/test_benchmark_targets.py); a synthesized observation
# extrapolates its rule by ``_integral_weights``.
from .duhamel import observe  # noqa: F401

# Forward steps per recovery step.  The extrapolated integral is fourth
# order in the step, so 2x leaves its error well below the recovery's; u(T)
# alone is second order and keeps 4x.
INTEGRAL_REFINEMENT = 2
FINAL_STATE_REFINEMENT = 4


def _coarse_weights(nodes, w):
    """The hat weights of the every-other-node subgrid of ``nodes`` (an
    even number of steps) from their hat weights w: the subgrid's hat at
    t_{2K} is the fine hat there plus, at each fine node t_{2K +- 1} beside
    it, its value there times that node's fine hat."""
    span = nodes[2::2] - nodes[:-1:2]
    out = w[::2].copy()
    out[:-1] += (nodes[2::2] - nodes[1::2]) / span * w[1::2]
    out[1:] += (nodes[1::2] - nodes[:-1:2]) / span * w[1::2]
    return out


def _integral_weights(nodes, b):
    """Weights of int_0^T b u dt on ``nodes`` (an even number of steps):
    (4 I - I_2) / 3 for the product rule I of ``observe`` on the nodes and
    I_2 on their every-other-node subgrid, one Richardson step that
    cancels the rule's h**2 error term: fourth order for smooth u.  A
    breakpoint of b inside a step leaves an h**4 term whose factor moves
    with the breakpoint's place in its step, so single halvings gain 4x to
    60x there (both gated in ``TestSynthesizedObservation``)."""
    w = _hat_weights(nodes, b)
    out = 4.0 * w
    out[::2] -= _coarse_weights(nodes, w)
    out /= 3.0
    return out


def synthesize_observation(cfg, op, f, u0_true):
    """Forward-solve on a refined grid and form the observation vector
    c*u0 + a*u(T) + int b u dt, the integral by ``_integral_weights``;
    a*u(T) is not extrapolated."""
    # the coupling (c, a, b) does not depend on M
    c, a, b = cfg.build_condition(np.zeros(op.n_modes)).coupling
    refinement = FINAL_STATE_REFINEMENT if b.is_zero else INTEGRAL_REFINEMENT
    grid_fine = make_graded_grid(cfg.grid.T, refinement * cfg.grid.n,
                                 cfg.grid.r)
    u = forward_solve(op, u0_true, f, grid_fine)
    integral = (0.0 if b.is_zero else
                _integral_weights(grid_fine.nodes, b) @ u.coeffs)
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
    the number of steps of the observation's forward grid: 2n for an
    integral observation, 4n for u(T) alone, on a recovery grid of n."""

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


def sweep_threshold(cfg):
    """Re-run the recovery over scaled observations s * M.

    Each row records the convergence flag, the last contraction ratio, the
    size of the zero-forcing initial value, and the certified threshold
    m_T: a row whose sigma_T0_norm lies below it provably converges.  Only M
    changes between rows, so one recovery plan, built at the first row,
    serves them all.  Row failures are recorded and the sweep continues.
    m_T needs the growth bound of a pointwise map, so a memory kernel is
    rejected before any work is done.
    """
    scales = cfg.sweep_scales
    if not scales:
        raise ConfigError("sweep needs a 'sweep.scales' list in the config")
    if cfg.nonlinearity.kind not in ("zero", "power"):
        raise ConfigError("sweep needs a 'zero' or 'power' nonlinearity, "
                          f"not {cfg.nonlinearity.kind!r}")
    op = cfg.build_operator()
    f = cfg.build_nonlinearity()
    grid = cfg.build_grid()
    spec = cfg.build_norm_spec(op)
    M_base, _ = resolve_M(cfg, op, f)

    c_bar = check_growth_condition(f, op, spec)
    exponents = GrowthExponents(cfg.solver.gamma, cfg.solver.theta,
                                cfg.resolved_nu(), getattr(f, "ell", 1.0))
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
