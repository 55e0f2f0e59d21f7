"""Round-trip and threshold-sweep experiments.

The round trip synthesizes an observation from a known initial state on a
fine grid (4x the solver nodes, trapezoid quadrature), hands only the
observation vector to the recovery path, and compares the recovered initial
state against the truth.  Forward and backward discretizations share nothing,
so the reported errors are genuine method error.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .duhamel import forward_solve, observe
from .errors import ConfigError, SpecrecError
from .nonlinearity import check_growth_condition
from .recover import (FixedPointReport, GrowthExponents, build_plan,
                      picard_recover, theoretical_threshold)
from .spectral import fractional_norm, make_graded_grid

OBSERVATION_REFINEMENT = 4


def synthesize_observation(cfg, op, f, u0_true):
    """Forward-solve on a refined grid and form the observation vector."""
    grid_fine = make_graded_grid(cfg.grid.T,
                                 OBSERVATION_REFINEMENT * cfg.grid.n,
                                 cfg.grid.r)
    # the coupling (c, a, b) does not depend on M
    c, a, b = cfg.build_condition(np.zeros(op.n_modes)).coupling
    u = forward_solve(op, u0_true, f, grid_fine)
    return c * u0_true + observe(u, a, b), grid_fine


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
        cond = cfg.build_condition(float(s) * M_base)
        try:
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
