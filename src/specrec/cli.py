"""Command-line surface.

Subcommands: evolve (forward solve to CSV), recover (observation to initial
state, JSON report), check-spectral (per-mode margins, exit 2 on violation),
roundtrip (JSON report), sweep (CSV table).

Exit codes: 0 success, 2 spectral condition violated, 3 fixed point not
converged, 4 config error.
"""

import argparse
import dataclasses
import sys

import numpy as np

from .config import emit_csv, emit_json, parse_config, to_jsonable
from .duhamel import forward_solve
from .errors import ConfigError, IllPosedModeError, SpecrecError
from .harness import SWEEP_HEADER, resolve_M, roundtrip, sweep_threshold
from .recover import build_plan, check_spectral_condition, picard_recover

EXIT_OK = 0
EXIT_SPECTRAL = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CONFIG = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="specrec",
        description="Spectral recovery of parabolic initial states "
                    "from time-averaged observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("evolve", "forward solve; writes the trajectory as CSV"),
        ("recover", "recover the initial state; writes a JSON report"),
        ("check-spectral", "report per-mode solvability margins"),
        ("roundtrip", "forward, observe, recover; writes a JSON report"),
        ("sweep", "scaled-observation sweep; writes a CSV table"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", default=None, help="output file (default: stdout)")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress progress messages")
    return parser


def _say(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _trajectory_rows(grid, coeffs):
    for t, row in zip(grid.nodes, coeffs):
        yield [float(t)] + [float(c) for c in row]


def _cmd_evolve(cfg, args):
    op = cfg.build_operator()
    f = cfg.build_nonlinearity()
    grid = cfg.build_grid()
    u0 = cfg.resolve_u0(op)
    u = forward_solve(op, u0, f, grid)
    header = ["t"] + [f"mode_{j + 1}" for j in range(op.n_modes)]
    emit_csv(args.out or sys.stdout, header, _trajectory_rows(grid, u.coeffs))
    _say(args, f"evolved {grid.n_steps} steps, {op.n_modes} modes")
    return EXIT_OK


def _cmd_check_spectral(cfg, args):
    op = cfg.build_operator()
    f = cfg.build_nonlinearity()
    M, _ = resolve_M(cfg, op, f)
    cond = cfg.build_condition(M)
    report = check_spectral_condition(op, cond, cfg.grid.T)
    header = ["mode", "eigenvalue", "margin", "scale", "ok"]
    rows = [[j + 1, float(op.eigenvalues[j]), float(report.margins[j]),
             float(report.scales[j]), bool(report.ok_per_mode[j])]
            for j in range(op.n_modes)]
    emit_csv(args.out or sys.stdout, header, rows)
    if not report.ok:
        _say(args, f"spectral condition violated at modes "
                   f"{list(report.failing_modes)}")
        return EXIT_SPECTRAL
    _say(args, "spectral condition satisfied for all modes")
    return EXIT_OK


def _cmd_recover(cfg, args):
    op = cfg.build_operator()
    f = cfg.build_nonlinearity()
    grid = cfg.build_grid()
    spec = cfg.build_norm_spec(op)
    M, u0_true = resolve_M(cfg, op, f)
    cond = cfg.build_condition(M)
    try:
        plan = build_plan(op, cond, f, grid)
    except IllPosedModeError as exc:
        spectral = check_spectral_condition(op, cond, grid.T)
        emit_json(args.out or sys.stdout,
                  {"spectral": to_jsonable(spectral), "converged": False})
        _say(args, f"spectral condition violated at modes {exc.modes}")
        return EXIT_SPECTRAL
    report = picard_recover(op, cond, f, grid, spec, tol=cfg.solver.tol,
                            max_iter=cfg.solver.max_iter, plan=plan)
    payload = {"spectral": to_jsonable(plan.spectral),
               "report": to_jsonable(report)}
    if u0_true is not None:
        payload["u0_true"] = [float(x) for x in u0_true]
        payload["error_e0"] = float(np.linalg.norm(report.u0_recovered - u0_true))
    emit_json(args.out or sys.stdout, payload)
    if not report.converged:
        _say(args, f"fixed point did not converge in {report.iterations} "
                   f"iterations")
        return EXIT_NO_CONVERGENCE
    _say(args, f"converged in {report.iterations} iterations")
    return EXIT_OK


def _cmd_roundtrip(cfg, args):
    result = roundtrip(cfg)
    emit_json(args.out or sys.stdout, to_jsonable(result))
    if not result.report.converged:
        _say(args, "recovery did not converge")
        return EXIT_NO_CONVERGENCE
    _say(args, f"round trip error {result.error_e0:.3e}")
    return EXIT_OK


def _cmd_sweep(cfg, args):
    rows, estimate = sweep_threshold(cfg)
    emit_csv(args.out or sys.stdout, SWEEP_HEADER,
             [list(dataclasses.astuple(row)) for row in rows])
    _say(args, f"sweep of {len(rows)} scales, certified threshold "
               f"{estimate.m_T:.3e}")
    return EXIT_OK


_COMMANDS = {
    "evolve": _cmd_evolve,
    "recover": _cmd_recover,
    "check-spectral": _cmd_check_spectral,
    "roundtrip": _cmd_roundtrip,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](parse_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IllPosedModeError as exc:
        print(f"spectral condition violated: {exc}", file=sys.stderr)
        return EXIT_SPECTRAL
    except SpecrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
