"""specrec benchmark: seeded inputs, closed-loop passes, output checks and
the end-to-end and per-layer metrics.

One caller runs the workload's problems back to back, one pass after the
other, through the entry points the CLI uses (``harness.roundtrip``,
``harness.sweep_threshold``) on configs read by ``config.parse_config``.
Import this module only after ``src/`` is on ``sys.path`` and the BLAS
thread count is pinned (run.py does both).
"""

import dataclasses
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from specrec import cli, config, harness, nonlinearity, recover

from spans import Tracer

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
OUT = HERE / "out"

# measured passes per run, at least; each untraced pass is followed by one
# set-up probe
MIN_PASSES = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str            # "roundtrip" or "sweep"
    fixtures: tuple
    error_tol: float     # largest accepted round-trip error_e0


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Each tolerance sits a small margin above the worst error measured over
# many seeds, so a recovery that loses accuracy fails its round trips.
WORKLOADS = {
    # errors 8.25e-6 to 8.28e-6 over seeds 0-99: they do not depend on the
    # seed, so 1.45x the worst is enough margin
    "psi-quadrature": Workload(
        "roundtrip", ("psi-quadrature-poly", "psi-quadrature-table"), 1.2e-5),
    # errors 1.5e-7 to 7.7e-7 over seeds 0-199, moving with the signs of u0;
    # about 2x the worst
    "memory-forward": Workload("roundtrip", ("memory-forward",), 1.5e-6),
    "threshold-sweep": Workload("sweep", ("threshold-sweep",), math.inf),
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("recover_s", "s"),
              ("forward_s", "s"), ("iterations", "count"),
              ("peak_rss_mb", "MB"))

TIMED_LAYERS = (
    "recover.apply_psi_E", "kernels.mode_weights",
    "recover.check_spectral_condition", "duhamel.duhamel_convolve",
    "duhamel.forward_solve", "duhamel.observe",
    "harness.synthesize_observation", "nonlinearity.eval_node",
    "nonlinearity.eval_trajectory", "nonlinearity.check_growth_condition",
    "recover.theoretical_threshold", "spectral.weighted_sup_norm",
    "recover.picard_recover", "config.parse", "config.build")
COUNTED_LAYERS = (
    "recover.apply_psi_E", "duhamel.duhamel_convolve",
    "nonlinearity.eval_node", "nonlinearity.eval_trajectory",
    "spectral.weighted_sup_norm", "spectral.analyze", "spectral.synthesize",
    "recover.picard_recover")
PER_LAYER = (tuple((f"{name}.s", "s") for name in TIMED_LAYERS)
             + tuple((f"{name}.calls", "count") for name in COUNTED_LAYERS)
             + (("recover.apply_psi_E.self_s", "s"),
                ("recover.picard_recover.s_per_iter", "s"),
                ("recover.picard_recover.converged_ratio", "ratio"),
                ("harness.roundtrip.error_e0", "l2"),
                ("trace_overhead", "ratio")))


def trace_targets():
    """Public functions to wrap, at the globals their callers resolve."""
    targets = [
        (recover, "apply_psi_E", "recover.apply_psi_E", True),
        (recover, "mode_weights", "kernels.mode_weights", True),
        (recover, "check_spectral_condition",
         "recover.check_spectral_condition", True),
        (recover, "duhamel_convolve", "duhamel.duhamel_convolve", True),
        (recover, "weighted_sup_norm", "spectral.weighted_sup_norm", True),
        (harness, "forward_solve", "duhamel.forward_solve", True),
        (harness, "observe", "duhamel.observe", True),
        (harness, "synthesize_observation",
         "harness.synthesize_observation", True),
        (harness, "picard_recover", "recover.picard_recover", True),
        (harness, "check_growth_condition",
         "nonlinearity.check_growth_condition", True),
        (harness, "theoretical_threshold", "recover.theoretical_threshold",
         True),
        (config, "parse_config", "config.parse", True),
        (config, "config_from_dict", "config.parse", True),
        # called per node and per mode vector: counted, not timed
        (nonlinearity, "analyze", "spectral.analyze", False),
        (nonlinearity, "synthesize", "spectral.synthesize", False),
    ]
    for cls in (nonlinearity.Zero, nonlinearity.PowerLaw,
                nonlinearity.MemoryKernel):
        targets.append((cls, "eval_node", "nonlinearity.eval_node", True))
        targets.append((cls, "eval_trajectory",
                        "nonlinearity.eval_trajectory", True))
    for attr in ("build_operator", "build_grid", "build_nonlinearity",
                 "build_norm_spec", "build_weight"):
        targets.append((config.ExperimentConfig, attr, "config.build", True))
    return targets


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def make_u0(rng, n_modes, norm):
    """Random signs on a 1/j decay, scaled to a fixed Euclidean norm."""
    v = rng.choice((-1.0, 1.0), size=n_modes) / np.arange(1, n_modes + 1)
    return norm * v / np.linalg.norm(v)


def generate_configs(workload, seed, work_dir, grid_n=None):
    """Write one config per fixture, with u0 drawn from the seed.

    The fixture's placeholder u0 (a single mode) fixes the norm of the drawn
    u0.  Returns the written paths and their documents.
    """
    rng = np.random.default_rng(seed)
    paths, docs = [], []
    for name in workload.fixtures:
        fixture = FIXTURES / f"{name}.json"
        config.parse_config(fixture)
        doc = json.loads(fixture.read_text(encoding="utf-8"))
        if grid_n is not None:
            doc["grid"]["n"] = grid_n
        u0 = make_u0(rng, doc["operator"]["modes"], doc["u0"]["amplitude"])
        doc["u0"] = {"type": "coefficients", "values": u0.tolist()}
        doc["seed"] = seed
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
        docs.append(doc)
    return paths, docs


def with_observation(doc, M):
    """The config document with its observation given as coefficients."""
    condition = dict(doc["condition"],
                     M={"type": "coefficients", "values": M.tolist()})
    return dict(doc, condition=condition)


# --------------------------------------------------------------------------
# one pass
# --------------------------------------------------------------------------

@dataclasses.dataclass
class Pass:
    wall_s: float = 0.0
    recover_s: float = 0.0
    forward_s: float = 0.0
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    picard_calls: int = 0
    converged: int = 0
    max_error: float = 0.0
    signature: list = dataclasses.field(default_factory=list)
    roundtrips: list = dataclasses.field(default_factory=list)
    rows: list = None
    index: int = None      # pass id of the spans, on traced passes only


def sweep_row_failures(rows):
    """Count the sweep rows that break the sweep invariants.

    Which rows converge is not fixed: the contraction edge moves with the
    data.  The zero-data row must converge at once with a zero initial
    value, the zero-forcing initial value must be linear in the scale, and
    a row that did not converge must still report its work and a finite
    threshold.
    """
    positive = [row for row in rows if row.scale > 0]
    ref = positive[0] if positive else None
    failed = 0
    for row in rows:
        ok = row.status == "ok"
        if ok and row.scale == 0:
            ok = (row.converged and row.iterations == 1
                  and row.sigma_T0_norm == 0.0)
        elif ok:
            expected = row.scale / ref.scale * ref.sigma_T0_norm
            ok = abs(row.sigma_T0_norm - expected) <= 1e-12 * expected
        if ok and not row.converged:
            ok = row.iterations >= 1 and math.isfinite(row.threshold_m)
        failed += not ok
    return failed


def roundtrip_pass(paths, error_tol):
    p = Pass()
    start = time.perf_counter()
    for path in paths:
        p.attempted += 1
        try:
            res = harness.roundtrip(config.parse_config(path))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            p.failed += 1
            p.signature.append(None)
            continue
        p.recover_s += res.recover_seconds
        p.forward_s += res.forward_seconds
        p.iterations += res.report.iterations
        p.picard_calls += 1
        p.converged += res.report.converged
        p.max_error = max(p.max_error, res.error_e0)
        p.failed += not (res.report.converged and res.error_e0 <= error_tol)
        p.signature.append((res.u0_recovered.tobytes(), res.report.iterations))
        p.roundtrips.append(res)
    p.wall_s = time.perf_counter() - start
    return p


def sweep_pass(path, doc):
    p = Pass()
    start = time.perf_counter()
    try:
        cfg = config.parse_config(path)
        op = cfg.build_operator()
        f = cfg.build_nonlinearity()
        u0 = cfg.resolve_u0(op)
        t0 = time.perf_counter()
        M, _ = harness.synthesize_observation(cfg, op, f, u0)
        t1 = time.perf_counter()
        cfg_m = config.config_from_dict(with_observation(doc, M))
        t2 = time.perf_counter()
        rows, _ = harness.sweep_threshold(cfg_m)
        t3 = time.perf_counter()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        p.attempted = p.failed = len(doc["sweep"]["scales"])
        p.wall_s = time.perf_counter() - start
        return p
    p.wall_s = t3 - start
    p.forward_s = t1 - t0
    p.recover_s = t3 - t2
    p.rows = rows
    p.attempted = len(rows)
    p.failed = sweep_row_failures(rows)
    for row in rows:
        p.iterations += row.iterations
        if row.status == "ok":
            p.picard_calls += 1
            p.converged += row.converged
    p.signature = [M.tobytes()] + [repr(dataclasses.astuple(row))
                                   for row in rows]
    return p


# --------------------------------------------------------------------------
# checks and set-up outside the timing
# --------------------------------------------------------------------------

def cli_matches(workload, reference, paths, work_dir):
    """Run the CLI on the first problem; it must reproduce the reference
    pass bit for bit."""
    if reference.failed:
        return False
    if workload.kind == "roundtrip":
        out = work_dir / "cli-roundtrip.json"
        code = cli.main(["roundtrip", "--config", str(paths[0]),
                         "--out", str(out), "--quiet"])
        payload = json.loads(out.read_text(encoding="utf-8"))
        ref = reference.roundtrips[0]
        return (code == cli.EXIT_OK
                and payload["u0_recovered"] == ref.u0_recovered.tolist()
                and payload["report"]["iterations"] == ref.report.iterations)
    # the generated config gives M from u0, so the CLI synthesizes it too
    out = work_dir / "cli-sweep.csv"
    code = cli.main(["sweep", "--config", str(paths[0]), "--out", str(out),
                     "--quiet"])
    expected = io.StringIO()
    config.emit_csv(expected, harness.SWEEP_HEADER,
                    [list(dataclasses.astuple(row)) for row in reference.rows])
    return (code == cli.EXIT_OK
            and out.read_text(encoding="utf-8") == expected.getvalue())


def measure_setup(config_path):
    """Set-up time of specrec in a fresh interpreter, in seconds."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           str(HERE.parent / "src"), str(config_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def layer_values(tracer, p):
    inclusive, self_time, calls = tracer.layer_totals(p.index)
    values = {f"{name}.s": inclusive.get(name, 0.0) for name in TIMED_LAYERS}
    values.update({f"{name}.calls": calls.get(name, 0)
                   for name in COUNTED_LAYERS})
    picard_s = inclusive.get("recover.picard_recover", 0.0)
    values["recover.apply_psi_E.self_s"] = self_time.get(
        "recover.apply_psi_E", 0.0)
    values["recover.picard_recover.s_per_iter"] = (
        picard_s / p.iterations if p.iterations else 0.0)
    values["recover.picard_recover.converged_ratio"] = (
        p.converged / p.picard_calls if p.picard_calls else 0.0)
    values["harness.roundtrip.error_e0"] = p.max_error
    return values


@dataclasses.dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict        # name -> (value, unit, samples)
    notes: list

    def summary(self):
        """The result line: counts and every metric with its unit."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit, _) in self.metrics.items()}}

    def report_lines(self):
        mode = "traced" if self.traced else "untraced"
        lines = [f"# {self.workload} seed={self.seed} {mode}: "
                 f"{self.attempted} operations, {self.failed} failed "
                 f"(failed_frac {self.failed / self.attempted:.6g})"]
        lines += [f"# {name} = {value:.6g} {unit} "
                  + (f"(median of {n})" if n > 1 else "(one sample)")
                  for name, (value, unit, n) in self.metrics.items()]
        return lines + [f"# {note}" for note in self.notes]


def run(name, seed, seconds, traced, out_dir=OUT, grid_n=None,
        error_tol=None):
    """Run one workload for about ``seconds`` of measured passes."""
    workload = WORKLOADS[name]
    if error_tol is None:
        error_tol = workload.error_tol
    work_dir = out_dir / f"{name}-seed{seed}-trace{int(traced)}"
    work_dir.mkdir(parents=True, exist_ok=True)
    paths, docs = generate_configs(workload, seed, work_dir, grid_n)

    def one_pass():
        if workload.kind == "roundtrip":
            return roundtrip_pass(paths, error_tol)
        return sweep_pass(paths[0], docs[0])

    tracer = Tracer() if traced else None
    passes, setup = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if traced and len(passes) % 2:
            tracer.pass_id = len(passes)
            tracer.install(trace_targets())
            try:
                p = one_pass()
            finally:
                tracer.uninstall()
            p.index = tracer.pass_id
        else:
            p = one_pass()
        passes.append(p)
        if not traced:
            # probes between passes sample the same stretch of machine time
            setup.append(measure_setup(paths[0]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = passes[0]
    cli_ok = cli_matches(workload, reference, paths, work_dir)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # a pass that does not reproduce the first one fails all its operations
    failed += sum(p.attempted for p in passes
                  if p.signature != reference.signature)
    failed = min(failed, attempted)
    notes = [] if cli_ok else ["CLI output differs from the in-process run"]

    plain = [p for p in passes if p.index is None]
    if not traced:
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "wall_s": (statistics.median(p.wall_s for p in plain), "s",
                       len(plain)),
            "recover_s": (statistics.median(p.recover_s for p in plain), "s",
                          len(plain)),
            "forward_s": (statistics.median(p.forward_s for p in plain), "s",
                          len(plain)),
            "iterations": (statistics.median(p.iterations for p in plain),
                           "count", len(plain)),
            "peak_rss_mb": (rss_mb, "MB", 1),
        }
        notes.append(f"error_e0 = {reference.max_error:.6g} (largest "
                     f"round-trip error of a pass; tolerance {error_tol:g})")
    else:
        traced_passes = [p for p in passes if p.index is not None]
        layers = [layer_values(tracer, p) for p in traced_passes]
        metrics = {key: (statistics.median(v[key] for v in layers), unit,
                         len(layers))
                   for key, unit in PER_LAYER if key != "trace_overhead"}
        metrics["trace_overhead"] = (
            statistics.median(p.wall_s for p in traced_passes)
            / statistics.median(p.wall_s for p in plain), "ratio",
            len(traced_passes))
        trace_file = work_dir / "spans.jsonl"
        tracer.dump(trace_file)
        notes.append(f"spans written to {trace_file}")
    return Result(name, seed, traced, cli_ok and failed == 0, attempted,
                  failed, metrics, notes)
