"""Self-test of the benchmark at toy sizes; takes well under a minute.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
traced and untraced, with no failed operation, and that a deliberately wrong
round-trip tolerance or a broken sweep row registers as a failed operation.
Timings are not checked, so machine noise cannot fail it.  It is not part
of the Tier-1 test suite.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import run

bench = run.load_bench()

TOY_GRID_N = 8


def metric_names(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    spec = json.loads((Path(run.SRC).parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    check(metric_names(spec, "end_to_end") == dict(bench.END_TO_END),
          "BENCHMARK.json end_to_end matches the emitted metrics")
    check(metric_names(spec, "per_layer") == dict(bench.PER_LAYER),
          "BENCHMARK.json per_layer matches the emitted metrics")
    check({w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS),
          "BENCHMARK.json names every workload")

    out_dir = bench.OUT / "selftest"
    for name, workload in bench.WORKLOADS.items():
        for traced, expected in ((False, bench.END_TO_END),
                                 (True, bench.PER_LAYER)):
            # toy grids are too coarse for the real error tolerance
            result = bench.run(name, 0, 0.0, traced, out_dir, TOY_GRID_N,
                               error_tol=math.inf)
            summary = json.loads(json.dumps(result.summary()))
            values = summary["metrics"]
            check(result.correct and result.failed == 0
                  and result.attempted >= 1,
                  f"{name} trace={int(traced)}: all operations pass")
            check(set(summary) == {"correct", "attempted", "failed",
                                   "metrics"}
                  and {k: v["unit"] for k, v in values.items()}
                  == dict(expected)
                  and all(math.isfinite(v["value"]) for v in values.values()),
                  f"{name} trace={int(traced)}: every metric emitted")
        if workload.kind == "roundtrip":
            result = bench.run(name, 0, 0.0, False, out_dir, TOY_GRID_N,
                               error_tol=0.0)
            check(not result.correct and result.failed == result.attempted,
                  f"{name}: a zero error tolerance fails every round trip")

    paths, docs = bench.generate_configs(bench.WORKLOADS["threshold-sweep"],
                                         0, out_dir, TOY_GRID_N)
    p = bench.sweep_pass(paths[0], docs[0])
    broken = [dataclasses.replace(row, sigma_T0_norm=row.sigma_T0_norm * 1.5)
              if row.scale == max(r.scale for r in p.rows) else row
              for row in p.rows]
    check(bench.sweep_row_failures(p.rows) == 0
          and bench.sweep_row_failures(broken) == 1,
          "threshold-sweep: a row off the linear sigma_T0 line fails")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
