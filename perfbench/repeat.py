"""Run one workload once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload memory-forward --seeds 1-10

Each run is a separate untraced `run.py` process, one after the other, and
measures for BENCHMARK.json's `run_seconds`.  For every metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default="1-10",
                        help="inclusive range, such as 1-10")
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]

    values, units, ok = {}, {}, True
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if not lines:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit {done.returncode} without a result")
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and done.returncode == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: exit {done.returncode}, correct "
              f"{result['correct']}, {result['failed']}/"
              f"{result['attempted']} failed", flush=True)

    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:40s} {median:12.6g} {units[name]:6s} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
