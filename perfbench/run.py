"""Run one specrec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload psi-quadrature --seed 1 \
        --seconds 20 --trace 0

Run from the root of a specrec checkout.  Lines starting with '#' describe
the run; the last line is the JSON result.  With --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Exit status: 0 when every output check passed, 1 otherwise.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def load_bench():
    """Import bench.py against the checkout's own specrec source tree."""
    if not (SRC / "specrec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no specrec source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import bench
    return bench


def main(argv=None):
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time, after set-up and warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    result = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    for line in result.report_lines():
        print(line)
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
