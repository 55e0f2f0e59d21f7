"""Time specrec's set-up in a fresh interpreter and print it in seconds.

Set-up is the import of specrec (numpy included), the config parse and the
operator, grid, weight and nonlinearity builds.  bench.py starts this script
several times per run and reports the median.

    python3 perfbench/setup_probe.py <src dir> <config.json>
"""

import sys
import time


def main(src, config_path):
    start = time.perf_counter()
    sys.path.insert(0, src)
    from specrec.config import parse_config
    cfg = parse_config(config_path)
    op = cfg.build_operator()
    cfg.build_grid()
    cfg.build_norm_spec(op)
    cfg.build_weight()
    cfg.build_nonlinearity()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2])))
