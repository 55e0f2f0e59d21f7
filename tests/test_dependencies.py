"""The runtime dependency set: numpy and the standard library only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
before = set(sys.modules)
import specrec, specrec.cli, specrec.config, specrec.harness
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - set(sys.stdlib_module_names))))
"""


def test_only_numpy_beyond_stdlib():
    # a fresh interpreter, and the difference against what it loaded at
    # start-up, so packages a site hook imports do not count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    new = set(done.stdout.split())
    assert "specrec" in new
    assert new <= {"numpy", "specrec"}
