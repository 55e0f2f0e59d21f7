"""The README's library example runs as written, and its config block is
a config the schema reads."""

import json
import pathlib
import re

import numpy as np

from specrec.config import config_from_dict

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_recovers():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    report = scope["report"]
    assert report.converged
    assert np.linalg.norm(report.u0_recovered - scope["u0_true"]) < 1e-8
    assert scope["half"].converged


def test_config_block_parses():
    blocks = re.findall(r"```jsonc\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    # every bound the schema enforces is stated in the block
    for bound in ("T > 0", "n ≥ 2", "r ≥ 1", "tol > 0", "max_iter ≥ 1",
                  "width > 0", "ell > 0", "lambda > -1"):
        assert bound in blocks[0]
    doc = json.loads(re.sub(r"//.*", "", blocks[0]))
    cfg = config_from_dict(doc)
    assert cfg.grid.n == 256 and cfg.nonlinearity.kind == "power"
    assert cfg.sweep_scales == (0.0, 0.5, 1.0, 2.0)
