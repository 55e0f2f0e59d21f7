"""The README's library example runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_recovers():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    report = scope["report"]
    assert report.converged
    assert np.linalg.norm(report.u0_recovered - scope["u0_true"]) < 1e-8
