"""The benchmark's wrap points exist in the library.

perfbench traces functions by replacing them where their callers resolve
them; a deleted or renamed one would leave a layer silently unmeasured.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    targets = bench.trace_targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert not missing
