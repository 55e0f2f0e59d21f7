"""Spans and counters recorded from outside specrec.

The tracer replaces public functions at the module globals (or class
attributes) their callers resolve, records one span per call in memory and
puts every original back on ``uninstall``.  Nothing in ``src/`` changes, and
an untraced run never constructs a tracer.
"""

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, pass_id]``; ``parent`` indexes the
    enclosing span (-1 at the top).  Counted-only targets bump a counter per
    call and record no span, for functions called too often to time cheaply.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.pass_id = None
        self._stack = []
        self._saved = []

    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.pass_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][1] = start
                spans[idx][2] = time.perf_counter()
                stack.pop()
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name, self.pass_id] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, targets):
        """Wrap ``(owner, attribute, span name, timed)`` targets in place."""
        for owner, attr, name, timed in targets:
            original = vars(owner)[attr]
            wrap = self._timed if timed else self._counted
            setattr(owner, attr, wrap(name, original))
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self, pass_id):
        """Per-name inclusive time, self time and call count for one pass.

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself through another wrapped name is not
        counted twice.  Self time is a span's duration minus the durations
        of its direct children.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for span in spans:
            if span[4] == pass_id and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for idx, (name, start, end, parent, pid) in enumerate(spans):
            if pid != pass_id:
                continue
            calls[name] += 1
            self_time[name] += end - start - child_time[idx]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        for (name, pid), n in self.counts.items():
            if pid == pass_id:
                calls[name] += n
        return inclusive, self_time, calls

    def dump(self, path):
        """Write spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pid}) + "\n")
            for (name, pid), n in sorted(self.counts.items()):
                fh.write(json.dumps({"name": name, "pass": pid,
                                     "calls": n}) + "\n")
