"""Spans for the traced run.

The benchmark records its own spans around each call into a layer of
the system (a request, a ping, a command-line compile, a check) and
keeps them in memory.  The program's own spans come from the Chrome
trace `fgvc --trace` writes.  At the end both are merged into one Chrome
trace file.  A span's self time is its duration minus the time its
child spans cover.
"""

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "cat", "ts", "dur", "args", "children", "depth")

    def __init__(self, name, cat, ts, dur, args, depth=0):
        self.name = name
        self.cat = cat
        self.ts = ts  # microseconds
        self.dur = dur
        self.args = args
        self.children = 0.0  # time covered by direct child spans
        self.depth = depth

    def self_time(self):
        return self.dur - self.children


class Recorder:
    """The benchmark's own spans (pid 1 in the written trace)."""

    def __init__(self):
        self.origin_ns = time.perf_counter_ns()
        self.spans = []
        self._open = []

    def now_us(self):
        return (time.perf_counter_ns() - self.origin_ns) / 1000.0

    @contextmanager
    def span(self, name, **args):
        s = Span(name, "bench", self.now_us(), 0.0, args, len(self._open))
        self._open.append(s)
        try:
            yield s
        finally:
            self._open.pop()
            s.dur = self.now_us() - s.ts
            if self._open:
                self._open[-1].children += s.dur
            self.spans.append(s)


def load_chrome(path):
    """The complete spans of a Chrome trace of B/E events, with their
    nesting depth and child coverage per thread."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    stacks = {}
    spans = []
    for e in events:
        ph = e.get("ph")
        key = (e.get("pid"), e.get("tid"))
        stack = stacks.setdefault(key, [])
        if ph == "B":
            stack.append(
                Span(e["name"], e.get("cat", ""), e["ts"], 0.0, e.get("args", {}), len(stack))
            )
        elif ph == "E" and stack:
            s = stack.pop()
            s.dur = e["ts"] - s.ts
            if stack:
                stack[-1].children += s.dur
            spans.append(s)
    return spans


def union_length(intervals):
    """Total length covered by (start, end) intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def chrome_events(spans, pid, offset_us=0.0):
    out = []
    for s in spans:
        e = {
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            "ts": s.ts + offset_us,
            "dur": s.dur,
            "pid": pid,
            "tid": 0,
        }
        if s.args:
            e["args"] = s.args
        out.append(e)
    return out


def write_chrome(path, processes):
    """[processes] is a list of (pid, name, events)."""
    events = []
    for pid, name, evs in processes:
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}})
        events += evs
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
