"""Span tracing of so3kin's layers, installed from outside the package.

`Tracer.install` wraps every public function of the package (the names
`so3kin/__init__` re-exports, plus the file functions of `so3kin.io`) and
`RotationMatrix.__post_init__`.  Each wrapper replaces the original in
every so3kin module namespace that holds it, so calls made through a
module global (`propagator.exp_so3`, `differential.hat`, the deferred
`from .propagator import sample_rate`) are seen as well as calls through
the package.  `uninstall` puts the originals back.

A span is (id, name, start, end, parent id, thread id, pass id, work).
Spans opened on a thread with no open span (the `--method all` pool
workers) take the pass's root span as parent, so work done on worker
threads is charged to the pass that caused it.  Spans stay in memory
until the benchmark reads them between passes.
"""
from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# Functions whose span records the work done, from (args, kwargs, result):
# an amount, or (rows, path) for file functions.
_WORK = {
    "propagator.propagate": lambda a, k, r: len(r) - 1,
    "differential.finite_difference_residual": lambda a, k, r: len(a[0]) - 2,
    "io.read_rate_profile": lambda a, k, r: (len(r.times), a[0]),
    "io.read_trajectory": lambda a, k, r: (len(r), a[0]),
    "io.write_trajectory": lambda a, k, r: (len(a[1]), a[0]),
    "io.read_matrix": lambda a, k, r: (3, a[0]),
}


def _layer_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "so3kin" or name.startswith("so3kin."))]


def _public_functions():
    """{span name: function} for the package's public functions."""
    import so3kin
    import so3kin.io

    found = {}
    candidates = list(vars(so3kin).values())
    # io.fmt formats a single number; a span per number written would swamp
    # the cost of write_trajectory it is meant to measure.
    candidates += [getattr(so3kin.io, n) for n in so3kin.io.__all__ if n != "fmt"]
    for fn in candidates:
        if inspect.isfunction(fn) and fn.__module__.startswith("so3kin."):
            found[f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"] = fn
    return found


class Tracer:
    """Collects spans for the passes of one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = None
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        work = _WORK.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            sid = next(self._ids)
            stack.append(sid)
            result = done = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = work
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident(),
                                   self.pass_id, done(args, kwargs, result) if done else None))

        traced.__wrapped__ = fn
        return traced

    def run_pass(self, pass_id: int, fn):
        """Call fn() under a root span named "cli"; return its result."""
        self.pass_id = pass_id
        self.root = sid = next(self._ids)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.spans.append((sid, "cli", start, end, None, threading.get_ident(),
                               pass_id, None))
            self.root = self.pass_id = None

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        from so3kin.core import RotationMatrix

        wrappers = {id(fn): self.wrap(name, fn) for name, fn in _public_functions().items()}
        for module in _layer_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        post_init = RotationMatrix.__post_init__
        self._restore.append((RotationMatrix, "__post_init__", post_init))
        RotationMatrix.__post_init__ = self.wrap("core.RotationMatrix", post_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

def write_spans(path, spans) -> None:
    with open(path, "w") as f:
        f.write("id,name,start,end,parent,thread,pass\n")
        for sid, name, start, end, parent, tid, pid, _ in spans:
            f.write(f"{sid},{name},{start:.9f},{end:.9f},{parent or ''},{tid},{pid}\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def pass_profile(spans) -> dict:
    """Per-name totals for the spans of one pass.

    Returns {name: {"calls", "s", "self_s", "work", "rows", "bytes"}}: s sums
    span durations; self_s sums each span's duration minus the union of
    its children's intervals; work sums the recorded amounts of work; rows
    and bytes sum the rows and file sizes of file functions.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "rows": 0,
                               "bytes": 0})
    for sid, name, start, end, _, _, _, work in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += (end - start) - union_length(children.get(sid, ()), start, end)
        if isinstance(work, tuple):
            rows, path = work
            rec["rows"] += rows
            rec["bytes"] += os.path.getsize(path)
        elif work is not None:
            rec["work"] += work
    return dict(out)
