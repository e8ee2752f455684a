"""In-memory span recorder wrapped around the program's layer entry points.

Nothing here changes the program: the ``install_*`` functions replace
public functions and methods with thin wrappers that record one span per
call (name, start, end, parent, and the root span shared by one request)
and bump counters on every open span of the calling thread.  Spans stay in memory; :meth:`Recorder.dump` writes
them out once, at exit.  The same module serves the in-process
``stanford`` workload and, through ``launcher.py``, the daemon.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: span name -> layer, for the self-time table
LAYER_OF = {
    "lang.check": "lang",
    "lang.cps": "lang",
    "rewrite.optimize": "rewrite",
    "machine.codegen": "machine",
    "machine.vm": "machine",
    "reflect.optimize": "reflect",
    "store.commit": "store",
    "store.sync": "store",
    "store.log_append": "store",
    "store.read_chain": "store",
    "store.decode": "store",
    "server.handle": "server",
    "server.lock_wait": "server",
}


class Recorder:
    """Spans of one process; recording can be switched off."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: (name, start_ns, end_ns, span_id, parent_id, root_id, counts)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        """Add to the counts of every span open on this thread."""
        for frame in self._stack():
            counts = frame[2]
            counts[key] = counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around ``owner.attr``; ``after(result)`` may count."""
        fn = getattr(owner, attr)
        recorder = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            frame = (span_id, parent[1] if parent else span_id, {})
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(recorder, result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append(
                    (name, start, end, span_id, parent[0] if parent else 0,
                     frame[1], frame[2])
                )

        self._set(owner, attr, fn, spanned)

    def wrap_count(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        fn = getattr(owner, attr)
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if recorder.enabled:
                recorder.count(key)
            return fn(*args, **kwargs)

        self._set(owner, attr, fn, counted)

    def _set(self, owner, attr, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(self.spans, out)


def _count_rules(recorder: Recorder, result) -> None:
    recorder.count("rules_fired", result.stats.total_rewrites)


def _count_instructions(recorder: Recorder, result) -> None:
    recorder.count("instructions", result.instructions)


def install_compiler(recorder: Recorder) -> None:
    """Front end, rewrite optimizer, code generator, reflection, VM."""
    import repro.reflect
    import repro.reflect.optimize as reflect_optimize
    from repro.lang import modules
    from repro.lang.cps import CpsConverter
    from repro.machine.vm import VM

    recorder.wrap(modules, "check_module", "lang.check")
    recorder.wrap(CpsConverter, "convert_function", "lang.cps")
    # the pipeline and the code generator are imported by name into both
    # callers, so each binding gets its own wrapper
    for owner in (modules, reflect_optimize):
        recorder.wrap(owner, "optimize", "rewrite.optimize", after=_count_rules)
        recorder.wrap(owner, "compile_function", "machine.codegen")
    recorder.wrap(repro.reflect, "optimize_result", "reflect.optimize")
    recorder.wrap(VM, "call", "machine.vm", after=_count_instructions)


def install_store(recorder: Recorder) -> None:
    """Heap commit/load, pager sync/reads/writes, commit log, fsync."""
    from repro.store import heap
    from repro.store.commitlog import CommitLog
    from repro.store.pager import Pager

    recorder.wrap(heap.ObjectHeap, "commit", "store.commit")
    recorder.wrap(Pager, "sync_header", "store.sync")
    recorder.wrap(CommitLog, "append", "store.log_append")
    recorder.wrap(Pager, "read_chain", "store.read_chain")
    recorder.wrap(heap, "decode_value", "store.decode")
    recorder.wrap_count(heap.ObjectHeap, "load", "heap_load")
    recorder.wrap_count(Pager, "_write_raw", "page_write")
    recorder.wrap_count(os, "fsync", "fsync")


def install_server(recorder: Recorder) -> None:
    """Request handling and the transaction read/write lock."""
    from repro.server.daemon import ReproServer
    from repro.store.concurrency import RWLock

    recorder.wrap(ReproServer, "_handle", "server.handle")
    recorder.wrap(RWLock, "acquire_read", "server.lock_wait")
    recorder.wrap(RWLock, "acquire_write", "server.lock_wait")


# ---------------------------------------------------------------- analysis


def load(path: str) -> list[tuple]:
    with open(path) as src:
        return [tuple(s) for s in json.load(src)]


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time (ns) per span name: duration minus direct children.

    Children run inside their parent on the same thread, so subtracting
    their durations leaves the time the parent spent in its own code.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for name, start, end, span_id, parent, root, counts in spans:
        if parent:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for name, start, end, span_id, parent, root, counts in spans:
        out[name] += (end - start) - child_ns.get(span_id, 0)
    return dict(out)


def by_name(spans: list[tuple], name: str) -> list[tuple]:
    return [s for s in spans if s[0] == name]


def layer_table(spans: list[tuple]) -> dict[str, float]:
    """Self time per layer in milliseconds."""
    layers: dict[str, float] = defaultdict(float)
    for name, ns in self_times(spans).items():
        layers[LAYER_OF.get(name, name)] += ns / 1e6
    return dict(sorted(layers.items()))
