"""Per-layer call counts and self times for the clocksim benchmark.

A ``Tracer`` wraps functions so that each call records a span on the
calling thread's own stack. When a span ends, its duration is charged to
the enclosing span on the same thread as child time, and its self time
(duration minus child time) is added to the wrapped name's total. Spans of
different threads never nest into each other, so self time is thread-busy
time: with a worker pool, the sum over names can exceed the wall time.
Totals stay in memory until ``totals()`` is read at the end of a run.

``instrumented`` installs the wrappers into a package: a function is
replaced at every module that binds it (``from .x import y`` copies the
reference, so patching only the defining module would miss those calls),
and a class target wraps its ``__post_init__``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time


class Tracer:
    """Thread-safe accumulator of per-name call counts and self times."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._thread_state()
            child_time = [0.0]
            stack.append(child_time)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = table.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += duration - child_time[0]

        return traced

    def totals(self) -> dict:
        """Map each traced name to ``(calls, self_seconds)`` over all threads."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s) in table.items():
                prev_calls, prev_self = out.get(name, (0, 0.0))
                out[name] = (prev_calls + calls, prev_self + self_s)
        return out


@contextlib.contextmanager
def instrumented(tracer: Tracer, package: str, targets):
    """Wrap ``targets`` (``"module.attr"`` names under ``package``) for the
    duration of the block and restore the originals afterwards.

    Yields the list of targets that do not exist in the package; they are
    skipped, so their counts read zero.
    """
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    patches = []
    missing = []
    try:
        for target in targets:
            module_name, attr = target.rsplit(".", 1)
            owner = sys.modules.get(f"{package}.{module_name}")
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(target)
            elif isinstance(original, type):
                hook = original.__dict__.get("__post_init__")
                if hook is None:
                    missing.append(target)
                    continue
                patches.append((original, "__post_init__", hook))
                setattr(original, "__post_init__", tracer.wrap(target, hook))
            else:
                wrapped = tracer.wrap(target, original)
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, binding, original))
                            setattr(mod, binding, wrapped)
        yield missing
    finally:
        for obj, binding, original in reversed(patches):
            setattr(obj, binding, original)
