"""Outside-in span tracing of the canskew modules, for the traced benchmark run.

The tracer wraps public functions of each canskew module and rebinds every
name that refers to them, in every loaded canskew module. Callers look
functions up in different places: ``harness`` imports ``process_batch`` by
name, ``ids.run_ids`` reads the ``ids`` module globals, ``cli`` goes through
module attributes. Rebinding each reference covers all of them. Nothing in
the program is edited; ``uninstall`` restores the originals.

Spans are (name, start, end, parent, count) rows held in flat arrays and
written out once at the end. A span's self time is its duration minus the
durations of its direct children; the benchmark's own root span takes what no
wrapped function covers, so self times add up to the traced wall time.
"""
from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("clock", "traceio", "ids", "attacks", "harness", "formal", "curves", "correlation", "cli")

# Public helpers that process_batch calls once per batch: their cost stays in
# process_batch's self time, so the per-batch detector step is one number and
# the tracer adds one span per batch, not four.
INLINE = {"ids": {"sota_avg_offset", "ntp_avg_offset", "accumulate_offset", "rls_update", "cusum_step"}}

# Public methods traced alongside the module-level functions.
METHODS = {"curves": ("SuccessCurve.to_csv", "SuccessCurve.from_csv")}


def _armed(args, kwargs, result):
    """1 for an attack-phase (armed) process_batch call, else 0."""
    return 1.0 if (args[2] if len(args) > 2 else kwargs.get("armed", True)) else 0.0


# Per-span counts recorded for rates: messages made, lines written or parsed.
COUNTS = {
    "ids.process_batch": _armed,
    "clock.synthesize_trace": lambda args, kwargs, result: float(len(result)),
    "traceio.parse_log": lambda args, kwargs, result: float(len(result)),
    "traceio.write_trace": lambda args, kwargs, result: float(len(args[0])),
}


def _cli_command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("d")
        self._stack = [-1]
        self._patched = []

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.count.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code."""
        i = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn):
        nid = self._name(name)
        count_fn = COUNTS.get(name)
        open_, close = self._open, self._close

        if name == "cli.main":
            def wrapper(*args, **kwargs):
                i = open_(self._name(_cli_command(args, kwargs)))
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)
        elif count_fn is None:
            def wrapper(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)
        else:
            count = self.count

            def wrapper(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                    count[i] = count_fn(args, kwargs, result)
                    return result
                finally:
                    close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the traced functions and rebind every canskew reference to them."""
        loaded = [m for name, m in sys.modules.items() if name == "canskew" or name.startswith("canskew.")]
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"canskew.{short}"]
            public = getattr(module, "__all__", ["main"])  # cli declares no __all__; main is its entry
            for attr in public:
                fn = getattr(module, attr, None)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and attr not in INLINE.get(short, ())):
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
            for dotted in METHODS.get(short, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(f"{short}.{dotted}", raw.__func__))
                else:
                    new = self.wrap(f"{short}.{dotted}", raw)
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, new)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "count": np.frombuffer(self.count, dtype=np.float64).copy(),
        }


class SpanTable:
    """Per-name aggregates of a finished trace."""

    def __init__(self, spans):
        self.names = list(spans["names"])
        name_id = spans["name_id"]
        parent = spans["parent"]
        dur = spans["end"] - spans["start"]
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self._name_id = name_id
        self._parent = parent
        self._count = spans["count"]
        self.self_time = dur - child
        self.calls = np.bincount(name_id, minlength=n_names)
        self.self_s = np.bincount(name_id, weights=self.self_time, minlength=n_names)
        self.total_s = np.bincount(name_id, weights=dur, minlength=n_names)
        self.counts = np.bincount(name_id, weights=spans["count"], minlength=n_names)

    def _index(self, name):
        return self.names.index(name) if name in self.names else None

    def get(self, name, what):
        i = self._index(name)
        return 0.0 if i is None else float(getattr(self, what)[i])

    def prefix_self(self, prefix):
        """Self time summed over every span name starting with ``prefix``."""
        return float(sum(self.self_s[i] for i, n in enumerate(self.names) if n.startswith(prefix)))

    def under(self, ancestor):
        """Mask of spans that have a span named ``ancestor`` above them."""
        i = self._index(ancestor)
        if i is None:
            return np.zeros(len(self._name_id), dtype=bool)
        is_anc = self._name_id == i
        inside = np.zeros(len(self._name_id), dtype=bool)
        has_parent = self._parent >= 0
        while True:
            via = np.zeros_like(inside)
            via[has_parent] = is_anc[self._parent[has_parent]] | inside[self._parent[has_parent]]
            if np.array_equal(via, inside):
                return inside
            inside = via

    def count_where(self, name, mask, weighted=False):
        i = self._index(name)
        if i is None:
            return 0.0
        sel = (self._name_id == i) & mask
        return float(self._count[sel].sum() if weighted else sel.sum())
