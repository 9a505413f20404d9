"""Spans around the calls between nmfcluster's modules, recorded from outside.

``Tracer.install()`` replaces, in each module of the package, every name
that refers to a public function of the package (its own or one it
imported) with a wrapper that records a span, and ``uninstall()`` puts the
originals back.  A call is therefore traced under the name the calling
module uses for it, and nothing under ``src/`` changes.  The benchmark
calls the package through its modules (``solvers.nmf_anls``), so its own
calls are traced the same way.

A span is (name, start, end, parent, thread): parent is the span that was
open on the same thread when it began, so a span's self time is its
duration minus the durations of its children.  Spans stay in memory, in
per-thread buffers, until ``spans()`` gathers them.  While ``enabled`` is
false the wrappers call straight through, so the benchmark's own checks,
which use the package too, leave no spans.
"""

import importlib
import itertools
import threading
import time
import types
from array import array
from os.path import getsize

import numpy as np

import nmfcluster

CALLER_MODULES = ("affinity", "baselines", "cli", "core", "data_io",
                  "experiment", "metrics", "solvers")

# penalty_value is called only by the solvers' per-iteration trace record,
# which the mu_loop.other_s metric is meant to cover; _sweep_cell is private
# but its span is the one unit of work a sweep's thread pool runs; cli.main
# is the console script, which the package does not export.
SKIPPED = {"penalty_value"}
EXTRA = {"experiment": ("_sweep_cell",), "cli": ("main",)}


def _columns(data, *_args, **_kwargs):
    return int(np.shape(data)[1])


def _rows(data, *_args, **_kwargs):
    return int(np.shape(data)[0])


def _file_bytes(path, *_args, **_kwargs):
    return getsize(path)


def _out_bytes(argv):
    return getsize(argv[argv.index("--out") + 1]) if "--out" in argv else 0


# work counted per span: NNLS solves per ANLS half-step, MatrixMarket bytes,
# the bytes of the report an nmf-cluster command wrote and, for a sweep
# cell, the nanoseconds of CPU its thread spent on it
THREAD_CPU = {"experiment.sweep_cell"}
COUNTERS = {
    "solvers.anls_coefficient_step": _columns,
    "solvers.anls_basis_step": _rows,
    "data_io.read_matrix_market": _file_bytes,
    "data_io.write_matrix_market": _file_bytes,
    "cli.main": _out_bytes,
}


def public_functions():
    """Map each public function object of the package to its span name."""
    names = {}
    for export in dir(nmfcluster):
        fn = getattr(nmfcluster, export)
        if isinstance(fn, types.FunctionType) and export not in SKIPPED:
            names[fn] = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    for module, attrs in EXTRA.items():
        for attr in attrs:
            fn = getattr(importlib.import_module(f"nmfcluster.{module}"), attr)
            names[fn] = f"{module}.{attr.lstrip('_')}"
    return names


class _Buffer:
    def __init__(self, thread):
        self.thread = thread
        self.seq = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")


class Tracer:
    def __init__(self):
        self._names = []
        self._name_ids = {}
        self._seq = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._patched = []
        self.enabled = True

    def _buffer(self):
        local = self._local
        if not hasattr(local, "buf"):
            local.buf = _Buffer(len(self._buffers))
            local.stack = [-1]
            self._buffers.append(local.buf)
        return local

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        cpu = time.thread_time_ns if name in THREAD_CPU else None
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._buffer()
            stack = local.stack
            seq = next(tracer._seq)
            parent = stack[-1]
            stack.append(seq)
            returned = False
            cpu_start = cpu() if cpu else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                buf = local.buf
                buf.seq.append(seq)
                buf.parent.append(parent)
                buf.name.append(name_id)
                buf.start.append(start)
                buf.end.append(end)
                if cpu:
                    count = cpu() - cpu_start
                else:
                    count = counter(*args, **kwargs) if returned and counter else 0
                buf.count.append(count)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every package-function name in every module of the package."""
        names = public_functions()
        for short in CALLER_MODULES:
            module = importlib.import_module(f"nmfcluster.{short}")
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in names:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self.wrap(value, names[value]))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def spans(self):
        """All closed spans as numpy columns, ordered by their start."""
        cols = {key: [] for key in
                ("seq", "parent", "name", "start", "end", "count", "thread")}
        for buf in self._buffers or [_Buffer(0)]:
            for key in ("seq", "parent", "name", "start", "end", "count"):
                cols[key].append(np.array(getattr(buf, key)))
            cols["thread"].append(np.full(len(buf.seq), buf.thread))
        out = {key: np.concatenate(v) for key, v in cols.items()}
        order = np.argsort(out["start"], kind="stable")
        return {key: v[order] for key, v in out.items()}

    def names(self):
        return list(self._names)


def span_table(spans, names):
    """Per span name: calls, total seconds, self seconds and summed count."""
    seq = spans["seq"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    position = np.full(int(seq.max(initial=0)) + 1, -1)
    position[seq] = np.arange(seq.size)
    child = np.zeros(dur.size)
    nested = np.flatnonzero(parent >= 0)
    np.add.at(child, position[parent[nested]], dur[nested])
    own = dur - child
    table = {}
    for name_id, name in enumerate(names):
        mask = spans["name"] == name_id
        table[name] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(own[mask].sum()),
            "count": int(spans["count"][mask].sum()),
        }
    return table
