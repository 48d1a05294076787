"""Span tracing installed from outside the program.

`Tracer.install()` replaces every public function of the traced modules,
and the few methods in METHODS, with a wrapper that records one span per
call: (name, start, end, parent, job id).  The wrapper goes in at every
import site: each attribute of every loaded `entrokit` module that holds
the original object is rebound, so a module that imported a function by
name (`quantizer.forward`) and one that reaches it through a module
attribute (`chains.fno_mod.forward`) both record.  `Tracer.remove()` puts
every original back.

Spans are kept in flat arrays while tracing and reduced at the end.  A
span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "chains", "metricspace", "packing", "randomfield", "fno",
          "quantizer")
PACKAGE = "entrokit"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    dur = ends - starts
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return dur - child


# methods traced besides every public module-level function
METHODS = ("chains.ResultTable.to_csv_bytes", "packing.BumpFamily.verify",
           "packing.HatFamily.verify",
           "randomfield.GridFunction01.quadrature_abs_pow")


def _targets(modules):
    """(owner, attribute, span name) for every public function defined in
    the given modules and for each method in METHODS."""
    found = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in sorted(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found.append((mod, name, f"{short}.{name}"))
    by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for span in METHODS:
        short, cls, method = span.split(".")
        found.append((getattr(by_short[short], cls), method, span))
    return found


class Tracer:
    """Records spans and per-span counters while installed.

    `hooks` maps a span name to `fn(args, kwargs, result) -> {counter:
    increment}`; the counters are summed per span name.  A hook may keep
    in `seen` the values it observed this pass, each with the ids of the
    jobs that passed it.  Exceptions that leave a wrapped call are counted
    per layer.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list = []
        self._name_ids: dict = {}
        self._installed: list = []
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs = array("i")
        self.counters = defaultdict(float)
        self.errors = defaultdict(int)
        self.seen = defaultdict(set)
        self.job_id = -1
        self._stack: list = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span from the benchmark's own code."""
        return _Span(self, self._name_id(name))

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def _wrap(self, func, name: str):
        name_id = self._name_id(name)
        layer = layer_of(name)
        hook = self.hooks.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    tracer.counters[f"{name}.{key}"] += amount
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        layer_modules = [sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS]
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        targets = _targets(layer_modules)
        originals = {}
        for owner, attr, name in targets:
            func = vars(owner)[attr]
            if id(func) not in originals:
                originals[id(func)] = (func, self._wrap(func, name))
        classes = {id(o): o for o, _, _ in targets if inspect.isclass(o)}
        for owner in loaded + list(classes.values()):
            for attr, value in list(vars(owner).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self seconds; per layer: self seconds."""
        ids = np.array(self.name_ids, dtype=np.int64)
        selfs = self_times(self.starts, self.ends, self.parents)
        per_name = np.bincount(ids, weights=selfs, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        by_name = {n: {"calls": int(calls[i]), "self_s": float(per_name[i])}
                   for i, n in enumerate(self.names) if calls[i]}
        by_layer = defaultdict(float)
        for n, rec in by_name.items():
            by_layer[layer_of(n)] += rec["self_s"]
        return {"spans": len(self.starts), "by_name": by_name,
                "by_layer": dict(by_layer), "counters": dict(self.counters),
                "errors": dict(self.errors)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.asarray(self.name_ids), start=np.asarray(self.starts),
                 end=np.asarray(self.ends), parent=np.asarray(self.parents),
                 job=np.asarray(self.jobs))


class _Span:
    __slots__ = ("tracer", "name_id", "idx")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.idx)
        if exc_type is not None:
            self.tracer.errors[layer_of(self.tracer.names[self.name_id])] += 1
        return False
