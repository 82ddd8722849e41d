"""Span tracer that wraps wearmap's functions from outside the program.

Each target is replaced where it is called (the module global, class
attribute or dispatch-table entry that the caller looks up at call time), so
the program itself carries no instrumentation. Spans go into flat in-memory
arrays with a parent link and are written out once the command has finished.
A layer's self time is its span's duration minus its child spans and minus
the counting hooks run directly inside it.

A target that no longer exists is skipped and its metrics are reported as
missing; a counting hook that fails is switched off and its counters are
reported as missing, so a refactor of the program never crashes the run.
"""

from __future__ import annotations

import sys
import traceback
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _label(owner, attr: str) -> str:
    if isinstance(owner, dict):
        return f"<table>[{attr!r}]"
    return f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.hook_s = array("d")  # hook time spent directly inside each span
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []  # targets or hooks that are not measured
        self.missing_metrics: set[str] = set()
        self._broken: set[str] = set()  # hooks switched off after a failure

    def _hook(self, label: str, counters: tuple[str, ...], fn, *args) -> None:
        if label in self._broken:
            return
        t0 = perf_counter()
        try:
            fn(*args)
        except Exception:  # a hook must never take the traced command down
            self._broken.add(label)
            self.missing.append(label)
            self.missing_metrics.update(counters)
            print(f"trace hook on {label} failed; its counters are missing:\n"
                  f"{traceback.format_exc()}", file=sys.stderr, flush=True)
        parent = self._stack[-1]
        if parent >= 0:
            self.hook_s[parent] += perf_counter() - t0

    def wrap(self, owner, attr: str, span: str, before=None, after=None,
             counters: tuple[str, ...] = ()) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a spanned wrapper.

        before(args, kwargs) runs ahead of the call and after(args, kwargs,
        result) once it returns; both feed the named counters.
        """
        label = _label(owner, attr)
        is_table = isinstance(owner, dict)
        fn = owner.get(attr) if is_table else getattr(owner, attr, None)
        if fn is None:
            self.missing.append(label)
            self.missing_metrics.update((f"{span}_s", f"{span}_calls", *counters))
            return
        for c in counters:
            self.counts.setdefault(c, 0)
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, hooks = self.start, self.end, self.hook_s

        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(label, counters, before, args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            hooks.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                self._hook(label, counters, after, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        if is_table:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Per span name S: S_s (total self seconds) and S_calls; plus counters."""
        out: dict[str, float] = {}
        k = len(self.names)
        if len(self.start):
            dur = np.asarray(self.end) - np.asarray(self.start)
            parent = np.asarray(self.parent)
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
            own = dur - child - np.asarray(self.hook_s)
            name = np.asarray(self.name)
            totals = np.bincount(name, weights=own, minlength=k)
            calls = np.bincount(name, minlength=k)
        else:
            totals, calls = np.zeros(k), np.zeros(k, dtype=np.int64)
        for j, span in enumerate(self.names):
            out[f"{span}_s"] = float(totals[j])
            out[f"{span}_calls"] = int(calls[j])
        out.update(self.counts)
        for metric in self.missing_metrics:
            out.pop(metric, None)
        return out

    def dump(self, path) -> None:
        """Write every span (name id, parent index, start, end) and the name table."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))
