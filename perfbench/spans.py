"""In-memory span tracer that wraps routeflow's public functions from outside.

A traced function is replaced in the module that defines it and in every
``routeflow`` module that imported it by name, so calls made inside the
package (``batch_rollouts -> rollout``, ``_solve_one -> hgs_solve``) are
captured as well as the benchmark's own calls. Nothing in ``src/`` changes.

Each span records its name, start, end, parent span, op id, thread and the
thread-CPU seconds it used. Spans opened on a pool thread with no open span
of their own attach to the enclosing ``expert.solve_subproblems`` span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

POOL_SPAN = "expert.solve_subproblems"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of its interval that its
    children cover. Children on pool threads may overlap one another, so the
    covered part is the union of their intervals, clipped to the parent."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children.setdefault(parent.id, []).append((lo, hi))
    return {s.id: s.duration - _covered(children.get(s.id, [])) for s in spans}


class Tracer:
    """Install with ``install(targets)``, set ``op`` around each op, then
    ``uninstall()``. Spans stay in memory until ``write_jsonl``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self.tensors = 0  # Tensor nodes created since install
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._pool_parent: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        is_pool = name == POOL_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not tracer._main:
                parent = tracer._pool_parent
            else:
                parent = None
            with tracer._lock:
                span = Span(next(tracer._ids), name, parent, tracer.op, threading.get_ident())
            stack.append(span.id)
            if is_pool:
                outer_pool = tracer._pool_parent
                tracer._pool_parent = span.id
                proc0 = os.times()
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
                if is_pool:
                    proc1 = os.times()
                    tracer._pool_parent = outer_pool
                    span.attrs["proc_cpu"] = sum(proc1[:4]) - sum(proc0[:4])
                with tracer._lock:
                    tracer.spans.append(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, targets) -> None:
        """``targets``: (span name, module, attribute path, hook or None).

        A dotted attribute path (``Adam.step``) patches a class attribute.
        A plain function is patched in every loaded ``routeflow`` module that
        holds the same object under the same name.
        """
        for name, module, path, hook in targets:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hook)
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "routeflow" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

    def count_init(self, cls) -> None:
        """Count instances of ``cls`` created while installed."""
        original = cls.__init__
        tracer = self

        @functools.wraps(original)
        def counted(obj, *args, **kwargs):
            tracer.tensors += 1
            original(obj, *args, **kwargs)

        self._patch(cls, "__init__", counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: (s.start, s.id)):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "op": s.op,
                            "thread": s.thread,
                            "start": s.start - t0,
                            "end": s.end - t0,
                            "thread_cpu": s.cpu,
                            **{k: v for k, v in s.attrs.items() if isinstance(v, (int, float))},
                        }
                    )
                    + "\n"
                )
