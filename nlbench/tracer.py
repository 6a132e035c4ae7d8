"""Span tracer that wraps program entry points from outside the program.

:class:`SpanTracer` patches functions and methods in place (and puts the
originals back on :meth:`SpanTracer.uninstall`).  Every wrapped call
becomes a span on a host call stack of open spans, so a span's *self
time* is its duration minus the part its children cover:

* plain functions are timed per call;
* generator functions (simulated processes and the ``yield from``
  sub-steps they delegate to) are timed per resumption — each
  ``send``/``throw`` is one span, and host time between resumptions,
  while other simulated processes run, is never charged to them.

Because a resumption runs to its next ``yield`` before anything else
does, spans of interleaved generators still nest on the host stack.

Three kinds of wrapper trade detail for cost: ``span`` keeps a span
record (at most ``MAX_SPANS``) for the trace export, ``leaf``
accumulates time and calls only (for per-page hot paths), ``count``
counts calls without timing.  Spans stay in memory; :meth:`chrome_trace`
renders them as Chrome trace-event JSON with a host-time track and a
sim-time track.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["SpanTracer"]

SPAN, LEAF, COUNT = "span", "leaf", "count"
#: Span records kept for the trace export; later ones are counted as dropped.
MAX_SPANS = 200_000


class _TracedGenerator:
    """Generator proxy that times each resumption of *gen* as a span."""

    __slots__ = ("_gen", "_resume", "args", "sim_start", "sim_end", "group")

    def __init__(self, gen, resume, args: tuple) -> None:
        self._gen = gen
        self._resume = resume
        self.args = args
        self.sim_start: int | None = None
        self.sim_end: int | None = None
        self.group = ""

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self, self._gen.send, None)

    def send(self, value):
        return self._resume(self, self._gen.send, value)

    def throw(self, *args):
        return self._resume(self, self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class SpanTracer:
    """Host-time spans and call counts for wrapped program entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Wrappers record only while enabled (the measured window).
        self.enabled = False
        #: Simulation engine, for span sim time and process (group) names.
        self.engine: Any = None
        #: Open spans, innermost last: ``[child_seconds, span_id]``.
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Host spans: (id, parent, name, layer, t0, t1, sim_us, group).
        self.spans: list[tuple] = []
        #: Generator invocations: (name, layer, sim_start, sim_end, group).
        self.invocations: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------
    def _where(self) -> tuple[int | None, str]:
        engine = self.engine
        if engine is None:
            return None, ""
        process = engine._active_process
        return engine.now, process.name if process is not None else ""

    def _close(self, frame: list, layer: str, name: str, record: bool,
               t0: float, parent: int) -> None:
        t1 = self.clock()
        duration = t1 - t0
        self.self_s[layer] += duration - frame[0]
        stack = self.stack
        if stack:
            stack[-1][0] += duration
        if record:
            if len(self.spans) < MAX_SPANS:
                sim_us, group = self._where()
                self.spans.append((frame[1], parent, name, layer, t0, t1, sim_us, group))
            else:
                self.dropped += 1

    def _open(self) -> tuple[list, int]:
        stack = self.stack
        parent = stack[-1][1] if stack else -1
        self._next_id += 1
        frame = [0.0, self._next_id]
        stack.append(frame)
        return frame, parent

    # -- wrappers -----------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable, kind: str = SPAN,
             after: Callable[..., None] | None = None) -> Callable:
        """Return a traced version of *fn*.  *after(tracer, args, result)*
        runs after each call (for generators: once the generator finishes,
        with its return value)."""
        tracer = self
        calls = self.calls
        if kind == COUNT:
            def counted(*args, **kwargs):
                if tracer.enabled:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        record = kind == SPAN
        clock = self.clock

        if inspect.isgeneratorfunction(fn):
            def resume(proxy, method, *args):
                if not tracer.enabled:
                    return method(*args)
                frame, parent = tracer._open()
                t0 = clock()
                if proxy.sim_start is None:
                    proxy.sim_start, proxy.group = tracer._where()
                try:
                    return method(*args)
                except StopIteration as stop:
                    proxy.sim_end = tracer.engine.now if tracer.engine else None
                    tracer.invocations.append(
                        (name, layer, proxy.sim_start, proxy.sim_end, proxy.group))
                    if after is not None:
                        after(tracer, proxy.args, stop.value)
                    raise
                finally:
                    tracer.stack.pop()
                    tracer._close(frame, layer, name, record, t0, parent)

            def generator_wrapper(*args, **kwargs):
                if tracer.enabled:
                    calls[name] += 1
                return _TracedGenerator(fn(*args, **kwargs), resume, args)
            return generator_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame, parent = tracer._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer._close(frame, layer, name, record, t0, parent)
            calls[name] += 1
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper

    def patch(self, owner: Any, attr: str, layer: str, name: str | None = None,
              kind: str = SPAN, after: Callable[..., None] | None = None) -> None:
        """Replace ``owner.attr`` (a class or module) by its traced version."""
        original = owner.__dict__[attr]
        label = name or f"{layer}.{attr}"
        setattr(owner, attr, self.wrap(layer, label, original, kind, after))
        self._patches.append((owner, attr, original))

    def patch_delta(self, owner: type, attr: str, counters: dict[str, str]) -> None:
        """Add to ``calls[name]`` how much each call of ``owner.attr``
        raised the instance's integer attribute, for ``name -> attribute``
        in *counters* (reads public counters where they are kept)."""
        fn = owner.__dict__[attr]
        tracer = self
        calls = self.calls
        items = tuple(counters.items())

        def delta(obj, *args, **kwargs):
            if not tracer.enabled:
                return fn(obj, *args, **kwargs)
            before = [getattr(obj, a) for _, a in items]
            try:
                return fn(obj, *args, **kwargs)
            finally:
                for (name, a), b in zip(items, before):
                    calls[name] += getattr(obj, a) - b

        setattr(owner, attr, delta)
        self._patches.append((owner, attr, fn))

    def patch_class(self, cls: type, layer: str, kind: str = SPAN,
                    skip: tuple[str, ...] = ()) -> None:
        """Wrap every plain method defined on *cls* itself (no dunders,
        nothing in *skip*)."""
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") or attr in skip or not inspect.isfunction(value):
                continue
            self.patch(cls, attr, layer, f"{layer}.{cls.__name__}.{attr}", kind)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export -------------------------------------------------------------
    def chrome_trace(self, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
        """Chrome trace-event JSON: pid 1 is host time (nested spans, one
        thread), pid 2 is sim time (one thread per simulated process,
        one span per generator invocation from first to last resumption)."""
        events: list[dict[str, Any]] = [
            {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "host time"}},
            {"ph": "M", "pid": 2, "name": "process_name", "args": {"name": "sim time"}},
        ]
        base = self.spans[0][4] if self.spans else 0.0
        for span_id, parent, name, layer, t0, t1, sim_us, group in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": name, "cat": layer,
                "ts": round((t0 - base) * 1e6, 3), "dur": round((t1 - t0) * 1e6, 3),
                "args": {"id": span_id, "parent": parent, "sim_us": sim_us,
                         "group": group},
            })
        tids: dict[str, int] = {}
        for name, layer, sim_start, sim_end, group in self.invocations:
            if sim_start is None:
                continue
            tid = tids.setdefault(group, len(tids) + 1)
            events.append({
                "ph": "X", "pid": 2, "tid": tid, "name": name, "cat": layer,
                "ts": sim_start, "dur": (sim_end or sim_start) - sim_start,
            })
        for group, tid in tids.items():
            events.append({"ph": "M", "pid": 2, "tid": tid, "name": "thread_name",
                           "args": {"name": group or "engine"}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(metadata or {}, spans_dropped=self.dropped)}
