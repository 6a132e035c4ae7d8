"""Core discrete-event simulation engine.

The engine is a classic event-heap design: a priority queue of
``(time, priority, sequence, Event)`` entries.  Simulation *processes* are
Python generators that ``yield`` :class:`Event` objects; the engine resumes a
process when the event it waits on triggers.  The design follows SimPy's
proven coroutine protocol but is intentionally smaller: no real-time mixing,
no environment subclassing, integer-microsecond time only.

Determinism guarantees
----------------------

* Events scheduled for the same timestamp fire in schedule order (a global
  monotonically increasing sequence number breaks ties).
* No wall-clock or OS entropy is consulted anywhere; randomness comes from
  :class:`repro.sim.rng.RngRegistry` streams seeded by the experiment.

These two properties make every experiment in this repository exactly
replayable from its seed, which the fault-injection campaign (50 seeded runs
per benchmark, paper §VII-A) relies on.

Schedule-independence checking
------------------------------

The insertion-order tie-break is a *default*, not something protocol code
may rely on.  Two hooks make that a checked property (see ``docs/races.md``):

* :meth:`Engine.set_tiebreak` installs a policy that deterministically
  permutes the order of same-timestamp events scheduled from *different*
  contexts (a context is one callback invocation; events scheduled by the
  same context keep their relative order, which preserves per-sender FIFO).
  The schedule fuzzer replays workloads under such permutations and diffs
  their digests.
* An installed :class:`repro.analysis.races.RaceDetector` (via
  ``engine._race_detector``) receives happens-before bookkeeping callbacks:
  every event captures the vector clock of the context that triggered it,
  and every process joins the clock of the event that resumed it.  All
  hooks are a single attribute check when no detector is installed.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

# Priorities for same-timestamp ordering.  URGENT is used internally for
# process resumption bookkeeping so that e.g. an interrupt scheduled "now"
# lands before ordinary events scheduled "now".
URGENT = 0
NORMAL = 1

#: The deadline of run-to-drain: later than any timestamp a run reaches.
_FOREVER = 1 << 62


class SimulationError(Exception):
    """Raised for misuse of the engine (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; ``cause`` carries an
    arbitrary payload describing why the interrupt happened (e.g. a fault
    injector signalling a host crash).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it becomes *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, at which point it is scheduled on the
    engine heap and its callbacks run at the current simulation time.  After
    the callbacks run the event is *processed*.
    """

    __slots__ = (
        "engine",
        "callbacks",
        "_value",
        "_ok",
        "_scheduled",
        "_defused",
        "_cancelled",
        "_vc",
    )

    #: Sentinel for "not yet triggered".
    PENDING = object()

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = Event.PENDING
        self._ok: bool = True
        self._scheduled = False
        self._defused = False
        self._cancelled = False
        # Vector clock of the context that scheduled this event; set by the
        # race detector (when installed) at _schedule() time, else stays None.
        self._vc: Any = None

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event.PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not Event.PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.engine._schedule(self, NORMAL, 0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see *exception* raised."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not Event.PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.engine._schedule(self, NORMAL, 0)
        return self

    def cancel(self) -> None:
        """Void a scheduled event: its callbacks never run and it does not
        advance the clock when popped.  Used for timers that lose their
        purpose (e.g. a TCP retransmission timer once the data is acked) —
        without cancellation, dangling timers would drag run-to-completion
        simulations out to their expiry times.
        """
        self._cancelled = True

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the engine.

        A failed event with no waiting process would otherwise surface its
        exception out of :meth:`Engine.step` — silently dropping failures is
        a debugging nightmare the engine refuses to allow by default.
        """
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires *delay* microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(engine)
        self.delay = int(delay)
        self._ok = True
        self._value = value
        self.engine._schedule(self, NORMAL, self.delay)


class Initialize(Event):
    """Internal: kick-starts a freshly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, engine: "Engine", process: "Process") -> None:
        super().__init__(engine)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        self.engine._schedule(self, URGENT, 0)


class Process(Event):
    """A running simulation coroutine.

    Wraps a generator that yields :class:`Event` instances.  The process is
    itself an event that triggers when the generator returns (successfully,
    with the generator's return value) or raises (failed, with the
    exception).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self, engine: "Engine", generator: Generator[Any, Any, Any], name: str = ""
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(engine)
        self._generator = generator
        self._target: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        self._target = Initialize(engine, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        twice before it resumes queues both interrupts.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self.engine._active_process is self:
            raise SimulationError("process cannot interrupt itself")
        failure = Event(self.engine)
        failure._ok = False
        failure._value = Interrupt(cause)
        failure._defused = True
        failure.callbacks.append(self._deliver_interrupt)
        self.engine._schedule(failure, URGENT, 0)

    def _deliver_interrupt(self, failure: Event) -> None:
        """Deliver a queued interrupt, detaching from the current target.

        Delivery is deferred to the interrupt event's own firing so that a
        process interrupted twice in one instant, or one that finished in
        the meantime, is handled correctly: a dead process swallows the
        interrupt, and the wait-target callback is unregistered exactly once
        per delivery.
        """
        if not self.is_alive:
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._resume(failure)

    # -- engine plumbing --------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome."""
        self.engine._active_process = self
        detector = self.engine._race_detector
        if detector is not None:
            detector.on_resume(self, event)
        profiler = self.engine._profiler
        if profiler is not None:
            profiler.on_resume(self)
        schedule = self.engine._schedule
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    # The event failed; propagate into the coroutine.
                    event._defused = True
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                schedule(self, NORMAL, 0)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                schedule(self, NORMAL, 0)
                break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {next_target!r}"
                )
                # Deliver the misuse as a crash of this process.
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:  # pragma: no cover - unusual
                    self._ok = True
                    self._value = stop.value
                except BaseException as exc2:
                    self._ok = False
                    self._value = exc2
                schedule(self, NORMAL, 0)
                break

            if next_target.callbacks is None:
                # Already processed: resume immediately with its value.
                event = next_target
                if detector is not None:
                    # The process still happens-after the consumed event.
                    detector.on_consume(self, event)
                if not event._ok:
                    event._defused = True
                continue
            next_target.callbacks.append(self._resume)
            self._target = next_target
            break
        self.engine._active_process = None
        if detector is not None:
            detector.on_resume_end(self)


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_n_done")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events: tuple[Event, ...] = tuple(events)
        self._n_done = 0
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("condition mixes events from different engines")
        # Register after validation so a raise leaves no dangling callbacks.
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _note_clock(self, event: Event) -> None:
        """Fold *event*'s causal clock into the pending condition clock.

        Without this, the condition event would only happen-after the
        constituent whose firing finally triggered it; the waiter must
        happen-after *every* constituent folded in so far.
        """
        detector = self.engine._race_detector
        if detector is not None:
            detector.on_condition_join(self, event)

    def _collect(self) -> dict[Event, Any]:
        # Use ``processed`` (callbacks ran) rather than ``triggered``:
        # Timeout pre-sets its value at construction, so ``triggered`` would
        # wrongly report not-yet-fired timeouts as done.
        return {ev: ev._value for ev in self.events if ev.processed}


class AnyOf(_Condition):
    """Triggers when any constituent event triggers.

    Value is a dict of the constituent events that had triggered by then,
    mapped to their values.  A failed constituent fails the condition.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        self._note_clock(event)
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, events)
        if not self.events and not self.triggered:
            self.succeed({})

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        self._note_clock(event)
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())


class Engine:
    """The simulation clock and event loop."""

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: list[tuple[int, int, int, int, Event]] = []
        self._seq: int = 0
        self._active_process: Process | None = None
        # Monotonic id of the current callback context.  Incremented before
        # every callback invocation in step(); events scheduled by the same
        # callback share a context and keep their relative (FIFO) order even
        # under tie-break permutation.
        self._ctx_serial: int = 0
        # Same-timestamp tie-break policy (None = insertion order).  Must
        # expose ``key(ctx_serial) -> int``; the key slots between priority
        # and the insertion sequence in heap entries.
        self._tiebreak: Any = None
        # Happens-before race detector (repro.analysis.races.RaceDetector)
        # or None.  All hook sites cost one attribute check when None.
        self._race_detector: Any = None
        # Deterministic work profiler (repro.sim.profiler.SimProfiler) or
        # None; same one-attribute-check contract as the race detector.
        self._profiler: Any = None
        #: Lifetime count of events dispatched (always on: the perf bench
        #: derives events/sec from it without profiler overhead).
        self.n_dispatched: int = 0

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in integer microseconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- event construction --------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Register *generator* as a new simulation process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def set_tiebreak(self, policy: Any) -> None:
        """Install (or clear, with None) a same-timestamp tie-break policy.

        *policy* must expose ``key(ctx_serial: int) -> int``.  The key is
        computed per scheduling context, so events scheduled by one callback
        keep their mutual order; only the interleaving *between* contexts is
        permuted.  Priorities (URGENT before NORMAL) are always preserved.
        Affects only events scheduled after the call.
        """
        self._tiebreak = policy

    def _schedule(self, event: Event, priority: int, delay: int) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        self._seq += 1
        tiebreak = self._tiebreak
        key = 0 if tiebreak is None else tiebreak.key(self._ctx_serial)
        heapq.heappush(self._heap, (self._now + delay, priority, key, self._seq, event))
        detector = self._race_detector
        if detector is not None:
            detector.on_scheduled(event)
        profiler = self._profiler
        if profiler is not None:
            profiler.on_scheduled(event)

    def peek(self) -> int | None:
        """Timestamp of the next live event, or None if idle.

        Cancelled events at the head of the heap are discarded here so they
        neither advance the clock nor stall ``run(until=...)``.
        """
        while self._heap and self._heap[0][4]._cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        """Process one event off the heap (skipping cancelled ones)."""
        if self.peek() is None:
            raise SimulationError("step() on an empty event heap")
        when, _prio, _key, _seq, event = heapq.heappop(self._heap)
        self._dispatch(when, event)

    def _dispatch(self, when: int, event: Event) -> None:
        """Advance the clock to *when* and run *event*'s callbacks.

        The single dispatch body shared by :meth:`step` and every
        :meth:`run` loop, so ordering semantics (context serials, detector
        hooks, failure surfacing) cannot drift between entry points.
        """
        if when < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("event heap went backwards in time")
        self._now = when
        self.n_dispatched += 1
        detector = self._race_detector
        profiler = self._profiler
        if profiler is not None:
            profiler.on_event(event)
        if detector is not None:
            detector.on_event_begin(event)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            self._ctx_serial += 1
            callback(event)
        if detector is not None:
            detector.on_event_end(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it rather than losing it.
            raise event._value

    def run(self, until: int | Event | None = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the heap drains.
        * ``until=<int>`` — run until simulated time reaches that timestamp.
        * ``until=<Event>`` — run until the event is processed; returns its
          value (raising if it failed).
        """
        if isinstance(until, Event):
            sentinel = until
            while not sentinel.processed:
                next_at = self.peek()
                if next_at is None:
                    raise SimulationError(
                        "event heap drained before the awaited event triggered"
                    )
                _when, _prio, _key, _seq, event = heapq.heappop(self._heap)
                self._dispatch(next_at, event)
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value

        if until is None:
            deadline = _FOREVER
        else:
            deadline = int(until)
            if deadline < self._now:
                raise SimulationError(f"run(until={deadline}) is in the past")
        # The hot loop shared by run-to-drain and run-to-deadline: one
        # heappop per heap entry, with the heap, heappop and dispatch bound
        # to locals (the PERF004 fix measured in BENCH_engine.json; a
        # peek()+step() loop scans the head twice per event).  Cancelled
        # entries are discarded as they reach the head, so they neither
        # dispatch nor move the clock; the first live entry past the
        # deadline goes back on the heap unchanged.
        heap = self._heap
        pop = heapq.heappop
        dispatch = self._dispatch
        while heap:
            when, prio, key, seq, event = pop(heap)
            if event._cancelled:
                continue
            if when > deadline:
                heapq.heappush(heap, (when, prio, key, seq, event))
                break
            dispatch(when, event)
        if until is not None:
            self._now = deadline
        return None
