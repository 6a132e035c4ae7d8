"""Tests for event cancellation semantics."""

import pytest

from repro.sim import Engine, SimulationError


def test_cancelled_timer_never_fires():
    eng = Engine()
    fired = []
    timer = eng.timeout(100)
    timer.callbacks.append(lambda _ev: fired.append(eng.now))
    timer.cancel()
    eng.run()
    assert fired == []


def test_cancelled_timer_does_not_advance_clock():
    eng = Engine()
    eng.timeout(1_000_000).cancel()
    short = eng.timeout(10)
    fired = []
    short.callbacks.append(lambda _ev: fired.append(eng.now))
    eng.run()
    assert fired == [10]
    assert eng.now == 10  # not dragged out to the cancelled timer


def test_peek_skips_cancelled_events():
    eng = Engine()
    eng.timeout(5).cancel()
    eng.timeout(50)
    assert eng.peek() == 50


def test_run_until_event_ignores_cancelled_noise():
    eng = Engine()

    def proc():
        yield eng.timeout(20)
        return "done"

    for _ in range(5):
        eng.timeout(1).cancel()
    p = eng.process(proc())
    assert eng.run(until=p) == "done"


def test_step_on_only_cancelled_heap_raises():
    eng = Engine()
    eng.timeout(5).cancel()
    with pytest.raises(SimulationError):
        eng.step()


def test_cancel_then_run_empty():
    eng = Engine()
    eng.timeout(5).cancel()
    eng.run()  # no-op, no crash
    assert eng.now == 0


def test_run_until_deadline_skips_cancelled_on_both_sides():
    eng = Engine()
    fired = []

    def timer(delay, cancel):
        ev = eng.timeout(delay)
        ev.callbacks.append(lambda _ev: fired.append((delay, eng.now)))
        if cancel:
            ev.cancel()
        return ev

    timer(10, cancel=True)
    timer(20, cancel=False)
    timer(30, cancel=True)
    timer(40, cancel=True)  # past the deadline
    later = timer(60, cancel=False)
    eng.run(until=50)
    assert fired == [(20, 20)]
    assert eng.now == 50
    assert eng.peek() == 60 and not later.processed
    eng.run(until=70)
    assert fired == [(20, 20), (60, 60)]
    assert eng.now == 70


def test_run_until_deadline_leaves_later_events_in_order():
    eng = Engine()
    order = []
    for delay in (5, 25, 15, 25, 35):
        ev = eng.timeout(delay)
        ev.callbacks.append(lambda _ev, d=delay: order.append(d))
    eng.run(until=20)
    assert order == [5, 15] and eng.now == 20
    eng.run()
    assert order == [5, 15, 25, 25, 35] and eng.now == 35
