"""Self time of nested, generator and interleaved spans (fake host clock)."""

import json

import pytest

from nlbench.tracer import COUNT, LEAF, SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    tracer = SpanTracer(clock=clock)
    tracer.enabled = True
    yield tracer
    tracer.uninstall()


def make_box(clock):
    class Box:
        def outer(self):
            clock.advance(1)
            self.inner()
            clock.advance(0.5)
            return "done"

        def inner(self):
            clock.advance(2)

        def probe(self):
            return 1

        def work(self, tag, steps):
            for step in steps:
                clock.advance(step)
                yield step
            return tag

        def delegate(self, tag):
            clock.advance(1)
            result = yield from self.work(tag, (2, 3))
            clock.advance(4)
            return result

        def catcher(self):
            try:
                yield "waiting"
            except KeyError:
                clock.advance(5)
                yield "caught"

    return Box


def test_nested_spans_split_self_time(clock, tracer):
    Box = make_box(clock)
    tracer.patch(Box, "outer", "a")
    tracer.patch(Box, "inner", "b")
    assert Box().outer() == "done"
    assert tracer.self_s["a"] == pytest.approx(1.5)
    assert tracer.self_s["b"] == pytest.approx(2.0)
    (inner, outer) = tracer.spans
    assert inner[1] == outer[0]  # inner's parent is outer's span id
    assert outer[1] == -1
    assert tracer.calls["a.outer"] == 1 and tracer.calls["b.inner"] == 1


def test_disabled_tracer_records_nothing(clock, tracer):
    Box = make_box(clock)
    tracer.patch(Box, "outer", "a")
    tracer.enabled = False
    Box().outer()
    assert not tracer.spans and not tracer.self_s and not tracer.calls


def test_leaf_and_count_wrappers(clock, tracer):
    Box = make_box(clock)
    tracer.patch(Box, "inner", "b", kind=LEAF)
    tracer.patch(Box, "probe", "b", "b.probes", kind=COUNT)
    box = Box()
    box.inner()
    box.probe()
    box.probe()
    assert tracer.self_s["b"] == pytest.approx(2.0)
    assert tracer.spans == []  # leaves are aggregated, not kept
    assert tracer.calls["b.inner"] == 1 and tracer.calls["b.probes"] == 2


def test_generator_timed_per_resumption_only(clock, tracer):
    Box = make_box(clock)
    tracer.patch(Box, "work", "g")
    box = Box()
    a, b = box.work("a", (1, 2, 3)), box.work("b", (1, 2, 3))
    assert [next(a), next(b)] == [1, 1]
    clock.advance(10)  # other work between resumptions: not the generator's
    assert [next(a), next(b), next(a), next(b)] == [2, 2, 3, 3]
    for gen, tag in ((a, "a"), (b, "b")):
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == tag
    assert tracer.self_s["g"] == pytest.approx(12.0)
    assert tracer.calls["g.work"] == 2
    assert len(tracer.spans) == 8  # four resumptions each
    assert [inv[0] for inv in tracer.invocations] == ["g.work", "g.work"]


def test_interleaved_generators_nest_on_the_host_stack(clock, tracer):
    Box = make_box(clock)
    results = []
    tracer.patch(Box, "work", "g", after=lambda t, args, value: results.append(value))
    tracer.patch(Box, "delegate", "d")
    box = Box()
    first, second = box.delegate("x"), box.delegate("y")
    assert [first.send(None), second.send(None)] == [2, 2]
    clock.advance(7)  # the driving loop's own time
    assert [first.send(None), second.send(None)] == [3, 3]
    for gen, tag in ((first, "x"), (second, "y")):
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        assert stop.value.value == tag
    # delegate: 1 + 4 own per invocation; work: 2 + 3 per invocation.
    assert tracer.self_s["d"] == pytest.approx(10.0)
    assert tracer.self_s["g"] == pytest.approx(10.0)
    assert results == ["x", "y"]
    assert not tracer.stack
    by_id = {span[0]: span for span in tracer.spans}
    for span in tracer.spans:
        if span[3] == "g":
            assert by_id[span[1]][3] == "d"


def test_throw_is_a_timed_resumption(clock, tracer):
    Box = make_box(clock)
    tracer.patch(Box, "catcher", "c")
    gen = Box().catcher()
    assert next(gen) == "waiting"
    assert gen.throw(KeyError("k")) == "caught"
    gen.close()
    assert tracer.self_s["c"] == pytest.approx(5.0)


def test_self_times_partition_the_root_span(clock, tracer):
    Box = make_box(clock)
    tracer.patch(Box, "outer", "a")
    tracer.patch(Box, "inner", "b")
    tracer.patch(Box, "delegate", "d")
    tracer.patch(Box, "work", "g")

    def root():
        clock.advance(0.25)
        box = Box()
        box.outer()
        gen = box.delegate("z")
        while True:
            try:
                next(gen)
            except StopIteration:
                break
            clock.advance(1)

    class Root:
        run = staticmethod(root)

    tracer.patch(Root, "run", "root")
    start = clock()
    Root.run()
    total = clock() - start
    assert sum(tracer.self_s.values()) == pytest.approx(total)
    assert tracer.self_s["root"] == pytest.approx(0.25 + 2)


def test_patch_delta_counts_attribute_growth(clock, tracer):
    class Counter:
        hits = 0

        def bump(self, n):
            self.hits += n

    tracer.patch_delta(Counter, "bump", {"hits": "hits"})
    counter = Counter()
    counter.bump(3)
    counter.bump(4)
    assert tracer.calls["hits"] == 7


def test_uninstall_restores_originals(clock, tracer):
    Box = make_box(clock)
    original = Box.__dict__["outer"]
    tracer.patch(Box, "outer", "a")
    tracer.patch_class(Box, "all", skip=("outer",))
    assert Box.__dict__["outer"] is not original
    tracer.uninstall()
    assert Box.__dict__["outer"] is original
    assert Box.__dict__["work"].__name__ == "work"


def test_chrome_trace_has_host_and_sim_tracks(clock, tracer):
    Box = make_box(clock)
    tracer.patch(Box, "outer", "a")
    tracer.patch(Box, "work", "g")

    class Engine:
        now = 100
        _active_process = None

    tracer.engine = Engine()
    box = Box()
    box.outer()
    gen = box.work("t", (1,))
    next(gen)
    Engine.now = 250
    with pytest.raises(StopIteration):
        next(gen)
    trace = json.loads(json.dumps(tracer.chrome_trace({"workload": "unit"})))
    events = trace["traceEvents"]
    host = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
    sim = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
    assert {e["name"] for e in host} == {"a.outer", "g.work"}
    assert sim == [{"ph": "X", "pid": 2, "tid": 1, "name": "g.work", "cat": "g",
                    "ts": 100, "dur": 150}]
    assert trace["otherData"]["workload"] == "unit"
    assert all(e["dur"] >= 0 for e in host)
