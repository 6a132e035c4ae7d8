"""The four benchmark workloads, driven through the simulator's public API.

Each workload is a :class:`Session` with three phases:

* :meth:`Session.setup` builds a fresh world, deploys, warms up and runs
  until the primary has committed its first epoch (timed as ``setup_s``);
* :meth:`Session.run_window` runs the fixed simulated measurement window
  in equal slices, timing each (for ``sim_s_per_host_s``);
* :meth:`Session.finish` drains what the window left in flight (untimed),
  runs the oracles and returns an :class:`Outcome`.

The seed is the only input: it seeds the world's RNG streams and derives
a small input variation per workload (batch size, dirty rate), so every
simulated metric differs slightly from seed to seed.  Same seed, same
inputs, same :attr:`Outcome.digest`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar

from repro.experiments.common import build_deployment
from repro.experiments.table3 import PAPER_TABLE3
from repro.fleet.controller import FleetController
from repro.fleet.pool import HostPool
from repro.fleet.service import FleetWorkload
from repro.fleet.spec import FleetSpec
from repro.metrics.collector import EpochRecord, RecoveryBreakdown
from repro.net.world import World, reset_id_counters
from repro.replication.config import NiliconConfig
from repro.sim.units import ms, sec
from repro.traffic.openloop import OpenLoopTraffic, TrafficProfile
from repro.traffic.proxy import TrafficProxy
from repro.workloads.base import ClientStats
from repro.workloads.catalog import make_workload

from nlbench.stats import sim_digest

__all__ = ["SCENARIOS", "Outcome", "Session", "derive"]


def derive(seed: int, label: str, lo: int, hi: int) -> int:
    """A seed-derived integer in ``[lo, hi]`` (CRC32, stable across runs)."""
    return lo + zlib.crc32(f"{label}:{seed}".encode()) % (hi - lo + 1)


@dataclass
class Outcome:
    """What one measured window produced (simulated quantities only)."""

    window_us: int
    events: int
    #: Client operations (KV ops, fleet requests) or work units completed
    #: inside the window.
    ops: int
    #: Operations attempted and failed, over the window plus its drain.
    attempted: int
    failures: list[str]
    epochs: list[EpochRecord]
    latencies_us: list[int] = field(default_factory=list)
    #: Open-loop latency percentiles (fleet): p -> us.
    latency_pcts_us: dict[float, int] = field(default_factory=dict)
    latency_samples: int = 0
    recovery: RecoveryBreakdown | None = None
    #: Per-layer counters read from public program state.
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        recovery = None
        if self.recovery is not None:
            r = self.recovery
            recovery = (r.detection_us, r.restore_us, r.arp_us,
                        r.reconnect_us, r.replay_us, r.total_recovery_us)
        return sim_digest([
            self.window_us, self.events, self.ops, self.attempted,
            len(self.failures),
            [tuple(vars(e).values()) for e in self.epochs],
            self.latencies_us, sorted(self.latency_pcts_us.items()),
            recovery,
        ])


class Session:
    """One workload instance in one fresh world."""

    name: ClassVar[str]
    #: Catalog entry whose Table III stop time the model is compared to
    #: (``None``: not a paper workload, so the model is unvalidated).
    paper: ClassVar[str | None] = None
    #: Simulated length of the measured window.
    window_us: ClassVar[int]
    #: Window of the traced run (shorter where tracing a full window
    #: would not fit a run's time limit).
    trace_window_us: ClassVar[int]

    #: Slices the window is timed in (the runner takes per-slice medians
    #: over repetitions, so a burst of host noise hits one slice only).
    SLICES = 10

    def __init__(self, seed: int, window_us: int | None = None) -> None:
        self.seed = seed
        self.window = self.window_us if window_us is None else window_us
        self.world: World | None = None
        self.start_us = 0
        self.events0 = 0

    # -- phases ------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run_window(self, clock: Callable[[], float],
                   after_slice: Callable[[], Any] | None = None) -> list[float]:
        """Run the measured window in ``SLICES`` equal simulated slices;
        returns the host seconds (per *clock*) each slice took.
        *after_slice* runs untimed after each slice."""
        self.start_us = self.world.now
        self.events0 = self.world.engine.n_dispatched
        self.start_window(self.start_us + self.window)
        host_s = []
        for i in range(1, self.SLICES + 1):
            t0 = clock()
            self.world.run(until=self.start_us + self.window * i // self.SLICES)
            host_s.append(clock() - t0)
            if after_slice is not None:
                after_slice()
        self.events = self.world.engine.n_dispatched - self.events0
        self.end_window()
        return host_s

    def start_window(self, end_us: int) -> None:
        """Start the window's load (clients, workers, fault schedule)."""
        raise NotImplementedError

    def end_window(self) -> None:
        """Snapshot what the window produced, before the untimed drain."""

    def finish(self) -> Outcome:
        raise NotImplementedError

    # -- shared pieces -----------------------------------------------------
    def deployments(self) -> list[Any]:
        raise NotImplementedError

    def _new_world(self) -> World:
        reset_id_counters()
        self.world = World(seed=self.seed)
        return self.world

    def _run_until_committed(self, agents: list[Any], floor_us: int = 0) -> None:
        world = self.world
        world.run(until=world.now + floor_us)
        while any(a.epoch < 1 for a in agents):
            world.run(until=world.now + ms(10))

    def _window_epochs(self) -> list[EpochRecord]:
        end = self.start_us + self.window
        return sorted(
            (e for d in self.deployments() for e in d.metrics.epochs
             if self.start_us <= e.at_us < end),
            key=lambda e: (e.at_us, e.epoch),
        )


class _PairSession(Session):
    """A catalog workload in one NiLiCon primary/backup pair."""

    catalog: ClassVar[str]

    def make(self):
        return make_workload(self.catalog)

    def setup(self) -> None:
        world = self._new_world()
        self.workload = workload = self.make()
        self.deployment = dep = build_deployment(
            world, workload.spec(), "nilicon",
            on_failover=lambda container: workload.attach(world, container),
        )
        workload.warmup(world, dep.container)
        for process in dep.container.processes:
            process.mm.drain_fault_time()
        self.attach_service()
        dep.start()
        self._run_until_committed([dep.primary_agent])

    def attach_service(self) -> None:
        pass

    def deployments(self) -> list[Any]:
        return [self.deployment]

    def _pair_failures(self) -> list[str]:
        dep = self.deployment
        failures = []
        if dep.failed_over:
            failures.append("spurious failover (no fault was injected)")
        failures += dep.audit_output_commit()
        mismatches = dep.backup_agent.digest_mismatches
        if mismatches:
            failures.append(f"{mismatches} page digest mismatch(es) on the backup")
        return failures


class KvSession(_PairSession):
    """Catalog KV server with closed-loop batched 50/50 get/set clients."""

    batch_size = 1000

    def attach_service(self) -> None:
        self.workload.attach(self.world, self.deployment.container)

    def batch(self) -> int:
        # Input variation: +-0.3% ops per batch.
        return derive(self.seed, self.name, self.batch_size - 3, self.batch_size + 3)

    def start_window(self, end_us: int) -> None:
        self.stats = ClientStats()
        self.client = self.workload.start_clients(
            self.world, self.stats, batch_size=self.batch(), run_until_us=end_us
        )

    def end_window(self) -> None:
        self.window_ops = self.stats.operations
        self.window_latencies = list(self.stats.latencies_us)

    def finish(self) -> Outcome:
        world, stats, client = self.world, self.stats, self.client
        deadline = world.now + sec(10)
        while not client.done and world.now < deadline:
            world.run(until=world.now + ms(50))
        self.deployment.stop()
        failures = self._pair_failures()
        if not client.done:
            failures.append("client never resolved its in-flight requests")
        if stats.errors:
            failures.append(f"{stats.errors} client error(s)")
        failures += stats.validation_failures
        batch = self.batch()
        return Outcome(
            window_us=self.window,
            events=self.events,
            ops=self.window_ops,
            attempted=stats.operations + stats.errors * batch,
            failures=failures,
            epochs=self._window_epochs(),
            latencies_us=self.window_latencies,
            latency_samples=len(self.window_latencies),
        )


class KvNilicon(KvSession):
    name = "kv-nilicon"
    paper = "redis"
    catalog = "redis"
    window_us = ms(5_700)
    trace_window_us = ms(1_000)


class KvPersistent(KvSession):
    name = "kv-persistent"
    paper = "ssdb"
    catalog = "ssdb"
    window_us = ms(6_500)
    trace_window_us = ms(6_500)


class ComputeBigheap(_PairSession):
    name = "compute-bigheap"
    paper = "streamcluster"
    catalog = "streamcluster"
    window_us = ms(4_000)
    trace_window_us = ms(4_000)
    #: Checked pages per worker at the end of the window.
    CHECK_PAGES = 8

    def make(self):
        # Input variation: +-2% dirty pages per epoch; an unbounded quota,
        # so the fixed window never runs out of work.
        dirty = derive(self.seed, self.name, 297, 309)
        return make_workload(self.catalog, dirty_pages_per_epoch=dirty,
                             total_units=10**9)

    def start_window(self, end_us: int) -> None:
        self.workload.attach(self.world, self.deployment.container)

    def end_window(self) -> None:
        self.units = self.workload.total_progress(self.deployment.container)

    def _content_failures(self) -> list[str]:
        """Each worker's last written data pages must hold the tokens of
        the units its progress counter says ran (the output check)."""
        workload, container = self.workload, self.deployment.container
        mm = container.processes[0].mm
        failures = []
        ppu = workload.pages_per_unit
        for worker in range(workload.n_workers):
            done = workload.read_progress(container, worker)
            start, span = workload._partition(container, worker)
            written = int(done * ppu)
            if written > span:
                failures.append(f"worker {worker}: window wrapped its partition")
                continue
            unit = done - 1
            for k in range(written - 1, max(-1, written - 1 - self.CHECK_PAGES), -1):
                while unit > 0 and int(unit * ppu) > k:
                    unit -= 1
                want = f"u{unit}w{worker}".encode()
                got = mm.read(start + k)
                if got != want:
                    failures.append(f"worker {worker} page {k}: {got!r} != {want!r}")
        return failures

    def finish(self) -> Outcome:
        failures = self._content_failures()
        self.deployment.stop()
        failures += self._pair_failures()
        return Outcome(
            window_us=self.window,
            events=self.events,
            ops=self.units,
            attempted=self.units,
            failures=failures,
            epochs=self._window_epochs(),
        )


class FleetFailover(Session):
    name = "fleet-failover"
    FLEET = FleetSpec(n_containers=12, n_hosts=6, slots_per_host=10)
    PROFILE = TrafficProfile("failover", rate_rps=350.0, requests_per_session=3,
                             think_us=ms(400), duration_us=sec(4))
    #: Protection settles this long before traffic starts.
    WARMUP_US = ms(300)
    FAIL_AT_US = ms(900)
    VICTIM = "node0"
    TAIL_US = sec(2)
    window_us = PROFILE.duration_us + TAIL_US
    trace_window_us = window_us

    def setup(self) -> None:
        world = self._new_world()
        # Placement is pinned (seed 1) so every seed loses the same
        # members; the seed varies the arrival stream and, as input
        # variation, the members' mapped-file count (5-7).
        fleet = replace(self.FLEET, n_mapped_files=derive(self.seed, self.name, 5, 7))
        self.pool = pool = HostPool(world, fleet.n_hosts,
                                    slots_per_host=fleet.slots_per_host)
        self.controller = controller = FleetController(
            world, pool, fleet_spec=fleet, config=NiliconConfig.nilicon(), seed=1,
        )
        controller.deploy()
        self.service = FleetWorkload(world, controller)
        self.service.attach_services()
        controller.start()
        self.proxy = TrafficProxy(world, controller)
        self.proxy.start()
        self._run_until_committed(
            [m.deployment.primary_agent for m in controller.members.values()],
            floor_us=self.WARMUP_US,
        )

    def deployments(self) -> list[Any]:
        return [d for m in self.controller.members.values() for d in m.deployments]

    def start_window(self, end_us: int) -> None:
        world = self.world
        self.traffic = OpenLoopTraffic(world, self.proxy.ip, self.proxy.port,
                                       self.PROFILE)
        self.traffic.start()

        def fail_stop():
            yield world.engine.timeout(self.FAIL_AT_US)
            self.controller.inject_host_failstop(self.pool.host(self.VICTIM))

        world.engine.process(fail_stop(), name="bench-fail-stop")

    def _worst_recovery(self) -> RecoveryBreakdown | None:
        recoveries = [d.metrics.recovery for d in self.deployments()
                      if d.metrics.recovery is not None]
        if not recoveries:
            return None
        return max(recoveries, key=lambda r: (
            r.detection_us + r.restore_us + r.arp_us + r.reconnect_us))

    def finish(self) -> Outcome:
        proxy, controller, traffic = self.proxy, self.controller, self.traffic
        stats, counters = traffic.stats, proxy.counters
        proxy.stop()
        controller.stop()
        failures = list(self.service.violations()) + list(controller.audit())
        for label, n in (("client error", stats.errors),
                         ("request timeout", stats.timeouts),
                         ("corrupt reply", stats.validation_failures),
                         ("unresolved request", stats.in_flight()),
                         ("open session", stats.sessions_started - stats.sessions_finished),
                         ("proxy drop", counters.dropped)):
            if n:
                failures.append(f"{n} {label}(s)")
        if counters.routed != counters.relayed + proxy.inflight():
            failures.append(f"routed {counters.routed} != relayed "
                            f"{counters.relayed} + in flight {proxy.inflight()}")
        failovers = sum(m.failovers for m in controller.members.values())
        if failovers < 1:
            failures.append("host fail-stop injected but no failover ran")
        latency = stats.latency
        pcts = {p: latency.percentile(p) for p in (50, 90, 99)} if latency.n else {}
        stall = proxy.stall_histogram()
        return Outcome(
            window_us=self.window,
            events=self.events,
            ops=stats.completed,
            attempted=stats.sent,
            failures=failures,
            epochs=self._window_epochs(),
            latency_pcts_us=pcts,
            latency_samples=latency.n,
            recovery=self._worst_recovery(),
            counters={
                "traffic.routed": counters.routed,
                "traffic.retries": counters.retries,
                "traffic.stall_ms_p99": stall.percentile(99) / 1000 if stall.n else 0.0,
                "fleet.failovers": failovers,
                "fleet.reprotects": sum(m.reprotects for m in controller.members.values()),
            },
        )


SCENARIOS: dict[str, type[Session]] = {
    cls.name: cls for cls in (KvNilicon, ComputeBigheap, FleetFailover, KvPersistent)
}


def paper_stop_ms(session: type[Session]) -> float | None:
    """Table III NiLiCon stop time for the workload's catalog entry."""
    if session.paper is None:
        return None
    return PAPER_TABLE3[session.paper]["nilicon_stop_ms"]
