"""Shared experiment machinery: build, run and measure one deployment.

Modes are the names in :data:`repro.replication.modes.MODE_REGISTRY`:

* ``stock``  — unreplicated container (the baseline denominator),
* ``nilicon`` — the full NiLiCon deployment (or any config variant),
* ``hycor``  — NiLiCon with HyCoR's ND-log release rule,
* ``mc``     — the Remus-on-KVM micro-checkpointing baseline.

Server benchmarks measure saturated throughput over a steady-state window
(clients start only after the initial full checkpoint has seeded the
backup, so startup cost doesn't pollute per-epoch statistics — matching the
paper's steady-state methodology).  Compute benchmarks measure completion
time of a fixed work quota.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.baselines.mc import McDeployment
from repro.baselines.stock import StockDeployment
from repro.metrics.collector import RunMetrics
from repro.net.world import World
from repro.replication.config import NiliconConfig
from repro.replication.manager import ReplicatedDeployment
from repro.replication.modes import get_mode
from repro.sim.units import ms, sec
from repro.workloads.base import ClientStats, ComputeWorkload, ServerWorkload
from repro.workloads.catalog import make_workload

__all__ = [
    "RunResult",
    "build_deployment",
    "overhead_from_throughput",
    "overhead_from_time",
    "run_compute_benchmark",
    "run_server_benchmark",
]

@dataclass
class RunResult:
    """Everything one benchmark run produced."""

    workload: str
    mode: str
    #: Saturated throughput in operations/second (server benchmarks).
    throughput: float | None = None
    #: Completion time of the work quota (compute benchmarks), us.
    completion_us: int | None = None
    metrics: RunMetrics | None = None
    stats: ClientStats | None = None
    #: Fraction of the measurement window the container was stopped.
    stopped_fraction: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)


def overhead_from_throughput(stock: RunResult, repl: RunResult) -> float:
    """Relative reduction in maximum throughput (paper's server metric)."""
    return 1.0 - repl.throughput / stock.throughput


def overhead_from_time(stock: RunResult, repl: RunResult) -> float:
    """Relative increase in execution time (paper's compute metric)."""
    return repl.completion_us / stock.completion_us - 1.0


def build_deployment(
    world: World,
    spec,
    mode: str,
    config: NiliconConfig | None = None,
    mc_kwargs: dict | None = None,
    on_failover=None,
):
    if mode == "stock":
        return StockDeployment(world, spec)
    if mode == "mc":
        return McDeployment(world, spec, **(mc_kwargs or {}))
    # Every other mode is a pair-protocol strategy from the registry
    # (repro.replication.modes); validate the name and make the config
    # carry it so reprotect/repair re-establish the same strategy.
    get_mode(mode)
    if config is None:
        config = NiliconConfig.nilicon()
    if config.mode != mode:
        config = config.with_(mode=mode)
    return ReplicatedDeployment(world, spec, config=config, on_failover=on_failover)


def _wait_until_ready(world: World, deployment, floor_us: int):
    """Generator: wait until replication reached steady state.

    The initial *full* checkpoint blocks the container for as long as the
    configuration makes it (seconds for the unoptimized Table I levels);
    measurements must start after it, or startup cost pollutes steady-state
    numbers.  Waits at least *floor_us*, then until the primary has
    completed its first epoch (no-op for stock/MC deployments).
    """
    yield world.engine.timeout(floor_us)
    agent = getattr(deployment, "primary_agent", None)
    if agent is None:
        return
    while agent.epoch < 1 and not deployment.failed_over:
        yield world.engine.timeout(ms(10))


def _absorb_warmup_faults(deployment) -> None:
    """Warmup populates state before measurement begins; the dirty-tracking
    fault debt it accrues (massive under MC's write protection) belongs to
    startup, not to the first measured execution slice."""
    for process in deployment.container.processes:
        process.mm.drain_fault_time()


def run_server_benchmark(
    workload_name: str,
    mode: str,
    duration_us: int = sec(3),
    settle_us: int = ms(400),
    seed: int = 1,
    config: NiliconConfig | None = None,
    workload_kwargs: dict | None = None,
    client_kwargs: dict | None = None,
    mc_kwargs: dict | None = None,
) -> RunResult:
    """Measure saturated throughput of *workload_name* under *mode*."""
    world = World(seed=seed)
    workload = make_workload(workload_name, **(workload_kwargs or {}))
    assert isinstance(workload, ServerWorkload), f"{workload_name} is not a server"

    deployment = build_deployment(
        world,
        workload.spec(),
        mode,
        config=config,
        mc_kwargs=mc_kwargs,
        on_failover=lambda container: workload.attach(world, container),
    )
    workload.warmup(world, deployment.container)
    _absorb_warmup_faults(deployment)
    workload.attach(world, deployment.container)
    deployment.start()

    stats = ClientStats()
    window: dict[str, int] = {}
    cpu_at_settle: list[int] = []

    def launch_clients():
        yield from _wait_until_ready(world, deployment, settle_us)
        window["start"] = world.now
        window["end"] = world.now + duration_us
        cpu_at_settle.append(deployment.container.cgroup.read_cpuacct())
        workload.start_clients(
            world, stats, run_until_us=window["end"], **(client_kwargs or {})
        )

    world.engine.process(launch_clients())
    world.run(until=settle_us + duration_us)
    while "end" not in window or world.now < window["end"]:
        world.run(until=world.now + ms(50))
    end_us = window["end"]
    deployment.stop()
    cpu_used = deployment.container.cgroup.read_cpuacct() - (
        cpu_at_settle[0] if cpu_at_settle else 0
    )

    if deployment.failed_over:
        raise RuntimeError(
            f"{workload_name}/{mode}: spurious failover during an overhead "
            "measurement (no fault was injected)"
        )
    metrics = deployment.metrics
    metrics.window_start_us = window["start"]
    metrics.window_end_us = end_us
    stopped = sum(e.stop_us for e in metrics.steady_epochs()) / max(1, duration_us)
    return RunResult(
        workload=workload_name,
        mode=mode,
        throughput=stats.throughput(duration_us),
        metrics=metrics,
        stats=stats,
        stopped_fraction=min(1.0, stopped),
        extra={
            "active_cores": cpu_used / duration_us,
            "link_mb_per_s": getattr(
                getattr(deployment, "channel", None), "bytes_sent", 0
            ) / max(1, end_us) if hasattr(deployment, "channel") else 0.0,
        },
    )


def run_compute_benchmark(
    workload_name: str,
    mode: str,
    seed: int = 1,
    config: NiliconConfig | None = None,
    workload_kwargs: dict | None = None,
    mc_kwargs: dict | None = None,
    timeout_us: int = sec(120),
) -> RunResult:
    """Measure completion time of *workload_name* under *mode*."""
    world = World(seed=seed)
    workload = make_workload(workload_name, **(workload_kwargs or {}))
    assert isinstance(workload, ComputeWorkload), f"{workload_name} is not compute"

    deployment = build_deployment(
        world,
        workload.spec(),
        mode,
        config=config,
        mc_kwargs=mc_kwargs,
        on_failover=lambda container: workload.attach(world, container),
    )
    workload.warmup(world, deployment.container)
    _absorb_warmup_faults(deployment)
    deployment.start()
    # Replicated modes: let the initial full checkpoint finish before the
    # work quota starts, so completion time measures steady-state overhead.
    settle = ms(400) if mode != "stock" else 0
    completion: list[int] = []
    window: dict[str, int] = {}

    def launch_and_watch():
        if settle:
            yield from _wait_until_ready(world, deployment, settle)
        start = world.now
        window["start"] = start
        workload.attach(world, deployment.container)
        while not workload.is_complete(deployment.container):
            yield world.engine.timeout(ms(2))
        completion.append(world.now - start)

    watcher = world.engine.process(launch_and_watch())
    while not watcher.processed and world.now < timeout_us:
        world.run(until=min(timeout_us, world.now + ms(50)))
    deployment.stop()
    if not completion:
        raise RuntimeError(
            f"{workload_name}/{mode} did not finish within {timeout_us} us"
        )

    metrics = deployment.metrics
    metrics.window_start_us = window["start"]
    metrics.window_end_us = window["start"] + completion[0]
    stopped = sum(e.stop_us for e in metrics.steady_epochs()) / max(1, completion[0])
    return RunResult(
        workload=workload_name,
        mode=mode,
        completion_us=completion[0],
        metrics=metrics,
        stopped_fraction=min(1.0, stopped),
        extra={
            "active_cores": deployment.container.cgroup.read_cpuacct() / completion[0]
        },
    )
