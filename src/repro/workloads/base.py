"""Workload abstractions and the generic restart-safe request server.

A workload knows how to (a) describe its container, (b) pre-populate state
(warmup), (c) attach its service loops to a container — including a
restored one after failover — and (d) drive itself with clients.

The request-processing path is the **restart-safe pattern**: a handler
waits (without consuming) until a complete frame is in the socket's read
queue, then — inside a single execution slice, atomically with respect to
the freezer — consumes the frame, applies all state effects, and queues the
response.  A checkpoint therefore always captures a request either fully
unprocessed (bytes still in the read queue; the restored service reprocesses
it) or fully processed (response in the write path, covered by output
commit).  Handlers keep no application state outside the container.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.container.spec import ContainerSpec
from repro.kernel.errors import KernelError
from repro.kernel.tcp import TcpSocket
from repro.sim.engine import Interrupt
from repro.workloads import protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container
    from repro.net.world import World

__all__ = ["ClientStats", "ComputeWorkload", "ServerWorkload", "Workload"]


@dataclass
class ClientStats:
    """Client-side measurements (shared by all client generators)."""

    completed: int = 0
    errors: int = 0
    validation_failures: list[str] = field(default_factory=list)
    latencies_us: list[int] = field(default_factory=list)
    bytes_received: int = 0
    #: Operations (for batched KV: ops, not batches).
    operations: int = 0

    def throughput(self, elapsed_us: int) -> float:
        """Operations per second."""
        return self.operations / (elapsed_us / 1_000_000)

    @property
    def ok(self) -> bool:
        return self.errors == 0 and not self.validation_failures


class Workload(abc.ABC):
    """Base workload interface."""

    name: str = "workload"
    ip: str = "10.0.1.10"

    @abc.abstractmethod
    def spec(self) -> ContainerSpec:
        """The container to deploy."""

    def warmup(self, world: "World", container: "Container") -> None:
        """Pre-populate container state (resident pages, files, data sets).

        Runs before replication starts so the initial full checkpoint sees
        the steady-state resident set.
        """

    @abc.abstractmethod
    def attach(self, world: "World", container: "Container") -> None:
        """Start (or re-start, after failover) the service processes."""


class ServerWorkload(Workload):
    """A client-server workload measured by maximum throughput."""

    port: int = 8080

    @abc.abstractmethod
    def start_clients(self, world: "World", stats: ClientStats) -> None:
        """Spawn the saturating client population against :attr:`ip`."""

    # ------------------------------------------------------------------ #
    # Server plumbing shared by all concrete servers                       #
    # ------------------------------------------------------------------ #
    def attach(self, world: "World", container: "Container") -> None:
        stack = container.stack
        listener = stack.listeners.get(self.port)
        if listener is None:
            listener = stack.socket()
            listener.listen(self.port)
        world.engine.process(
            self._accept_loop(world, container, listener), name=f"{self.name}-accept"
        )
        # Failover: resume handlers for restored established connections.
        for sock in list(stack.connections.values()):
            self._spawn_handler(world, container, sock)

    def _accept_loop(self, world, container, listener):
        while not container.dead:
            try:
                child = yield listener.accept()
            except (Interrupt, KernelError):
                return
            self._spawn_handler(world, container, child)

    _handler_rr = 0

    def _spawn_handler(self, world, container, sock: TcpSocket) -> None:
        # Distribute connections round-robin over the container's processes
        # (multi-process servers like Lighttpd use all their workers).
        process = container.processes[self._handler_rr % len(container.processes)]
        self._handler_rr += 1
        world.engine.process(
            self._handler(world, container, process, sock),
            name=f"{self.name}-handler",
        )

    def _handler(self, world, container, process, sock: TcpSocket):
        """The restart-safe request loop (see module docstring)."""
        while not container.dead:
            # Readiness needs only the length header and the queue length:
            # peeking the whole queue would copy every pipelined frame
            # behind this one on each wake.
            head = sock.peek(protocol.HEADER_LEN)
            needed = protocol.frame_ready(head, sock.available)
            if needed > 0:
                try:
                    yield sock.data_available(min_bytes=sock.available + needed)
                except (Interrupt, KernelError):
                    return
                if sock.state.value in ("reset", "closed"):
                    return
                if sock.available == 0 and sock.state.value == "peer_closed":
                    return
                continue

            # A complete frame is present: charge its CPU (in preemptible
            # ~1 ms slices, so the freezer never waits out a monolithic
            # multi-ms request), then atomically consume + apply + respond.
            body_len = int(head)
            cpu_us = self.request_cpu_us(body_len)
            outcome: dict[str, Any] = {}

            try:
                while cpu_us > 1500:
                    yield from container.run_slice(process, 1000)
                    cpu_us -= 1000
            except (Interrupt, KernelError):
                return

            def mutate():
                raw = sock.recv_nowait(protocol.HEADER_LEN + body_len)
                body = raw[protocol.HEADER_LEN:]
                if container.dead:
                    return
                response = self.handle_request(container, process, body, outcome)
                if response is not None and sock.state.value in (
                    "established",
                    "peer_closed",
                ):
                    sock.send(protocol.frame(response))

            try:
                yield from container.run_slice(process, cpu_us, mutate=mutate)
            except (Interrupt, KernelError):
                return

    # -- hooks concrete servers implement ----------------------------------
    @abc.abstractmethod
    def request_cpu_us(self, body_len: int) -> int:
        """CPU cost of processing one request of *body_len* bytes."""

    @abc.abstractmethod
    def handle_request(
        self, container: "Container", process, body: bytes, outcome: dict
    ) -> bytes | None:
        """Apply one request's effects; returns the response body.

        Runs inside the atomic mutate step: all container state mutations
        (page writes, filesystem writes) happen here.
        """


class ComputeWorkload(Workload):
    """A non-interactive workload measured by completion time.

    Progress is stored in container memory (one progress page per worker),
    so a restored container resumes from its checkpointed progress.
    """

    #: Filled in by subclasses.
    n_workers: int = 4
    total_units: int = 1000
    unit_cpu_us: int = 500

    def progress_page(self, container: "Container", worker: int) -> int:
        return container.heap_vma.start + worker

    def read_progress(self, container: "Container", worker: int) -> int:
        raw = container.processes[0].mm.read(self.progress_page(container, worker))
        return int(raw or b"0")

    def total_progress(self, container: "Container") -> int:
        return sum(self.read_progress(container, w) for w in range(self.n_workers))

    @property
    def units_per_worker(self) -> int:
        return self.total_units // self.n_workers

    def attach(self, world: "World", container: "Container") -> None:
        for worker in range(self.n_workers):
            world.engine.process(
                self._worker(world, container, worker), name=f"{self.name}-w{worker}"
            )

    def is_complete(self, container: "Container") -> bool:
        return all(
            self.read_progress(container, w) >= self.units_per_worker
            for w in range(self.n_workers)
        )

    def _worker(self, world, container, worker: int):
        process = container.processes[0]
        # The heap never moves under a live container: look it up once,
        # not once per unit.
        heap_start = container.heap_vma.start
        page = self.progress_page(container, worker)
        while not container.dead:
            done = int(process.mm.read(page) or b"0")
            if done >= self.units_per_worker:
                return

            def mutate(d=done):
                self.unit_effects(process, heap_start, worker, d)
                process.mm.write(page, str(d + 1).encode())

            try:
                yield from container.run_slice(process, self.unit_cpu_us, mutate=mutate)
            except (Interrupt, KernelError):
                return

    def unit_effects(self, process, heap_start: int, worker: int, unit: int) -> None:
        """State effects of one work unit (page dirtying); subclass hook.
        *heap_start* is the first page of the container's heap."""
