"""The primary agent: NiLiCon's epoch loop (paper Fig. 1, §IV).

Per epoch:

1. **Execute** — the container runs for 30 ms; its output buffers behind
   the egress plug; DRBD mirrors disk writes asynchronously; DNC bits track
   filesystem-cache changes; soft-dirty bits track memory writes.
2. **Stop** — freeze the container (virtual signals; poll or stock 100 ms
   sleep), block network input (plug or firewall), send the DRBD barrier.
3. **Local state copy** — run the CRIU checkpoint over the frozen
   container.  With the staging buffer, dirty pages are memcpy'd locally
   and the container resumes before transfer; without it, the container
   stays stopped until the backup confirms receipt.
4. **Resume + Send state** — unblock input, thaw, stream the image over
   the 10 GbE pair link.
5. **Release output** — when the backup acknowledges the epoch, release
   exactly that epoch's buffered packets (output commit).

All checkpoint-path work is charged as simulated time *while the container
is frozen*, which is how stop times (Table III/IV) and, through them,
overheads (Fig. 3, Table I) emerge from the cost model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.criu.checkpoint import CheckpointEngine
from repro.criu.collect import StateCollector
from repro.metrics.collector import EpochRecord, RunMetrics
from repro.net.link import Endpoint
from repro.replication.config import NiliconConfig
from repro.replication.drbd import PrimaryDrbd
from repro.replication.netbuffer import NetworkBuffer
from repro.replication.statecache import InfrequentStateCache, PageDigestCache
from repro.sim.access import record_access
from repro.sim.engine import Engine, Event, Interrupt, Process
from repro.sim.faults import coverage_mark, fault_point
from repro.sim.trace import trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.auditor import StateAuditor
    from repro.container.runtime import Container

__all__ = ["PrimaryAgent"]


class PrimaryAgent:
    """Drives replication of one container from the primary host."""

    def __init__(
        self,
        container: "Container",
        endpoint: Endpoint,
        config: NiliconConfig,
        netbuffer: NetworkBuffer,
        drbd: list[PrimaryDrbd],
        metrics: RunMetrics,
        auditor: "StateAuditor | None" = None,
        initial_epoch: int = 0,
    ) -> None:
        self.container = container
        self.kernel = container.kernel
        self.engine: Engine = container.engine
        self.endpoint = endpoint
        self.config = config
        self.netbuffer = netbuffer
        self.drbd = drbd
        self.metrics = metrics
        self.auditor = auditor

        self.criu = CheckpointEngine(self.kernel, config.criu)
        self.state_cache: InfrequentStateCache | None = None
        if config.criu.cache_infrequent_state:
            collector = StateCollector(self.kernel, config.criu)
            self.state_cache = InfrequentStateCache(self.kernel, collector, container)
        #: Per-page transfer-integrity CRCs, cached across epochs (host-side
        #: only; see docs/perf.md).
        self.digest_cache = PageDigestCache()

        #: Continues an adopted container's numbering (0 for a fresh pair).
        self.epoch = initial_epoch
        self._stopped = False
        self._quiescing = False
        self._receipt_events: dict[int, Event] = {}
        self._processes: list[Process] = []
        self._epoch_process: Process | None = None
        self._ack_process: Process | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self.metrics.started_at_us = self.engine.now
        self._epoch_process = self.engine.process(
            self._epoch_loop(), name="primary-epoch-loop"
        )
        self._ack_process = self.engine.process(
            self._ack_loop(), name="primary-ack-loop"
        )
        self._processes += [self._epoch_process, self._ack_process]

    def stop(self) -> None:
        """Stop cleanly at the next epoch boundary (experiment teardown).

        The ack loop sits blocked on ``endpoint.recv()`` between acks; a
        flag alone would leak it forever, so it is interrupted explicitly.
        Pending receipt events are resolved so an epoch loop mid-cycle in
        the non-staging path can complete its cycle and observe the flag
        instead of waiting for an ack that will never be processed.
        """
        self._stopped = True
        self.metrics.ended_at_us = self.engine.now
        for process in self._processes:
            if process.is_alive and process is not self.engine.active_process:
                process.interrupt("stopped")
        self._resolve_receipts()

    def quiesce(self) -> Generator[Any, Any, None]:
        """Stop checkpointing at the next epoch boundary, gently.

        Unlike :meth:`stop`, nothing is interrupted mid-cycle: the epoch
        loop finishes its current cycle (the container ends *thawed*, input
        unblocked) and then exits; the ack loop stays alive so in-flight
        acknowledgments keep draining output barriers.  Used by the fleet
        controller before re-pairing (backup-host loss) and before a
        planned migration.  Receipt events are resolved while waiting, so a
        non-staging cycle whose backup died mid-transfer cannot wedge the
        loop (and with it the container) frozen forever.
        """
        self._quiescing = True
        while self._epoch_process is not None and self._epoch_process.is_alive:  # ft: bounded -- the epoch loop checks _quiescing every cycle and exits; receipts are resolved below so it cannot wedge
            if self._receipt_events:
                self._resolve_receipts()
            yield self.engine.timeout(1_000)

    def crash(self) -> None:
        """Fail-stop: the agent dies instantly with its host.

        Safe to call from inside one of the agent's own processes (a
        fault-injection hook killing the primary mid-phase): the active
        process is skipped here and dies by the hook's own ``Interrupt``.
        """
        self._stopped = True
        self.metrics.ended_at_us = self.engine.now
        for process in self._processes:
            if process.is_alive and process is not self.engine.active_process:
                process.interrupt("fail-stop")
        # GC receipt bookkeeping: after a crash/failover nothing will ever
        # acknowledge these epochs.
        self._receipt_events.clear()

    def _resolve_receipts(self) -> None:
        for epoch in list(self._receipt_events):
            record_access(self.engine, self, "receipt_events", "w", key=epoch,
                          site="primary.resolve_receipts")
            event = self._receipt_events.pop(epoch)
            if not event.triggered:
                event.succeed(None)

    # ------------------------------------------------------------------ #
    # Epoch machinery                                                      #
    # ------------------------------------------------------------------ #
    def _epoch_loop(self) -> Generator[Any, Any, None]:
        try:
            # Seed the backup with a full checkpoint before the first epoch.
            yield from self._checkpoint_cycle(incremental=False)
            while not (self._stopped or self._quiescing):  # ft: bounded -- exits on stop/quiesce/kernel-failure, all checked every cycle
                yield self.engine.timeout(self.config.epoch_execute_us)
                if self._stopped or self._quiescing or self.kernel.failed:
                    return
                yield from self._checkpoint_cycle(incremental=True)
        except Interrupt:
            # Fail-stop: the agent dies silently with its host.
            coverage_mark(self.engine, "handler", "primary.epoch_interrupt")
            return
        except Exception:  # ft: defensive -- re-raises unless the host already fail-stopped
            if self.kernel.failed:
                return  # dying with the host is expected under fail-stop
            raise

    def _checkpoint_cycle(self, incremental: bool) -> Generator[Any, Any, None]:
        costs = self.kernel.costs
        epoch = self.epoch
        stop_start = self.engine.now

        freeze_us = yield from self.container.freeze(poll=self.config.criu.freeze_poll)
        trace(self.engine, "epoch", "frozen", epoch=epoch)
        stall = fault_point(self.engine, "primary.post_freeze", epoch=epoch)
        if stall:
            yield self.engine.timeout(stall)
        yield from self.netbuffer.block_input()
        trace(self.engine, "epoch", "input_blocked", epoch=epoch)
        for drbd in self.drbd:
            drbd.send_barrier(epoch)
        trace(self.engine, "epoch", "disk_barrier", epoch=epoch)

        if self.auditor is not None:
            # Audit the quiesced container before collection reads it: the
            # checkpoint must never capture inconsistent bookkeeping.
            # Host-CPU only; advances no simulated time.
            self.auditor.audit_epoch(self.container)

        stall = fault_point(self.engine, "primary.mid_collect", epoch=epoch)
        if stall:
            yield self.engine.timeout(stall)
        collect_start = self.engine.now
        provider = self.state_cache.provider if self.state_cache is not None else None
        image = yield from self.criu.checkpoint(
            self.container, incremental=incremental, infrequent_provider=provider
        )
        collect_us = self.engine.now - collect_start
        trace(self.engine, "epoch", "collected", epoch=epoch,
              dirty=image.dirty_page_count)
        # Digest the shipped pages so the backup can verify the transfer.
        # Host CPU only — zero simulated time, no trace events — so golden
        # digests are unaffected (same contract as the auditor above).
        page_digests = self.digest_cache.digest_image(
            image, processes=self.container.processes
        )

        # Epoch barrier: output buffered so far belongs to this epoch.
        self._insert_output_barrier(epoch)
        stall = fault_point(self.engine, "primary.post_barrier", epoch=epoch)
        if stall:
            yield self.engine.timeout(stall)

        sync_transfer_us = 0
        if self.config.staging_buffer:
            # The parasite transfer (charged during collection) already
            # landed the dirty pages in the agent's staging buffer — with
            # shared memory, that IS the staging copy.  Only a fixed
            # bookkeeping cost remains before the container may resume.
            yield self.engine.timeout(costs.syscall_base * 8)
        else:
            # Stopped until the backup confirms receipt: per-page socket
            # writes (plus proxy copies in the stock path), then wire time.
            transfer_start = self.engine.now
            per_page = costs.net_write_per_page
            fixed = 0
            if self.config.criu.use_proxy_processes:
                per_page += costs.proxy_per_page
                fixed += costs.proxy_fixed
            yield self.engine.timeout(fixed + image.dirty_page_count * per_page)
            # Register the receipt event *before* transmitting: an ack that
            # arrives before the epoch loop yields must find the event, not
            # allocate a second one that nobody will ever trigger.
            receipt = self._receipt_event(epoch)
            stall = fault_point(self.engine, "primary.pre_send", epoch=epoch)
            if stall:
                yield self.engine.timeout(stall)
            self._send_state(epoch, image, page_digests)
            stall = fault_point(
                self.engine, "primary.between_send_and_receipt", epoch=epoch
            )
            if stall:
                yield self.engine.timeout(stall)
            yield receipt
            sync_transfer_us = self.engine.now - transfer_start

        yield from self.netbuffer.unblock_input()
        yield from self.container.thaw()
        trace(self.engine, "epoch", "resumed", epoch=epoch)
        stop_us = self.engine.now - stop_start

        if self.config.staging_buffer:
            if self.config.compress_transfer:
                # Compression happens after resume, off the critical path.
                yield self.engine.timeout(
                    image.dirty_page_count * costs.compress_per_page
                )
            stall = fault_point(self.engine, "primary.pre_send", epoch=epoch)
            if stall:
                yield self.engine.timeout(stall)
            self._send_state(epoch, image, page_digests)
            stall = fault_point(
                self.engine, "primary.between_send_and_receipt", epoch=epoch
            )
            if stall:
                yield self.engine.timeout(stall)

        self.metrics.record_epoch(
            EpochRecord(
                epoch=epoch,
                at_us=self.engine.now,
                stop_us=stop_us,
                dirty_pages=image.dirty_page_count,
                state_bytes=image.size_bytes(),
                freeze_us=freeze_us,
                collect_us=collect_us,
                sync_transfer_us=sync_transfer_us,
                infrequent_from_cache=image.infrequent_from_cache,
            )
        )
        self.metrics.charge_primary_cpu(stop_us)
        self.epoch += 1

    # ------------------------------------------------------------------ #
    # Strategy hooks (overridden by the HyCoR mode; see replication/modes) #
    # ------------------------------------------------------------------ #
    def _insert_output_barrier(self, epoch: int) -> None:
        """Fence this epoch's buffered output at checkpoint time.

        NiLiCon inserts the per-epoch egress barrier that the backup's
        post-commit ack releases.  HyCoR overrides this to a no-op: its
        egress fences are flush-sequence barriers inserted by the log
        shipper, and checkpoints carry no release authority.
        """
        self.netbuffer.insert_epoch_barrier(epoch)

    def _state_extra(self, epoch: int) -> dict:
        """Extra fields for the epoch's state message (HyCoR adds the log
        flush sequence the checkpoint supersedes)."""
        return {}

    def _handle_message(self, kind: str, message: dict) -> None:
        """Mode-specific control messages on the ack channel (HyCoR's
        ``log_ack``); unknown kinds are ignored."""

    def _send_state(
        self, epoch: int, image, page_digests: dict[int, dict[int, int]] | None = None
    ) -> None:
        size = image.size_bytes()
        compressed = self.config.compress_transfer
        if compressed:
            size = max(1024, int(size * self.config.compression_ratio))
        message = {
            "kind": "state",
            "epoch": epoch,
            "image": image,
            "compressed": compressed,
            # Per-page CRCs for backup-side verification; metadata only
            # (a few bytes per page on the real wire), not charged.
            "page_digests": page_digests,
        }
        message.update(self._state_extra(epoch))
        self.endpoint.send(
            message,
            size_bytes=size,
            chunks=image.chunk_count(),
        )
        trace(self.engine, "epoch", "state_sent", epoch=epoch, bytes=size)

    def _receipt_event(self, epoch: int) -> Event:
        event = self._receipt_events.get(epoch)
        if event is None:
            # Registered by the epoch loop, popped by the ack loop: the
            # registration must happen-before the state send (else an ack
            # racing the registration allocates an orphan event) — exactly
            # what the detector checks via these records.
            record_access(self.engine, self, "receipt_events", "w", key=epoch,
                          site="primary.register_receipt")
            event = Event(self.engine)
            self._receipt_events[epoch] = event
        return event

    # ------------------------------------------------------------------ #
    # Acknowledgments → output release                                     #
    # ------------------------------------------------------------------ #
    def _ack_loop(self) -> Generator[Any, Any, None]:
        engine = self.engine  # hoisted off the per-ack hot loop (PERF004)
        while not self._stopped:
            try:
                delivery = yield self.endpoint.recv()
            except Interrupt:
                # Fail-stop / teardown.
                coverage_mark(engine, "handler", "primary.ack_interrupt")
                return
            message = delivery.message
            kind = message.get("kind")
            if kind == "receipt":
                # The backup holds the epoch's state; a frozen non-staging
                # container may thaw.  No release authority — that needs
                # the post-commit ack.
                record_access(engine, self, "receipt_events", "w",
                              key=message["epoch"], site="primary.ack_loop.receipt")
                event = self._receipt_events.pop(message["epoch"], None)
                if event is not None and not event.triggered:
                    event.succeed(None)
                continue
            if kind != "ack":
                self._handle_message(kind, message)
                continue
            epoch = message["epoch"]
            trace(engine, "epoch", "acked", epoch=epoch)
            self._on_ack(epoch)

    def _on_ack(self, epoch: int) -> None:
        """React to the backup's post-commit acknowledgment of *epoch*.

        NiLiCon: advance the acked high-water mark and drain every egress
        barrier up to it (output commit).  HyCoR overrides this — a
        checkpoint commit truncates replay work but releases no output.
        """
        engine = self.engine
        netbuffer = self.netbuffer
        # One read of the high-water mark per ack; the local tracks the
        # (single, cumulative) advance below.
        acked = netbuffer.acked_epoch
        if epoch > acked:
            record_access(engine, netbuffer, "acked_epoch", "w",
                          site="primary.ack_loop")
            netbuffer.acked_epoch = acked = epoch
        # Cumulative release: drain every barrier up to the highest
        # acknowledged epoch.  Addressed by epoch id, so a duplicated,
        # reordered or dropped ack can never pop a later epoch's
        # barrier — a skipped ack is healed by the next one.
        released = netbuffer.release_epoch(acked)
        self.metrics.packets_released += released
        self._wake_receipts(acked)

    def _wake_receipts(self, through: int) -> None:
        engine = self.engine
        for pending in sorted(self._receipt_events):  # nlint: disable=PERF003 -- receipts must wake in epoch order; the pending set is tiny
            if pending > through:
                break
            record_access(engine, self, "receipt_events", "w", key=pending,
                          site="primary.ack_loop.release_receipt")
            event = self._receipt_events.pop(pending)
            if not event.triggered:
                event.succeed(None)
