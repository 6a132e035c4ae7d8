"""The backup agent: buffer, commit, acknowledge — and recover (paper §IV).

During normal operation the backup agent:

* receives checkpoint state over the pair channel, charging per-chunk read
  cost (finer-grained arrivals cost more backup CPU — Table V's Node vs
  Redis discussion);
* waits until the matching DRBD barrier's disk writes are all present,
  then *commits*: pages into the committed page store (radix tree or
  linked list), in-kernel component descriptions into buffers, DRBD writes
  onto the backup disk — and only then sends the acknowledgment that lets
  the primary release that epoch's buffered network output.  Acking before
  the commit would break output commit: a failover overlapping the commit
  would restore from a partially-applied epoch whose output had already
  escaped (the ``ack-before-commit`` mutant in ``tests/mutants.py``
  re-creates exactly that race for the fault campaign).

The backup deliberately maintains **no ready-to-go container** (§III) —
applying hundreds of in-kernel state changes per epoch would cost too many
system calls.  All of it is applied only at failover, in
:meth:`BackupAgent._recover`, which implements §IV's recovery sequence:
discard uncommitted state, build CRIU images from committed state, restore
with the namespace detached from the bridge, reattach, gratuitous ARP.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.container.spec import ContainerSpec
from repro.criu.images import CheckpointImage
from repro.criu.pagestore import LinkedListPageStore, PageStore, RadixTreePageStore
from repro.criu.restore import FullState, RestoreEngine
from repro.kernel.netdev import Bridge
from repro.metrics.collector import RecoveryBreakdown, RunMetrics
from repro.net.link import Endpoint
from repro.replication.config import NiliconConfig
from repro.replication.drbd import BackupDrbd
from repro.replication.heartbeat import FailureDetector
from repro.replication.statecache import verify_page_digests
from repro.sim.access import record_access
from repro.sim.engine import Engine, Event, Interrupt, Process
from repro.sim.faults import coverage_mark, fault_point
from repro.sim.resources import Queue
from repro.sim.trace import trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.auditor import StateAuditor
    from repro.container.runtime import Container, ContainerRuntime

__all__ = ["BackupAgent"]


class BackupAgent:
    """Receives replication state for one container on the backup host."""

    def __init__(
        self,
        engine: Engine,
        runtime: "ContainerRuntime",
        endpoint: Endpoint,
        config: NiliconConfig,
        spec: ContainerSpec,
        bridge: Bridge,
        drbd: list[BackupDrbd],
        metrics: RunMetrics,
        on_failover: Callable[["Container"], None] | None = None,
        auditor: "StateAuditor | None" = None,
        initial_epoch: int = 0,
    ) -> None:
        self.engine = engine
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.endpoint = endpoint
        self.config = config
        self.spec = spec
        self.bridge = bridge
        self.drbd = drbd
        self.metrics = metrics
        self.on_failover = on_failover
        self.auditor = auditor

        costs = self.kernel.costs
        self.page_store: PageStore = (
            RadixTreePageStore(costs) if config.page_store == "radix" else LinkedListPageStore(costs)
        )
        self.restore_engine = RestoreEngine(self.kernel, config.criu)
        self.detector = FailureDetector(
            engine,
            on_failure=self._on_failure_detected,
            interval_us=config.heartbeat_interval_us,
            miss_threshold=config.heartbeat_miss_threshold,
        )

        #: Latest committed in-kernel component state.
        self._process_components: list[dict] = []
        self._sockets: list[dict] = []
        self._namespaces: dict | None = None
        self._cgroup: dict | None = None
        #: Accumulated fs-cache checkpoint: keyed for overwrite semantics.
        self._fs_inodes: dict[str, dict] = {}
        self._fs_pages: dict[tuple[str, int], bytes] = {}
        #: epoch -> mirrored disk writes received (all disks), maintained
        #: at dispatch so commit never rescans the drbd buffers.  Popped on
        #: commit; cleared with the buffers on recovery discard.
        self._epoch_disk_writes: dict[int, int] = {}

        #: First epoch this agent expects (continues an adopted container's
        #: numbering after a re-pair; 0 for a fresh deployment).  The
        #: in-order commit loop parks any epoch beyond ``committed + 1``,
        #: so a re-paired backup must start its watermark just below the
        #: primary's next epoch or the first transfer would park forever.
        self.initial_epoch = initial_epoch
        self.committed_epoch = initial_epoch - 1
        self.received_epoch = initial_epoch - 1
        self.failed_over = False
        self.restored_container: "Container | None" = None
        #: The epoch recovery restored from, captured when recovery starts —
        #: before any un-quiesced commit could bump ``committed_epoch``.
        self.recovered_from_epoch: int | None = None
        #: Recoveries actually launched (a second, spurious detection during
        #: an in-flight recovery must not start another).
        self.recoveries_started = 0
        self._recovering = False
        #: Epochs that arrived ahead of order (delayed/duplicated state
        #: under link faults), parked until their predecessors commit.
        self._out_of_order: dict[int, tuple[CheckpointImage, Any]] = {}
        #: Page-digest verification outcomes (host-side integrity check of
        #: each received transfer against the primary's per-page CRCs).
        self.digests_verified = 0
        self.digest_mismatches = 0
        #: Pages in the verified transfers, and how many of them were
        #: actually re-hashed (equal unless digests went missing).
        self.digest_pages_received = 0
        self.digest_pages_checked = 0

        self._state_queue = Queue(engine, name="backup-state")
        self._stopped = False
        self._processes: list[Process] = []
        self._dispatch_process: Process | None = None
        self._commit_process: Process | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._dispatch_process = self.engine.process(
            self._dispatch_loop(), name="backup-dispatch"
        )
        self._commit_process = self.engine.process(
            self._commit_loop(), name="backup-commit"
        )
        self._processes += [self._dispatch_process, self._commit_process]
        # The failure detector is armed only after the first commit (see
        # _commit_state): before the backup holds a complete checkpoint it
        # has nothing to recover from, and the long initial full checkpoint
        # (during which the frozen container sends no heartbeats) must not
        # be misread as a failure.

    def stop(self) -> None:
        self._stopped = True
        self.detector.stop()
        for process in (self._dispatch_process, self._commit_process):
            if (
                process is not None
                and process.is_alive
                and process is not self.engine.active_process
            ):
                process.interrupt("stopped")

    def _charge(self, us: int) -> Event:
        """Charge backup CPU time (accounted for Table V)."""
        self.metrics.charge_backup_cpu(us)
        return self.engine.timeout(us)

    # ------------------------------------------------------------------ #
    # Receive path                                                         #
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> Generator[Any, Any, None]:
        """Route channel messages; never blocks on commit work so that
        heartbeats keep flowing to the detector during large commits."""
        while not self._stopped:
            try:
                delivery = yield self.endpoint.recv()
            except Interrupt:
                # Recovery/teardown quiesced the dispatcher.
                coverage_mark(self.engine, "handler", "backup.dispatch_interrupt")
                return
            message = delivery.message
            kind = message.get("kind")
            if kind == "heartbeat":
                self.detector.on_heartbeat()
            elif kind == "disk_write":
                epoch = message["epoch"]
                record_access(self.engine, self, "epoch_disk_writes", "w",
                              key=epoch, site="backup.disk_write_count")
                self._epoch_disk_writes[epoch] = (  # nlint: disable=RACE001 -- tracked via record_access as "epoch_disk_writes"
                    self._epoch_disk_writes.get(epoch, 0) + 1
                )
                self.drbd[message["disk"]].on_disk_write(
                    epoch, message["block"], message["data"]
                )
            elif kind == "disk_barrier":
                self.drbd[message["disk"]].on_barrier(message["epoch"], message["writes"])
            elif kind == "state":
                self._state_queue.put((message["epoch"], message["image"], delivery))
            else:
                self._dispatch_extra(message)

    def _dispatch_extra(self, message: dict) -> None:
        """Strategy hook for mode-specific channel messages (HyCoR's
        ``ndlog`` flushes); unknown kinds are ignored.  Must not block —
        the dispatcher keeps heartbeats flowing."""

    def _commit_loop(self) -> Generator[Any, Any, None]:
        """Process state images strictly in epoch order.

        Link faults can deliver state out of order (delayed epoch *k*
        overtaken by *k+1*) or more than once.  A stale epoch (already
        committed) is re-acknowledged and dropped — the state is durable,
        and the re-ack heals a lost original ack.  A future epoch is parked
        in ``_out_of_order`` until its predecessors commit.
        """
        engine = self.engine  # hoisted off the per-delivery hot loop (PERF004)
        try:
            while not self._stopped:
                epoch, image, delivery = yield self._state_queue.get()
                if self.failed_over:
                    return
                # Reading the streamed state costs CPU per chunk (Table V).
                yield self._charge(delivery.chunks * self.kernel.costs.backup_read_chunk)
                if delivery.message.get("compressed"):
                    yield self._charge(
                        image.dirty_page_count * self.kernel.costs.decompress_per_page
                    )
                record_access(engine, self, "committed_epoch", "r",
                              site="backup.commit_loop")
                # One attribute read per delivery; _receive_and_commit
                # returns the (possibly advanced) committed epoch so the
                # unpark loop never re-resolves the chain.
                committed = self.committed_epoch
                if epoch <= committed:
                    self._send_ack(epoch)
                    continue
                if epoch > committed + 1:
                    record_access(engine, self, "epoch_stash", "w", key=epoch,
                                  site="backup.park_out_of_order")
                    self._out_of_order[epoch] = (image, delivery)
                    continue
                committed = yield from self._receive_and_commit(epoch, image, delivery)
                while committed + 1 in self._out_of_order:
                    next_epoch = committed + 1
                    record_access(engine, self, "epoch_stash", "w",
                                  key=next_epoch, site="backup.unpark")
                    image, delivery = self._out_of_order.pop(next_epoch)  # nlint: disable=RACE001 -- tracked via record_access as "epoch_stash"
                    committed = yield from self._receive_and_commit(next_epoch, image, delivery)
        except Interrupt:
            # Teardown, or recovery quiescing an in-flight commit.
            coverage_mark(self.engine, "handler", "backup.commit_interrupt")
            return

    def _receive_and_commit(
        self, epoch: int, image: CheckpointImage, delivery: Any
    ) -> Generator[Any, Any, int]:
        """Commit one epoch; returns the committed epoch after this attempt
        (unchanged when the commit was abandoned by a failover)."""
        # Wait until this epoch's disk writes are fully here too.
        for drbd in self.drbd:
            yield drbd.epoch_complete(epoch)
        if self.failed_over:
            return self.committed_epoch
        self.received_epoch = max(self.received_epoch, epoch)
        trace(self.engine, "backup", "state_received", epoch=epoch)
        # Receipt confirmation is what un-freezes a non-staging primary; it
        # carries no release authority (that is the ack, sent post-commit),
        # so the container's stop time stays bounded by the transfer, not
        # by the backup's commit work.
        self._send_receipt(epoch)
        stall = fault_point(self.engine, "backup.post_ack_pre_commit", epoch=epoch)
        if stall:
            yield self.engine.timeout(stall)
        # Verify the transfer against the primary's per-page CRCs before
        # committing.  Host CPU only — zero simulated time, no trace events
        # — matching the digesting contract on the primary side.
        digests = delivery.message.get("page_digests")
        if digests is not None:
            self.digests_verified += 1
            self.digest_pages_received += image.dirty_page_count
            checked: list[int] = []
            self.digest_mismatches += verify_page_digests(image, digests, checked)
            self.digest_pages_checked += checked[0]
        yield from self._commit_state(epoch, image)
        trace(self.engine, "backup", "committed", epoch=epoch)
        self._after_commit(epoch, delivery.message)
        self._ack_commit(epoch)
        return self.committed_epoch

    def _send_receipt(self, epoch: int) -> None:
        self.endpoint.send({"kind": "receipt", "epoch": epoch}, size_bytes=64)

    def _ack_commit(self, epoch: int) -> None:
        """ACK only once the epoch is durable: the primary may now release
        this epoch's buffered output."""
        self._send_ack(epoch)

    def _send_ack(self, epoch: int) -> None:
        self.endpoint.send({"kind": "ack", "epoch": epoch}, size_bytes=64)
        trace(self.engine, "backup", "ack_sent", epoch=epoch)

    def _after_commit(self, epoch: int, message: dict) -> None:
        """Strategy hook: a checkpoint epoch just became durable.  HyCoR
        truncates the stored nondeterminism log below the flush sequence
        the checkpoint's ``log_seq`` field declares superseded."""

    def _replay_after_restore(self, container: "Container") -> Generator[Any, Any, int]:
        """Strategy hook: run between restore and bridge re-attach.

        HyCoR replays the shipped nondeterminism-log tail through the
        restored container before it goes live; NiLiCon's recovery point
        *is* the last committed checkpoint.  Returns replay time in µs.
        """
        return 0
        yield  # pragma: no cover -- generator form so overrides may yield

    def _store_pages(self, image: CheckpointImage, start: int, stop: int) -> int:
        """Store pages ``[start, stop)`` of *image*, counted in (process,
        address) order, into the page store; returns their simulated cost."""
        store_page = self.page_store.store_page
        cost = 0
        offset = 0
        for pimage in image.processes:
            pages = pimage.pages
            lo = max(start - offset, 0)
            hi = min(stop - offset, len(pages))
            offset += len(pages)
            if lo >= hi:
                continue
            pid = pimage.pid
            for page_idx, content in islice(pages.items(), lo, hi):
                cost += store_page(pid, page_idx, content)
        return cost

    def _commit_state(self, epoch: int, image: CheckpointImage) -> Generator[Any, Any, None]:
        """Commit *epoch* into the page store, component buffers and disk.

        Structured as yielding *charge* phases (where a failover may
        interrupt mid-commit — the page store's open checkpoint is then
        rolled back by :meth:`_recover`) followed by a no-yield
        *publication* section, so observers never see a half-published
        epoch: ``committed_epoch`` moves only when every store is updated.
        """
        record_access(self.engine, self.page_store, "open_checkpoint", "w",
                      site="backup.commit_begin")
        self.page_store.begin_checkpoint()
        total = image.dirty_page_count
        half = total // 2
        store_cost = self._store_pages(image, 0, half)
        if store_cost:
            yield self._charge(store_cost)
        stall = fault_point(self.engine, "backup.mid_commit", epoch=epoch)
        if stall:
            yield self.engine.timeout(stall)
        store_cost = self._store_pages(image, half, total)
        if store_cost:
            yield self._charge(store_cost)

        # Every barrier-declared write has arrived (the commit loop waited
        # on epoch_complete), so the dispatch-time counter equals what a
        # rescan of every drbd buffer would find.
        record_access(self.engine, self, "epoch_disk_writes", "w",
                      key=epoch, site="backup.disk_write_commit")
        disk_writes = self._epoch_disk_writes.pop(epoch, 0)
        if disk_writes:
            yield self._charge(
                disk_writes * self.kernel.costs.backup_disk_commit_per_block
            )

        # ---- atomic publication (no yields below this line) ----
        self._process_components = [
            {
                "pid": p.pid,
                "comm": p.comm,
                "vmas": p.vmas,
                "threads": p.threads,
                "fd_entries": p.fd_entries,
            }
            for p in image.processes
        ]
        self._sockets = image.sockets
        if image.namespaces is not None:
            self._namespaces = image.namespaces
        if image.cgroup is not None:
            self._cgroup = image.cgroup
        for meta in image.fs_inode_entries:
            self._fs_inodes[meta["path"]] = meta
        for path, page_idx, content in image.fs_page_entries:
            self._fs_pages[(path, page_idx)] = content
        for drbd in self.drbd:
            drbd.apply_epoch(epoch)
        record_access(self.engine, self.page_store, "open_checkpoint", "w",
                      site="backup.commit_publish")
        self.page_store.commit_checkpoint()
        first_commit = self.committed_epoch < self.initial_epoch
        record_access(self.engine, self, "committed_epoch", "w",
                      site="backup.commit_publish")
        # Durability-ledger write: epoch *epoch* is now fully committed.
        # The primary's barrier release for this epoch must happen-after
        # this point (its ordered read checks against exactly this record).
        record_access(self.engine, f"durable:{self.spec.name}", "epoch_commit",
                      "w", key=epoch, site="backup.commit_publish")
        self.committed_epoch = epoch
        if first_commit and self.config.detector_enabled:
            self._processes.append(self.detector.start())

    # ------------------------------------------------------------------ #
    # Failure → recovery                                                   #
    # ------------------------------------------------------------------ #
    def _on_failure_detected(self) -> None:
        if self.failed_over or self._recovering:
            # Already recovering (or recovered): a spurious re-detection —
            # e.g. a detector re-armed mid-recovery — must not launch a
            # second restore of the same container.
            return
        self._recovering = True
        self.recoveries_started += 1
        self._processes.append(
            self.engine.process(self._recover(), name="backup-recover")
        )

    def _quiesce_commits(self) -> None:
        """Abort any in-flight commit and roll the page store back to the
        last fully committed checkpoint, so the restore never assembles
        state from a half-applied epoch."""
        for process in (self._commit_process, self._dispatch_process):
            if (
                process is not None
                and process.is_alive
                and process is not self.engine.active_process
            ):
                process.interrupt("recovering")
        record_access(self.engine, self.page_store, "open_checkpoint", "w",
                      site="backup.recover.abort")
        self.page_store.abort_checkpoint()
        record_access(self.engine, self, "epoch_stash", "w",
                      site="backup.recover.clear_stash")
        self._out_of_order.clear()

    def _recover(self) -> Generator[Any, Any, None]:
        self.failed_over = True
        # Capture the recovery point *now*: this is the last fully
        # committed epoch, and the quiesce below guarantees no in-flight
        # commit can bump it while the restore is being assembled.
        record_access(self.engine, self, "committed_epoch", "r",
                      site="backup.recover")
        self.recovered_from_epoch = self.committed_epoch
        recovery_start = self.engine.now
        costs = self.kernel.costs
        trace(self.engine, "recovery", "detected", committed=self.committed_epoch)

        self._quiesce_commits()

        # Discard everything not committed (uncommitted epochs never became
        # externally visible: their output was still buffered on the primary).
        for drbd in self.drbd:
            drbd.discard_uncommitted()
        # Committed epochs were popped at commit; whatever remains counts
        # the uncommitted buffers just discarded.
        record_access(self.engine, self, "epoch_disk_writes", "w",
                      site="backup.disk_write_discard")
        self._epoch_disk_writes.clear()

        stall = fault_point(
            self.engine, "backup.mid_recover", epoch=self.committed_epoch
        )
        if stall:
            yield self.engine.timeout(stall)

        # Materialize CRIU-format image files from the committed state
        # (SSIV: "create image files in a format that CRIU expects"), then
        # restore from them — the restore path parses what the dump path
        # wrote, byte for byte.
        from repro.criu.imagefiles import read_image_files, write_image_files

        restore_start = self.engine.now
        image_files = write_image_files(self._assemble_full_state())
        image_bytes = sum(len(blob) for blob in image_files.values())
        yield self._charge(costs.page_copy_cost(image_bytes // 4096))
        state = read_image_files(image_files)
        trace(self.engine, "recovery", "images_written", bytes=image_bytes)
        container = yield from self.restore_engine.restore(self.runtime, state)
        restore_us = self.engine.now - restore_start
        trace(self.engine, "recovery", "restored", pages=state.total_pages)
        if self.auditor is not None:
            # The rebuilt kernel state must satisfy every invariant before
            # the container goes live behind the old IP.
            self.auditor.audit_restore(container)

        replay_us = yield from self._replay_after_restore(container)

        # Reconnect the namespace to the bridge, then advertise the new MAC.
        yield self._charge(costs.bridge_reconnect)
        port = self.bridge.attach(container.veth)
        arp_start = self.engine.now
        yield self._charge(costs.gratuitous_arp)
        self.bridge.gratuitous_arp(self.spec.ip, port)
        arp_us = self.engine.now - arp_start
        trace(self.engine, "recovery", "arp_announced", ip=self.spec.ip)

        container.start_keepalive()
        self.restored_container = container
        self.metrics.recovery = RecoveryBreakdown(
            restore_us=restore_us,
            arp_us=arp_us,
            reconnect_us=costs.bridge_reconnect,
            replay_us=replay_us,
            total_recovery_us=self.engine.now - recovery_start,
        )
        if self.on_failover is not None:
            self.on_failover(container)

    def _assemble_full_state(self) -> FullState:
        processes = []
        for component in self._process_components:
            processes.append(
                {
                    "comm": component["comm"],
                    "vmas": component["vmas"],
                    "pages": self.page_store.pages_of(component["pid"]),
                    "threads": component["threads"],
                    "fd_entries": component["fd_entries"],
                }
            )
        return FullState(
            spec=self.spec,
            processes=processes,
            sockets=self._sockets,
            namespaces=self._namespaces,
            cgroup=self._cgroup,
            fs_inode_entries=list(self._fs_inodes.values()),
            fs_page_entries=[
                (path, idx, content) for (path, idx), content in self._fs_pages.items()
            ],
        )
