"""Output commit and input blocking (paper §II-A, §III, §V-C).

Output path: the container veth's egress plug is closed for the whole life
of the deployment.  At each checkpoint the primary agent inserts an epoch
barrier; when the backup acknowledges epoch *k*, :meth:`release_epoch`
drains exactly the barriers (and the packets fenced before them) with
epochs up to *k* — addressed by epoch id and idempotent, so duplicated,
reordered or dropped acknowledgments can never drain a later epoch's
barrier.  The audit log records every drained barrier against its own
epoch so tests can verify the output-commit invariant mechanically; the
``release-oldest`` mutant (``tests/mutants.py``) re-creates the old
pop-the-oldest-barrier release to prove the audit catches it.

Input path: during checkpointing (and during restore on the backup),
incoming packets must not mutate container state.  Two implementations:

* ``firewall`` — stock CRIU: install iptables rules (7 ms per epoch) that
  *drop* packets; dropped SYNs stall TCP connect by seconds (§V-C).
* ``plug`` — NiLiCon: close the ingress plug (43 µs); packets buffer and
  are delivered after the checkpoint completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Literal

from repro.kernel.costmodel import CostModel
from repro.sim.access import record_access
from repro.sim.engine import Engine
from repro.sim.trace import trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container

__all__ = ["NetworkBuffer", "ReleaseRecord"]


@dataclass
class ReleaseRecord:
    """Audit entry: the barrier of *epoch* was drained at *time*, when the
    highest backup-acknowledged epoch was *acked_epoch*.

    ``epoch`` is the *barrier's own* epoch (read off the drained barrier),
    never the epoch the caller asked to release — so the audit catches a
    release that drains the wrong barrier, not just a caller that asks for
    the wrong epoch.
    """

    epoch: int
    time: int
    acked_epoch: int
    packets: int


class NetworkBuffer:
    """Per-container output buffering and input blocking."""

    def __init__(
        self,
        engine: Engine,
        costs: CostModel,
        container: "Container",
        input_block: Literal["plug", "firewall"] = "plug",
        initial_epoch: int = 0,
        commit_ledger_kind: str = "epoch_commit",
    ) -> None:
        self.engine = engine
        self.costs = costs
        self.container = container
        self.input_block_mode = input_block
        #: Durability-ledger kind the release path asserts against:
        #: ``"epoch_commit"`` under NiLiCon (the backup's checkpoint commit
        #: authorizes release), ``"log_commit"`` under HyCoR (a durable
        #: nondeterminism-log flush does).  Barrier ids are then epoch
        #: numbers or flush sequence numbers respectively.
        self.commit_ledger_kind = commit_ledger_kind
        #: Highest epoch the backup has acknowledged (set by the primary
        #: agent's ack listener before calling release_epoch).
        self.acked_epoch = initial_epoch - 1
        #: Durability-ledger floor: an adopted container may still hold
        #: barriers of epochs its *dead* backup never committed; those
        #: drain only once the new pairing's first full checkpoint (epoch
        #: ``initial_epoch``), which supersedes them, is durable — so their
        #: ordering obligation is asserted against that epoch's commit.
        self._ledger_floor = initial_epoch
        #: Output-commit audit log.
        self.releases: list[ReleaseRecord] = []
        self._barriers_inserted = 0
        # Engage Remus buffering: the egress plug never fully opens.
        container.veth.egress_plug.plug()
        self.input_blocked = False

    # -- output ---------------------------------------------------------------
    def insert_epoch_barrier(self, epoch: int) -> None:
        record_access(self.engine, self, "egress_barrier", "w", key=epoch,
                      site="netbuffer.insert_barrier")
        self.container.veth.egress_plug.insert_barrier(epoch)
        self._barriers_inserted += 1

    def release_epoch(self, epoch: int) -> int:
        """Release buffered output through epoch *epoch*'s barrier.

        Drains every queued barrier whose epoch is <= *epoch* — by epoch
        id, idempotently: a duplicated or reordered acknowledgment for an
        already-released epoch drains nothing, and a skipped ack is healed
        by the next one (cumulative-ack semantics).  Each drained barrier
        is recorded against its *own* epoch.  Returns packets released.
        """
        plug = self.container.veth.egress_plug
        total = 0
        for barrier_epoch, released in plug.release_through(epoch):
            self._record_release(barrier_epoch, released)
            total += released
        return total

    def _record_release(self, barrier_epoch: int, packets: int) -> None:
        # Output commit (paper §II-A): draining epoch e's barrier is only
        # legal once the backup's commit of epoch e happens-before it.  The
        # ordered read asserts exactly that against the durability ledger
        # the backup agent writes at commit publication.
        record_access(self.engine, self, "egress_barrier", "w", key=barrier_epoch,
                      site="netbuffer.release_barrier")
        record_access(self.engine, f"durable:{self.container.name}",
                      self.commit_ledger_kind,
                      "r+", key=max(barrier_epoch, self._ledger_floor),
                      site="netbuffer.release_barrier")
        self.releases.append(
            ReleaseRecord(
                epoch=barrier_epoch,
                time=self.engine.now,
                acked_epoch=self.acked_epoch,
                packets=packets,
            )
        )
        trace(self.engine, "epoch", "output_released", epoch=barrier_epoch,
              packets=packets)

    def release_lag(self) -> int:
        """Barriers still queued whose epoch is already acknowledged.

        Zero in a correct implementation: an ack for epoch *k* must drain
        every barrier up to *k*.  Positive lag means acknowledged output is
        stuck behind the plug (the pop-oldest bug's other symptom)."""
        plug = self.container.veth.egress_plug
        return sum(1 for e in plug.barrier_epochs() if e <= self.acked_epoch)

    def drop_unreleased_output(self) -> int:
        """Failover: unacknowledged output must die with the primary."""
        return len(self.container.veth.egress_plug.drop_all())

    # -- input ----------------------------------------------------------------
    def block_input(self) -> Generator[Any, Any, None]:
        if self.input_blocked:
            return
        if self.input_block_mode == "plug":
            yield self.engine.timeout(self.costs.plug_block)
            self.container.veth.ingress_plug.plug()
        else:
            yield self.engine.timeout(self.costs.firewall_block)
            self.container.veth.firewall_drop_input = True
        self.input_blocked = True  # nlint: disable=RACE001 -- toggled only by the phase-sequenced epoch loop; a packet landing on the toggle instant is protocol-correct in either order (release discipline is on egress)

    def unblock_input(self) -> Generator[Any, Any, None]:
        if not self.input_blocked:
            return
        if self.input_block_mode == "plug":
            yield self.engine.timeout(self.costs.plug_unblock)
            self.container.veth.ingress_plug.unplug()
        else:
            yield self.engine.timeout(self.costs.firewall_unblock)
            self.container.veth.firewall_drop_input = False
        self.input_blocked = False

    # -- invariant check (used by tests and the validation experiment) ---------
    def audit_output_commit(self) -> list[str]:
        """Return violations of the output-commit invariant (empty = OK).

        Compares each drained barrier's *own* epoch against the
        acknowledged epoch at release time, so a release that pops the
        wrong (later) barrier is caught even when the requesting ack was
        itself legitimate.
        """
        violations = []
        for record in self.releases:
            if record.epoch > record.acked_epoch:
                violations.append(
                    f"epoch {record.epoch} output released at t={record.time} "
                    f"but backup had only acked epoch {record.acked_epoch}"
                )
        return violations
