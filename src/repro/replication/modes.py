"""Pluggable replication strategy backends (the ``ReplicationMode`` registry).

:class:`~repro.replication.manager.ReplicatedDeployment` is mode-agnostic:
it asks the registered :class:`ReplicationMode` named by
``NiliconConfig.mode`` how to parameterize the network buffer and which
agent classes to construct.  Everything above the deployment — the fleet
controller, the experiment harnesses, the fault campaign — selects a
strategy purely by name, so re-protection after a failover, repair after a
backup loss and migration all re-establish whatever mode the config names.

Registered backends:

* ``stock``   — no replication; the plain-container baseline.  Built via
  :class:`repro.baselines.stock.StockDeployment` (it runs no pair
  protocol, so :func:`repro.experiments.common.build_deployment` dispatches
  it before ever consulting this registry's factories).
* ``nilicon`` — the paper's output-commit-per-epoch protocol (default).
* ``hycor``   — continuous nondeterminism-log shipping with log-commit
  release and backup-side replay (:mod:`repro.replication.hycor`).
* ``mc``      — the Remus/MC-style whole-VM baseline
  (:class:`repro.baselines.mc.McDeployment`; also not a pair-protocol
  deployment).

New modes register with :func:`register_mode`; ``repro modes list``
renders this registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.replication.backup import BackupAgent
from repro.replication.hycor import HycorBackupAgent, HycorPrimaryAgent, hycor_flush_seq
from repro.replication.primary import PrimaryAgent

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container
    from repro.replication.config import NiliconConfig

__all__ = [
    "MODE_REGISTRY",
    "ReplicationMode",
    "get_mode",
    "mode_names",
    "register_mode",
]


class ReplicationMode:
    """One replication strategy: how a deployment buffers, fences and ships.

    Subclasses override the three factory hooks; a mode with
    ``pair_protocol = False`` is a baseline built by its own deployment
    class and must never reach :class:`ReplicatedDeployment`.
    """

    #: Registry key (``NiliconConfig.mode`` / ``FleetSpec.mode`` value).
    name: str = ""
    #: One-line summary for ``repro modes list``.
    description: str = ""
    #: Whether deployments of this mode run the primary/backup pair
    #: protocol (False for the stock and MC baselines).
    pair_protocol: bool = True
    #: When external output escapes: ``immediate`` (no buffering),
    #: ``checkpoint-commit`` (NiLiCon) or ``log-commit`` (HyCoR).
    release_rule: str = "checkpoint-commit"

    def netbuffer_kwargs(
        self, config: "NiliconConfig", container: "Container", initial_epoch: int
    ) -> dict:
        """Constructor kwargs for the deployment's ``NetworkBuffer``."""
        return {
            "input_block": config.input_block,
            "initial_epoch": initial_epoch,
        }

    def make_primary_agent(self, **kwargs) -> PrimaryAgent:
        return PrimaryAgent(**kwargs)

    def make_backup_agent(self, primary_container: "Container | None" = None,
                          **kwargs) -> BackupAgent:
        """Build the backup agent; *primary_container* lets a mode read
        adoption state off the protected container (HyCoR's flush horizon)."""
        return BackupAgent(**kwargs)


MODE_REGISTRY: dict[str, ReplicationMode] = {}


def register_mode(mode: ReplicationMode) -> ReplicationMode:
    MODE_REGISTRY[mode.name] = mode
    return mode


def get_mode(name: str) -> ReplicationMode:
    try:
        return MODE_REGISTRY[name]
    except KeyError:  # ft: defensive -- config validation; unknown mode names fail fast at deployment build
        raise ValueError(
            f"unknown mode {name!r}; registered strategies: {mode_names()}"
        ) from None


def mode_names() -> list[str]:
    return list(MODE_REGISTRY)


class StockMode(ReplicationMode):
    name = "stock"
    description = "No replication: plain container, output escapes immediately."
    pair_protocol = False
    release_rule = "immediate"


class NiliconMode(ReplicationMode):
    name = "nilicon"
    description = (
        "Output commit per checkpoint epoch: egress fenced at every "
        "checkpoint, released on the backup's post-commit ack (the paper's "
        "protocol)."
    )


class HycorMode(ReplicationMode):
    name = "hycor"
    description = (
        "Continuous nondeterminism-log shipping: egress fenced per log "
        "flush, released on log commit; failover replays the shipped tail "
        "through the restored checkpoint before promoting."
    )
    release_rule = "log-commit"

    def netbuffer_kwargs(
        self, config: "NiliconConfig", container: "Container", initial_epoch: int
    ) -> dict:
        # Barriers are flush-sequence fences: the ledger floor and acked
        # watermark continue the adopted container's flush numbering (a
        # fresh container starts at flush 1), asserting against the
        # backup's log-commit ledger instead of its epoch commits.
        start_seq = hycor_flush_seq(container)
        return {
            "input_block": config.input_block,
            "initial_epoch": start_seq + 1,
            "commit_ledger_kind": "log_commit",
        }

    def make_primary_agent(self, **kwargs) -> PrimaryAgent:
        return HycorPrimaryAgent(**kwargs)

    def make_backup_agent(self, primary_container: "Container | None" = None,
                          **kwargs) -> BackupAgent:
        start_seq = 0 if primary_container is None else hycor_flush_seq(primary_container)
        return HycorBackupAgent(initial_log_seq=start_seq, **kwargs)


class McMode(ReplicationMode):
    name = "mc"
    description = (
        "Remus/MC-style whole-VM epoch replication baseline (write-protect "
        "dirty tracking; own deployment class)."
    )
    pair_protocol = False


register_mode(StockMode())
register_mode(NiliconMode())
register_mode(HycorMode())
register_mode(McMode())
