"""Tie-break schedule fuzzing and the race-probe harness (``repro races``).

The engine orders same-timestamp events by insertion sequence — a default
the protocol must not *depend* on.  This module proves that mechanically,
from two directions:

* :func:`run_race_probe` replays short replicated runs with the
  happens-before detector installed (and a phase-pinned duplicate-ack link
  race armed, so the dangerous reorder window of the pop-oldest release
  bug is actually exercised) and reports every unordered conflicting
  access.  Tests re-create the two historical races with the
  ``ack-before-commit`` / ``release-oldest`` mutants of
  ``tests/mutants.py`` to prove the detector flags each pre-fix race.
* :func:`run_fuzz` replays each workload under N seeded deterministic
  tie-break permutations (plus a reversal) of same-timestamp orderings
  and diffs trace + metrics digests against the insertion-order baseline:
  identical digests == end-to-end schedule independence.

Permutations are context-grouped: events scheduled by one callback keep
their relative order (preserving legitimate FIFO guarantees like
per-connection packet order), while the interleaving between different
contexts at the same instant is permuted.  All randomness is splitmix-style
integer hashing seeded from the permutation index — no ``random`` module,
no entropy, fully replayable.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.races import RaceFinding, install_detector
from repro.sim.units import ms

__all__ = [
    "PermutedTieBreak",
    "ReversedTieBreak",
    "FUZZ_WORKLOADS",
    "ProbeResult",
    "format_report",
    "run_fuzz",
    "run_race_probe",
    "trace_digest",
]

#: Workloads used by the fuzzer and the golden-digest tests.  Both are
#: chosen for digest stability: ``net`` issues fixed-size echo requests
#: (no RNG draw in the request path, so no shared-stream draw-order
#: sensitivity) and ``disk-rw`` is a single process with its own stream.
FUZZ_WORKLOADS = ("net", "disk-rw")


# --------------------------------------------------------------------------- #
# Tie-break policies                                                          #
# --------------------------------------------------------------------------- #


def _splitmix32(x: int) -> int:
    """Deterministic 32-bit integer mix (splitmix64's finalizer, narrowed)."""
    x = (x + 0x9E3779B9) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & 0xFFFFFFFF
    x ^= x >> 16
    return x


class PermutedTieBreak:
    """Pseudo-random (but fully deterministic) same-timestamp ordering."""

    def __init__(self, seed: int) -> None:
        self._mix = _splitmix32(seed & 0xFFFFFFFF)

    def key(self, ctx_serial: int) -> int:
        return _splitmix32(ctx_serial ^ self._mix)


class ReversedTieBreak:
    """Later scheduling contexts fire first within a timestamp."""

    def key(self, ctx_serial: int) -> int:
        return -ctx_serial


def _schedules(permutations: int, seed: int) -> list[tuple[str, Any]]:
    """The alternate schedules one fuzz cell runs against its baseline."""
    out: list[tuple[str, Any]] = [("reversed", ReversedTieBreak())]
    for i in range(1, permutations):
        out.append((f"perm{i}", PermutedTieBreak(i * 0x9E3779B9 + seed)))
    return out


# --------------------------------------------------------------------------- #
# Digests                                                                     #
# --------------------------------------------------------------------------- #


def trace_digest(tracer) -> str:
    """Order-insensitive digest of the full trace stream.

    Events are digested as a sorted multiset of rendered lines: a schedule
    permutation may legitimately swap the emission order of two events at
    the same microsecond, but any change in *what* happened must change
    the digest.  Raw microsecond timestamps are deliberately excluded:
    the container freezer quiesces in-flight slices by *polling*, so when
    the quiesce check lands on the same microsecond as a slice completion
    the tie-break decides whether freeze pays one extra poll interval —
    a modeled physical jitter (the real CRIU freezer has it too) that
    shifts every downstream timestamp without changing protocol behavior.
    Behavioral divergence still shows: event kinds, epoch numbers, dirty
    page counts, byte/packet counts and multiplicities are all digested,
    and the companion metrics digest covers end-to-end totals.  A
    truncated tracer poisons the digest so it can never silently compare
    equal to a complete one.
    """
    lines = sorted(
        f"{e.category}|{e.name}|{sorted((k, repr(v)) for k, v in e.detail.items())}"
        for e in tracer.events
    )
    crc = 0
    for line in lines:
        crc = zlib.crc32(line.encode("utf-8"), crc)
    if tracer.dropped:
        crc = zlib.crc32(f"DROPPED:{tracer.dropped}".encode("utf-8"), crc)
    return format(crc, "08x")


def _metrics_digest(metrics: dict) -> str:
    return format(zlib.crc32(json.dumps(metrics, sort_keys=True).encode("utf-8")), "08x")


# --------------------------------------------------------------------------- #
# Instrumented run harness                                                    #
# --------------------------------------------------------------------------- #


@dataclass
class ProbeResult:
    """One instrumented run: digests, protocol counters, race findings."""

    workload: str
    seed: int
    schedule: str
    trace_digest: str
    metrics: dict
    metrics_digest: str
    findings: list[RaceFinding] = field(default_factory=list)
    audit_violations: list[str] = field(default_factory=list)
    accesses_recorded: int = 0
    trace_dropped: int = 0

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "schedule": self.schedule,
            "trace_digest": self.trace_digest,
            "metrics": self.metrics,
            "metrics_digest": self.metrics_digest,
            "findings": [f.as_dict() for f in self.findings],
            "audit_violations": self.audit_violations,
            "accesses_recorded": self.accesses_recorded,
            "trace_dropped": self.trace_dropped,
        }


def _dup_ack_plan(world, deployment):
    """Arm the pop-oldest reorder window: duplicate the ack of epoch
    TARGET-1 and hold the copy until barrier TARGET has just been inserted
    (the exact window the `_dup_ack_then_crash` campaign scenario uses).
    Harmless under the fixed cumulative release; under the
    ``release-oldest`` mutant it pops epoch TARGET's barrier with
    only TARGET-1 acknowledged — which the detector flags as an ordered
    read of a never-written commit record."""
    from repro.faultinject.plan import FaultPlan, LinkFault
    from repro.faultinject.scenarios import TARGET_EPOCH

    plan = FaultPlan(links=[
        LinkFault(kind="ack", epoch=TARGET_EPOCH - 1, mode="duplicate",
                  release_at_point="primary.post_barrier"),
    ])
    return plan.arm(world.engine)


def run_instrumented(
    workload_name: str,
    seed: int,
    run_ms: int = 900,
    config=None,
    tiebreak: Any = None,
    schedule_name: str = "fifo",
    detect: bool = True,
    arm_plan: Callable | None = None,
    max_findings: int = 200,
    ndlog: Any = None,
) -> ProbeResult:
    """One replicated run with tracer (+ detector, + optional fault plan).

    *ndlog* optionally attaches an :class:`~repro.sim.ndlog.NDLog` (record
    or replay mode) over the world's RNG streams and tie-break policy —
    the record→replay oracle in :mod:`repro.analysis.ndreplay` rides this.
    """
    from repro.experiments.common import build_deployment
    from repro.net import World
    from repro.sim.trace import install_tracer
    from repro.workloads.base import ClientStats, ServerWorkload
    from repro.workloads.catalog import make_workload

    world = World(seed=seed)
    if tiebreak is not None:
        world.engine.set_tiebreak(tiebreak)
    if ndlog is not None:
        from repro.sim.ndlog import attach_ndlog

        attach_ndlog(world, ndlog)
    tracer = install_tracer(world.engine)
    detector = install_detector(world.engine, max_findings) if detect else None

    workload = make_workload(workload_name)
    deployment = build_deployment(
        world, workload.spec(), "nilicon", config=config,
        on_failover=lambda container: workload.attach(world, container),
    )
    plan = arm_plan(world, deployment) if arm_plan is not None else None
    workload.warmup(world, deployment.container)
    workload.attach(world, deployment.container)
    deployment.start()

    stats = ClientStats()
    if isinstance(workload, ServerWorkload):

        def launch():
            yield world.engine.timeout(ms(300))
            workload.start_clients(world, stats, run_until_us=ms(run_ms))

        world.engine.process(launch())
    world.run(until=ms(run_ms))
    if ndlog is not None:
        from repro.sim.ndlog import detach_ndlog

        # Detach the moment the measured window closes: GC-finalized
        # generators schedule events at arbitrary later points, and those
        # draws must not land in (or be demanded from) the log.
        detach_ndlog(world)
    deployment.stop()
    if plan is not None:
        plan.disarm()

    m = deployment.metrics
    metrics = {
        "n_epochs": m.n_epochs,
        "packets_released": m.packets_released,
        "committed_epoch": deployment.backup_agent.committed_epoch,
        "received_epoch": deployment.backup_agent.received_epoch,
        "completed": stats.completed,
        "errors": stats.errors,
        "validation_failures": len(stats.validation_failures),
        "trace_events": len(tracer.events),
        "trace_dropped": tracer.dropped,
    }
    return ProbeResult(
        workload=workload_name,
        seed=seed,
        schedule=schedule_name,
        trace_digest=trace_digest(tracer),
        metrics=metrics,
        metrics_digest=_metrics_digest(metrics),
        findings=list(detector.findings) if detector is not None else [],
        audit_violations=deployment.audit_output_commit(),
        accesses_recorded=detector.accesses_recorded if detector is not None else 0,
        trace_dropped=tracer.dropped,
    )


# --------------------------------------------------------------------------- #
# Probe mode (happens-before detection)                                       #
# --------------------------------------------------------------------------- #


def run_race_probe(
    workloads: tuple[str, ...] = ("net",),
    seeds: tuple[int, ...] = (1, 2, 3),
    run_ms: int = 900,
) -> dict:
    """Detector sweep: each workload x seed with the reorder window armed.

    Returns a report dict; ``ok`` is True when no unordered conflicting
    access (and no output-commit audit violation) was observed.
    """
    runs = [
        run_instrumented(workload, seed, run_ms=run_ms, arm_plan=_dup_ack_plan)
        for workload in workloads
        for seed in seeds
    ]
    findings = [f for r in runs for f in r.findings]
    audit = [v for r in runs for v in r.audit_violations]
    return {
        "mode": "probe",
        "ok": not findings and not audit,
        "runs": [r.as_dict() for r in runs],
        "findings": [f.as_dict() for f in findings],
        "audit_violations": audit,
        "accesses_recorded": sum(r.accesses_recorded for r in runs),
    }


# --------------------------------------------------------------------------- #
# Fuzz mode (schedule-independence via digest diffing)                        #
# --------------------------------------------------------------------------- #


def run_fuzz(
    workloads: tuple[str, ...] = FUZZ_WORKLOADS,
    seeds: tuple[int, ...] = (1, 2, 3),
    permutations: int = 8,
    run_ms: int = 700,
    detect: bool = True,
) -> dict:
    """Replay each workload x seed under *permutations* alternate
    same-timestamp orderings and diff digests against the FIFO baseline."""
    cells = []
    divergences = []
    findings: list[RaceFinding] = []
    for workload in workloads:
        for seed in seeds:
            base = run_instrumented(workload, seed, run_ms=run_ms, detect=detect)
            findings.extend(base.findings)
            for name, tiebreak in _schedules(permutations, seed):
                alt = run_instrumented(
                    workload, seed, run_ms=run_ms, tiebreak=tiebreak,
                    schedule_name=name, detect=detect,
                )
                findings.extend(alt.findings)
                same = (
                    alt.trace_digest == base.trace_digest
                    and alt.metrics_digest == base.metrics_digest
                )
                cells.append({
                    "workload": workload,
                    "seed": seed,
                    "schedule": name,
                    "trace_digest": alt.trace_digest,
                    "metrics_digest": alt.metrics_digest,
                    "identical": same,
                })
                if not same:
                    divergences.append({
                        "workload": workload,
                        "seed": seed,
                        "schedule": name,
                        "base_trace": base.trace_digest,
                        "alt_trace": alt.trace_digest,
                        "base_metrics": base.metrics,
                        "alt_metrics": alt.metrics,
                    })
    return {
        "mode": "fuzz",
        "ok": not divergences and not findings,
        "workloads": list(workloads),
        "seeds": list(seeds),
        "permutations": permutations,
        "cells": cells,
        "divergences": divergences,
        "findings": [f.as_dict() for f in findings],
    }


# --------------------------------------------------------------------------- #
# Golden digests                                                              #
# --------------------------------------------------------------------------- #

#: Parameters pinned for the golden-digest regression baseline
#: (``tests/golden/digests.json``).  Changing them invalidates the file —
#: regenerate with ``make golden-regen`` and review the diff.
GOLDEN_RUN_MS = 600
GOLDEN_SEEDS = (1, 2)


def golden_digests(
    workloads: tuple[str, ...] = FUZZ_WORKLOADS,
    seeds: tuple[int, ...] = GOLDEN_SEEDS,
    run_ms: int = GOLDEN_RUN_MS,
) -> dict:
    """Per-(workload, seed) trace/metrics digests at the pinned parameters.

    The committed copy under ``tests/golden/`` makes *any* behavioral
    change to the replication pipeline visible in review: an innocent
    refactor must reproduce these digests bit-for-bit; an intentional
    change regenerates them and the diff shows exactly which cells moved.
    """
    out: dict = {"run_ms": run_ms}
    for workload in workloads:
        for seed in seeds:
            result = run_instrumented(workload, seed, run_ms=run_ms, detect=False)
            out[f"{workload}/seed{seed}"] = {
                "trace": result.trace_digest,
                "metrics": result.metrics_digest,
                "metrics_detail": result.metrics,
            }
    return out


def write_golden(path: str) -> None:
    """Regenerate the golden digest file (the ``make golden-regen`` target)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden_digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------- #
# Rendering                                                                   #
# --------------------------------------------------------------------------- #


def format_report(report: dict) -> str:
    lines = []
    if report["mode"] == "probe":
        lines.append(
            f"race probe: {len(report['runs'])} run(s), "
            f"{report['accesses_recorded']} accesses tracked"
        )
        for f in report["findings"]:
            lines.append(f"  RACE {f['check']}: {f['message']}")
        for v in report["audit_violations"]:
            lines.append(f"  AUDIT {v}")
        lines.append(
            "no unordered conflicting accesses." if report["ok"]
            else f"{len(report['findings'])} race finding(s), "
                 f"{len(report['audit_violations'])} audit violation(s)."
        )
    else:
        lines.append(
            f"schedule fuzz: {len(report['cells'])} permuted run(s) over "
            f"{'/'.join(report['workloads'])} x seeds {report['seeds']} "
            f"({report['permutations']} schedules each)"
        )
        for d in report["divergences"]:
            lines.append(
                f"  DIVERGED {d['workload']} seed={d['seed']} "
                f"schedule={d['schedule']}: trace {d['base_trace']} -> "
                f"{d['alt_trace']}; metrics {d['base_metrics']} -> "
                f"{d['alt_metrics']}"
            )
        for f in report["findings"]:
            lines.append(f"  RACE {f['check']}: {f['message']}")
        lines.append(
            "all digests identical; no races under any schedule."
            if report["ok"] else
            f"{len(report['divergences'])} divergence(s), "
            f"{len(report['findings'])} race finding(s)."
        )
    return "\n".join(lines)
