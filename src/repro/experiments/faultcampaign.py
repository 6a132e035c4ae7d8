"""The protocol-phase fault-injection campaign.

Where :mod:`repro.experiments.validation` (§VII-A) injects fail-stop at
*random* times, this campaign sweeps the :data:`~repro.faultinject.SCENARIOS`
catalog — a fault pinned to every named injection point of the epoch
protocol, plus drop/duplicate/reorder/delay races on acks, state transfers
and heartbeats — across workloads and seeds, and evaluates the correctness
oracles (output commit, committed-epoch durability, client-session
consistency) after every cell.

The full matrix (`every scenario × ≥2 workloads × ≥5 seeds`) must report
zero violations; the reduced smoke matrix (one workload, every scenario,
3 seeds) runs in CI via ``make faultcampaign-smoke``.  Regression tests
re-run the sensitive cells under the ``ack-before-commit`` and
``release-oldest`` mutants (``tests/mutants.py``) to prove the campaign
catches the races the fixes removed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

import repro
from repro.experiments.common import build_deployment
from repro.faultinject import SCENARIOS, Scenario, evaluate_oracles
from repro.faultinject.points import (
    FAULT_POINTS,
    FLEET_FAULT_POINTS,
    verify_hook_coverage,
)
from repro.net.world import World
from repro.replication.config import NiliconConfig
from repro.sim.units import ms, sec
from repro.workloads.base import ClientStats, ServerWorkload
from repro.workloads.catalog import make_workload

__all__ = [
    "CAMPAIGN_SEEDS",
    "CAMPAIGN_WORKLOADS",
    "PhaseCellResult",
    "format_campaign",
    "run_phase_campaign",
    "run_phase_injection",
]

#: Server workloads the full matrix sweeps (clients validate every response,
#: so the client-session oracle has teeth).
CAMPAIGN_WORKLOADS = ("net-echo", "redis")
#: Seed set of the full matrix; the smoke matrix uses the first three.
CAMPAIGN_SEEDS = (101, 102, 103, 104, 105)
#: Clients start early enough to have steady-state traffic flowing through
#: the egress buffer well before the scenarios' TARGET_EPOCH (~epoch 12).
_CLIENT_START_US = ms(120)
#: Virtual run length per cell, plus a drain tail for in-flight requests.
_RUN_US = ms(1500)
_TAIL_US = sec(1)


@dataclass
class PhaseCellResult:
    """One (scenario, workload, seed) cell of the campaign matrix."""

    scenario: str
    workload: str
    seed: int
    failed_over: bool
    committed_epoch: int
    recovered_from_epoch: int | None
    client_completed: int
    violations: list[str] = field(default_factory=list)
    #: What the fault plan actually did (empty = the fault never triggered,
    #: which is itself reported as a violation).
    plan_log: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_phase_injection(
    workload_name: str,
    scenario: Scenario | str,
    seed: int,
    config: NiliconConfig | None = None,
    run_us: int = _RUN_US,
    instrument=None,
) -> PhaseCellResult:
    """Run one campaign cell and evaluate every oracle.

    *instrument* (if given) is called with the freshly built World before
    anything runs — the ftcov coverage recorder installs itself here.
    """
    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]
    world = World(seed=seed)
    if instrument is not None:
        instrument(world)
    workload = make_workload(workload_name)
    if not isinstance(workload, ServerWorkload):
        raise ValueError(
            f"phase campaign needs a server workload with validating "
            f"clients, got {workload_name!r}"
        )

    deployment = build_deployment(
        world,
        workload.spec(),
        scenario.mode,
        config=config,
        on_failover=lambda container: workload.attach(world, container),
    )
    workload.warmup(world, deployment.container)
    workload.attach(world, deployment.container)
    deployment.start()
    plan = scenario.arm(world, deployment)

    stats = ClientStats()

    def launch():
        yield world.engine.timeout(_CLIENT_START_US)
        workload.start_clients(world, stats, run_until_us=run_us)

    world.engine.process(launch())
    world.run(until=run_us + _TAIL_US)
    deployment.stop()
    plan.disarm()

    violations = evaluate_oracles(
        deployment,
        stats,
        expect_failover=scenario.expect_failover,
        expect_liveness=scenario.expect_liveness,
    )
    if not plan.log:
        violations.append(
            "fault plan never triggered (scenario did not exercise its window)"
        )
    return PhaseCellResult(
        scenario=scenario.name,
        workload=workload_name,
        seed=seed,
        failed_over=deployment.failed_over,
        committed_epoch=deployment.backup_agent.committed_epoch,
        recovered_from_epoch=deployment.backup_agent.recovered_from_epoch,
        client_completed=stats.completed,
        violations=violations,
        plan_log=list(plan.log),
    )


def run_phase_campaign(
    workloads: Iterable[str] = CAMPAIGN_WORKLOADS,
    scenarios: Iterable[str] | None = None,
    seeds: Iterable[int] = CAMPAIGN_SEEDS,
    config: NiliconConfig | None = None,
    smoke: bool = False,
) -> dict:
    """Sweep the scenario × workload × seed matrix; return a JSON-able report.

    ``smoke=True`` shrinks the matrix to one workload and three seeds (the
    CI subset) while still covering every scenario — and therefore every
    declared injection point.
    """
    workload_list = [CAMPAIGN_WORKLOADS[0]] if smoke else list(workloads)
    seed_list = list(seeds)[:3] if smoke else list(seeds)
    scenario_list = list(scenarios) if scenarios is not None else list(SCENARIOS)

    cells: list[PhaseCellResult] = []
    for scenario_name in scenario_list:
        for workload_name in workload_list:
            for seed in seed_list:
                cells.append(
                    run_phase_injection(workload_name, scenario_name, seed, config=config)
                )

    covered = {
        point
        for name in scenario_list
        for point in SCENARIOS[name].points
    }
    source_root = Path(repro.__file__).resolve().parent
    # Fleet-controller points are exercised by the fleet campaign
    # (``repro fleet campaign``), not by the pair-level scenario catalog.
    pair_points = set(FAULT_POINTS) - set(FLEET_FAULT_POINTS)
    coverage_problems = verify_hook_coverage(source_root) + [
        f"registered point {name!r} exercised by no scenario in this run"
        for name in sorted(pair_points - covered)
        if scenarios is None  # partial sweeps legitimately skip points
    ]

    failed = [cell for cell in cells if not cell.ok]
    return {
        "matrix": {
            "scenarios": scenario_list,
            "workloads": workload_list,
            "seeds": seed_list,
            "smoke": smoke,
        },
        "cells": [asdict(cell) for cell in cells],
        "total": len(cells),
        "passed": len(cells) - len(failed),
        "failed": len(failed),
        "hook_coverage_problems": coverage_problems,
        "ok": not failed and not coverage_problems,
    }


def format_campaign(report: dict) -> str:
    """Human-readable summary of a :func:`run_phase_campaign` report."""
    lines = [
        f"{'scenario':<36}{'workload':<10}{'seed':>6}  result",
    ]
    for cell in report["cells"]:
        status = "ok" if not cell["violations"] else "FAIL"
        lines.append(
            f"{cell['scenario']:<36}{cell['workload']:<10}{cell['seed']:>6}  {status}"
        )
        for violation in cell["violations"]:
            lines.append(f"    - {violation}")
    for problem in report["hook_coverage_problems"]:
        lines.append(f"coverage: {problem}")
    lines.append(
        f"{report['passed']}/{report['total']} cells passed"
        + ("" if report["ok"] else " — CAMPAIGN FAILED")
    )
    return "\n".join(lines)
