"""The ack-before-commit race: recovery must quiesce in-flight commits.

A failover that overlaps a commit must restore from the last *fully*
committed epoch: the commit/dispatch loops are interrupted, the page
store's open checkpoint is rolled back, and the ack — the primary's
licence to release that epoch's output — is only ever sent post-commit.
The ``ack-before-commit`` mutant (``tests/mutants.py``) re-creates the
legacy ordering and must reproduce the lost-committed-output violation.
"""

from repro.faultinject import FaultPlan, PointFault, crash_primary
from repro.sim.units import ms
from tests.mutants import apply_mutant
from tests.replication.conftest import make_deployment

#: Stall injected into the backup's commit path, long enough for failure
#: detection (~90 ms) plus recovery to finish while the commit hangs.
STALL_US = ms(400)
#: The primary dies this long after the backup hook fires — wide enough
#: for an in-flight ack (50 µs wire latency) to land and release output.
CRASH_AFTER_US = 200
TARGET = 5


def run_mid_commit_crash(world):
    deployment = make_deployment(world)
    deployment.start()
    plan = FaultPlan(points=[
        PointFault("backup.mid_commit", epoch=TARGET, stall_us=STALL_US,
                   action=crash_primary(deployment, after_us=CRASH_AFTER_US)),
    ]).arm(world.engine)
    world.run(until=ms(1200))
    plan.disarm()
    return deployment


def test_recovery_quiesces_open_commit(world):
    deployment = run_mid_commit_crash(world)
    backup = deployment.backup_agent
    assert deployment.failed_over
    assert backup.recoveries_started == 1
    # Epoch TARGET was mid-commit when the primary died: recovery must
    # restore from TARGET-1 and the quiesce must keep it that way.
    assert backup.recovered_from_epoch == TARGET - 1
    assert backup.committed_epoch == TARGET - 1
    assert not backup.page_store.checkpoint_open
    assert backup._out_of_order == {}
    # Output commit holds: nothing beyond the recovery point escaped.
    released = [r.epoch for r in deployment.netbuffer.releases]
    assert all(epoch <= backup.recovered_from_epoch for epoch in released)
    assert deployment.audit_output_commit() == []


def test_legacy_ack_before_commit_loses_released_output(world, monkeypatch):
    apply_mutant(monkeypatch, "ack-before-commit")
    deployment = run_mid_commit_crash(world)
    backup = deployment.backup_agent
    assert deployment.failed_over
    # The ack for epoch TARGET escaped before the commit stalled, so the
    # primary released TARGET's output — but recovery could only restore
    # TARGET-1.  Committed output was lost.
    released = [r.epoch for r in deployment.netbuffer.releases]
    assert TARGET in released
    assert backup.recovered_from_epoch == TARGET - 1


def test_spurious_redetection_never_restarts_recovery(world):
    deployment = run_mid_commit_crash(world)
    backup = deployment.backup_agent
    assert backup.recoveries_started == 1
    backup._on_failure_detected()  # detector glitch after failover
    assert backup.recoveries_started == 1
