"""Output release is epoch-addressed, cumulative and idempotent.

The pre-fix release popped the *oldest* barrier per ack, so a duplicated
ack drained a later epoch's output early and a dropped ack left
acknowledged output stuck forever.  These tests drive the NetworkBuffer
directly through ack patterns (duplicate, reorder, drop) and assert the
fixed semantics — then apply the ``release-oldest`` mutant
(``tests/mutants.py``) and assert the audit catches both legacy symptoms.
"""

from repro.replication.netbuffer import NetworkBuffer
from tests.mutants import apply_mutant

from repro.sim.units import ms


def buffer_of(deployment) -> NetworkBuffer:
    return deployment.netbuffer


def test_cumulative_release_drains_in_epoch_order(deployment):
    nb = buffer_of(deployment)
    for epoch in range(3):
        nb.insert_epoch_barrier(epoch)
    nb.acked_epoch = 1
    nb.release_epoch(1)
    assert [r.epoch for r in nb.releases] == [0, 1]
    nb.acked_epoch = 2
    nb.release_epoch(2)
    assert [r.epoch for r in nb.releases] == [0, 1, 2]
    assert nb.release_lag() == 0
    assert nb.audit_output_commit() == []


def test_duplicate_ack_releases_nothing_twice(deployment):
    nb = buffer_of(deployment)
    nb.insert_epoch_barrier(0)
    nb.insert_epoch_barrier(1)
    nb.acked_epoch = 0
    nb.release_epoch(0)
    # The duplicated/reordered ack re-asserts an already-released epoch.
    nb.release_epoch(0)
    nb.release_epoch(0)
    assert [r.epoch for r in nb.releases] == [0]
    assert nb.audit_output_commit() == []


def test_stale_ack_after_newer_one_is_inert(deployment):
    nb = buffer_of(deployment)
    for epoch in range(2):
        nb.insert_epoch_barrier(epoch)
    nb.acked_epoch = 1
    nb.release_epoch(1)
    # Epoch 0's ack arrives late (reordered); acked_epoch stays at the max.
    nb.release_epoch(0)
    assert [r.epoch for r in nb.releases] == [0, 1]


def test_dropped_ack_healed_by_next_release(deployment):
    nb = buffer_of(deployment)
    for epoch in range(3):
        nb.insert_epoch_barrier(epoch)
    # Acks for epochs 0 and 1 are lost; epoch 2's ack arrives.
    nb.acked_epoch = 2
    nb.release_epoch(2)
    assert [r.epoch for r in nb.releases] == [0, 1, 2]
    assert nb.release_lag() == 0


def test_legacy_pop_oldest_duplicate_ack_drains_wrong_epoch(deployment, monkeypatch):
    apply_mutant(monkeypatch, "release-oldest")
    nb = buffer_of(deployment)
    nb.insert_epoch_barrier(0)
    nb.insert_epoch_barrier(1)
    nb.acked_epoch = 0
    nb.release_epoch(0)
    nb.release_epoch(0)  # duplicated ack: pops epoch 1's barrier early
    assert [r.epoch for r in nb.releases] == [0, 1]
    violations = nb.audit_output_commit()
    assert violations and "epoch 1" in violations[0]


def test_legacy_pop_oldest_dropped_ack_strands_acked_output(deployment, monkeypatch):
    apply_mutant(monkeypatch, "release-oldest")
    nb = buffer_of(deployment)
    nb.insert_epoch_barrier(0)
    nb.insert_epoch_barrier(1)
    # Epoch 0's ack was dropped; only epoch 1's arrives — one pop drains
    # barrier 0 and leaves acknowledged barrier 1 queued forever.
    nb.acked_epoch = 1
    nb.release_epoch(1)
    assert [r.epoch for r in nb.releases] == [0]
    assert nb.release_lag() == 1


def test_live_run_releases_every_acked_epoch_exactly_once(world, deployment):
    deployment.start()
    world.run(until=ms(400))
    deployment.stop()
    nb = buffer_of(deployment)
    epochs = [r.epoch for r in nb.releases]
    assert epochs == sorted(set(epochs)), "double or out-of-order release"
    assert epochs and epochs == list(range(epochs[0], epochs[-1] + 1))
    assert nb.audit_output_commit() == []
    assert nb.release_lag() == 0
