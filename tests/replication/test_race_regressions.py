"""Regression proof for the two historical output-commit races.

Each test applies one of the mutants (``tests/mutants.py``) that re-create
a pre-fix behavior and asserts the happens-before detector flags the exact
broken site.  Without a mutant, the same probe must stay silent — so
these tests pin both directions of the detector's discrimination.
"""

from repro.analysis.fuzz import run_race_probe
from tests.mutants import apply_mutant

PROBE = dict(workloads=("net",), seeds=(1,), run_ms=900)


def _messages(report):
    return " || ".join(f["message"] for f in report["findings"])


def test_clean_configuration_reports_no_races():
    report = run_race_probe(**PROBE)
    assert report["ok"] is True
    assert report["findings"] == []
    assert report["audit_violations"] == []
    # The probe actually exercised the instrumented surfaces.
    assert report["accesses_recorded"] > 100


def test_ack_before_commit_race_is_detected(monkeypatch):
    """Pre-fix bug #1: the backup acked an epoch before committing it, so
    a duplicated ack could release output whose epoch was never durable."""
    apply_mutant(monkeypatch, "ack-before-commit")
    report = run_race_probe(**PROBE)
    assert report["ok"] is False
    assert report["findings"], "detector missed the ack-before-commit race"
    msgs = _messages(report)
    # The finding names the release site and the commit it never saw.
    assert "netbuffer.release_barrier" in msgs
    assert "backup.commit_publish" in msgs
    assert any(f["field"] == "epoch_commit" for f in report["findings"])


def test_release_oldest_barrier_race_is_detected(monkeypatch):
    """Pre-fix bug #2: the netbuffer released its *oldest* barrier on any
    ack instead of the acked epoch's barrier, running output ahead of the
    commit frontier."""
    apply_mutant(monkeypatch, "release-oldest")
    report = run_race_probe(**PROBE)
    assert report["ok"] is False
    checks = {f["check"] for f in report["findings"]}
    # Output released for an epoch whose commit never happened (or hadn't
    # happened yet when the packet left).
    assert checks & {
        "missing-write-for-ordered-read",
        "unordered-ordered-read",
        "write-after-unordered-read",
    }
    assert "netbuffer.release_barrier" in _messages(report)
    # The independent runtime auditor corroborates from the outside.
    assert report["audit_violations"]
    assert any("output released" in v for v in report["audit_violations"])


def test_unknown_knob_rejected(monkeypatch):
    """An unknown mutant name fails before anything is patched: neither
    fixed site is touched."""
    import pytest

    from repro.replication.backup import BackupAgent
    from repro.replication.netbuffer import NetworkBuffer

    release, receipt = NetworkBuffer.release_epoch, BackupAgent._send_receipt
    with pytest.raises(KeyError):
        apply_mutant(monkeypatch, "no-such-knob")
    assert NetworkBuffer.release_epoch is release
    assert BackupAgent._send_receipt is receipt
