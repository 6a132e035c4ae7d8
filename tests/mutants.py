"""Named mutants: historical bugs re-created for the length of one test.

Every analyzer and every output-commit fix in this repository is proven
against a bug it must catch.  Those bugs live here, not in ``src/``: each
entry of :data:`MUTANTS` names a bug and patches one or a few named
functions of the production code to re-create it.  A test applies a
mutant for its own length only::

    def test_x(monkeypatch):
        apply_mutant(monkeypatch, "release-oldest")
        ...

    with mutant("drop-dump"):
        ...

Production code carries no flag for any of them.  Where a bug also has a
static witness, :attr:`Mutant.overlay` returns the source overrides that
re-create it on the analyzed tree (``analyze_*(overrides=...)``), so each
seeded bug is caught twice: once by an analyzer on the overlaid source and
once by a dynamic probe under the patch.

Probe one mutant's tests with ``pytest -k``, e.g.
``pytest tests -k "legacy or race_is_detected"`` for the two races.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import pytest

import repro

__all__ = ["MUTANTS", "Mutant", "apply_mutant", "mutant"]

#: The scenario the ``drop-scenario`` mutant removes from the pair catalog:
#: the only one arming ``backup.mid_commit``.
DROPPED_SCENARIO = "crash@backup.mid_commit"

_SRC = Path(repro.__file__).resolve().parent


@dataclass(frozen=True)
class Mutant:
    """One named bug: what it patches and how (``install``'s docstring
    says what the bug was)."""

    name: str
    #: ``module:attribute`` paths the patch replaces.
    targets: tuple[str, ...]
    install: Callable[[pytest.MonkeyPatch], None]
    #: Source overrides (package-relative path -> text) re-creating the
    #: bug for the static analyzers, if it has a static witness.
    overlay: Callable[[], dict[str, str]] | None = None


MUTANTS: dict[str, Mutant] = {}


def _register(name: str, targets: tuple[str, ...],
              overlay: Callable[[], dict[str, str]] | None = None):
    def decorate(install):
        MUTANTS[name] = Mutant(name, targets, install, overlay)
        return install
    return decorate


def _lookup(name: str) -> Mutant:
    try:
        return MUTANTS[name]
    except KeyError:
        raise KeyError(f"unknown mutant {name!r}; have {sorted(MUTANTS)}") from None


def apply_mutant(monkeypatch: pytest.MonkeyPatch, name: str) -> None:
    """Install mutant *name* until *monkeypatch* undoes it (test teardown)."""
    _lookup(name).install(monkeypatch)


@contextlib.contextmanager
def mutant(name: str) -> Iterator[Mutant]:
    """Install mutant *name* for the body of a ``with`` block."""
    entry = _lookup(name)
    with pytest.MonkeyPatch.context() as monkeypatch:
        entry.install(monkeypatch)
        yield entry


def _replace_once(text: str, old: str, new: str) -> str:
    assert text.count(old) == 1, f"overlay anchor not unique: {old!r}"
    return text.replace(old, new)


# --------------------------------------------------------------------------- #
# Output-commit races                                                         #
# --------------------------------------------------------------------------- #


@_register(
    "ack-before-commit",
    ("repro.replication.backup:BackupAgent._send_receipt",
     "repro.replication.backup:BackupAgent._ack_commit",
     "repro.replication.backup:BackupAgent._quiesce_commits"),
)
def _ack_before_commit(monkeypatch):
    """The backup acked an epoch on receipt, before committing it, and
    recovery neither aborted an in-flight commit nor rolled back the page
    store."""
    from repro.replication.backup import BackupAgent

    send_receipt = BackupAgent._send_receipt

    def receipt_then_ack(self, epoch):
        send_receipt(self, epoch)
        self._send_ack(epoch)

    monkeypatch.setattr(BackupAgent, "_send_receipt", receipt_then_ack)
    monkeypatch.setattr(BackupAgent, "_ack_commit", lambda self, epoch: None)
    monkeypatch.setattr(BackupAgent, "_quiesce_commits", lambda self: None)


@_register(
    "release-oldest",
    ("repro.replication.netbuffer:NetworkBuffer.release_epoch",),
)
def _release_oldest(monkeypatch):
    """Every ack popped the oldest egress barrier, whatever epoch it
    acked."""
    from repro.replication.netbuffer import NetworkBuffer

    def pop_oldest(self, epoch):
        barrier_epoch, released = self.container.veth.egress_plug.release_oldest()
        if barrier_epoch is None:
            return 0
        self._record_release(barrier_epoch, released)
        return released

    monkeypatch.setattr(NetworkBuffer, "release_epoch", pop_oldest)


# --------------------------------------------------------------------------- #
# Nondeterminism the NDLog never sees                                         #
# --------------------------------------------------------------------------- #


def _unlogged_draw_overlay() -> dict[str, str]:
    text = (_SRC / "replication/primary.py").read_text()
    text = _replace_once(text, "from typing import TYPE_CHECKING",
                         "import random\nfrom typing import TYPE_CHECKING")
    text = _replace_once(
        text, '__all__ = ["PrimaryAgent"]\n',
        '__all__ = ["PrimaryAgent"]\n\n'
        "_UNLOGGED_RNG = random.Random()  # nd: unsafe -- unlogged-draw mutant\n",
    )
    text = _replace_once(
        text, "        epoch = self.epoch\n        stop_start",
        "        epoch = self.epoch\n"
        "        yield self.engine.timeout(\n"
        "            1 + int(_UNLOGGED_RNG.random() * 20_000)  # nd: unsafe -- mutant\n"
        "        )\n"
        "        stop_start",
    )
    return {"replication/primary.py": text}


@_register(
    "unlogged-draw",
    ("repro.replication.primary:PrimaryAgent._checkpoint_cycle",),
    overlay=_unlogged_draw_overlay,
)
def _unlogged_draw(monkeypatch):
    """The primary stretched each epoch by a draw from a generator outside
    the RngRegistry, so the NDLog never saw it."""
    from repro.replication.primary import PrimaryAgent

    cycle = PrimaryAgent._checkpoint_cycle
    # Seeded so a test is reproducible, and shared by every run in it: a
    # record run and its replay draw different values, which is the bug.
    rng = random.Random(0)

    def cycle_after_draw(self, incremental):
        # Up to 20 ms, comparable to the epoch itself, so record and
        # replay order events differently.
        yield self.engine.timeout(1 + int(rng.random() * 20_000))
        yield from cycle(self, incremental)

    monkeypatch.setattr(PrimaryAgent, "_checkpoint_cycle", cycle_after_draw)


# --------------------------------------------------------------------------- #
# Performance reference                                                       #
# --------------------------------------------------------------------------- #


@_register(
    "unoptimized-digest",
    ("repro.replication.primary:PageDigestCache",),
)
def _unoptimized_digest(monkeypatch):
    """The primary re-hashed its whole resident set every epoch instead of
    the dirty pages only (the bench's reference implementation)."""
    from repro.analysis.perfbench import RehashEverythingDigestCache
    from repro.replication import primary

    monkeypatch.setattr(primary, "PageDigestCache", RehashEverythingDigestCache)


# --------------------------------------------------------------------------- #
# Coverage gaps                                                               #
# --------------------------------------------------------------------------- #


@_register(
    "drop-dump",
    ("repro.criu.collect:StateCollector.collect_infrequent",),
)
def _drop_dump(monkeypatch):
    """The infrequent-state dump lost ``cgroup.cpuacct_usage_us``, so a
    restored container reads 0."""
    from repro.criu.collect import StateCollector

    collect = StateCollector.collect_infrequent

    def collect_without_cpuacct(self, container):
        components = yield from collect(self, container)
        components["cgroup"].pop("cpuacct_usage_us", None)
        return components

    monkeypatch.setattr(StateCollector, "collect_infrequent",
                        collect_without_cpuacct)


def _drop_scenario_overlay() -> dict[str, str]:
    text = (_SRC / "faultinject/scenarios.py").read_text()
    return {"faultinject/scenarios.py": text + (
        f'\n\nUNSAFE_DROP_SCENARIO = "{DROPPED_SCENARIO}"'
        "  # ft: unsafe -- drop-scenario mutant\n"
    )}


@_register(
    "drop-scenario",
    ("repro.faultinject.scenarios:scenario_names",),
    overlay=_drop_scenario_overlay,
)
def _drop_scenario(monkeypatch):
    """The pair catalog skipped :data:`DROPPED_SCENARIO`, the only
    scenario arming its fault point."""
    from repro.faultinject import scenarios

    names = scenarios.scenario_names
    monkeypatch.setattr(
        scenarios, "scenario_names",
        lambda: [n for n in names() if n != DROPPED_SCENARIO],
    )
