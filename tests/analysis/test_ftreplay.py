"""Tests for the ftcov coverage recorder, crossref and catalog runner.

The crossref gap logic is pure (counters + inventory in, gaps out), so
every gap kind is pinned on synthetic inputs; the runner tests use small
catalog subsets to keep the determinism check fast, plus the pair
catalog under the ``drop-scenario`` mutant (``tests/mutants.py``) as the
dynamic half of the two-witness story.
"""

import pytest

from repro.analysis.ftcov import FtInventory, FtSite
from repro.analysis.ftreplay import (
    FtcovRecorder,
    crossref_coverage,
    run_ftcov_record,
)
from repro.faultinject.points import FAULT_POINTS, FLEET_FAULT_POINTS
from tests.mutants import DROPPED_SCENARIO, apply_mutant


def _site(kind, name, **kw):
    return FtSite(kind=kind, path="zz.py", line=1, col=0, node=None,
                  name=name, **kw)


def _inventory():
    inv = FtInventory()
    inv.declared_edges = {"a->b", "b->c"}
    inv.claimed_edges = {"a->b"}
    for site in (
        _site("point", "zz.point", auto="exercised"),
        _site("edge", "a->b", auto="exercised"),
        _site("edge", "b->c", annotated="backlog",
              why="scenario: zz.missing"),
        _site("handler", "zz.recover", hook="zz.recover",
              auto="exercised"),
        _site("inject", "inject_zz", hook="zz.inject", auto="exercised"),
    ):
        inv.add(site)
    return inv


_FULL = {
    "point:zz.point": 5,
    "fired:zz.point": 1,
    "edge:a->b": 2,
    "handler:zz.recover": 1,
    "inject:zz.inject": 1,
}


def test_recorder_counts_and_digests_deterministically():
    a, b = FtcovRecorder(), FtcovRecorder()
    for rec in (a, b):
        rec.record("point", "zz.point")
        rec.record("point", "zz.point")
        rec.record("edge", "a->b")
    assert a.counters == {"point:zz.point": 2, "edge:a->b": 1}
    assert a.digest() == b.digest()
    assert len(a.digest()) == 8


def test_crossref_clean_when_everything_is_covered():
    report = crossref_coverage(_FULL, _inventory())
    assert report["gaps"] == []
    assert report["missing_scenarios"] == [
        {"edge": "b->c", "scenario": "zz.missing"}
    ]
    assert report["points"]["zz.point"] == {"reached": 5, "fired": 1}


@pytest.mark.parametrize("missing,expected", [
    ("point:zz.point", "point-unreached:zz.point"),
    ("fired:zz.point", "point-unfired:zz.point"),
    ("edge:a->b", "edge-unobserved:a->b"),
    ("handler:zz.recover", "handler-unentered:zz.recover"),
    ("inject:zz.inject", "inject-unused:zz.inject"),
])
def test_crossref_detects_each_gap_kind(missing, expected):
    counters = {k: v for k, v in _FULL.items() if k != missing}
    gaps = crossref_coverage(counters, _inventory())["gaps"]
    assert any(g.startswith(expected) for g in gaps)
    assert len(gaps) == 1


def test_crossref_flags_driven_backlog_edge_as_stale():
    counters = dict(_FULL, **{"edge:b->c": 1})
    report = crossref_coverage(counters, _inventory())
    assert any(g.startswith("stale-backlog:b->c") for g in report["gaps"])
    assert report["missing_scenarios"] == []


def test_crossref_flags_observed_undeclared_edge():
    counters = dict(_FULL, **{"edge:c->d": 1})
    gaps = crossref_coverage(counters, _inventory())["gaps"]
    assert any(g.startswith("undeclared-edge:c->d") for g in gaps)


def test_unknown_knob_is_rejected(monkeypatch):
    # An unknown mutant name fails before anything is patched: the pair
    # catalog the recorder walks stays whole.
    from repro.faultinject import scenarios

    names = scenarios.scenario_names
    with pytest.raises(KeyError):
        apply_mutant(monkeypatch, "zz-bogus")
    assert scenarios.scenario_names is names
    assert DROPPED_SCENARIO in scenarios.scenario_names()


def test_record_subset_is_deterministic():
    kwargs = dict(
        pair_scenarios=["crash@primary.post_freeze"],
        fleet_scenarios=["fleet.both_hosts_failstop"],
        traffic_events=[],
    )
    first = run_ftcov_record(**kwargs)
    second = run_ftcov_record(**kwargs)
    assert first["runs_ok"] and second["runs_ok"]
    assert first["counters"] == second["counters"]
    assert first["digest"] == second["digest"]


def test_drop_scenario_knob_detects_the_seeded_gap(monkeypatch):
    # The pair catalog only: the seeded gap lives in the pair registry.
    apply_mutant(monkeypatch, "drop-scenario")
    report = run_ftcov_record(fleet_scenarios=[], traffic_events=[])
    assert report["runs_ok"]
    # Among pair points, the crossref reports exactly the dropped
    # scenario's point as never fired, and no other gap.
    pair_points = set(FAULT_POINTS) - set(FLEET_FAULT_POINTS)
    pair_gaps = sorted(
        g for g in report["gaps"]
        if g.split(":", 1)[0] in ("point-unreached", "point-unfired")
        and g.split(":", 2)[1].split(" ")[0] in pair_points
    )
    expected = f"point-unfired:{DROPPED_SCENARIO.split('@', 1)[1]}"
    assert [g for g in pair_gaps if g.startswith(expected)]
    assert [g for g in pair_gaps if not g.startswith(expected)] == []
    # The catalog really was mutilated: the dropped scenario is absent.
    assert all(r["name"] != DROPPED_SCENARIO for r in report["runs"])
