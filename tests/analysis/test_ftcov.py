"""Tests for the recovery-path coverage analyzer's static layers.

Synthetic scope-file overrides exercise the inventory, the selfcheck and
each FTC rule in isolation (``zz_``-prefixed names keep clear of real
code); the real-tree tests pin the ISSUE acceptance criteria: the
selfcheck accounts for every failure-handling site in the package, every
``fault_point()`` call site is registered, and the real tree has no FTC
finding at all — while the ``drop-scenario`` mutant's source overlay
(``tests/mutants.py``) must raise FTC002.
"""

import textwrap
from pathlib import Path

from repro.analysis.framework import SourceTree
from repro.analysis.ftcov import (
    analyze_ftcov,
    build_ft_inventory,
    ftcov_selfcheck,
)
from tests.mutants import MUTANTS

_SCOPE = "replication/zz_scope.py"


def inventory(code, path=_SCOPE):
    sources = SourceTree.load({path: textwrap.dedent(code)})
    inv = build_ft_inventory(sources)
    return [s for s in inv.sites if s.path.endswith(path)]


def findings(code, select=None, path=_SCOPE):
    report = analyze_ftcov(
        select=select, overrides={path: textwrap.dedent(code)})
    return [f for f in report.findings if f.path.endswith(path)]


def selfcheck_problems(code, path=_SCOPE):
    sources = SourceTree.load({path: textwrap.dedent(code)})
    problems, _ = ftcov_selfcheck(sources)
    return [p for p in problems if path in p]


# --------------------------------------------------------------------------- #
# Layer 1: inventory + classification                                         #
# --------------------------------------------------------------------------- #


def test_hooked_handler_is_auto_exercised():
    (site,) = inventory(
        """
        def zz_loop(self):
            try:
                pass
            except Exception:
                coverage_mark(self.engine, "handler", "zz.recover")
        """
    )
    assert site.kind == "handler"
    assert site.hook == "zz.recover"
    assert site.broad
    assert site.ft_class == "exercised"
    assert site.accounted


def test_annotation_classifies_and_carries_why():
    (site,) = inventory(
        """
        def zz_loop(self):
            try:
                pass
            except Exception:  # ft: defensive -- model makes this dead
                return None
        """
    )
    assert site.annotated == "defensive"
    assert site.why == "model makes this dead"
    assert site.accounted


def test_narrow_handler_is_inventoried_but_not_broad():
    (site,) = inventory(
        """
        def zz_loop(self):
            try:
                pass
            except ValueError:  # ft: defensive -- parse guard
                return None
        """
    )
    assert site.kind == "handler"
    assert not site.broad


def test_point_site_checks_runtime_registry():
    good, bad = inventory(
        """
        def zz_run(engine):
            fault_point(engine, "primary.post_freeze")
            fault_point(engine, "zz.unregistered")
        """
    )
    assert good.registered is True
    assert bad.registered is False


def test_unsafe_knob_is_inventoried_with_value():
    sites = inventory(
        """
        ZZ_OK = 1
        UNSAFE_ZZ_KNOB = "crash@zz"  # ft: unsafe -- regression knob
        """
    )
    (knob,) = [s for s in sites if s.kind == "knob"]
    assert knob.name == "UNSAFE_ZZ_KNOB"
    assert knob.extra == "crash@zz"
    assert knob.annotated == "unsafe"
    assert not knob.accounted  # unsafe stays lint-visible


def test_deadline_bounded_wait_loop_is_not_inventoried():
    assert inventory(
        """
        def zz_wait(engine, deadline):
            while engine.now < deadline:
                yield engine.timeout(5)
        """
    ) == []


def test_loop_with_break_is_not_inventoried():
    assert inventory(
        """
        def zz_wait(engine, flag):
            while not flag.done:
                if flag.cancelled:
                    break
                yield engine.timeout(5)
        """
    ) == []


def test_deadline_free_wait_loop_needs_annotation():
    (site,) = inventory(
        """
        def zz_wait(engine, flag):
            while not flag.done:
                yield engine.timeout(5)
        """
    )
    assert site.kind == "loop"
    assert site.ft_class is None


# --------------------------------------------------------------------------- #
# Layer 1.5: selfcheck rejections                                             #
# --------------------------------------------------------------------------- #


def test_selfcheck_rejects_unknown_vocabulary():
    problems = selfcheck_problems(
        """
        def zz_wait(engine, flag):
            while not flag.done:  # ft: bogus -- not a class
                yield engine.timeout(5)
        """
    )
    assert any("unknown ft class 'bogus'" in p for p in problems)


def test_selfcheck_rejects_orphan_annotation():
    problems = selfcheck_problems(
        """
        ZZ_PLAIN = 1  # ft: defensive -- classifies nothing
        """
    )
    assert any("annotation is not on an inventoried" in p for p in problems)


def test_selfcheck_rejects_unaccounted_site():
    problems = selfcheck_problems(
        """
        def zz_loop(self):
            try:
                pass
            except Exception:
                return None
        """
    )
    assert any("unaccounted failure-handling site" in p for p in problems)


def test_selfcheck_rejects_unregistered_point_site():
    problems = selfcheck_problems(
        """
        def zz_run(engine):
            fault_point(engine, "zz.unregistered")
        """
    )
    assert any("not in the points.py registry" in p for p in problems)


def test_selfcheck_rejects_backlog_without_scenario_name():
    problems = selfcheck_problems(
        """
        def zz_wait(engine, flag):
            while not flag.done:  # ft: backlog -- someday
                yield engine.timeout(5)
        """
    )
    assert any("must name the missing scenario" in p for p in problems)


def test_selfcheck_rejects_dynamic_point_name():
    problems = selfcheck_problems(
        """
        def zz_run(engine, name):
            fault_point(engine, f"zz.{name}")
        """
    )
    assert any("not a string literal" in p for p in problems)


# --------------------------------------------------------------------------- #
# Layer 2: one positive / suppressed / annotated-negative per rule            #
# --------------------------------------------------------------------------- #


def test_ftc001_flags_swallowing_broad_except():
    (f,) = findings(
        """
        def zz_loop(self):
            try:
                pass
            except Exception:
                return None
        """,
        select=["FTC001"],
    )
    assert f.rule_id == "FTC001"
    assert "swallows" in f.message


def test_ftc001_respects_suppression():
    assert findings(
        """
        def zz_loop(self):
            try:
                pass
            except Exception:  # nlint: disable=FTC001
                return None
        """,
        select=["FTC001"],
    ) == []


def test_ftc001_reraise_and_annotation_are_negative():
    assert findings(
        """
        def zz_loop(self):
            try:
                pass
            except Exception:  # ft: defensive -- guard argued here
                return None
            try:
                pass
            except Exception:
                raise
        """,
        select=["FTC001"],
    ) == []


def test_ftc002_flags_point_registered_but_never_armed():
    (f,) = findings(
        """
        FAULT_POINTS: dict = {
            "zz.never_armed": "a point no scenario arms",
        }
        """,
        select=["FTC002"],
        path="faultinject/points.py",
    )
    assert f.rule_id == "FTC002"
    assert "zz.never_armed" in f.message


def test_ftc002_flags_unsafe_knob_even_when_annotated():
    (f,) = findings(
        """
        UNSAFE_ZZ_KNOB = "crash@zz"  # ft: unsafe -- regression knob
        """,
        select=["FTC002"],
    )
    assert "UNSAFE_ZZ_KNOB" in f.message


def test_ftc003_flags_unclaimed_declared_edge():
    hits = findings(
        """
        MEMBER_STATES = ("zz_a", "zz_b")
        MEMBER_EDGES = (
            ("zz_a", "zz_b"),
        )
        """,
        select=["FTC003"],
        path="fleet/controller.py",
    )
    assert [f.rule_id for f in hits] == ["FTC003"]
    assert "zz_a->zz_b" in hits[0].message


def test_ftc003_backlog_annotation_is_negative():
    assert findings(
        """
        MEMBER_STATES = ("zz_a", "zz_b")
        MEMBER_EDGES = (
            ("zz_a", "zz_b"),  # ft: backlog -- scenario: zz.someday
        )
        """,
        select=["FTC003"],
        path="fleet/controller.py",
    ) == []


def test_ftc004_flags_deadline_free_wait_loop():
    (f,) = findings(
        """
        def zz_wait(engine, flag):
            while not flag.done:
                yield engine.timeout(5)
        """,
        select=["FTC004"],
    )
    assert f.rule_id == "FTC004"
    assert "no deadline" in f.message


def test_ftc004_bounded_annotation_is_negative():
    assert findings(
        """
        def zz_wait(engine, flag):
            while not flag.done:  # ft: bounded -- stop() flips done
                yield engine.timeout(5)
        """,
        select=["FTC004"],
    ) == []


def test_ftc005_flags_unobservable_inject():
    (f,) = findings(
        """
        def inject_zz_failure(self, host):
            host.fail_stop()
        """,
        select=["FTC005"],
    )
    assert f.rule_id == "FTC005"
    assert "inject_zz_failure" in f.message


def test_ftc005_coverage_hook_is_negative():
    assert findings(
        """
        def inject_zz_failure(self, host):
            coverage_mark(self.engine, "inject", "zz.failure")
            host.fail_stop()
        """,
        select=["FTC005"],
    ) == []


# --------------------------------------------------------------------------- #
# Real tree                                                                   #
# --------------------------------------------------------------------------- #


def test_real_tree_selfcheck_is_clean():
    problems, dispositions = ftcov_selfcheck()
    assert problems == []
    assert len(dispositions) >= 80  # points, edges, handlers, loops, ...


def test_real_tree_every_point_site_is_registered():
    inv = build_ft_inventory(SourceTree.load())
    point_sites = [s for s in inv.sites if s.kind == "point-site"]
    assert len(point_sites) >= 13
    assert all(s.registered for s in point_sites)
    assert len(inv.registry) >= 13


def test_real_tree_every_registered_point_is_armed():
    inv = build_ft_inventory(SourceTree.load())
    registry_sites = [s for s in inv.sites if s.kind == "point"]
    assert {s.name for s in registry_sites} == inv.registry
    assert all(s.name in inv.armed_points for s in registry_sites)


def test_real_tree_findings_are_exactly_the_knob():
    assert analyze_ftcov().findings == []


def test_drop_scenario_overlay_is_ftc002():
    # The static witness of the drop-scenario mutant: an UNSAFE_* catalog
    # constant overlaid on the real scenarios module.
    report = analyze_ftcov(overrides=MUTANTS["drop-scenario"].overlay())
    assert [(f.rule_id, f.path) for f in report.findings] == [
        ("FTC002", "src/repro/faultinject/scenarios.py"),
    ]
    assert "UNSAFE_DROP_SCENARIO" in report.findings[0].message


def test_real_tree_findings_match_checked_in_baseline():
    from repro.analysis.baseline import apply_baseline, load_baseline

    baseline_file = (
        Path(__file__).resolve().parents[2] / "ftcov-baseline.json")
    baseline = load_baseline(baseline_file)
    part = apply_baseline(analyze_ftcov().findings, baseline)
    assert part.new == [], "un-baselined FTC findings: run repro ftcov lint"
    assert part.stale == [], "stale ftcov-baseline.json entries: re-freeze"
