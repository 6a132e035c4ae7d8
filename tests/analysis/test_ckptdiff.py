"""Tests for the differential checkpoint oracle (Layer 3).

The comparator unit tests run on synthetic classes with a synthetic
inventory; the oracle tests drive the real checkpoint -> restore ->
deep-compare loop, including the ISSUE acceptance path: a deliberately
dropped dump site must show up as a live state diff classified as a
*confirmed* CKPT101, not an analyzer bug.
"""

import pytest

from repro.analysis.ckptdiff import (
    ORACLE_WORKLOADS,
    _Comparator,
    compare_containers,
    run_oracle,
    run_oracle_suite,
)
from repro.analysis.coverage import analyze_coverage, build_inventory
from repro.analysis.framework import SourceTree
from tests.mutants import apply_mutant

# --------------------------------------------------------------------------- #
# Comparator unit tests (synthetic inventory + synthetic objects)             #
# --------------------------------------------------------------------------- #

_SYNTH_SRC = {
    "src/repro/kernel/synth.py": (
        "class Gadget:\n"
        "    def __init__(self):\n"
        "        self.value = 0\n"
        "        self.tags = {}\n"
        "        self.items = []\n"
        "        self.child = None\n"
        "        self.scratch = 0  # ckpt: ephemeral -- unit test\n"
        "        self.cache = 0  # ckpt: derived -- unit test\n"
        "    def poke(self):\n"
        "        self.value += 1\n"
        "class Child:\n"
        "    def __init__(self):\n"
        "        self.depth = 0\n"
        "    def sink(self):\n"
        "        self.depth += 1\n"
    )
}


class Child:
    def __init__(self, depth=0):
        self.depth = depth


class Gadget:
    def __init__(self, value=0, tags=None, items=None, child=None,
                 scratch=0, cache=0):
        self.value = value
        self.tags = dict(tags or {})
        self.items = list(items or [])
        self.child = child
        self.scratch = scratch
        self.cache = cache


@pytest.fixture(scope="module")
def synth_inventory():
    return build_inventory(_SYNTH_SRC)


def run_compare(inventory, a, b):
    cmp = _Comparator(inventory)
    cmp.compare_object("g", a, b)
    return cmp


def test_equal_objects_no_diffs(synth_inventory):
    cmp = run_compare(
        synth_inventory,
        Gadget(value=3, tags={"a": 1}, items=[1, 2]),
        Gadget(value=3, tags={"a": 1}, items=[1, 2]),
    )
    assert cmp.diffs == []
    assert cmp.fields_compared == 4  # value, tags, items, child


def test_scalar_diff_attributed_to_class_and_field(synth_inventory):
    cmp = run_compare(synth_inventory, Gadget(value=1), Gadget(value=2))
    assert [d.key for d in cmp.diffs] == [("Gadget", "value")]
    assert cmp.diffs[0].subject == "g.value"


def test_ephemeral_and_derived_fields_skipped(synth_inventory):
    cmp = run_compare(
        synth_inventory, Gadget(scratch=1, cache=5), Gadget(scratch=9, cache=0)
    )
    assert cmp.diffs == []


def test_dict_key_set_diff(synth_inventory):
    cmp = run_compare(
        synth_inventory, Gadget(tags={"a": 1, "b": 2}), Gadget(tags={"a": 1})
    )
    assert [d.key for d in cmp.diffs] == [("Gadget", "tags")]
    assert "'b'" in cmp.diffs[0].primary


def test_dict_value_diff_names_key_in_subject(synth_inventory):
    cmp = run_compare(
        synth_inventory, Gadget(tags={"a": 1}), Gadget(tags={"a": 2})
    )
    assert [d.key for d in cmp.diffs] == [("Gadget", "tags")]
    assert cmp.diffs[0].subject == "g.tags['a']"


def test_list_length_diff(synth_inventory):
    cmp = run_compare(synth_inventory, Gadget(items=[1]), Gadget(items=[1, 2]))
    assert [d.key for d in cmp.diffs] == [("Gadget", "items")]
    assert "len 1" in cmp.diffs[0].primary


def test_nested_object_diff_attributed_to_inner_class(synth_inventory):
    cmp = run_compare(
        synth_inventory,
        Gadget(child=Child(depth=1)),
        Gadget(child=Child(depth=2)),
    )
    assert [d.key for d in cmp.diffs] == [("Child", "depth")]
    assert cmp.diffs[0].subject == "g.child.depth"


def test_missing_attribute_reported(synth_inventory):
    a, b = Gadget(), Gadget()
    del b.value
    cmp = run_compare(synth_inventory, a, b)
    assert [d.key for d in cmp.diffs] == [("Gadget", "value")]
    assert cmp.diffs[0].restored == "<missing>"


def test_bytearray_and_deque_normalized(synth_inventory):
    from collections import deque

    cmp = run_compare(
        synth_inventory,
        Gadget(value=bytearray(b"xy"), items=deque([1, 2])),
        Gadget(value=b"xy", items=[1, 2]),
    )
    assert cmp.diffs == []


# --------------------------------------------------------------------------- #
# The live oracle                                                             #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def real_inventory():
    return build_inventory(SourceTree.load())


def test_oracle_clean_on_net_echo(real_inventory):
    result = run_oracle("net-echo", static_uncovered=set(),
                        inventory=real_inventory)
    assert result.ok, [str(d) for d in result.diffs]
    assert result.fields_compared > 100
    assert result.froze_at_us > 150_000
    summary = result.summary()
    assert summary["diffs"] == 0 and summary["workload"] == "net-echo"


def test_oracle_suite_runs_multiple_workloads(real_inventory):
    results = run_oracle_suite(
        ("disk-rw", "swaptions"), static_uncovered=set(),
        inventory=real_inventory,
    )
    assert [r.workload for r in results] == ["disk-rw", "swaptions"]
    assert all(r.ok for r in results)


def test_oracle_workload_constant_covers_each_family():
    assert set(ORACLE_WORKLOADS) == {
        "swaptions", "ssdb", "lighttpd", "net-echo", "disk-rw"
    }


def test_acceptance_dropped_dump_site_is_confirmed_gap(real_inventory, monkeypatch):
    """ISSUE acceptance, dynamic half: dropping one field's dump output
    produces a live state diff, and — because the static pass (see
    test_coverage.test_acceptance_deleted_dump_site_is_ckpt101) reports the
    same (class, field) as uncovered — it classifies as a confirmed CKPT101
    with zero analyzer bugs."""
    apply_mutant(monkeypatch, "drop-dump")
    result = run_oracle(
        "ssdb",
        static_uncovered={("Cgroup", "cpuacct_usage_us")},
        inventory=real_inventory,
    )
    assert not result.ok
    assert result.analyzer_bugs == []
    assert {d.key for d in result.confirmed_gaps} == {
        ("Cgroup", "cpuacct_usage_us")
    }
    gap = result.confirmed_gaps[0]
    assert gap.restored == "0" and gap.primary != "0"


def test_dropped_dump_site_without_static_verdict_is_analyzer_bug(real_inventory, monkeypatch):
    apply_mutant(monkeypatch, "drop-dump")
    result = run_oracle(
        "net-echo",
        static_uncovered=set(),
        inventory=real_inventory,
    )
    assert not result.ok
    assert result.confirmed_gaps == []
    assert {d.key for d in result.analyzer_bugs} == {
        ("Cgroup", "cpuacct_usage_us")
    }


def test_static_and_dynamic_verdicts_agree_end_to_end(real_inventory, monkeypatch):
    """Tie the two halves together with the analyzer's own verdicts: the
    static pass on the override-broken tree reports Cgroup.cpuacct_usage_us
    uncovered, and feeding *that* set to the oracle (under the matching
    drop-dump mutant) yields a confirmed gap."""
    from tests.analysis.test_coverage import acceptance_overrides

    uncovered = analyze_coverage(overrides=acceptance_overrides()).uncovered()
    assert ("Cgroup", "cpuacct_usage_us") in uncovered
    apply_mutant(monkeypatch, "drop-dump")
    result = run_oracle(
        "disk-rw",
        static_uncovered=uncovered,
        inventory=real_inventory,
    )
    assert not result.ok
    assert result.analyzer_bugs == []
    assert {d.key for d in result.confirmed_gaps} == {
        ("Cgroup", "cpuacct_usage_us")
    }
