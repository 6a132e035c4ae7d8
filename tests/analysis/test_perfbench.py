"""Tests for perf Layer 3: deterministic profiling, the L2<->L3
cross-reference, and the benchmark regression gate.

The load-bearing property is acceptance: two same-seed profiled runs
must produce *identical* counter digests.  The cross-reference tests pin
the digest regression end to end — the ``unoptimized-digest`` mutant
(``tests/mutants.py``) installs the bench's re-hash-everything reference,
so on a memory-heavy workload the statecache PERF002 finding is
confirmed-hot; a short run of the page-light ``net`` workload downgrades
pool findings whose counters stayed cold.
"""

from repro.analysis.linter import Finding
from repro.analysis.perfbench import (
    HOT_THRESHOLD,
    _bench_pool_index,
    _bench_wire_decoder,
    check_bench,
    crossref,
    run_profiled_deployment,
)
from tests.mutants import mutant


def test_profiled_run_is_deterministic():
    runs = [
        run_profiled_deployment("net", run_ms=300, seed=1) for _ in range(2)
    ]
    assert runs[0].digest == runs[1].digest
    assert runs[0].counters == runs[1].counters
    assert runs[0].events == runs[1].events > 0


def test_profiled_digest_tracks_work_done():
    # Catalog workloads draw no randomness (seed feeds fault injection
    # only), so sensitivity is tested by run length: a longer run does
    # strictly more work and must change the digest.
    a = run_profiled_deployment("net", run_ms=300, seed=1)
    b = run_profiled_deployment("net", run_ms=600, seed=1)
    assert b.events > a.events
    assert a.digest != b.digest


def test_profiled_counters_cover_every_subsystem():
    run = run_profiled_deployment("net", run_ms=400, seed=1)
    c = run.counters
    assert c["engine.events"] == run.events
    # The replication pipeline ran: epochs traced, pages written/digested,
    # images stored, digests verified on the backup.
    assert c.get("trace.epoch", 0) > 0
    assert c.get("mm.pages_written", 0) > 0
    assert c.get("digest.pages_digested", 0) > 0
    assert c.get("pagestore.pages_stored", 0) > 0


def test_unoptimized_digest_knob_is_confirmed_hot():
    # The statecache PERF002 debt is paid (the real tree lints clean), so
    # the L2<->L3 contract is pinned with a synthetic finding at the same
    # site: under the re-hash-everything reference, the profiler's digest
    # counters must confirm a statecache finding as hot.
    finding = Finding(
        rule_id="PERF002",
        path="src/repro/replication/statecache.py",
        line=1,
        col=0,
        message="synthetic",
        severity="warning",
    )
    with mutant("unoptimized-digest"):
        run = run_profiled_deployment("lighttpd", run_ms=400, seed=1)
    entries = crossref([finding], run.counters)
    assert all(e["status"] == "confirmed-hot" for e in entries)
    assert all(e["observed"] >= HOT_THRESHOLD for e in entries)
    assert all("digest.pages_digested" in e["evidence"] for e in entries)


def test_knob_rehashes_more_pages_than_default():
    with mutant("unoptimized-digest"):
        unopt = run_profiled_deployment("lighttpd", run_ms=400, seed=1)
    opt = run_profiled_deployment("lighttpd", run_ms=400, seed=1)
    assert (
        unopt.counters["digest.pages_digested"]
        > opt.counters["digest.pages_digested"]
    )


def test_crossref_downgrades_cold_findings():
    finding = Finding(
        rule_id="PERF006",
        path="src/repro/fleet/pool.py",
        line=1,
        col=0,
        message="synthetic",
        severity="warning",
    )
    entries = crossref([finding], {"pool.slot_ops": 0})
    assert entries[0]["status"] == "downgraded"
    assert entries[0]["observed"] == 0
    assert entries[0]["rule"] == "PERF006"

    hot = crossref([finding], {"pool.slot_ops": 40, "pool.load_queries": 30})
    assert hot[0]["status"] == "confirmed-hot"
    assert hot[0]["observed"] == 70


def _bench_doc(events_per_sec=40_000, speedup=1.1):
    return {
        "workloads": {
            "net": {"events_per_sec": events_per_sec},
        },
        "optimizations": {
            "engine_run_fast_path": {"speedup": speedup},
        },
    }


def test_check_bench_passes_within_tolerance():
    assert check_bench(_bench_doc(33_000), _bench_doc(40_000)) == []


def test_check_bench_flags_workload_regression():
    problems = check_bench(_bench_doc(events_per_sec=10_000),
                           _bench_doc(events_per_sec=40_000))
    assert len(problems) == 1
    assert "net" in problems[0]


def test_check_bench_flags_fast_path_regression():
    problems = check_bench(_bench_doc(speedup=0.5), _bench_doc())
    assert len(problems) == 1
    assert "engine_run_fast_path" in problems[0]


def test_check_bench_skips_workloads_missing_from_baseline():
    current = _bench_doc(events_per_sec=10_000)
    current["workloads"]["zz_new"] = {"events_per_sec": 1}
    baseline = _bench_doc(events_per_sec=10_000)
    assert check_bench(current, baseline) == []


def _paired_doc(ratios, events_per_sec=40_000):
    doc = _bench_doc(events_per_sec)
    doc["workloads"]["net"]["engine_ratios"] = ratios
    return doc


def test_check_bench_passes_when_the_whole_host_is_half_as_fast():
    # The workload rate halves with the paired engine-loop rate: the host
    # is slower, not the code, so the ratio holds although events/sec fell.
    baseline = _paired_doc([40_000 / 520_000] * 3, 40_000)
    assert check_bench(_paired_doc([20_000 / 260_000] * 3, 20_000), baseline) == []


def test_check_bench_flags_a_25_percent_drop_relative_to_the_engine_loop():
    baseline = _paired_doc([40_000 / 520_000] * 3, 40_000)
    problems = check_bench(_paired_doc([30_000 / 520_000] * 3, 40_000), baseline)
    assert len(problems) == 1
    assert "net" in problems[0] and "engine loop" in problems[0]


def test_check_bench_gates_the_median_of_the_paired_ratios():
    baseline = _paired_doc([0.10, 0.10, 0.10])
    # One repetition caught the host mid-stall: the median ignores it.
    assert check_bench(_paired_doc([0.05, 0.095, 0.11]), baseline) == []
    problems = check_bench(_paired_doc([0.07, 0.075, 0.2]), baseline)
    assert len(problems) == 1
    assert "net" in problems[0] and "0.0750" in problems[0]


def test_check_bench_gates_raw_rates_unless_both_reports_are_paired():
    # A paired ratio is never compared with a report that lacks one: the
    # gate falls back to raw events/sec on both sides.
    unpaired = _bench_doc(40_000)
    assert check_bench(_paired_doc([0.01] * 3, 36_000), unpaired) == []
    assert check_bench(unpaired, _paired_doc([0.5] * 3, 44_000)) == []
    problems = check_bench(_paired_doc([0.5] * 3, 20_000), unpaired)
    assert len(problems) == 1 and "checked-in baseline 40000" in problems[0]


def test_pool_index_matches_scan_and_wins():
    result = _bench_pool_index(queries=20_000, seed=1)
    assert result["equivalent"] is True
    assert result["speedup"] > 1.0


def test_wire_decoder_matches_literal_eval_on_kv_frames():
    result = _bench_wire_decoder(frames=2, seed=1)
    assert result["frames"] == 2 and result["equivalent"] is True
    assert result["decoder_ms_per_frame"] > 0


def test_check_bench_fails_a_non_equivalent_wire_decoder():
    doc = _bench_doc()
    doc["optimizations"]["wire_decoder"] = {"frames": 20, "equivalent": True}
    assert check_bench(doc, _bench_doc()) == []
    doc["optimizations"]["wire_decoder"]["equivalent"] = False
    problems = check_bench(doc, _bench_doc())
    assert len(problems) == 1 and "wire_decoder" in problems[0]
