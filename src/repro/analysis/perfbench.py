"""Perf analyzer Layer 3: deterministic profiling + the benchmark gate.

Two jobs, deliberately separated:

* **Profiling is deterministic.**  :func:`run_profiled_deployment` runs a
  catalog workload with a :class:`~repro.sim.profiler.SimProfiler`
  installed and returns pure *work counters* (events dispatched, pages
  written/digested/stored, bytes hashed) — never wall-clock readings — so
  two same-seed runs produce identical counter digests.  :func:`crossref`
  then holds every static PERF finding to account: a finding whose
  subsystem's counters actually ran hot is **confirmed-hot**, one whose
  counters stayed cold is **downgraded** (the name-based call graph
  over-approximates; the profiler is the semantic backstop).
* **Benchmarking is wall-clock.**  :func:`run_perf_bench` measures
  events/sec and pages-digested/sec on catalog workloads, times the fleet
  campaign, and records the before/after of each landed optimization
  (engine run() fast path vs the legacy peek/step loop, the page-digest
  cache vs the :class:`RehashEverythingDigestCache` reference,
  the host-pool occupancy index vs the ``_load_scan`` reference,
  the wire decoder vs whole-frame ``ast.literal_eval``).
  The result is ``BENCH_engine.json``; :func:`check_bench` is the CI gate
  that fails on a >20% events/sec regression against it.

The wall clock is banned from ``src`` by DET001 (seed replay); the single
suppressed :func:`_wall` call below is this module's only exemption, and
its readings influence *report output only* — never simulated state, never
profiler counters.
"""

from __future__ import annotations

import json
import statistics
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.analysis.linter import Finding
from repro.kernel.costmodel import PAGE_SIZE
from repro.replication.statecache import PageDigestCache
from repro.sim.profiler import counter_digest, install_profiler
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.criu.images import CheckpointImage

__all__ = [
    "BENCH_SCHEMA",
    "HOT_THRESHOLD",
    "PERF_BENCH_WORKLOADS",
    "ProfiledRun",
    "RehashEverythingDigestCache",
    "check_bench",
    "crossref",
    "run_perf_bench",
    "run_profiled_deployment",
    "write_bench_json",
]

BENCH_SCHEMA = "repro.bench.engine/v1"

#: Catalog workloads the full bench measures (smoke uses the first only).
PERF_BENCH_WORKLOADS = ("net", "redis", "streamcluster")


def _wall() -> float:
    """Host wall clock, for benchmark throughput numbers only."""
    return time.perf_counter()  # nlint: disable=DET001 -- bench-report timing only; never feeds simulated state or profiler counters


# --------------------------------------------------------------------------- #
# Deterministic profiled run                                                  #
# --------------------------------------------------------------------------- #


@dataclass
class ProfiledRun:
    """One profiled workload run: deterministic counters + a wall reading."""

    workload: str
    seed: int
    run_ms: int
    sim_us: int
    #: Total heap events dispatched (``engine.events``).
    events: int
    #: Wall seconds for the run loop — bench output only, NOT part of the
    #: counter set and NOT covered by :attr:`digest`.
    wall_s: float
    counters: dict[str, int]
    #: CRC32 over the sorted counter set; identical across same-seed runs.
    digest: str


def _build_deployment(workload_name: str, seed: int, config=None):
    """Fresh same-seed world + deployment, id counters rewound so pids and
    inode numbers (and with them image byte counts) replay exactly."""
    from repro.experiments.common import build_deployment
    from repro.net import World
    from repro.net.world import reset_id_counters
    from repro.workloads.catalog import make_workload

    reset_id_counters()
    world = World(seed=seed)
    workload = make_workload(workload_name)
    deployment = build_deployment(world, workload.spec(), "nilicon", config=config)
    workload.warmup(world, deployment.container)
    workload.attach(world, deployment.container)
    deployment.start()
    return world, workload, deployment


def _launch_clients(world, workload, run_ms: int) -> None:
    from repro.workloads.base import ClientStats, ServerWorkload

    if not isinstance(workload, ServerWorkload):
        return
    stats = ClientStats()

    def launch():
        yield world.engine.timeout(ms(300))
        workload.start_clients(world, stats, run_until_us=ms(run_ms))

    world.engine.process(launch())


def _harvest_deployment(profiler, deployment) -> None:
    """Fold the always-on object counters into the profiler's set."""
    mm_written = mm_snapshotted = mm_faults = 0
    for process in deployment.container.processes:
        mm_written += process.mm.pages_written
        mm_snapshotted += process.mm.pages_snapshotted
        mm_faults += process.mm.total_faults
    cache = deployment.primary_agent.digest_cache
    backup = deployment.backup_agent
    profiler.harvest(
        {
            "mm.pages_written": mm_written,
            "mm.pages_snapshotted": mm_snapshotted,
            "mm.faults": mm_faults,
            "digest.pages_digested": cache.pages_digested,
            "digest.bytes_hashed": cache.bytes_hashed,
            "digest.cache_hits": cache.cache_hits,
            "digest.verified_transfers": backup.digests_verified,
            "digest.mismatches": backup.digest_mismatches,
            "pagestore.pages_stored": backup.page_store.pages_stored,
        }
    )


def run_profiled_deployment(
    workload_name: str = "net",
    run_ms: int = 1000,
    seed: int = 1,
    config=None,
) -> ProfiledRun:
    """Run one catalog workload under the profiler; returns the counters."""
    world, workload, deployment = _build_deployment(workload_name, seed, config)
    profiler = install_profiler(world.engine)
    _launch_clients(world, workload, run_ms)
    start = _wall()
    world.run(until=ms(run_ms))
    wall_s = _wall() - start
    deployment.stop()
    _harvest_deployment(profiler, deployment)
    counters = profiler.snapshot()
    return ProfiledRun(
        workload=workload_name,
        seed=seed,
        run_ms=run_ms,
        sim_us=world.now,
        events=counters.get("engine.events", 0),
        wall_s=wall_s,
        counters=counters,
        digest=counter_digest(counters),
    )


# --------------------------------------------------------------------------- #
# L2 <-> L3 cross-reference                                                   #
# --------------------------------------------------------------------------- #

#: Minimum observed work for a finding's subsystem to count as "ran hot".
HOT_THRESHOLD = 50

#: Finding-path suffix -> counter sites whose sum is the hotness evidence.
#: First match wins; the engine counter is the fallback for sim/ paths.
_EVIDENCE_SITES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("replication/statecache.py", ("digest.pages_digested",)),
    ("kernel/mm.py", ("mm.pages_written", "mm.pages_snapshotted")),
    ("criu/pagestore.py", ("pagestore.pages_stored",)),
    ("fleet/pool.py", ("pool.slot_ops", "pool.load_queries")),
    ("fleet/placement.py", ("pool.slot_ops", "pool.load_queries")),
    ("replication/primary.py", ("trace.epoch",)),
    ("replication/backup.py", ("trace.epoch",)),
    ("sim/", ("engine.events",)),
)


def crossref(
    findings: Sequence[Finding],
    counters: Mapping[str, int],
    threshold: int = HOT_THRESHOLD,
) -> list[dict[str, Any]]:
    """Hold each static finding to the profiled evidence.

    Returns one dict per finding: the finding's own fields plus
    ``status`` (``confirmed-hot`` / ``downgraded``), the ``evidence``
    expression and the ``observed`` work count.
    """
    out: list[dict[str, Any]] = []
    for finding in findings:
        sites = next(
            (s for suffix, s in _EVIDENCE_SITES if suffix in finding.path),
            ("engine.events",),
        )
        observed = sum(counters.get(site, 0) for site in sites)
        entry = dict(finding.as_dict())
        entry["status"] = (
            "confirmed-hot" if observed >= threshold else "downgraded"
        )
        entry["evidence"] = " + ".join(sites) + f" = {observed}"
        entry["observed"] = observed
        out.append(entry)
    return out


# --------------------------------------------------------------------------- #
# Wall-clock benches                                                          #
# --------------------------------------------------------------------------- #


def _timed_run(workload_name: str, run_ms: int, seed: int, digest_cache=None):
    """One unprofiled timed run; returns ``(deployment, events, wall_s)``.
    *digest_cache* replaces the primary agent's page-digest cache."""
    world, workload, deployment = _build_deployment(workload_name, seed)
    if digest_cache is not None:
        deployment.primary_agent.digest_cache = digest_cache
    _launch_clients(world, workload, run_ms)
    engine = world.engine
    start = _wall()
    engine.run(until=ms(run_ms))
    wall_s = _wall() - start
    deployment.stop()
    return deployment, engine.n_dispatched, wall_s


def _rate(count: int, wall_s: float) -> int:
    return int(count / wall_s) if wall_s > 0 else 0


def _ticker_engine(n_events: int):
    """A pure DES micro-bench: 8 interleaved timer processes that dispatch
    *n_events* in total, so its run time is the dispatch loop itself."""
    from repro.sim.engine import Engine

    per_process = n_events // 8
    engine = Engine()

    def ticker():
        for _ in range(per_process):
            yield engine.timeout(7)

    for _ in range(8):
        engine.process(ticker())
    return engine


#: Events in the engine-loop run paired with each workload repetition.
_REFERENCE_EVENTS = 80_000
#: Repetitions per bench workload.  Across six processes on a 2-vCPU VM
#: the max/min spread of the median ratio was 1.38/1.18/1.18
#: (net/redis/streamcluster) over three repetitions and 1.31/1.19/1.11
#: over five.
_REPETITIONS = 5


def _engine_loop_rate() -> int:
    """This host's engine-loop events/sec, measured right now: the
    reference each workload repetition's events/sec is divided by."""
    engine = _ticker_engine(_REFERENCE_EVENTS)
    start = _wall()
    engine.run()
    return _rate(engine.n_dispatched, _wall() - start)


def _bench_engine_loop(n_events: int = 240_000) -> dict[str, Any]:
    """Before/after of the Engine.run fast path (satellite optimization).

    Catalog workloads dispatch a few thousand events per run, far too few
    to time the loop above the noise floor; here each side is best-of-3
    over hundreds of thousands of :func:`_ticker_engine` events.
    """

    def measure(legacy: bool) -> tuple[int, float]:
        best = None
        events = 0
        for _ in range(3):
            engine = _ticker_engine(n_events)
            start = _wall()
            if legacy:
                while engine.peek() is not None:
                    engine.step()
            else:
                engine.run()
            wall_s = _wall() - start
            events = engine.n_dispatched
            best = wall_s if best is None else min(best, wall_s)
        return events, best

    ev_before, wall_before = measure(legacy=True)
    ev_after, wall_after = measure(legacy=False)
    before = _rate(ev_before, wall_before)
    after = _rate(ev_after, wall_after)
    return {
        "events": ev_after,
        "before_events_per_sec": before,
        "after_events_per_sec": after,
        "speedup": round(after / before, 3) if before else None,
    }


class RehashEverythingDigestCache(PageDigestCache):
    """The reference the page-digest cache is benchmarked against: every
    epoch it re-hashes the container's entire resident set, clean or not.
    Same digests and counters as the cache, except that ``cache_hits``
    stays 0."""

    #: Deliberately the re-hash-everything loop PERF002 exists to flag.
    __perf_exempt__ = True

    def digest_image(
        self, image: "CheckpointImage", processes: Iterable[Any] = ()
    ) -> dict[int, dict[int, int]]:
        self.generation += 1
        resident: dict[int, dict[int, int]] = {}
        for process in processes:
            pages = process.mm.pages
            resident[process.pid] = {idx: zlib.crc32(content) for idx, content in pages.items()}
            self.pages_digested += len(pages)
            self.bytes_hashed += len(pages) * PAGE_SIZE
        # The container is frozen, so each image page's resident CRC is its
        # digest (munmap drops a page from the dirty set with the page).
        return {
            pimage.pid: {idx: resident[pimage.pid][idx] for idx in pimage.pages}
            for pimage in image.processes
        }


def _bench_digest_cache(run_ms: int, seed: int) -> dict[str, Any]:
    """Before/after of the page-digest cache: the
    :class:`RehashEverythingDigestCache` reference re-hashes the whole
    resident set every epoch; the cache hashes dirty pages only."""
    # streamcluster has the catalog's largest resident set (55k pages) with
    # a small per-epoch dirty set — the shape the digest cache exists
    # for, and the shape where re-hash-everything hurts most.
    workload = "streamcluster"
    before_dep, _, wall_before = _timed_run(
        workload, run_ms, seed, digest_cache=RehashEverythingDigestCache()
    )
    after_dep, _, wall_after = _timed_run(workload, run_ms, seed)
    before_cache = before_dep.primary_agent.digest_cache
    after_cache = after_dep.primary_agent.digest_cache
    return {
        "workload": workload,
        "before": {
            "pages_digested": before_cache.pages_digested,
            "bytes_hashed": before_cache.bytes_hashed,
            "wall_s": round(wall_before, 4),
            "pages_digested_per_sec": _rate(
                before_cache.pages_digested, wall_before
            ),
        },
        "after": {
            "pages_digested": after_cache.pages_digested,
            "bytes_hashed": after_cache.bytes_hashed,
            "cache_hits": after_cache.cache_hits,
            "wall_s": round(wall_after, 4),
            "pages_digested_per_sec": _rate(
                after_cache.pages_digested, wall_after
            ),
        },
        # Deterministic work reduction: pages the cache did NOT re-hash.
        "work_reduction": round(
            1 - after_cache.pages_digested / before_cache.pages_digested, 3
        )
        if before_cache.pages_digested
        else None,
    }


def _bench_pool_index(queries: int = 200_000, seed: int = 1) -> dict[str, Any]:
    """Micro-bench of HostPool.load (maintained index) against the
    ``_load_scan`` reference on a campaign-shaped pool (12 members across
    6 hosts), proving equivalence along the way."""
    from repro.fleet.pool import HostPool
    from repro.net import World
    from repro.net.world import reset_id_counters

    reset_id_counters()
    world = World(seed=seed)
    pool = HostPool(world, n_hosts=6, slots_per_host=10)
    names = sorted(pool.hosts)
    for i in range(12):
        pool.allocate(f"m{i:02d}", "primary", pool.host(names[i % 6]))
        pool.allocate(f"m{i:02d}", "backup", pool.host(names[(i + 1) % 6]))
    mismatches = sum(
        1 for name in names if pool.load(name) != pool._load_scan(name)
    )
    start = _wall()
    for i in range(queries):
        pool._load_scan(names[i % 6])
    scan_wall = _wall() - start
    start = _wall()
    for i in range(queries):
        pool.load(names[i % 6])
    index_wall = _wall() - start
    return {
        "queries": queries,
        "allocations": len(pool.allocations),
        "equivalent": mismatches == 0,
        "scan_wall_s": round(scan_wall, 4),
        "index_wall_s": round(index_wall, 4),
        "speedup": round(scan_wall / index_wall, 3) if index_wall else None,
    }


def _bench_wire_decoder(frames: int = 20, seed: int = 1) -> dict[str, Any]:
    """Micro-bench of ``protocol.decode_body`` against the whole-frame
    ``ast.literal_eval`` it replaced, on catalog-redis KV frames (a
    ``BATCH`` request and its ``RESULTS`` response per pair), proving
    value-and-type equivalence along the way."""
    import ast

    from repro.net import World
    from repro.net.world import reset_id_counters
    from repro.workloads import protocol
    from repro.workloads.catalog import redis
    from repro.workloads.kvstore import KvRequestFactory

    reset_id_counters()
    server = redis()
    factory = KvRequestFactory(server, World(seed=seed), batch_size=1000)
    bodies = []
    for i in range(frames // 2):
        batch, _check, _n = factory(i)
        ops = protocol.decode_body(batch)[1]
        results = ["OK" if op == "set" else factory.shadow[key] for op, key, _ in ops]
        bodies += [batch, protocol.encode_body(("RESULTS", results))]
    equivalent = all(
        repr(protocol.decode_body(body)) == repr(ast.literal_eval(body.decode()))
        for body in bodies
    )
    start = _wall()
    for body in bodies:
        ast.literal_eval(body.decode())
    literal_eval_wall = _wall() - start
    start = _wall()
    for body in bodies:
        protocol.decode_body(body)
    decoder_wall = _wall() - start
    return {
        "frames": len(bodies),
        "mean_frame_bytes": sum(map(len, bodies)) // len(bodies),
        "equivalent": equivalent,
        "literal_eval_ms_per_frame": round(literal_eval_wall * 1e3 / len(bodies), 3),
        "decoder_ms_per_frame": round(decoder_wall * 1e3 / len(bodies), 3),
        "speedup": round(literal_eval_wall / decoder_wall, 3) if decoder_wall else None,
    }


def _bench_fleet(smoke: bool, seed: int) -> dict[str, Any]:
    """Time the 12-member fleet campaign (which replays itself twice and
    checks its own trace-digest determinism)."""
    from repro.experiments.fleet import run_fleet_campaign

    start = _wall()
    report = run_fleet_campaign(seed=seed, smoke=smoke)
    wall_s = _wall() - start
    return {
        "fleet": report["fleet"],
        "ok": report["ok"],
        "deterministic": report["deterministic"],
        "digest": report["digest"],
        "trace_events": report["trace_events"],
        "wall_s": round(wall_s, 2),
        "trace_events_per_sec": _rate(report["trace_events"], wall_s),
    }


def run_perf_bench(smoke: bool = False, seed: int = 1) -> dict[str, Any]:
    """Produce the full BENCH_engine.json report dict.

    Smoke keeps the simulated run length (so workload rates stay comparable
    to the checked-in full bench) but runs one workload only — streamcluster,
    whose ~0.5 s wall time sits well above the timing noise floor — plus the
    reduced fleet campaign and smaller micro-bench iteration counts.
    """
    run_ms = 1500
    workloads = ("streamcluster",) if smoke else PERF_BENCH_WORKLOADS
    report: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "smoke": smoke,
        "seed": seed,
        "run_ms": run_ms,
        "workloads": {},
    }
    for name in workloads:
        # Best-of-N: the first run absorbs process cold-start (imports,
        # allocator warmup), and min() discards scheduler noise.  The
        # repeats double as a determinism check: same seed, so all the
        # counter digests must be identical.  Each repetition is paired
        # with an engine-loop run right after it; check_bench gates the
        # median of the ratios, so host-speed drift between the two
        # halves of one pair is all that reaches the gate.
        runs = []
        ratios = []
        for _ in range(_REPETITIONS):
            runs.append(run_profiled_deployment(name, run_ms=run_ms, seed=seed))
            ratios.append(
                _rate(runs[-1].events, runs[-1].wall_s) / _engine_loop_rate()
            )
        run = runs[0]
        wall_s = min(r.wall_s for r in runs)
        report["workloads"][name] = {
            "events": run.events,
            "sim_us": run.sim_us,
            "wall_s": round(wall_s, 4),
            "events_per_sec": _rate(run.events, wall_s),
            "pages_digested": run.counters.get("digest.pages_digested", 0),
            "pages_digested_per_sec": _rate(
                run.counters.get("digest.pages_digested", 0), wall_s
            ),
            "counter_digest": run.digest,
            "deterministic": len({r.digest for r in runs}) == 1,
            "engine_ratios": [round(r, 5) for r in ratios],
        }
    report["fleet_campaign"] = _bench_fleet(smoke, seed)
    report["optimizations"] = {
        "engine_run_fast_path": _bench_engine_loop(
            n_events=80_000 if smoke else 240_000
        ),
        "page_digest_cache": _bench_digest_cache(run_ms, seed),
        "pool_load_index": _bench_pool_index(
            queries=20_000 if smoke else 200_000, seed=seed
        ),
        "wire_decoder": _bench_wire_decoder(frames=4 if smoke else 20, seed=seed),
    }
    return report


def write_bench_json(report: Mapping[str, Any], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )


def _engine_ratio(entry: Mapping[str, Any]) -> float | None:
    """A workload's events/sec over the in-process engine-loop rate: the
    median of its paired repetitions (``engine_ratios``), else None."""
    ratios = entry.get("engine_ratios")
    return statistics.median(ratios) if ratios else None


def check_bench(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float = 0.20,
) -> list[str]:
    """The CI regression gate: events/sec may not drop more than
    *tolerance* below the checked-in BENCH_engine.json.  Returns the list
    of regression descriptions (empty = gate passes).  Only workloads
    present in both reports are compared, so smoke runs gate against the
    full bench's shared subset.

    Host speed cancels out: when both reports carry ``engine_ratios``,
    each workload is gated on the median over its repetitions of its
    events/sec *divided by* the engine-loop rate of a run paired with
    that repetition in the same process.  A host that runs everything at
    half speed passes, and a workload that slows relative to the engine
    loop on the same host fails.  Otherwise (e.g. ``perf profile``
    reports) the workload gates on raw events/sec.

    The engine-loop micro-bench is additionally gated *relatively*: the
    run() fast path must stay within *tolerance* of the legacy peek/step
    loop measured in the same process.  The wire-decoder micro-bench is
    gated on correctness: it must decode every frame exactly as
    ``ast.literal_eval`` does."""
    problems: list[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, entry in current.get("workloads", {}).items():
        base = base_workloads.get(name)
        if base is None:
            continue
        ratio, base_ratio = _engine_ratio(entry), _engine_ratio(base)
        if ratio is not None and base_ratio is not None:
            if ratio < base_ratio * (1 - tolerance):
                problems.append(
                    f"{name}: {entry['events_per_sec']} events/sec is "
                    f"{ratio:.4f} of this host's engine loop, more than "
                    f"{tolerance:.0%} below the checked-in ratio "
                    f"{base_ratio:.4f}"
                )
            continue
        floor = base["events_per_sec"] * (1 - tolerance)
        if entry["events_per_sec"] < floor:
            problems.append(
                f"{name}: {entry['events_per_sec']} events/sec is more than "
                f"{tolerance:.0%} below the checked-in baseline "
                f"{base['events_per_sec']} (floor {floor:.0f})"
            )
    loop = current.get("optimizations", {}).get("engine_run_fast_path")
    if loop and loop.get("speedup") is not None:
        if loop["speedup"] < 1 - tolerance:
            problems.append(
                f"engine_run_fast_path: run() measured {loop['speedup']}x "
                f"the legacy step loop — the fast path regressed below the "
                f"{1 - tolerance:.2f}x floor"
            )
    decoder = current.get("optimizations", {}).get("wire_decoder")
    if decoder and not decoder.get("equivalent", False):
        problems.append(
            "wire_decoder: decode_body disagreed with ast.literal_eval on "
            f"{decoder.get('frames')} KV frames"
        )
    return problems
