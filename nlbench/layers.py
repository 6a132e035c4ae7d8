"""Which program entry points each layer's spans wrap, and the per-layer
metrics read back from the tracer, the outcome and public counters."""

from __future__ import annotations

from typing import Any

from nlbench.stats import MIN_BEYOND, samples_beyond
from nlbench.tracer import COUNT, LEAF, SpanTracer
from repro.metrics.stats import percentile

__all__ = ["LAYERS", "PROC", "install", "layer_metrics"]

#: Layers with a ``<layer>.self_s`` metric, in report order.
LAYERS = (
    "sim", "workloads.protocol", "workloads.kvstore", "kernel.mm", "kernel.tcp",
    "kernel.netdev", "kernel.fs", "kernel.blockdev", "criu.checkpoint",
    "criu.pagestore", "criu.restore", "replication.statecache",
    "replication.netbuffer", "replication.drbd", "fleet", "traffic",
)
#: Pseudo-layer of ``Process._resume``: simulated-process code outside
#: every wrapped layer.  It is part of the unattributed remainder.
PROC = "proc"


def _add(counter: str, value_of):
    def after(tracer: SpanTracer, args: tuple, result: Any) -> None:
        tracer.calls[counter] += value_of(args, result)
    return after


def install(tracer: SpanTracer) -> None:
    """Patch every layer's entry points (before the world is built, so
    bound methods captured at construction are the traced ones)."""
    from repro.criu import imagefiles
    from repro.criu.checkpoint import CheckpointEngine
    from repro.criu.collect import StateCollector
    from repro.criu.pagestore import LinkedListPageStore, RadixTreePageStore
    from repro.criu.restore import RestoreEngine
    from repro.fleet.controller import FleetController
    from repro.fleet.pool import HostPool
    from repro.kernel.blockdev import BlockDevice
    from repro.kernel.fs import FileSystem
    from repro.kernel.kernel import Kernel
    from repro.kernel.mm import AddressSpace
    from repro.kernel.netdev import Bridge, NetDevice
    from repro.kernel.tcp import TcpSocket, TcpStack
    from repro.replication import backup, statecache
    from repro.replication.drbd import BackupDrbd, PrimaryDrbd
    from repro.replication.netbuffer import NetworkBuffer
    from repro.sim.engine import Engine, Process
    from repro.traffic import proxy
    from repro.traffic.openloop import OpenLoopTraffic
    from repro.workloads import protocol
    from repro.workloads.kvstore import KvServer

    p = tracer.patch
    p(Engine, "run", "sim", "sim.Engine.run")
    p(Process, "_resume", PROC, "proc.resume")

    encoded = _add("workloads.protocol.bytes", lambda args, out: len(out))
    decoded = _add("workloads.protocol.bytes", lambda args, out: len(args[0]))
    for module in (protocol, imagefiles):
        p(module, "encode_body", "workloads.protocol", "workloads.protocol.encode", LEAF, encoded)
        p(module, "decode_body", "workloads.protocol", "workloads.protocol.decode", LEAF, decoded)
    p(KvServer, "handle_request", "workloads.kvstore", "workloads.kvstore.requests")

    p(AddressSpace, "write", "kernel.mm", "kernel.mm.writes", LEAF)
    tracer.patch_delta(AddressSpace, "write", {"kernel.mm.faults": "total_faults"})
    p(AddressSpace, "read", "kernel.mm", "kernel.mm.reads", LEAF)
    p(AddressSpace, "find_vma", "kernel.mm", "kernel.mm.find_vma_calls", COUNT)
    p(AddressSpace, "snapshot_pages", "kernel.mm", "kernel.mm.snapshot_pages")
    p(AddressSpace, "restore_pages", "kernel.mm", "kernel.mm.restore_pages")

    p(TcpStack, "transmit", "kernel.tcp", "kernel.tcp.segments", LEAF)
    p(TcpStack, "demux", "kernel.tcp", "kernel.tcp.demux", LEAF)
    p(TcpSocket, "on_packet", "kernel.tcp", "kernel.tcp.on_packet", LEAF)
    p(TcpSocket, "send", "kernel.tcp", "kernel.tcp.send", LEAF)
    p(TcpSocket, "recv", "kernel.tcp", "kernel.tcp.recv", LEAF)
    p(TcpSocket, "_retransmit_check", "kernel.tcp", "kernel.tcp.retransmit_check", LEAF)
    tracer.patch_delta(TcpSocket, "_retransmit_check",
                       {"kernel.tcp.retransmits": "retransmits"})

    p(NetDevice, "send", "kernel.netdev", "kernel.netdev.packets", LEAF)
    p(NetDevice, "receive", "kernel.netdev", "kernel.netdev.receive", LEAF)
    p(Bridge, "forward", "kernel.netdev", "kernel.netdev.forward", LEAF)

    p(FileSystem, "write", "kernel.fs", "kernel.fs.writes", LEAF)
    p(FileSystem, "read", "kernel.fs", "kernel.fs.reads", LEAF)
    p(FileSystem, "writeback", "kernel.fs", "kernel.fs.writeback",
      after=_add("kernel.fs.writeback_pages", lambda args, n: n))
    p(FileSystem, "fgetfc", "kernel.fs", "kernel.fs.fgetfc")
    p(FileSystem, "apply_fc_checkpoint", "kernel.fs", "kernel.fs.apply_fc_checkpoint")
    p(Kernel, "fs_writeback", "kernel.fs", "kernel.fs.fs_writeback")

    p(BlockDevice, "write_block", "kernel.blockdev", "kernel.blockdev.writes", LEAF)
    p(BlockDevice, "write_block_raw", "kernel.blockdev", "kernel.blockdev.write_raw", LEAF)
    p(BlockDevice, "read_block", "kernel.blockdev", "kernel.blockdev.reads", LEAF)

    p(CheckpointEngine, "checkpoint", "criu.checkpoint", "criu.checkpoint.calls",
      after=_add("criu.checkpoint.pages",
                 lambda args, image: sum(len(pi.pages) for pi in image.processes)))
    tracer.patch_class(StateCollector, "criu.checkpoint")

    for store in (RadixTreePageStore, LinkedListPageStore):
        tracer.patch_class(store, "criu.pagestore", LEAF)

    p(RestoreEngine, "restore", "criu.restore", "criu.restore.calls",
      after=_add("criu.restore.pages", lambda args, _c: args[2].total_pages))
    p(imagefiles, "write_image_files", "criu.restore", "criu.restore.write_image_files")
    p(imagefiles, "read_image_files", "criu.restore", "criu.restore.read_image_files")

    p(statecache.PageDigestCache, "digest_image", "replication.statecache",
      "replication.statecache.digest_image")
    tracer.patch_delta(statecache.PageDigestCache, "digest_image", {
        "replication.statecache.pages_digested": "pages_digested",
        "replication.statecache.cache_hits": "cache_hits",
    })
    mismatches = _add("replication.statecache.digest_mismatches", lambda args, n: n)
    for module in (statecache, backup):
        p(module, "verify_page_digests", "replication.statecache",
          "replication.statecache.verify", after=mismatches)
    p(statecache.InfrequentStateCache, "provider", "replication.statecache",
      "replication.statecache.provider")

    p(NetworkBuffer, "release_epoch", "replication.netbuffer",
      "replication.netbuffer.release", after=_add(
          "replication.netbuffer.packets_released", lambda args, n: n))
    tracer.patch_class(NetworkBuffer, "replication.netbuffer", skip=("release_epoch",))

    tracer.patch_class(PrimaryDrbd, "replication.drbd", LEAF)
    tracer.patch_class(BackupDrbd, "replication.drbd", LEAF)

    tracer.patch_class(FleetController, "fleet")
    tracer.patch_class(HostPool, "fleet", LEAF)

    for cls in (proxy.TrafficProxy, proxy._Upstream, proxy._UpstreamConn, OpenLoopTraffic):
        tracer.patch_class(cls, "traffic")


def _p50_ms(values: list[float]) -> float:
    return percentile(values, 50) / 1000 if values else 0.0


def client_latency(outcome: Any) -> dict[str, float]:
    """Client latency percentiles in sim ms, each only where at least
    ten samples lie beyond it (0 otherwise), plus the sample count."""
    out = {"client.latency_samples": outcome.latency_samples}
    for p in (50, 90, 99):
        value = 0.0
        if samples_beyond(outcome.latency_samples, p) >= MIN_BEYOND:
            if outcome.latency_pcts_us:
                value = outcome.latency_pcts_us[p] / 1000
            else:
                value = percentile(outcome.latencies_us, p) / 1000
        out[f"client.latency_ms_p{p}"] = value
    return out


def layer_metrics(tracer: SpanTracer, session: Any, outcome: Any, factor: float,
                  host_s: float, untraced_host_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced window (name -> value).

    *host_s* is the traced window's host time and *factor* scales it and
    the tracer's self times to reference-host seconds; *untraced_host_s*
    is the untraced window's time, already in reference-host seconds.
    A metric a workload does not exercise reads 0 (e.g. restore calls
    without a failover, client latency without clients)."""
    c = tracer.calls
    s = tracer.self_s
    m: dict[str, float] = {}
    m["sim.events"] = outcome.events
    m["sim.host_us_per_event"] = untraced_host_s * 1e6 / max(1, outcome.events)
    m["workloads.protocol.calls"] = (c["workloads.protocol.encode"]
                                     + c["workloads.protocol.decode"])
    m["workloads.protocol.bytes"] = c["workloads.protocol.bytes"]
    m["workloads.kvstore.requests"] = c["workloads.kvstore.requests"]
    for key in ("writes", "reads", "find_vma_calls", "faults"):
        m[f"kernel.mm.{key}"] = c[f"kernel.mm.{key}"]
    m["kernel.tcp.segments"] = c["kernel.tcp.segments"]
    m["kernel.tcp.retransmits"] = c["kernel.tcp.retransmits"]
    m["kernel.netdev.packets"] = c["kernel.netdev.packets"]
    m["kernel.fs.writes"] = c["kernel.fs.writes"]
    m["kernel.fs.writeback_pages"] = c["kernel.fs.writeback_pages"]
    m["kernel.blockdev.writes"] = c["kernel.blockdev.writes"]
    m["criu.checkpoint.calls"] = c["criu.checkpoint.calls"]
    m["criu.checkpoint.pages"] = c["criu.checkpoint.pages"]
    m["criu.pagestore.pages_stored"] = (
        c["criu.pagestore.RadixTreePageStore.store_page"]
        + c["criu.pagestore.LinkedListPageStore.store_page"])
    m["criu.restore.calls"] = c["criu.restore.calls"]
    m["criu.restore.pages"] = c["criu.restore.pages"]
    digested = c["replication.statecache.pages_digested"]
    hits = c["replication.statecache.cache_hits"]
    m["replication.statecache.pages_digested"] = digested
    m["replication.statecache.cache_hits"] = hits
    m["replication.statecache.hit_ratio"] = hits / (hits + digested) if hits + digested else 0.0
    m["replication.statecache.digest_mismatches"] = c["replication.statecache.digest_mismatches"]
    m["replication.netbuffer.packets_released"] = c["replication.netbuffer.packets_released"]
    m["replication.netbuffer.release_lag"] = max(
        (d.netbuffer.release_lag() for d in session.deployments()
         if d.netbuffer is not None and not d.failed_over), default=0)
    m["replication.drbd.disk_writes"] = c["replication.drbd.BackupDrbd.on_disk_write"]

    epochs = outcome.epochs
    m["replication.freeze_ms_p50"] = _p50_ms([e.freeze_us for e in epochs])
    m["replication.collect_ms_p50"] = _p50_ms([e.collect_us for e in epochs])
    m["replication.transfer_ms_p50"] = _p50_ms([e.sync_transfer_us for e in epochs])
    m["replication.dirty_pages_p50"] = percentile([e.dirty_pages for e in epochs], 50) if epochs else 0
    m["replication.state_kb_p50"] = (
        percentile([e.state_bytes for e in epochs], 50) / 1024 if epochs else 0.0)
    m["replication.infrequent_cache_ratio"] = (
        sum(e.infrequent_from_cache for e in epochs) / len(epochs) if epochs else 0.0)
    r = outcome.recovery
    for key in ("detection", "restore", "arp", "reconnect"):
        m[f"replication.recovery.{key}_ms"] = getattr(r, f"{key}_us") / 1000 if r else 0.0

    r_total = (r.detection_us + r.restore_us + r.arp_us + r.reconnect_us) if r else 0
    m["replication.recovery.total_ms"] = r_total / 1000
    m.update(client_latency(outcome))

    m["fleet.failovers"] = outcome.counters.get("fleet.failovers", 0)
    m["fleet.reprotects"] = outcome.counters.get("fleet.reprotects", 0)
    m["fleet.pool_load_queries"] = c["fleet.HostPool.load"]
    m["traffic.routed"] = outcome.counters.get("traffic.routed", 0)
    m["traffic.retries"] = outcome.counters.get("traffic.retries", 0)
    m["traffic.stall_ms_p99"] = outcome.counters.get("traffic.stall_ms_p99", 0.0)

    host_s *= factor
    attributed = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s[layer] * factor
        attributed += s[layer] * factor
    m["trace.host_s"] = host_s
    m["trace.untraced_host_s"] = untraced_host_s
    m["trace.overhead_s"] = host_s - untraced_host_s
    m["trace.unattributed_s"] = host_s - attributed
    m["trace.spans"] = len(tracer.spans)
    m["trace.spans_dropped"] = tracer.dropped
    return m
