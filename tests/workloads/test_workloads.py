"""Tests for the workload catalog and the restart-safe server machinery."""

import pytest

from repro.baselines.stock import StockDeployment
from repro.net import World
from repro.sim import ms, sec
from repro.workloads import protocol
from repro.workloads.base import ClientStats, ComputeWorkload, ServerWorkload
from repro.workloads.catalog import PAPER_BENCHMARKS, WORKLOADS, make_workload
from repro.workloads.clients import PipelinedClient, make_client_stack
from repro.workloads.kvstore import KvRequestFactory, KvServer
from repro.workloads.microbench import DiskRwWorkload
from repro.workloads.parsec import ParsecWorkload
from repro.workloads.webserver import WebServer, web_response


def deploy(world, workload):
    deployment = StockDeployment(world, workload.spec())
    workload.warmup(world, deployment.container)
    workload.attach(world, deployment.container)
    deployment.start()
    return deployment


class TestCatalog:
    def test_all_workloads_instantiate(self):
        for name in WORKLOADS:
            workload = make_workload(name)
            spec = workload.spec()
            assert spec.processes, name

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            make_workload("nope")

    def test_paper_benchmark_shapes(self):
        node = make_workload("node")
        assert node.n_clients == 128  # saturation requires 128 clients
        assert len(node.spec().processes) == 1
        lighttpd = make_workload("lighttpd")
        assert len(lighttpd.spec().processes) == 4
        djcms = make_workload("djcms")
        assert len(djcms.spec().processes) == 3
        redis = make_workload("redis")
        assert not redis.persistence
        ssdb = make_workload("ssdb")
        assert ssdb.persistence and ssdb.spec().mounts

    def test_workload_kwargs_forwarded(self):
        w = make_workload("streamcluster", n_threads=8)
        assert w.n_workers == 8
        assert w.spec().processes[0].n_threads == 8


class TestKvServer:
    def test_serves_batches_and_validates(self):
        world = World(seed=5)
        workload = make_workload("redis")
        deploy(world, workload)
        stats = ClientStats()
        workload.start_clients(world, stats, batch_size=20, n_requests=10)
        world.run(until=sec(1))
        assert stats.completed == 10
        assert stats.operations == 200
        assert stats.ok, stats.validation_failures[:2]

    def test_ssdb_persists_through_page_cache(self):
        world = World(seed=5)
        workload = make_workload("ssdb")
        deployment = deploy(world, workload)
        stats = ClientStats()
        workload.start_clients(world, stats, batch_size=20, n_requests=5)
        world.run(until=sec(1))
        assert stats.ok
        fs = deployment.container.mounted_filesystems()[0]
        assert fs.exists(workload.store_path)
        # The background flusher pushed data to the block device.
        assert fs.device.writes > 0

    def test_warmup_populates_all_keys(self):
        world = World(seed=5)
        workload = KvServer(name="kv", n_keys=50, value_len=64)
        deployment = StockDeployment(world, workload.spec())
        workload.warmup(world, deployment.container)
        process = deployment.container.processes[0]
        for key in range(50):
            raw = process.mm.read(workload.key_page(deployment.container, key))
            assert raw.startswith(f"k{key:06d}=init".encode())


def _kv_batch(batch_size=6, i=0):
    """One KV batch with the results a correct server returns for it."""
    factory = KvRequestFactory(KvServer(n_keys=100, value_len=24), World(seed=1), batch_size)
    store = dict(factory.shadow)
    body, check, _ops = factory(i)
    results = []
    for op, key, value in protocol.decode_body(body)[1]:
        if op == "set":
            store[key] = value
            results.append("OK")
        else:
            results.append(store[key])
    return check, results


class TestKvResponseCheck:
    def test_exact_results_accepted(self):
        check, results = _kv_batch()
        assert check(protocol.encode_body(("RESULTS", results))) is None

    def test_shifted_positions_rejected(self):
        # The right get values, but each moved ahead of its set's "OK":
        # filtering out the "OK"s and comparing the rest would accept it.
        check, results = _kv_batch()
        gets = [r for r in results if r != "OK"]
        shifted = [v for get in gets for v in (get, "OK")]
        assert sorted(shifted) == sorted(results) and shifted != results
        failure = check(protocol.encode_body(("RESULTS", shifted)))
        assert failure is not None and failure.startswith("result 0:")

    @pytest.mark.parametrize(
        "response, reason",
        [
            (b"('RESULTS', ['OK',", "undecodable"),
            (b"('RESULTS', 'OK')", "expected a list"),
            (b"('ERROR', [])", "bad response"),
            (b"\xff", "undecodable"),
        ],
    )
    def test_malformed_response_explained(self, response, reason):
        check, _results = _kv_batch()
        assert reason in check(response)

    def test_undecodable_response_is_a_validation_failure(self):
        # A garbage reply must land in the request's validation failure,
        # not escape the client process as an exception.
        world = World(seed=3)
        stack = make_client_stack(world, "garbage-srv")
        srv = stack.socket()
        srv.listen(6379)

        def server():
            conn = yield srv.accept()
            buf = b""
            body = None
            while body is None:
                buf += yield conn.recv(1 << 16)
                body, buf = protocol.peel_frame(buf)
            conn.send(protocol.frame(b"('RESULTS', [garbage"))

        world.engine.process(server(), name="garbage-server")
        factory = KvRequestFactory(KvServer(n_keys=100, value_len=24), world, 6)
        stats = ClientStats()
        client = PipelinedClient(world, stack.ip, 6379, factory, stats, n_requests=1)
        client.start()
        world.run(until=sec(1))
        assert client.done and stats.completed == 1
        assert len(stats.validation_failures) == 1
        assert stats.validation_failures[0].startswith("req 0: undecodable response")


class TestWebServer:
    def test_golden_copy_responses(self):
        world = World(seed=6)
        workload = WebServer(name="web", n_clients=4, cpu_per_request_us=200,
                             dirty_pages_per_request=5, response_len=1024,
                             heap_pages=2000, resident_pages=1000)
        deploy(world, workload)
        stats = ClientStats()
        workload.start_clients(world, stats, n_requests_per_client=5)
        world.run(until=sec(1))
        assert stats.completed == 20
        assert stats.ok, stats.validation_failures[:2]

    def test_web_response_deterministic(self):
        a = web_response("x", 3, 500)
        b = web_response("x", 3, 500)
        assert a == b and len(a) == 500
        assert web_response("x", 4, 500) != a

    def test_requests_dirty_pages(self):
        world = World(seed=6)
        workload = WebServer(name="web", n_clients=2, cpu_per_request_us=100,
                             dirty_pages_per_request=7, response_len=256,
                             heap_pages=2000, resident_pages=500)
        deployment = deploy(world, workload)
        process = deployment.container.processes[0]
        process.mm.start_tracking("soft_dirty")
        stats = ClientStats()
        workload.start_clients(world, stats, n_requests_per_client=3)
        world.run(until=sec(1))
        assert len(process.mm.dirty_pages()) >= 7


class TestParsec:
    def test_completes_and_tracks_progress(self):
        world = World(seed=7)
        workload = ParsecWorkload(name="mini", n_threads=2, resident_pages=100,
                                  dirty_pages_per_epoch=50, unit_cpu_us=100,
                                  total_units=200)
        deployment = deploy(world, workload)
        world.run(until=sec(1))
        assert workload.is_complete(deployment.container)
        assert workload.total_progress(deployment.container) == 200

    def test_parallelism_speeds_completion(self):
        def completion_time(threads):
            world = World(seed=7)
            workload = ParsecWorkload(name="mini", n_threads=threads,
                                      resident_pages=64, dirty_pages_per_epoch=10,
                                      unit_cpu_us=100, total_units=400)
            deployment = deploy(world, workload)
            while not workload.is_complete(deployment.container):
                world.run(until=world.now + ms(10))
            return world.now

        assert completion_time(4) < completion_time(1) / 2

    def test_result_signature_reflects_writes(self):
        world = World(seed=7)
        workload = ParsecWorkload(name="mini", n_threads=1, resident_pages=64,
                                  dirty_pages_per_epoch=640, unit_cpu_us=50,
                                  total_units=64)
        deployment = deploy(world, workload)
        world.run(until=sec(1))
        signature = workload.result_signature(deployment.container)
        assert any(v != b"in" and v != b"" for v in signature.values())


class TestDiskRw:
    def test_self_validation_passes_without_faults(self):
        world = World(seed=8)
        workload = DiskRwWorkload(n_regions=8)
        deployment = deploy(world, workload)
        world.run(until=ms(300))
        deployment.container.kill()
        world.run(until=world.now + ms(10))
        assert workload.operations > 100
        assert workload.errors == []


class TestSingleThreadSaturation:
    def test_single_threaded_server_uses_one_core(self):
        """Concurrent handlers on a 1-thread process serialize (Table V)."""
        world = World(seed=9)
        workload = WebServer(name="web", n_clients=8, cpu_per_request_us=500,
                             dirty_pages_per_request=1, response_len=128,
                             heap_pages=1000, resident_pages=100)
        deployment = deploy(world, workload)
        stats = ClientStats()
        workload.start_clients(world, stats, run_until_us=ms(500))
        world.run(until=ms(500))
        cpu = deployment.container.cgroup.read_cpuacct()
        # 8 concurrent clients, but <= ~1 core of CPU accumulated.
        assert cpu <= ms(500) * 1.1
        assert cpu > ms(200)  # and the core was actually busy
