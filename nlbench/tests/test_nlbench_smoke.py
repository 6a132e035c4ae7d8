"""Tiny-window smoke run of every workload: each named metric is emitted
with its unit, the oracles hold and tracing leaves the digest unchanged."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nlbench import layers, run, scenarios
from repro.sim.units import ms
from repro.traffic.openloop import TrafficProfile

ROOT = Path(__file__).resolve().parents[2]


class SmokeFleet(scenarios.FleetFailover):
    PROFILE = TrafficProfile("failover", rate_rps=120.0, requests_per_session=2,
                             think_us=ms(100), duration_us=ms(400))
    FAIL_AT_US = ms(200)
    TAIL_US = ms(1_600)
    window_us = trace_window_us = PROFILE.duration_us + TAIL_US


def tiny(cls, window_us):
    if cls is scenarios.FleetFailover:
        return SmokeFleet
    return type(f"Smoke{cls.__name__}", (cls,),
                {"window_us": window_us, "trace_window_us": window_us})


WINDOWS = {"kv-nilicon": ms(120), "compute-bigheap": ms(300),
           "fleet-failover": None, "kv-persistent": ms(300)}


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile_rule(failure: str) -> bool:
    return "samples" in failure


@pytest.mark.parametrize("name", list(WINDOWS))
def test_smoke_run_emits_every_metric(name, tmp_path):
    spec = benchmark()
    cls = tiny(scenarios.SCENARIOS[name], WINDOWS[name])

    result, failures = run.run_timed(cls, seed=3, seconds=0, import_s=0.0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["attempted"] >= 1
    # A tiny window cannot carry p90; nothing else may fail.
    assert [f for f in failures if not percentile_rule(f)] == []

    traced, traced_failures = run.run_traced(cls, seed=3, out_dir=tmp_path)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == units
    assert traced_failures == []  # includes: traced digest == untraced digest
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    self_total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert self_total + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.host_s"])
    assert metrics["sim.events"] > 0
    trace_file = tmp_path / f"{cls.name}-seed3.trace.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert {e["pid"] for e in events if e["ph"] == "X"} == {1, 2}


def test_fleet_smoke_exercises_failover_layers(tmp_path):
    traced, failures = run.run_traced(SmokeFleet, seed=5, out_dir=tmp_path)
    assert failures == []
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["criu.restore.calls"] >= 1
    assert metrics["fleet.failovers"] >= 1
    assert metrics["traffic.routed"] > 0
    assert metrics["replication.recovery.total_ms"] > 0


def tiny_digest(name: str, seed: int) -> str:
    cls = tiny(scenarios.SCENARIOS[name], WINDOWS[name])
    session = cls(seed)
    session.setup()
    session.run_window(time.perf_counter)
    return session.finish().digest


def test_same_seed_same_digest_other_seed_other_inputs():
    digests = [tiny_digest("kv-persistent", seed) for seed in (1, 1, 2)]
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("name", list(WINDOWS))
def test_same_seed_same_digest_across_hash_seeds(name):
    """Fresh interpreters with different str-hash seeds print one digest:
    no result may depend on set or dict iteration order of str keys."""
    printed = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        done = subprocess.run([sys.executable, __file__, name, "7"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        printed.append(done.stdout.strip().splitlines()[-1])
    assert printed[0].startswith("sim_digest ")
    assert printed[0] == printed[1]


def test_benchmark_json_matches_the_runner():
    spec = benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.SCENARIOS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    names = [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    for layer in layers.LAYERS:
        assert f"{layer}.self_s" in names


def test_interaction_map_covers_every_per_layer_metric():
    spec = benchmark()
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]} | set(run.SIM_ONLY)
    imap = json.loads((ROOT / "nlbench" / "interaction.json").read_text())
    assert set(imap["workloads"]) == workloads
    covered = set()
    for entry in imap["layers"]:
        covered.update(entry["metrics"])
        for target in entry["moves"]:
            assert target["metric"] in end_to_end
            assert set(target["workloads"]) <= workloads
        assert set(entry["no_change"]) <= workloads
    assert {m["name"] for m in spec["per_layer"]} <= covered


if __name__ == "__main__":
    # ``PYTHONPATH=src:. python3 nlbench/tests/test_nlbench_smoke.py
    # <workload> <seed>`` prints the digest of one tiny window.
    print(f"sim_digest {tiny_digest(sys.argv[1], int(sys.argv[2]))}")
