"""Run one benchmark workload in this process and print its metrics.

Usage (from the repository root)::

    python3 nlbench/run.py --workload kv-nilicon --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed run: it repeats *setup + measured window* in
fresh worlds until ``--seconds`` of host time have passed (at least once),
then sets up alone until it has timed ``MIN_SETUPS`` setups, and reports
the end-to-end metrics.  Host-time ones are medians over repetitions
(``setup_s`` of the setups, ``sim_s_per_host_s`` of each window slice),
expressed in reference-host seconds by :mod:`nlbench.calibrate`.
``--trace 1`` is the traced run: one untraced and one traced pass over
the workload's trace window, each scaled by its own calibration samples,
reporting every per-layer metric and writing the spans as Chrome
trace-event JSON under ``nlbench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every check
held, 1 when one failed (the JSON still says which counts), 2 on a usage
error; without the simulator sources the import fails first.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# The simulator is imported from source; without ``src/`` the import
# below fails and the run exits non-zero before printing a result.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nlbench import layers, scenarios, stats  # noqa: E402
from nlbench.calibrate import Calibration  # noqa: E402
from nlbench.tracer import SpanTracer  # noqa: E402
from repro.metrics.stats import percentile  # noqa: E402

OUT_DIR = ROOT / "nlbench" / "out"
#: Setups timed per run for the ``setup_s`` median.
MIN_SETUPS = 5
#: Import timings per run (this process plus fresh interpreters).
IMPORT_SAMPLES = 5

#: End-to-end metrics of every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "sim_s_per_host_s": "sim_s/s",
    "peak_rss_mb": "MB",
    "sim_ops_per_s": "ops/sim_s",
    "sim_stop_ms_p50": "sim_ms",
    "sim_stop_ms_p90": "sim_ms",
}
#: Simulated end-to-end metrics only some workloads define (client
#: latency needs clients, p99 needs >= 1000 samples, recovery a failover).
#: They are printed in the report lines; the result JSON carries the
#: metrics every workload defines.
SIM_ONLY = {
    "sim_latency_ms_p50": "sim_ms",
    "sim_latency_ms_p90": "sim_ms",
    "sim_latency_ms_p99": "sim_ms",
    "sim_recovery_ms": "sim_ms",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _fresh(cls, seed: int, window_us: int | None = None):
    gc.collect()
    return cls(seed, window_us)


def _pass(cls, seed: int, window_us: int | None = None, tracer=None,
          calibration: Calibration | None = None):
    """Setup, window and finish of one fresh session: the session, host
    seconds of the setup, of each window slice, and the outcome.  With a
    *calibration*, one sample is taken after the setup and each slice."""
    sample = calibration.sample if calibration is not None else None
    session = _fresh(cls, seed, window_us)
    t0 = time.perf_counter()
    session.setup()
    setup_s = time.perf_counter() - t0
    if sample is not None:
        sample()
    if tracer is not None:
        tracer.engine = session.world.engine
        tracer.enabled = True
    slices = session.run_window(time.perf_counter, sample)
    if tracer is not None:
        tracer.enabled = False
    outcome = session.finish()
    return session, setup_s, slices, outcome


def _percentiles(values, ps, prefix: str, problems: list[str], out: dict) -> None:
    """Nearest-rank percentiles of *values*; each one the sample count
    cannot carry (fewer than ten samples beyond it) is still reported
    but recorded as a problem."""
    for p in ps:
        if stats.samples_beyond(len(values), p) < stats.MIN_BEYOND:
            problems.append(f"{prefix}_p{p}: {len(values)} samples, p{p} needs "
                            f">= {stats.min_samples_for(p)}")
        out[f"{prefix}_p{p}"] = (percentile(values, p) / 1000, "sim_ms")


def sim_metrics(outcome) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Every simulated end-to-end metric the workload defines, as
    ``name -> (value, unit)``, plus the percentile-rule problems."""
    problems: list[str] = []
    out: dict[str, tuple[float, str]] = {}
    out["sim_ops_per_s"] = (outcome.ops / (outcome.window_us / 1e6), "ops/sim_s")
    stops = [e.stop_us for e in outcome.epochs]
    if not stops:
        problems.append("no epoch committed inside the window")
        stops = [0]
    _percentiles(stops, (50, 90), "sim_stop_ms", problems, out)
    if outcome.latency_pcts_us:
        n = outcome.latency_samples
        for p, value in outcome.latency_pcts_us.items():
            if stats.samples_beyond(n, p) < stats.MIN_BEYOND:
                problems.append(f"sim_latency_ms_p{p}: {n} samples")
            out[f"sim_latency_ms_p{p}"] = (value / 1000, "sim_ms")
    elif outcome.latencies_us:
        _percentiles(outcome.latencies_us, (50, 90), "sim_latency_ms", problems, out)
    r = outcome.recovery
    if r is not None:
        out["sim_recovery_ms"] = (
            (r.detection_us + r.restore_us + r.arp_us + r.reconnect_us) / 1000, "sim_ms")
    return out, problems


def _print_report(cls, seed: int, outcome, failures: list[str], digest_note: str,
                  lines: dict) -> None:
    why = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}
    print(f"workload {cls.name} seed {seed}: {why.get(cls.name, '')}")
    for name, (value, unit) in lines.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    n_epochs, n_latency = len(outcome.epochs), outcome.latency_samples
    print(f"  samples: {n_epochs} epochs (highest percentile with ten beyond: "
          f"p{stats.highest_percentile(n_epochs)}), {n_latency} client latencies "
          f"(p{stats.highest_percentile(n_latency)})")
    print(f"  attempted {outcome.attempted}, failed {len(failures)}, "
          f"failed_ratio {len(failures) / max(1, outcome.attempted):g}")
    paper = scenarios.paper_stop_ms(cls)
    if "sim_stop_ms_p50" in lines:
        model = lines["sim_stop_ms_p50"][0]
        if paper is None:
            print(f"  model accuracy: sim_stop_ms_p50 {model:.2f} ms, "
                  f"unvalidated model (no paper figure)")
        else:
            print(f"  model accuracy: sim_stop_ms_p50 {model:.2f} ms vs paper "
                  f"Table III {paper} ms ({cls.paper}), error "
                  f"{(model - paper) / paper:+.1%}")
    print(f"  sim_digest {digest_note}")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")


def run_timed(cls, seed: int, seconds: float, import_s: float) -> tuple[dict, list[str]]:
    setups: list[float] = []
    reps: list[list[float]] = []
    digests: set[str] = set()
    outcome = None
    started = time.perf_counter()
    with Calibration() as calibration:
        while outcome is None or time.perf_counter() - started < seconds:
            session, setup_s, slices, result = _pass(cls, seed, calibration=calibration)
            setups.append(setup_s)
            reps.append(slices)
            digests.add(result.digest)
            outcome = outcome or result
            del session, result
        while len(setups) < MIN_SETUPS:
            session = _fresh(cls, seed)
            t0 = time.perf_counter()
            session.setup()
            setups.append(time.perf_counter() - t0)
            calibration.sample()
            del session

    # Host time of the window: per slice, the median over repetitions;
    # host times are then scaled to reference-host seconds.
    window_host_s = sum(statistics.median(column) for column in zip(*reps))
    setup_host_s = import_s + statistics.median(setups)
    factor = calibration.factor()
    window_s = cls.window_us / 1e6
    sim, problems = sim_metrics(outcome)
    lines = {
        "setup_s": (setup_host_s * factor, "s"),
        "sim_s_per_host_s": (window_s / (window_host_s * factor), "sim_s/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    lines.update(sim)
    failures = list(outcome.failures) + problems
    if len(digests) > 1:
        failures.append(f"same-seed repetitions disagree: digests {sorted(digests)}")
    _print_report(cls, seed, outcome, failures,
                  f"{sorted(digests)[0]} over {len(reps)} window reps and "
                  f"{len(setups)} setups; as measured on this host: sim_s_per_host_s "
                  f"{window_s / window_host_s:.4g} (each rep alone: "
                  f"{', '.join(f'{window_s / sum(r):.4g}' for r in reps)}), setup "
                  f"{setup_host_s:.4g} s (median import {import_s:.4g} s); calibration "
                  f"median {calibration.median_s() * 1e3:.3f} ms over "
                  f"{len(calibration.samples)} samples -> x{factor:.4f} to reference host",
                  lines)
    return {
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": lines[name][0], "unit": unit}
                    for name, unit in END_TO_END.items()},
    }, failures


def run_traced(cls, seed: int, out_dir: Path = OUT_DIR) -> tuple[dict, list[str]]:
    window_us = cls.trace_window_us
    # Each pass is scaled by its own calibration samples, so host drift
    # between the two passes does not show up as tracing overhead.
    with Calibration() as untraced_cal, Calibration() as traced_cal:
        _, _, untraced, reference = _pass(cls, seed, window_us, calibration=untraced_cal)
        tracer = SpanTracer()
        layers.install(tracer)
        try:
            session, _, traced, outcome = _pass(cls, seed, window_us, tracer, traced_cal)
        finally:
            tracer.uninstall()
    untraced_s, traced_s = sum(untraced), sum(traced)
    metrics = layers.layer_metrics(tracer, session, outcome, traced_cal.factor(),
                                   traced_s, untraced_s * untraced_cal.factor())
    failures = list(outcome.failures)
    if outcome.digest != reference.digest:
        failures.append(f"tracing perturbed the simulation: digest "
                        f"{outcome.digest} != untraced {reference.digest}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{cls.name}-seed{seed}.trace.json"
    with open(path, "w") as fh:
        json.dump(tracer.chrome_trace({"workload": cls.name, "seed": seed,
                                       "sim_digest": outcome.digest}),
                  fh, separators=(",", ":"))
    units = metric_units()
    print(f"workload {cls.name} seed {seed} traced window "
          f"{window_us / 1e6:g} sim s: host {traced_s:.3f} s traced "
          f"(x{traced_cal.factor():.4f} to reference host), {untraced_s:.3f} s "
          f"untraced (x{untraced_cal.factor():.4f}); sim_digest {outcome.digest} "
          f"(untraced {reference.digest}); trace {path}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }, failures


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_units() -> dict[str, str]:
    """Per-layer metric units, from ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def import_seconds(first_s: float) -> float:
    """Median import time over this process's own import (*first_s*) and
    ``IMPORT_SAMPLES - 1`` fresh interpreters importing the same modules:
    one import alone is too noisy a sample to carry ``setup_s``."""
    probe = ("import time; t0 = time.perf_counter(); import nlbench.run; "
             "print(time.perf_counter() - t0)")
    samples = [first_s]
    for _ in range(IMPORT_SAMPLES - 1):
        done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    first_import_s = time.perf_counter() - _T0
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.workload not in scenarios.SCENARIOS:
        print(f"nlbench: unknown workload {args.workload!r} "
              f"(have {', '.join(scenarios.SCENARIOS)})", file=sys.stderr)
        return 2
    cls = scenarios.SCENARIOS[args.workload]
    if args.trace:
        result, _ = run_traced(cls, args.seed)
    else:
        result, _ = run_timed(cls, args.seed, args.seconds, import_seconds(first_import_s))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
