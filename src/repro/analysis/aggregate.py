"""Consolidated analyzer gate (``repro analyze`` / ``make analyze``).

Runs all six analyzer families — nlint (DET/CKPT/RACE/ORD), races
(happens-before + schedule fuzz), ckptcov (CKPT1xx + differential
oracle), perf (PERF + profiler + bench gate), ndflow (NDF +
record→replay oracle), and ftcov (FTC + catalog coverage crossref) —
through their real CLI entry points, so each step keeps its exact gate
semantics (baselines, knob polarity, selfchecks).  The aggregate exit
code is the max over steps.

Every step reads one shared :class:`~repro.analysis.framework.SourceTree`:
each source file is parsed once, each selfcheck runs once (the lint
step reuses it), and the merged findings artifact is built from the lint
results the steps already produced.  The hycor bench gate is not a step:
CI runs it in its own ``make hycor-smoke`` step.
"""

from __future__ import annotations

import contextlib
import io
import time

__all__ = ["STEPS", "collect_findings", "format_summary", "run_all"]


def _wall() -> float:
    return time.monotonic()  # nlint: disable=DET001 -- step-timing display only; never feeds simulated state

#: (analyzer, smoke argv, full argv) — argv is what ``repro.cli.main``
#: receives; smoke mirrors the CI make targets, full the local ones.
STEPS: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("nlint", ("lint", "src"), ("lint", "src")),
    ("races", ("races", "--check-access"), ("races", "--check-access")),
    ("races", ("races", "--smoke"), ("races",)),
    ("races", ("races", "--fuzz", "--smoke"), ("races", "--fuzz")),
    ("races", ("races", "--smoke", "--knob", "ack-before-commit"),
     ("races", "--knob", "ack-before-commit")),
    ("races", ("races", "--smoke", "--knob", "release-oldest"),
     ("races", "--knob", "release-oldest")),
    ("ckptcov", ("ckptcov", "selfcheck"), ("ckptcov", "selfcheck")),
    ("ckptcov",
     ("ckptcov", "lint", "--baseline", "ckptcov-baseline.json", "--diff",
      "--workload", "ssdb", "--workload", "net-echo"),
     ("ckptcov", "lint", "--baseline", "ckptcov-baseline.json", "--diff")),
    ("perf", ("perf", "selfcheck"), ("perf", "selfcheck")),
    ("perf", ("perf", "lint", "--baseline", "perf-baseline.json"),
     ("perf", "lint", "--baseline", "perf-baseline.json")),
    ("perf", ("perf", "profile", "--smoke"), ("perf", "profile")),
    ("perf", ("perf", "bench", "--smoke", "--check", "BENCH_engine.json"),
     ("perf", "bench", "--check", "BENCH_engine.json")),
    ("ndflow", ("ndflow", "selfcheck"), ("ndflow", "selfcheck")),
    ("ndflow", ("ndflow", "lint", "--baseline", "ndflow-baseline.json"),
     ("ndflow", "lint", "--baseline", "ndflow-baseline.json")),
    ("ndflow", ("ndflow", "replay", "--smoke"), ("ndflow", "replay")),
    ("ndflow",
     ("ndflow", "replay", "--smoke", "--knob", "unsafe-unlogged-draw"),
     ("ndflow", "replay", "--knob", "unsafe-unlogged-draw")),
    ("ftcov", ("ftcov", "selfcheck"), ("ftcov", "selfcheck")),
    ("ftcov", ("ftcov", "lint", "--baseline", "ftcov-baseline.json"),
     ("ftcov", "lint", "--baseline", "ftcov-baseline.json")),
    # Writes the coverage matrix CI uploads as an artifact.
    ("ftcov", ("ftcov", "record", "--json-out", "coverage-matrix.json"),
     ("ftcov", "record", "--json-out", "coverage-matrix.json")),
    ("ftcov", ("ftcov", "record", "--knob", "drop-scenario"),
     ("ftcov", "record", "--knob", "drop-scenario")),
)

#: Static pass -> baseline file (nlint has none: its findings are errors).
_BASELINES = {
    "nlint": None,
    "ckptcov": "ckptcov-baseline.json",
    "perf": "perf-baseline.json",
    "ndflow": "ndflow-baseline.json",
    "ftcov": "ftcov-baseline.json",
}


def _static_findings(analyzer: str, tree):
    if analyzer == "nlint":
        from repro.analysis.linter import lint_tree

        return tree.memo("nlint", lambda: lint_tree(tree))
    from repro.analysis.framework import get_analyzer

    return get_analyzer(analyzer).lint(tree)


def collect_findings(tree=None) -> list[dict]:
    """One merged record per static finding across all five lint passes,
    tagged with its analyzer and whether the checked-in baseline already
    accounts for it (the dynamic passes gate via their step exit codes).
    Lint results already memoized on *tree* are reused, not recomputed."""
    from repro.analysis.baseline import apply_baseline, load_baseline
    from repro.analysis.framework import SourceTree

    if tree is None:
        tree = SourceTree.load()
    merged: list[dict] = []
    for analyzer, baseline_file in _BASELINES.items():
        findings = _static_findings(analyzer, tree)
        baselined_ids: set[int] = set()
        if baseline_file is not None:
            try:
                baseline = load_baseline(baseline_file)
            except Exception:
                baseline = {}
            part = apply_baseline(
                [f for f in findings if f.severity != "error"], baseline
            )
            baselined_ids = {id(f) for f in part.baselined}
        for f in findings:
            merged.append({
                "analyzer": analyzer,
                "rule": f.rule_id,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "severity": f.severity,
                "message": f.message,
                "baselined": id(f) in baselined_ids,
            })
    merged.sort(key=lambda r: (r["path"], r["line"], r["rule"]))
    return merged


def run_all(smoke: bool = True) -> dict:
    """Run every step; never stops early (one report shows all failures)."""
    from repro.analysis.framework import SourceTree
    from repro.cli import main as cli_main

    tree = SourceTree.load()
    steps: list[dict] = []
    worst = 0
    for analyzer, smoke_argv, full_argv in STEPS:
        argv = list(smoke_argv if smoke else full_argv)
        buf = io.StringIO()
        start = _wall()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv, tree=tree)
        except Exception as exc:  # a crashed step must not hide the rest
            buf.write(f"CRASH: {exc!r}\n")
            code = 3
        steps.append({
            "analyzer": analyzer,
            "argv": argv,
            "exit": code,
            "wall_s": round(_wall() - start, 2),
            "output": buf.getvalue(),
        })
        worst = max(worst, code)
    findings = collect_findings(tree)
    return {
        "mode": "smoke" if smoke else "full",
        "steps": steps,
        "findings": findings,
        "new_findings": sum(
            1 for f in findings
            if not f["baselined"] and f["severity"] != "error"
        ),
        "ok": worst == 0,
        "exit": worst,
    }


def format_summary(report: dict) -> str:
    lines = [f"analyze ({report['mode']}): "
             f"{len(report['steps'])} step(s) over 6 analyzers"]
    for step in report["steps"]:
        verdict = "ok" if step["exit"] == 0 else f"FAIL (exit {step['exit']})"
        lines.append(f"  {step['analyzer']:<8} {' '.join(step['argv']):<58} "
                     f"{verdict}  [{step['wall_s']}s]")
        if step["exit"] != 0:
            for out_line in step["output"].splitlines():
                lines.append(f"      {out_line}")
    lines.append(
        f"merged findings: {len(report['findings'])} "
        f"({report['new_findings']} unbaselined warning(s))"
    )
    lines.append("analyze: OK" if report["ok"] else "analyze: FAIL")
    return "\n".join(lines)
