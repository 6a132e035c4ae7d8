"""The consolidated ``repro analyze`` gate wiring.

These tests pin the step list, the merged-findings tagging and the
parse-once property of the static phase without paying for a full
``run_all`` (the individual steps are each covered by their own suites
and by CI's ``make analyze``).
"""

import ast
import contextlib
import io
from collections import Counter

from repro.analysis.aggregate import _BASELINES, STEPS, collect_findings
from repro.analysis.framework import SourceTree
from repro.cli import main as cli_main


def test_steps_cover_all_six_analyzers():
    analyzers = {analyzer for analyzer, _, _ in STEPS}
    assert analyzers == {"nlint", "races", "ckptcov", "perf", "ndflow",
                         "ftcov"}


def test_hycor_bench_is_left_to_its_own_ci_step():
    # CI's `make hycor-smoke` runs the hycor bench gate; analyze must not
    # run it a second time.
    assert not any(argv[0] in ("hycor", "modes")
                   for _, smoke, full in STEPS for argv in (smoke, full))


def test_ckptcov_selfcheck_is_an_action_like_the_others():
    smoke = [smoke for _, smoke, _ in STEPS]
    for analyzer in ("ckptcov", "perf", "ndflow", "ftcov"):
        assert (analyzer, "selfcheck") in smoke


def test_ftcov_steps_mirror_the_make_target():
    ftcov_smoke = [smoke for analyzer, smoke, _ in STEPS
                   if analyzer == "ftcov"]
    assert ("ftcov", "selfcheck") in ftcov_smoke
    assert ("ftcov", "lint", "--baseline", "ftcov-baseline.json") in \
        ftcov_smoke
    assert ("ftcov", "record", "--json-out", "coverage-matrix.json") in \
        ftcov_smoke
    assert len(ftcov_smoke) == 3


def test_every_static_pass_has_a_baseline_entry():
    assert set(_BASELINES) == {"nlint", "ckptcov", "perf", "ndflow",
                               "ftcov"}
    assert _BASELINES["ftcov"] == "ftcov-baseline.json"


def test_merged_findings_tag_the_ftcov_knob_as_baselined():
    merged = collect_findings()
    assert [f for f in merged if f["analyzer"] in ("ndflow", "ftcov")] == []


def _is_static(argv):
    """The steps that read the source tree: nlint, the access check and
    every selfcheck/lint (ckptcov's lint also runs its oracle)."""
    return (argv[0] == "lint" or "--check-access" in argv
            or (len(argv) > 1 and argv[1] in ("selfcheck", "lint")))


def test_static_phase_parses_each_source_file_at_most_once(monkeypatch):
    parses = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    tree = SourceTree.load()
    static = [smoke for _, smoke, _ in STEPS if _is_static(smoke)]
    assert len(static) == 10
    for argv in static:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(list(argv), tree=tree) == 0, argv
    merged = collect_findings(tree)
    assert len(merged) == 1
    # Only parses of source files count here: the steps may parse other
    # text (the wire codec does not; it decodes frames without ast).
    source_parses = {f: n for f, n in parses.items() if f in tree}
    assert len(source_parses) == len(tree)
    assert max(source_parses.values()) == 1, Counter(source_parses).most_common(3)
