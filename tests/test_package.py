"""Top-level package surface tests."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_public_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_quick_deploy_through_top_level_api():
    """The README's minimal snippet must work verbatim-ish."""
    world = repro.World(seed=42)
    spec = repro.ContainerSpec(
        name="svc", ip="10.0.1.10",
        processes=[repro.ProcessSpec(comm="svc", n_threads=1)],
    )
    deployment = repro.ReplicatedDeployment(world, spec)
    deployment.start()
    world.run(until=300_000)
    deployment.stop()
    assert deployment.metrics.n_epochs >= 1
    assert not deployment.failed_over


def test_replication_manager_loads_no_analyzer_module():
    """Simulation processes import the runtime auditor only; the static
    analyzers stay unloaded (the package ``__init__`` re-exports nothing)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys, repro.replication.manager\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('repro.analysis'))))\n"
    )
    src = Path(__file__).parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.split()
    assert out == ["repro.analysis", "repro.analysis.auditor"]
