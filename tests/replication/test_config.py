"""Tests for configuration objects and the Table I optimization walk."""

from dataclasses import fields
from pathlib import Path

from repro.criu.config import CriuConfig
from repro.replication.config import TABLE1_LEVELS, NiliconConfig


class TestCriuConfig:
    def test_nilicon_defaults_are_fully_optimized(self):
        config = CriuConfig.nilicon()
        assert config.vma_source == "netlink"
        assert config.parasite_transport == "shm"
        assert config.freeze_poll
        assert config.fs_cache_mode == "fgetfc"
        assert config.cache_infrequent_state
        assert not config.use_proxy_processes
        assert config.repair_rto_patch

    def test_stock_is_fully_unoptimized(self):
        config = CriuConfig.stock()
        assert config.vma_source == "smaps"
        assert config.parasite_transport == "pipe"
        assert not config.freeze_poll
        assert config.fs_cache_mode == "nas_flush"
        assert not config.cache_infrequent_state
        assert config.use_proxy_processes
        assert not config.repair_rto_patch

    def test_with_returns_new_instance(self):
        base = CriuConfig.nilicon()
        variant = base.with_(vma_source="smaps")
        assert variant.vma_source == "smaps"
        assert base.vma_source == "netlink"


class TestTable1Walk:
    def test_level0_is_basic(self):
        assert NiliconConfig.table1_level(0) == NiliconConfig.basic()

    def test_level6_matches_nilicon_checkpoint_path(self):
        full = NiliconConfig.table1_level(len(TABLE1_LEVELS) - 1)
        assert full.criu.vma_source == "netlink"
        assert full.criu.parasite_transport == "shm"
        assert full.criu.cache_infrequent_state
        assert full.input_block == "plug"
        assert full.staging_buffer
        assert full.page_store == "radix"

    def test_each_level_changes_exactly_its_knob(self):
        l0 = NiliconConfig.table1_level(0)
        l1 = NiliconConfig.table1_level(1)
        assert l0.page_store == "list" and l1.page_store == "radix"
        assert not l0.criu.freeze_poll and l1.criu.freeze_poll
        l2 = NiliconConfig.table1_level(2)
        assert not l1.criu.cache_infrequent_state and l2.criu.cache_infrequent_state
        l3 = NiliconConfig.table1_level(3)
        assert l2.input_block == "firewall" and l3.input_block == "plug"
        l4 = NiliconConfig.table1_level(4)
        assert l3.criu.vma_source == "smaps" and l4.criu.vma_source == "netlink"
        l5 = NiliconConfig.table1_level(5)
        assert not l4.staging_buffer and l5.staging_buffer
        l6 = NiliconConfig.table1_level(6)
        assert l5.criu.parasite_transport == "pipe"
        assert l6.criu.parasite_transport == "shm"

    def test_out_of_range_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            NiliconConfig.table1_level(7)
        with pytest.raises(ValueError):
            NiliconConfig.table1_level(-1)


class TestNoBugModes:
    """The config carries deployment and paper knobs only; historical bugs
    are re-created by the test-side mutants in ``tests/mutants.py``."""

    def test_nilicon_config_fields(self):
        assert {f.name for f in fields(NiliconConfig)} == {
            # deployment
            "epoch_execute_us", "heartbeat_interval_us",
            "heartbeat_miss_threshold", "detector_enabled", "audit", "mode",
            "hycor_log_flush_us",
            # paper (Table I, ablations)
            "criu", "input_block", "staging_buffer", "page_store",
            "full_checkpoint_every", "compress_transfer", "compression_ratio",
        }

    def test_criu_config_fields(self):
        assert {f.name for f in fields(CriuConfig)} == {
            "vma_source", "parasite_transport", "freeze_poll",
            "fs_cache_mode", "cache_infrequent_state", "use_proxy_processes",
            "repair_rto_patch",
        }

    def test_primary_agent_does_not_import_random(self):
        import ast

        import repro.replication.primary as primary

        tree = ast.parse(Path(primary.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "random" not in imported
