"""The mutant registry (``tests/mutants.py``) itself.

A mutant nobody applies proves nothing, and one whose target was renamed
would patch a name no production code calls; both fail here.
"""

import ast
import importlib
from pathlib import Path

import pytest

from tests.mutants import MUTANTS, apply_mutant, mutant

TESTS = Path(__file__).resolve().parent


def _resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _string_literals_in_tests() -> set[str]:
    found: set[str] = set()
    for path in TESTS.rglob("*.py"):
        if path.name in ("mutants.py", "test_mutants.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def test_unknown_mutant_raises_key_error(monkeypatch):
    with pytest.raises(KeyError):
        apply_mutant(monkeypatch, "zz-no-such-mutant")
    with pytest.raises(KeyError):
        with mutant("zz-no-such-mutant"):
            pass


def test_every_mutant_is_used_and_patches_real_code():
    used = _string_literals_in_tests()
    for name, entry in MUTANTS.items():
        assert name in used, f"mutant {name!r} is applied by no test"
        for target in entry.targets:
            _resolve(target)


def test_mutant_context_restores_the_original():
    from repro.replication.netbuffer import NetworkBuffer

    original = NetworkBuffer.release_epoch
    with mutant("release-oldest"):
        assert NetworkBuffer.release_epoch is not original
    assert NetworkBuffer.release_epoch is original
