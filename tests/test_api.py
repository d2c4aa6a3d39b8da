"""The public surface resolves: every module's __all__, every name the
package __init__ imports, and every (module, attribute) pair the benchmark's
tracer wraps (bench/spans.py TARGETS)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import halfspace_sgd

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "halfspace_sgd").glob("*.py") if p.stem != "__init__")


def _resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"halfspace_sgd.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((ROOT / "src" / "halfspace_sgd" / "__init__.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]
    assert imported
    for module_name, attr in imported:
        module = importlib.import_module(f"halfspace_sgd.{module_name}")
        assert getattr(module, attr) is getattr(halfspace_sgd, attr), (module_name, attr)


def test_bench_trace_targets_resolve():
    # Only read TARGETS: install() would patch the modules for the session.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, _count in spans.TARGETS:
        module = importlib.import_module(f"halfspace_sgd.{module_name}")
        assert callable(_resolve(module, attr)), (module_name, attr)
