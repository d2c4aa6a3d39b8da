"""The public surface resolves: every module's __all__, every name the
package __init__ imports, and every (module, attribute) pair the benchmark's
tracer wraps (bench/spans.py TARGETS). Every exported name is used by the
package itself, so test-only forms stay in tests/helpers.py, and every report
field is read by the CLI, so no field is computed for no output."""

import ast
import dataclasses
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


def test_every_exported_name_is_used_in_the_package():
    # a name in a module's __all__ must be read somewhere in src/ (a name or
    # an attribute, not its own def/class or __all__ entry) or be imported by
    # __init__; otherwise it is test-only API and belongs in tests/helpers.py
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "halfspace_sgd").glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used.update(alias.name for node in ast.walk(trees["__init__"]) if isinstance(node, ast.ImportFrom)
                for alias in node.names)
    unused = []
    for module_name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unused += [f"{module_name}.{name}" for name in ast.literal_eval(node.value) if name not in used]
    assert unused == []


def test_every_report_field_is_read_by_the_cli():
    # a field of a report dataclass that cli.py never reads as an attribute
    # reaches no CSV: it belongs out of the report
    from halfspace_sgd.learner import SigmaDiagnostic, TrialReport
    from halfspace_sgd.oracle import ConeScanReport

    tree = ast.parse((ROOT / "src" / "halfspace_sgd" / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [f"{report.__name__}.{f.name}" for report in (TrialReport, SigmaDiagnostic, ConeScanReport)
              for f in dataclasses.fields(report) if f.name not in read]
    assert unread == []


def test_bench_trace_targets_resolve():
    # Only read TARGETS: install() would patch the modules for the session.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, _count in spans.TARGETS:
        module = importlib.import_module(f"halfspace_sgd.{module_name}")
        assert callable(_resolve(module, attr)), (module_name, attr)
