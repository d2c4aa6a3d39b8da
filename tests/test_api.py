"""The public surface resolves: every module's __all__, every name the
package __init__ imports, and every (module, attribute) pair the benchmark's
tracer wraps (bench/spans.py TARGETS). Every exported name has a reader (the
package itself, the README tour or the tracer), so test-only forms stay in
tests/helpers.py; the package root holds exactly the tour's names, and the
tour runs. Every report field reaches a row the CLI writes, so no field is
computed for no output."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


def _tour() -> str:
    """The code block of README.md's library tour."""
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def _tour_imports() -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(_tour())) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _spans_targets() -> list:
    # Only read TARGETS: install() would patch the modules for the session.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_exported_name_is_used_in_the_package():
    # a name stays in a module's __all__ only if one of three readers reads
    # it: code in src/ outside its own top-level def or class, the README
    # tour's import block, or a span the benchmark's tracer wraps; otherwise
    # it is test-only API and belongs in tests/helpers.py
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "halfspace_sgd").glob("*.py")}
    reads = [(module_name, getattr(stmt, "name", None),
              {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
               if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)})
             for module_name, tree in trees.items() for stmt in tree.body]
    tour = _tour_imports()
    traced = {(module_name, attr.split(".")[0]) for module_name, attr, _count in _spans_targets()}
    unread = []
    for module_name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unread += [f"{module_name}.{name}" for name in ast.literal_eval(node.value)
                           if name not in tour and (module_name, name) not in traced
                           and not any(name in names for owner_module, owner, names in reads
                                       if (owner_module, owner) != (module_name, name))]
    assert unread == []


@pytest.mark.slow
def test_readme_tour_runs_on_the_package_names():
    # the package root exports exactly what the tour imports (plus
    # __version__), and the tour runs as printed
    exported = {name for name, value in vars(halfspace_sgd).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == _tour_imports()
    exec(compile(_tour(), "README.md (library tour)", "exec"), {})


class _Sentinel(float):
    """A float that names the report field it fills; arithmetic on it gives a
    plain float, so only the field itself carries the name into a row."""

    def __new__(cls, value, name):
        obj = super().__new__(cls, value)
        obj.name = name
        return obj


def _filled(report, **given):
    values = {f.name: _Sentinel(1000.0 + i, f"{report.__name__}.{f.name}")
              for i, f in enumerate(dataclasses.fields(report))}
    return report(**{**values, **given})


def _names(rows):
    return {v.name for row in rows for v in row if isinstance(v, _Sentinel)}


def test_every_report_field_is_read_by_the_cli(monkeypatch):
    # every field of a report dataclass reaches a CSV row built by the CLI:
    # learn and sweep rows, with and without --timing, and lowerbound rows
    from halfspace_sgd import cli
    from halfspace_sgd.learner import SigmaDiagnostic, TrialReport
    from halfspace_sgd.oracle import ConeScanReport

    trial = _filled(TrialReport, per_sigma=[_filled(SigmaDiagnostic)])
    monkeypatch.setattr(cli, "scan_cone", lambda *args: _filled(ConeScanReport))
    rows = {(timing, per_sigma): cli._report_rows([trial], timing, per_sigma)
            for timing in (False, True) for per_sigma in (False, True)}
    reached = _names(cli._lowerbound_group((None,) * 7)).union(*map(_names, rows.values()))
    # per_sigma holds the SigmaDiagnostic reports, whose fields are checked
    fields = {f"{report.__name__}.{f.name}" for report in (TrialReport, SigmaDiagnostic, ConeScanReport)
              for f in dataclasses.fields(report)} - {"TrialReport.per_sigma"}
    assert sorted(fields - reached) == []
    assert "TrialReport.wall_ms" not in _names(rows[False, False])  # timings only under --timing


def test_bench_trace_targets_resolve():
    # Only read TARGETS: install() would patch the modules for the session.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, _count in spans.TARGETS:
        module = importlib.import_module(f"halfspace_sgd.{module_name}")
        assert callable(_resolve(module, attr)), (module_name, attr)
