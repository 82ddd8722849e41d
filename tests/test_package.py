"""Tests for the package's public surface: wearmap.__all__, the names the
benchmark imports and wraps, and README's library example."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import wearmap

ROOT = Path(__file__).resolve().parents[1]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _wrapped_attributes(tree):
    """Every (owner, attribute) that bench/child.py looks up by name: the
    targets of its tr.wrap(owner, "name", ...) calls and of its
    getattr(owner, "name", ...) calls, with each owner resolved to the
    wearmap module (or the attribute of one) it names."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.startswith("wearmap.")}

    def owner(node):
        if isinstance(node, ast.Name) and node.id in modules:
            return importlib.import_module(modules[node.id])
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"):
            return getattr(owner(node.args[0]), node.args[1].value)
        raise AssertionError(f"line {node.lineno}: unknown owner {ast.unparse(node)}")

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            continue
        func = node.func
        if ((isinstance(func, ast.Attribute) and func.attr == "wrap")
                or (isinstance(func, ast.Name) and func.id == "getattr")):
            yield ast.unparse(node.args[0]), owner(node.args[0]), node.args[1].value


def test_package_surface():
    # Every exported name resolves, once.
    assert [n for n, k in Counter(wearmap.__all__).items() if k > 1] == []
    assert [n for n in wearmap.__all__ if not hasattr(wearmap, n)] == []
    # The names bench/run.py and bench/checks.py import from wearmap itself.
    imported = {alias.name for script in ("run.py", "checks.py")
                for node in ast.walk(_tree(ROOT / "bench" / script))
                if isinstance(node, ast.ImportFrom) and node.module == "wearmap"
                for alias in node.names}
    assert {"count_feasible_mappings", "load_run_config", "Mapping", "evaluate_hardware_aging",
            "execution_time", "mapping_violations"} <= imported
    assert sorted(imported - set(wearmap.__all__)) == []
    # Every module attribute bench/child.py wraps or looks up.
    targets = list(_wrapped_attributes(_tree(ROOT / "bench" / "child.py")))
    assert {"hosted_set_mechanism_agings", "build_voltage_trace", "brute_force_pareto"} <= \
        {name for _, _, name in targets}
    assert [f"{label}.{name}" for label, obj, name in targets if not hasattr(obj, name)] == []


def _library_use():
    """README's "Library use" section, and the code of its example."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):readme.index("## Testing")]
    return section, re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_documents_every_export():
    # wearmap.__all__ is the example's imports and the entry points' lead
    # names (EvalContext.evaluate counts as EvalContext); names given with
    # their submodule, as wearmap.config.check_instance, are not exported.
    section, code = _library_use()
    documented = set(re.search(r"from wearmap import \((.*?)\)", code, re.S)
                     .group(1).replace(",", " ").split())
    documented |= {name.split(".")[0] for line in section.splitlines() if line.startswith("- `")
                   for name in re.findall(r"`([\w.]+)`", line.split(":")[0])
                   if not name.startswith("wearmap.")}
    assert sorted(documented ^ set(wearmap.__all__)) == []


def test_readme_library_use_runs(monkeypatch, capsys):
    # README's "Library use" example, run as written from the repository root.
    code = _library_use()[1]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
