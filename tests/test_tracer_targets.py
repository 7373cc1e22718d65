"""The benchmark's references into the package must resolve.

``bench/tracer.py`` wraps package functions by (module, attribute) name,
and the benchmark's scripts import names from the package; a renamed or
deleted function would silently drop a per-layer span or break a
workload.  The files are read as plain source (the tracer is also run),
so nothing under ``bench/`` is imported as a package or written to.
"""

import ast
import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    for span, module, attr, _ in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module}.{attr} is not callable"


def _resolves(module, name: str) -> bool:
    """``from module import name``: an attribute or a submodule."""
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _package_imports(path: Path):
    """(module, name or None) for every import of the package in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from ((node.module, alias.name) for alias in node.names)


def test_benchmark_imports_from_the_package_resolve():
    checked = 0
    for path in sorted(BENCH.glob("*.py")):
        for module_name, name in _package_imports(path):
            if module_name.partition(".")[0] != "diagbounds":
                continue
            module = importlib.import_module(module_name)
            where = f"{path.name}: {module_name}.{name}"
            assert name is None or _resolves(module, name), f"{where} does not resolve"
            checked += 1
    assert checked  # the workloads import from the package
