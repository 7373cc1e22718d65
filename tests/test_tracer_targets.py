"""The benchmark's references into the package must resolve.

``bench/tracer.py`` wraps package functions by (module, attribute) name,
and the benchmark's scripts import names from the package and call into
its modules (``cli.build_parser()``); a renamed or deleted function, or
a changed signature, would silently drop a per-layer span or break a
workload.  The files are read as plain source (the tracer is also run),
so nothing under ``bench/`` is imported as a package or written to.
"""

import ast
import importlib
import inspect
import runpy
import textwrap
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from diagbounds import DependenceAssumption, JointTR, RefPerf, SRegion, sharp_union

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


def _subscript_read(node):
    """(i, None) for ``args[i]``, (None, name) for ``kwargs["name"]``, None for any other node."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and isinstance(node.slice, ast.Constant):
        return {"args": (node.slice.value, None), "kwargs": (None, node.slice.value)}.get(node.value.id)
    return None


def _argument_reads(hook):
    """(position, keyword) for each read of the wrapped call's arguments in ``hook``.

    ``args[i] if ... else kwargs["name"]`` reads one argument both ways and
    yields (i, "name"); a lone ``args[i]`` or ``kwargs["name"]`` leaves the
    other None.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    paired = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp) and _subscript_read(node.body) and _subscript_read(node.orelse):
            paired |= {id(node.body), id(node.orelse)}
            yield _subscript_read(node.body)[0], _subscript_read(node.orelse)[1]
    for node in ast.walk(tree):
        if id(node) not in paired and _subscript_read(node):
            yield _subscript_read(node)


def test_counter_hooks_read_arguments_the_wrapped_function_takes():
    # ``_count_segments`` reads ``args[1] if len(args) > 1 else kwargs["S"]`` of
    # ``sharp_union``: a renamed or moved parameter would miscount silently.
    checked = 0
    for span, module, attr, hook in runpy.run_path(str(TRACER))["TARGETS"]:
        if hook is None:
            continue
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        params = list(inspect.signature(target).parameters)
        for position, keyword in _argument_reads(hook):
            where = f"{hook.__name__} on {module}.{attr}{tuple(params)}"
            if position is not None:
                assert position < len(params), f"{where} reads args[{position}]"
            if keyword is not None:
                assert keyword in params, f"{where} reads kwargs[{keyword!r}]"
            if position is not None and keyword is not None:
                assert params[position] == keyword, f"{where}: args[{position}] is not kwargs[{keyword!r}]"
            checked += 1
    assert checked  # _count_segments reads the region


def test_segment_counter_counts_kept_and_dropped_points():
    # ``_count_segments`` counts a real ``sharp_union`` result's kept points as
    # ``len(identified.segments)`` and the rest of the region as dropped, with
    # the region passed either way.  P(t=1) = 0.5, so s1 = 0.45 is refuted.
    count = runpy.run_path(str(TRACER))["_count_segments"]
    p = JointTR(0.3, 0.1, 0.2, 0.4)
    region = SRegion((RefPerf(0.45, 0.9), RefPerf(0.9, 0.9), RefPerf(0.95, 0.9)))
    with pytest.warns(UserWarning, match="dropping refuted"):
        identified = sharp_union(p, region, DependenceAssumption.NO_RESTRICTION)
    for args, kwargs in (((p, region), {}), ((p,), {"S": region})):
        tracer = SimpleNamespace(counts=defaultdict(float))
        count(tracer, args, kwargs, identified)
        assert tracer.counts == {"identification.segments": 2, "identification.dropped_points": 1}


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


def test_benchmark_calls_into_package_modules_resolve_and_bind():
    # ``from diagbounds import cli`` then ``cli.build_parser()``: each attribute must
    # exist, and each call must bind to its signature as written.
    checked = 0
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "diagbounds":
                for alias in node.names:
                    owner = getattr(importlib.import_module(node.module), alias.name, None)
                    if inspect.ismodule(owner):
                        modules[alias.asname or alias.name] = owner
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules):
                continue
            where = f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            assert hasattr(modules[node.value.id], node.attr), f"{where} does not resolve"
            target = getattr(modules[node.value.id], node.attr)
            call = calls.get(id(node))
            if call is not None:
                assert callable(target), f"{where} is not callable"
                if not any(isinstance(a, ast.Starred) for a in call.args) and all(k.arg for k in call.keywords):
                    try:
                        inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
                    except TypeError as exc:
                        raise AssertionError(f"{where} cannot be called as written: {exc}") from None
            checked += 1
    assert checked  # setup_probe.py builds the parser through ``cli``
