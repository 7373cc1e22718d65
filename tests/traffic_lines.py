"""Print every statement of a function body in ``diagbounds`` that no benchmark call runs.

Usage: ``PYTHONPATH=src python tests/traffic_lines.py``

Runs each call of ``bench/workloads.make_calls(w, 1, "full", tmp)`` for
the three workloads through ``diagbounds.cli.main``, in this one process,
under ``sys.settrace`` limited to the files of the imported ``diagbounds``
package, then prints ``file:line: text`` for each statement inside a
function body that no call executed, and last their count.  A statement
counts as run when any line of it ran: a multi-line ``elif (`` may report
only its continuation line, and a compound statement runs whenever any
line of its body does.  Docstrings and other bare constants, ``global``
and ``nonlocal`` make no code and are never listed.  It reads ``bench/``
and writes nothing there; the calls' files go to a temporary directory.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ under bench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import diagbounds  # noqa: E402
from diagbounds import cli  # noqa: E402

import workloads  # noqa: E402

PACKAGE = Path(diagbounds.__file__).resolve().parent


def run_calls(workdir: Path) -> dict[str, set[int]]:
    """The lines of each package file that ran during every workload's calls."""
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    prefix = str(PACKAGE) + os.sep

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    calls = [c for w in workloads.WORKLOADS for c in workloads.make_calls(w, 1, "full", workdir)]
    warnings.simplefilter("ignore")  # sharp_union warns about every refuted point it drops
    sink, failed = io.StringIO(), 0
    sys.settrace(trace)
    try:
        for i, call in enumerate(calls):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    failed += cli.main([*call.argv, "--out", str(workdir / "out" / f"call{i}")]) != 0
                except SystemExit:
                    failed += 1
            sink.seek(0)
            sink.truncate()
    finally:
        sys.settrace(None)
    print(f"{len(calls)} calls, {failed} failed", file=sys.stderr)
    return ran


def _makes_code(stmt: ast.stmt) -> bool:
    """False for a statement that compiles to no code: a bare constant, ``global`` or ``nonlocal``."""
    if isinstance(stmt, (ast.Global, ast.Nonlocal)):
        return False
    return not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def body_statements(tree: ast.AST) -> list[ast.stmt]:
    """Every statement inside a function body, nested statements included, in source order."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.stmt) and _makes_code(inner):
                        found[inner.lineno, inner.col_offset] = inner
    return [found[k] for k in sorted(found)]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ran = run_calls(Path(tmp))
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        done = ran.get(str(path), set())
        for stmt in body_statements(ast.parse(source)):
            if done.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1)):
                missed += 1
                print(f"{path.relative_to(PACKAGE.parents[1])}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"{missed} statements not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
