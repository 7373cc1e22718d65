"""The benchmark tracer's targets must name functions that exist.

``bench/tracer.py`` wraps package functions by (module, attribute) name;
a renamed or deleted function would silently drop a per-layer span.  The
file is read and run as plain source, so nothing under ``bench/`` is
imported as a package or written to.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    for span, module, attr, _ in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module}.{attr} is not callable"
