"""README's library tour runs as written against the installed exports."""

import re
from pathlib import Path

import diagbounds

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_imports_only_public_names():
    source = _tour()
    names = re.search(r"from diagbounds import \((.*?)\)", source, re.S).group(1)
    imported = [n.strip() for n in names.split(",") if n.strip()]
    assert imported
    assert set(imported) <= set(diagbounds.__all__), set(imported) - set(diagbounds.__all__)


def test_library_tour_runs():
    exec(compile(_tour(), str(README), "exec"), {})
