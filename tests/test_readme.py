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
    header = re.search(r"from diagbounds import \((.*?)\)", source, re.S)
    imported = [n.strip() for n in header.group(1).split(",") if n.strip()]
    assert imported
    assert set(imported) <= set(diagbounds.__all__), set(imported) - set(diagbounds.__all__)
    body = source[header.end():]
    unused = [n for n in imported if not re.search(rf"\b{n}\b", body)]
    assert not unused, f"imported but never used in the tour: {unused}"


def test_library_tour_runs():
    exec(compile(_tour(), str(README), "exec"), {})
