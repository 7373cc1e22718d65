import sys
from pathlib import Path

from hypothesis import settings

# Allow running the suite from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import diagbounds  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

# A failing property test prints the @reproduce_failure line that replays it.
settings.register_profile("diagbounds", print_blob=True)
settings.load_profile("diagbounds")
