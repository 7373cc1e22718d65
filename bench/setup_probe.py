"""Times the set-up a CLI user pays before any work, in a fresh interpreter.

Imports ``diagbounds.cli`` from the ``src`` directory given as the only
argument, builds the argument parser and loads a bundled dataset, then
prints the elapsed seconds.
"""

import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
from diagbounds import cli  # noqa: E402

cli.build_parser()
cli.load_dataset("eua_symptomatic")
print(perf_counter() - t0)
