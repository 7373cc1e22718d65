"""Print one digest per case of the confidence-set matrix.

Usage: ``PYTHONPATH=src python tests/matrix_digests.py [--against FILE]``

The matrix crosses five tables (the three bundled ones, (1, 1, 10**6,
10**6) and (3, 1, 2, 5)) with the four assumptions and two regions: the
10-point EUA region (s1 0.8-0.9, s0 1.0) at 316**2, B = 500, seed 1, and
the 3 x 3 rectangle s1 0.8-0.9 x s0 0.98-1.0 at 101**2, B = 137,
alpha 0.1, seed 7.  Each line carries the sha256 of the bytes of
``points``, ``t_n`` and ``crit`` and of ``n_tested``.  The bits of a float
computation may depend on the CPU, so no digest is pinned here: save the
output of a run of the parent revision, then run the change on the same
machine with ``--against`` that file.  It prints the matrix again and exits
1, naming every case whose line differs from the file's or is missing
from it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from diagbounds import CellCounts, DependenceAssumption, SRegion, TestConfig, confidence_set
from diagbounds.datasets import list_datasets, load_dataset

REGIONS = (
    ("s1 0.8-0.9 x 10, s0 1.0", SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=10),
     TestConfig(alpha=0.05, seed=1, bootstrap=500, theta_grid=316)),
    ("3 x 3 rectangle", SRegion.rectangle(0.8, 0.9, 0.98, 1.0, s1_points=3, s0_points=3),
     TestConfig(alpha=0.1, seed=7, bootstrap=137, theta_grid=101)),
)


def tables() -> list[tuple[str, CellCounts]]:
    extra = [CellCounts(1, 1, 10**6, 10**6), CellCounts(3, 1, 2, 5)]
    return [(name, load_dataset(name)) for name in list_datasets()] + [(str(c.cells), c) for c in extra]


def digest(cs) -> str:
    h = hashlib.sha256()
    for arr in (cs.points, cs.t_n, cs.crit):
        h.update(arr.tobytes())
    h.update(str(cs.n_tested).encode())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="FILE", help="an earlier output of this script to compare with")
    args = ap.parse_args(argv)
    want = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            want = {line.rsplit(" | ", 2)[0]: line for line in fh.read().splitlines() if line}
    differ = []
    for label, region, cfg in REGIONS:
        for name, counts in tables():
            for a in DependenceAssumption:
                cs = confidence_set(counts, region, a, cfg)
                case = f"{label} | {name} | {a.value}"
                line = f"{case} | retained {len(cs)} | {digest(cs)}"
                print(line, flush=True)
                if want is not None and want.get(case) != line:
                    differ.append(case)
    if differ:
        print(f"{len(differ)} case(s) differ from {args.against}:", *differ, sep="\n", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
