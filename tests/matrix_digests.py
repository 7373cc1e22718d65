"""Print one digest per case of the confidence-set matrix.

Usage: ``PYTHONPATH=src python tests/matrix_digests.py``

The matrix crosses five tables (the three bundled ones, (1, 1, 10**6,
10**6) and (3, 1, 2, 5)) with the four assumptions and two regions: the
10-point EUA region (s1 0.8-0.9, s0 1.0) at 316**2, B = 500, seed 1, and
the 3 x 3 rectangle s1 0.8-0.9 x s0 0.98-1.0 at 101**2, B = 137,
alpha 0.1, seed 7.  Each line carries the sha256 of the bytes of
``points``, ``t_n`` and ``crit`` and of ``n_tested``.  Run it before and
after a change on the same machine and compare the outputs: the bits of a
float computation may depend on the CPU, so no digest is pinned here.
"""

from __future__ import annotations

import hashlib

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


def main() -> None:
    for label, region, cfg in REGIONS:
        for name, counts in tables():
            for a in DependenceAssumption:
                cs = confidence_set(counts, region, a, cfg)
                print(f"{label} | {name} | {a.value} | retained {len(cs)} | {digest(cs)}", flush=True)


if __name__ == "__main__":
    main()
