"""Print one digest per case of the confidence-set matrix.

Usage: ``PYTHONPATH=src python tests/matrix_digests.py [--values NPZ] [--against FILE]``

The matrix crosses five tables (the three bundled ones, (1, 1, 10**6,
10**6) and (3, 1, 2, 5)) with the four assumptions and two regions: the
10-point EUA region (s1 0.8-0.9, s0 1.0) at 316**2, B = 500, seed 1, and
the 3 x 3 rectangle s1 0.8-0.9 x s0 0.98-1.0 at 101**2, B = 137,
alpha 0.1, seed 7.  Each line carries the retained count, the sha256 of
the bytes of ``points`` and of ``n_tested`` (the retained set), and the
sha256 of ``points``, ``t_n``, ``crit`` and ``n_tested`` (the whole set).

The bits of a float computation may depend on the CPU, so no digest is
pinned here: save the output of a run of the parent revision, then run the
change on the same machine with ``--against`` that file.  It prints the
matrix again and exits 1, naming every case whose retained set differs
from the file's or is missing from it.  Cases whose retained set is the
same but whose ``t_n`` or ``crit`` moved are listed without failing.  With
``--values NPZ`` a run saves every case's ``t_n`` and ``crit``, and an
``--against`` run reads the parent's from it to print each listed case's
largest relative and absolute move of ``t_n`` and of ``crit``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

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


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else str(part).encode())
    return h.hexdigest()[:16]


def moves(new: np.ndarray, old: np.ndarray) -> str:
    """The largest |new - old| / |old| and |new - old|, counting equal values (infinities included) as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        move = np.where(new == old, 0.0, np.abs(new - old))
        rel = np.where(new == old, 0.0, move / np.abs(old))
    return "%.2g (absolute %.2g)" % (rel.max(initial=0.0), move.max(initial=0.0))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="FILE", help="an earlier output of this script to compare with")
    ap.add_argument("--values", metavar="NPZ", help="save t_n and crit here, or with --against read the earlier ones")
    args = ap.parse_args(argv)
    want = old = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            want = {line.rsplit(" | ", 3)[0]: line for line in fh.read().splitlines() if line}
        if args.values:
            old = np.load(args.values)
    saved, differ, moved = {}, [], []
    cases = ((label, region, cfg, name, counts, a) for label, region, cfg in REGIONS
             for name, counts in tables() for a in DependenceAssumption)
    for k, (label, region, cfg, name, counts, a) in enumerate(cases):
        cs = confidence_set(counts, region, a, cfg)
        case = f"{label} | {name} | {a.value}"
        kept = f"retained {len(cs)} | set {digest(cs.points, cs.n_tested)}"
        line = f"{case} | {kept} | {digest(cs.points, cs.t_n, cs.crit, cs.n_tested)}"
        print(line, flush=True)
        if want is None:
            saved[f"t_n{k}"], saved[f"crit{k}"] = cs.t_n, cs.crit
        elif not want.get(case, "").startswith(f"{case} | {kept} | "):
            differ.append(case)
        elif want[case] != line:
            note = ""
            if old is not None:
                note = f": t_n {moves(cs.t_n, old[f't_n{k}'])}, crit {moves(cs.crit, old[f'crit{k}'])}"
            moved.append(case + note)
    if want is None and args.values:
        np.savez(args.values, **saved)
    if moved:
        print(f"{len(moved)} case(s) keep their set but moved t_n or crit (largest move):",
              *moved, sep="\n", file=sys.stderr)
    if differ:
        print(f"{len(differ)} case(s) differ in their retained set from {args.against}:", *differ,
              sep="\n", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
