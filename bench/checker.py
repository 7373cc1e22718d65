"""Checks the outputs of one run's CLI calls in a process of its own.

``worker.py`` starts this script from the root of a checkout and sends one
JSON line per CLI call: the call, its exit code, its output directory and
its standard output.  The script answers each with one JSON line, the
call's ``Outcome``.  The checks parse every output and re-run tests at
sampled grid points; in this process their memory never counts toward
the peak resident memory of the worker, which runs only the program.

With ``--record`` the digests seen at the default seed are written to
``references.json`` next to this script when standard input ends.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    # rsw2_test and sharp_union warn about refuted reference points.
    warnings.simplefilter("ignore")

    refs_all = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    checker = workloads.Checker(args.seed, refs_all.get(args.size, {}).get(args.workload), record=args.record)
    for line in sys.stdin:
        msg = json.loads(line)
        call = workloads.Call(**{**msg["call"], "argv": tuple(msg["call"]["argv"])})
        try:
            outcome = checker.check(call, msg["rc"], Path(msg["out"]), msg["stdout"])
        except Exception as exc:  # unreadable output is a failed call, not the end of the run
            outcome = workloads.Outcome(problem=f"{call.key}: check raised {exc!r}")
        print(json.dumps(dataclasses.asdict(outcome)), flush=True)

    if args.record:
        refs_all.setdefault(args.size, {})[args.workload] = dict(sorted(checker.seen.items()))
        REFERENCES.write_text(json.dumps(refs_all, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
