"""The diagbounds benchmark: one command per workload, every metric by name and unit.

Run from the root of a checkout:

    python3 bench/run.py --workload infer-grid --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

- ``infer-grid``      CLI ``infer``: the bootstrap grid inversion.
- ``coverage``        CLI ``simulate-coverage``: many one-point tests.
- ``estimate-sweep``  CLI ``estimate``/``predict``/``sensitivity``/``prevalence``.

The command times set-up in fresh interpreters, then runs the workload as
a single-threaded closed loop in one child process (``worker.py``), whose
own child (``checker.py``) checks every output.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it restate the figures for a reader.

``--size tiny`` shrinks every call for the benchmark's own tests;
``--record-references`` rewrites the reference digests of the default
seed after a deliberate change of the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = Path.cwd()
WORKLOADS = ("infer-grid", "coverage", "estimate-sweep")
DEFAULT_SEED = 1
# Set-up probes per run, half before and half after the workload, so that
# they sample the machine at two times several seconds apart.
SETUP_REPEATS = 12
# The whole command must end within 180 s.
DEADLINE_S = 170.0
# Every run is single-threaded, numpy's BLAS included.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)
    if args.record_references and args.seed != DEFAULT_SEED:
        ap.error(f"references are recorded at the default seed {DEFAULT_SEED}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the benchmark ran out of time")
    return left


def measure_setup(env: dict, deadline: float, repeats: int, warm_up: bool) -> list[float]:
    """Set-up seconds of ``repeats`` fresh interpreters, after an optional warm-up."""
    times = []
    for i in range(repeats + warm_up):
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(CHECKOUT / "src")],
            cwd=CHECKOUT, env=env, capture_output=True, text=True,
            timeout=min(60.0, remaining(deadline)), check=True,
        )
        if i or not warm_up:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_worker(args, env: dict, deadline: float, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir),
    ]
    if args.record_references:
        cmd.append("--record")
    proc = subprocess.run(
        cmd, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=remaining(deadline), check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p95(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def call_means(r: dict) -> list[float]:
    """Each distinct call's mean latency over its repetitions in the run, in ms.

    The repetitions of a call are spread over the whole run, so the mean
    averages over the slow and fast periods of a shared machine, where a
    single sample lands on one or the other.
    """
    return [statistics.fmean(v) for v in r["latency_ms"].values()]


def end_to_end(r: dict, setup: list[float]) -> dict:
    lat = call_means(r)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_ms_p50": (statistics.median(lat), "ms"),
        "latency_ms_p95": (p95(lat), "ms"),
        "work_per_s": (r["work_per_s"], "1/s"),
        "peak_rss_mb": (r["peak_rss_kb"] / 1024.0, "MB"),
        "ok_ratio": (1.0 - r["failed"] / r["attempted"], "ratio"),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe(args, r: dict, metrics: dict) -> list[str]:
    """Readable lines, restating the workload's headline figures under their bench/README.md names."""
    lines = [
        f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"python={platform.python_version()} numpy={r['numpy']}",
        f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
        f"{r['attempted']} calls attempted, {r['failed']} failed, {r['refuted']} refuted (not failures); "
        f"error_rate {r['failed'] / r['attempted']:.6g}",
    ]
    lines += [f"problem: {p}" for p in r["problems"]]
    if args.trace:
        lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
        return lines
    lat = call_means(r)
    n, calls = len(lat), sum(map(len, r["latency_ms"].values()))
    above = sum(x > metrics["latency_ms_p95"][0] for x in lat)
    lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"latency samples: {n} distinct calls ({above} above p95), {calls} timed calls in all")
    if args.workload == "infer-grid":
        lines.append(f"infer_s = {metrics['latency_ms_p50'][0] / 1000.0:.6g} s (mean of {calls} calls)")
    elif args.workload == "coverage":
        lines.append(f"coverage_reps_per_s = {metrics['work_per_s'][0]:.6g} 1/s over {calls} calls")
    else:
        lines.append(
            f"analysis_ms_p50 = {metrics['latency_ms_p50'][0]:.6g} ms, "
            f"analysis_ms_p95 = {metrics['latency_ms_p95'][0]:.6g} ms over {n} distinct calls"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "diagbounds" / "__init__.py").is_file():
        print(f"error: {CHECKOUT} is not the root of a diagbounds checkout (no src/diagbounds)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = {**os.environ, **THREAD_ENV}
    workdir = CHECKOUT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        half = 0 if args.trace else 1 if args.size == "tiny" else SETUP_REPEATS // 2
        setup = measure_setup(env, deadline, half, warm_up=True) if half else []
        result = run_worker(args, env, deadline, workdir)
        setup += measure_setup(env, deadline, half, warm_up=False)
    except (subprocess.SubprocessError, TimeoutError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["per_layer"] if args.trace else end_to_end(result, setup)
    for line in describe(args, result, metrics):
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
