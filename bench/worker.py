"""Runs one workload as a closed loop in its own process and prints its measurements.

``run.py`` starts this script from the root of a checkout, so that the
workload's peak resident memory is its own.  The loop calls
``diagbounds.cli.main`` in-process: each call starts when the previous one
has returned and its outputs have been checked.  The last line of
standard output is a JSON object with the raw measurements.

With ``--trace 1`` every call runs twice, untraced and then traced.  The
per-layer figures come from the traced calls; the difference in wall time
between the two passes is the tracing overhead.

The output checks run in a separate process (``checker.py``), so the
worker's peak resident memory is the program's and the loop's alone.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
CHECKOUT = Path.cwd()
sys.path.insert(0, str(CHECKOUT / "src"))

import numpy as np  # noqa: E402

import diagbounds  # noqa: E402
from diagbounds import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Pass:
    """Tallies of one pass of the closed loop."""

    def __init__(self) -> None:
        self.latency_ms: dict[str, list[float]] = {}
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.refuted = 0
        self.bytes_written = 0
        self.problems: list[str] = []

    @property
    def call_ms(self) -> float:
        return sum(map(sum, self.latency_ms.values()))


class Checks:
    """The checker process: one request and one answer per CLI call."""

    def __init__(self, args) -> None:
        cmd = [
            sys.executable, str(BENCH / "checker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size,
        ]
        if args.record:
            cmd.append("--record")
        self.proc = subprocess.Popen(cmd, cwd=CHECKOUT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def check(self, call, rc: int, out: Path, stdout: str) -> dict:
        msg = {"call": dataclasses.asdict(call), "rc": rc, "out": str(out), "stdout": stdout}
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"the checker process ended with exit code {self.proc.wait()}")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"the checker process ended with exit code {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def run_call(call, out: Path, checks: Checks, main, tally: Pass) -> None:
    """One CLI call, timed from argv to files on disk, then checked."""
    stdout = io.StringIO()
    rc, problem = None, f"{call.key}: returned no exit code"
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = main([*call.argv, "--out", str(out)])
    except (Exception, SystemExit) as exc:  # a crash is a failed call, not the end of the run
        problem = f"{call.key}: raised {exc!r}"
    tally.latency_ms.setdefault(call.key, []).append((perf_counter() - t0) * 1000.0)
    tally.attempted += 1
    if rc is not None:
        outcome = checks.check(call, rc, out, stdout.getvalue())
        problem = outcome["problem"]
        tally.units += outcome["units"]
        tally.refuted += outcome["refuted"]
    if problem is not None:
        tally.failed += 1
        if len(tally.problems) < 20:
            tally.problems.append(problem)
    if out.is_dir():
        tally.bytes_written += sum(f.stat().st_size for f in out.iterdir())
        shutil.rmtree(out)


def closed_loop(calls, seconds: float, step) -> None:
    """Run ``step`` over as many whole cycles of the calls as fit in ``seconds``.

    At least one cycle runs.  Another cycle starts only if, at the mean
    cycle time so far, it ends within ``seconds``; whole cycles keep the
    mix of calls the same in every run.
    """
    start = perf_counter()
    cycles = 0
    while True:
        for i, call in enumerate(calls):
            step(call, cycles * len(calls) + i)
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            return


def layer_metrics(tr: tracing.Tracer, plain: Pass, traced: Pass) -> dict:
    """Per-layer figures of the traced pass, per CLI call."""
    n = traced.attempted
    metrics = {}
    self_sum = 0.0
    for name, (calls, total, own) in tr.layer_times().items():
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.s"] = (total / n, "s")
        metrics[f"{name}.self_s"] = (own / n, "s")
        self_sum += own
    tr.counts["report.bytes_written"] = traced.bytes_written
    for name in tracing.COUNTS:
        metrics[name] = (tr.counts[name] / n, "bytes" if name == "report.bytes_written" else "count")
    tested = tr.counts["inference.grid_points_tested"]
    retained = tr.counts["inference.grid_points_retained"]
    metrics["inference.retained_ratio"] = (retained / tested if tested else 0.0, "ratio")
    untraced_s = plain.call_ms / 1000.0 / plain.attempted
    traced_s = traced.call_ms / 1000.0 / n
    metrics["trace.calls"] = (n, "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.self_sum_s"] = (self_sum / n, "s")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    src = (CHECKOUT / "src").resolve()
    if src not in Path(diagbounds.__file__).resolve().parents:
        print(f"error: imported diagbounds from {diagbounds.__file__}, not from {src}", file=sys.stderr)
        return 3
    # sharp_union warns about every refuted reference point it drops.
    warnings.simplefilter("ignore")

    calls = workloads.make_calls(args.workload, args.seed, args.size, args.workdir)
    out_root = args.workdir / "out"
    checks = Checks(args)
    plain = Pass()
    passes = [plain]
    result = {}
    try:
        if not args.trace:
            closed_loop(calls, args.seconds, lambda call, i: run_call(call, out_root / f"call{i}", checks, cli.main, plain))
        else:
            # Each call runs untraced, then traced, so both passes see the same
            # calls under the same conditions.
            tr = tracing.Tracer()
            traced = Pass()
            passes.append(traced)

            def pair(call, i):
                run_call(call, out_root / f"call{i}", checks, cli.main, plain)
                tr.install()
                try:
                    run_call(call, out_root / f"call{i}t", checks, tr.wrap(tracing.ROOT, cli.main), traced)
                finally:
                    tr.uninstall()

            closed_loop(calls, args.seconds, pair)
            tr.dump(CHECKOUT / ".bench_out" / "traces" / f"{args.workload}-seed{args.seed}.json")
            result["per_layer"] = layer_metrics(tr, plain, traced)
        checks.close()
    finally:
        checks.kill()

    result.update(
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        refuted=sum(p.refuted for p in passes),
        problems=[q for p in passes for q in p.problems][:20],
        latency_ms=plain.latency_ms,
        work_per_s=plain.units * 1000.0 / plain.call_ms,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        numpy=np.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
